"""Traced mode: spans around the public functions of each pinquad layer.

The wrappers are installed from outside the program.  Every module of the
package that binds a wrapped function under some name (``quadratic`` and
``ggroups`` hold their own ``d``, ``cup_i`` and ``sq``, the package root
re-exports most names) gets the wrapper under that name, so calls between
layers are traced as well as calls from the benchmark.  Spans (name,
start, end, parent) stay in memory and are written out when the run ends.

Per-layer metrics are aggregated from the spans: ``<layer>.calls`` counts
spans, ``<layer>.self_s`` sums self time (a span's duration minus the time
its child spans cover).  Self times are normalised by the reference kernel
timed before the operation the span belongs to, like every end-to-end time.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

# (module, attribute, span name); an attribute "Class.method" wraps a method.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("pinquad.complexes", "barycentric_subdivide", "complexes.subdivide"),
    ("pinquad.complexes", "validate_manifold", "complexes.validate"),
    ("pinquad._gf2", "nullspace", "gf2.nullspace"),
    ("pinquad._gf2", "rank", "gf2.rank"),
    ("pinquad._gf2", "solve", "gf2.solve"),
    ("pinquad.cochains", "CohomologySolver.__init__", "cochains.solver"),
    ("pinquad.cochains", "CohomologySolver.decompose", "cochains.decompose"),
    ("pinquad.cochains", "d", "cochains.d"),
    ("pinquad.cochains", "cup_i", "cochains.cup_i"),
    ("pinquad.cochains", "sq", "cochains.sq"),
    ("pinquad.cochains", "integrate", "cochains.integrate"),
    ("pinquad.cochains", "pullback", "cochains.pullback"),
    ("pinquad.quadratic", "quad_context", "quadratic.context"),
    ("pinquad.quadratic", "eval_quadratic", "quadratic.eval"),
    ("pinquad.quadratic", "verify_axioms", "quadratic.verify"),
    ("pinquad.quadratic", "v1_witness", "quadratic.v1_witness"),
    ("pinquad.quadratic", "transfer_subdivision", "quadratic.transfer"),
    ("pinquad.ggroups", "g_pin", "ggroups.formula"),
    ("pinquad.ggroups", "g_pin_bruteforce", "ggroups.oracle"),
    ("pinquad.suspension", "suspend", "suspension.suspend"),
    ("pinquad.fixtures", "catalog", "fixtures.catalog"),
    ("pinquad.textio", "format_complex", "textio.format"),
    ("pinquad.textio", "format_cochain", "textio.format"),
    ("pinquad.textio", "parse_complex", "textio.parse"),
    ("pinquad.textio", "parse_cochain", "textio.parse"),
    ("pinquad.cli", "main", "cli.main"),
)

# The per-layer metrics, in the order BENCHMARK.json lists them.
LAYER_METRICS: Tuple[Tuple[str, str], ...] = (
    ("complexes.subdivide.calls", "count"),
    ("complexes.subdivide.self_s", "s"),
    ("complexes.validate.calls", "count"),
    ("complexes.validate.self_s", "s"),
    ("complexes.simplices", "count"),
    ("gf2.nullspace.calls", "count"),
    ("gf2.nullspace.self_s", "s"),
    ("gf2.rank.self_s", "s"),
    ("gf2.solve.self_s", "s"),
    ("cochains.solver.calls", "count"),
    ("cochains.solver.self_s", "s"),
    ("cochains.solver.columns", "count"),
    ("cochains.decompose.calls", "count"),
    ("cochains.decompose.self_s", "s"),
    ("cochains.d.calls", "count"),
    ("cochains.d.self_s", "s"),
    ("cochains.cup_i.calls", "count"),
    ("cochains.cup_i.self_s", "s"),
    ("cochains.sq.calls", "count"),
    ("cochains.sq.self_s", "s"),
    ("cochains.integrate.self_s", "s"),
    ("cochains.pullback.self_s", "s"),
    ("cochains.cochain_new.calls", "count"),
    ("quadratic.context.calls", "count"),
    ("quadratic.context.self_s", "s"),
    ("quadratic.eval.calls", "count"),
    ("quadratic.eval.self_s", "s"),
    ("quadratic.verify.self_s", "s"),
    ("quadratic.v1_witness.self_s", "s"),
    ("quadratic.transfer.self_s", "s"),
    ("ggroups.formula.calls", "count"),
    ("ggroups.formula.self_s", "s"),
    ("ggroups.oracle.calls", "count"),
    ("ggroups.oracle.self_s", "s"),
    ("identities.suite.calls", "count"),
    ("identities.suite.self_s", "s"),
    ("identities.trials", "count"),
    ("suspension.suspend.calls", "count"),
    ("suspension.suspend.self_s", "s"),
    ("fixtures.catalog.self_s", "s"),
    ("textio.format.self_s", "s"),
    ("textio.parse.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("cli.startup_ms", "ms"),
    ("trace.overhead_s", "s"),
)

Span = Tuple[str, float, float, int]


class Tracer:
    """Span recorder.  Root spans are the benchmark's operations; calls made
    while no operation is open (the benchmark's own checks) are not
    recorded."""

    def __init__(self, active: bool = False) -> None:
        self.spans: List[Optional[Span]] = []
        self.stack: List[int] = [-1]
        self.counts: Dict[str, int] = defaultdict(int)
        self.active = active

    def wrap(self, name: str, fn: Callable, count: Optional[Callable] = None) -> Callable:
        spans, stack, counts = self.spans, self.stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent)
            if count is not None:
                count(counts, args, result)
            return result

        return traced

    def open(self, name: str) -> int:
        self.active = True
        idx = len(self.spans)
        self.spans.append((name, time.perf_counter(), 0.0, self.stack[-1]))
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.active = False
        self.stack.pop()
        name, t0, _, parent = self.spans[idx]
        self.spans[idx] = (name, t0, time.perf_counter(), parent)

    def dump(self, path: str, extra: Optional[dict] = None) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write(json.dumps({"counts": dict(self.counts), **(extra or {})}) + "\n")
            for s in self.spans:
                f.write(json.dumps(s) + "\n")


def _count_complex(counts, args, result) -> None:
    counts["complexes.simplices"] += sum(result.complex.f_vector())


def _count_solver(counts, args, result) -> None:
    solver = args[0]
    above = getattr(solver, "_above", None)
    if above is None:
        above = solver.pair.relative_simplices(solver.degree + 1)
    counts["cochains.solver.columns"] += len(solver.simplices) + len(above)


def _count_suite(counts, args, result) -> None:
    counts["identities.trials"] += result.trials


_COUNTERS = {
    "complexes.subdivide": _count_complex,
    "complexes.validate": _count_complex,
    "cochains.solver": _count_solver,
}


def _package_modules() -> List[object]:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "pinquad" or name.startswith("pinquad."))]


def install(tracer: Tracer) -> None:
    """Rebind every traced function in every pinquad module that binds it."""
    for modname, attr, span in TARGETS:
        importlib.import_module(modname)
    for modname, attr, span in TARGETS:
        mod = sys.modules[modname]
        count = _COUNTERS.get(span)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            setattr(cls, meth, tracer.wrap(span, getattr(cls, meth), count))
            continue
        orig = getattr(mod, attr)
        wrapped = tracer.wrap(span, orig, count)
        for m in _package_modules():
            for key, value in list(vars(m).items()):
                if value is orig:
                    setattr(m, key, wrapped)
    # the identity suites are dispatched through a name -> function table
    identities = importlib.import_module("pinquad.identities")
    for key, fn in list(identities._SUITES.items()):
        identities._SUITES[key] = tracer.wrap("identities.suite", fn, _count_suite)
    # Cochain construction is counted, not spanned: it is far too frequent
    cochains = sys.modules["pinquad.cochains"]
    init = cochains.Cochain.__init__
    counts = tracer.counts

    @functools.wraps(init)
    def counted_init(self, *args, **kwargs):
        if tracer.active:
            counts["cochains.cochain_new.calls"] += 1
        init(self, *args, **kwargs)

    cochains.Cochain.__init__ = counted_init


def aggregate(spans: List[Optional[Span]], factors: Dict[int, float]) -> Dict[str, float]:
    """Per-name call counts and normalised self times.

    ``factors`` maps the index of each root span to its normalisation
    factor C_REF / c_run; every span inherits the factor of its root.
    A parent always precedes its children in ``spans``.
    """
    child: Dict[int, float] = defaultdict(float)
    root_of: Dict[int, int] = {}
    for idx, span in enumerate(spans):
        if span is not None:
            _, t0, t1, parent = span
            root_of[idx] = idx if parent < 0 else root_of[parent]
            if parent >= 0:
                child[parent] += t1 - t0
    out: Dict[str, float] = {}
    for idx, span in enumerate(spans):
        if span is not None:
            name, t0, t1, _ = span
            self_s = ((t1 - t0) - child[idx]) * factors.get(root_of[idx], 1.0)
            out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
            out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + self_s
    return out
