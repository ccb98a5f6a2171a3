"""Command line front end.

Subcommands: info, cohomology, quad, ggroup, identities.  Output is plain
text or json-lines (stable key order, so identical seeds and inputs give
byte-identical output).  Every result carries the content hash of the
complex it was computed from.  Exit codes: 0 success, 1 usage, parse or
file error, 2 mathematical failure (an identity suite or a verification
reported violations).

Start-up is most of a small command's time, so each command imports only
the modules it computes with.  Every command loads ``cochains``,
``complexes``, ``fixtures`` and ``textio``; beyond them

- ``info`` and ``cohomology`` load nothing more;
- ``quad`` loads ``quadratic`` and ``suspension``;
- ``ggroup`` loads ``ggroups``, but not ``quadratic``;
- ``identities`` loads ``identities`` and ``suspension``.

For the same reason the package's records are NamedTuples or plain
classes: the standard library's record decorator would bring ``inspect``
and ``ast`` into every command.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Tuple

from .cochains import solver as cohomology_solver
from .complexes import ComplexPair, ManifoldPair
from .errors import SIZE_BUDGET, ParseError, PinquadError
from .fixtures import CATALOG_NAMES, RAW_PAIRS, catalog, fixture_text
from .textio import (content_hash, format_cochain, format_complex, integer,
                     manifold_from_text, parse_cochain)


def _load_manifold(args) -> Tuple[ManifoldPair, str]:
    """The manifold named by --fixture, --complex or --pair, with its hash."""
    if args.fixture:
        text = fixture_text(args.fixture)
        return catalog(args.fixture), content_hash(text)
    path = args.complex or args.pair
    if path:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
        return (
            manifold_from_text(text, require_full=False, require_ordering=False),
            content_hash(text),
        )
    raise ParseError("one of --fixture, --complex or --pair is required")


def _ggroup_pair(args) -> Tuple[ComplexPair, int, str, str]:
    """Group computations use the raw minimal pairs where they exist."""
    raw = RAW_PAIRS.get(args.fixture)
    if raw is not None:
        pair = raw()
        return (pair, pair.ambient.dim, f"{args.fixture}(raw)",
                content_hash(format_complex(pair.ambient)))
    m, h = _load_manifold(args)
    return m.pair, m.n, args.fixture or args.complex or args.pair, h


def _emit(fmt: str, record: dict, text: str) -> None:
    """Print the record as one JSON line, or the text."""
    if fmt == "jsonl":
        print(json.dumps(record, sort_keys=True, separators=(",", ":")))
    else:
        print(text)


def _cmd_info(args) -> int:
    m, h = _load_manifold(args)
    record = {
        "hash": h,
        "f_vector": list(m.complex.f_vector()),
        "dim": m.n,
        "closed": m.closed,
        "orientable": m.orientable,
        "euler": m.complex.euler(),
        "boundary_full": m.boundary_full,
        "ordering_ok": m.ordering_ok,
    }
    status = "closed" if m.closed else "with boundary"
    text = (
        f"f-vector {m.complex.f_vector()}  dim {m.n}  {status}  "
        f"{'orientable' if m.orientable else 'nonorientable'}  "
        f"chi {m.complex.euler()}  [hash {h}]"
    )
    _emit(args.format, record, text)
    return 0


def _cmd_cohomology(args) -> int:
    m, h = _load_manifold(args)
    pair = m.pair if args.rel else m.absolute()
    solver = cohomology_solver(pair, args.k)
    record = {
        "hash": h,
        "k": args.k,
        "relative": bool(args.rel),
        "dim": solver.dim,
        "basis": [format_cochain(p).strip().splitlines() for p in solver.basis],
    }
    text = f"dim H^{args.k}{'(M, dM)' if args.rel else '(M)'} = {solver.dim}"
    _emit(args.format, record, text)
    if args.format == "text" and args.basis:
        for j, p in enumerate(solver.basis):
            print(f"# basis cocycle {j}")
            print(format_cochain(p), end="")
    return 0


def _parse_values(text: str) -> List[int]:
    return [integer(v) for v in text.split(",")] if text else []


def _cmd_quad(args) -> int:
    from .quadratic import (
        act,
        boundary_quadratic,
        brown_invariants,
        enumerate_quadratics,
        eval_quadratic,
        make_quadratic,
        negate,
        verify_axioms,
    )

    m, h = _load_manifold(args)
    mode = args.mode
    if args.sub == "enumerate":
        qs = enumerate_quadratics(m, mode)
        for q in qs:
            _emit(args.format, {"hash": h, "mode": mode, "values": list(q.basis_values)},
                  f"Q values {q.basis_values}")
        return 0
    if args.sub == "brown":
        betas = brown_invariants(m, mode)
        _emit(args.format, {"hash": h, "mode": mode, "betas": betas},
              f"brown invariants {betas}")
        return 0
    if args.sub == "verify":
        qs = enumerate_quadratics(m, mode)
        failures = 0
        for j, q in enumerate(qs):
            rep = verify_axioms(q, trials=args.trials, seed=args.seed + j)
            failures += len(rep.failures)
        _emit(args.format,
              {"hash": h, "mode": mode, "functions": len(qs),
               "trials": args.trials, "seed": args.seed, "failures": failures},
              f"{len(qs)} functions x {args.trials} trials: {failures} failures")
        return 0 if failures == 0 else 2
    # the remaining subcommands start from explicit basis values
    q = make_quadratic(m, mode, _parse_values(args.values))
    if args.sub == "negate":
        nq = negate(q)
        _emit(args.format, {"hash": h, "mode": mode, "values": list(nq.basis_values)},
              f"-Q values {nq.basis_values}")
        return 0
    if args.sub == "boundary":
        bq = boundary_quadratic(q)
        _emit(args.format, {"hash": h, "mode": mode, "boundary_values": list(bq.basis_values)},
              f"dQ values {bq.basis_values}")
        return 0
    if not args.cochain:
        raise ParseError(f"quad {args.sub} needs --cochain")
    with open(args.cochain, "r", encoding="utf-8") as f:
        c = parse_cochain(f.read(), m.complex)
    if args.sub == "eval":
        val = eval_quadratic(q, c)
        _emit(args.format, {"hash": h, "mode": mode, "value_z4": val.z4},
              f"Q(p) = {val.z4} (Z/4)")
        return 0
    # argparse's choices leave act as the one subcommand still to run
    qa = act(q, c)
    _emit(args.format, {"hash": h, "mode": mode, "values": list(qa.basis_values)},
          f"Q_a values {qa.basis_values}")
    return 0


def _cmd_ggroup(args) -> int:
    from .ggroups import g_pin, g_pin_bruteforce

    pair, n, label, h = _ggroup_pair(args)
    if args.n is not None:
        n = args.n
    if args.engine == "bruteforce":
        g = g_pin_bruteforce(pair, n, size_budget=1 << args.budget_log2)
    else:
        g = g_pin(pair, n)
    record = {
        "hash": h,
        "fixture": label,
        "n": n,
        "engine": args.engine,
        "dims": {"qh": g.dims[0], "sh": g.dims[1], "rank_phi": g.dims[2]},
        "profile": g.profile(),
        "order": g.order,
    }
    _emit(args.format, record,
          f"G_{n}^pin({label}) = {g.profile()}  (order {g.order})  [hash {h}]")
    return 0


def _cmd_identities(args) -> int:
    from . import identities

    names = args.suites.split(",") if args.suites else None
    reports = identities.run_suites(
        trials=args.trials, seed=args.seed, names=names,
        mutate_signs=args.mutate_signs,
    )
    total = 0
    for r in reports:
        total += len(r.failures)
        _emit(args.format, {"failures": len(r.failures), "seed": args.seed,
              "suite": r.name, "trials": r.trials},
              f"{r.name:18s} {r.trials} trials  {len(r.failures)} failures")
    return 0 if total == 0 else 2


def count(text: str) -> int:
    """A non-negative int option value, such as a trial count or a log2."""
    value = integer(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{value} is negative")
    return value


# The largest --budget-log2.  No enumeration of 2^64 elements ends, and the
# option's 2^value is built as an int, so a larger value is refused.
BUDGET_LOG2_CAP = 64


def budget_log2(text: str) -> int:
    """A --budget-log2 value: a count no larger than BUDGET_LOG2_CAP."""
    value = count(text)
    if value > BUDGET_LOG2_CAP:
        raise argparse.ArgumentTypeError(f"{value} exceeds the cap {BUDGET_LOG2_CAP}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pinquad",
        description="Cochain cup_i calculus, quadratic functions, and pin "
                    "structure groups on ordered simplicial complexes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, fixture=True):
        if fixture:
            source = p.add_mutually_exclusive_group()
            source.add_argument("--fixture", choices=CATALOG_NAMES, default=None)
            source.add_argument("--complex", default=None, help="complex text file")
            source.add_argument("--pair", default=None,
                                help="complex text file whose boundary lines define "
                                     "the subcomplex")
        p.add_argument("--format", choices=("text", "jsonl"), default="text")

    p = sub.add_parser("info", help="f-vector, manifold and orientation status")
    add_common(p)
    p.set_defaults(func=_cmd_info)

    p = sub.add_parser("cohomology", help="mod-2 Betti numbers and basis cocycles")
    add_common(p)
    p.add_argument("-k", type=integer, required=True)
    p.add_argument("--rel", action="store_true", help="relative to the boundary")
    p.add_argument("--basis", action="store_true", help="print basis cocycles")
    p.set_defaults(func=_cmd_cohomology)

    p = sub.add_parser("quad", help="quadratic function operations")
    p.add_argument("sub", choices=("enumerate", "eval", "act", "negate",
                                   "boundary", "brown", "verify"))
    add_common(p)
    p.add_argument("--mode", choices=("pin", "spin"), default="pin")
    p.add_argument("--values", default="", help="comma separated Z/4 basis values")
    p.add_argument("--cochain", default=None, help="cochain text file")
    p.add_argument("--trials", type=count, default=200)
    p.add_argument("--seed", type=integer, default=0)
    p.set_defaults(func=_cmd_quad)

    p = sub.add_parser("ggroup", help="G_n^pin profile")
    add_common(p)
    p.add_argument("-n", type=integer, default=None)
    p.add_argument("--engine", choices=("formula", "bruteforce"), default="formula")
    p.add_argument("--budget-log2", type=budget_log2, default=SIZE_BUDGET.bit_length() - 1,
                   help=f"log2 of the oracle's budget, at most {BUDGET_LOG2_CAP}")
    p.set_defaults(func=_cmd_ggroup)

    p = sub.add_parser("identities", help="randomized identity suites")
    add_common(p, fixture=False)
    p.add_argument("--trials", type=count, default=1000)
    p.add_argument("--seed", type=integer, default=0)
    p.add_argument("--suites", default=None,
                   help="comma separated suite names (default: all)")
    p.add_argument("--mutate-signs", action="store_true",
                   help="inject a wrong cup_i sign (control; must fail)")
    p.set_defaults(func=_cmd_identities)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 1 if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ParseError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except PinquadError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
