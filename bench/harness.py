"""Timing core of the benchmark: the reference kernel, the normalisation of
every duration by it, and the loop that runs a workload's passes.

Normalisation.  The machine's single-process speed drifts by up to about 2x
in phases of a second or so (the CPU itself slows: process CPU time grows
with wall time), so raw durations from two runs are not comparable.  Every
operation is therefore timed together with a fixed pure-Python reference
kernel: KERNEL_REPEATS kernel runs just before it and just after it, and
one run every SAMPLE_EVERY seconds while it runs (from a SIGALRM handler,
whose time is taken out of the operation's).  The operation's duration is
reported as ``raw * C_REF / c_run``, where c_run is the interquartile mean
of those kernel times, which follows the phases a long operation spans
but not a lone interrupted kernel run: seconds at the nominal machine
speed at which the kernel takes C_REF seconds.  The kernel does the same
kinds of work as the engine (big-int XOR with lowest-bit pivot lookups,
and tuple/dict traffic over simplices), so both slow down together.
"""

from __future__ import annotations

import contextlib
import gc
import math
import random
import resource
import signal
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

# The kernel's typical time in seconds on the reference machine (2 shared
# cores, Python 3.11).  Fixed: changing it rescales every figure.
C_REF = 0.0006
KERNEL_REPEATS = 3
SAMPLE_EVERY = 0.025

_K_RNG = random.Random(20180830)
_K_ROWS = tuple(_K_RNG.getrandbits(2400) | 1 for _ in range(40))
_K_SIMPLICES = tuple(
    (a, b, c) for a in range(12) for b in range(a + 1, 12) for c in range(b + 1, 12)
)


def reference_kernel() -> int:
    """Fixed work: a GF(2) echelon of big ints, then a face-incidence count.

    Callers time it with the cyclic garbage collector paused, so that a
    collection of the program's objects is not charged to the kernel."""
    rows: Dict[int, int] = {}
    for v in _K_ROWS:
        while v:
            p = (v & -v).bit_length() - 1
            r = rows.get(p)
            if r is None:
                rows[p] = v
                break
            v ^= r
    faces: Dict[tuple, int] = {}
    for s in _K_SIMPLICES:
        for j in range(3):
            f = s[:j] + s[j + 1:]
            faces[f] = faces.get(f, 0) ^ 1
    return len(rows) + len(faces)


@contextlib.contextmanager
def _gc_paused():
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def kernel_times(count: int) -> List[float]:
    """Wall times of `count` kernel runs, in seconds."""
    ts = []
    with _gc_paused():
        for _ in range(count):
            t0 = time.perf_counter()
            reference_kernel()
            ts.append(time.perf_counter() - t0)
    return ts


def interquartile_mean(xs: List[float]) -> float:
    xs = sorted(xs)
    cut = len(xs) // 4
    return statistics.mean(xs[cut:len(xs) - cut])


class OpFailed(Exception):
    """An operation ended in a program fault (crash, traceback)."""


@dataclass
class Op:
    """One timed operation of a pass.

    ``fn`` does the work and returns its result, raising OpFailed (or any
    exception) when the program faults.  ``fingerprint`` maps a result to a
    small comparable value so that later passes can be checked against the
    first one without re-running the full checks.
    """

    label: str
    fn: Callable[[], object]
    fingerprint: Callable[[object], object] = lambda r: None


@dataclass
class Timed:
    raw: float
    norm: float


@dataclass
class RunStats:
    setups: List[Timed] = field(default_factory=list)
    passes: List[Timed] = field(default_factory=list)
    ops: List[Timed] = field(default_factory=list)
    ops_per_pass: int = 0
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)


class _Sampler:
    """Times the kernel on every SIGALRM while an operation runs."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.spent = 0.0
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples += kernel_times(1)
        self.spent += time.perf_counter() - t0

    def start(self) -> None:
        self.samples = []
        self.spent = 0.0
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY, SAMPLE_EVERY)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)


_sampler: Optional[_Sampler] = None


def timed_call(fn: Callable[[], object]):
    """Run fn between kernel timings; return (result, error, Timed).

    A full collection first, so that garbage from earlier operations is
    neither collected inside this one nor counted in its peak memory."""
    global _sampler
    if _sampler is None:
        _sampler = _Sampler()
    gc.collect()
    pre = kernel_times(KERNEL_REPEATS)
    error: Optional[Exception] = None
    result = None
    _sampler.start()
    t0 = time.perf_counter()
    try:
        result = fn()
    except Exception as e:  # an operation's fault is counted, not fatal
        error = e
    finally:
        t1 = time.perf_counter()
        _sampler.stop()
    raw = t1 - t0 - _sampler.spent
    c_run = interquartile_mean(pre + _sampler.samples + kernel_times(KERNEL_REPEATS))
    return result, error, Timed(raw, raw * C_REF / c_run)


def nearest_rank(values: List[float], q: float) -> float:
    """The q-quantile by the nearest-rank rule (no interpolation)."""
    xs = sorted(values)
    k = max(1, math.ceil(q * len(xs)))
    return xs[k - 1]


def tail_percentile(ops_per_pass: int, min_passes: int) -> int:
    """Highest whole percentile with at least ten operations beyond it in a
    run of min_passes passes (every run makes at least that many)."""
    n = ops_per_pass * min_passes
    return int(math.floor(100 * (1 - 10 / n)))


def peak_rss_mib(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def run_pass(ops: List[Op], stats: RunStats, hook=None) -> Dict[str, object]:
    """One pass: every op once.  Returns the results of the ops that ran."""
    results: Dict[str, object] = {}
    raw_total = norm_total = 0.0
    for op in ops:
        if hook is not None:
            hook.begin_op(op.label)
        result, error, t = timed_call(op.fn)
        if hook is not None:
            hook.end_op(t)
        stats.attempted += 1
        stats.ops.append(t)
        raw_total += t.raw
        norm_total += t.norm
        if error is not None:
            stats.failed += 1
            if not isinstance(error, OpFailed):
                stats.problems.append(f"{op.label}: {type(error).__name__}: {error}")
            continue
        results[op.label] = result
    stats.passes.append(Timed(raw_total, norm_total))
    return results


def measure_setups(workload, count: int, stats: RunStats, hook=None):
    """Run the workload's set-up `count` times; keep the last state."""
    state = None
    for _ in range(count):
        if hook is not None:
            hook.begin_op("setup")
        state, error, t = timed_call(workload.setup)
        if hook is not None:
            hook.end_op(t)
        if error is not None:
            raise error
        stats.setups.append(t)
    return state


def run_passes(workload, state, window: float, stats: RunStats,
               min_passes: int, hook=None) -> None:
    """Whole passes: at least min_passes, then more while the next pass is
    expected to end within `window` seconds of the first pass's start.
    The first pass is checked in full; later ones against its fingerprints."""
    ops = workload.ops(state)
    stats.ops_per_pass = len(ops)
    t_start = time.perf_counter()
    prints: Optional[Dict[str, object]] = None
    done = 0
    while True:
        t0 = time.perf_counter()
        results = run_pass(ops, stats, hook)
        wall = time.perf_counter() - t0
        done += 1
        if prints is None:
            stats.problems.extend(workload.check(state, results))
            prints = {op.label: op.fingerprint(results[op.label])
                      for op in ops if op.label in results}
        else:
            for op in ops:
                if (op.label in results
                        and op.fingerprint(results[op.label]) != prints.get(op.label)):
                    stats.problems.append(f"{op.label}: result differs between passes")
        del results
        elapsed = time.perf_counter() - t_start
        if done >= min_passes and elapsed + wall > window:
            return


def _medians(xs: List[Timed]):
    return statistics.median(x.norm for x in xs), statistics.median(x.raw for x in xs)


def end_to_end(stats: RunStats, workload):
    """The end-to-end metrics of one untraced run, and beside them, for
    reference only, the same time figures before normalisation."""
    setup_n, setup_r = _medians(stats.setups)
    pass_n, pass_r = _medians(stats.passes)
    op_n = [t.norm for t in stats.ops]
    op_r = [t.raw for t in stats.ops]
    pct = tail_percentile(stats.ops_per_pass, workload.min_passes)
    metrics = {
        "setup_s": {"value": setup_n, "unit": "s"},
        "pass_s": {"value": pass_n, "unit": "s"},
        "op_p50_ms": {"value": 1e3 * statistics.median(op_n), "unit": "ms"},
        "op_tail_ms": {"value": 1e3 * nearest_rank(op_n, pct / 100), "unit": "ms"},
        "peak_rss_mib": {"value": peak_rss_mib(workload.rss_from_children),
                         "unit": "MiB"},
    }
    raw = {
        "setup_s": setup_r,
        "pass_s": pass_r,
        "op_p50_ms": 1e3 * statistics.median(op_r),
        "op_tail_ms": 1e3 * nearest_rank(op_r, pct / 100),
        "tail_percentile": pct,
    }
    return metrics, raw
