"""pinquad benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Runs one workload (solve_scaled, quad_eval, ggroup_oracle, cli_small) in
this process, from the pinquad sources of the checkout this file sits in.
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1.  Exits non-zero without a result when
the sources are missing or a set-up step fails.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

import harness
import tracing

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")


class TraceHook:
    """Opens a root span per operation and remembers its normalisation."""

    def __init__(self, tracer, workload) -> None:
        self.tracer = tracer
        self.workload = workload
        self.factors = {}
        self.startup_ms = []
        self._root = None

    def begin_op(self, label: str) -> None:
        self._root = self.tracer.open(f"op:{label}")

    def end_op(self, t) -> None:
        self.tracer.close(self._root)
        factor = t.norm / t.raw if t.raw > 0 else 1.0
        self.factors[self._root] = factor
        # spans written by cli_small's children, merged under this operation
        paths = getattr(self.workload, "trace_files", [])
        for path in paths:
            with open(path, encoding="utf-8") as f:
                header = json.loads(f.readline())
                child = [json.loads(line) for line in f]
            os.remove(path)
            base = len(self.tracer.spans)
            main_s = 0.0
            for span in child:
                if span is None:
                    self.tracer.spans.append(None)
                    continue
                name, t0, t1, parent = span
                self.tracer.spans.append(
                    (name, t0, t1, self._root if parent < 0 else parent + base))
                if name == "cli.main":
                    main_s = t1 - t0
            for key, v in header["counts"].items():
                self.tracer.counts[key] += v
            self.startup_ms.append(1e3 * (t.raw - main_s) * factor)
        paths.clear()


def traced_run(workload, seconds: float, stats):
    """Untraced passes for half the time, then one traced set-up and pass."""
    state = harness.measure_setups(workload, 1, stats)
    harness.run_passes(workload, state, seconds / 2, stats, workload.min_passes // 2 or 1)
    untraced = statistics.median(t.norm for t in stats.passes)

    tracer = tracing.Tracer()
    tracing.install(tracer)
    hook = TraceHook(tracer, workload)
    workload.tracer = tracer
    state = harness.measure_setups(workload, 1, stats, hook)
    harness.run_passes(workload, state, 0.0, stats, 1, hook)
    traced = stats.passes[-1].norm

    layer = tracing.aggregate(tracer.spans, hook.factors)
    os.makedirs(os.path.join(BENCH_DIR, "out"), exist_ok=True)
    tracer.dump(os.path.join(BENCH_DIR, "out", f"trace_{workload.name}_{workload.seed}.jsonl"),
                {"workload": workload.name, "seed": workload.seed,
                 "factors": {str(k): v for k, v in hook.factors.items()}})
    values = dict(tracer.counts)
    values.update(layer)
    values["cli.startup_ms"] = statistics.median(hook.startup_ms) if hook.startup_ms else 0.0
    values["trace.overhead_s"] = traced - untraced
    return {name: {"value": values.get(name, 0), "unit": unit}
            for name, unit in tracing.LAYER_METRICS}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="small inputs that run in seconds (for the tests)")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "pinquad", "__init__.py")):
        print(f"error: no pinquad sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](args.seed, args.smoke)
    stats = harness.RunStats()
    try:
        workload.prepare()
        if args.trace:
            metrics = traced_run(workload, args.seconds, stats)
        else:
            state = harness.measure_setups(workload, workload.setup_repeats, stats)
            harness.run_passes(workload, state, args.seconds, stats, workload.min_passes)
            metrics, raw = harness.end_to_end(stats, workload)
            print(f"raw: {json.dumps(raw)}", file=sys.stderr)
    finally:
        workload.close()
    for p in stats.problems:
        print(f"problem: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": not stats.problems,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
