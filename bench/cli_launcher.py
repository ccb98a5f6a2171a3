"""Run ``pinquad.cli.main`` under the benchmark's tracer in a child process.

    python3 bench/cli_launcher.py SPANS_FILE [pinquad arguments...]

The spans are written to SPANS_FILE when main returns or raises; an
exception still propagates, so the exit code and stderr match an untraced
``python -m pinquad.cli`` run.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import tracing  # noqa: E402


def main() -> int:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer(active=True)
    tracing.install(tracer)
    import pinquad.cli

    try:
        return pinquad.cli.main(argv)
    finally:
        tracer.dump(spans_file)


if __name__ == "__main__":
    sys.exit(main())
