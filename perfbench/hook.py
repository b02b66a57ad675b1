"""Run ``a64fx-campaign`` with the benchmark's span recorder installed.

    python3 perfbench/hook.py --trace-dir DIR -- run --out r.json

The traced run of the ``oneshot`` and ``service`` workloads launches the
CLI through this file instead of ``python -m repro.cli``; the arguments
after ``--`` are the CLI's own.  Spans of this process and its pool
workers land in ``DIR`` when they exit.
"""

from __future__ import annotations

import sys
from time import perf_counter


def main() -> int:
    argv = sys.argv[1:]
    if len(argv) < 3 or argv[0] != "--trace-dir" or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    trace_dir, cli_args = argv[1], argv[3:]
    start = perf_counter()
    import repro.cli

    imported = perf_counter() - start
    import tracer

    recorder = tracer.install(trace_dir)
    recorder.spans.append(("setup.import", start, imported, imported))
    try:
        return repro.cli.main(cli_args)
    finally:
        recorder.flush()


if __name__ == "__main__":
    sys.exit(main())
