"""The repository's benchmark: one command per workload.

    python3 perfbench/run.py --workload oneshot|session|service \\
        --seed N --seconds S --trace 0|1

Builds the workload's plan from the seed, runs the program on it for
``--seconds``, checks every output against ``perfbench/expected/`` and
prints each metric by name with its unit.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` — the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a separate traced run with ``--trace 1``.  See
``perfbench/NOTES.md`` for the workloads and the layer-to-metric map.
"""

from __future__ import annotations

import argparse
import json
import math
import multiprocessing
import os
import platform
import shutil
import sys
import threading

from common import WORK_ROOT, WORKERS, Proc, check_sources

#: Hard limit of one benchmark run; past it every program process is
#: killed and the run exits without a result.
RUN_LIMIT_S = 170.0


def environment() -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "missing"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "start_method": multiprocessing.get_start_method(),
        "workers": WORKERS,
    }


def _abort() -> None:
    print(f"perfbench: run exceeded {RUN_LIMIT_S:g} s; killing the program",
          file=sys.stderr)
    Proc.kill_all()
    shutil.rmtree(WORK_ROOT, ignore_errors=True)
    os._exit(3)


def _number(value: float) -> float:
    # A failed run can leave an infinite latency; JSON has no infinity.
    return value if math.isfinite(value) else 1e9


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("oneshot", "session", "service"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    check_sources()
    watchdog = threading.Timer(RUN_LIMIT_S, _abort)
    watchdog.daemon = True
    watchdog.start()

    from check import Tally, load_cells, load_searches, load_spaces
    from plan import make_plan
    from report import PER_LAYER
    from workloads import WORKLOADS

    cells = load_cells()
    tally = Tally(cells, load_searches())
    plan = make_plan(args.workload, args.seed, cells, load_spaces())
    work = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        outcome = WORKLOADS[args.workload](plan, args.seconds, work, tally, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass

    print(f"# environment {json.dumps(environment(), sort_keys=True)}")
    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds:g}"
          + (f" rate {plan['rate_per_s']}/s" if "rate_per_s" in plan else ""))
    if args.trace:
        spans, values, wall = outcome
        for row in spans.table(wall):
            print(f"# {row}")
        units = dict(PER_LAYER)
        metrics = {name: {"value": _number(v), "unit": units[name]}
                   for name, v in values.items()}
    else:
        values, notes = outcome.end_to_end(tally)
        metrics = {name: {"value": _number(v), "unit": unit}
                   for name, (v, unit) in values.items()}
        for note in notes:
            print(f"# {note}")
    for name, doc in metrics.items():
        print(f"{name} = {doc['value']:.6g} {doc['unit']}")
    print(f"error_rate = {tally.error_rate:.6g} ratio "
          f"({tally.failed} of {tally.attempted} operations failed)")
    for reason in tally.reasons:
        print(f"# failure: {reason}")
    watchdog.cancel()
    print(json.dumps({"correct": tally.failed == 0 and tally.attempted > 0,
                      "attempted": max(tally.attempted, 1), "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
