"""The ``session`` workload's program process: one long-lived
``repro.api`` process with ``workers=2``, driven by one closed-loop
client that runs the plan's campaigns and tune searches in order.

    python3 perfbench/session_loop.py --plan P --work DIR --out O
        [--seconds S | --count N] [--setup-only] [--trace-dir D]

Prints ``READY`` once the untimed warm-up (a serial full-grid campaign
without a cache dir, which fills the compile and feature memos that
each campaign's forked pool workers inherit) is done.  Each plan round
runs on a fresh, empty cache dir.  The client runs whole blocks (pairs
of rounds) until their summed latency reaches ``--seconds`` (or exactly
``--count`` items) and writes per-item latencies and output digests to ``--out``;
digests are taken between items, outside every latency.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path
from time import perf_counter

from common import WORKERS, record_digest, search_digest


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--plan", required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--out")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--count", type=int)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-dir")
    args = parser.parse_args()

    start = perf_counter()
    import repro.api as api
    from repro.harness.results import record_to_dict

    imported = perf_counter() - start
    recorder = None
    if args.trace_dir:
        import tracer

        recorder = tracer.install(args.trace_dir)
        recorder.spans.append(("setup.import", start, imported, imported))

    api.CampaignSession(api.CampaignConfig()).run()
    api.run_tune(api.TuneSpec(scenario="gemm-int8-sdot"))
    print("READY", flush=True)
    if args.setup_only:
        return 0

    plan = json.loads(Path(args.plan).read_text())
    work = Path(args.work)
    items, busy, round_dir, current, block = [], 0.0, None, None, None
    for index, item in enumerate(plan["items"]):
        if args.count is not None and index >= args.count:
            break
        if item["block"] != block:
            if args.count is None and busy >= args.seconds:
                break  # only whole blocks: each run measures the same mix
            block = item["block"]
        if item["round"] != current:
            if round_dir is not None:
                shutil.rmtree(round_dir, ignore_errors=True)
            current = item["round"]
            round_dir = work / f"round-{current}"
        error, output = None, None
        t0 = perf_counter()
        try:
            if item["kind"] == "campaign":
                config = api.CampaignConfig(workers=WORKERS, cache_dir=round_dir)
                if item["benchmarks"] is not None:
                    config = config.with_(benchmarks=tuple(item["benchmarks"]))
                if item["variants"] is not None:
                    config = config.with_(variants=tuple(item["variants"]))
                output = api.CampaignSession(config).run()
            else:
                output = api.run_tune(api.TuneSpec(
                    scenario=item["scenario"], cache_dir=round_dir, workers=WORKERS))
        except Exception as exc:  # noqa: BLE001 - a failed operation, counted
            error = f"{type(exc).__name__}: {exc}"
        t1 = perf_counter()
        busy += t1 - t0
        if recorder is not None:
            recorder.enabled = False
        entry = {"index": index, "kind": item["kind"], "t0": t0, "t1": t1,
                 "error": error}
        if output is not None and item["kind"] == "campaign":
            entry["cells"] = [[r.benchmark, r.variant, record_digest(record_to_dict(r))]
                              for r in output.records.values()]
        elif output is not None:
            entry["search"] = search_digest(output.to_dict())
        if recorder is not None:
            recorder.enabled = True
        items.append(entry)
    if round_dir is not None:
        shutil.rmtree(round_dir, ignore_errors=True)
    if recorder is not None:
        recorder.flush()
    Path(args.out).write_text(json.dumps({"items": items, "busy_s": busy}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
