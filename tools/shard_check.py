#!/usr/bin/env python
"""Shard gate: a sharded campaign must merge back bit-for-bit.

Runs the same campaign four ways and asserts the sharding contract:

1. an unsharded serial run is the baseline;
2. shard 1/2 and shard 2/2 (into one shared cache dir) together cover
   the whole grid, disjointly;
3. killing shard 2 mid-run loses none of its checkpointed cells — the
   merge reports exactly the missing remainder, and a rerun of the same
   shard on the shared cache dir answers the finished cells from
   ``cells/`` and executes only that remainder;
4. the merged result is record-for-record — and JSON-byte — identical
   to the baseline, and an *unsharded* rerun on the shared cache dir
   reproduces the full campaign from ``cells/`` without executing a
   single cell.

Writes a JSON report (``--out``, default ``shard-report.json``) and
exits non-zero on the first broken assertion.  CI runs this as the
``shard`` gate of ``tools/ci_gauntlet.py``; run it locally after
touching the engine or the journal store::

    python tools/shard_check.py --out shard-report.json
"""
from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
if str(ROOT / "tools") not in sys.path:
    sys.path.insert(0, str(ROOT / "tools"))

from toollog import add_logging_args, tool_logging  # noqa: E402

from repro.api import CampaignConfig, CampaignSession  # noqa: E402
from repro.harness.engine import EventKind  # noqa: E402
from repro.harness.journalstore import (  # noqa: E402
    DirectoryJournalStore,
    merged_result,
    shard_cells,
)

#: Campaign slice the gate exercises (matches the chaos gate's scale).
SUITES = ("polybench",)
VARIANTS = ("GNU", "FJtrad", "LLVM")

#: Cells shard 2 completes before the simulated kill.
KILL_AFTER = 5


class _Killed(Exception):
    pass


def _check(say, condition: bool, message: str, failures: list) -> None:
    if condition:
        say("check", f"  ok: {message}", ok=True)
    else:
        say("check", f"  BROKEN: {message}", level="error", ok=False)
        failures.append(message)


def _records_json(result) -> str:
    return json.dumps(json.loads(result.to_json())["records"], sort_keys=True)


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", default="shard-report.json", help="report path"
    )
    parser.add_argument(
        "--cache-dir", default=None,
        help="shared cache dir for the shards (default: a fresh temp dir)",
    )
    add_logging_args(parser)
    args = parser.parse_args(argv)

    with tool_logging(args, "shard_check") as say:
        cache = Path(args.cache_dir) if args.cache_dir else Path(
            tempfile.mkdtemp(prefix="shard-check-"))
        base = CampaignConfig(suites=SUITES, variants=VARIANTS)
        failures: list[str] = []
        t0 = time.monotonic()

        baseline = CampaignSession(base).run()
        cells = list(baseline.records)
        say("baseline", f"baseline: {len(cells)} cells, "
            f"{len(VARIANTS)} variants", cells=len(cells))

        # -- shard 1/2 runs to completion -----------------------------------
        say("section", "shard 1/2:")
        s1 = CampaignSession(base.with_(cache_dir=cache, shard=(1, 2))).run()
        own1 = set(shard_cells(cells, 1, 2))
        _check(say, set(s1.records) == own1,
               f"shard 1/2 ran exactly its {len(own1)} assigned cells", failures)
        _check(say, all(baseline.records[k] == r for k, r in s1.records.items()),
               "shard 1/2 records match the baseline", failures)

        # -- shard 2/2 is killed mid-run ------------------------------------
        say("section", "shard 2/2 (killed mid-run):")
        session = CampaignSession(base.with_(
            cache_dir=cache, shard=(2, 2)))
        finished = []

        @session.subscribe
        def kill(event):
            if event.kind is EventKind.CELL_FINISHED:
                finished.append(event)
                if len(finished) == KILL_AFTER:
                    raise _Killed()

        try:
            session.run()
            _check(say, False, "the kill handler fired", failures)
        except _Killed:
            say("killed", f"  killed after {KILL_AFTER} cells, as planned",
                killed_after=KILL_AFTER)

        store = DirectoryJournalStore(cache)
        merged = store.merge()
        own2 = set(shard_cells(cells, 2, 2))
        checkpointed = {k for k in merged.records if k in own2}
        _check(say, len(checkpointed) >= KILL_AFTER,
               f"journal kept every checkpointed cell "
               f"({len(checkpointed)} >= {KILL_AFTER})", failures)
        _check(say, not merged.complete and set(merged.missing) <= own2,
               f"merge reports the {len(merged.missing)} unfinished cells, "
               "all on the killed shard", failures)

        # -- rerun the killed shard -----------------------------------------
        say("section", "rerun shard 2/2:")
        s2 = CampaignSession(base.with_(cache_dir=cache, shard=(2, 2))).run()
        hits2 = s2.meta.get("cache_hits", 0)
        _check(say, set(s2.records) == own2,
               f"rerun shard covers all {len(own2)} assigned cells", failures)
        _check(say, hits2 >= KILL_AFTER,
               f"rerun answered the finished cells from the cell cache "
               f"({hits2})", failures)
        _check(say, s2.meta.get("executed", 0) == len(own2) - hits2,
               "rerun executed only the remainder", failures)

        # -- merge and compare ----------------------------------------------
        say("section", "merge:")
        merged = store.merge()
        _check(say, merged is not None and merged.complete,
               "merged journals cover the full campaign", failures)
        full = merged_result(merged)
        _check(say, full.records == baseline.records
               and list(full.records) == list(baseline.records),
               "merged result is record-for-record identical to the "
               "unsharded baseline", failures)
        _check(say, _records_json(full) == _records_json(baseline),
               "merged records serialize byte-identically", failures)

        # -- any node reruns the whole sweep --------------------------------
        say("section", "unsharded rerun on the shared cache dir:")
        rerun = CampaignSession(base.with_(cache_dir=cache)).run()
        _check(say, rerun.records == baseline.records,
               "unsharded rerun reproduces the baseline", failures)
        _check(say, rerun.meta.get("executed", 1) == 0
               and rerun.meta.get("cache_hits", 0) == len(cells),
               f"unsharded rerun answered all {len(cells)} cells from the "
               "cell cache without executing any", failures)

        elapsed = time.monotonic() - t0
        report = {
            "cells": len(cells),
            "shards": 2,
            "killed_after": KILL_AFTER,
            "cache_hits_after_kill": hits2,
            "executed_after_kill": s2.meta.get("executed"),
            "elapsed_s": round(elapsed, 3),
            "broken": failures,
            "ok": not failures,
        }
        Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
        say("report", f"report: {args.out}", path=args.out)
        if not args.cache_dir:
            shutil.rmtree(cache, ignore_errors=True)

        if failures:
            say("fail", f"{len(failures)} shard assertion(s) broken",
                level="error", broken=len(failures))
            return 1
        say("pass", "shard gate: merge and rerun are loss-free "
            "and bit-identical")
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
