#!/usr/bin/env python
"""Tuner gate: the auto-tuner must rediscover, and finish a killed search.

Runs the flagship INT8 SDOT GEMM scenario through seeded successive
halving five ways and asserts the tuning contract:

1. a cold-cache search rediscovers the scenario's known-best
   configuration (the paper's ~94%-efficient 6x4 register tile);
2. a second, cacheless search produces an identical trajectory —
   the search is deterministic, not lucky;
3. killing the search mid-rung (``stop_after_evaluations``) loses no
   cached evaluation: a rerun on the same cache dir answers them from
   the cache, evaluates only the remainder, and finishes with the
   uninterrupted run's winner and trajectory;
4. the killed-and-rerun cache holds exactly the uninterrupted run's
   entries, byte for byte, each stored once;
5. rerunning the finished search evaluates nothing and writes
   nothing.

Writes a JSON report (``--out``, default ``tuner-report.json``) and
exits non-zero on the first broken assertion.  CI runs this as part of
the gauntlet; run it locally after touching the tuner, the strategies,
or the GEMM scenario::

    python tools/tuner_check.py --out tuner-report.json
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

from repro.caching import SEGMENT_GLOB  # noqa: E402
from repro.tuning import TuneInterrupted, TuneSpec, run_tune  # noqa: E402

#: Fresh evaluations the killed search caches before the simulated
#: kill — deep enough into rung 0 that the rerun has real work to skip.
KILL_AFTER = 17


def _cache_entries(cache_dir: Path) -> "list[tuple[bytes, bytes]]":
    """Every ``(key, entry)`` line of the tuner caches under
    ``cache_dir``, read across segments."""
    return [
        tuple(line.split(b"\t", 1))
        for segment in sorted(cache_dir.glob(f"tuning/*/cells/{SEGMENT_GLOB}"))
        for line in segment.read_bytes().splitlines()
    ]


def _files(root: Path) -> dict:
    """Each file under ``root``: identity, modification time and bytes."""
    return {
        path.relative_to(root): (path.stat().st_ino, path.stat().st_mtime_ns,
                                 path.read_bytes())
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def _check(say, condition: bool, message: str, failures: list) -> None:
    if condition:
        say("check", f"  ok: {message}", ok=True)
    else:
        say("check", f"  BROKEN: {message}", level="error", ok=False)
        failures.append(message)


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", default="tuner-report.json", help="report path"
    )
    parser.add_argument(
        "--cache-dir", default=None,
        help="root for the runs' caches (default: a fresh temp dir)",
    )
    add_logging_args(parser)
    args = parser.parse_args(argv)

    with tool_logging(args, "tuner_check") as say:
        root = Path(args.cache_dir) if args.cache_dir else Path(
            tempfile.mkdtemp(prefix="tuner-check-"))
        spec = TuneSpec()  # gemm-int8-sdot, successive halving, seeded
        failures: list[str] = []
        t0 = time.monotonic()

        # -- cold-cache rediscovery -----------------------------------------
        say("section", "cold-cache successive halving:")
        clean = run_tune(spec.with_(cache_dir=root / "clean"))
        say("clean", f"  winner {clean.best_label} in {clean.evaluations} "
            f"evaluations over {len(clean.rungs)} rungs",
            winner=clean.best_label, evaluations=clean.evaluations)
        _check(say, clean.complete and clean.rediscovered is True,
               f"search rediscovered the known-best config "
               f"({clean.known_best_label})", failures)
        _check(say, clean.evaluations < clean.meta.get("space_size", 0) * 2,
               "halving spent fewer evaluations than two full grids",
               failures)
        _check(say, len(clean.rungs) >= 3
               and clean.rungs[0].trials < clean.rungs[-1].trials,
               "fidelity climbed across at least three rungs", failures)

        # -- determinism -----------------------------------------------------
        say("section", "cacheless re-run:")
        rerun = run_tune(spec)
        _check(say, rerun.trajectory == clean.trajectory
               and rerun.best_label == clean.best_label,
               "cacheless re-run traces an identical trajectory", failures)

        # -- mid-search kill -------------------------------------------------
        say("section", f"kill after {KILL_AFTER} evaluations:")
        killed_spec = spec.with_(cache_dir=root / "killed")
        try:
            run_tune(killed_spec, stop_after_evaluations=KILL_AFTER)
            _check(say, False, "the kill-switch fired", failures)
        except TuneInterrupted:
            say("killed", f"  killed after {KILL_AFTER} evaluations, "
                "as planned", killed_after=KILL_AFTER)

        # -- rerun the killed search ----------------------------------------
        say("section", "rerun on the killed search's cache:")
        rerun = run_tune(killed_spec)
        _check(say, rerun.complete
               and rerun.best_label == clean.best_label,
               "rerun finishes with the same winner", failures)
        _check(say, rerun.trajectory == clean.trajectory,
               "rerun trajectory matches the uninterrupted run", failures)
        _check(say, rerun.from_cache >= KILL_AFTER,
               f"rerun answered the cached evaluations from the cache "
               f"({rerun.from_cache} >= {KILL_AFTER})", failures)
        _check(say, rerun.evaluations + KILL_AFTER <= clean.evaluations,
               "rerun executed only the remainder", failures)

        clean_entries = _cache_entries(root / "clean")
        killed_entries = _cache_entries(root / "killed")
        _check(say, len(dict(killed_entries)) == len(killed_entries)
               and dict(killed_entries) == dict(clean_entries),
               f"killed-and-rerun cache holds the clean run's "
               f"{len(clean_entries)} entries byte for byte, each once",
               failures)

        # -- rerun of the finished search -----------------------------------
        say("section", "rerun of the finished search:")
        before = _files(root / "killed")
        replay = run_tune(killed_spec)
        _check(say, replay.evaluations == 0
               and replay.best_label == clean.best_label,
               "rerunning the finished search executes nothing", failures)
        _check(say, _files(root / "killed") == before,
               "rerun writes nothing under the cache dir", failures)

        elapsed = time.monotonic() - t0
        report = {
            "scenario": clean.scenario,
            "strategy": clean.strategy,
            "winner": clean.best_label,
            "known_best": clean.known_best_label,
            "rediscovered": clean.rediscovered,
            "evaluations": clean.evaluations,
            "rungs": len(clean.rungs),
            "killed_after": KILL_AFTER,
            "rerun_from_cache": rerun.from_cache,
            "cache_entries": len(clean_entries),
            "elapsed_s": round(elapsed, 3),
            "broken": failures,
            "ok": not failures,
        }
        Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
        say("report", f"report: {args.out}", path=args.out)
        if not args.cache_dir:
            shutil.rmtree(root, ignore_errors=True)

        if failures:
            say("fail", f"{len(failures)} tuner assertion(s) broken",
                level="error", broken=len(failures))
            return 1
        say("pass", "tuner gate: rediscovery, kill and rerun are "
            "deterministic and loss-free")
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
