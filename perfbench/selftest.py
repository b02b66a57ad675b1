"""Negative self-tests of the benchmark's output check.

    python3 perfbench/selftest.py

Each test feeds a known-bad output through the same code the workloads
use and requires ``error_rate`` to rise; its clean twin must stay at 0.
The plans must be byte-identical for one seed and differ across seeds.
Exits 0 when every test passes.
"""

from __future__ import annotations

import copy
import json
import shutil
import sys

import workloads
from check import Tally, load_cells, load_searches, load_spaces
from common import WORK_ROOT, Proc, check_sources, cli_argv, record_digest, search_digest
from plan import PLANS, make_plan, plan_bytes

CELL = {"kind": "campaign", "benchmarks": ["polybench.2mm"], "variants": ["GNU"]}


def _tally() -> Tally:
    return Tally(load_cells(), load_searches())


def _cli_json(work, *args) -> dict:
    out = work / "out.json"
    proc = Proc(cli_argv(*args, "--out", str(out)))
    if proc.wait(120) != 0:
        raise RuntimeError(f"a64fx-campaign {' '.join(args)} failed")
    return json.loads(out.read_text())


def test_plans(work) -> bool:
    cells, spaces = load_cells(), load_spaces()

    def plan(workload, seed):
        return plan_bytes(make_plan(workload, seed, cells, spaces))

    return all(plan(w, 7) == plan(w, 7) and plan(w, 7) != plan(w, 8) for w in PLANS)


def test_perturbed_record(work) -> bool:
    doc = _cli_json(work, "run", "--benchmark", "polybench.2mm", "--variant", "GNU")
    clean, bad = _tally(), _tally()
    record = doc["records"][0]
    clean.campaign(CELL, [[record["benchmark"], record["variant"], record_digest(record)]])
    perturbed = copy.deepcopy(record)
    perturbed["runs"][0] *= 1.0000001
    bad.campaign(CELL, [[record["benchmark"], record["variant"], record_digest(perturbed)]])
    return clean.error_rate == 0 and bad.error_rate > 0


def test_wrong_tune_winner(work) -> bool:
    doc = _cli_json(work, "tune", "--scenario", "gemm-int8-sdot")
    clean, bad = _tally(), _tally()
    clean.search("gemm-int8-sdot", search_digest(doc))
    wrong = copy.deepcopy(doc)
    wrong["best"]["label"] = "mr=4,nr=6,kc=256,unroll=2"
    bad.search("gemm-int8-sdot", search_digest(wrong))
    return (doc["best"]["label"] == "mr=6,nr=4,kc=256,unroll=2"
            and clean.error_rate == 0 and bad.error_rate > 0)


def test_refused_submission(work) -> bool:
    plan = {"items": [
        {**CELL, "due": 0.1, "tenant": "alice"},
        {"kind": "campaign", "benchmarks": ["polybench.no-such-kernel"],
         "variants": None, "due": 0.2, "tenant": "bob"},
    ]}
    svc = workloads.Service(work / "svc")
    try:
        tally = _tally()
        workloads._service_window(plan, svc, tally, 1.0)
    finally:
        svc.stop()
    # The valid campaign passes; the refused one is the only failure.
    return tally.failed == 1 and tally.error_rate > 0


def test_killed_cli(work) -> bool:
    plan = {"items": [{"kind": "campaign", "round": 0, "benchmarks": None,
                       "variants": None}]}
    limit = workloads.PROCESS_TIMEOUT_S
    workloads.PROCESS_TIMEOUT_S = 0.3  # the process is killed mid-campaign
    try:
        tally = _tally()
        workloads._oneshot_pass(plan, work, tally, count=1)
    finally:
        workloads.PROCESS_TIMEOUT_S = limit
    return tally.error_rate > 0


TESTS = (test_plans, test_perturbed_record, test_wrong_tune_winner,
         test_refused_submission, test_killed_cli)


def main() -> int:
    check_sources()
    failed = 0
    for test in TESTS:
        work = WORK_ROOT / f"selftest-{test.__name__}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        try:
            ok = test(work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        failed += not ok
        print(f"{'PASS' if ok else 'FAIL'} {test.__name__}")
    try:
        WORK_ROOT.rmdir()
    except OSError:
        pass
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
