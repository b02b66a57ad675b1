#!/usr/bin/env python
"""Service gauntlet: the campaign service's multi-tenant contract.

Boots the real service (HTTP front end + shared scheduler + process
pool) and asserts the write-side contract end to end:

1. two tenants submit overlapping campaigns concurrently; every cell
   shared between them executes exactly once (cross-tenant dedupe:
   ``cells_executed`` counts unique cells, the waiters fan in and are
   counted ``deduped``);
2. the service's records are byte-identical to a one-shot CLI run of
   the same campaign (same engine, same caches, same fingerprints);
3. a campaign submitted against a warm cache finishes without the
   service ever creating a worker pool (zero pool workers, zero pool
   tasks);
4. killing the service mid-campaign and restarting it reruns the
   interrupted campaign (the cells completed before the kill are cell
   cache hits, the rest execute, the registry converges to
   ``finished``);
5. ``/metrics`` stays conformant Prometheus exposition with per-tenant
   gauges, and the structured log correlates events by campaign id and
   tenant.

Writes a JSON report (``--out``, default ``service-report.json``) and
exits non-zero on the first broken assertion.  CI runs this as the
``service-gauntlet`` job; run it locally after touching the service::

    python tools/service_check.py --out service-report.json
"""
from __future__ import annotations

import argparse
import http.client
import json
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
if str(ROOT / "tools") not in sys.path:
    sys.path.insert(0, str(ROOT / "tools"))

from toollog import add_logging_args, tool_logging  # noqa: E402

from repro import telemetry  # noqa: E402
from repro.cli import main as cli_main  # noqa: E402
from repro.service import CampaignService  # noqa: E402
from repro.service.registry import ServiceRegistry  # noqa: E402
from repro.telemetry import StructuredLogger, validate_exposition  # noqa: E402

#: The overlapping tenant campaigns: both want ``symm`` on both
#: variants — those four cells are the cross-tenant dedupe surface.
VARIANTS = ["GNU", "FJtrad"]
ALICE = {"tenant": "alice", "variants": VARIANTS,
         "benchmarks": ["polybench.gemm", "polybench.symm"]}
BOB = {"tenant": "bob", "variants": VARIANTS,
       "benchmarks": ["polybench.symm", "polybench.gemver"]}
UNIQUE_CELLS = 3 * len(VARIANTS)      # gemm, symm, gemver x 2 variants
SHARED_CELLS = 1 * len(VARIANTS)      # symm x 2 variants

#: The kill/restart campaign: large enough that the kill lands mid-run.
RESUME_SPEC = {"tenant": "dave", "suites": ["polybench"]}


def _check(say, condition: bool, message: str, failures: list) -> None:
    if condition:
        say("check", f"  ok: {message}", ok=True)
    else:
        say("check", f"  BROKEN: {message}", level="error", ok=False)
        failures.append(message)


def _request(port: int, method: str, path: str, body=None, timeout=60):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        payload = json.dumps(body).encode() if body is not None else None
        conn.request(method, path, body=payload)
        resp = conn.getresponse()
        text = resp.read().decode()
        try:
            return resp.status, json.loads(text)
        except ValueError:
            return resp.status, text
    finally:
        conn.close()


def _wait_terminal(port: int, cid: str, timeout=300.0) -> dict:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        _status, doc = _request(port, "GET", f"/campaigns/{cid}")
        if doc["state"] in ("finished", "failed", "cancelled"):
            return doc
        time.sleep(0.05)
    raise TimeoutError(f"campaign {cid} did not settle in {timeout}s")


def _overlap_phase(say, failures, report, cache: Path) -> None:
    say("section", "overlapping tenants with cross-tenant dedupe:")
    service = CampaignService(cache, workers=2).start()
    try:
        _s, alice = _request(service.port, "POST", "/campaigns", ALICE)
        _s, bob = _request(service.port, "POST", "/campaigns", BOB)
        alice_doc = _wait_terminal(service.port, alice["id"])
        bob_doc = _wait_terminal(service.port, bob["id"])
        _s, stats = _request(service.port, "GET", "/stats")
        _s, metrics = _request(service.port, "GET", "/metrics")
        report["overlap"] = {"alice": alice_doc, "bob": bob_doc,
                             "stats": stats}

        _check(say, alice_doc["state"] == "finished"
               and bob_doc["state"] == "finished",
               "both tenants' campaigns finished", failures)
        _check(say, stats["cells_executed"] == UNIQUE_CELLS,
               f"{UNIQUE_CELLS} unique cells executed exactly once "
               f"(got {stats['cells_executed']})", failures)
        deduped = (alice_doc["stats"]["deduped"]
                   + bob_doc["stats"]["deduped"])
        _check(say, deduped == SHARED_CELLS,
               f"the {SHARED_CELLS} shared cells were deduped across "
               f"tenants (got {deduped})", failures)
        _check(say, stats["tenants"].get("alice", {}).get("campaigns") == 1
               and stats["tenants"].get("bob", {}).get("campaigns") == 1,
               "per-tenant gauges track both tenants", failures)
        problems = validate_exposition(metrics)
        _check(say, problems == [] and 'tenant="alice"' in metrics
               and 'tenant="bob"' in metrics,
               f"/metrics is conformant with per-tenant samples "
               f"({len(problems)} problem(s))", failures)

        # Byte-identity: a one-shot CLI run of alice's campaign against
        # a fresh cache must produce byte-identical records.
        say("section", "byte-identity vs the one-shot CLI:")
        cli_out = cache.parent / "cli-result.json"
        with tempfile.TemporaryDirectory(prefix="svc-cli-") as cli_cache:
            rc = cli_main([
                "run", "--out", str(cli_out), "--cache-dir", cli_cache,
                *[x for b in ALICE["benchmarks"]
                  for x in ("--benchmark", b)],
                *[x for v in VARIANTS for x in ("--variant", v)],
            ])
        _check(say, rc == 0, "one-shot CLI campaign ran", failures)
        _s, service_result = _request(
            service.port, "GET", f"/campaigns/{alice['id']}/result")
        cli_records = json.dumps(
            json.loads(cli_out.read_text())["records"], sort_keys=True)
        service_records = json.dumps(
            service_result["records"], sort_keys=True)
        _check(say, cli_records == service_records,
               "service records are byte-identical to the one-shot CLI",
               failures)
    finally:
        service.stop(graceful=True)


def _cached_phase(say, failures, report, cache: Path) -> None:
    say("section", "fully-cached campaign spawns zero workers:")
    service = CampaignService(cache, workers=2).start()
    try:
        union = {"tenant": "carol", "variants": VARIANTS,
                 "benchmarks": sorted({*ALICE["benchmarks"],
                                       *BOB["benchmarks"]})}
        _s, doc = _request(service.port, "POST", "/campaigns", union)
        final = _wait_terminal(service.port, doc["id"])
        _s, stats = _request(service.port, "GET", "/stats")
        report["cached"] = {"campaign": final, "stats": stats}
        _check(say, final["state"] == "finished",
               "warm-cache campaign finished", failures)
        _check(say, final["stats"]["cache_hits"] == final["total"],
               f"every cell came from the cell cache "
               f"({final['stats']['cache_hits']}/{final['total']})",
               failures)
        _check(say, stats["pool_created"] is False
               and stats["pool_tasks"] == 0,
               "no worker pool was ever created for the cached campaign",
               failures)
    finally:
        service.stop(graceful=True)


def _resume_phase(say, failures, report, cache: Path) -> None:
    say("section", "kill, restart, rerun from the cell cache:")
    service = CampaignService(cache, workers=2).start()
    killed_at = None
    cid = None
    try:
        for attempt in range(10):
            _s, doc = _request(service.port, "POST", "/campaigns",
                               {**RESUME_SPEC, "variants": VARIANTS})
            cid = doc["id"]
            total = doc["total"]
            deadline = time.monotonic() + 300
            while time.monotonic() < deadline:
                _s, live = _request(service.port, "GET", f"/campaigns/{cid}")
                if 0 < live["completed"] < total:
                    killed_at = live["completed"]
                    break
                if live["state"] != "running" or live["completed"] >= total:
                    break
                time.sleep(0.005)
            if killed_at is not None:
                break
            say("retry", f"  campaign finished before the kill landed "
                f"(attempt {attempt + 1}); resubmitting against a "
                f"bigger window", level="warning")
            RESUME_SPEC["suites"].append("micro")
        _check(say, killed_at is not None,
               "caught the campaign mid-flight to kill it", failures)
    finally:
        service.stop(graceful=False)  # the kill: no drain, no goodbye

    registry = ServiceRegistry(cache / "service" / "campaigns.json")
    state_after_kill = registry.load().get(cid, {}).get("state")
    _check(say, state_after_kill == "running",
           f"registry still says 'running' after the kill "
           f"(got {state_after_kill!r})", failures)

    restarted = CampaignService(cache, workers=2).start()
    try:
        resumed_ids = [c.id for c in restarted.scheduler.campaigns.values()]
        _check(say, cid in resumed_ids,
               "restart picked the interrupted campaign back up", failures)
        final = _wait_terminal(restarted.port, cid)
        report["resume"] = {"killed_at": killed_at, "final": final}
        _check(say, final["state"] == "finished"
               and final["completed"] == final["total"],
               f"rerun campaign finished all {final['total']} cells",
               failures)
        _check(say, final["stats"]["cache_hits"] >= killed_at,
               f"the {killed_at} cells completed before the kill came from "
               f"the cell cache (cache_hits={final['stats']['cache_hits']})",
               failures)
        _s, result = _request(restarted.port, "GET",
                              f"/campaigns/{cid}/result")
        _check(say, len(result["records"]) == final["total"],
               "the saved result covers the full grid", failures)
    finally:
        restarted.stop(graceful=True)


def _correlation_checks(say, failures, report, log_path: Path) -> None:
    say("section", "log correlation:")
    records = []
    try:
        with open(log_path) as fh:
            records = [json.loads(line) for line in fh if line.strip()]
    except OSError:
        pass
    correlated = [
        r for r in records
        if r.get("event", "").startswith("service.")
        and r.get("campaign") and r.get("tenant")
    ]
    tenants = {r["tenant"] for r in correlated}
    report["correlation"] = {"records": len(records),
                             "correlated": len(correlated),
                             "tenants": sorted(tenants)}
    _check(say, len(correlated) > 0,
           f"structured log carries campaign/tenant-correlated service "
           f"events ({len(correlated)} of {len(records)})", failures)
    _check(say, {"alice", "bob", "dave"} <= tenants,
           f"events from every tenant are correlated (got "
           f"{sorted(tenants)})", failures)


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="service-report.json",
                        help="report path")
    add_logging_args(parser)
    args = parser.parse_args(argv)

    with tool_logging(args, "service_check") as say:
        failures: list[str] = []
        report: dict = {}
        t0 = time.monotonic()
        with tempfile.TemporaryDirectory(prefix="service-check-") as td:
            cache = Path(td) / "cache"
            resume_cache = Path(td) / "resume-cache"
            service_log = Path(td) / "service-log.jsonl"
            logger = StructuredLogger(service_log)
            with telemetry.logging_active(logger):
                _overlap_phase(say, failures, report, cache)
                _cached_phase(say, failures, report, cache)
                _resume_phase(say, failures, report, resume_cache)
            logger.close()
            _correlation_checks(say, failures, report, service_log)

        report["elapsed_s"] = round(time.monotonic() - t0, 2)
        report["ok"] = not failures
        report["broken"] = failures
        Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
        say("wrote", f"wrote {args.out}", path=args.out)
        if failures:
            say("fail", f"service gauntlet: {len(failures)} broken "
                f"assertion(s)", level="error")
            return 1
        say("pass", "service gauntlet: the multi-tenant write-side "
            "contract holds")
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
