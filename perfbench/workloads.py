"""The three workloads: each launches the program, feeds it the plan,
times it and checks every output.

A workload run returns its end-to-end metrics (untraced) or, with
``trace``, its per-layer metrics: the traced run first runs an untraced
pass on half of the run's seconds, then a traced pass over exactly the
same items, checks both against the expected outputs (and so against
each other), and reports ``trace.overhead_s`` as the difference of
their wall times.
"""

from __future__ import annotations

import http.client
import json
import os
import shutil
import subprocess
import time
from collections import deque
from pathlib import Path
from time import perf_counter

from check import Tally
from common import (
    BENCH_DIR, WORKERS, Proc, TreeRss, cli_argv, median, python_argv,
    record_digest, search_digest, tail, traced_cli_argv,
)
from plan import item_cells
from report import Trace
from tracer import load_dir

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: Launches of ``a64fx-campaign list`` that time the oneshot set-up.
ONESHOT_SETUPS = 5
#: How long a single program process may take before it counts as
#: not finishing (and is killed).
PROCESS_TIMEOUT_S = 120.0
#: After the last arrival, how long the service may take to finish
#: what it accepted.
DRAIN_TIMEOUT_S = 45.0
#: Gap between two status polls of the service's load generator.
POLL_GAP_S = 0.002
TERMINAL = ("finished", "failed", "cancelled")


class Result:
    """What one pass measured."""

    def __init__(self) -> None:
        self.setups: list[float] = []
        self.campaigns: list[float] = []   # latencies; inf = failed
        self.searches: list[float] = []
        self.cells = 0                     # verified cells delivered
        self.wall = 0.0                    # timed wall clock
        self.peak_rss_kb = 0
        self.items = 0                     # plan items started
        self.digests: list = []            # outputs, to compare passes
        self.window: "tuple[float, float] | None" = None
        self.extra: dict[str, float] = {}
        self.entries: list[dict] = []      # session loop's per-item log

    def end_to_end(self, tally: Tally) -> "tuple[dict, list[str]]":
        p50 = median(self.campaigns)
        tail_value, pct, n = tail(self.campaigns)
        metrics = {
            "setup_s": (median(self.setups), "s"),
            "cells_per_s": (self.cells / self.wall if self.wall else 0.0, "cells/s"),
            "campaign_s.p50": (p50, "s"),
            "campaign_s.tail": (tail_value, "s"),
            "search_s.p50": (median(self.searches), "s"),
            "peak_rss_mb": (self.peak_rss_kb / 1024.0, "MB"),
        }
        notes = [f"campaign_s.tail is p{pct:.1f} of n={n} campaigns",
                 f"search_s.p50 over n={len(self.searches)} searches",
                 f"error_rate = {tally.failed}/{tally.attempted} = "
                 f"{tally.error_rate:.6f} ratio"]
        return metrics, notes


# -- oneshot -------------------------------------------------------------


def _oneshot_pass(plan, work: Path, tally: Tally, *, seconds=None, count=None,
                  trace_dir=None) -> Result:
    res = Result()
    current = None
    for index, item in enumerate(plan["items"]):
        if count is not None and index >= count:
            break
        if item["round"] != current:
            if count is None and res.wall >= seconds:
                break  # only whole rounds: each run measures the same mix
            current = item["round"]
        out = work / f"item-{index}.json"
        if item["kind"] == "campaign":
            args = ["run", "--out", str(out)]
        else:
            args = ["tune", "--scenario", item["scenario"], "--out", str(out)]
        argv = traced_cli_argv(trace_dir, *args) if trace_dir else cli_argv(*args)
        launched = time.time()
        proc = Proc(argv)
        code = proc.wait(PROCESS_TIMEOUT_S)
        res.wall += proc.t1 - proc.t0
        res.items += 1
        res.peak_rss_kb = max(res.peak_rss_kb, proc.maxrss_kb)
        doc, error, latency = None, None, float("inf")
        if code != 0:
            error = f"{args[0]} exited {code}"
        else:
            try:
                doc = json.loads(out.read_text())
                latency = os.stat(out).st_mtime - launched
            except (OSError, ValueError) as exc:
                error = f"unreadable result: {exc}"
        if item["kind"] == "campaign":
            got = None if doc is None else [
                [r["benchmark"], r["variant"], record_digest(r)] for r in doc["records"]]
            res.cells += tally.campaign(item, got, error)
            res.campaigns.append(latency if error is None else float("inf"))
            res.digests.append(got)
        else:
            digest = None if doc is None else search_digest(doc)
            ok = tally.search(item["scenario"], digest, error)
            res.searches.append(latency if ok else float("inf"))
            res.digests.append(digest)
        out.unlink(missing_ok=True)
    return res


def oneshot(plan, seconds: float, work: Path, tally: Tally, trace: bool):
    setups = []
    for _ in range(ONESHOT_SETUPS):
        proc = Proc(cli_argv("list"))
        if proc.wait(PROCESS_TIMEOUT_S) != 0:
            tally.failure("a64fx-campaign list failed")
        setups.append(proc.t1 - proc.t0)
    if not trace:
        res = _oneshot_pass(plan, work, tally, seconds=seconds)
        res.setups = setups
        return res
    base = _oneshot_pass(plan, work, tally, seconds=seconds / 2)
    trace_dir = work / "trace"
    trace_dir.mkdir()
    traced = _oneshot_pass(plan, work, tally, count=base.items, trace_dir=trace_dir)
    return _traced(tally, base, traced, Trace(load_dir(trace_dir), None))


# -- session -------------------------------------------------------------


def _spawn_session(plan_path: Path, work: Path, out: "Path | None", *,
                   seconds=None, count=None, trace_dir=None) -> Proc:
    argv = python_argv(str(BENCH_DIR / "session_loop.py"), "--plan", str(plan_path),
                       "--work", str(work))
    if out is None:
        argv.append("--setup-only")
    else:
        argv += ["--out", str(out)]
        argv += ["--count", str(count)] if count is not None else ["--seconds", str(seconds)]
    if trace_dir is not None:
        argv += ["--trace-dir", str(trace_dir)]
    return Proc(argv, stdout=subprocess.PIPE)


def _ready(proc: Proc) -> float:
    """Seconds from spawn to the session's READY line (inf if it died)."""
    line = proc.popen.stdout.readline()
    return perf_counter() - proc.t0 if line.strip() == b"READY" else float("inf")


def _session_pass(plan, plan_path: Path, work: Path, tally: Tally, *, seconds=None,
                  count=None, trace_dir=None, setups=1) -> Result:
    res = Result()
    for _ in range(setups - 1):
        proc = _spawn_session(plan_path, work / "setup", None)
        res.setups.append(_ready(proc))
        proc.wait(PROCESS_TIMEOUT_S)
        proc.popen.stdout.close()
    out = work / "session-out.json"
    proc = _spawn_session(plan_path, work / "rounds", out, seconds=seconds, count=count,
                          trace_dir=trace_dir)
    rss = TreeRss(proc.pid)
    res.setups.append(_ready(proc))
    code = proc.wait(PROCESS_TIMEOUT_S + 40)
    proc.popen.stdout.close()
    res.peak_rss_kb = max(rss.close(), proc.maxrss_kb)
    if code != 0 or not out.is_file():
        tally.failure(f"session process exited {code}")
        return res
    doc = json.loads(out.read_text())
    out.unlink()
    items = plan["items"]
    for entry in doc["items"]:
        item = items[entry["index"]]
        latency = entry["t1"] - entry["t0"]
        res.items += 1
        if item["kind"] == "campaign":
            cells = tally.campaign(item, entry.get("cells"), entry["error"])
            res.cells += cells
            ok = entry["error"] is None and cells == len(item_cells(item, tally.cells))
            res.campaigns.append(latency if ok else float("inf"))
            res.digests.append(entry.get("cells"))
        else:
            ok = tally.search(item["scenario"], entry.get("search"), entry["error"])
            res.searches.append(latency if ok else float("inf"))
            res.digests.append(entry.get("search"))
    res.wall = doc["busy_s"]
    if doc["items"]:
        res.window = (doc["items"][0]["t0"], doc["items"][-1]["t1"])
    res.entries = doc["items"]
    return res


def session(plan, seconds: float, work: Path, tally: Tally, trace: bool):
    plan_path = work / "plan.json"
    plan_path.write_text(json.dumps(plan))
    if not trace:
        return _session_pass(plan, plan_path, work, tally, seconds=seconds, setups=SETUPS)
    base = _session_pass(plan, plan_path, work, tally, seconds=seconds / 2)
    trace_dir = work / "trace"
    trace_dir.mkdir()
    traced = _session_pass(plan, plan_path, work, tally, count=base.items,
                           trace_dir=trace_dir)
    spans = Trace(load_dir(trace_dir), traced.window)
    return _traced(tally, base, traced, spans,
                   _pool_wait_shares(spans, plan, traced.entries, tally))


def _pool_wait_shares(spans: Trace, plan, entries, tally: Tally) -> dict:
    """Pool wait as a share of campaign latency, for small campaigns
    (at most 40 cells) and for full-grid campaigns."""
    sums = {"small": [0.0, 0.0], "full": [0.0, 0.0]}
    for entry in entries:
        item = plan["items"][entry["index"]]
        if item["kind"] != "campaign":
            continue
        n = len(item_cells(item, tally.cells))
        group = "full" if n == len(tally.cells) else "small" if n <= 40 else None
        if group is None:
            continue
        sums[group][0] += spans.phase_wait(entry["t0"], entry["t1"])
        sums[group][1] += entry["t1"] - entry["t0"]
    return {f"inversion.pool_wait_share.{g}": (w / t if t else 0.0)
            for g, (w, t) in sums.items()}


# -- service -------------------------------------------------------------


class Client:
    """The load generator's HTTP side: one request at a time, each on
    its own connection (the server closes after every response)."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.round_trips: list[float] = []

    def call(self, method: str, path: str, body=None, timeout: float = 30.0):
        t0 = perf_counter()
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=timeout)
        try:
            payload = json.dumps(body).encode() if body is not None else None
            conn.request(method, path, body=payload,
                         headers={"Content-Type": "application/json"} if payload else {})
            resp = conn.getresponse()
            data = resp.read()
        finally:
            conn.close()
            self.round_trips.append(perf_counter() - t0)
        return resp.status, json.loads(data.decode() or "null")


def _spec(item: dict, tenant: str, runs: "int | None" = None) -> dict:
    spec = {"tenant": tenant}
    if item.get("benchmarks") is not None:
        spec["benchmarks"] = item["benchmarks"]
    if item.get("variants") is not None:
        spec["variants"] = item["variants"]
    if runs is not None:
        spec["runs"] = runs
    return spec


def _wait_terminal(client: Client, cid: str, timeout: float) -> str:
    deadline = perf_counter() + timeout
    while perf_counter() < deadline:
        _status, doc = client.call("GET", f"/campaigns/{cid}")
        if doc["state"] in TERMINAL:
            return doc["state"]
        time.sleep(0.02)
    return "timeout"


class Service:
    """One ``a64fx-campaign serve --workers 2`` process on a fresh cache
    dir, booted, warmed and ready for the timed window."""

    def __init__(self, work: Path, trace_dir: "Path | None" = None) -> None:
        self.dir = work
        work.mkdir(parents=True)
        args = ["serve", "--cache-dir", str(work / "cache"), "--port", "0",
                "--workers", str(WORKERS)]
        argv = traced_cli_argv(trace_dir, *args) if trace_dir else cli_argv(*args)
        self.log = open(work / "serve.log", "wb")
        self.proc = Proc(argv, stderr=self.log)
        self.rss = TreeRss(self.proc.pid)
        self.client: "Client | None" = None
        self.setup_s = float("inf")
        port = self._port()
        if port is None:
            return
        self.client = Client(port)
        # Warm-up outside the paper grid (one run per cell, so none of
        # the timed cells is cached): starts the long-lived pool and
        # fills the workers' compile and feature memos.
        try:
            status, doc = self.client.call("POST", "/campaigns",
                                           _spec({}, "warmup", runs=1))
            if status == 202 and _wait_terminal(self.client, doc["id"], 120) == "finished":
                self.setup_s = perf_counter() - self.proc.t0
        except (OSError, http.client.HTTPException, ValueError):
            pass  # setup_s stays infinite: the run fails

    def _port(self) -> "int | None":
        deadline = perf_counter() + 60
        marker = b"campaign service on http://127.0.0.1:"
        while perf_counter() < deadline and not self.proc.exited():
            text = (self.dir / "serve.log").read_bytes()
            if marker in text:
                return int(text.split(marker, 1)[1].split(b" ", 1)[0])
            time.sleep(0.01)
        return None

    def stop(self) -> int:
        code = self.proc.stop(60)
        self.rss.close()
        self.log.close()
        return code


def _service_window(plan, svc: Service, tally: Tally, seconds: float) -> Result:
    """The open loop: submit each item at its due time, poll what is in
    flight, then check every finished campaign's records."""
    res = Result()
    client = svc.client
    _s, before = client.call("GET", "/stats")
    client.round_trips.clear()
    pending = deque(i for i in plan["items"] if i["due"] < seconds)
    inflight: dict[str, tuple] = {}
    # (item, due time, time the client saw it terminal, campaign id, error)
    done: list[tuple] = []
    late_max = 0.0
    start = perf_counter() + 0.05
    drain_deadline = start + seconds + DRAIN_TIMEOUT_S
    while pending or inflight:
        now = perf_counter()
        if pending and start + pending[0]["due"] <= now:
            item = pending.popleft()
            due = start + item["due"]
            late_max = max(late_max, now - due)
            res.items += 1
            try:
                status, doc = client.call("POST", "/campaigns", _spec(item, item["tenant"]))
            except (OSError, http.client.HTTPException, ValueError) as exc:
                status, doc = 0, {"error": str(exc)}
            if status != 202:
                done.append((item, due, None, None, f"refused: HTTP {status} {doc}"))
            else:
                inflight[doc["id"]] = (item, due)
            continue
        if now > drain_deadline:
            for cid, (item, due) in inflight.items():
                done.append((item, due, None, cid, f"{cid} did not finish"))
            break
        wait = 0.05
        if inflight:
            cid = next(iter(inflight))
            _s, doc = client.call("GET", f"/campaigns/{cid}")
            item, due = inflight.pop(cid)
            if doc["state"] == "finished":
                done.append((item, due, perf_counter(), cid, None))
            elif doc["state"] in TERMINAL:
                done.append((item, due, None, cid, f"{cid} {doc['state']}"))
            else:
                inflight[cid] = (item, due)  # back of the round-robin
            wait = POLL_GAP_S
        if pending:
            wait = min(wait, max(0.0, start + pending[0]["due"] - perf_counter()))
        time.sleep(wait)
    end = max((seen for _i, _d, seen, _c, _e in done if seen is not None),
              default=perf_counter())
    res.window = (start, end)
    res.wall = end - start
    http_trips = list(client.round_trips)
    _s, after = client.call("GET", "/stats")
    for item, due, seen, cid, error in sorted(done, key=lambda d: d[1]):
        got = None
        if error is None:
            status, doc = client.call("GET", f"/campaigns/{cid}/result")
            if status == 200:
                got = [[r["benchmark"], r["variant"], record_digest(r)]
                       for r in doc["records"]]
            else:
                error = f"{cid}: result HTTP {status}"
        cells = tally.campaign(item, got, error)
        res.cells += cells
        ok = error is None and cells == len(item_cells(item, tally.cells))
        latency = seen - due if ok else float("inf")
        (res.searches if item["kind"] == "search" else res.campaigns).append(latency)
        res.digests.append(got)
    executed = after["cells_executed"] - before["cells_executed"]
    deduped = after["cells_deduped"] - before["cells_deduped"]
    res.extra = {
        "service.requests": len(http_trips),
        "service.http_s.p50": median(http_trips),
        "service.cells_executed": executed,
        "service.dedupe_ratio": deduped / (executed + deduped) if executed + deduped else 0.0,
        "loadgen.late_s.max": late_max,
    }
    return res


def _service_pass(plan, work: Path, tally: Tally, seconds: float, *, trace_dir=None,
                  setups=1) -> Result:
    setup_times = []
    for n in range(setups - 1):
        extra = Service(work / f"setup-{n}")
        try:
            setup_times.append(extra.setup_s)
        finally:
            extra.stop()
        shutil.rmtree(work / f"setup-{n}", ignore_errors=True)
    svc = Service(work / "svc", trace_dir)
    try:
        setup_times.append(svc.setup_s)
        if svc.client is None or svc.setup_s == float("inf"):
            tally.failure("service did not boot")
            res = Result()
        else:
            res = _service_window(plan, svc, tally, seconds)
    finally:
        code = svc.stop()
    if code != 0:
        tally.failure(f"serve exited {code}")
    res.setups = setup_times
    res.peak_rss_kb = max(svc.rss.peak_kb, svc.proc.maxrss_kb)
    return res


def service(plan, seconds: float, work: Path, tally: Tally, trace: bool):
    if not trace:
        return _service_pass(plan, work / "a", tally, seconds, setups=SETUPS)
    base = _service_pass(plan, work / "a", tally, seconds / 2)
    trace_dir = work / "trace"
    trace_dir.mkdir()
    traced = _service_pass(plan, work / "b", tally, seconds / 2, trace_dir=trace_dir)
    return _traced(tally, base, traced, Trace(load_dir(trace_dir), traced.window),
                   traced.extra)


# -- traced runs ---------------------------------------------------------


def _traced(tally: Tally, base: Result, traced: Result, spans: Trace,
            extra: "dict | None" = None):
    """Per-layer metrics of a traced pass, and the check that it
    produced the same outputs as its untraced twin."""
    if base.digests != traced.digests:
        tally.failure("traced pass produced different outputs than the untraced pass")
    extra = dict(extra or {})
    return spans, spans.metrics(wall_s=traced.wall, untraced_wall_s=base.wall,
                                extra=extra), traced.wall


WORKLOADS = {"oneshot": oneshot, "session": session, "service": service}

