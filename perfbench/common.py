"""Shared plumbing of the benchmark: paths, digests, statistics,
process launching and memory sampling.

Nothing here imports :mod:`repro`; the benchmark process only launches
the program and checks what it hands back.
"""

from __future__ import annotations

import hashlib
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

#: The benchmark's own directory and the checkout root it sits in.
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Scratch space for one benchmark run; listed in the root .gitignore.
WORK_ROOT = ROOT / ".perfbench-work"

#: Pool size of the session and service workloads.
WORKERS = 2


def program_env() -> dict:
    """Environment for program processes: the checkout's sources first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def check_sources() -> None:
    """Fail fast (exit 2, no result line) when the program is absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)


# -- digests -------------------------------------------------------------


def canonical_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def record_digest(record: dict) -> str:
    """Digest of one serialized ``RunRecord`` (``record_to_dict`` form)."""
    return hashlib.sha256(canonical_json(record).encode()).hexdigest()


#: TuneResult fields that do not depend on cache state, workers or
#: journal location (``evaluations``/``from_cache``/``rungs`` do).
SEARCH_FIELDS = ("scenario", "strategy", "machine", "best", "complete",
                 "known_best_label", "trajectory")


def search_digest(result: dict) -> str:
    """Digest of the cache-independent part of a ``TuneResult.to_dict()``."""
    return hashlib.sha256(canonical_json(
        {k: result.get(k) for k in SEARCH_FIELDS}).encode()).hexdigest()


# -- statistics ----------------------------------------------------------


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def tail(values) -> tuple[float, float, int]:
    """``(value, percentile, n)``: the highest percentile with at least
    ten samples beyond it.  Below 20 samples that percentile would not
    even reach the median, so the maximum stands in for it."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0, 0.0, 0
    if n < 20:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


# -- processes -----------------------------------------------------------


class Proc:
    """A launched program process whose exit status and peak resident
    memory are collected with ``wait4`` (the kernel's exact peak).

    Each process leads its own process group, so that killing it also
    kills its pool workers.
    """

    #: Processes started and not yet reaped.
    live: "set[Proc]" = set()

    def __init__(self, argv: list[str], *, stdout=subprocess.DEVNULL,
                 stderr=subprocess.DEVNULL) -> None:
        self.argv = argv
        self.t0 = time.perf_counter()
        self.popen = subprocess.Popen(argv, stdout=stdout, stderr=stderr,
                                      env=program_env(), cwd=ROOT,
                                      start_new_session=True)
        self.pid = self.popen.pid
        self.returncode: "int | None" = None
        self.maxrss_kb = 0
        self.t1 = 0.0
        Proc.live.add(self)

    def wait(self, timeout: float) -> int:
        """Reap the process, killing it when ``timeout`` passes first.
        Blocks on a pidfd, so the exit time is exact and nothing polls."""
        if self.returncode is not None:
            return self.returncode
        fd = os.pidfd_open(self.pid)
        try:
            if not select.select([fd], [], [], timeout)[0]:
                self.kill()
                select.select([fd], [], [], 10.0)
        finally:
            os.close(fd)
        self.t1 = time.perf_counter()
        _pid, status, usage = os.wait4(self.pid, 0)
        self.returncode = os.waitstatus_to_exitcode(status)
        self.maxrss_kb = usage.ru_maxrss
        self.popen.returncode = self.returncode
        Proc.live.discard(self)
        return self.returncode

    def exited(self) -> bool:
        """Has the process ended?  Peeks without reaping it, so that
        :meth:`wait` still collects its status and peak memory."""
        if self.returncode is not None:
            return True
        flags = os.WEXITED | os.WNOHANG | os.WNOWAIT
        return os.waitid(os.P_PID, self.pid, flags) is not None

    def signal(self, sig: int) -> None:
        if self.returncode is None:
            try:
                os.kill(self.pid, sig)
            except ProcessLookupError:
                pass

    def kill(self) -> None:
        """Kill the process and everything in its process group."""
        if self.returncode is None:
            try:
                os.killpg(self.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

    @classmethod
    def kill_all(cls) -> None:
        for proc in list(cls.live):
            proc.kill()
            proc.wait(5)

    def stop(self, timeout: float = 30.0) -> int:
        """Interrupt (SIGINT), then kill after ``timeout``."""
        self.signal(signal.SIGINT)
        return self.wait(timeout)


def python_argv(*args: str) -> list[str]:
    return [sys.executable, *args]


def cli_argv(*args: str) -> list[str]:
    """``a64fx-campaign <args>`` run from the checkout's sources."""
    return python_argv("-m", "repro.cli", *args)


def traced_cli_argv(trace_dir: Path, *args: str) -> list[str]:
    """The same CLI under the benchmark's tracing hook."""
    return python_argv(str(BENCH_DIR / "hook.py"), "--trace-dir",
                       str(trace_dir), "--", *args)


# -- memory --------------------------------------------------------------


def _descendants(pid: int) -> list[int]:
    found, stack = [], [pid]
    while stack:
        current = stack.pop()
        found.append(current)
        try:
            for task in os.listdir(f"/proc/{current}/task"):
                with open(f"/proc/{current}/task/{task}/children") as fh:
                    stack.extend(int(c) for c in fh.read().split())
        except OSError:
            continue
    return found


def _rss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except (OSError, ValueError):
        pass
    return 0


class TreeRss:
    """Samples the summed resident memory of a process and all its
    descendants (pool workers included) every ``interval`` seconds."""

    def __init__(self, pid: int, interval: float = 0.05) -> None:
        self.pid = pid
        self.interval = interval
        self.peak_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def _loop(self) -> None:
        while not self._stop.is_set():
            total = sum(_rss_kb(p) for p in _descendants(self.pid))
            self.peak_kb = max(self.peak_kb, total)
            self._stop.wait(self.interval)

    def close(self) -> int:
        self._stop.set()
        self._thread.join(timeout=5)
        return self.peak_kb
