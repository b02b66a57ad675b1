"""Scheduler semantics: dedupe, fan-in, cancel, resume, event order.

Everything here drives :class:`CampaignScheduler` directly on a private
event loop (``asyncio.run``) with ``workers=0`` — cells execute on
threads in-process, so the tests are fast, deterministic, and need no
process pool.  The HTTP surface has its own suite in ``test_http.py``.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import os
import signal
import time

import pytest

from repro.harness.engine import CampaignEngine, EventKind
from repro.harness.engine import _run_chunk as _real_run_chunk
from repro.harness.results import record_to_dict
from repro.service import CampaignSpec
from repro.service.registry import (
    STATE_CANCELLED,
    STATE_FAILED,
    STATE_FINISHED,
    STATE_RUNNING,
    ServiceRegistry,
)
from repro.service.scheduler import CampaignScheduler

BENCHES = ("polybench.gemm", "polybench.symm")
VARIANTS = ("GNU", "FJtrad")
RUNS = 3


def spec(tenant: str, benches=BENCHES) -> CampaignSpec:
    return CampaignSpec(
        tenant=tenant, benchmarks=tuple(benches), variants=VARIANTS,
        runs=RUNS,
    )


def run(coro):
    return asyncio.run(coro)


async def finished(*campaigns):
    await asyncio.gather(*(c.task for c in campaigns))


def records_of(campaign) -> dict:
    return {name: record_to_dict(rec) for name, rec in campaign.done.items()}


def _dies_on_first_attempt(chunk):
    """Stands in for ``_run_chunk``: a pool worker dies on each chunk's
    first attempt.  Module-level, so a forked worker unpickles it."""
    if chunk.attempt == 0 and multiprocessing.parent_process() is not None:
        os._exit(3)
    return _real_run_chunk(chunk)


class TestDedupe:
    def test_concurrent_overlapping_campaigns_share_execution(self, tmp_path):
        async def main():
            sched = CampaignScheduler(tmp_path, workers=0)
            # alice and bob overlap on BENCHES[0]; bob adds BENCHES[1].
            alice = sched.submit(spec("alice", benches=BENCHES[:1]))
            bob = sched.submit(spec("bob", benches=BENCHES))
            await finished(alice, bob)
            return sched, alice, bob

        sched, alice, bob = run(main())
        assert alice.state == STATE_FINISHED
        assert bob.state == STATE_FINISHED
        # Each unique cell executed exactly once, service-wide.
        unique_cells = len(BENCHES) * len(VARIANTS)
        assert sched.counters["cells_executed"] == unique_cells
        shared = len(VARIANTS)  # one overlapping benchmark
        assert alice.stats["deduped"] + bob.stats["deduped"] == shared
        assert sched.counters["cells_deduped"] == shared
        # The deduped waiters got the exact records the owner produced.
        alice_recs, bob_recs = records_of(alice), records_of(bob)
        for name in alice_recs:
            assert bob_recs[name] == alice_recs[name]

    def test_fully_cached_campaign_never_touches_the_pool(self, tmp_path):
        async def first():
            sched = CampaignScheduler(tmp_path, workers=0)
            c = sched.submit(spec("warm"))
            await finished(c)
            return sched

        run(first())

        async def second():
            sched = CampaignScheduler(tmp_path, workers=0)
            c = sched.submit(spec("cold"))
            await finished(c)
            return sched, c

        sched, c = run(second())
        assert c.state == STATE_FINISHED
        assert c.stats["cache_hits"] == c.total
        assert sched.counters["cells_executed"] == 0
        assert sched.counters["kernel_batches"] == 0
        assert not sched.pool_created

    def test_waiter_fans_in_on_slow_shared_cell(self, tmp_path, monkeypatch):
        import repro.service.scheduler as mod

        real = mod._run_chunk
        started = []

        def slow_chunk(payload):
            started.append(time.monotonic())
            time.sleep(0.3)
            return real(payload)

        monkeypatch.setattr(mod, "_run_chunk", slow_chunk)

        async def main():
            sched = CampaignScheduler(tmp_path, workers=0)
            alice = sched.submit(spec("alice", benches=BENCHES[:1]))
            # Give alice's scan a tick so she owns the in-flight cells,
            # then submit bob mid-execution: he must fan in, not re-run.
            await asyncio.sleep(0.05)
            bob = sched.submit(spec("bob", benches=BENCHES[:1]))
            await finished(alice, bob)
            return sched, alice, bob

        sched, alice, bob = run(main())
        assert alice.stats["executed"] == alice.total
        assert bob.stats["deduped"] == bob.total
        assert sched.counters["cells_executed"] == alice.total
        assert len(started) == 1  # one benchmark-major batch, once


class TestCancellation:
    def test_cancel_mid_campaign_stops_and_persists(self, tmp_path, monkeypatch):
        import repro.service.scheduler as mod

        real = mod._run_chunk
        monkeypatch.setattr(
            mod, "_run_chunk",
            lambda payload: (time.sleep(0.3), real(payload))[1],
        )

        async def main():
            sched = CampaignScheduler(tmp_path, workers=0)
            c = sched.submit(spec("alice"))
            await asyncio.sleep(0.05)
            sched.cancel(c.id)
            await finished(c)
            return sched, c

        sched, c = run(main())
        assert c.state == STATE_CANCELLED
        assert c.completed < c.total
        entry = ServiceRegistry(
            tmp_path / "service" / "campaigns.json").load()[c.id]
        assert entry["state"] == STATE_CANCELLED
        # Terminal event closed the stream.
        assert c.events[-1]["kind"] == "campaign-cancelled"

    def test_waiters_reclaim_cells_an_owner_abandoned(
        self, tmp_path, monkeypatch
    ):
        import repro.service.scheduler as mod

        real = mod._run_chunk
        monkeypatch.setattr(
            mod, "_run_chunk",
            lambda payload: (time.sleep(0.25), real(payload))[1],
        )

        async def main():
            sched = CampaignScheduler(tmp_path, workers=0)
            alice = sched.submit(spec("alice", benches=BENCHES[:1]))
            await asyncio.sleep(0.05)
            bob = sched.submit(spec("bob", benches=BENCHES[:1]))
            await asyncio.sleep(0.05)
            # alice abandons; her first batch is already running on a
            # thread (uncancellable), but bob must not be stranded
            # regardless of which cells were still queued.
            sched.cancel(alice.id)
            await finished(alice, bob)
            return sched, alice, bob

        sched, alice, bob = run(main())
        assert alice.state == STATE_CANCELLED
        assert bob.state == STATE_FINISHED
        assert bob.completed == bob.total

    def test_waiters_reclaim_cells_of_a_failed_batch(
        self, tmp_path, monkeypatch
    ):
        import repro.service.scheduler as mod

        real = mod._run_chunk
        calls = []

        def fails_first(chunk):
            calls.append(chunk)
            if len(calls) == 1:
                time.sleep(0.25)
                raise RuntimeError("worker ran out of memory")
            return real(chunk)

        monkeypatch.setattr(mod, "_run_chunk", fails_first)

        async def main():
            sched = CampaignScheduler(tmp_path, workers=0)
            alice = sched.submit(spec("alice", benches=BENCHES[:1]))
            await asyncio.sleep(0.05)
            bob = sched.submit(spec("bob", benches=BENCHES[:1]))
            await asyncio.wait_for(finished(alice, bob), timeout=60)
            return alice, bob

        alice, bob = run(main())
        # alice's batch failed, so alice fails; bob, waiting on the same
        # cells, runs them himself instead of inheriting the failure.
        assert alice.state == STATE_FAILED
        assert bob.state == STATE_FINISHED, bob.error
        assert bob.stats["executed"] == bob.total

    def test_cancel_is_idempotent_and_unknown_id_raises(self, tmp_path):
        from repro.service import ServiceError

        async def main():
            sched = CampaignScheduler(tmp_path, workers=0)
            c = sched.submit(spec("alice", benches=BENCHES[:1]))
            await finished(c)
            assert sched.cancel(c.id).state == STATE_FINISHED  # no-op
            with pytest.raises(ServiceError):
                sched.get("c9999-nope")
            return c

        assert run(main()).state == STATE_FINISHED


class TestRestartResume:
    def test_killed_service_resumes_from_journal(self, tmp_path, monkeypatch):
        import repro.service.scheduler as mod

        real = mod._run_chunk

        def uneven_chunk(chunk):
            # First benchmark's batch lands fast; the second is still
            # in flight when the kill arrives.
            slow = any(t.benchmark.full_name.endswith("symm")
                       for t in chunk.tasks)
            time.sleep(1.0 if slow else 0.05)
            return real(chunk)

        monkeypatch.setattr(mod, "_run_chunk", uneven_chunk)

        async def first_life():
            sched = CampaignScheduler(tmp_path, workers=0)
            c = sched.submit(spec("alice"))
            # Let the first benchmark's batch land, then die abruptly —
            # asyncio task cancellation is the in-process stand-in for
            # SIGKILL: no graceful _finish, registry stays "running".
            while c.completed == 0:
                await asyncio.sleep(0.02)
            c.task.cancel()
            await asyncio.gather(c.task, return_exceptions=True)
            return c.id, c.completed

        cid, completed_before = run(first_life())
        assert 0 < completed_before
        registry = ServiceRegistry(tmp_path / "service" / "campaigns.json")
        assert registry.load()[cid]["state"] == STATE_RUNNING

        monkeypatch.setattr(mod, "_run_chunk", real)

        async def second_life():
            sched = CampaignScheduler(tmp_path, workers=0)
            resumed = sched.resume_pending()
            assert [c.id for c in resumed] == [cid]
            await finished(*resumed)
            return sched, resumed[0]

        sched, c = run(second_life())
        assert c.state == STATE_FINISHED
        assert c.completed == c.total
        # The journaled cells were replayed, not re-executed.
        assert c.stats["resumed"] >= completed_before
        result = json.loads((c.dir / "result.json").read_text())
        assert len(result["records"]) == c.total

    def test_new_ids_do_not_collide_with_resumed_ones(self, tmp_path):
        async def first():
            sched = CampaignScheduler(tmp_path, workers=0)
            c = sched.submit(spec("alice", benches=BENCHES[:1]))
            await finished(c)
            # Pretend the service died mid-campaign.
            entry = sched.registry.load()[c.id]
            sched.registry.upsert(c.id, {**entry, "state": STATE_RUNNING})
            return c.id

        cid = run(first())

        async def second():
            sched = CampaignScheduler(tmp_path, workers=0)
            resumed = sched.resume_pending()
            fresh = sched.submit(spec("bob", benches=BENCHES[:1]))
            await finished(*resumed, fresh)
            return resumed[0], fresh

        resumed, fresh = run(second())
        assert resumed.id == cid
        assert fresh.id != cid
        # Fully-journaled campaign resumed without executing anything.
        assert resumed.stats["resumed"] == resumed.total


class TestPoolFailures:
    """Real worker pools (``workers=1``): a dead worker or a failed
    dispatch must not take down later campaigns."""

    def test_dead_pool_worker_is_replaced(self, tmp_path):
        async def main():
            sched = CampaignScheduler(tmp_path, workers=1)
            try:
                before = {p.pid for p in multiprocessing.active_children()}
                first = sched.submit(spec("alice", benches=BENCHES[:1]))
                await finished(first)
                workers = [p.pid for p in multiprocessing.active_children()
                           if p.pid not in before]
                assert workers, "the first campaign started no pool worker"
                os.kill(workers[0], signal.SIGKILL)
                second = sched.submit(spec("bob", benches=BENCHES[1:]))
                await asyncio.wait_for(finished(second), timeout=60)
                return first, second
            finally:
                sched.shutdown_pool(wait=True)

        first, second = run(main())
        assert first.state == STATE_FINISHED
        assert second.state == STATE_FINISHED, second.error
        assert second.stats["executed"] == second.total

    def test_failed_dispatch_fails_only_its_campaign(
        self, tmp_path, monkeypatch, fresh_engine_pool
    ):
        import repro.harness.engine as engine_mod

        real = engine_mod.ProcessPoolExecutor
        failures = [OSError("cannot start worker processes")]

        def flaky_pool(*args, **kwargs):
            if failures:
                raise failures.pop()
            return real(*args, **kwargs)

        monkeypatch.setattr(engine_mod, "ProcessPoolExecutor", flaky_pool)

        async def main():
            sched = CampaignScheduler(tmp_path, workers=1)
            try:
                alice = sched.submit(spec("alice"))
                await finished(alice)
                # bob wants alice's cells: her failed dispatch must not
                # leave them claimed by futures nobody resolves.
                bob = sched.submit(spec("bob"))
                await asyncio.wait_for(finished(bob), timeout=60)
                return alice, bob
            finally:
                sched.shutdown_pool(wait=True)

        alice, bob = run(main())
        assert alice.state == STATE_FAILED
        assert "OSError" in alice.error
        assert bob.state == STATE_FINISHED, bob.error
        assert bob.completed == bob.total

    def test_lost_batch_is_resubmitted_at_the_next_attempt(
        self, tmp_path, monkeypatch, fresh_engine_pool
    ):
        import repro.harness.engine as engine_mod
        import repro.service.scheduler as mod

        async def main(root, workers):
            sched = CampaignScheduler(root, workers=workers)
            try:
                c = sched.submit(spec("alice"))
                await asyncio.wait_for(finished(c), timeout=120)
                return sched, c
            finally:
                sched.shutdown_pool(wait=True)

        _, clean = run(main(tmp_path / "threads", 0))
        # Patched before the pool forks, so its workers inherit it.
        monkeypatch.setattr(engine_mod, "_run_chunk", _dies_on_first_attempt)
        monkeypatch.setattr(mod, "_run_chunk", _dies_on_first_attempt)
        sched, crashed = run(main(tmp_path / "pool", 1))
        assert crashed.state == STATE_FINISHED, crashed.error
        assert records_of(crashed) == records_of(clean)
        assert sched.pool.restarts >= 1


class TestEventOrder:
    def test_service_event_order_matches_serial_engine(self, tmp_path):
        engine_events = []
        engine = CampaignEngine(
            benchmarks=_benchmarks(BENCHES),
            variants=VARIANTS,
            runs=RUNS,
        )
        engine_result = engine.run(engine_events.append)
        engine_order = [
            (e.kind.value, e.benchmark, e.variant)
            for e in engine_events
            if e.kind in (EventKind.CELL_FINISHED, EventKind.CELL_FAILED,
                          EventKind.CELL_TIMED_OUT, EventKind.CACHE_HIT)
        ]

        async def main():
            sched = CampaignScheduler(tmp_path, workers=0)
            c = sched.submit(spec("alice"))
            await finished(c)
            return c

        c = run(main())
        service_order = [
            (e["kind"], e.get("benchmark"), e.get("variant"))
            for e in c.events
            if e["kind"] in ("cell-finished", "cell-failed",
                             "cell-timed-out", "cache-hit")
        ]
        assert service_order == engine_order
        # And the payloads are the records the serial engine produced.
        for (bench, variant), record in engine_result.records.items():
            assert record_to_dict(c.done[(bench, variant)]) == \
                record_to_dict(record)


def _benchmarks(names):
    from repro.suites.registry import get_benchmark

    return [get_benchmark(name) for name in names]
