"""The shared cell scheduler behind the campaign service.

One scheduler serves every tenant.  Each accepted campaign is resolved
to the *same* canonical cell list, campaign fingerprint, and
content-addressed cell keys the batch engine would compute
(:class:`repro.harness.engine.CampaignEngine` is reused for exactly
that), then scheduled cell-by-cell against three shared layers:

``cells/`` (the content-addressed cell cache)
    A campaign whose cells are all cached completes without touching
    the worker pool at all — the pool is created lazily, on the first
    cell that actually needs to execute.

the in-flight table
    One execution per cell fingerprint, service-wide.  A campaign that
    needs a cell another tenant is already executing *fans in*: it
    awaits the same future and counts the cell as ``deduped`` instead
    of dispatching it again.  If the owning campaign is cancelled
    before the cell ran, the waiter re-claims the cell and executes it
    itself — waiters are never stranded.

the service's worker pool
    Cells are dispatched in benchmark-major batches (all of a
    benchmark's variants in one pool task), and a registry benchmark
    crosses the pool by name, so a worker compiles each kernel once
    and keeps the compile in its process memo for later batches.

Every campaign is recorded in the
:class:`~repro.service.registry.ServiceRegistry` *before* its first
cell runs, and every cell it finishes is in ``cells/`` before the
campaign sees its record.  A killed service restarts, replays the
registry, and reruns every in-flight campaign: each cell finished
before the kill is a ``cells/`` hit.

Event order contract: completion events (``cache-hit``,
``cell-finished``, ``cell-failed``, ``cell-timed-out``) are emitted in
canonical (benchmark-major) cell order — the same order the serial
engine reports — regardless of the order in which the pool actually
finished the cells.

All scheduler methods must be called on the service's event loop
(the HTTP front end guarantees this); only the pool tasks run
elsewhere.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path

from repro import telemetry
from repro.compilers.registry import STUDY_VARIANTS, get_compiler
from repro.errors import ReproError
from repro.harness.engine import (
    CampaignEngine,
    CellCache,
    CellChunk,
    CellTask,
    EventKind,
    WorkerPool,
    completion_kind,
    _run_chunk,
)
from repro.harness.results import STATUS_OK, CampaignResult, RunRecord
from repro.machine.select import resolve_machine
from repro.service.config import (
    CampaignSpec,
    ServiceError,
    spec_from_dict,
    spec_to_dict,
)
from repro.service.registry import (
    STATE_CANCELLED,
    STATE_FAILED,
    STATE_FINISHED,
    STATE_QUEUED,
    STATE_RUNNING,
    ServiceRegistry,
)
from repro.suites.registry import get_benchmark, get_suite

#: Service-level event kinds beyond the engine's (terminal outcomes).
EVENT_CAMPAIGN_FAILED = "campaign-failed"
EVENT_CAMPAIGN_CANCELLED = "campaign-cancelled"

#: Event kinds that terminate a campaign's event stream.
TERMINAL_EVENTS = frozenset((
    EventKind.CAMPAIGN_FINISHED.value,
    EVENT_CAMPAIGN_FAILED,
    EVENT_CAMPAIGN_CANCELLED,
))


class CellAbandoned(Exception):
    """The campaign that owned an in-flight cell gave it up (cancel)."""


def _mark_retrieved(fut) -> None:
    """Touch a finished future's exception: a campaign that failed on
    its first cell never awaits the rest, and an unretrieved exception
    would otherwise be logged at garbage collection."""
    if not fut.cancelled():
        fut.exception()


@dataclass
class ServiceCampaign:
    """Every piece of live state for one accepted campaign."""

    id: str
    spec: CampaignSpec
    #: Resolved campaign shape (reused engine machinery).
    machine: object
    cells: tuple[CellTask, ...]
    fingerprint: str
    keys: dict[int, str]
    #: ``service/<id>/`` — the saved result.
    dir: Path
    state: str = STATE_QUEUED
    submitted_at: float = field(default_factory=time.time)
    started_monotonic: float = 0.0
    elapsed_s: float = 0.0
    cancelled: bool = False
    error: "str | None" = None
    done: dict = field(default_factory=dict)
    stats: dict = field(default_factory=lambda: {
        "executed": 0, "cache_hits": 0, "deduped": 0, "failures": 0,
    })
    events: list = field(default_factory=list)
    subscribers: list = field(default_factory=list)
    #: Pool futures for this campaign's own batches (cancel targets).
    batches: list = field(default_factory=list)
    #: Every ``(task, key, future)`` cell claim this campaign made.
    claims: list = field(default_factory=list)
    task: "asyncio.Task | None" = None

    @property
    def total(self) -> int:
        return len(self.cells)

    @property
    def completed(self) -> int:
        return len(self.done)

    @property
    def tenant(self) -> str:
        return self.spec.tenant

    @property
    def finished(self) -> bool:
        return self.state in (STATE_FINISHED, STATE_FAILED, STATE_CANCELLED)


def _resolve_shape(spec: CampaignSpec) -> CampaignEngine:
    """The engine whose shape (cells, fingerprint, keys) this spec maps
    to.  The engine is never run — it is the single source of truth for
    canonical cell order and campaign identity, shared verbatim with
    the one-shot CLI path so service results stay byte-identical."""
    try:
        machine = resolve_machine(spec.machine)
        if spec.variants is not None:
            for variant in spec.variants:
                get_compiler(variant)  # raises on unknown names -> 400
        benchmarks = None
        suites = None
        if spec.benchmarks is not None:
            benchmarks = tuple(get_benchmark(name) for name in spec.benchmarks)
        elif spec.suites is not None:
            suites = tuple(get_suite(name) for name in spec.suites)
        variants = spec.variants if spec.variants is not None else STUDY_VARIANTS
        return CampaignEngine(
            machine, variants=variants, suites=suites, benchmarks=benchmarks,
            runs=spec.runs,
        )
    except ReproError as exc:
        raise ServiceError(str(exc)) from exc


class CampaignScheduler:
    """Shared, deduplicating cell scheduler over the engine's caches."""

    def __init__(self, cache_dir: "str | Path", *, workers: int = 2) -> None:
        if workers < 0:
            raise ServiceError(f"workers must be >= 0, got {workers}")
        self.cache_dir = Path(cache_dir)
        self.service_dir = self.cache_dir / "service"
        self.registry = ServiceRegistry(self.service_dir / "campaigns.json")
        self.cell_cache = CellCache(self.cache_dir / "cells")
        #: 0 = run batches on threads in-process (tests, tiny hosts);
        #: N >= 1 = a lazily-created pool of N worker processes.
        self.workers = workers
        self.campaigns: dict[str, ServiceCampaign] = {}
        self._inflight: dict[str, asyncio.Future] = {}
        #: Lives as long as the service; once it is exhausted, batches
        #: run on threads as with ``workers=0``.
        self.pool = WorkerPool(workers)
        self._seq = 0
        #: Service-wide counters (Prometheus + /stats).
        self.counters = {
            "cells_executed": 0, "cells_deduped": 0, "cells_cached": 0,
            "kernel_batches": 0, "pool_tasks": 0,
            "campaigns_accepted": 0, "campaigns_finished": 0,
            "campaigns_failed": 0, "campaigns_cancelled": 0,
        }

    # -- submission ------------------------------------------------------

    def submit(
        self, spec: CampaignSpec, *, campaign_id: "str | None" = None,
    ) -> ServiceCampaign:
        """Accept a campaign: resolve, register, and start scheduling.

        Raises :class:`ServiceError` (the 400 path) when the spec names
        unknown suites/benchmarks/machines.  The campaign is persisted
        in the registry before this returns, so a crash immediately
        after acceptance still reruns it.
        """
        engine = _resolve_shape(spec)
        cells = engine.cells()
        if not cells:
            raise ServiceError("campaign resolves to zero cells")
        fingerprint = engine.campaign_fingerprint()
        if campaign_id is None:
            self._seq += 1
            campaign_id = f"c{self._seq:04d}-{fingerprint[:8]}"
        campaign = ServiceCampaign(
            id=campaign_id,
            spec=spec,
            machine=engine.machine,
            cells=cells,
            fingerprint=fingerprint,
            keys=engine.cell_keys(cells),
            dir=self.service_dir / campaign_id,
        )
        self.campaigns[campaign_id] = campaign
        self.counters["campaigns_accepted"] += 1
        self._persist(campaign)
        telemetry.count("service.campaigns_accepted")
        campaign.task = asyncio.get_running_loop().create_task(
            self._run_campaign(campaign), name=f"campaign-{campaign_id}"
        )
        return campaign

    def resume_pending(self) -> list[ServiceCampaign]:
        """Resubmit every registry entry a restart must pick back up.

        Each reruns like a new campaign; the cells it finished before
        the restart are ``cells/`` hits.  An entry whose spec no longer
        resolves (a benchmark removed since it was accepted) is marked
        ``failed`` with the reason, and the others still run."""
        resumed = []
        for cid, entry in self.registry.resumable().items():
            seq = _seq_of(cid)
            if seq is not None:
                self._seq = max(self._seq, seq)
            try:
                spec = spec_from_dict(entry.get("spec"))
                resumed.append(self.submit(spec, campaign_id=cid))
            except ServiceError as exc:
                self.registry.upsert(
                    cid, {**entry, "state": STATE_FAILED, "error": str(exc)})
                continue
            telemetry.count("service.campaigns_resumed")
        return resumed

    def cancel(self, campaign_id: str) -> ServiceCampaign:
        """Cancel a campaign: stop scheduling and abandon undispatched
        batches."""
        campaign = self.get(campaign_id)
        if campaign.finished:
            return campaign
        campaign.cancelled = True
        for batch, exec_fut in campaign.batches:
            if exec_fut.cancel():
                self._release(batch, CellAbandoned, campaign_id)
        return campaign

    def _release(self, claims, error: "type[Exception]", message: str) -> None:
        """Give up claimed cells: their unresolved futures raise ``error``
        (:class:`CellAbandoned` on a cancel, :class:`ServiceError` when
        their batch failed), so waiters from other tenants re-claim the
        cells instead of waiting on a result nobody will deliver."""
        for _task, key, fut in claims:
            if self._inflight.get(key) is fut:
                del self._inflight[key]
            if not fut.done():
                fut.set_exception(error(message))

    def get(self, campaign_id: str) -> ServiceCampaign:
        try:
            return self.campaigns[campaign_id]
        except KeyError:
            raise ServiceError(f"no campaign {campaign_id!r}") from None

    # -- the campaign coroutine ------------------------------------------

    async def _run_campaign(self, c: ServiceCampaign) -> None:
        c.state = STATE_RUNNING
        c.started_monotonic = time.monotonic()
        self._persist(c)
        try:
            with telemetry.context(campaign=c.id, tenant=c.tenant):
                self._emit(c, EventKind.CAMPAIGN_STARTED.value,
                           message=f"{c.total} cells, tenant={c.tenant}")
                await self._schedule_cells(c)
                if c.cancelled:
                    self._finish(c, STATE_CANCELLED)
                    return
                self._save_result(c)
                self._finish(c, STATE_FINISHED)
        except asyncio.CancelledError:
            # Hard service stop: leave state "running" in the registry
            # so the next service instance reruns the campaign.
            self._close_subscribers(c)
            raise
        except Exception as exc:  # noqa: BLE001 - degrade to a failed campaign
            c.error = f"{type(exc).__name__}: {exc}"
            telemetry.count("service.campaigns_failed")
            self._finish(c, STATE_FAILED)
        finally:
            # However the campaign ended, no waiter may stay stranded on
            # a cell it claimed but never resolved (a no-op once every
            # claim has its record).
            self._release(c.claims, CellAbandoned, c.id)

    async def _schedule_cells(self, c: ServiceCampaign) -> None:
        """Scan, dispatch, then fan results in — in canonical order.

        The scan and the batch submissions happen in one event-loop
        step (no awaits), so two campaigns scanning concurrently can
        never both claim the same cell.
        """
        owned: list[tuple[CellTask, str, asyncio.Future]] = []
        pending_order: dict[tuple[str, str], tuple] = {}
        for task in c.cells:
            key = c.keys[task.index]
            record = self.cell_cache.get(key)
            if record is not None:
                c.stats["cache_hits"] += 1
                self.counters["cells_cached"] += 1
                telemetry.count("service.cells_cached")
                self._note_record(c, record)
                c.done[task.name] = record
                self._emit_cell(c, EventKind.CACHE_HIT.value, task, record,
                                from_cache=True)
                continue
            if key in self._inflight:
                pending_order[task.name] = ("wait", task, key)
                continue
            fut = self._claim(c, task, key)
            owned.append((task, key, fut))
            pending_order[task.name] = ("own", task, key, fut)

        for batch in self._batched(owned):
            if c.cancelled:
                self._release(batch, CellAbandoned, c.id)
                continue
            self._dispatch(c, batch)

        # Fan results in — canonical order, so the event stream matches
        # the serial engine's completion order.
        for task in c.cells:
            plan = pending_order.get(task.name)
            if plan is None:
                continue
            if c.cancelled:
                return
            if plan[0] == "own":
                _kind, task, key, fut = plan
                try:
                    record = await fut
                except CellAbandoned:
                    return  # our own cancel released it
                how = "executed"
            else:
                _kind, task, key = plan
                record, how = await self._wait_cell(c, task, key)
                if record is None:
                    return  # cancelled while waiting
            c.stats[how] += 1
            if how == "deduped":
                self.counters["cells_deduped"] += 1
                telemetry.count("service.cells_deduped")
            self._note_record(c, record)
            c.done[task.name] = record
            if how == "deduped":
                self._emit_cell(c, EventKind.CACHE_HIT.value, task, record,
                                from_cache=True, message="deduped in-flight")
            else:
                kind = completion_kind(record)
                self._emit_cell(c, kind.value, task, record, message=(
                    "" if kind is EventKind.CELL_FINISHED else record.status))

    async def _wait_cell(self, c: ServiceCampaign, task: CellTask, key: str):
        """Fan in on another campaign's in-flight cell; re-claim it if
        that campaign abandons it or its batch fails.  Returns
        ``(record, how)`` with ``how`` in {"deduped", "executed"}, or
        ``(None, "")`` when this campaign was cancelled meanwhile."""
        while True:
            if c.cancelled:
                return None, ""
            shared = self._inflight.get(key)
            if shared is not None:
                try:
                    record = await asyncio.shield(shared)
                    return record, "deduped"
                except (CellAbandoned, ServiceError):
                    continue
            record = self.cell_cache.get(key)
            if record is not None:
                # The owner (or a reclaimer) finished it since our scan:
                # still a dedupe — this campaign never executed the cell
                # and it was not cached when the campaign was accepted.
                return record, "deduped"
            fut = self._claim(c, task, key)
            self._dispatch(c, [(task, key, fut)])
            try:
                record = await fut
            except CellAbandoned:
                continue
            return record, "executed"

    # -- dispatch --------------------------------------------------------

    def _claim(self, c: ServiceCampaign, task: CellTask, key: str) -> asyncio.Future:
        """Claim a cell for ``c``: the future its record will resolve,
        published in the in-flight table for other campaigns to await."""
        fut = asyncio.get_running_loop().create_future()
        fut.add_done_callback(_mark_retrieved)
        self._inflight[key] = fut
        c.claims.append((task, key, fut))
        return fut

    def _batched(self, owned):
        """Benchmark-major batches: all of a benchmark's variants in
        one pool task, so the worker compiles each kernel once."""
        groups: dict[str, list] = {}
        for entry in owned:
            groups.setdefault(entry[0].benchmark.full_name, []).append(entry)
        return list(groups.values())

    def _dispatch(self, c: ServiceCampaign, batch, attempt: int = 0) -> None:
        """Run one batch on the worker pool (on a thread when the pool hands
        it back) and resolve its cell futures on the event loop."""
        self.counters["kernel_batches"] += 1
        log_ctx = None
        if telemetry.active_logger() is not None:
            log_ctx = {"campaign": c.id, "tenant": c.tenant}
        chunk = CellChunk(
            machine=c.machine,
            tasks=tuple(task for task, _key, _fut in batch),
            runs=c.spec.runs,
            attempt=attempt,
            log_ctx=log_ctx,
        )
        claims = {task.index: (key, fut) for task, key, fut in batch}
        pool_fut = self.pool.submit(chunk)
        if pool_fut is None:
            exec_fut = asyncio.ensure_future(asyncio.to_thread(_run_chunk, chunk))
        else:
            self.counters["pool_tasks"] += 1
            telemetry.count("service.pool_tasks")
            exec_fut = asyncio.wrap_future(pool_fut)
        c.batches.append((batch, exec_fut))

        def _finish_batch(done_fut) -> None:
            if done_fut.cancelled():
                return  # cancel() already released the cells
            exc = done_fut.exception()
            if pool_fut is not None and isinstance(exc, (BrokenProcessPool, OSError)):
                self.pool.lost(pool_fut)
                try:
                    return self._dispatch(c, batch, attempt + 1)
                except Exception as again:  # noqa: BLE001 - fail the batch
                    exc = again
            if exc is not None:
                return self._release(batch, ServiceError,
                                     f"batch execution failed: {exc}")
            outcomes, _snapshot, log_records = done_fut.result()
            logger = telemetry.active_logger()
            if log_records and logger is not None:
                logger.merge(log_records)
            for index, outcome in outcomes:
                key, fut = claims[index]
                self.cell_cache.put(key, outcome.record)
                if self._inflight.get(key) is fut:
                    del self._inflight[key]
                self.counters["cells_executed"] += 1
                telemetry.count("service.cells_executed")
                if not fut.done():
                    fut.set_result(outcome.record)

        exec_fut.add_done_callback(_finish_batch)

    @property
    def pool_created(self) -> bool:
        return self.pool.started

    def shutdown_pool(self, *, wait: bool) -> None:
        self.pool.shutdown(wait=wait)

    # -- bookkeeping -----------------------------------------------------

    def _note_record(self, c: ServiceCampaign, record: RunRecord) -> None:
        if record.status != STATUS_OK:
            c.stats["failures"] += 1

    def _finish(self, c: ServiceCampaign, state: str) -> None:
        c.state = state
        c.elapsed_s = round(time.monotonic() - c.started_monotonic, 3)
        if state == STATE_FINISHED:
            self.counters["campaigns_finished"] += 1
            self._emit(c, EventKind.CAMPAIGN_FINISHED.value,
                       message=f"{c.stats['executed']} executed, "
                       f"{c.stats['cache_hits']} cache hits, "
                       f"{c.stats['deduped']} deduped, "
                       f"{c.stats['failures']} failed")
        elif state == STATE_CANCELLED:
            self.counters["campaigns_cancelled"] += 1
            self._emit(c, EVENT_CAMPAIGN_CANCELLED,
                       message=f"cancelled after {c.completed}/{c.total} cells")
        else:
            self.counters["campaigns_failed"] += 1
            self._emit(c, EVENT_CAMPAIGN_FAILED, message=c.error or "failed")
        self._persist(c)
        self._close_subscribers(c)

    def _save_result(self, c: ServiceCampaign) -> None:
        result = CampaignResult(machine=c.machine.name)
        for task in c.cells:
            result.add(c.done[task.name])
        result.meta = {
            "service": True,
            "campaign_id": c.id,
            "tenant": c.tenant,
            "fingerprint": c.fingerprint,
            "cells": c.total,
            **c.stats,
            "elapsed_s": round(time.monotonic() - c.started_monotonic, 3),
        }
        c.dir.mkdir(parents=True, exist_ok=True)
        result.save(c.dir / "result.json")

    def _persist(self, c: ServiceCampaign) -> None:
        self.registry.upsert(c.id, {
            "tenant": c.tenant,
            "spec": spec_to_dict(c.spec),
            "state": c.state,
            "fingerprint": c.fingerprint,
            "submitted_at": round(c.submitted_at, 3),
            "cells": c.total,
            "completed": c.completed,
            "stats": dict(c.stats),
            "error": c.error,
        })

    # -- events ----------------------------------------------------------

    def _emit_cell(self, c, kind: str, task: CellTask, record, *,
                   from_cache: bool = False, message: str = "") -> None:
        self._emit(c, kind, benchmark=task.benchmark.full_name,
                   variant=task.variant,
                   status=record.status if record is not None else None,
                   from_cache=from_cache, message=message)

    def _emit(self, c: ServiceCampaign, kind: str, **fields) -> None:
        doc = {
            "seq": len(c.events),
            "kind": kind,
            "campaign": c.id,
            "tenant": c.tenant,
            "completed": c.completed,
            "total": c.total,
            "elapsed_s": round(time.monotonic() - c.started_monotonic, 3)
            if c.started_monotonic else 0.0,
        }
        doc.update({k: v for k, v in fields.items() if v is not None})
        c.events.append(doc)
        telemetry.log_event("service." + kind.replace("-", "_"),
                            **{k: v for k, v in doc.items() if k != "kind"})
        for queue in list(c.subscribers):
            try:
                queue.put_nowait(doc)
            except asyncio.QueueFull:
                pass  # slow consumer: it still sees the history on read
        if kind in TERMINAL_EVENTS:
            for queue in list(c.subscribers):
                try:
                    queue.put_nowait(None)
                except asyncio.QueueFull:
                    pass

    def subscribe(self, c: ServiceCampaign) -> asyncio.Queue:
        """A live event queue primed with the full history; ``None``
        marks the end of the stream."""
        queue: asyncio.Queue = asyncio.Queue(maxsize=4096)
        for doc in c.events:
            queue.put_nowait(doc)
        if c.finished:
            queue.put_nowait(None)
        else:
            c.subscribers.append(queue)
        return queue

    def unsubscribe(self, c: ServiceCampaign, queue: asyncio.Queue) -> None:
        try:
            c.subscribers.remove(queue)
        except ValueError:
            pass

    def _close_subscribers(self, c: ServiceCampaign) -> None:
        for queue in list(c.subscribers):
            try:
                queue.put_nowait(None)
            except asyncio.QueueFull:
                pass
        c.subscribers.clear()

    # -- introspection ---------------------------------------------------

    def campaign_doc(self, c: ServiceCampaign) -> dict:
        """The status document ``GET /campaigns/<id>`` serves."""
        elapsed = c.elapsed_s
        if not c.finished and c.started_monotonic:
            elapsed = round(time.monotonic() - c.started_monotonic, 3)
        return {
            "id": c.id,
            "tenant": c.tenant,
            "state": c.state,
            "machine": c.machine.name,
            "fingerprint": c.fingerprint,
            "total": c.total,
            "completed": c.completed,
            "stats": dict(c.stats),
            "submitted_at": round(c.submitted_at, 3),
            "elapsed_s": elapsed,
            "error": c.error,
            "result_ready": (c.dir / "result.json").is_file(),
            "spec": spec_to_dict(c.spec),
        }

    def tenant_gauges(self) -> dict[str, dict[str, float]]:
        """Per-tenant queued/running/deduped/executed cell gauges."""
        gauges: dict[str, dict[str, float]] = {}
        for c in self.campaigns.values():
            g = gauges.setdefault(c.tenant, {
                "queued_cells": 0, "running_cells": 0, "deduped_cells": 0,
                "executed_cells": 0, "campaigns": 0,
            })
            g["campaigns"] += 1
            g["deduped_cells"] += c.stats["deduped"]
            g["executed_cells"] += c.stats["executed"]
            if not c.finished:
                g["queued_cells"] += c.total - c.completed
        for batch_owner in self.campaigns.values():
            if batch_owner.finished:
                continue
            running = sum(
                1 for batch, exec_fut in batch_owner.batches
                if not exec_fut.done()
                for _ in batch
            )
            gauges[batch_owner.tenant]["running_cells"] += running
        return gauges

    def stats_snapshot(self) -> dict:
        """The ``GET /stats`` document."""
        return {
            "campaigns": len(self.campaigns),
            "active": sum(1 for c in self.campaigns.values()
                          if not c.finished),
            "inflight_cells": len(self._inflight),
            "pool_created": self.pool_created,
            "workers": self.workers,
            **self.counters,
            "tenants": self.tenant_gauges(),
        }


def _seq_of(campaign_id: str) -> "int | None":
    """The sequence number embedded in a generated campaign id."""
    try:
        head = campaign_id.split("-", 1)[0]
        if head.startswith("c"):
            return int(head[1:])
    except ValueError:
        pass
    return None
