"""Parallel campaign engine: cell tasks, worker pools, persistent
caching, and checkpoint/resume.

The paper's full study is a 108-benchmark x 5-compiler grid whose 540
cells are independent of one another (each cell runs its own
exploration sweep and performance runs).  :class:`CampaignEngine`
decomposes the grid into :class:`CellTask` s and executes them

* serially (``workers=1``) in-process, or
* across worker processes (``concurrent.futures.ProcessPoolExecutor``),
  chunked benchmark-major so a worker reuses compiled kernels across
  the five variants of a benchmark.  The pool lives for the process:
  the first parallel run starts it and later runs reuse its workers.
  A registry benchmark crosses the pool boundary by name, so a worker
  runs the registry's own kernel objects, and a forked worker finds
  the compiles and features its parent memoized under them.

Because the model (and its lognormal noise, seeded by sha256 of the
run identity) is fully deterministic, the parallel path produces
record-for-record identical results to the serial one; records are
always assembled in canonical (benchmark-major) cell order.

Persistence has two layers, both rooted at ``cache_dir``:

* ``cells/``   — content-addressed finished-cell records keyed by
  :func:`cell_cache_key`, so re-runs and flag ablations skip unchanged
  cells entirely (zero model re-evaluations on a warm cache); a codec
  over :class:`repro.caching.ContentStore`, which packs the entries
  into one append-only segment per writer;
* ``journal.jsonl`` / ``journal-<i>of<n>.jsonl`` — append-only
  per-(campaign, shard) journals (:mod:`repro.harness.journalstore`);
  an interrupted campaign resumes (``resume=True``) by replaying the
  *merged* stream of every journal present and running only the
  remainder, so a sweep sharded across nodes (``shard=(i, n)``) can be
  picked back up from any of them.

Progress is reported through typed :class:`CampaignEvent` s.

Observability: with a :class:`repro.telemetry.Telemetry` attached the
engine records a root ``campaign`` span, a ``cell`` span per executed
cell (in-worker for parallel runs, merged back across the process-pool
boundary), cache hit/miss counters, and a cell-latency histogram; see
``docs/TELEMETRY.md``.
"""

from __future__ import annotations

import atexit
import dataclasses
import enum
import hashlib
import json
import math
import os
import time
import weakref
from collections.abc import Callable, Iterable, Sequence
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from repro.caching import ContentStore, IdentityMemo
from repro.compilers.flags import CompilerFlags
from repro.compilers.registry import STUDY_VARIANTS
from repro.errors import HarnessError, SuiteError
from repro.faults.plan import FaultInjector, FaultPlan, RetryPolicy
from repro.faults.taxonomy import SITE_CACHE, SITE_WORKER
from repro.harness.journalstore import (
    ENGINE_VERSION,
    CampaignJournal,
    DirectoryJournalStore,
    open_journal,
    shard_cells,
    validate_shard,
)
from repro.harness.results import (
    STATUS_LINT_ERROR,
    STATUS_OK,
    STATUS_TIMEOUT,
    CampaignResult,
    RunRecord,
    record_from_dict,
    record_to_dict,
)
from repro.harness.runner import (
    PERFORMANCE_RUNS,
    CellOutcome,
    run_cell,
)
from repro.ir.kernel import Kernel
from repro.machine.a64fx import a64fx
from repro.machine.machine import Machine
from repro.perf.cost import (
    CACHE_SCHEMA_VERSION,
    CompilationCache,
    kernel_fingerprint,
    machine_fingerprint,
)
from repro.suites.base import Benchmark, Suite
from repro.suites.registry import all_suites, get_benchmark
from repro import telemetry
from repro.telemetry import StructuredLogger, Telemetry, telemetry_block
from repro.telemetry.history import (
    CampaignHistory,
    HistorySample,
    history_file_name,
    summarize_histograms,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.telemetry.httpd import ObservatoryServer

#: Lint-gate policies (``CampaignConfig.lint_policy``).
LINT_OFF = "off"  # no pre-flight analysis (the default)
LINT_WARN = "warn"  # analyze and attach findings; run everything
LINT_ERROR = "error"  # additionally skip cells with ERROR findings
LINT_POLICIES = (LINT_OFF, LINT_WARN, LINT_ERROR)


# -- events --------------------------------------------------------------


class EventKind(enum.Enum):
    """What a :class:`CampaignEvent` reports."""

    CAMPAIGN_STARTED = "campaign-started"
    #: A cell was dispatched (serial: about to run; parallel: queued).
    CELL_STARTED = "cell-started"
    #: A cell finished with ``status == ok``.
    CELL_FINISHED = "cell-finished"
    #: A cell finished with a failure status (Figure 2 failure cells).
    CELL_FAILED = "cell-failed"
    #: A cell was satisfied from the persistent cell cache or journal.
    CACHE_HIT = "cache-hit"
    #: The pre-flight lint gate skipped the cell (``lint_policy="error"``
    #: and the benchmark's kernels carry ERROR-severity findings).
    CELL_LINT_FAILED = "lint-failed"
    #: A transient fault struck the cell and it is being re-attempted
    #: (the message names the fault and the attempt).
    CELL_RETRIED = "cell-retried"
    #: The cell's final status is ``timeout`` (wall-clock budget blown,
    #: or an injected :class:`~repro.faults.taxonomy.TimeoutFault`).
    CELL_TIMED_OUT = "cell-timed-out"
    #: A worker process died; its in-flight cells were resubmitted at
    #: the next attempt (or, once the :class:`WorkerPool` is exhausted,
    #: run in-process).
    WORKER_LOST = "worker-lost"
    CAMPAIGN_FINISHED = "campaign-finished"


@dataclass(frozen=True)
class CampaignEvent:
    """One typed progress event from a running campaign.

    ``completed``/``total`` count cells; ``eta_s`` is a simple
    elapsed-rate extrapolation (``None`` until the first completion).
    """

    kind: EventKind
    benchmark: str | None = None
    variant: str | None = None
    completed: int = 0
    total: int = 0
    elapsed_s: float = 0.0
    eta_s: float | None = None
    #: The finished record (CELL_FINISHED / CELL_FAILED / CACHE_HIT).
    record: RunRecord | None = None
    #: True when the record came from the cell cache or the journal.
    from_cache: bool = False
    message: str = ""

    def __str__(self) -> str:
        # Stable-width prefix (counter, elapsed, kind) so a streamed
        # event log lines up column-for-column in a terminal; the cache
        # status is part of the line, not buried in the repr.
        cell = f" {self.benchmark}/{self.variant}" if self.benchmark else ""
        cache = " [cached]" if self.from_cache else ""
        eta = f" eta={self.eta_s:7.1f}s" if self.eta_s is not None else ""
        return (
            f"[{self.completed:4d}/{self.total:4d}] {self.elapsed_s:8.2f}s "
            f"{self.kind.value:<17s}{cell}{cache}{eta}"
            f"{' ' + self.message if self.message else ''}"
        )


#: Signature of an event listener.
EventHandler = Callable[[CampaignEvent], None]


def completion_kind(record: RunRecord) -> EventKind:
    """The completion event an executed cell's record reports: the
    engine and the campaign service announce cells alike."""
    if record.status == STATUS_OK:
        return EventKind.CELL_FINISHED
    if record.status == STATUS_TIMEOUT:
        return EventKind.CELL_TIMED_OUT
    return EventKind.CELL_FAILED


# -- content-addressed cell cache ----------------------------------------


#: Benchmark fingerprints by object identity.  Registry benchmarks come
#: from the lru-cached suite registry and stay resident; the bound
#: (comfortably above the study's 108 benchmarks) keeps long-lived
#: sessions that fingerprint ad-hoc :class:`Benchmark` objects from
#: growing the memo without limit.
_BENCH_FINGERPRINTS: "IdentityMemo[str]" = IdentityMemo(1024)


def _canonical(obj: object) -> object:
    """Recursively convert a value to a JSON-serializable form whose
    serialization is identical across interpreter invocations.

    ``repr`` is NOT that: frozensets (e.g. ``Kernel.features``) iterate
    in hash order, which varies with the per-process hash seed, so a
    repr-derived digest silently changes between runs — breaking
    cross-process cache hits and journal resume.  Sets are therefore
    sorted by their canonical serialization, enums reduced to their
    names, and dataclasses walked field by field.  Kernels delegate to
    :func:`kernel_fingerprint`, the authoritative IR hash.
    """
    if isinstance(obj, Kernel):
        return {"__kernel__": kernel_fingerprint(obj)}
    if isinstance(obj, enum.Enum):
        return f"{type(obj).__name__}.{obj.name}"
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        out: dict[str, object] = {"__class__": type(obj).__name__}
        for f in dataclasses.fields(obj):
            out[f.name] = _canonical(getattr(obj, f.name))
        return out
    if isinstance(obj, (frozenset, set)):
        items = [_canonical(x) for x in obj]
        return sorted(items, key=lambda x: json.dumps(x, sort_keys=True))
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canonical(x) for x in obj]
    if obj is None or isinstance(obj, (str, int, float, bool)):
        return obj
    return repr(obj)


def canonical(obj: object) -> str:
    """The canonical JSON serialization of ``obj`` — identical across
    interpreter invocations and hash seeds (see :func:`_canonical`).

    Public entry point for subsystems that need content-addressed
    identities over model objects (the auto-tuner's scenario
    fingerprints, external cache layers).
    """
    return json.dumps(_canonical(obj), sort_keys=True, separators=(",", ":"))


def benchmark_fingerprint(bench: Benchmark) -> str:
    """Stable content hash of a benchmark definition.

    Covers the kernels' IR (via :func:`kernel_fingerprint`) and every
    piece of harness-relevant metadata (noise level, MPI model,
    invocation counts, placement constraints) through a canonical
    serialization of the dataclass tree that is identical across
    processes and hash seeds.
    """
    digest = _BENCH_FINGERPRINTS.get(bench)
    if digest is None:
        canon = json.dumps(_canonical(bench), sort_keys=True, separators=(",", ":"))
        digest = _BENCH_FINGERPRINTS.put(
            bench, value=hashlib.sha256(canon.encode()).hexdigest())
    return digest


def cell_cache_key(
    bench: Benchmark,
    variant: str,
    machine: Machine,
    flags: CompilerFlags | None,
    runs: int = PERFORMANCE_RUNS,
    lint_policy: str = LINT_OFF,
    resilience: str = "",
) -> str:
    """Content-addressed key for one finished (benchmark, variant) cell.

    ``lint_policy`` participates only when the gate is on: linted runs
    attach findings (or skip cells) and must not alias records produced
    without the gate — while every pre-gate cache entry keeps its key.
    ``resilience`` (the engine's fault-plan/timeout digest) follows the
    same rule: a chaos run's failure records must never poison the
    fault-free cache, and default-configured runs keep their old keys.
    """
    parts = (
        f"cell|e{ENGINE_VERSION}|c{CACHE_SCHEMA_VERSION}",
        benchmark_fingerprint(bench),
        variant,
        machine.name,
        machine_fingerprint(machine),
        repr(flags),
        str(runs),
    )
    if lint_policy != LINT_OFF:
        parts = parts + (f"lint={lint_policy}",)
    if resilience:
        parts = parts + (resilience,)
    return hashlib.sha256("|".join(parts).encode()).hexdigest()


def _decode_cell(data: bytes) -> RunRecord:
    return record_from_dict(json.loads(data)["record"])


class CellCache:
    """Finished cell records, keyed by :func:`cell_cache_key`: a JSON
    codec over a :class:`~repro.caching.ContentStore` (``cell_cache.*``
    counters; corrupt entries are dropped, failed writes counted)."""

    def __init__(self, root: "str | Path") -> None:
        self.store = ContentStore(root, "cell_cache")
        self.root = self.store.root

    def get(self, key: str) -> RunRecord | None:
        return self.store.get(key, _decode_cell)

    def put(self, key: str, record: RunRecord) -> None:
        # A failed write loses only the warm-cache shortcut: the record
        # is still in memory, and a rerun recomputes the same record.
        self.store.put(key, json.dumps({"key": key, "record": record_to_dict(record)}))


# -- cells and chunks ----------------------------------------------------


@dataclass(frozen=True)
class CellTask:
    """One independent unit of campaign work.

    A registry benchmark pickles as its name and unpickles as the
    registry's own object, so a pool worker meets the kernel objects
    its memos are keyed on; any other benchmark (kernel JSON files,
    ad-hoc ones) travels by value."""

    index: int
    benchmark: Benchmark
    variant: str

    @property
    def name(self) -> tuple[str, str]:
        return (self.benchmark.full_name, self.variant)

    def __reduce__(self):
        if _in_registry(self.benchmark):
            return _registry_task, (self.index, self.benchmark.full_name,
                                    self.variant)
        return CellTask, (self.index, self.benchmark, self.variant)


def _in_registry(bench: Benchmark) -> bool:
    try:
        return get_benchmark(bench.full_name) is bench
    except SuiteError:
        return False


def _registry_task(index: int, name: str, variant: str) -> CellTask:
    return CellTask(index, get_benchmark(name), variant)


@dataclass(frozen=True)
class CellChunk:
    """A batch of cells and everything needed to run them: what the
    engine and the campaign service hand to a pool worker
    (:func:`_run_chunk`), and what the in-process paths walk cell by
    cell (:func:`_execute_cell`).  Plain data, so it pickles across the
    pool boundary; the defaults are a plain campaign's."""

    machine: Machine
    #: The cells, in execution order; outcomes come back keyed by
    #: ``CellTask.index``.
    tasks: tuple[CellTask, ...]
    runs: int = PERFORMANCE_RUNS
    flags: CompilerFlags | None = None
    retry: RetryPolicy = RetryPolicy()
    timeout_s: float | None = None
    plan: FaultPlan | None = None
    #: How often the chunk was requeued after a worker died; keys the
    #: worker-site fault decisions so a requeued chunk does not crash
    #: forever.
    attempt: int = 0
    #: Record spans and metrics in the worker and ship them back.
    telemetry_on: bool = False
    #: Correlation context of the structured log records the worker
    #: ships back (``None``: no logging).
    log_ctx: dict | None = None

    @property
    def injector(self) -> FaultInjector | None:
        return FaultInjector(self.plan) if self.plan is not None else None


def _execute_cell(
    chunk: CellChunk, task: CellTask, cache: CompilationCache
) -> CellOutcome:
    """The per-cell step of every execution path (pool worker, serial
    loop, degraded fallback): a ``cell`` span around :func:`run_cell`,
    then the ``engine.cell_s`` observation."""
    t0 = time.monotonic()
    with telemetry.span("cell", benchmark=task.benchmark.full_name,
                        variant=task.variant, index=task.index):
        outcome = run_cell(
            task.benchmark, task.variant, chunk.machine, flags=chunk.flags,
            cache=cache, runs=chunk.runs, injector=chunk.injector,
            retry=chunk.retry, timeout_s=chunk.timeout_s,
        )
    telemetry.observe("engine.cell_s", time.monotonic() - t0)
    return outcome


def _run_chunk(
    chunk: CellChunk,
) -> "tuple[list[tuple[int, CellOutcome]], dict | None, list[dict] | None]":
    """Execute one chunk of cell tasks inside a worker process.

    Registry cells arrive by name (:class:`CellTask`), so the chunk runs
    the registry's own kernel objects: a forked worker finds their
    compiles and features in the memos it inherited, and any worker
    keeps what it compiles for every later chunk.

    With ``telemetry_on``, the chunk records its cell spans and
    metrics into a fresh in-worker :class:`Telemetry` and ships its
    snapshot back alongside the outcomes; the parent merges it into the
    campaign trace (the snapshot is plain JSON-able data, so it crosses
    the ``ProcessPoolExecutor`` pickle boundary).  Structured logging
    travels the same way: with a ``log_ctx`` the chunk buffers its
    records into a fresh in-worker :class:`StructuredLogger` under the
    campaign/shard correlation context and ships the buffer back for
    the parent to merge into the campaign log.

    When the campaign carries a fault plan with worker-site rules, the
    injector is consulted once per cell before the chunk runs; a firing
    rule kills this worker with ``os._exit`` — an abrupt death the
    parent observes as :class:`BrokenProcessPool`, exactly like a real
    OOM kill or node loss.
    """
    injector = chunk.injector
    if injector is not None:
        for task in chunk.tasks:
            crash = injector.decide(SITE_WORKER, task.benchmark.full_name,
                                    task.variant, chunk.attempt)
            if crash is not None:
                os._exit(3)  # simulate the worker dying mid-chunk
    cache = CompilationCache()
    tel = Telemetry() if chunk.telemetry_on else None
    logger = StructuredLogger() if chunk.log_ctx is not None else None
    with telemetry.active(tel), telemetry.logging_active(logger):
        with telemetry.context(**(chunk.log_ctx or {})):
            out = [(task.index, _execute_cell(chunk, task, cache))
                   for task in chunk.tasks]
    return (
        out,
        tel.snapshot() if tel is not None else None,
        logger.snapshot() if logger is not None else None,
    )


#: Broken pools a :class:`WorkerPool` replaces in one campaign run
#: before it is exhausted.
MAX_WORKER_RESTARTS = 3


class WorkerPool:
    """A process pool started by the first :meth:`submit` (the engine
    keeps one for the life of the process, the service one for its
    own), and the one crash policy: report a chunk a dead worker lost
    to :meth:`lost`, then submit it at ``attempt + 1``; a ``None`` back
    (no workers, or :attr:`exhausted`) means run it in-process."""

    def __init__(self, workers: int) -> None:
        self.workers = workers
        #: Pools replaced because a dead worker broke them (the engine
        #: counts them per run).
        self.restarts = 0
        self._pool: "ProcessPoolExecutor | None" = None
        #: The current pool's futures: a loss replaces their pool once.
        self._futures: "weakref.WeakSet[Future]" = weakref.WeakSet()

    @property
    def started(self) -> bool:
        return self._pool is not None

    @property
    def exhausted(self) -> bool:
        return self.restarts > MAX_WORKER_RESTARTS

    def submit(self, chunk: CellChunk) -> "Future | None":
        if not self.workers or self.exhausted:
            return None
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.workers)
        try:
            future = self._pool.submit(_run_chunk, chunk)
        except BrokenProcessPool:  # a worker died since the last submit
            self.lost()
            return self.submit(chunk)
        self._futures.add(future)
        return future

    def lost(self, future: "Future | None" = None) -> None:
        """Replace the pool ``future`` ran on, unless already replaced."""
        if future is None or future in self._futures:
            self.restarts += 1
            # Not cancelled: a pool left after an OSError may be healthy.
            self._pool.shutdown(wait=False)
            self._pool, self._futures = None, weakref.WeakSet()

    def shutdown(self, *, wait: bool = True) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=wait, cancel_futures=not wait)
            self._pool, self._futures = None, weakref.WeakSet()


#: The engine's pool, kept for the life of the process (the service
#: keeps its own).
_ENGINE_POOL: "WorkerPool | None" = None


def _engine_pool(workers: int) -> WorkerPool:
    """The process's engine pool for a run with ``workers``: the first
    parallel run starts it, a later one with the same count reuses it,
    one with another count replaces it.  Each run gets the full restart
    budget, so a run that exhausted the pool hands the next a fresh one."""
    global _ENGINE_POOL
    if _ENGINE_POOL is None or _ENGINE_POOL.workers != workers:
        shutdown_engine_pool()
        _ENGINE_POOL = WorkerPool(workers)
    _ENGINE_POOL.restarts = 0
    return _ENGINE_POOL


def shutdown_engine_pool() -> None:
    """Stop the process's engine pool and its workers, if it has one."""
    global _ENGINE_POOL
    pool, _ENGINE_POOL = _ENGINE_POOL, None
    if pool is not None:
        pool.shutdown()


atexit.register(shutdown_engine_pool)


# -- the engine ----------------------------------------------------------


class CampaignEngine:
    """Decomposes a campaign into cell tasks and executes them.

    Parameters name the campaign (machine, variants, suites or
    benchmarks, flags, runs) plus the execution controls:

    ``workers``
        1 (default) runs the deterministic serial loop in-process;
        N > 1 fans cells out over the process's pool of N workers,
        which later runs reuse.  Both paths produce identical
        :class:`CampaignResult` records.
    ``cache_dir``
        Root of the persistent caches and the journal.  ``None``
        disables persistence (pure in-memory run).
    ``resume``
        Replay completed cells from an existing journal before running
        the remainder.  Ignored (fresh run) when no journal exists;
        raises :class:`HarnessError` when the journal belongs to a
        different campaign.
    ``telemetry``
        A :class:`repro.telemetry.Telemetry` to record the campaign's
        trace and metrics into (``None``, the default, falls back to
        the module-level active telemetry, and records nothing when
        that is also unset).  The engine opens a root ``campaign`` span,
        one ``cell`` span per executed cell (recorded in-worker for
        parallel runs and merged back), and fills
        :attr:`CampaignResult.telemetry` with the flight-recorder
        summary.
    ``lint_policy``
        Pre-flight static analysis of every benchmark's kernels
        (:mod:`repro.staticanalysis`).  ``"off"`` (default) skips the
        analysis; ``"warn"`` attaches the findings to each cell's
        record; ``"error"`` additionally *skips* cells whose kernels
        carry ERROR-severity findings, recording a ``lint error``
        status (with the findings) instead of burning model time —
        the pre-flight vetting the paper's failure cells motivate.
    ``fault_plan``
        A :class:`repro.faults.FaultPlan` aimed at the campaign's
        compile/run/timeout/verify/worker/cache sites (chaos runs;
        seed-stable, so reproducible).  ``None`` injects nothing.
    ``max_retries``
        Retry budget per cell for *transient* faults (injected chaos,
        environmental errors, timeouts).  The model's deterministic
        failure cells never consume retries.  Default 1 — free on the
        happy path, one second chance everywhere else.
    ``cell_timeout_s``
        Per-cell wall-clock budget; a cell exceeding it is classified
        as a (transient) :class:`~repro.faults.taxonomy.TimeoutFault`
        and, once the budget is out, recorded with status
        ``"timeout"``.  ``None`` (default) disables the check.
    ``retry_backoff_s``
        Base of the exponential backoff between retries (seeded
        jitter on top); 0 retries immediately.
    ``shard``
        ``(index, count)``, 1-based: run only this shard of the
        campaign's cells (deterministic benchmark-major assignment, see
        :func:`repro.harness.journalstore.shard_cells`).  Each shard
        checkpoints into its own journal
        (``journal-<index>of<count>.jsonl``) next to the legacy
        ``journal.jsonl``; ``a64fx-campaign journal merge`` (or
        :func:`repro.harness.journalstore.merged_result`) folds the
        shard results back into the full campaign.  With
        ``resume=True`` the engine replays the *merged* stream of every
        journal in the cache dir, so any node can pick up any shard —
        or, unsharded, the whole sweep.  ``None`` (default) runs all
        cells.
    """

    def __init__(
        self,
        machine: Machine | None = None,
        *,
        variants: Sequence[str] = STUDY_VARIANTS,
        suites: Iterable[Suite] | None = None,
        benchmarks: Iterable[Benchmark] | None = None,
        flags: CompilerFlags | None = None,
        workers: int = 1,
        cache_dir: "str | Path | None" = None,
        resume: bool = False,
        runs: int = PERFORMANCE_RUNS,
        telemetry: "Telemetry | None" = None,
        lint_policy: str = LINT_OFF,
        fault_plan: "FaultPlan | None" = None,
        max_retries: int = 1,
        cell_timeout_s: "float | None" = None,
        retry_backoff_s: float = 0.05,
        shard: "tuple[int, int] | None" = None,
        serve: "int | None" = None,
        logger: "StructuredLogger | None" = None,
    ) -> None:
        if workers < 1:
            raise HarnessError(f"workers must be >= 1, got {workers}")
        if lint_policy not in LINT_POLICIES:
            raise HarnessError(
                f"unknown lint_policy {lint_policy!r}; choose from {LINT_POLICIES}"
            )
        if cell_timeout_s is not None and cell_timeout_s <= 0:
            raise HarnessError(f"cell_timeout_s must be > 0, got {cell_timeout_s}")
        self.machine = machine if machine is not None else a64fx()
        self.variants = tuple(variants)
        if benchmarks is None:
            suite_list = tuple(suites) if suites is not None else all_suites()
            benchmarks = [b for s in suite_list for b in s.benchmarks]
        self.benchmarks = tuple(benchmarks)
        self.flags = flags
        self.workers = workers
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.resume = resume
        self.runs = runs
        self.telemetry = telemetry
        self.lint_policy = lint_policy
        self.fault_plan = fault_plan
        self.cell_timeout_s = cell_timeout_s
        self.shard = validate_shard(shard)
        if serve is not None and not 0 <= serve <= 65535:
            raise HarnessError(f"serve must be a port in [0, 65535], got {serve}")
        self.serve = serve
        self.logger = logger
        #: The live observability endpoint, bound while :meth:`run` is
        #: executing when ``serve`` is set (``serve=0`` picks an
        #: ephemeral port, published via ``observatory.port``).
        self.observatory: "ObservatoryServer | None" = None
        self._active_tel: "Telemetry | None" = None
        self._progress: dict = {"state": "idle"}
        self.retry_policy = RetryPolicy(
            max_retries=max_retries,
            backoff_s=retry_backoff_s,
            seed=fault_plan.seed if fault_plan is not None else 0,
        )
        self._injector = FaultInjector(fault_plan) if fault_plan is not None else None

    # -- campaign shape --------------------------------------------------

    def cells(self) -> tuple[CellTask, ...]:
        """All cell tasks in canonical (benchmark-major) order."""
        tasks = []
        for bench in self.benchmarks:
            for variant in self.variants:
                tasks.append(CellTask(len(tasks), bench, variant))
        return tuple(tasks)

    def shard_tasks(self) -> tuple[CellTask, ...]:
        """The cell tasks this engine executes: its shard's slice of
        :meth:`cells` (all of them for an unsharded campaign), in
        canonical order with campaign-wide indices preserved."""
        tasks = self.cells()
        if self.shard == (1, 1):
            return tasks
        wanted = set(shard_cells([t.name for t in tasks], *self.shard))
        return tuple(t for t in tasks if t.name in wanted)

    def cell_keys(self, tasks: Iterable[CellTask]) -> dict[int, str]:
        """The cell-cache key of each task, by ``CellTask.index``."""
        resilience = self._resilience_key()
        return {
            t.index: cell_cache_key(
                t.benchmark, t.variant, self.machine, self.flags,
                self.runs, self.lint_policy, resilience,
            )
            for t in tasks
        }

    def campaign_fingerprint(self) -> str:
        """Identity of this campaign for journal compatibility checks."""
        parts = [
            f"campaign|e{ENGINE_VERSION}",
            self.machine.name,
            machine_fingerprint(self.machine),
            repr(self.flags),
            str(self.runs),
            ",".join(self.variants),
            ",".join(b.full_name for b in self.benchmarks),
            ",".join(benchmark_fingerprint(b) for b in self.benchmarks),
        ]
        if self.lint_policy != LINT_OFF:
            # Only when gated, so pre-gate journals stay resumable.
            parts.append(f"lint={self.lint_policy}")
        resilience = self._resilience_key()
        if resilience:
            parts.append(resilience)
        return hashlib.sha256("|".join(parts).encode()).hexdigest()

    def _resilience_key(self) -> str:
        """Cache/journal key fragment for non-default resilience options.

        Empty for plain campaigns, so existing caches and journals keep
        their identity; chaos/timeout runs get their own namespace
        because faults change the records themselves.
        """
        parts = []
        if self.fault_plan is not None:
            parts.append(f"faults={self.fault_plan.digest()}")
            parts.append(f"retries={self.retry_policy.max_retries}")
        if self.cell_timeout_s is not None:
            parts.append(f"timeout={self.cell_timeout_s}")
        return ",".join(parts)

    @property
    def journal_store(self) -> "DirectoryJournalStore | None":
        """The store holding every shard journal of this campaign."""
        return DirectoryJournalStore(self.cache_dir) if self.cache_dir else None

    # -- execution -------------------------------------------------------

    def run(self, emit: EventHandler | None = None) -> CampaignResult:
        """Execute the campaign; returns the assembled result.

        When telemetry is enabled (engine kwarg, or a module-level
        active telemetry), the run is wrapped in a root ``campaign``
        span and the result gains a flight-recorder ``telemetry`` block.

        With a ``logger`` (engine kwarg, or a module-level active
        structured logger) the whole run is scoped under correlation
        context — campaign fingerprint + shard — so every structured
        record, including the ones workers ship back, is greppable by
        campaign.  With ``serve`` set, :attr:`observatory` serves
        ``/metrics``, ``/healthz``, and ``/progress`` for the duration
        of the run.
        """
        tel = self.telemetry if self.telemetry is not None else telemetry.current()
        logger = self.logger if self.logger is not None else telemetry.active_logger()
        self._active_tel = tel
        fingerprint = self.campaign_fingerprint()
        shard_label = f"{self.shard[0]}of{self.shard[1]}"
        server = None
        if self.serve is not None:
            from repro.telemetry.httpd import ObservatoryServer

            server = ObservatoryServer(
                metrics=self._metrics_snapshot,
                progress=self.progress,
                health=self._health_doc,
                port=self.serve,
                labels={"shard": shard_label, "machine": self.machine.name},
            )
            self.observatory = server.start()
        try:
            with telemetry.logging_active(logger):
                with telemetry.context(campaign=fingerprint[:12],
                                       shard=shard_label):
                    if tel is None:
                        return self._execute(emit, None, None)
                    with telemetry.active(tel):
                        tel.set_gauge("engine.workers", self.workers)
                        with tel.span(
                            "campaign",
                            machine=self.machine.name,
                            workers=self.workers,
                            cells=len(self.benchmarks) * len(self.variants),
                        ) as root:
                            result = self._execute(emit, tel, root)
                    result.telemetry = telemetry_block(tel)
                    return result
        finally:
            if server is not None:
                server.stop()

    # -- live observability surfaces --------------------------------------

    def progress(self) -> dict:
        """The live progress document (what ``/progress`` serves)."""
        return dict(self._progress)

    def _metrics_snapshot(self) -> dict:
        """Lock-free metrics snapshot for the ``/metrics`` scrape.

        The registry is mutated by the engine thread; a scrape that
        races a dict insert simply retries (the registry is small, so a
        clean pass is all but guaranteed within a few attempts).
        """
        tel = self._active_tel
        if tel is None:
            return {}
        for _ in range(8):
            try:
                return tel.metrics.snapshot()
            except RuntimeError:
                continue
        return {}

    def _health_doc(self) -> dict:
        return {
            "fingerprint": self.campaign_fingerprint(),
            "shard": list(self.shard),
            "machine": self.machine.name,
            "engine_version": ENGINE_VERSION,
            "workers": self.workers,
            "state": self._progress.get("state", "idle"),
        }

    def _execute(
        self,
        emit: EventHandler | None,
        tel: "Telemetry | None",
        root,
    ) -> CampaignResult:
        t0 = time.monotonic()
        campaign = self.cells()
        tasks = self.shard_tasks()
        total = len(tasks)
        done: dict[tuple[str, str], RunRecord] = {}
        stats = {
            "cache_hits": 0, "resumed": 0, "executed": 0, "lint_skipped": 0,
            "retried": 0, "timeouts": 0, "worker_restarts": 0, "cache_faults": 0,
            "failures_seen": 0,
        }
        fingerprint = self.campaign_fingerprint()
        lint_diags, lint_blocked = self._lint_benchmarks()

        def current_lint(record: RunRecord) -> RunRecord:
            """``record`` carrying this run's findings.  A record from
            ``cells/`` or the journal holds those of the rule set that
            stored it, and the cell key names only the lint policy."""
            if self.lint_policy == LINT_OFF:
                return record
            diags = lint_diags.get(record.benchmark, ())
            if record.lint == diags:
                return record
            return dataclasses.replace(record, lint=diags)

        history: "CampaignHistory | None" = None
        if self.cache_dir is not None:
            history = CampaignHistory(
                self.cache_dir / history_file_name(*self.shard))
            if not history.start(fingerprint, self.shard):
                history = None  # campaign proceeds without a time series

        telemetry.set_gauge("engine.progress.total", total)

        # Every lifecycle event flows through ``send``; completions
        # additionally update the live progress document, the progress
        # gauges, and the metrics history — whether or not anyone is
        # subscribed to the event stream.
        completion_kinds = frozenset((
            EventKind.CELL_FINISHED, EventKind.CELL_FAILED,
            EventKind.CACHE_HIT, EventKind.CELL_LINT_FAILED,
            EventKind.CELL_TIMED_OUT,
        ))

        def note_progress(kind, task, record, completed, elapsed, eta) -> None:
            decided = (stats["cache_hits"] + stats["resumed"]
                       + stats["executed"])
            hit_rate = None
            if decided:
                hit_rate = (stats["cache_hits"] + stats["resumed"]) / decided
            throughput = completed / elapsed if elapsed > 0 else 0.0
            telemetry.set_gauge("engine.progress.completed", completed)
            telemetry.set_gauge("engine.throughput_cps", throughput)
            if eta is not None:
                telemetry.set_gauge("engine.eta_s", eta)
            if hit_rate is not None:
                telemetry.set_gauge("engine.cache_hit_rate", hit_rate)
            self._progress = {
                "state": ("finished" if kind is EventKind.CAMPAIGN_FINISHED
                          else "running"),
                "fingerprint": fingerprint,
                "shard": list(self.shard),
                "completed": completed,
                "total": total,
                "executed": stats["executed"],
                "cache_hits": stats["cache_hits"],
                "resumed": stats["resumed"],
                "lint_skipped": stats["lint_skipped"],
                "failures": stats["failures_seen"],
                "retried": stats["retried"],
                "elapsed_s": round(elapsed, 3),
                "throughput_cps": round(throughput, 3),
                "eta_s": round(eta, 3) if eta is not None else None,
                "cache_hit_rate": (round(hit_rate, 4)
                                   if hit_rate is not None else None),
            }
            if history is not None:
                snapshot = tel.metrics.snapshot() if tel is not None else {}
                history.append(HistorySample(
                    t=round(time.time(), 6),
                    elapsed_s=round(elapsed, 6),
                    completed=completed,
                    total=total,
                    executed=stats["executed"],
                    cache_hits=stats["cache_hits"],
                    resumed=stats["resumed"],
                    failures=stats["failures_seen"],
                    retried=stats["retried"],
                    throughput_cps=round(throughput, 6),
                    eta_s=round(eta, 6) if eta is not None else None,
                    cache_hit_rate=hit_rate,
                    event=kind.value,
                    cell=(f"{task.benchmark.full_name}/{task.variant}"
                          if task is not None else ""),
                    counters=snapshot.get("counters", {}),
                    gauges=snapshot.get("gauges", {}),
                    histograms=summarize_histograms(snapshot),
                ))

        def send(kind: EventKind, task: CellTask | None = None, **kw) -> None:
            completed = len(done)
            elapsed = time.monotonic() - t0
            eta = None
            if 0 < completed < total:
                eta = elapsed / completed * (total - completed)
            record = kw.get("record")
            if kind in completion_kinds:
                if record is not None and record.status not in (
                        STATUS_OK, STATUS_LINT_ERROR):
                    stats["failures_seen"] += 1
                note_progress(kind, task, record, completed, elapsed, eta)
            elif kind in (EventKind.CELL_RETRIED, EventKind.CAMPAIGN_FINISHED):
                # Retries are sampled too: the doctor clusters them
                # per-suite/per-variant from the history stream.
                note_progress(kind, task, record, completed, elapsed, eta)
            if telemetry.active_logger() is not None:
                telemetry.log_event(
                    "engine." + kind.value.replace("-", "_"),
                    level=("warning" if kind in (
                        EventKind.CELL_FAILED, EventKind.CELL_TIMED_OUT,
                        EventKind.CELL_RETRIED, EventKind.WORKER_LOST,
                        EventKind.CELL_LINT_FAILED) else "info"),
                    benchmark=task.benchmark.full_name if task else None,
                    variant=task.variant if task else None,
                    completed=completed,
                    total=total,
                    status=record.status if record is not None else None,
                    message=kw.get("message", ""),
                )
            if emit is None:
                return
            emit(
                CampaignEvent(
                    kind=kind,
                    benchmark=task.benchmark.full_name if task else None,
                    variant=task.variant if task else None,
                    completed=completed,
                    total=total,
                    elapsed_s=elapsed,
                    eta_s=eta,
                    **kw,
                )
            )

        self._progress = {
            "state": "running",
            "fingerprint": fingerprint,
            "shard": list(self.shard),
            "completed": 0,
            "total": total,
        }
        started = f"{total} cells, workers={self.workers}"
        if self.shard != (1, 1):
            started += f", shard {self.shard[0]}/{self.shard[1]}"
        send(EventKind.CAMPAIGN_STARTED, message=started)

        store = self.journal_store
        journal: "CampaignJournal | None" = None
        if store is not None:
            journal, replayed = open_journal(
                store, fingerprint, self.machine.name,
                [t.name for t in campaign], shard=self.shard,
                resume=self.resume,
            )
            by_name = {t.name: t for t in tasks}
            for name, record in replayed.items():
                record = done[name] = current_lint(record)
                stats["resumed"] += 1
                telemetry.count("engine.resumed")
                send(EventKind.CACHE_HIT, by_name[name], record=record,
                     from_cache=True, message="resumed from journal")

        cell_cache = CellCache(self.cache_dir / "cells") if self.cache_dir else None
        cell_keys = self.cell_keys(tasks) if cell_cache is not None else {}
        pending: list[CellTask] = []
        for task in tasks:
            if task.name in done:
                continue
            if task.benchmark.full_name in lint_blocked:
                # The gate fires before the cache: a defective cell is
                # recorded (never executed), cheap enough to redo, and
                # its record must follow the current rule set.
                record = self._lint_record(task, lint_diags[task.benchmark.full_name])
                done[task.name] = record
                stats["lint_skipped"] += 1
                telemetry.count("engine.cells_lint_skipped")
                if journal is not None:
                    journal.append(record)
                send(EventKind.CELL_LINT_FAILED, task, record=record,
                     message=STATUS_LINT_ERROR)
                continue
            if cell_cache is not None:
                if self._cache_fault(task):
                    # Injected cache loss: pretend the entry vanished
                    # (scratch-file rot); the cell simply re-executes.
                    stats["cache_faults"] += 1
                    telemetry.count("faults.injected")
                    telemetry.count(f"faults.site.{SITE_CACHE}")
                else:
                    hit = cell_cache.get(cell_keys[task.index])
                    if hit is not None:
                        hit = done[task.name] = current_lint(hit)
                        stats["cache_hits"] += 1
                        if journal is not None:
                            journal.append(hit)
                        send(EventKind.CACHE_HIT, task, record=hit, from_cache=True)
                        continue
            pending.append(task)

        def finish_outcome(task: CellTask, outcome: CellOutcome) -> None:
            for retry in outcome.retries:
                stats["retried"] += 1
                send(
                    EventKind.CELL_RETRIED, task,
                    message=f"attempt {retry.attempt + 1} retried after "
                    f"{retry.fault.kind} ({retry.fault.message})",
                )
            record = done[task.name] = current_lint(outcome.record)
            stats["executed"] += 1
            telemetry.count("engine.cells_executed")
            if cell_cache is not None:
                cell_cache.put(cell_keys[task.index], record)
            if journal is not None:
                journal.append(record)
            kind = completion_kind(record)
            if kind is EventKind.CELL_TIMED_OUT:
                stats["timeouts"] += 1
            send(kind, task, record=record,
                 message="" if kind is EventKind.CELL_FINISHED else record.status)

        try:
            if self.workers == 1 or len(pending) <= 1:
                self._run_serial(pending, finish_outcome, send)
            else:
                self._run_parallel(pending, finish_outcome, send, tel, root, stats)
        finally:
            if journal is not None and len(done) < total:
                journal.close()  # keep the partial journal for --resume
            if history is not None and len(done) < total:
                history.close()  # the partial series stays appendable

        result = CampaignResult(machine=self.machine.name)
        for task in tasks:
            result.add(done[task.name])
        failures = sum(
            1 for r in done.values()
            if r.status not in (STATUS_OK, STATUS_LINT_ERROR)
        )
        result.meta = {
            "engine_version": ENGINE_VERSION,
            "workers": self.workers,
            "cells": total,
            "executed": stats["executed"],
            "cache_hits": stats["cache_hits"],
            "resumed": stats["resumed"],
            "elapsed_s": round(time.monotonic() - t0, 3),
            "cache_dir": str(self.cache_dir) if self.cache_dir else None,
            "lint_policy": self.lint_policy,
            "lint_skipped": stats["lint_skipped"],
            "failures": failures,
            "retried": stats["retried"],
            "timeouts": stats["timeouts"],
            "worker_restarts": stats["worker_restarts"],
            "max_retries": self.retry_policy.max_retries,
            "cell_timeout_s": self.cell_timeout_s,
            "fault_plan": self.fault_plan.digest() if self.fault_plan else None,
            "fault_seed": self.fault_plan.seed if self.fault_plan else None,
            "cache_faults": stats["cache_faults"],
            "history": str(history.path) if history is not None else None,
        }
        if self.shard != (1, 1):
            result.meta["shard"] = list(self.shard)
            result.meta["campaign_cells"] = len(campaign)
            result.meta["fingerprint"] = fingerprint
        if journal is not None:
            journal.done()
        send(EventKind.CAMPAIGN_FINISHED, message=f"{stats['executed']} executed, "
             f"{stats['cache_hits']} cache hits, {stats['resumed']} resumed, "
             f"{stats['lint_skipped']} lint-skipped, {stats['retried']} retried, "
             f"{failures} failed")
        if history is not None:
            history.close()
        return result

    def _cache_fault(self, task: CellTask) -> bool:
        """Did the plan inject a cache fault for this cell's lookup?"""
        if self._injector is None:
            return False
        return (
            self._injector.decide(
                SITE_CACHE, task.benchmark.full_name, task.variant, 0
            )
            is not None
        )

    # -- internals -------------------------------------------------------

    def _lint_benchmarks(self) -> "tuple[dict[str, tuple], set[str]]":
        """Pre-flight analysis per benchmark (empty when the gate is off).

        Returns ``(findings by benchmark full name, names blocked by the
        error policy)``.  Analysis is variant-independent, so one walk
        covers all of a benchmark's cells.
        """
        if self.lint_policy == LINT_OFF:
            return {}, set()
        from repro.staticanalysis.diagnostics import Severity, has_at_least
        from repro.staticanalysis.driver import analyze_benchmark_cached

        diags: dict[str, tuple] = {}
        blocked: set[str] = set()
        for bench in self.benchmarks:
            found = analyze_benchmark_cached(bench, self.machine)
            if found:
                diags[bench.full_name] = found
            if self.lint_policy == LINT_ERROR and has_at_least(found, Severity.ERROR):
                blocked.add(bench.full_name)
        return diags, blocked

    def _lint_record(self, task: CellTask, diags: tuple) -> RunRecord:
        """The synthetic record for a cell the lint gate skipped."""
        errors = sum(1 for d in diags if d.severity.value == "error")
        return RunRecord(
            benchmark=task.benchmark.full_name,
            suite=task.benchmark.suite,
            variant=task.variant,
            ranks=1,
            threads=1,
            runs=(),
            status=STATUS_LINT_ERROR,
            diagnostics=(
                f"skipped by lint gate: {errors} error-severity finding(s)",
            ),
            lint=diags,
        )

    def _run_serial(self, tasks, finish_outcome, send=None) -> None:
        """Run ``tasks`` in this process, in order.  ``send`` announces
        each cell as it starts; the degraded fallback passes none, its
        cells were announced when they were first queued."""
        chunk = self._make_chunk(tasks)
        cache = CompilationCache()
        for task in chunk.tasks:
            if send is not None:
                send(EventKind.CELL_STARTED, task)
            finish_outcome(task, _execute_cell(chunk, task, cache))

    def _chunk(self, pending: list[CellTask]) -> list[list[CellTask]]:
        """Benchmark-major chunks: a benchmark's variants stay together
        so a worker's in-memory cache reuses its compiled kernels."""
        groups: dict[str, list[CellTask]] = {}
        for task in pending:
            groups.setdefault(task.benchmark.full_name, []).append(task)
        group_list = list(groups.values())
        target_chunks = max(self.workers * 4, 1)
        per_chunk = max(1, math.ceil(len(group_list) / target_chunks))
        chunks: list[list[CellTask]] = []
        for i in range(0, len(group_list), per_chunk):
            chunks.append([t for g in group_list[i : i + per_chunk] for t in g])
        return chunks

    def _make_chunk(self, tasks, telemetry_on=False) -> CellChunk:
        log_ctx = None
        if telemetry.active_logger() is not None:
            # The worker re-creates the parent's correlation scope so
            # its records grep identically to serially-produced ones.
            log_ctx = {
                "campaign": self.campaign_fingerprint()[:12],
                "shard": f"{self.shard[0]}of{self.shard[1]}",
            }
        return CellChunk(
            machine=self.machine,
            tasks=tuple(tasks),
            runs=self.runs,
            flags=self.flags,
            retry=self.retry_policy,
            timeout_s=self.cell_timeout_s,
            plan=self.fault_plan,
            telemetry_on=telemetry_on,
            log_ctx=log_ctx,
        )

    def _run_parallel(self, pending, finish_outcome, send, tel, root, stats) -> None:
        """Fan chunks out over the process's engine pool."""
        by_index = {t.index: t for t in pending}
        pool = _engine_pool(self.workers)
        futures: dict[Future, CellChunk] = {}

        def dispatch(chunk: CellChunk) -> None:
            future = pool.submit(chunk)
            if future is not None:
                futures[future] = chunk
                return
            send(EventKind.WORKER_LOST,
                 message=f"worker restart budget ({MAX_WORKER_RESTARTS}) exhausted; "
                 f"running {len(chunk.tasks)} cell(s) in-process")
            self._run_serial(chunk.tasks, finish_outcome)

        try:
            for tasks in self._chunk(pending):
                for task in tasks:
                    send(EventKind.CELL_STARTED, task)
                dispatch(self._make_chunk(tasks, tel is not None))
            while futures:
                for future in wait(futures, return_when=FIRST_COMPLETED).done:
                    chunk = futures.pop(future)
                    try:
                        outcomes, snapshot, log_records = future.result()
                    except (BrokenProcessPool, OSError) as exc:
                        pool.lost(future)
                        chunk = dataclasses.replace(chunk, attempt=chunk.attempt + 1)
                        telemetry.count("engine.worker_lost")
                        send(EventKind.WORKER_LOST, chunk.tasks[0],
                             message=f"worker died ({type(exc).__name__}); requeued "
                             f"{len(chunk.tasks)} cell(s) at attempt {chunk.attempt}")
                        dispatch(chunk)
                        continue
                    if snapshot is not None and tel is not None:
                        # Worker spans nest under the campaign root.
                        tel.merge(snapshot, parent=root)
                    parent_log = telemetry.active_logger()
                    if log_records and parent_log is not None:
                        parent_log.merge(log_records)
                    for index, outcome in outcomes:
                        finish_outcome(by_index[index], outcome)
        except BaseException:
            for future in futures:
                future.cancel()
            raise
        stats["worker_restarts"] = pool.restarts
        if pool.restarts:
            telemetry.count("engine.worker_restarts", pool.restarts)
