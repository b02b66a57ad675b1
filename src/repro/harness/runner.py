"""Performance runs (Section 2.4): ten repetitions at the explored
placement, fastest reported; failure statuses recorded as Figure 2
cells.

When telemetry is active, each cell's two phases are traced as
``explore`` and ``simulate`` sub-spans (nesting under the engine's
``cell`` span) with per-phase latency histograms and run counters.

:func:`run_cell` is the resilient wrapper the engine executes:
:func:`measure_benchmark` under a per-cell wall-clock budget, fault
injection (chaos runs), transient-vs-permanent classification, and a
seeded retry/backoff loop.  It never raises for a cell-level failure —
every outcome degrades to a structured :class:`RunRecord` so a
campaign always completes with a (possibly partial) result.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro import telemetry
from repro.compilers.base import CompileStatus
from repro.compilers.flags import CompilerFlags
from repro.errors import ReproError
from repro.faults.plan import FaultInjector, RetryPolicy
from repro.faults.taxonomy import (
    SITE_COMPILE,
    SITE_RUN,
    SITE_TIMEOUT,
    SITE_VERIFY,
    FailureInfo,
    Fault,
    RetryStep,
    TimeoutFault,
    classify_exception,
    failure_info,
)
from repro.harness.exploration import explore
from repro.harness.results import (
    STATUS_COMPILE_ERROR,
    STATUS_OK,
    STATUS_RUNTIME_ERROR,
    RunRecord,
)
from repro.machine.machine import Machine
from repro.perf.cost import CompilationCache
from repro.perf.noise import noise_multiplier, timer_resolution_floor
from repro.suites.base import Benchmark

#: Repetitions in the performance phase (Sec. 2.4).
PERFORMANCE_RUNS = 10

_STATUS_MAP = {
    CompileStatus.COMPILE_ERROR: STATUS_COMPILE_ERROR,
    CompileStatus.RUNTIME_FAULT: STATUS_RUNTIME_ERROR,
}


def measure_benchmark(
    bench: Benchmark,
    variant: str,
    machine: Machine,
    *,
    flags: CompilerFlags | None = None,
    cache: CompilationCache | None = None,
    runs: int = PERFORMANCE_RUNS,
) -> RunRecord:
    """Full measurement of one (benchmark, compiler) cell."""
    cache = cache if cache is not None else CompilationCache()
    telemetry.count("runner.cells")
    t0 = time.monotonic()
    with telemetry.span("explore", benchmark=bench.full_name, variant=variant):
        placement, exploration_log, model = explore(
            bench, variant, machine, flags=flags, cache=cache
        )
    telemetry.observe("runner.explore_s", time.monotonic() - t0)

    if model.status is not CompileStatus.OK:
        telemetry.count("runner.failed_cells")
        return RunRecord(
            benchmark=bench.full_name,
            suite=bench.suite,
            variant=variant,
            ranks=placement.ranks,
            threads=placement.threads,
            runs=(),
            status=_STATUS_MAP[model.status],
            exploration=exploration_log,
            diagnostics=model.diagnostics,
        )

    # The exploration's winner model *is* the model at the chosen
    # placement (the batched sweep keeps every candidate's result, and
    # the model is deterministic); add per-run noise on top of it.
    t0 = time.monotonic()
    with telemetry.span("simulate", benchmark=bench.full_name, variant=variant,
                        runs=runs, placement=f"{placement.ranks}x{placement.threads}"):
        final = model
        times = tuple(
            timer_resolution_floor(
                final.time_s
                * noise_multiplier(
                    bench.noise_cv, "perf", bench.full_name, variant, str(placement), i
                )
            )
            for i in range(runs)
        )
    telemetry.observe("runner.simulate_s", time.monotonic() - t0)
    telemetry.count("runner.perf_runs", runs)
    return RunRecord(
        benchmark=bench.full_name,
        suite=bench.suite,
        variant=variant,
        ranks=placement.ranks,
        threads=placement.threads,
        runs=times,
        status=STATUS_OK,
        exploration=exploration_log,
        diagnostics=final.diagnostics,
    )


# -- resilient execution -------------------------------------------------


@dataclass(frozen=True)
class CellRetry:
    """One consumed retry: the fault that ended an attempt, and the
    backoff slept before the next one."""

    attempt: int  # 0-based attempt the fault struck
    fault: FailureInfo
    delay_s: float


@dataclass(frozen=True)
class CellOutcome:
    """What :func:`run_cell` hands back to the engine.

    Plain frozen data so it crosses the process-pool pickle boundary;
    the engine turns ``retries`` into ``CELL_RETRIED`` events and the
    record's status into ``CELL_FINISHED``/``CELL_FAILED``/
    ``CELL_TIMED_OUT``.
    """

    record: RunRecord
    attempts: int
    retries: tuple[CellRetry, ...] = ()


def _failure_record(
    bench: Benchmark,
    variant: str,
    fault: Fault,
    attempts: int,
    retries: "tuple[CellRetry, ...]" = (),
) -> RunRecord:
    # The consumed retries become the failure block's history, so the
    # per-retry fault/delay detail survives into the saved result
    # (before, only events and telemetry counters saw it).  Healed
    # cells never reach this path — their records stay byte-identical
    # to a fault-free run.
    history = tuple(
        RetryStep(
            attempt=r.attempt,
            kind=r.fault.kind,
            site=r.fault.site,
            message=r.fault.message,
            transient=r.fault.transient,
            injected=r.fault.injected,
            delay_s=r.delay_s,
        )
        for r in retries
    )
    return RunRecord(
        benchmark=bench.full_name,
        suite=bench.suite,
        variant=variant,
        ranks=1,
        threads=1,
        runs=(),
        status=fault.status,
        diagnostics=(fault.message,) if fault.message else (),
        failure=failure_info(fault, attempts, history),
    )


def _attempt(
    bench: Benchmark,
    variant: str,
    machine: Machine,
    *,
    flags: "CompilerFlags | None",
    cache: CompilationCache,
    runs: int,
    injector: "FaultInjector | None",
    timeout_s: "float | None",
    attempt: int,
) -> "tuple[RunRecord | None, Fault | None]":
    """One attempt at a cell: ``(record, None)`` on a normal outcome
    (including the model's own deterministic failure cells) or
    ``(None, fault)`` when a taxonomy fault struck."""
    name = bench.full_name
    if injector is not None:
        fault = injector.decide(SITE_COMPILE, name, variant, attempt)
        if fault is not None:
            return None, fault
    t0 = time.monotonic()
    try:
        record = measure_benchmark(
            bench, variant, machine, flags=flags, cache=cache, runs=runs
        )
    except ReproError:
        # Configuration/programming errors (unknown variant, invalid
        # kernel) fail fast — retrying or degrading would only bury
        # them under a grid of bogus failure cells.
        raise
    except Exception as exc:  # noqa: BLE001 - degrade, never kill the campaign
        return None, classify_exception(exc)
    elapsed = time.monotonic() - t0
    if injector is not None:
        for site in (SITE_RUN, SITE_TIMEOUT, SITE_VERIFY):
            fault = injector.decide(site, name, variant, attempt)
            if fault is not None:
                return None, fault
    if timeout_s is not None and elapsed > timeout_s:
        return None, TimeoutFault(
            message=f"cell exceeded its {timeout_s}s wall-clock budget "
            f"({elapsed:.3f}s elapsed)",
            transient=True,
            timeout_s=timeout_s,
            elapsed_s=elapsed,
        )
    return record, None


def run_cell(
    bench: Benchmark,
    variant: str,
    machine: Machine,
    *,
    flags: "CompilerFlags | None" = None,
    cache: "CompilationCache | None" = None,
    runs: int = PERFORMANCE_RUNS,
    injector: "FaultInjector | None" = None,
    retry: "RetryPolicy | None" = None,
    timeout_s: "float | None" = None,
    sleep=time.sleep,
) -> CellOutcome:
    """Resiliently measure one cell: inject, classify, retry, degrade.

    Transient faults (flaky environment, injected chaos, timeouts) are
    retried up to ``retry.max_retries`` times with seeded exponential
    backoff; permanent faults — and transient ones that outlive the
    budget — become a failed :class:`RunRecord` whose ``failure`` block
    carries the taxonomy.  The model's own deterministic failure cells
    (Figure 2's compiler/runtime errors) pass straight through without
    burning retries.
    """
    cache = cache if cache is not None else CompilationCache()
    policy = retry if retry is not None else RetryPolicy(max_retries=0)
    retries: list[CellRetry] = []
    attempt = 0
    # Correlation context for the structured log: every record logged
    # below (fault, retry, degradation) carries the cell id, whether it
    # runs in the parent (serial) or in a pool worker (parallel).
    with telemetry.context(cell=f"{bench.full_name}/{variant}"):
        while True:
            record, fault = _attempt(
                bench, variant, machine,
                flags=flags, cache=cache, runs=runs,
                injector=injector, timeout_s=timeout_s, attempt=attempt,
            )
            if fault is None:
                assert record is not None
                return CellOutcome(record, attempt + 1, tuple(retries))
            telemetry.count("faults.observed")
            telemetry.count(f"faults.site.{fault.site}")
            if fault.injected:
                telemetry.count("faults.injected")
            if isinstance(fault, TimeoutFault):
                telemetry.count("engine.cell_timeouts")
            telemetry.log_event(
                "cell.fault", level="warning", attempt=attempt,
                kind=fault.kind, site=fault.site, transient=fault.transient,
                injected=fault.injected, detail=fault.message,
            )
            if policy.should_retry(fault, attempt):
                delay = policy.delay_s(bench.full_name, variant, attempt)
                retries.append(CellRetry(attempt, failure_info(fault, attempt + 1), delay))
                telemetry.count("engine.cell_retries")
                telemetry.log_event(
                    "cell.retry", level="warning", attempt=attempt,
                    kind=fault.kind, delay_s=delay,
                )
                if delay > 0:
                    sleep(delay)
                attempt += 1
                continue
            telemetry.count("runner.failed_cells")
            telemetry.log_event(
                "cell.degraded", level="error", attempt=attempt,
                attempts=attempt + 1, kind=fault.kind, status=fault.status,
            )
            return CellOutcome(
                _failure_record(bench, variant, fault, attempt + 1, tuple(retries)),
                attempt + 1,
                tuple(retries),
            )
