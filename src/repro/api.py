"""The public campaign API: configure once, run, observe typed events.

This module is the single documented entry point for running
measurement campaigns, through three small types:

:class:`CampaignConfig`
    A frozen, fully-serializable description of *what* to run and
    *how*: machine, compiler variants, suites/benchmarks, flag
    overrides, worker count, cache directory.

:class:`CampaignSession`
    Binds a config to the :class:`~repro.harness.engine.CampaignEngine`
    and exposes an event-subscription surface.  One session runs one
    campaign; ``session.result`` keeps the outcome afterwards.

:class:`CampaignEvent` / :class:`EventKind`
    The typed progress stream (cell started/finished/failed, cache
    hits, ETA), re-exported from the engine.

:class:`GridSpec` / :func:`evaluate_grid`
    The model-space companion (re-exported from
    :mod:`repro.perf.batch`): batch-evaluate the noise-free cost model
    over a (benchmark x variant x placement) grid without running a
    measurement campaign.  It runs the one cost model, whose
    one-placement form is :func:`repro.perf.cost.benchmark_model`.

Quickstart (measurement campaign)::

    from repro.api import CampaignConfig, CampaignSession

    session = CampaignSession(CampaignConfig(workers=4, cache_dir=".cache"))

    @session.subscribe
    def show(event):
        print(event)

    result = session.run()

Quickstart (model grid)::

    from repro.api import GridSpec, evaluate_grid

    grid = evaluate_grid(GridSpec(suites=("polybench",), variants=("GNU",)))
    cell = grid.cell("polybench.gemm", "GNU")   # one result per placement
    print(cell.best.placement, cell.best.time_s)

:class:`TuneSpec` / :class:`TuneResult` / :func:`run_tune`
    The auto-tuning companion (re-exported from :mod:`repro.tuning`):
    search a typed parameter space — placements, compiler variants,
    register-tile sizes — with grid, seeded-random or
    successive-halving strategies, with an evaluation cache that
    finishes a killed search when it is rerun, and telemetry.  See
    ``docs/TUNING.md``.

Quickstart (auto-tuning)::

    from repro.api import TuneSpec, run_tune

    result = run_tune(TuneSpec(scenario="gemm-int8-sdot",
                               strategy="successive-halving"))
    print(result.best_label, result.best_detail["efficiency"])
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING

from repro import _lazy_exports
from repro.compilers.flags import CompilerFlags
from repro.compilers.registry import STUDY_VARIANTS
from repro.errors import HarnessError
from repro.faults import FaultPlan
from repro.harness.engine import (
    CampaignEngine,
    CampaignEvent,
    CellTask,
    EventHandler,
    EventKind,
)
from repro.harness.results import CampaignResult
from repro.harness.runner import PERFORMANCE_RUNS
from repro.perf.batch import GridCell, GridResult, GridSpec, evaluate_grid
from repro.telemetry import StructuredLogger, Telemetry
from repro.machine.machine import Machine
from repro.machine.select import MACHINES as _MACHINES
from repro.machine.select import resolve_machine as _resolve_machine
from repro.suites.registry import get_benchmark, get_suite

if TYPE_CHECKING:  # pragma: no cover
    from repro.telemetry.httpd import ObservatoryServer

__all__ = [
    "CampaignConfig",
    "CampaignEvent",
    "CampaignService",
    "CampaignSession",
    "CampaignSpec",
    "EventKind",
    "GridCell",
    "GridResult",
    "GridSpec",
    "ServiceError",
    "TuneResult",
    "TuneSpec",
    "evaluate_grid",
    "run_tune",
    "spec_from_dict",
]

__getattr__ = _lazy_exports(__name__, {
    "repro.service": (
        "CampaignService",
        "CampaignSpec",
        "ServiceError",
        "spec_from_dict",
    ),
    "repro.tuning": ("TuneResult", "TuneSpec", "run_tune"),
})


@dataclass(frozen=True)
class CampaignConfig:
    """Everything one campaign needs, in one frozen bundle."""

    #: Machine model or registry name ("a64fx", "xeon", "thunderx2");
    #: ``None`` selects the paper's A64FX node.
    machine: "Machine | str | None" = None
    #: Compiler variants (Figure 2 columns).
    variants: tuple[str, ...] = STUDY_VARIANTS
    #: Suite names to include; ``None`` (with ``benchmarks=None``) runs
    #: all seven suites.
    suites: "tuple[str, ...] | None" = None
    #: Individual benchmark full names ("suite.name"); overrides
    #: ``suites`` when set.
    benchmarks: "tuple[str, ...] | None" = None
    #: Flag override applied to every variant (ablation studies).
    flags: "CompilerFlags | None" = None
    #: Worker processes; 1 = deterministic serial loop (same records
    #: either way — the model is fully deterministic).
    workers: int = 1
    #: Root for the persistent cell cache and the journal; ``None``
    #: disables persistence.  An interrupted campaign rerun on the same
    #: directory answers every cell it finished from the cell cache.
    cache_dir: "str | Path | None" = None
    #: Performance runs per cell (the paper's ten).
    runs: int = PERFORMANCE_RUNS
    #: Record structured tracing and metrics for the campaign (the
    #: flight recorder; see :mod:`repro.telemetry`).  Off by default —
    #: the instrumented code paths cost nothing when disabled.  Access
    #: the recording through :attr:`CampaignSession.telemetry`.
    telemetry: bool = False
    #: Pre-flight lint gate (:mod:`repro.staticanalysis`): ``"off"``
    #: (default) runs no analysis, ``"warn"`` attaches findings to each
    #: cell record, ``"error"`` additionally skips cells whose kernels
    #: carry ERROR-severity findings (recorded as ``lint error`` cells).
    lint_policy: str = "off"
    #: Seed-stable chaos plan (:mod:`repro.faults`): deterministic
    #: fault injection at the compile/run/timeout/verify/worker/cache
    #: sites.  ``None`` (default) injects nothing.
    fault_plan: "FaultPlan | None" = None
    #: Retry budget per cell for transient faults (injected chaos,
    #: environmental errors, timeouts).  Deterministic model failures
    #: never consume retries, so the default costs nothing.
    max_retries: int = 1
    #: Per-cell wall-clock budget in seconds; blown budgets classify as
    #: :class:`~repro.faults.taxonomy.TimeoutFault` and record
    #: ``"timeout"`` cells.  ``None`` disables the check.
    cell_timeout_s: "float | None" = None
    #: Base of the seeded exponential retry backoff (0 = immediate).
    retry_backoff_s: float = 0.05
    #: Run only one shard of the campaign: ``(index, count)``, 1-based
    #: (``(1, 4)`` is the first of four).  Cells are assigned
    #: benchmark-major in canonical order
    #: (:func:`repro.harness.journalstore.shard_cells`), each shard
    #: checkpoints into its own journal in ``cache_dir``, and
    #: ``a64fx-campaign journal merge`` folds the shards back into the
    #: full campaign result.  ``None`` (default) runs every cell.
    shard: "tuple[int, int] | None" = None
    #: Serve the live observability endpoint (``/metrics`` in
    #: Prometheus text format, ``/healthz``, ``/progress``) on this
    #: port while the campaign runs; 0 binds an ephemeral port
    #: (published via :attr:`CampaignSession.observatory`).  ``None``
    #: (default) serves nothing.
    serve: "int | None" = None
    #: Append structured JSONL log records (cell lifecycle, faults,
    #: retries — correlated by campaign/shard/cell) to this file.
    #: ``None`` (default) logs nothing.
    log_json: "str | Path | None" = None

    def with_(self, **kwargs: object) -> "CampaignConfig":
        """A copy with the given fields replaced."""
        return replace(self, **kwargs)  # type: ignore[arg-type]


class CampaignSession:
    """One configured campaign: subscribe to events, run, keep the result.

    Accepts a :class:`CampaignConfig`, keyword overrides on top of one,
    or bare keywords (``CampaignSession(workers=4)``).
    """

    def __init__(self, config: "CampaignConfig | None" = None, **overrides: object) -> None:
        config = config if config is not None else CampaignConfig()
        if overrides:
            config = config.with_(**overrides)
        self.config = config
        self._handlers: list[EventHandler] = []
        self._result: "CampaignResult | None" = None
        self._engine: "CampaignEngine | None" = None
        self._telemetry: "Telemetry | None" = (
            Telemetry() if self.config.telemetry else None
        )
        self._logger: "StructuredLogger | None" = (
            StructuredLogger(self.config.log_json)
            if self.config.log_json is not None
            else None
        )

    # -- events ----------------------------------------------------------

    def subscribe(self, handler: EventHandler) -> EventHandler:
        """Register an event handler (usable as a decorator)."""
        self._handlers.append(handler)
        return handler

    def _emit(self, event: CampaignEvent) -> None:
        for handler in self._handlers:
            handler(event)

    # -- execution -------------------------------------------------------

    def engine(self) -> CampaignEngine:
        """The engine this session's config resolves to."""
        cfg = self.config
        benchmarks = None
        suites = None
        if cfg.benchmarks is not None:
            benchmarks = tuple(get_benchmark(name) for name in cfg.benchmarks)
        elif cfg.suites is not None:
            suites = tuple(get_suite(name) for name in cfg.suites)
        return CampaignEngine(
            _resolve_machine(cfg.machine),
            variants=cfg.variants,
            suites=suites,
            benchmarks=benchmarks,
            flags=cfg.flags,
            workers=cfg.workers,
            cache_dir=cfg.cache_dir,
            runs=cfg.runs,
            telemetry=self._telemetry,
            lint_policy=cfg.lint_policy,
            fault_plan=cfg.fault_plan,
            max_retries=cfg.max_retries,
            cell_timeout_s=cfg.cell_timeout_s,
            retry_backoff_s=cfg.retry_backoff_s,
            shard=cfg.shard,
            serve=cfg.serve,
            logger=self._logger,
        )

    def cells(self) -> tuple[CellTask, ...]:
        """The campaign's cell tasks (without running anything)."""
        return self.engine().cells()

    def run(self) -> CampaignResult:
        """Execute the campaign and return (and retain) the result."""
        self._engine = self.engine()
        try:
            self._result = self._engine.run(
                emit=self._emit if self._handlers else None
            )
        finally:
            if self._logger is not None:
                self._logger.close()
        return self._result

    @property
    def observatory(self) -> "ObservatoryServer | None":
        """The live HTTP endpoint of the running (or last-run) campaign.

        ``None`` until :meth:`run` has built its engine — a thread
        driving a ``serve``-configured session polls this until the
        server appears, then scrapes ``observatory.url``.
        """
        engine = self._engine
        return engine.observatory if engine is not None else None

    @property
    def logger(self) -> "StructuredLogger | None":
        """The session's structured logger (``None`` without ``log_json``)."""
        return self._logger

    @property
    def result(self) -> CampaignResult:
        """The last :meth:`run` outcome."""
        if self._result is None:
            raise HarnessError("session has not been run yet; call session.run()")
        return self._result

    @property
    def telemetry(self) -> Telemetry:
        """The session's flight recorder (spans + metrics).

        Populated during :meth:`run`; export it with
        :func:`repro.telemetry.write_chrome_trace` or summarize it with
        :func:`repro.telemetry.flight_report`.  Raises when the session
        was configured without ``telemetry=True``.
        """
        if self._telemetry is None:
            raise HarnessError(
                "telemetry is not enabled for this session; pass "
                "CampaignConfig(telemetry=True) (or CampaignSession(telemetry=True))"
            )
        return self._telemetry

    def save(self, path: "str | Path") -> None:
        """Persist the last result as schema-v2 JSON."""
        self.result.save(path)
