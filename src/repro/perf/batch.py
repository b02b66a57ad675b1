"""Grid evaluation of the cost model: many placements in one call.

The campaign's result is a (benchmark x variant x placement) grid, and
almost everything about one cell's nests — op counts, working-set
profiles, boundary traffic — depends on the (kernel, machine) pair
only.  The evaluation therefore splits in two:

* **features** (:class:`~repro.perf.ecm.NestFeatures`, memoized per
  compiled nest and machine by :func:`nest_features`): in-core cycles
  per iteration, the latency-bound memory rate, and the nest's traffic
  table;
* **placements** (:func:`evaluate_placements`): once per cell, the
  placement checks, the unit compiles and the feature lookups; then,
  per placement, the ECM times through :meth:`NestFeatures.times` and
  the benchmark assembly — rank geometry, OpenMP overhead, library
  calls, the 2 µs floor and MPI time — on plain floats.  A cell has 1
  to 29 placements (8.4 on average on A64FX), too few for array
  arithmetic to pay for its import.

This is the one implementation of the benchmark model:
:func:`repro.perf.cost.benchmark_model` is a one-placement call into
:func:`evaluate_placements`; ``tests/perf/test_model_golden.py`` pins
the outputs on every registry machine.

In front of the evaluator sits the grid API — :class:`GridSpec` /
:func:`evaluate_grid` — re-exported from :mod:`repro.api` as the
single entry point for model-space sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.caching import IdentityMemo
from repro.compilers.base import CodegenNestInfo, CompileStatus
from repro.compilers.flags import CompilerFlags
from repro.compilers.registry import STUDY_VARIANTS
from repro.errors import HarnessError
from repro.libs.mathlib import library_time_s
from repro.machine.machine import Machine
from repro.machine.topology import Placement
from repro.perf.cost import (
    CompilationCache,
    ModelResult,
    UnitBreakdown,
    machine_memo_key,
)
from repro.perf.ecm import NestFeatures
from repro.perf.scaling import numa_spill_penalty, omp_region_overhead_s
from repro.suites.base import Benchmark, ParallelKind, ScalingKind

__all__ = [
    "GridCell",
    "GridResult",
    "GridSpec",
    "NestFeatures",
    "evaluate_grid",
    "evaluate_placements",
    "nest_features",
]


# -- features ---------------------------------------------------------------


#: Feature matrices by compiled-nest identity and machine key.
_FEATURES: "IdentityMemo[NestFeatures]" = IdentityMemo(4096)


def nest_features(
    info: CodegenNestInfo,
    machine: Machine,
    machine_key: "str | None" = None,
) -> NestFeatures:
    """The (memoized) feature matrix for one compiled nest on one machine."""
    key = machine_key if machine_key is not None else machine_memo_key(machine)
    features = _FEATURES.get(info, key)
    if features is None:
        features = _FEATURES.put(info, key, value=NestFeatures(info, machine))
    return features


# -- evaluation -------------------------------------------------------------


def evaluate_placements(
    bench: Benchmark,
    variant: str,
    machine: Machine,
    placements: "tuple[Placement, ...] | list[Placement]",
    *,
    flags: CompilerFlags | None = None,
    cache: CompilationCache | None = None,
) -> tuple[ModelResult, ...]:
    """Cost one (benchmark, variant) cell under each of ``placements``.

    Returns one :class:`~repro.perf.cost.ModelResult` per placement:
    the ideal (noise-free) region-of-interest time and its breakdown.
    Kernels compile and nest features load once per cell (not once
    per placement); the per-placement arithmetic runs on floats.

    Raises :class:`~repro.errors.HarnessError` on the first placement
    (in order) the benchmark's constraints reject.
    """
    placements = tuple(placements)
    if not placements:
        return ()
    for placement in placements:
        if bench.parallel is ParallelKind.SERIAL and placement.total_cores_used > 1:
            raise HarnessError(f"{bench.full_name} is serial; placement {placement} invalid")
        if not bench.parallel.uses_mpi and placement.ranks > 1:
            raise HarnessError(f"{bench.full_name} has no MPI; placement {placement} invalid")
        if bench.pow2_ranks and placement.ranks & (placement.ranks - 1):
            raise HarnessError(f"{bench.full_name} requires power-of-two ranks")
    for placement in placements:
        placement.validate(machine.topology)

    # Compile each unit's kernel once; diagnostics accumulate in unit
    # order up to the first failed build.
    cache = cache if cache is not None else CompilationCache()
    diagnostics: list[str] = []
    compiled_units = []
    for unit in bench.units:
        compiled = None
        if unit.kernel is not None:
            compiled = cache.get(variant, unit.kernel, machine, flags)
            diagnostics.extend(compiled.diagnostics)
            if compiled.status is not CompileStatus.OK:
                # Failed builds fail for every placement: one inf cell each.
                return tuple(
                    ModelResult(
                        benchmark=bench.full_name,
                        variant=variant,
                        placement=placement,
                        status=compiled.status,
                        time_s=float("inf"),
                        diagnostics=tuple(diagnostics),
                    )
                    for placement in placements
                )
        compiled_units.append((unit, compiled))

    machine_key = machine_memo_key(machine)
    units = tuple(
        (unit, compiled, tuple(
            (info, nest_features(info, machine, machine_key))
            for info in (compiled.nest_infos if compiled is not None else ())
        ))
        for unit, compiled in compiled_units
    )
    diag = tuple(diagnostics)
    return tuple(
        _placement_model(bench, variant, machine, placement, units, diag)
        for placement in placements
    )


def _placement_model(
    bench: Benchmark,
    variant: str,
    machine: Machine,
    placement: Placement,
    units: tuple,
    diagnostics: tuple[str, ...],
) -> ModelResult:
    """One placement's :class:`~repro.perf.cost.ModelResult` from its
    cell's compiled units and their ``(info, features)`` nests."""
    topo = machine.topology
    # Rank geometry: a rank spans ceil(threads / cores_per_domain)
    # domains, and ranks sharing a domain split its bandwidth.
    threads = placement.threads
    if bench.max_useful_threads is not None:
        threads = min(threads, bench.max_useful_threads)
    domains_used = placement.domains_used(topo)
    rank_domains = min(topo.numa_domains, -(-placement.threads // topo.cores_per_domain))
    bw_share = 1.0 / (placement.ranks * rank_domains / domains_used)
    work_fraction = (
        1.0 / placement.ranks
        if bench.parallel.uses_mpi and bench.scaling is ScalingKind.STRONG
        else 1.0
    )
    # Memory saturation is driven by ALL cores active on a domain
    # (ranks co-located on a CMG saturate it together; the rank's
    # bandwidth share then splits it).
    acpd = max(1, min(
        topo.cores_per_domain,
        -(-placement.total_cores_used // domains_used),
    ))
    # Parallel nests run on the rank's threads and domains; serial nests
    # on one core, with the rank's bandwidth share.
    par_threads = float(max(1, threads))
    par_bandwidth = machine.memory.bandwidth(acpd) * float(rank_domains) * bw_share
    par_numa = numa_spill_penalty(placement, topo)
    serial_bandwidth = machine.memory.bandwidth(1) * bw_share

    total = 0.0
    compute_total = 0.0
    memory_total = 0.0
    breakdown = []
    for unit, compiled, nests in units:
        kernel = 0.0
        library = 0.0
        omp = 0.0
        nest_times = []
        for info, features in nests:
            # An eliminated nest costs nothing, on the one-core report.
            if info.parallel and not features.eliminated:
                nest = features.times(
                    work_fraction, par_threads, features.traffic_for(acpd),
                    par_bandwidth, par_numa)
            else:
                nest = features.times(
                    work_fraction, 1.0, features.traffic_for(1), serial_bandwidth, 1.0)
            kernel = kernel + nest.total_s
            compute_total = compute_total + nest.compute_s * unit.invocations
            memory_total = memory_total + nest.memory_s * unit.invocations
            nest_times.append(nest)
            # An eliminated parallel nest still forks its region.
            if info.parallel and threads > 1:
                omp = omp + omp_region_overhead_s(
                    info.omp_fork_us,
                    info.omp_barrier_us,
                    threads,
                    bench.barriers_per_invocation,
                ) / max(info.omp_scaling_quality, 1e-9)
        if compiled is not None:
            kernel = kernel * compiled.anomaly_multiplier
        if unit.library is not None:
            library = library_time_s(
                unit.library,
                machine,
                threads=placement.threads,
                domains=rank_domains,
                work_fraction=work_fraction,
            )
        total = total + (kernel + library + omp) * unit.invocations
        breakdown.append(
            UnitBreakdown(
                kernel_name=unit.kernel.name if unit.kernel else "<library>",
                kernel_s=kernel * unit.invocations,
                library_s=library * unit.invocations,
                omp_overhead_s=omp * unit.invocations,
                nest_times=tuple(nest_times),
            )
        )

    # A fully dead-code-eliminated ROI still measures the timer call and
    # loop shell; the paper's mvt cell is ">250,000x", not infinity.
    total = max(total, 2e-6)
    comm = 0.0
    if bench.parallel.uses_mpi and placement.ranks > 1:
        # The communication fraction is quoted against the full-node
        # work time; normalize this placement's per-rank work time to
        # node core-seconds so the reference does not depend on the
        # thread count.
        t_node_work = total * placement.total_cores_used / machine.total_cores
        comm = bench.mpi.comm_time_s(t_node_work, placement.ranks)
        total += comm
    return ModelResult(
        benchmark=bench.full_name,
        variant=variant,
        placement=placement,
        status=CompileStatus.OK,
        time_s=total,
        compute_s=compute_total,
        memory_s=memory_total,
        comm_s=comm,
        units=tuple(breakdown),
        diagnostics=diagnostics,
    )


# -- the grid API ---------------------------------------------------------


@dataclass(frozen=True)
class GridSpec:
    """What to evaluate: the model-space analogue of ``CampaignConfig``.

    Selects a (benchmark x variant x placement) grid.  ``placements``
    ``None`` (the default) evaluates each benchmark over its own
    exploration candidates (:func:`repro.harness.exploration.
    placement_candidates`); an explicit tuple applies to every
    benchmark and must satisfy each benchmark's placement constraints.
    """

    #: Machine model or registry name ("a64fx", "xeon", "thunderx2");
    #: ``None`` selects the paper's A64FX node.
    machine: "Machine | str | None" = None
    #: Compiler variants (Figure 2 columns).
    variants: tuple[str, ...] = STUDY_VARIANTS
    #: Suite names to include; ``None`` (with ``benchmarks=None``)
    #: evaluates all seven suites.
    suites: "tuple[str, ...] | None" = None
    #: Individual benchmark full names ("suite.name"); overrides
    #: ``suites`` when set.
    benchmarks: "tuple[str, ...] | None" = None
    #: Placements to cost for every cell; ``None`` uses each
    #: benchmark's exploration candidates.
    placements: "tuple[Placement, ...] | None" = None
    #: Flag override applied to every variant (ablation studies).
    flags: "CompilerFlags | None" = None

    def with_(self, **kwargs: object) -> "GridSpec":
        """A copy with the given fields replaced."""
        return replace(self, **kwargs)  # type: ignore[arg-type]


@dataclass(frozen=True)
class GridCell:
    """One (benchmark, variant) cell: a model result per placement."""

    benchmark: str
    variant: str
    placements: tuple[Placement, ...]
    results: tuple[ModelResult, ...]

    @property
    def best(self) -> ModelResult:
        """The fastest placement's model (first cell on failed builds)."""
        return min(self.results, key=lambda r: r.time_s)

    @property
    def ranked(self) -> tuple[ModelResult, ...]:
        """All placements, fastest first; ties keep candidate order
        (the exploration phase's first-wins convention)."""
        order = sorted(
            range(len(self.results)), key=lambda i: (self.results[i].time_s, i)
        )
        return tuple(self.results[i] for i in order)


@dataclass(frozen=True)
class GridResult:
    """The evaluated grid, cells in (benchmark-major, variant) order."""

    machine: str
    cells: tuple[GridCell, ...]

    def cell(self, benchmark: str, variant: str) -> GridCell:
        for c in self.cells:
            if c.benchmark == benchmark and c.variant == variant:
                return c
        raise KeyError(f"{benchmark}/{variant}")


def evaluate_grid(spec: "GridSpec | None" = None, **overrides: object) -> GridResult:
    """Evaluate the cost model over a (benchmark x variant x placement)
    grid in one batched pass — no noise, no performance runs, just the
    ideal :class:`~repro.perf.cost.ModelResult` per grid point.

    Accepts a :class:`GridSpec`, keyword overrides on top of one, or
    bare keywords (``evaluate_grid(suites=("polybench",))``).
    """
    spec = spec if spec is not None else GridSpec()
    if overrides:
        spec = spec.with_(**overrides)
    # Late imports: the harness/suites layers import repro.perf.
    from repro.harness.exploration import placement_candidates
    from repro.machine.select import resolve_machine
    from repro.suites.registry import all_benchmarks, get_benchmark, get_suite

    machine = resolve_machine(spec.machine)
    if spec.benchmarks is not None:
        benches = tuple(get_benchmark(name) for name in spec.benchmarks)
    elif spec.suites is not None:
        benches = tuple(
            bench for name in spec.suites for bench in get_suite(name).benchmarks
        )
    else:
        benches = tuple(all_benchmarks())

    cache = CompilationCache()
    cells = []
    for bench in benches:
        for variant in spec.variants:
            placements = (
                spec.placements
                if spec.placements is not None
                else placement_candidates(bench, machine)
            )
            results = evaluate_placements(
                bench, variant, machine, placements, flags=spec.flags, cache=cache
            )
            cells.append(
                GridCell(bench.full_name, variant, tuple(placements), results)
            )
    return GridResult(machine.name, tuple(cells))
