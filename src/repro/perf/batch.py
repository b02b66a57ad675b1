"""Grid evaluation of the cost model: many placements in one call.

The campaign's result is a (benchmark x variant x placement) grid, and
almost everything about one cell's nests — op counts, working-set
profiles, boundary traffic — depends on the (kernel, machine) pair
only.  The evaluation therefore splits in two:

* **features** (:class:`~repro.perf.ecm.NestFeatures`, memoized per
  compiled nest and machine by :func:`nest_features`): in-core cycles
  per iteration, the latency-bound memory rate, and the nest's traffic
  table;
* **placements** (:func:`evaluate_placements`): the ECM times through
  :meth:`NestFeatures.times` and the benchmark assembly — placement
  checks, rank geometry, OpenMP overhead, library calls, the 2 µs
  floor and MPI time — across all placements of a cell at once, as
  numpy elementwise array ops when the placement axis is wide (a
  single placement runs the same IEEE-754 operations on plain floats).

This is the one implementation of the benchmark model:
:func:`repro.perf.cost.benchmark_model` is a one-placement call into
:func:`evaluate_placements`.  Sums stay sequential and transcendentals
stay in :mod:`math`, so element ``i`` of a wide call equals the
one-placement call on ``placements[i]`` bit for bit;
``tests/perf/test_model_golden.py`` pins the outputs on every registry
machine.

In front of the evaluator sits the grid API — :class:`GridSpec` /
:func:`evaluate_grid` — re-exported from :mod:`repro.api` as the
single entry point for model-space sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

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
from repro.perf.ecm import NestFeatures, NestTime
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


def _rank_geometry(bench: Benchmark, machine: Machine, placement: Placement) -> tuple[int, int, float]:
    """(threads per rank, domains per rank, bandwidth share per rank)."""
    topo = machine.topology
    placement.validate(topo)
    threads = placement.threads
    if bench.max_useful_threads is not None:
        threads = min(threads, bench.max_useful_threads)
    domains_used = placement.domains_used(topo)
    # A rank spans ceil(threads / cores_per_domain) domains.
    rank_domains = min(topo.numa_domains, -(-placement.threads // topo.cores_per_domain))
    # Ranks sharing a domain split its bandwidth.
    ranks_per_domain = placement.ranks * rank_domains / domains_used
    share = 1.0 / ranks_per_domain
    return threads, rank_domains, share


def evaluate_placements(
    bench: Benchmark,
    variant: str,
    machine: Machine,
    placements: "tuple[Placement, ...] | list[Placement]",
    *,
    flags: CompilerFlags | None = None,
    cache: CompilationCache | None = None,
) -> tuple[ModelResult, ...]:
    """Cost one (benchmark, variant) cell under many placements at once.

    Returns one :class:`~repro.perf.cost.ModelResult` per placement:
    the ideal (noise-free) region-of-interest time and its breakdown.
    Kernels compile once (not once per placement), nest features
    extract once, and the remaining per-placement arithmetic runs as
    numpy elementwise operations over the placement axis.

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

    cache = cache if cache is not None else CompilationCache()
    topo = machine.topology
    n = len(placements)
    batched = n > 1
    if batched:
        lift = lambda values: np.asarray(values, dtype=float)  # noqa: E731
        minimum = np.minimum
        maximum = np.maximum.reduce
        at = lambda x, p: float(x[p]) if isinstance(x, np.ndarray) else x  # noqa: E731
        zero = lambda: np.zeros(n)  # noqa: E731
    else:
        lift = lambda values: values[0]  # noqa: E731
        minimum = min
        maximum = max
        at = lambda x, p: x  # noqa: E731
        zero = lambda: 0.0  # noqa: E731

    # Per-placement geometry.
    threads_list: list[int] = []
    rank_domains_list: list[int] = []
    bw_share_list: list[float] = []
    wf_list: list[float] = []
    acpd_list: list[int] = []
    spill_list: list[float] = []
    for placement in placements:
        threads, rank_domains, bw_share = _rank_geometry(bench, machine, placement)
        work_fraction = (
            1.0 / placement.ranks
            if bench.parallel.uses_mpi and bench.scaling is ScalingKind.STRONG
            else 1.0
        )
        # Memory saturation is driven by ALL cores active on a domain
        # (ranks co-located on a CMG saturate it together; the rank's
        # bandwidth share then splits it).
        domains_used = placement.domains_used(topo)
        acpd = max(1, min(
            topo.cores_per_domain,
            -(-placement.total_cores_used // domains_used),
        ))
        threads_list.append(threads)
        rank_domains_list.append(rank_domains)
        bw_share_list.append(bw_share)
        wf_list.append(work_fraction)
        acpd_list.append(acpd)
        spill_list.append(numa_spill_penalty(placement, topo))

    # Compile each unit's kernel once; diagnostics accumulate in unit
    # order up to the first failed build.
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
    n_bounds = len(machine.cache_levels)
    wf = lift(wf_list)

    # Parallel nests run on the rank's threads and domains; serial nests
    # on one core, with the rank's bandwidth share.
    bw_share = lift(bw_share_list)
    bw_by_acpd = {a: machine.memory.bandwidth(a) for a in set(acpd_list)}
    par_threads = lift([float(max(1, t)) for t in threads_list])
    par_bandwidth = (
        lift([bw_by_acpd[a] for a in acpd_list])
        * lift([float(d) for d in rank_domains_list])
        * bw_share
    )
    par_numa = lift(spill_list)
    serial_bandwidth = machine.memory.bandwidth(1) * bw_share

    total = zero()
    compute_total = zero()
    memory_total = zero()
    unit_rows = []

    for unit, compiled in compiled_units:
        kernel = zero()
        library = zero()
        omp = zero()
        nest_rows = []
        if compiled is not None:
            for info in compiled.nest_infos:
                features = nest_features(info, machine, machine_key)
                if features.eliminated:
                    reports = [features.traffic_for(1)] * n
                    nest_rows.append((zero(), [zero()] * n_bounds, zero(), reports))
                else:
                    if info.parallel:
                        reports = [features.traffic_for(a) for a in acpd_list]
                        threads, bandwidth, numa = par_threads, par_bandwidth, par_numa
                    else:
                        reports = [features.traffic_for(1)] * n
                        threads, bandwidth, numa = 1.0, serial_bandwidth, 1.0
                    volumes = [
                        lift([r.boundaries[b].total_bytes for r in reports])
                        for b in range(n_bounds)
                    ]
                    exposed = lift([r.boundaries[-1].latency_exposed_fraction for r in reports])
                    cs, transfers, nest_total = features.times(
                        wf, threads, volumes, exposed, bandwidth, numa, minimum, maximum)
                    kernel = kernel + nest_total
                    compute_total = compute_total + cs * unit.invocations
                    memory_total = memory_total + transfers[-1] * unit.invocations
                    nest_rows.append((cs, transfers, nest_total, reports))
                # An eliminated parallel nest still forks its region.
                if info.parallel:
                    scaling_q = max(info.omp_scaling_quality, 1e-9)
                    omp = omp + lift([
                        omp_region_overhead_s(
                            info.omp_fork_us,
                            info.omp_barrier_us,
                            threads_list[p],
                            bench.barriers_per_invocation,
                        ) / scaling_q if threads_list[p] > 1 else 0.0
                        for p in range(n)
                    ])
            kernel = kernel * compiled.anomaly_multiplier
        if unit.library is not None:
            library = lift([
                library_time_s(
                    unit.library,
                    machine,
                    threads=placements[p].threads,
                    domains=rank_domains_list[p],
                    work_fraction=wf_list[p],
                )
                for p in range(n)
            ])
        unit_total = (kernel + library + omp) * unit.invocations
        total = total + unit_total
        unit_rows.append((
            unit.kernel.name if unit.kernel else "<library>",
            kernel, library, omp, nest_rows, unit.invocations,
        ))

    # A fully dead-code-eliminated ROI still measures the timer call and
    # loop shell; the paper's mvt cell is ">250,000x", not infinity.
    total = np.maximum(total, 2e-6) if batched else max(total, 2e-6)

    totals = [at(total, p) for p in range(n)]
    comm = [0.0] * n
    if bench.parallel.uses_mpi:
        for p, placement in enumerate(placements):
            if placement.ranks > 1:
                # The communication fraction is quoted against the
                # full-node work time; normalize this placement's
                # per-rank work time to node core-seconds so the
                # reference does not depend on the thread count.
                t_node_work = totals[p] * placement.total_cores_used / machine.total_cores
                comm[p] = bench.mpi.comm_time_s(t_node_work, placement.ranks)
                totals[p] += comm[p]

    diag = tuple(diagnostics)
    results = []
    for p, placement in enumerate(placements):
        units = []
        for name, kernel, library, omp, nest_rows, invocations in unit_rows:
            nest_times = tuple(
                NestTime(
                    compute_s=at(cs, p),
                    transfer_s=tuple(at(t, p) for t in transfers),
                    memory_s=at(transfers[-1], p),
                    total_s=at(nest_total, p),
                    traffic=reports[p],
                )
                for cs, transfers, nest_total, reports in nest_rows
            )
            units.append(
                UnitBreakdown(
                    kernel_name=name,
                    kernel_s=at(kernel, p) * invocations,
                    library_s=at(library, p) * invocations,
                    omp_overhead_s=at(omp, p) * invocations,
                    nest_times=nest_times,
                )
            )
        results.append(
            ModelResult(
                benchmark=bench.full_name,
                variant=variant,
                placement=placement,
                status=CompileStatus.OK,
                time_s=totals[p],
                compute_s=at(compute_total, p),
                memory_s=at(memory_total, p),
                comm_s=comm[p],
                units=tuple(units),
                diagnostics=diag,
            )
        )
    return tuple(results)


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
