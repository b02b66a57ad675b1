"""Top-level benchmark cost model.

Takes a :class:`~repro.suites.base.Benchmark`, a compiler variant, a
machine, and a :class:`~repro.machine.topology.Placement`, and produces
the *ideal* (noise-free) region-of-interest time plus a breakdown.  The
harness (:mod:`repro.harness`) layers the measurement methodology —
exploration sweeps, repeated runs, noise — on top.
"""

from __future__ import annotations

import hashlib
import json
import logging
import pickle
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path

from repro import telemetry
from repro.atomicio import atomic_write
from repro.compilers.base import CompiledKernel, CompileStatus
from repro.compilers.flags import CompilerFlags
from repro.compilers.registry import compile_kernel
from repro.errors import HarnessError
from repro.faults.taxonomy import SITE_KERNEL_CACHE

_LOG = logging.getLogger(__name__)
from repro.libs.mathlib import library_time_s
from repro.machine.machine import Machine
from repro.machine.topology import Placement
from repro.perf.ecm import NestTime, nest_time
from repro.perf.scaling import numa_spill_penalty, omp_region_overhead_s
from repro.suites.base import Benchmark, ParallelKind, ScalingKind


@dataclass(frozen=True)
class UnitBreakdown:
    """Timing detail for one work unit."""

    kernel_name: str
    kernel_s: float
    library_s: float
    omp_overhead_s: float
    nest_times: tuple[NestTime, ...] = ()


@dataclass(frozen=True)
class ModelResult:
    """Noise-free model output for one (benchmark, variant, placement)."""

    benchmark: str
    variant: str
    placement: Placement
    status: CompileStatus
    #: Ideal ROI time in seconds (inf for failed builds/runs).
    time_s: float
    compute_s: float = 0.0
    memory_s: float = 0.0
    comm_s: float = 0.0
    units: tuple[UnitBreakdown, ...] = ()
    diagnostics: tuple[str, ...] = ()

    @property
    def valid(self) -> bool:
        return self.status is CompileStatus.OK


#: Bump when the compiler/cost model changes in a way that invalidates
#: persisted compilation artifacts (content-addressed cache entries).
#: 2: CompiledKernel grew the ``lint`` field (static-analysis findings).
#: 3: lint findings now include the cross-compiler divergence rules
#:    (DIV001-DIV005), so cached ``lint`` tuples are incomplete.
CACHE_SCHEMA_VERSION = 3


def kernel_fingerprint(kernel: object) -> str:
    """Stable content hash of a kernel's IR (hex digest).

    Two independently-built kernels with identical IR hash identically;
    the fingerprint survives pickling/process boundaries (unlike
    ``id()``), which makes it usable as a persistent cache key.
    """
    from repro.ir.serialize import kernel_to_dict

    doc = kernel_to_dict(kernel)  # type: ignore[arg-type]
    canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def machine_fingerprint(machine: Machine) -> str:
    """Stable content hash of a machine model's configuration."""
    # Machine is a frozen dataclass tree of plain values; its repr is
    # deterministic and content-complete.
    return hashlib.sha256(repr(machine).encode()).hexdigest()


#: Identity-pinned LRU of machine content keys.  Machine factories
#: (a64fx() & co.) build a fresh frozen instance per call, so bare
#: id() keys would miss across sessions while re-hashing the repr on
#: every lookup would cost more than the model evaluation it guards.
_MACHINE_KEYS: "OrderedDict[int, tuple[Machine, str]]" = OrderedDict()
_MACHINE_KEYS_MAX = 64


def machine_memo_key(machine: Machine) -> str:
    """Content key for a machine instance, memoized by identity."""
    memo = _MACHINE_KEYS.get(id(machine))
    if memo is not None and memo[0] is machine:
        _MACHINE_KEYS.move_to_end(id(machine))
        return memo[1]
    key = f"{machine.name}:{machine_fingerprint(machine)}"
    _MACHINE_KEYS[id(machine)] = (machine, key)
    if len(_MACHINE_KEYS) > _MACHINE_KEYS_MAX:
        _MACHINE_KEYS.popitem(last=False)
    return key


#: Process-global memo of compilations.  Compilation is deterministic,
#: so equal inputs always produce an equal CompiledKernel; memoizing at
#: the compile_kernel() call site means per-cache counters
#: (compile_count, disk_hits, fault_misses) keep their semantics — only
#: the redundant compilation *work* is skipped.  Keys pin the kernel
#: object so ids cannot be recycled while an entry lives.
_COMPILE_MEMO: "OrderedDict[tuple, tuple[object, CompiledKernel]]" = OrderedDict()
_COMPILE_MEMO_MAX = 2048


def _memoized_compile(
    variant: str,
    kernel: object,
    machine: Machine,
    flags: "CompilerFlags | None",
) -> CompiledKernel:
    # The flight recorder traces compile/lint spans from inside
    # compile_kernel(); a memo hit would silently drop them and make the
    # span population depend on what ran earlier in the process.  Trace
    # fidelity wins over speed whenever telemetry is active.
    if telemetry.current() is not None:
        return compile_kernel(variant, kernel, machine, flags)  # type: ignore[arg-type]
    key = (variant, id(kernel), machine_memo_key(machine), flags)
    memo = _COMPILE_MEMO.get(key)
    if memo is not None and memo[0] is kernel:
        _COMPILE_MEMO.move_to_end(key)
        return memo[1]
    compiled = compile_kernel(variant, kernel, machine, flags)  # type: ignore[arg-type]
    _COMPILE_MEMO[key] = (kernel, compiled)
    if len(_COMPILE_MEMO) > _COMPILE_MEMO_MAX:
        _COMPILE_MEMO.popitem(last=False)
    return compiled


def compilation_cache_key(
    variant: str,
    kernel: object,
    machine: Machine,
    flags: CompilerFlags | None,
) -> str:
    """Content-addressed key for one (variant, kernel, machine, flags)
    compilation: equal inputs give equal keys across processes and
    sessions, any change to an input changes the key."""
    parts = (
        f"compile|v{CACHE_SCHEMA_VERSION}",
        variant,
        kernel_fingerprint(kernel),
        machine.name,
        machine_fingerprint(machine),
        repr(flags),
    )
    return hashlib.sha256("|".join(parts).encode()).hexdigest()


class CompilationCache:
    """Memoizes (variant, kernel, machine, flags) -> CompiledKernel.

    A campaign compiles each kernel once per variant but costs it under
    dozens of placements; this cache keeps the exploration phase fast.

    With ``persist_dir`` set, compiled kernels are additionally stored
    on disk under their :func:`compilation_cache_key`, so later runs
    (and sibling worker processes) skip recompilation of unchanged
    kernels.  Writes are atomic (temp file + rename); unreadable or
    stale entries are recompiled and rewritten.

    With an ``injector`` attached (chaos runs), a
    :class:`~repro.faults.plan.FaultRule` aimed at the ``kernel-cache``
    site makes a disk lookup behave as if the entry had rotted away:
    the kernel is recompiled (and re-persisted) instead.  Compilation
    is deterministic, so records never change — only the work done.
    """

    def __init__(
        self,
        persist_dir: "str | Path | None" = None,
        injector: "object | None" = None,
    ) -> None:
        #: Both tables are keyed on id(kernel) and pin the kernel, so an
        #: id cannot be recycled by another kernel while an entry lives.
        self._cache: dict[tuple, tuple[object, CompiledKernel]] = {}
        #: Stable fingerprint memo (fingerprinting walks the whole IR;
        #: do it once per kernel object).
        self._stable_keys: dict[tuple, tuple[object, str]] = {}
        self.persist_dir = Path(persist_dir) if persist_dir is not None else None
        if self.persist_dir is not None:
            self.persist_dir.mkdir(parents=True, exist_ok=True)
        #: A :class:`~repro.faults.plan.FaultInjector` (or ``None``)
        #: consulted at the ``kernel-cache`` site before disk reads.
        self.injector = injector
        self.compile_count = 0
        self.memory_hits = 0
        self.disk_hits = 0
        self.fault_misses = 0

    def _disk_path(self, stable_key: str) -> Path:
        assert self.persist_dir is not None
        return self.persist_dir / f"{stable_key}.pkl"

    def get(
        self,
        variant: str,
        kernel: object,
        machine: Machine,
        flags: CompilerFlags | None,
    ) -> CompiledKernel:
        key = (variant, id(kernel), machine.name, flags)
        hit = self._cache.get(key)
        if hit is not None and hit[0] is kernel:
            self.memory_hits += 1
            telemetry.count("kernel_cache.memory_hit")
            return hit[1]
        stable = None
        if self.persist_dir is not None:
            memo = self._stable_keys.get(key)
            if memo is not None and memo[0] is kernel:
                stable = memo[1]
            else:
                stable = compilation_cache_key(variant, kernel, machine, flags)
                self._stable_keys[key] = (kernel, stable)
            path = self._disk_path(stable)
            if self._kernel_cache_fault(variant, kernel):
                # Injected kernel-cache loss (simulated scratch-file
                # rot): skip the disk entry and recompile below.  The
                # compile is deterministic, so this costs work, never
                # correctness.
                self.fault_misses += 1
                telemetry.count("kernel_cache.fault")
                telemetry.count("faults.injected")
                telemetry.count(f"faults.site.{SITE_KERNEL_CACHE}")
            else:
                try:
                    with open(path, "rb") as fh:
                        compiled = pickle.load(fh)
                    self.disk_hits += 1
                    telemetry.count("kernel_cache.disk_hit")
                    self._cache[key] = (kernel, compiled)
                    return compiled
                except (OSError, pickle.PickleError, EOFError, AttributeError):
                    pass  # missing or unreadable entry: recompile below
        compiled = _memoized_compile(variant, kernel, machine, flags)
        self.compile_count += 1
        telemetry.count("kernel_cache.compile")
        self._cache[key] = (kernel, compiled)
        if stable is not None:
            self._persist(stable, compiled)
        return compiled

    def _kernel_cache_fault(self, variant: str, kernel: object) -> bool:
        """Did the plan inject a kernel-cache fault for this lookup?"""
        if self.injector is None:
            return False
        name = getattr(kernel, "name", "") or ""
        return (
            self.injector.decide(SITE_KERNEL_CACHE, name, variant, 0)
            is not None
        )

    def _persist(self, stable_key: str, compiled: CompiledKernel) -> None:
        path = self._disk_path(stable_key)
        try:
            atomic_write(path, pickle.dumps(compiled))
        except OSError as exc:
            # A failed persist only costs a recompile next session.
            _LOG.warning("kernel-cache write to %s failed: %s", path, exc)
            telemetry.count("kernel_cache.write_error")


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


def benchmark_model(
    bench: Benchmark,
    variant: str,
    machine: Machine,
    placement: Placement,
    *,
    flags: CompilerFlags | None = None,
    cache: CompilationCache | None = None,
) -> ModelResult:
    """Ideal ROI time for one benchmark/variant/placement combination."""
    if bench.parallel is ParallelKind.SERIAL and placement.total_cores_used > 1:
        raise HarnessError(f"{bench.full_name} is serial; placement {placement} invalid")
    if not bench.parallel.uses_mpi and placement.ranks > 1:
        raise HarnessError(f"{bench.full_name} has no MPI; placement {placement} invalid")
    if bench.pow2_ranks and placement.ranks & (placement.ranks - 1):
        raise HarnessError(f"{bench.full_name} requires power-of-two ranks")

    cache = cache if cache is not None else CompilationCache()
    threads, rank_domains, bw_share = _rank_geometry(bench, machine, placement)
    work_fraction = (
        1.0 / placement.ranks
        if bench.parallel.uses_mpi and bench.scaling is ScalingKind.STRONG
        else 1.0
    )
    # Memory saturation is driven by ALL cores active on a domain (ranks
    # co-located on a CMG saturate it together; bw_share then splits it).
    domains_used = placement.domains_used(machine.topology)
    acpd = max(1, min(
        machine.topology.cores_per_domain,
        -(-placement.total_cores_used // domains_used),
    ))
    spill = numa_spill_penalty(placement, machine.topology)

    total = 0.0
    compute_total = 0.0
    memory_total = 0.0
    units: list[UnitBreakdown] = []
    diagnostics: list[str] = []

    for unit in bench.units:
        kernel_s = 0.0
        library_s = 0.0
        omp_s = 0.0
        nest_times: list[NestTime] = []
        if unit.kernel is not None:
            compiled = cache.get(variant, unit.kernel, machine, flags)
            diagnostics.extend(compiled.diagnostics)
            if compiled.status is not CompileStatus.OK:
                return ModelResult(
                    benchmark=bench.full_name,
                    variant=variant,
                    placement=placement,
                    status=compiled.status,
                    time_s=float("inf"),
                    diagnostics=tuple(diagnostics),
                )
            for info in compiled.nest_infos:
                nest_threads = threads if info.parallel else 1
                nt = nest_time(
                    info,
                    machine,
                    threads=nest_threads,
                    active_cores_per_domain=acpd if info.parallel else 1,
                    domains=rank_domains if info.parallel else 1,
                    work_fraction=work_fraction,
                    bandwidth_share=bw_share,
                    numa_penalty=spill if info.parallel else 1.0,
                )
                kernel_s += nt.total_s
                nest_times.append(nt)
                compute_total += nt.compute_s * unit.invocations
                memory_total += nt.memory_s * unit.invocations
                if info.parallel and nest_threads > 1:
                    omp_s += omp_region_overhead_s(
                        info.omp_fork_us,
                        info.omp_barrier_us,
                        nest_threads,
                        bench.barriers_per_invocation,
                    ) / max(info.omp_scaling_quality, 1e-9)
            kernel_s *= compiled.anomaly_multiplier
        if unit.library is not None:
            library_s = library_time_s(
                unit.library,
                machine,
                threads=placement.threads,
                domains=rank_domains,
                work_fraction=work_fraction,
            )
        unit_total = (kernel_s + library_s + omp_s) * unit.invocations
        total += unit_total
        units.append(
            UnitBreakdown(
                kernel_name=unit.kernel.name if unit.kernel else "<library>",
                kernel_s=kernel_s * unit.invocations,
                library_s=library_s * unit.invocations,
                omp_overhead_s=omp_s * unit.invocations,
                nest_times=tuple(nest_times),
            )
        )

    # A fully dead-code-eliminated ROI still measures the timer call and
    # loop shell; the paper's mvt cell is ">250,000x", not infinity.
    total = max(total, 2e-6)

    comm_s = 0.0
    if bench.parallel.uses_mpi and placement.ranks > 1:
        # The communication fraction is quoted against the full-node
        # work time; normalize this placement's per-rank work time to
        # node core-seconds so the reference does not depend on the
        # thread count chosen here.
        t_node_work = total * placement.total_cores_used / machine.total_cores
        comm_s = bench.mpi.comm_time_s(t_node_work, placement.ranks)
        total += comm_s

    return ModelResult(
        benchmark=bench.full_name,
        variant=variant,
        placement=placement,
        status=CompileStatus.OK,
        time_s=total,
        compute_s=compute_total,
        memory_s=memory_total,
        comm_s=comm_s,
        units=tuple(units),
        diagnostics=tuple(diagnostics),
    )
