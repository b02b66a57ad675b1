"""Execution-Cache-Memory (ECM) style cost model.

Combines, for one compiled nest on one machine:

* **in-core execution time** — FP/integer/branch instruction streams
  through the port model of :class:`repro.machine.core.CoreModel`,
  scaled by the codegen annotations (vector width and efficiency, FMA
  contraction, gathers, unrolling vs. out-of-order quality, scalar
  code quality);
* **data transfer time** — the per-boundary byte volumes from
  :mod:`repro.perf.traffic` over the level bandwidths, with the
  latency-exposed fraction of memory traffic rated at a
  concurrency-limited rate instead of the bandwidth limit.

The nest time is the ECM-style max of the compute and transfer times
(modern cores overlap them), inflated by runtime-check overhead.

:class:`NestFeatures` holds the placement-independent half of a nest's
time and :meth:`NestFeatures.times` the placement-dependent half, for
one placement.  :func:`nest_time` and the placement evaluator
(:mod:`repro.perf.batch`) both go through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.compilers.base import CodegenNestInfo
from repro.ir.statement import OpCount
from repro.machine.machine import Machine
from repro.perf.traffic import TrafficReport, TrafficTable


@dataclass(frozen=True)
class NestTime:
    """Timing breakdown for one execution of one nest."""

    compute_s: float
    transfer_s: tuple[float, ...]  # per boundary, L1<->L2 first
    memory_s: float  # the last boundary (DRAM/HBM), for reports
    total_s: float
    traffic: TrafficReport

    @property
    def bound(self) -> str:
        """"compute" or "memory" — which side dominates."""
        slowest_transfer = max(self.transfer_s, default=0.0)
        return "compute" if self.compute_s >= slowest_transfer else "memory"


def _body_ops(info: CodegenNestInfo) -> OpCount:
    total = OpCount()
    for stmt in info.nest.body:
        total = total + stmt.ops
    return total


def cycles_per_iteration(info: CodegenNestInfo, machine: Machine) -> float:
    """In-core cycles per innermost iteration point of the nest."""
    core = machine.core
    ops = _body_ops(info)

    lanes = info.vec_lanes if info.vectorized else 1
    vec_eff = info.vec_efficiency if info.vectorized else 1.0

    # --- FP pipeline ------------------------------------------------------
    fp_instr = (
        ops.fp_instructions if info.fma_contracted else ops.fp_instructions_uncontracted
    )
    fp_simple = max(0.0, fp_instr - ops.fdiv - ops.fsqrt - ops.fspecial)
    fp_cycles = fp_simple / (lanes * core.fp_pipes * vec_eff) if fp_simple else 0.0
    # Divide/sqrt/special are unpipelined-ish.  The per-op latencies in
    # the core model are quoted for a full native-width vector; narrower
    # (in particular scalar) versions are faster, roughly with the
    # square root of the width ratio.
    dtype = info.dominant_dtype
    width_ratio = min(1.0, (lanes * dtype.size * 8) / core.fp_pipe_bits)
    slow_scale = math.sqrt(width_ratio)
    fp_cycles += ops.fdiv * core.fdiv_cycles * slow_scale / lanes
    fp_cycles += ops.fsqrt * core.fsqrt_cycles * slow_scale / lanes
    fp_cycles += (
        ops.fspecial
        * core.fspecial_cycles
        * slow_scale
        / (lanes * max(info.math_library_quality, 1e-9))
    )

    # --- load/store issue --------------------------------------------------
    n_loads = sum(1 for a in info.nest.accesses if a.kind.reads)
    n_stores = sum(1 for a in info.nest.accesses if a.kind.writes)
    ls_cycles = (
        n_loads / (lanes * core.load_ports) + n_stores / (lanes * core.store_ports)
    ) / max(vec_eff, 1e-9) if (n_loads or n_stores) else 0.0
    # Gathers serialize element by element.
    if info.uses_gather:
        n_indirect = sum(1 for a in info.nest.accesses if a.indirect)
        ls_cycles += n_indirect * info.vector_isa.gather_cost_per_element

    # --- integer / branch --------------------------------------------------
    int_cycles = ops.iops / (core.int_pipes * (lanes if info.vectorized else 1))
    branch_cycles = ops.branches * (1.0 + 0.05 * core.branch_miss_penalty)

    cycles = max(fp_cycles, ls_cycles) + int_cycles + branch_cycles

    # --- scheduling quality -----------------------------------------------
    # Vector streams are easy to schedule; scalar dependency chains
    # expose the core's OoO depth, partially recovered by unrolling.
    if info.vectorized:
        sched = min(1.0, 0.25 + 0.75 * core.ooo_quality + 0.05 * math.log2(max(info.unroll_factor, 1)))
    else:
        sched = min(1.0, core.ooo_quality + 0.07 * math.log2(max(info.unroll_factor, 1)))
        cycles /= max(info.scalar_quality, 1e-9)
    cycles /= max(sched, 1e-9)

    # Loop control overhead (decrement/compare/branch per iteration,
    # amortized by unrolling and vector width).
    cycles += 1.0 / (max(info.unroll_factor, 1) * lanes)

    return cycles


class NestFeatures:
    """The placement-independent half of one nest's ECM time.

    In-core cycles per iteration, the latency-bound memory rate per
    core, and the nest's :class:`~repro.perf.traffic.TrafficTable`.
    :meth:`times` adds one placement's thread count, bandwidth and
    traffic report.
    """

    __slots__ = (
        "info", "machine", "iterations", "eliminated", "empty", "cpi",
        "irr_rate_per_core", "one_plus_rco", "table",
    )

    def __init__(self, info: CodegenNestInfo, machine: Machine) -> None:
        self.info = info
        self.machine = machine
        self.iterations = info.nest.iterations
        self.eliminated = info.eliminated
        self.empty = info.eliminated or info.nest.iterations == 0
        self.one_plus_rco = 1.0 + info.runtime_check_overhead
        self.table = TrafficTable(info, machine)
        if self.eliminated:
            # An eliminated nest costs nothing; its annotations may be
            # incomplete, so none of them is read.
            self.cpi = 0.0
            self.irr_rate_per_core = 0.0
            return
        self.cpi = cycles_per_iteration(info, machine)

        # Latency-exposed streams run at a concurrency-limited rate:
        # outstanding lines per core set by the hardware MSHRs plus
        # software prefetch coverage — unless each miss's address
        # depends on the previous one (dependent-load chains), which
        # serializes everything.
        if info.latency_serialized:
            concurrency = 1.3
        else:
            prefetch = max(info.sw_prefetch, machine.hw_prefetch_quality * 0.3)
            concurrency = 4.0 + 28.0 * prefetch
        # Scattered streams also miss the TLB; huge pages
        # (-Klargepage) remove the page-walk latency add-on.
        latency = machine.memory.latency
        if not info.large_pages:
            latency *= 1.0 + 12e-9 / machine.memory.latency * (
                65536 / max(machine.base_page_bytes, 4096)
            ) * 0.25
        self.irr_rate_per_core = machine.memory.latency_bound_rate(
            concurrency, machine.line_bytes, latency=latency
        )

    def traffic_for(self, active_cores_per_domain: int) -> TrafficReport:
        """The nest's traffic report for one active-core count (memoized)."""
        return self.table.report(active_cores_per_domain)

    def times(
        self,
        work_fraction: float,
        threads: float,
        traffic: TrafficReport,
        bandwidth: float,
        numa_penalty: float,
    ) -> NestTime:
        """One execution of the nest under one placement.

        ``traffic`` is the nest's report for the placement's active
        cores per domain (:meth:`traffic_for`); ``bandwidth`` is the
        memory bandwidth this rank's threads get, before the compiler's
        memory-schedule quality.
        """
        if self.eliminated:
            zeros = (0.0,) * len(traffic.boundaries)
            return NestTime(0.0, zeros, 0.0, 0.0, traffic)
        machine = self.machine
        frequency = machine.core.frequency_hz
        compute = self.iterations * work_fraction * self.cpi / frequency / threads
        transfers = []
        *caches, memory = traffic.boundaries
        for level, boundary in zip(machine.cache_levels[1:], caches):
            per_core = level.bytes_per_cycle_per_core * frequency
            transfers.append(boundary.total_bytes * work_fraction / (per_core * threads))
        volume = memory.total_bytes * work_fraction
        exposed = memory.latency_exposed_fraction
        bw = bandwidth * self.info.memory_schedule_quality
        t = volume * (1.0 - exposed) / bw
        t = t + volume * exposed / min(self.irr_rate_per_core * threads, bw)
        # A rank straddling NUMA domains slows its whole memory path.
        transfers.append(t * numa_penalty)
        total = max(compute, *transfers) * self.one_plus_rco
        return NestTime(compute, tuple(transfers), transfers[-1], total, traffic)


def nest_time(
    info: CodegenNestInfo,
    machine: Machine,
    *,
    threads: int = 1,
    active_cores_per_domain: int | None = None,
    domains: int = 1,
    work_fraction: float = 1.0,
    bandwidth_share: float = 1.0,
    numa_penalty: float = 1.0,
) -> NestTime:
    """Wall-clock model for one execution of a compiled nest.

    ``threads`` — cores working on this nest (1 for serial nests);
    ``domains`` — NUMA domains those cores span;
    ``work_fraction`` — this rank's share of the nest's iteration space
    (strong scaling across MPI ranks);
    ``bandwidth_share`` — fraction of the spanned domains' memory
    bandwidth available to this rank (ranks co-located on a domain
    split it);
    ``numa_penalty`` — multiplier (>= 1) on memory-transfer time when a
    rank's threads straddle NUMA domains (first-touch pages remote to
    most threads).
    """
    threads = max(1, threads)
    if active_cores_per_domain is None:
        active_cores_per_domain = max(1, threads // max(domains, 1))
    # Not memoized: static advice builds a fresh info per call, and its
    # entries would evict the campaign's from the feature memo.
    features = NestFeatures(info, machine)
    return features.times(
        work_fraction,
        threads,
        features.traffic_for(active_cores_per_domain),
        machine.memory.bandwidth(active_cores_per_domain) * domains * bandwidth_share,
        numa_penalty,
    )
