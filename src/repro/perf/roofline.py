"""Roofline analysis of compiled kernels.

Complements the ECM model with the classic roofline view ([17] in the
paper analyzes A64FX streaming kernels this way): a kernel's achievable
performance is bounded by ``min(P_peak, AI * BW)`` where the arithmetic
intensity AI uses the *modelled* memory traffic (so compiler decisions
— loop order, tiling, streaming stores — move the kernel along the
roofline, which is the study's whole story).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.compilers.base import CodegenNestInfo
from repro.machine.machine import Machine
from repro.perf.ecm import nest_time


@dataclass(frozen=True)
class RooflinePoint:
    """One kernel's position against a machine's roofline."""

    kernel: str
    #: Flops per byte of modelled memory traffic.
    arithmetic_intensity: float
    #: Attainable flop/s at this AI (the roofline bound).
    attainable_flops: float
    #: Flop/s the full ECM model predicts.
    modelled_flops: float
    #: The machine's AI break-even point (peak / bandwidth).
    machine_balance: float

    @property
    def memory_bound(self) -> bool:
        return self.arithmetic_intensity < self.machine_balance

    @property
    def roofline_efficiency(self) -> float:
        """Modelled performance as a fraction of the roofline bound."""
        if self.attainable_flops <= 0:
            return 0.0
        return min(1.0, self.modelled_flops / self.attainable_flops)

    def __str__(self) -> str:
        side = "memory" if self.memory_bound else "compute"
        return (
            f"{self.kernel}: AI={self.arithmetic_intensity:.3f} F/B "
            f"({side}-bound side), attainable {self.attainable_flops / 1e9:.1f} GF/s, "
            f"modelled {self.modelled_flops / 1e9:.1f} GF/s "
            f"({self.roofline_efficiency:.0%} of roof)"
        )


def machine_balance(machine: Machine, *, cores: int | None = None) -> float:
    """Flops per byte at which the machine flips memory- to compute-bound."""
    cores = cores if cores is not None else machine.total_cores
    domains = max(1, min(machine.topology.numa_domains, -(-cores // machine.topology.cores_per_domain)))
    per_domain = max(1, cores // domains)
    peak = machine.core.peak_dp_flops * cores
    bw = machine.memory.bandwidth(per_domain) * domains
    return peak / bw


def roofline_point(
    info: CodegenNestInfo,
    machine: Machine,
    *,
    threads: int = 1,
    domains: int = 1,
) -> RooflinePoint:
    """Place one compiled nest on the machine's roofline."""
    nest = info.nest
    flops = nest.total_flops()
    t = nest_time(info, machine, threads=threads, domains=domains)
    mem_bytes = max(t.traffic.memory_bytes, 1e-9)
    ai = flops / mem_bytes

    per_domain = max(1, threads // max(domains, 1))
    bw = machine.memory.bandwidth(per_domain) * domains * info.memory_schedule_quality
    peak = machine.core.peak_dp_flops * threads
    attainable = min(peak, ai * bw)
    modelled = flops / t.total_s if t.total_s > 0 else 0.0

    return RooflinePoint(
        kernel=nest.label or "nest",
        arithmetic_intensity=ai,
        attainable_flops=attainable,
        modelled_flops=modelled,
        machine_balance=machine_balance(machine, cores=threads),
    )


def roofline_table(
    points: "list[RooflinePoint]", machine: Machine
) -> str:
    """ASCII roofline summary for a set of kernels."""
    lines = [
        f"Roofline on {machine.name}: peak {machine.peak_dp_flops_node / 1e12:.2f} TF/s, "
        f"balance {machine_balance(machine):.2f} F/B",
        f"{'kernel':24s} {'AI (F/B)':>10s} {'roof (GF/s)':>12s} {'model (GF/s)':>13s} {'of roof':>8s}",
    ]
    for p in sorted(points, key=lambda x: x.arithmetic_intensity):
        lines.append(
            f"{p.kernel:24s} {p.arithmetic_intensity:10.3f} "
            f"{p.attainable_flops / 1e9:12.1f} {p.modelled_flops / 1e9:13.1f} "
            f"{p.roofline_efficiency:8.0%}"
        )
    return "\n".join(lines)
