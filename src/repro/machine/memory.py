"""Main-memory system models (HBM2 and DDR4).

A64FX attaches one 8 GiB HBM2 stack to each CMG at 256 GB/s peak
(1024 GB/s per node); the Xeon reference uses six DDR4-2666 channels.
The performance model needs three behaviours beyond peak numbers:

* **saturation** — a single core cannot draw full-domain bandwidth;
  sustained bandwidth grows concavely with active cores (BabelStream on
  A64FX saturates a CMG with ~6-8 cores);
* **stride sensitivity** — strided and indirect streams waste line
  transfers and defeat hardware prefetch;
* **latency exposure** — pointer-chasing streams see latency, not
  bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import MachineConfigError


@dataclass(frozen=True)
class MemorySystem:
    """One NUMA domain's memory interface."""

    name: str
    #: Peak bandwidth of one NUMA domain (bytes/s).
    peak_bandwidth: float
    #: Fraction of peak a fully-saturating streaming workload sustains
    #: (STREAM efficiency: ~0.83 for A64FX HBM2, ~0.80 for DDR4).
    stream_efficiency: float
    #: Idle load-to-use latency in seconds (HBM2 on A64FX is *higher*
    #: latency than DDR: ~130 ns).
    latency: float
    #: Cores needed to reach ~63% of sustained bandwidth (the ``k`` of
    #: the saturation curve bw(c) = sustained * c / (c + k - 1)).
    cores_to_half_saturation: float = 2.0

    def __post_init__(self) -> None:
        if self.peak_bandwidth <= 0:
            raise MachineConfigError(f"{self.name}: peak bandwidth must be positive")
        if not 0 < self.stream_efficiency <= 1:
            raise MachineConfigError(f"{self.name}: stream efficiency must be in (0,1]")
        if self.latency <= 0:
            raise MachineConfigError(f"{self.name}: latency must be positive")

    @property
    def sustained_bandwidth(self) -> float:
        """Best-case sustained streaming bandwidth of the domain (B/s)."""
        return self.peak_bandwidth * self.stream_efficiency

    def bandwidth(self, active_cores: int) -> float:
        """Sustained bandwidth drawn by ``active_cores`` cores (B/s).

        Concave saturation: one core gets ``1/(k)``-ish of sustained,
        many cores approach sustained.  Never exceeds sustained.
        """
        c = max(1, active_cores)
        k = max(self.cores_to_half_saturation, 1e-9)
        return self.sustained_bandwidth * c / (c + k - 1.0)

    def latency_bound_rate(
        self,
        concurrency: float,
        line_bytes: float,
        *,
        latency: "float | None" = None,
    ) -> float:
        """Bytes/s a latency-bound stream achieves given ``concurrency``
        outstanding cache lines of ``line_bytes`` each (Little's law).

        ``line_bytes`` comes from the machine model's cache geometry
        (``machine.line_bytes`` — 256 B on A64FX), never a hard-coded
        constant.  ``latency`` overrides the idle latency when
        the caller has already folded in TLB-walk penalties.
        """
        if concurrency <= 0:
            raise MachineConfigError("concurrency must be positive")
        if line_bytes <= 0:
            raise MachineConfigError("line_bytes must be positive")
        effective_latency = self.latency if latency is None else latency
        return concurrency * line_bytes / effective_latency
