"""Node topology and rank/thread placement.

A64FX nodes group 12 compute cores and one HBM2 stack into a Core
Memory Group (CMG); four CMGs make a node.  The recommended usage model
the paper interrogates is one MPI rank per CMG with 12 OpenMP threads.
Fujitsu's MPI maps ranks to CMGs when jobs are submitted with
``--mpi max-proc-per-node``; :class:`Placement` reproduces that mapping
and exposes the quantities the performance model needs (active cores
per NUMA domain, cross-domain traffic fractions).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import MachineConfigError, PlacementError


@dataclass(frozen=True)
class Topology:
    """Compute-node topology."""

    name: str
    numa_domains: int
    cores_per_domain: int

    def __post_init__(self) -> None:
        if self.numa_domains <= 0 or self.cores_per_domain <= 0:
            raise MachineConfigError(f"{self.name}: domains and cores must be positive")

    @property
    def total_cores(self) -> int:
        return self.numa_domains * self.cores_per_domain


@dataclass(frozen=True)
class Placement:
    """One MPI x OpenMP configuration mapped onto a node.

    ``ranks`` MPI ranks, each running ``threads`` OpenMP threads.  The
    mapper packs ranks onto NUMA domains round-robin the way Fujitsu's
    ``max-proc-per-node`` policy does: ranks spread across domains, and
    a rank's threads stay within its domain whenever they fit.
    """

    ranks: int
    threads: int

    def __post_init__(self) -> None:
        if self.ranks <= 0 or self.threads <= 0:
            raise MachineConfigError("ranks and threads must be positive")

    @property
    def total_cores_used(self) -> int:
        return self.ranks * self.threads

    def validate(self, topo: Topology) -> None:
        if self.total_cores_used > topo.total_cores:
            raise PlacementError(
                f"{self.ranks}x{self.threads} needs {self.total_cores_used} cores; "
                f"{topo.name} has {topo.total_cores}"
            )

    def fits(self, topo: Topology) -> bool:
        try:
            self.validate(topo)
        except PlacementError:
            return False
        return True

    def domains_used(self, topo: Topology) -> int:
        """NUMA domains with at least one active core under this placement."""
        self.validate(topo)
        if self.ranks >= topo.numa_domains:
            return topo.numa_domains
        # Fewer ranks than domains: each rank claims consecutive domains
        # for its threads if they overflow one domain.
        domains_per_rank = -(-self.threads // topo.cores_per_domain)  # ceil
        return min(topo.numa_domains, self.ranks * domains_per_rank)

    def active_cores_per_domain(self, topo: Topology) -> float:
        """Average busy cores per *used* NUMA domain."""
        used = self.domains_used(topo)
        return self.total_cores_used / used

    def spans_domains(self, topo: Topology) -> bool:
        """True when a single rank's threads straddle NUMA domains —
        the case where first-touch placement and page interleaving start
        to matter (a classic "legacy application" pitfall the paper's
        conclusion alludes to)."""
        return self.threads > topo.cores_per_domain

    def __str__(self) -> str:
        return f"{self.ranks}x{self.threads}"


def candidate_placements(
    topo: Topology,
    *,
    pow2_ranks_only: bool = False,
    max_total: int | None = None,
) -> tuple[Placement, ...]:
    """The MPI x OMP grid the exploration phase sweeps (Sec. 2.4).

    Generates every (ranks, threads) with ranks in {1, 2, 4, ...,
    domains*cores} and threads filling up to one rank's share, filtered
    to placements that fit the node.  ``pow2_ranks_only`` models codes
    like SWFFT that require power-of-two ranks.
    """
    total = topo.total_cores if max_total is None else min(max_total, topo.total_cores)
    ranks_options = []
    r = 1
    while r <= total:
        ranks_options.append(r)
        r *= 2
    # Also the natural per-domain counts (4 ranks on A64FX) and total.
    for extra in (topo.numa_domains, total):
        if extra not in ranks_options and extra <= total:
            ranks_options.append(extra)
    out: list[Placement] = []
    seen: set[tuple[int, int]] = set()
    for ranks in sorted(ranks_options):
        if pow2_ranks_only and ranks & (ranks - 1):
            continue
        max_threads = total // ranks
        t = 1
        thread_options = set()
        while t <= max_threads:
            thread_options.add(t)
            t *= 2
        thread_options.add(max_threads)
        if topo.cores_per_domain <= max_threads:
            thread_options.add(topo.cores_per_domain)
        for threads in sorted(thread_options):
            if threads < 1:
                continue
            p = Placement(ranks, threads)
            if (ranks, threads) not in seen and p.fits(topo):
                seen.add((ranks, threads))
                out.append(p)
    return tuple(out)
