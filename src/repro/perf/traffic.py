"""Analytic cache-traffic model.

Estimates, for one compiled loop nest, the bytes crossing each boundary
of the cache hierarchy (L1<->L2, L2<->memory, ...), using the classic
working-set / reuse-distance argument:

* the data touched by the loops at depth >= ``d`` is
  :func:`repro.ir.analysis.working_set_bytes`;
* a cache level captures all reuse carried by loop ``d-1`` iff that
  working set fits its (sharing-adjusted) capacity;
* an access is then refetched once per iteration of every *outer* loop
  whose variable it does not depend on, times its distinct lines.

Spatial granularity: contiguous streams move ``element`` bytes per
element; strided streams waste up to a full line per element (A64FX's
256 B lines make this brutal — 32x amplification on stride-N
double-precision streams, the Figure 1 mechanism); indirect streams pay
one line per element.

Tiling (from Polly) is modelled by dividing each refetch multiplier by
the tile's blocking factor, floored at the compulsory traffic.

The test suite cross-validates these estimates against the trace-based
:class:`repro.machine.cache.SetAssociativeCache` on small kernels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.compilers.base import CodegenNestInfo
from repro.ir.array import Access
from repro.ir.loop import LoopNest
from repro.ir.types import AccessKind
from repro.machine.machine import Machine


@dataclass(frozen=True)
class BoundaryTraffic:
    """Bytes crossing one hierarchy boundary during the whole nest."""

    #: Name of the level the data comes *from* ("L2", "memory", ...).
    source: str
    read_bytes: float
    write_bytes: float
    #: True when some of this boundary's read traffic is latency-bound
    #: (irregular streams that defeat prefetch).
    latency_exposed_fraction: float = 0.0

    @property
    def total_bytes(self) -> float:
        return self.read_bytes + self.write_bytes


@dataclass(frozen=True)
class TrafficReport:
    """Per-boundary traffic for one nest execution."""

    boundaries: tuple[BoundaryTraffic, ...]

    @property
    def memory_bytes(self) -> float:
        return self.boundaries[-1].total_bytes

    def boundary(self, source: str) -> BoundaryTraffic:
        for b in self.boundaries:
            if b.source == source:
                return b
        raise KeyError(source)


def _bytes_per_distinct_element(
    access: Access, captured_vars: frozenset[str], line_bytes: int
) -> float:
    """Bytes a cache boundary moves per distinct element of one access.

    Spatial locality can be exploited along *any* loop whose reuse the
    level captures (``captured_vars``), not just the innermost one: in
    an i-j-k matmul the strided ``B[k][j]`` stream still enjoys unit
    stride along ``j`` provided the k-column's lines survive in cache
    between ``j`` iterations.  The density is set by the smallest
    captured stride; with no captured small stride every element costs
    a full line.
    """
    elem = access.array.dtype.size
    if access.indirect:
        return float(line_bytes)  # every element on its own (random) line
    strides = [
        abs(access.byte_stride(v)) for v in (access.variables & captured_vars)
    ]
    strides = [s for s in strides if s > 0]
    if not strides:
        strides = [abs(access.byte_stride(v)) for v in access.variables]
        strides = [s for s in strides if s > 0] or [elem]
    return float(min(max(min(strides), elem), line_bytes))


def _distinct_elements(access: Access, var_subset: frozenset[str], trips: dict[str, int]) -> float:
    if access.indirect:
        return float(access.array.elements)
    n = 1.0
    for v in access.variables & var_subset:
        n *= max(trips.get(v, 1), 1)
    return min(n, float(access.array.elements))


def _resident_ws_profile(nest: LoopNest, line_bytes: int) -> tuple[float, ...]:
    """Line-granular working set at every loop depth.

    A cache must hold whole *lines*: a strided stream's resident
    footprint is its distinct lines times the line size, which can be
    32x its element footprint on A64FX's 256-byte lines.  This is the
    quantity the layer-condition fit test must use (the element-level
    :func:`repro.ir.analysis.working_set_bytes` underestimates it).
    """
    trips = {l.var: l.trip_count for l in nest.loops}
    profile: list[float] = []
    for depth in range(nest.depth):
        inner = frozenset(l.var for l in nest.loops[depth:])
        per_array: dict[str, float] = {}
        for acc in nest.accesses:
            distinct = _distinct_elements(acc, inner, trips)
            residency = _bytes_per_distinct_element(acc, inner, line_bytes)
            nbytes = distinct * residency
            per_array[acc.array.name] = max(per_array.get(acc.array.name, 0.0), nbytes)
        profile.append(sum(per_array.values()))
    return tuple(profile)


#: Fraction of a cache's capacity usable by one nest's working set
#: before conflict misses and unrelated data break the layer condition
#: (the usual layer-condition safety factor).
CAPACITY_SLACK = 0.5


def _fit_depth(ws_profile: "tuple[float, ...]", capacity: int) -> int:
    """Smallest loop depth whose inner working set fits ``capacity``
    (after the layer-condition slack).

    Returns ``len(ws_profile)`` when not even the innermost loop's data
    fits (every iteration streams).
    """
    usable = capacity * CAPACITY_SLACK
    for d, ws in enumerate(ws_profile):
        if ws <= usable:
            return d
    return len(ws_profile)


def _misses_beyond(
    access: Access,
    nest: LoopNest,
    fit_depth: int,
    trips: dict[str, int],
    block_factor: float,
) -> float:
    """Distinct-element fetches that go past a level with ``fit_depth``.

    Reuse across iterations of loop ``l`` survives in the cache iff the
    data touched by one iteration of ``l``'s body (``ws(l+1)``) fits,
    i.e. iff ``l >= fit_depth - 1``.  Loops strictly outer than that
    (depth < fit_depth - 1) refetch the access's data on every
    iteration when the access does not depend on them.
    """
    loop_vars = nest.loop_vars
    outer_independent = 1.0
    for depth in range(min(fit_depth - 1, nest.depth)):
        v = loop_vars[depth]
        if not access.indirect and v not in access.variables:
            outer_independent *= max(trips.get(v, 1), 1)
    if block_factor > 1.0:
        outer_independent = max(1.0, outer_independent / block_factor)
    distinct = _distinct_elements(access, frozenset(loop_vars), trips)
    return outer_independent * distinct


class TrafficTable:
    """Boundary traffic of one compiled nest, for any active-core count.

    The placement changes a nest's traffic only through the fit depth
    of each boundary's upper level, whose effective capacity shrinks as
    more cores share it.  The table walks the access list once per fit
    depth, on first use, and memoizes one report per active-core count.
    """

    __slots__ = (
        "info", "machine", "_empty", "_trips", "_ws_profile",
        "_block_factor", "_volumes", "_reports",
    )

    def __init__(self, info: CodegenNestInfo, machine: Machine) -> None:
        self.info = info
        self.machine = machine
        self._volumes: dict[int, list[tuple[AccessKind, float, bool]]] = {}
        self._reports: dict[int, TrafficReport] = {}
        nest = info.nest
        self._empty = info.eliminated or nest.iterations == 0
        if self._empty:
            return
        self._trips = {l.var: l.trip_count for l in nest.loops}
        self._ws_profile = _resident_ws_profile(nest, machine.line_bytes)

        # Polly tiling: per-tile working set T fitting level c divides the
        # refetch multipliers by the block trip count b ~ (ws / T) rooted in
        # the tiled dimensionality; we use the conservative square-block b.
        self._block_factor = 1.0
        if info.tile_working_set is not None and self._ws_profile[0] > info.tile_working_set:
            n_arrays = max(1, len(nest.arrays))
            elem = 8
            side = math.sqrt(info.tile_working_set / (elem * n_arrays))
            self._block_factor = max(1.0, side)

    def report(self, active_cores_per_domain: int = 1) -> TrafficReport:
        """The nest's traffic with ``active_cores_per_domain`` cores
        sharing each shared cache level."""
        report = self._reports.get(active_cores_per_domain)
        if report is None:
            report = self._reports[active_cores_per_domain] = self._report(
                active_cores_per_domain)
        return report

    def _report(self, active_cores_per_domain: int) -> TrafficReport:
        levels = self.machine.cache_levels
        # Boundary i: between levels[i] and levels[i+1] (or memory).
        sources = [lvl.name for lvl in levels[1:]] + ["memory"]
        if self._empty:
            return TrafficReport(
                tuple(BoundaryTraffic(source, 0.0, 0.0) for source in sources))
        boundaries = []
        for level, source in zip(levels, sources):
            capacity = level.effective_capacity(active_cores_per_domain)
            fit = _fit_depth(self._ws_profile, capacity)
            write_allocate = source == "memory" and not self.info.streaming_stores
            read_bytes = 0.0
            write_bytes = 0.0
            irregular_bytes = 0.0
            for kind, volume, irregular in self._access_volumes(fit):
                if kind is AccessKind.READ:
                    read_bytes += volume
                    if irregular:
                        irregular_bytes += volume
                elif kind is AccessKind.WRITE:
                    write_bytes += volume
                    if write_allocate:
                        # Write-allocate: the line is read before the store.
                        read_bytes += volume
                else:  # UPDATE: read-modify-write
                    read_bytes += volume
                    write_bytes += volume
                    if irregular:
                        irregular_bytes += volume
            frac = irregular_bytes / read_bytes if read_bytes > 0 else 0.0
            boundaries.append(
                BoundaryTraffic(source, read_bytes, write_bytes, min(1.0, frac)))
        return TrafficReport(tuple(boundaries))

    def _access_volumes(self, fit: int) -> "list[tuple[AccessKind, float, bool]]":
        """(kind, bytes, irregular) per access past a level with ``fit``."""
        volumes = self._volumes.get(fit)
        if volumes is not None:
            return volumes
        nest = self.info.nest
        line = self.machine.line_bytes
        captured_vars = frozenset(l.var for l in nest.loops[max(fit - 1, 0):])
        volumes = []
        for acc in nest.accesses:
            fetch_bytes_per_element = _bytes_per_distinct_element(acc, captured_vars, line)
            misses = _misses_beyond(acc, nest, fit, self._trips, self._block_factor)
            irregular = acc.indirect or fetch_bytes_per_element >= line
            volumes.append((acc.kind, misses * fetch_bytes_per_element, irregular))
        self._volumes[fit] = volumes
        return volumes


def nest_traffic(
    info: CodegenNestInfo,
    machine: Machine,
    active_cores_per_domain: int = 1,
) -> TrafficReport:
    """Traffic report for one execution of a compiled nest."""
    return TrafficTable(info, machine).report(active_cores_per_domain)
