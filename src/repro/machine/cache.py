"""Cache hierarchy descriptors and a trace-based reference simulator.

Two layers:

* :class:`CacheLevel` — the datasheet description the analytic traffic
  model (:mod:`repro.perf.traffic`) consumes;
* :class:`SetAssociativeCache` / :class:`CacheHierarchy` — a concrete
  LRU set-associative simulator.  It is too slow to sit in the campaign
  hot path, but the test suite uses it to cross-validate the analytic
  model's hit/miss placement on small kernels, and it is part of the
  public API for users studying individual loops.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import MachineConfigError


@dataclass(frozen=True)
class CacheLevel:
    """One level of the data-cache hierarchy."""

    name: str
    capacity_bytes: int
    line_bytes: int
    associativity: int
    #: Sustained bandwidth between this level and the core(s) it feeds,
    #: in bytes per cycle *per core*.
    bytes_per_cycle_per_core: float
    #: Number of cores sharing one instance of this level (1 = private).
    shared_by_cores: int = 1

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0:
            raise MachineConfigError(f"{self.name}: capacity must be positive")
        if self.line_bytes <= 0 or self.capacity_bytes % self.line_bytes:
            raise MachineConfigError(f"{self.name}: capacity must be a multiple of line size")
        if self.associativity <= 0:
            raise MachineConfigError(f"{self.name}: associativity must be positive")
        lines = self.capacity_bytes // self.line_bytes
        if lines % self.associativity:
            raise MachineConfigError(f"{self.name}: lines not divisible by associativity")
        if self.shared_by_cores <= 0:
            raise MachineConfigError(f"{self.name}: shared_by_cores must be positive")

    @property
    def num_lines(self) -> int:
        return self.capacity_bytes // self.line_bytes

    @property
    def num_sets(self) -> int:
        return self.num_lines // self.associativity

    def effective_capacity(self, active_cores: int) -> int:
        """Capacity available to one core when ``active_cores`` cores
        share this level (private levels are unaffected)."""
        if self.shared_by_cores <= 1:
            return self.capacity_bytes
        sharers = min(max(active_cores, 1), self.shared_by_cores)
        return self.capacity_bytes // sharers

    def __str__(self) -> str:
        from repro.units import pretty_bytes

        return (
            f"{self.name}: {pretty_bytes(self.capacity_bytes)}, "
            f"{self.associativity}-way, {self.line_bytes}B lines"
        )


@dataclass
class CacheStats:
    """Hit/miss counters for the reference simulator."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


class SetAssociativeCache:
    """A classic LRU set-associative cache simulator (byte-addressed).

    Used as ground truth for the analytic traffic model in tests.  LRU
    recency is tracked with a monotone counter per line; sets are dicts
    keyed by tag for O(1) lookup.
    """

    def __init__(self, level: CacheLevel) -> None:
        self.level = level
        self.stats = CacheStats()
        self._sets: list[dict[int, int]] = [dict() for _ in range(level.num_sets)]
        self._clock = 0

    def _locate(self, address: int) -> tuple[int, int]:
        line = address // self.level.line_bytes
        return line % self.level.num_sets, line // self.level.num_sets

    def access(self, address: int) -> bool:
        """Touch one byte address; returns True on hit.

        Misses install the line, evicting the LRU way when the set is
        full (the victim is reported to ``stats.evictions``).
        """
        if address < 0:
            raise ValueError("addresses must be non-negative")
        set_idx, tag = self._locate(address)
        ways = self._sets[set_idx]
        self._clock += 1
        self.stats.accesses += 1
        if tag in ways:
            ways[tag] = self._clock
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        if len(ways) >= self.level.associativity:
            victim = min(ways, key=ways.__getitem__)
            del ways[victim]
            self.stats.evictions += 1
        ways[tag] = self._clock
        return False

    def access_range(self, address: int, nbytes: int) -> int:
        """Touch ``nbytes`` starting at ``address``; returns miss count."""
        misses = 0
        line = self.level.line_bytes
        first = address // line
        last = (address + max(nbytes, 1) - 1) // line
        for ln in range(first, last + 1):
            if not self.access(ln * line):
                misses += 1
        return misses

    def contains(self, address: int) -> bool:
        """Non-mutating lookup (no LRU update, no stats)."""
        set_idx, tag = self._locate(address)
        return tag in self._sets[set_idx]

    def flush(self) -> None:
        for s in self._sets:
            s.clear()


class CacheHierarchy:
    """An inclusive multi-level hierarchy of reference simulators.

    An access probes L1 first; on miss it recurses to the next level.
    Returns the level index that served the access (``len(levels)``
    means memory).
    """

    def __init__(self, levels: "list[CacheLevel] | tuple[CacheLevel, ...]") -> None:
        if not levels:
            raise MachineConfigError("hierarchy needs at least one level")
        for inner, outer in zip(levels, levels[1:]):
            if outer.capacity_bytes < inner.capacity_bytes:
                raise MachineConfigError(
                    f"{outer.name} smaller than inner level {inner.name}"
                )
            if outer.line_bytes != inner.line_bytes:
                raise MachineConfigError("mixed line sizes are not modelled")
        self.caches = [SetAssociativeCache(lvl) for lvl in levels]

    def access(self, address: int) -> int:
        """Returns the index of the level that hit (len = memory)."""
        for idx, cache in enumerate(self.caches):
            if cache.access(address):
                return idx
        return len(self.caches)

    def flush(self) -> None:
        for c in self.caches:
            c.flush()

    @property
    def stats(self) -> list[CacheStats]:
        return [c.stats for c in self.caches]
