"""Fixpoint dataflow / abstract interpretation over the loop-nest IR.

The seven lint rules of :mod:`repro.staticanalysis.rules` originally
each walked the IR by hand; they now consume the *facts* computed here,
and the cross-compiler divergence analyzer
(:mod:`repro.staticanalysis.divergence`) evaluates compiler capability
tables against the same facts.  The module has three layers:

1. a generic **worklist fixpoint solver** (:func:`solve_forward`) over
   any finite-height join semilattice — monotone transfer functions are
   the caller's obligation, a visit budget turns accidental
   non-monotonicity into :class:`FixpointError` instead of a hang;
2. the **lattices** the analyses run on: the chain lattice of
   access-stride classes (:class:`StridePattern`), interval value
   ranges (:class:`ValueRange`), pointwise map lattices, and the dual
   intersection lattice used by the must-defined analysis;
3. **facts extraction** (:func:`compute_kernel_facts`): per-nest
   iteration-space summaries, per-(array, loop) access-pattern joins,
   must-defined-before-statement sets, dependence partitions,
   vectorization verdicts, SCoP-ness, and an interchange cost summary
   (:class:`InterchangeSummary`) that both ``OPT010`` and the
   divergence analyzer's per-compiler gate replay read from.

Everything in :class:`NestFacts`/:class:`KernelFacts` is derived once
per kernel and memoized on the :class:`~repro.staticanalysis.driver.
AnalysisContext`, so the rule set pays for one dependence analysis and
one fixpoint run regardless of how many rules (or compiler models)
consume the facts.
"""

from __future__ import annotations

import itertools
from abc import ABC, abstractmethod
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import (
    Callable,
    Generic,
    Hashable,
    Iterable,
    Mapping,
    Sequence,
    TypeVar,
)

from repro.compilers.passes.interchange import stride_cost
from repro.errors import ReproError
from repro.ir.analysis import (
    StrideClass,
    classify_access,
    is_scop,
    nest_is_static_control,
    reuse_potential,
    working_set_profile,
)
from repro.ir.array import Access
from repro.ir.dependence import (
    Dependence,
    VectorizationLegality,
    carried_dependences,
    innermost_vectorization_legality,
    permutation_legal,
)
from repro.ir.kernel import Kernel
from repro.ir.loop import LoopNest
from repro.ir.statement import Statement
from repro.ir.types import AccessKind

N = TypeVar("N", bound=Hashable)
T = TypeVar("T")
K = TypeVar("K", bound=Hashable)


class FixpointError(ReproError):
    """The solver exhausted its visit budget without converging.

    With monotone transfer functions on a finite-height lattice this
    cannot happen; raising (rather than looping) turns a buggy
    non-monotone transfer into a diagnosable failure.
    """


# --------------------------------------------------------------------------
# generic join-semilattice solver
# --------------------------------------------------------------------------


class Lattice(ABC, Generic[T]):
    """A join semilattice: ``bottom`` plus an associative, commutative,
    idempotent ``join``.  ``leq`` is derived (``a <= b  iff  a v b == b``)."""

    @abstractmethod
    def bottom(self) -> T:
        """The least element."""

    @abstractmethod
    def join(self, a: T, b: T) -> T:
        """Least upper bound."""

    def leq(self, a: T, b: T) -> bool:
        return bool(self.join(a, b) == b)


@dataclass(frozen=True)
class DataflowResult(Generic[N, T]):
    """Fixpoint of one forward dataflow problem."""

    #: Value *entering* each node (join over predecessors + boundary).
    in_values: Mapping[N, T]
    #: Value *leaving* each node (``transfer(node, in)``).
    out_values: Mapping[N, T]
    #: Total node visits until stabilization.
    visits: int


def solve_forward(
    nodes: Sequence[N],
    successors: Callable[[N], Iterable[N]],
    transfer: Callable[[N, T], T],
    lattice: Lattice[T],
    *,
    boundary: Mapping[N, T] | None = None,
    max_visits: int | None = None,
) -> DataflowResult[N, T]:
    """Solve a forward dataflow problem to its least fixpoint.

    ``IN[n] = boundary.get(n, bottom)  v  join over preds p of OUT[p]``
    and ``OUT[n] = transfer(n, IN[n])``, iterated with a FIFO worklist
    until nothing changes.  ``boundary`` injects entry values (e.g. the
    "nothing defined yet" set at a loop body's entry); nodes without
    predecessors otherwise start from ``bottom``.

    The visit budget defaults to ``64 * (len(nodes) + 1)`` — generous
    for the chain-shaped graphs and height-<=5 lattices used here — and
    :class:`FixpointError` is raised when it runs out.
    """
    order = list(nodes)
    boundary = boundary or {}
    succs: dict[N, tuple[N, ...]] = {n: tuple(successors(n)) for n in order}
    preds: dict[N, list[N]] = {n: [] for n in order}
    for n, ss in succs.items():
        for s in ss:
            preds[s].append(n)

    bottom = lattice.bottom()
    out_values: dict[N, T] = {n: bottom for n in order}
    queued = set(order)
    worklist: deque[N] = deque(order)
    budget = max_visits if max_visits is not None else 64 * (len(order) + 1)
    visits = 0

    def in_value(n: N) -> T:
        value = boundary.get(n, bottom)
        for p in preds[n]:
            value = lattice.join(value, out_values[p])
        return value

    while worklist:
        n = worklist.popleft()
        queued.discard(n)
        visits += 1
        if visits > budget:
            raise FixpointError(
                f"dataflow did not converge within {budget} visits "
                f"({len(order)} nodes); non-monotone transfer?"
            )
        new_out = transfer(n, in_value(n))
        if new_out != out_values[n]:
            out_values[n] = new_out
            for s in succs[n]:
                if s not in queued:
                    queued.add(s)
                    worklist.append(s)

    in_values = {n: in_value(n) for n in order}
    return DataflowResult(in_values=in_values, out_values=out_values, visits=visits)


# --------------------------------------------------------------------------
# lattices
# --------------------------------------------------------------------------


class StridePattern(Enum):
    """Abstract access-pattern element: the chain lattice

    ``BOTTOM < INVARIANT < CONTIGUOUS < STRIDED < INDIRECT``

    ordered by how badly the stream behaves in the cache; joining the
    patterns of several accesses keeps the most pessimal one."""

    BOTTOM = "unreached"
    INVARIANT = "invariant"
    CONTIGUOUS = "contiguous"
    STRIDED = "strided"
    INDIRECT = "indirect"

    @property
    def rank(self) -> int:
        return _STRIDE_RANK[self]

    @classmethod
    def from_class(cls, stride_class: StrideClass) -> "StridePattern":
        return _FROM_CLASS[stride_class]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"StridePattern.{self.name}"


_STRIDE_RANK: dict[StridePattern, int] = {
    StridePattern.BOTTOM: 0,
    StridePattern.INVARIANT: 1,
    StridePattern.CONTIGUOUS: 2,
    StridePattern.STRIDED: 3,
    StridePattern.INDIRECT: 4,
}

_FROM_CLASS: dict[StrideClass, StridePattern] = {
    StrideClass.INVARIANT: StridePattern.INVARIANT,
    StrideClass.CONTIGUOUS: StridePattern.CONTIGUOUS,
    StrideClass.STRIDED: StridePattern.STRIDED,
    StrideClass.INDIRECT: StridePattern.INDIRECT,
}


class StrideLattice(Lattice[StridePattern]):
    """The finite chain over :class:`StridePattern` (height 5)."""

    def bottom(self) -> StridePattern:
        return StridePattern.BOTTOM

    def join(self, a: StridePattern, b: StridePattern) -> StridePattern:
        return a if a.rank >= b.rank else b


STRIDE_LATTICE = StrideLattice()


@dataclass(frozen=True)
class ValueRange:
    """An inclusive integer interval ``[lo, hi]``; ``EMPTY`` is bottom."""

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ReproError(f"malformed range [{self.lo}, {self.hi}]")

    @property
    def width(self) -> int:
        return self.hi - self.lo + 1

    def contains(self, value: int) -> bool:
        return self.lo <= value <= self.hi

    def hull(self, other: "ValueRange") -> "ValueRange":
        return ValueRange(min(self.lo, other.lo), max(self.hi, other.hi))

    def __str__(self) -> str:
        return f"[{self.lo}, {self.hi}]"


class RangeLattice(Lattice["ValueRange | None"]):
    """Interval lattice with hull join; ``None`` is the empty interval."""

    def bottom(self) -> "ValueRange | None":
        return None

    def join(self, a: "ValueRange | None", b: "ValueRange | None") -> "ValueRange | None":
        if a is None:
            return b
        if b is None:
            return a
        return a.hull(b)


RANGE_LATTICE = RangeLattice()


class MapLattice(Lattice[Mapping[K, T]], Generic[K, T]):
    """Pointwise lift of an inner lattice to finite maps; absent keys
    are implicitly the inner bottom."""

    def __init__(self, inner: Lattice[T]) -> None:
        self.inner = inner

    def bottom(self) -> Mapping[K, T]:
        return {}

    def join(self, a: Mapping[K, T], b: Mapping[K, T]) -> Mapping[K, T]:
        if not a:
            return b
        if not b:
            return a
        out = dict(a)
        for key, value in b.items():
            prev = out.get(key)
            out[key] = value if prev is None else self.inner.join(prev, value)
        return out


#: Key identifying one scalar memory location in the must-defined
#: analysis: (array name, subscript tuple).
DefKey = tuple[str, tuple[object, ...]]


class MustDefinedLattice(Lattice["frozenset[DefKey] | None"]):
    """Dual (intersection) set lattice for *must* analyses.

    Ordered by ``superset``: bottom is the universe (encoded ``None``),
    join is set intersection — a location is defined at a join point
    only when it is defined along **every** incoming path."""

    def bottom(self) -> "frozenset[DefKey] | None":
        return None

    def join(
        self, a: "frozenset[DefKey] | None", b: "frozenset[DefKey] | None"
    ) -> "frozenset[DefKey] | None":
        if a is None:
            return b
        if b is None:
            return a
        return a & b


MUST_DEFINED_LATTICE = MustDefinedLattice()


# --------------------------------------------------------------------------
# loop-body graphs
# --------------------------------------------------------------------------


def _body_nodes(nest: LoopNest) -> list[int]:
    return list(range(len(nest.body)))


def _body_successors(nest: LoopNest) -> Callable[[int], tuple[int, ...]]:
    """Statement chain plus the loop backedge (last -> first).

    The backedge makes the solved facts *steady-state* facts; boundary
    injection at node 0 keeps first-iteration information (the
    must-defined analysis intersects the backedge value with "nothing
    defined at entry", which is exactly the conservative first-iteration
    answer INIT004 needs)."""
    last = len(nest.body) - 1

    def successors(i: int) -> tuple[int, ...]:
        if i < last:
            return (i + 1,)
        if last >= 0:
            return (0,)
        return ()

    return successors


# --------------------------------------------------------------------------
# facts
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class AccessFacts:
    """Per-access abstract summary: stride class per loop variable and
    the set of loop variables the subscripts move with."""

    stmt: Statement
    access: Access
    #: loop var -> abstract stride pattern of this access w.r.t. it.
    classes: Mapping[str, StridePattern]
    #: Loop variables any subscript expression depends on.
    moves_with: frozenset[str]


@dataclass(frozen=True)
class ReadBeforeWrite:
    """INIT004 fact: ``reader`` consumes a location before ``writer``
    (pure-)writes it, in body order."""

    reader: Statement
    writer: Statement
    array: str
    #: The writer's subscript expressions, rendered ("i,j").
    subscripts: str


@dataclass(frozen=True)
class OrderFact:
    """Stride cost and permutation legality of one candidate loop order."""

    cost: float
    #: Legal when reduction dependences may be reordered (fast-math).
    legal_relaxed: bool
    #: Legal under strict FP semantics.
    legal_strict: bool

    def legal(self, allow_reduction_reorder: bool) -> bool:
        return self.legal_relaxed if allow_reduction_reorder else self.legal_strict


#: Full-permutation search is bounded; deeper nests fall back to
#: pairwise swaps (mirrors depth-limited production interchangers).
MAX_PERMUTATION_DEPTH = 4


def candidate_permutations(
    movable: tuple[str, ...], max_depth: int
) -> list[tuple[str, ...]]:
    """Loop orders a depth-limited interchanger considers — every
    permutation when the movable suffix fits the window, every pairwise
    swap otherwise.  Mirrors :func:`repro.compilers.passes.interchange.
    candidate_orders` so divergence predictions replay the exact search
    each compiler model performs."""
    if len(movable) <= max_depth:
        return [p for p in itertools.permutations(movable) if p != movable]
    out: list[tuple[str, ...]] = []
    for a in range(len(movable)):
        for b in range(a + 1, len(movable)):
            order = list(movable)
            order[a], order[b] = order[b], order[a]
            out.append(tuple(order))
    return out


@dataclass(frozen=True)
class InterchangeSummary:
    """Costed, legality-annotated interchange search space of one nest.

    Candidate orders cover every permutation of the movable suffix up
    to :data:`MAX_PERMUTATION_DEPTH` (pairwise swaps beyond); consumers
    replay a specific compiler's depth-limited search with
    :meth:`select`."""

    original: tuple[str, ...]
    #: Loops before this index are anchored (outermost parallel region).
    prefix: int
    movable: tuple[str, ...]
    cost_original: float
    #: candidate full order -> cost/legality.
    orders: Mapping[tuple[str, ...], OrderFact]

    def select(
        self,
        max_depth: int,
        *,
        allow_reduction_reorder: bool,
        tie_epsilon: float = 0.0,
    ) -> tuple[tuple[str, ...], float]:
        """The order a depth-``max_depth`` interchanger picks.

        Replays the pass loop: enumerate candidates in search order,
        keep the first strictly cheaper legal order (``tie_epsilon``
        guards the pass's ``1e-12`` dead-band; the OPT010 rule uses 0).
        Returns ``(original, cost_original)`` when nothing wins."""
        best_order, best_cost = self.original, self.cost_original
        for perm in candidate_permutations(self.movable, max_depth):
            order = self.original[: self.prefix] + perm
            fact = self.orders.get(order)
            if fact is None:
                continue
            if fact.cost >= best_cost - tie_epsilon:
                continue
            if fact.legal(allow_reduction_reorder):
                best_order, best_cost = order, fact.cost
        return best_order, best_cost


@dataclass(frozen=True)
class NestFacts:
    """Everything the rules and the divergence analyzer know about one
    nest, computed in a single pass."""

    nest: LoopNest
    #: Loop variable -> inclusive value interval (None for zero-trip).
    var_ranges: Mapping[str, "ValueRange | None"]
    trip_counts: tuple[int, ...]
    iterations: int
    #: (array name, loop var) -> joined stride pattern over all accesses.
    patterns: Mapping[tuple[str, str], StridePattern]
    #: Per-access facts, statement-major in body order.
    accesses: tuple[AccessFacts, ...]
    #: Must-defined set entering each statement (first iteration).
    defined_before: tuple[frozenset[DefKey], ...]
    #: INIT004 facts in body order.
    read_before_write: tuple[ReadBeforeWrite, ...]
    deps: tuple[Dependence, ...]
    #: Dependences possibly carried per loop level, outermost first.
    carried: tuple[tuple[Dependence, ...], ...]
    #: Indices of loops marked parallel.
    parallel_levels: tuple[int, ...]
    vectorization: VectorizationLegality
    static_control: bool
    #: [0, 1] temporal-reuse score (tiling profitability).
    reuse: float
    #: Working-set bytes per loop level, outermost first.
    working_sets: tuple[int, ...]
    interchange: InterchangeSummary
    #: Solver effort, for telemetry/tests.
    fixpoint_visits: int = 0

    @property
    def label(self) -> str:
        return str(self.nest.label)

    @property
    def loop_vars(self) -> tuple[str, ...]:
        return self.nest.loop_vars

    @property
    def innermost_var(self) -> str:
        return str(self.nest.innermost.var)

    def pattern(self, array: str, var: str) -> StridePattern:
        return self.patterns.get((array, var), StridePattern.BOTTOM)

    def innermost_classes(self, order: tuple[str, ...] | None = None) -> tuple[StridePattern, ...]:
        """Stride pattern of each access w.r.t. the innermost loop of
        ``order`` (default: the written order)."""
        inner = (order or self.loop_vars)[-1]
        return tuple(af.classes.get(inner, StridePattern.BOTTOM) for af in self.accesses)


@dataclass(frozen=True)
class KernelFacts:
    """Dataflow facts for one kernel: per-nest summaries + kernel-level
    abstract properties."""

    kernel: Kernel
    nests: tuple[NestFacts, ...]
    #: Static control part — the polyhedral gate.
    scop: bool

    def nest(self, label: str) -> NestFacts:
        for facts in self.nests:
            if facts.label == label:
                return facts
        raise KeyError(f"no facts for nest {label!r}")


# --------------------------------------------------------------------------
# facts extraction
# --------------------------------------------------------------------------


def _movable_prefix(nest: LoopNest) -> int:
    """Loops up to and including the last parallel loop stay anchored
    (the parallel loop pins the outlined region)."""
    last_par = -1
    for i, loop in enumerate(nest.loops):
        if loop.parallel:
            last_par = i
    return last_par + 1


def _var_ranges(nest: LoopNest) -> dict[str, "ValueRange | None"]:
    out: dict[str, "ValueRange | None"] = {}
    for loop in nest.loops:
        trips = loop.trip_count
        if trips <= 0:
            out[loop.var] = None
            continue
        step = loop.step if loop.step else 1
        last = loop.lower + (trips - 1) * step
        out[loop.var] = ValueRange(min(loop.lower, last), max(loop.lower, last))
    return out


def _pattern_facts(
    nest: LoopNest,
) -> tuple[dict[tuple[str, str], StridePattern], tuple[AccessFacts, ...], int]:
    """Solve the access-pattern summary to fixpoint over the body.

    Each statement's transfer joins the abstract stride of its accesses
    (w.r.t. every nest loop) into the running (array, var) map; the
    loop backedge makes the result the steady-state join over the whole
    body."""
    per_access: list[AccessFacts] = []
    contributions: list[dict[tuple[str, str], StridePattern]] = []
    loop_vars = nest.loop_vars
    for i, stmt in enumerate(nest.body):
        local: dict[tuple[str, str], StridePattern] = {}
        for acc in stmt.accesses:
            classes: dict[str, StridePattern] = {}
            for var in loop_vars:
                pattern = StridePattern.from_class(
                    classify_access(acc, var).stride_class
                )
                classes[var] = pattern
                key = (acc.array.name, var)
                prev = local.get(key, StridePattern.BOTTOM)
                local[key] = STRIDE_LATTICE.join(prev, pattern)
            moves = frozenset(
                var
                for var in loop_vars
                if any(e.depends_on(var) for e in acc.indices)
            )
            per_access.append(
                AccessFacts(stmt=stmt, access=acc, classes=classes, moves_with=moves)
            )
        contributions.append(local)

    nodes = _body_nodes(nest)
    if not nodes:
        return {}, tuple(per_access), 0
    lattice: MapLattice[tuple[str, str], StridePattern] = MapLattice(STRIDE_LATTICE)

    def transfer(
        i: int, value: Mapping[tuple[str, str], StridePattern]
    ) -> Mapping[tuple[str, str], StridePattern]:
        return lattice.join(value, contributions[i])

    result = solve_forward(
        nodes, _body_successors(nest), transfer, lattice, boundary={0: {}}
    )
    summary = dict(result.out_values[nodes[-1]])
    return summary, tuple(per_access), result.visits


def _write_keys(stmt: Statement) -> frozenset[DefKey]:
    keys: set[DefKey] = set()
    for acc in stmt.accesses:
        if acc.indirect or not acc.kind.writes:
            continue
        keys.add((acc.array.name, acc.indices))
    return frozenset(keys)


def _init_facts(
    nest: LoopNest,
) -> tuple[tuple[frozenset[DefKey], ...], tuple[ReadBeforeWrite, ...], int]:
    """Must-defined-before-statement sets + the INIT004 derivation.

    The dataflow half computes ``IN[s]`` — locations *provably written
    by every path* reaching statement ``s`` on the first iteration (the
    entry boundary injects the empty set, so the backedge cannot
    launder later writes into earlier reads).  The derivation half then
    mirrors the classic read-before-write scan, consulting ``IN[s]``
    where the ad-hoc version kept a running ``written`` set."""
    nodes = _body_nodes(nest)
    if not nodes:
        return (), (), 0
    gens = [_write_keys(stmt) for stmt in nest.body]

    def transfer(
        i: int, value: "frozenset[DefKey] | None"
    ) -> "frozenset[DefKey] | None":
        defined = frozenset() if value is None else value
        return defined | gens[i]

    result = solve_forward(
        nodes,
        _body_successors(nest),
        transfer,
        MUST_DEFINED_LATTICE,
        boundary={0: frozenset()},
    )
    defined_before = tuple(
        result.in_values[i] if result.in_values[i] is not None else frozenset()
        for i in nodes
    )

    first_read: dict[DefKey, Statement] = {}
    flagged: set[DefKey] = set()
    facts: list[ReadBeforeWrite] = []
    for i, stmt in enumerate(nest.body):
        defined = defined_before[i]
        for acc in stmt.accesses:
            if acc.indirect:
                continue
            key: DefKey = (acc.array.name, acc.indices)
            if acc.kind.reads and key not in defined:
                first_read.setdefault(key, stmt)
        for acc in stmt.accesses:
            if acc.indirect or not acc.kind.writes:
                continue
            key = (acc.array.name, acc.indices)
            reader = first_read.get(key)
            if (
                acc.kind is AccessKind.WRITE
                and reader is not None
                and reader is not stmt
                and key not in flagged
            ):
                flagged.add(key)
                facts.append(
                    ReadBeforeWrite(
                        reader=reader,
                        writer=stmt,
                        array=acc.array.name,
                        subscripts=",".join(str(e) for e in acc.indices),
                    )
                )
    return defined_before, tuple(facts), result.visits


def _interchange_summary(
    nest: LoopNest, deps: tuple[Dependence, ...], line_bytes: int
) -> InterchangeSummary:
    prefix = _movable_prefix(nest)
    movable = nest.loop_vars[prefix:]
    original = nest.loop_vars
    cost0 = stride_cost(nest, original, line_bytes)
    orders: dict[tuple[str, ...], OrderFact] = {}
    if len(movable) >= 2:
        for perm in candidate_permutations(movable, MAX_PERMUTATION_DEPTH):
            order = original[:prefix] + perm
            orders[order] = OrderFact(
                cost=stride_cost(nest, order, line_bytes),
                legal_relaxed=permutation_legal(
                    deps, original, order, allow_reduction_reorder=True
                ),
                legal_strict=permutation_legal(
                    deps, original, order, allow_reduction_reorder=False
                ),
            )
    return InterchangeSummary(
        original=original,
        prefix=prefix,
        movable=movable,
        cost_original=cost0,
        orders=orders,
    )


def compute_nest_facts(
    nest: LoopNest, deps: tuple[Dependence, ...], line_bytes: int
) -> NestFacts:
    """Run every nest-level analysis once and bundle the results."""
    patterns, accesses, visits_a = _pattern_facts(nest)
    defined_before, rbw, visits_b = _init_facts(nest)
    carried = tuple(carried_dependences(deps, level) for level in range(nest.depth))
    return NestFacts(
        nest=nest,
        var_ranges=_var_ranges(nest),
        trip_counts=nest.trip_counts,
        iterations=nest.iterations,
        patterns=patterns,
        accesses=accesses,
        defined_before=defined_before,
        read_before_write=rbw,
        deps=deps,
        carried=carried,
        parallel_levels=tuple(
            i for i, loop in enumerate(nest.loops) if loop.parallel
        ),
        vectorization=innermost_vectorization_legality(nest, deps),
        static_control=nest_is_static_control(nest),
        reuse=reuse_potential(nest),
        working_sets=working_set_profile(nest),
        interchange=_interchange_summary(nest, deps, line_bytes),
        fixpoint_visits=visits_a + visits_b,
    )


def compute_kernel_facts(
    kernel: Kernel,
    *,
    deps: Callable[[LoopNest], tuple[Dependence, ...]],
    line_bytes: int,
) -> KernelFacts:
    """Compute :class:`KernelFacts` for one kernel.

    ``deps`` supplies (memoized) dependence sets — pass
    ``AnalysisContext.deps`` so the facts share the context's cache."""
    nests = tuple(
        compute_nest_facts(nest, deps(nest), line_bytes) for nest in kernel.nests
    )
    return KernelFacts(kernel=kernel, nests=nests, scop=is_scop(kernel))
