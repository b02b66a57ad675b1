"""Fixpoint dataflow / abstract interpretation over the loop-nest IR.

The seven lint rules of :mod:`repro.staticanalysis.rules` originally
each walked the IR by hand; they now consume the *facts* computed here.
The module has three layers:

1. a generic **worklist fixpoint solver** (:func:`solve_forward`) over
   any finite-height join semilattice — monotone transfer functions are
   the caller's obligation, a visit budget turns accidental
   non-monotonicity into :class:`FixpointError` instead of a hang;
2. the **lattice** the must-defined analysis runs on: the dual
   intersection lattice (:class:`MustDefinedLattice`);
3. **facts extraction** (:func:`compute_kernel_facts`): per-access
   loop-movement summaries, read-before-write facts derived from
   must-defined-before-statement sets, dependence partitions,
   vectorization verdicts, temporal reuse, and an interchange cost
   summary (:class:`InterchangeSummary`) that ``OPT010`` and the
   divergence rules' interchange pricing read from.

Everything in :class:`NestFacts`/:class:`KernelFacts` is derived once
per kernel and memoized on the :class:`~repro.staticanalysis.driver.
AnalysisContext`, so the rule set pays for one dependence analysis and
one fixpoint run regardless of how many rules consume the facts.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import deque
from dataclasses import dataclass
from typing import (
    Callable,
    Generic,
    Hashable,
    Iterable,
    Mapping,
    Sequence,
    TypeVar,
)

from repro.compilers.passes.interchange import (
    _fixed_prefix,
    candidate_orders,
    stride_cost,
)
from repro.errors import ReproError
from repro.ir.analysis import reuse_potential
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
    """Per-access summary: the loop variables the subscripts move with."""

    stmt: Statement
    access: Access
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


@dataclass(frozen=True)
class InterchangeSummary:
    """Costed, legality-annotated interchange search space of one nest.

    Candidate orders are the interchange pass's
    (:func:`~repro.compilers.passes.interchange.candidate_orders`) at
    depth :data:`MAX_PERMUTATION_DEPTH`: every permutation of the
    movable suffix up to that depth, pairwise swaps beyond."""

    original: tuple[str, ...]
    #: Loops an interchange may permute: those after the last parallel loop.
    movable: tuple[str, ...]
    cost_original: float
    #: candidate full order -> cost/legality.
    orders: Mapping[tuple[str, ...], OrderFact]

    def select(
        self, *, allow_reduction_reorder: bool
    ) -> tuple[tuple[str, ...], float]:
        """The cheapest legal order, the first found in search order on
        ties.  Returns ``(original, cost_original)`` when nothing wins."""
        best_order, best_cost = self.original, self.cost_original
        for order, fact in self.orders.items():
            if fact.cost < best_cost and fact.legal(allow_reduction_reorder):
                best_order, best_cost = order, fact.cost
        return best_order, best_cost


@dataclass(frozen=True)
class NestFacts:
    """Everything the rules know about one nest, computed in a single
    pass."""

    nest: LoopNest
    #: Per-access facts, statement-major in body order.
    accesses: tuple[AccessFacts, ...]
    #: INIT004 facts in body order.
    read_before_write: tuple[ReadBeforeWrite, ...]
    #: Dependences possibly carried per loop level, outermost first.
    carried: tuple[tuple[Dependence, ...], ...]
    #: Indices of loops marked parallel.
    parallel_levels: tuple[int, ...]
    vectorization: VectorizationLegality
    #: [0, 1] temporal-reuse score (tiling profitability).
    reuse: float
    interchange: InterchangeSummary

    @property
    def label(self) -> str:
        return str(self.nest.label)

    @property
    def loop_vars(self) -> tuple[str, ...]:
        return self.nest.loop_vars

    @property
    def innermost_var(self) -> str:
        return str(self.nest.innermost.var)


@dataclass(frozen=True)
class KernelFacts:
    """Dataflow facts for one kernel: one summary per nest."""

    kernel: Kernel
    nests: tuple[NestFacts, ...]

    def nest(self, label: str) -> NestFacts:
        for facts in self.nests:
            if facts.label == label:
                return facts
        raise KeyError(f"no facts for nest {label!r}")


# --------------------------------------------------------------------------
# facts extraction
# --------------------------------------------------------------------------


def _access_facts(nest: LoopNest) -> tuple[AccessFacts, ...]:
    loop_vars = nest.loop_vars
    return tuple(
        AccessFacts(
            stmt=stmt,
            access=acc,
            moves_with=frozenset(
                var
                for var in loop_vars
                if any(e.depends_on(var) for e in acc.indices)
            ),
        )
        for stmt in nest.body
        for acc in stmt.accesses
    )


def _write_keys(stmt: Statement) -> frozenset[DefKey]:
    keys: set[DefKey] = set()
    for acc in stmt.accesses:
        if acc.indirect or not acc.kind.writes:
            continue
        keys.add((acc.array.name, acc.indices))
    return frozenset(keys)


def _init_facts(nest: LoopNest) -> tuple[ReadBeforeWrite, ...]:
    """Must-defined-before-statement sets + the INIT004 derivation.

    The dataflow half computes ``IN[s]`` — locations *provably written
    by every path* reaching statement ``s`` on the first iteration (the
    entry boundary injects the empty set, so the backedge cannot
    launder later writes into earlier reads).  The derivation half then
    mirrors the classic read-before-write scan, consulting ``IN[s]``
    where the ad-hoc version kept a running ``written`` set."""
    nodes = _body_nodes(nest)
    if not nodes:
        return ()
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
    return tuple(facts)


def _interchange_summary(
    nest: LoopNest, deps: tuple[Dependence, ...], line_bytes: int
) -> InterchangeSummary:
    prefix = _fixed_prefix(nest)
    movable = nest.loop_vars[prefix:]
    original = nest.loop_vars
    cost0 = stride_cost(nest, original, line_bytes)
    orders: dict[tuple[str, ...], OrderFact] = {}
    if len(movable) >= 2:
        for perm in candidate_orders(movable, MAX_PERMUTATION_DEPTH):
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
        movable=movable,
        cost_original=cost0,
        orders=orders,
    )


def compute_nest_facts(
    nest: LoopNest, deps: tuple[Dependence, ...], line_bytes: int
) -> NestFacts:
    """Run every nest-level analysis once and bundle the results."""
    return NestFacts(
        nest=nest,
        accesses=_access_facts(nest),
        read_before_write=_init_facts(nest),
        carried=tuple(
            carried_dependences(deps, level) for level in range(nest.depth)
        ),
        parallel_levels=tuple(
            i for i, loop in enumerate(nest.loops) if loop.parallel
        ),
        vectorization=innermost_vectorization_legality(nest, deps),
        reuse=reuse_potential(nest),
        interchange=_interchange_summary(nest, deps, line_bytes),
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
    return KernelFacts(kernel=kernel, nests=nests)
