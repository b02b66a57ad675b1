"""The built-in rule set, grounded in the IR's dependence machinery.

Rule catalog (see ``docs/STATIC_ANALYSIS.md`` for examples):

==========  ===========  ============================================
ID          default      checks
==========  ===========  ============================================
STRUCT001   error        structural validity (folded from
                         :mod:`repro.ir.validate`)
BND002      error        affine subscripts stay inside declared
                         array extents at the loop bounds
RACE001     error        loops marked parallel must not carry
                         non-reduction data dependences
VEC003      warning      innermost-loop vectorization legality,
                         with aliasing / reassociation caveats
INIT004     warning      an element must not be read before the
                         statement that writes it in the same body
RED005      error        reduction-style updates in parallel loops
                         need annotation; FP reductions reassociate
OPT010      warning      a legal loop interchange beats the written
                         loop order on the stride cost model (the
                         paper's ``2mm``/``3mm`` Figure 1 anomaly)
==========  ===========  ============================================

Every rule is conservative in the same direction as the dependence
tests it builds on: inconclusive analysis downgrades a finding to a
*possible* problem (WARNING) rather than suppressing it.

The rules consume the fixpoint dataflow facts of
:mod:`repro.staticanalysis.dataflow` (via ``ctx.facts(kernel)``)
instead of walking the IR themselves: one facts computation feeds all
seven rules, and the divergence rules' nest labels, reuse scores and
interchange costs.
"""

from __future__ import annotations

from repro.ir.kernel import Feature, Kernel
from repro.ir.types import AccessKind
from repro.staticanalysis.dataflow import NestFacts
from repro.staticanalysis.diagnostics import Category, Diagnostic, Severity
from repro.staticanalysis.registry import rule

#: Interchange findings require at least this stride-cost improvement
#: (2x fewer cache lines per innermost iteration) — small reorder wins
#: are within the noise of the cost model.
INTERCHANGE_GAIN_THRESHOLD = 2.0


# --------------------------------------------------------------------------
# STRUCT001 / BND002 — folded from repro.ir.validate
# --------------------------------------------------------------------------


@rule(
    "STRUCT001",
    title="kernel is structurally malformed",
    category=Category.STRUCTURE,
    severity=Severity.ERROR,
    help_text="Cross-cutting structural checks: arrays must be declared "
    "with one consistent signature across nests, and reduction "
    "annotations must name loops of their nest.",
)
def structural_validity(kernel: Kernel, ctx) -> "list[Diagnostic]":
    return [d for d in ctx.validated(kernel) if d.rule_id == "STRUCT001"]


@rule(
    "BND002",
    title="subscript exceeds the declared array extent",
    category=Category.CORRECTNESS,
    severity=Severity.ERROR,
    help_text="Evaluates every affine subscript over the nest's loop "
    "bounds; any dimension whose reachable range leaves "
    "[0, extent) is an out-of-bounds access.",
)
def out_of_bounds_subscript(kernel: Kernel, ctx) -> "list[Diagnostic]":
    return [d for d in ctx.validated(kernel) if d.rule_id == "BND002"]


# --------------------------------------------------------------------------
# RACE001 — parallel-loop data races
# --------------------------------------------------------------------------


@rule(
    "RACE001",
    title="parallel loop carries a data dependence",
    category=Category.CORRECTNESS,
    severity=Severity.ERROR,
    help_text="A loop marked parallel must not carry a loop-carried "
    "dependence: iterations would race on the shared array. "
    "Recognized reductions are exempt (see RED005); kernels "
    "using atomics are reported as notes.",
)
def parallel_loop_race(kernel: Kernel, ctx) -> "list[Diagnostic]":
    out: list[Diagnostic] = []
    atomics = kernel.has_feature(Feature.ATOMICS)
    for facts in ctx.facts(kernel).nests:
        if not facts.parallel_levels:
            continue
        nest = facts.nest
        seen: set[tuple] = set()
        for level in facts.parallel_levels:
            loop = nest.loops[level]
            for dep in facts.carried[level]:
                if dep.is_reduction:
                    continue
                # Only a proven distance at this level is a provable
                # race; loose directions (MIV fallback, weak SIV) and
                # ANY (indirect subscripts) are may-dependences.
                definite = dep.distances[level] is not None
                key = (level, dep.array, dep.src.name, dep.dst.name, dep.kind, definite)
                if key in seen:
                    continue
                seen.add(key)
                if atomics:
                    severity = Severity.NOTE
                    suffix = " (kernel uses atomics; assuming synchronized)"
                elif definite:
                    severity = Severity.ERROR
                    suffix = ""
                else:
                    severity = Severity.WARNING
                    suffix = " (dependence test inconclusive; possible race)"
                out.append(
                    Diagnostic(
                        rule_id="RACE001",
                        severity=severity,
                        category=Category.CORRECTNESS,
                        message=(
                            f"loop {loop.var!r} is parallel but carries a "
                            f"{dep.kind.value} dependence on {dep.array!r} "
                            f"({dep.src.name}->{dep.dst.name}){suffix}"
                        ),
                        kernel=kernel.name,
                        nest=nest.label,
                        statement=dep.src.name,
                        array=dep.array,
                        loop=loop.var,
                        hint="privatize the data, add a reduction annotation, "
                        "or serialize the loop",
                    )
                )
    return out


# --------------------------------------------------------------------------
# VEC003 — innermost vectorization legality
# --------------------------------------------------------------------------


@rule(
    "VEC003",
    title="innermost loop resists vectorization",
    category=Category.PERFORMANCE,
    severity=Severity.WARNING,
    help_text="Wraps the innermost-loop vectorization legality verdict: "
    "carried non-reduction dependences block SIMD outright "
    "(warning); inconclusive aliasing and FP reduction "
    "reassociation are surfaced as notes, since compilers "
    "diverge exactly there (runtime checks, fast-math).",
)
def vectorization_legality(kernel: Kernel, ctx) -> "list[Diagnostic]":
    out: list[Diagnostic] = []
    for facts in ctx.facts(kernel).nests:
        verdict = facts.vectorization
        inner = facts.innermost_var
        common = dict(kernel=kernel.name, nest=facts.label, loop=inner)
        if not verdict.legal:
            blockers = "; ".join(verdict.blockers)
            out.append(
                Diagnostic(
                    rule_id="VEC003",
                    severity=Severity.WARNING,
                    category=Category.PERFORMANCE,
                    message=(
                        f"innermost loop {inner!r} cannot be vectorized: "
                        f"{blockers}"
                    ),
                    hint="interchange a dependence-free loop inward or "
                    "restructure the recurrence",
                    **common,
                )
            )
            continue
        if verdict.needs_runtime_checks:
            out.append(
                Diagnostic(
                    rule_id="VEC003",
                    severity=Severity.NOTE,
                    category=Category.PERFORMANCE,
                    message=(
                        f"vectorizing loop {inner!r} needs runtime "
                        f"alias/overlap checks (inconclusive dependence "
                        f"tests); compilers may multiversion or stay scalar"
                    ),
                    **common,
                )
            )
        if verdict.needs_reduction_reassociation:
            out.append(
                Diagnostic(
                    rule_id="VEC003",
                    severity=Severity.NOTE,
                    category=Category.PORTABILITY,
                    message=(
                        f"vectorizing loop {inner!r} requires reassociating "
                        f"an FP reduction — legal only under "
                        f"fast-math-style flags"
                    ),
                    **common,
                )
            )
    return out


# --------------------------------------------------------------------------
# INIT004 — read-before-write ordering
# --------------------------------------------------------------------------


@rule(
    "INIT004",
    title="element read before the statement that writes it",
    category=Category.CORRECTNESS,
    severity=Severity.WARNING,
    help_text="Within one loop body, a read of an element that a later "
    "statement (pure-)writes sees the previous iteration's "
    "value — and uninitialized storage on the first iteration. "
    "Usually a statement-ordering mistake.",
)
def read_before_write(kernel: Kernel, ctx) -> "list[Diagnostic]":
    out: list[Diagnostic] = []
    for facts in ctx.facts(kernel).nests:
        for fact in facts.read_before_write:
            out.append(
                Diagnostic(
                    rule_id="INIT004",
                    severity=Severity.WARNING,
                    category=Category.CORRECTNESS,
                    message=(
                        f"{fact.reader.name} reads {fact.array}[{fact.subscripts}] "
                        f"before {fact.writer.name} writes it — the first "
                        f"iteration reads uninitialized data"
                    ),
                    kernel=kernel.name,
                    nest=facts.label,
                    statement=fact.reader.name,
                    array=fact.array,
                    hint="reorder the statements or initialize "
                    f"{fact.array!r} before the nest",
                )
            )
    return out


# --------------------------------------------------------------------------
# RED005 — reduction misuse under parallelism
# --------------------------------------------------------------------------


@rule(
    "RED005",
    title="reduction misuse in a parallel loop",
    category=Category.CORRECTNESS,
    severity=Severity.ERROR,
    help_text="An update whose target does not move with a parallel loop "
    "is a concurrent read-modify-write: unannotated, that is a "
    "race; annotated as a reduction over the parallel loop, an "
    "FP target still reassociates (non-associative addition), "
    "so results vary with thread count.",
)
def reduction_misuse(kernel: Kernel, ctx) -> "list[Diagnostic]":
    out: list[Diagnostic] = []
    atomics = kernel.has_feature(Feature.ATOMICS)
    for facts in ctx.facts(kernel).nests:
        if not facts.parallel_levels:
            continue
        nest = facts.nest
        par_loops = [nest.loops[level] for level in facts.parallel_levels]
        for af in facts.accesses:
            acc, stmt = af.access, af.stmt
            if acc.kind is not AccessKind.UPDATE:
                continue
            for loop in par_loops:
                common = dict(
                    kernel=kernel.name,
                    nest=facts.label,
                    statement=stmt.name,
                    array=acc.array.name,
                    loop=loop.var,
                )
                if acc.indirect:
                    if loop.var in af.moves_with:
                        continue
                    out.append(
                        Diagnostic(
                            rule_id="RED005",
                            severity=Severity.NOTE if atomics else Severity.WARNING,
                            category=Category.CORRECTNESS,
                            message=(
                                f"indirect update of {acc.array.name!r} "
                                f"inside parallel loop {loop.var!r} may "
                                f"collide across iterations"
                                + (" (kernel uses atomics)" if atomics else "")
                            ),
                            hint="use atomics or per-thread partial arrays",
                            **common,
                        )
                    )
                    continue
                if loop.var in af.moves_with:
                    continue  # target moves with the loop: no conflict
                if stmt.reduction_over is None or stmt.reduction_over != loop.var:
                    annotated = (
                        f" (annotated as a reduction over "
                        f"{stmt.reduction_over!r}, not {loop.var!r})"
                        if stmt.reduction_over is not None
                        else ""
                    )
                    out.append(
                        Diagnostic(
                            rule_id="RED005",
                            severity=Severity.NOTE if atomics else Severity.ERROR,
                            category=Category.CORRECTNESS,
                            message=(
                                f"{stmt.name} updates {acc.array.name!r} "
                                f"invariantly to parallel loop "
                                f"{loop.var!r} without a matching "
                                f"reduction annotation{annotated}"
                                + (
                                    "; kernel uses atomics"
                                    if atomics
                                    else " — iterations race on the update"
                                )
                            ),
                            hint=f"annotate the statement as a reduction "
                            f"over {loop.var!r} or privatize "
                            f"{acc.array.name!r}",
                            **common,
                        )
                    )
                elif acc.array.dtype.is_float:
                    out.append(
                        Diagnostic(
                            rule_id="RED005",
                            severity=Severity.WARNING,
                            category=Category.PORTABILITY,
                            message=(
                                f"FP reduction on {acc.array.name!r} over "
                                f"parallel loop {loop.var!r} reassociates "
                                f"non-associative additions — results "
                                f"vary with thread count and compiler"
                            ),
                            hint="accept run-to-run FP drift or serialize "
                            "the reduction",
                            **common,
                        )
                    )
    return out


# --------------------------------------------------------------------------
# OPT010 — interchange opportunity (the 2mm/3mm Figure 1 diagnosis)
# --------------------------------------------------------------------------


def best_legal_order(facts: NestFacts) -> "tuple[tuple[str, ...], float] | None":
    """The cheapest legal loop order of a nest, or ``None`` when the
    written order already wins (or nothing is movable)."""
    summary = facts.interchange
    if len(summary.movable) < 2 or summary.cost_original <= 0.0:
        return None
    order, cost = summary.select(allow_reduction_reorder=True)
    if order == summary.original:
        return None
    return order, cost


@rule(
    "OPT010",
    title="legal loop interchange beats the written order",
    category=Category.PERFORMANCE,
    severity=Severity.WARNING,
    help_text="Scores every legal permutation of the nest on the stride "
    "cost model (expected cache lines per innermost iteration). "
    "When a legal order wins by 2x or more, the kernel depends "
    "on the compiler performing the interchange — exactly the "
    "2mm/3mm anomaly of the paper's Figure 1, where icc "
    "interchanges and fcc does not, for two orders of "
    "magnitude.",
)
def interchange_opportunity(kernel: Kernel, ctx) -> "list[Diagnostic]":
    out: list[Diagnostic] = []
    for facts in ctx.facts(kernel).nests:
        best = best_legal_order(facts)
        if best is None:
            continue
        best_order, best_cost = best
        cost0 = facts.interchange.cost_original
        if best_cost * INTERCHANGE_GAIN_THRESHOLD > cost0:
            continue
        original = facts.interchange.original
        ratio = cost0 / best_cost if best_cost > 0 else float("inf")
        ratio_txt = "inf" if ratio == float("inf") else f"{ratio:.1f}"
        out.append(
            Diagnostic(
                rule_id="OPT010",
                severity=Severity.WARNING,
                category=Category.PERFORMANCE,
                message=(
                    f"loop order {''.join(original)} touches {ratio_txt}x "
                    f"more cache lines per iteration than the legal order "
                    f"{''.join(best_order)}; performance depends on the "
                    f"compiler interchanging (icc does, fcc does not)"
                ),
                kernel=kernel.name,
                nest=facts.label,
                loop=best_order[-1],
                hint=f"rewrite the nest as {''.join(best_order)} to stop "
                f"depending on the optimizer",
            )
        )
    return out
