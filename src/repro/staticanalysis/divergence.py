"""Cross-compiler divergence analysis: which transformations fire where.

The paper's headline result — a median 16 % win from picking the best
compiler per code, with extremes like the ``2mm``/``3mm`` interchange
fcc misses and Polly's >250,000x on ``mvt`` — is a *static* property:
each kernel's loop nests either meet or miss each compiler's capability
table.  This module replays the compiler models' pass gates (quirks
tables + default flags) against the fixpoint dataflow facts of
:mod:`repro.staticanalysis.dataflow`, without running any pass or cost
model, and emits:

* :func:`predict_transforms` — per (kernel x variant): build/run
  incidents, dead-code elimination, the final loop order (Polly
  rescheduling or plain interchange), tiling, and vectorization, each
  decided by the same gates the passes use;
* the ``DIV0xx`` diagnostics — findings that fire only when the
  variants *diverge* (some transform, some don't), ranked by impact;
* :func:`recommend_compiler` — a per-kernel best-variant prediction
  from a static traffic proxy (stride cost of the predicted final
  order, scaled by the variant's codegen-quality tables and incident
  outcomes), checked against :func:`repro.perf.batch.evaluate_grid`
  as a consistency oracle by :func:`grid_best_variants` and the
  differential test suite.

The predictions intentionally mirror the pass gates exactly (language
windows, interchange depth, the ``1e-12`` cost dead-band, SCoP-ness,
fast-math reassociation); codegen details the gates don't decide
(ISA/lane selection) are assumed available, which holds for every
study variant's paper flag set on A64FX (``-march=native``-style
targeting everywhere).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping

from repro.compilers.base import CodegenNestInfo
from repro.compilers.passes.polyhedral import _TILING_REUSE_THRESHOLD
from repro.compilers.registry import STUDY_VARIANTS, get_compiler
from repro.ir.dependence import innermost_vectorization_legality
from repro.ir.kernel import Feature, Kernel
from repro.ir.types import Language
from repro.perf.batch import GridSpec, evaluate_grid
from repro.perf.ecm import nest_time
from repro.staticanalysis.dataflow import KernelFacts, NestFacts, StridePattern
from repro.staticanalysis.diagnostics import Category, Diagnostic, Severity
from repro.staticanalysis.registry import rule

#: Interchange divergence must clear the same stride-cost factor as the
#: OPT010 rule before it is worth a finding (divergence and OPT010 then
#: agree on what counts as "large").
from repro.staticanalysis.rules import INTERCHANGE_GAIN_THRESHOLD

#: Variants the divergence analyzer may reason about (the A64FX five
#: plus the Xeon reference compiler).
ALL_VARIANTS: tuple[str, ...] = STUDY_VARIANTS + ("icc",)

#: The polyhedral pass's dead-band on cost comparisons.
_COST_EPSILON = 1e-12

STATUS_OK = "ok"
STATUS_COMPILE_ERROR = "compile-error"
STATUS_RUNTIME_FAULT = "runtime-fault"


# --------------------------------------------------------------------------
# per-(kernel x variant) transform prediction
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class NestPrediction:
    """What one compiler variant is predicted to do to one nest."""

    label: str
    original: tuple[str, ...]
    #: Predicted final loop order after rescheduling.
    order: tuple[str, ...]
    #: "" | "interchange" | "polly" — which mechanism moved the loops.
    reordered_by: str
    tiled: bool
    vectorized: bool
    #: Why vectorization is predicted to fail ("" when it succeeds).
    vector_blocker: str
    cost_original: float
    #: Stride cost of the predicted final order.
    cost_final: float

    @property
    def interchanged(self) -> bool:
        return self.order != self.original


@dataclass(frozen=True)
class VariantPrediction:
    """Predicted compilation outcome of one kernel under one variant."""

    variant: str
    status: str
    #: Whole-kernel dead-code elimination (the mvt incident).
    eliminated: bool
    anomaly_multiplier: float
    nests: tuple[NestPrediction, ...]
    #: Variant whose pipeline actually generates the code (Fortran
    #: delegation under the LLVM configurations).
    codegen_variant: str

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK


def _variant_model(variant: str):
    """(caps, default flags) of a study variant, by Figure 2 name."""
    compiler = get_compiler(variant)
    return compiler.caps, compiler.default_flags()


def _permuted_vectorization(nf: NestFacts, order: tuple[str, ...]):
    """The innermost-vectorization verdict after permuting to ``order``.

    Direction/distance vectors permute with the loops, so the permuted
    nest's verdict is computable from the existing dependence facts —
    no re-analysis of a rebuilt nest."""
    if order == nf.loop_vars:
        return nf.vectorization
    perm = [nf.loop_vars.index(v) for v in order]
    pdeps = tuple(
        replace(
            dep,
            directions=tuple(dep.directions[p] for p in perm),
            distances=tuple(dep.distances[p] for p in perm),
        )
        for dep in nf.deps
    )
    return innermost_vectorization_legality(nf.nest, pdeps)


def _predict_vectorized(
    kernel: Kernel,
    nf: NestFacts,
    caps,
    flags,
    language: Language,
    order: tuple[str, ...],
) -> tuple[bool, str]:
    """Replay the vectorize pass's gates; returns (fires, blocker)."""
    if flags.opt_level < 2:
        return False, "auto-vectorizer off below -O2"
    verdict = _permuted_vectorization(nf, order)
    if not verdict.legal:
        return False, "carried dependence blocks SIMD"
    if verdict.needs_reduction_reassociation:
        if caps.reduction_requires_fastmath and not flags.fast_math:
            return False, "FP reduction needs fast-math to reassociate"
    if verdict.needs_runtime_checks and not caps.runtime_alias_checks:
        return False, "needs runtime alias checks the compiler won't emit"
    if kernel.has_feature(Feature.POINTER_CHASING):
        return False, "dependent-load chain"
    classes = nf.innermost_classes(order)
    has_indirect = any(c is StridePattern.INDIRECT for c in classes)
    has_strided = any(c is StridePattern.STRIDED for c in classes)
    has_predicated = any(s.predicated for s in nf.nest.body)
    has_indirect_write = any(
        af.access.indirect and af.access.kind.writes for af in nf.accesses
    )
    if has_indirect_write:
        return False, "scattered read-modify-write (conflict hazard)"
    if has_indirect and not caps.vectorize_gather:
        return False, "indirect streams need hardware gathers"
    if has_strided and not caps.vectorize_strided:
        return False, "immature SVE codegen on strided streams"
    if has_predicated and not caps.predication:
        return False, "no profitable predication of conditional bodies"
    return True, ""


def _predict_nest(
    kernel: Kernel,
    facts: KernelFacts,
    nf: NestFacts,
    caps,
    flags,
    language: Language,
) -> NestPrediction:
    summary = nf.interchange
    order = summary.original
    by = ""
    polly_active = (
        caps.polyhedral and flags.polly and facts.scop and nf.static_control
    )
    if polly_active and 2 <= len(summary.movable) <= 4:
        candidate, _ = summary.select(
            4, allow_reduction_reorder=flags.fast_math, tie_epsilon=_COST_EPSILON
        )
        if candidate != order:
            order, by = candidate, "polly"
    if (
        not by
        and language in caps.interchange_languages
        and caps.max_interchange_depth >= 2
        and len(summary.movable) >= 2
    ):
        candidate, _ = summary.select(
            caps.max_interchange_depth,
            allow_reduction_reorder=flags.fast_math,
            tie_epsilon=_COST_EPSILON,
        )
        if candidate != order:
            order, by = candidate, "interchange"

    tiled = (
        polly_active and nf.reuse >= _TILING_REUSE_THRESHOLD and nf.nest.depth >= 2
    )
    vectorized, blocker = _predict_vectorized(
        kernel, nf, caps, flags, language, order
    )
    fact = summary.orders.get(order)
    cost_final = fact.cost if fact is not None else summary.cost_original
    return NestPrediction(
        label=nf.label,
        original=summary.original,
        order=order,
        reordered_by=by,
        tiled=tiled,
        vectorized=vectorized,
        vector_blocker=blocker,
        cost_original=summary.cost_original,
        cost_final=cost_final,
    )


def _predict_variant(
    kernel: Kernel, facts: KernelFacts, variant: str
) -> VariantPrediction:
    caps, flags = _variant_model(variant)
    codegen_caps, codegen_flags, codegen_variant = caps, flags, variant

    compile_error = kernel.name in caps.compile_error_kernels
    runtime_fault = kernel.name in caps.runtime_fault_kernels
    if kernel.language is Language.FORTRAN and caps.fortran_delegate:
        codegen_variant = caps.fortran_delegate
        codegen_caps, codegen_flags = _variant_model(codegen_variant)
        compile_error = compile_error or (
            kernel.name in codegen_caps.compile_error_kernels
        )
        runtime_fault = runtime_fault or (
            kernel.name in codegen_caps.runtime_fault_kernels
        )

    multiplier = caps.kernel_multipliers.get(kernel.name, 1.0)
    if flags.polly:
        multiplier *= caps.polly_kernel_multipliers.get(kernel.name, 1.0)

    if compile_error:
        return VariantPrediction(
            variant=variant,
            status=STATUS_COMPILE_ERROR,
            eliminated=False,
            anomaly_multiplier=multiplier,
            nests=(),
            codegen_variant=codegen_variant,
        )

    eliminated = kernel.name in codegen_caps.dce_kernels and facts.scop
    nests = tuple(
        _predict_nest(
            kernel, facts, nf, codegen_caps, codegen_flags, kernel.language
        )
        for nf in facts.nests
    )
    return VariantPrediction(
        variant=variant,
        status=STATUS_RUNTIME_FAULT if runtime_fault else STATUS_OK,
        eliminated=eliminated,
        anomaly_multiplier=multiplier,
        nests=nests,
        codegen_variant=codegen_variant,
    )


def predict_transforms(
    kernel: Kernel, ctx, variants: tuple[str, ...] = STUDY_VARIANTS
) -> Mapping[str, VariantPrediction]:
    """Per-variant transform predictions for one kernel, memoized on
    the :class:`~repro.staticanalysis.driver.AnalysisContext`."""
    memo = ctx._divergence
    key = (id(kernel), variants)
    hit = memo.get(key)
    if hit is not None:
        return hit
    facts = ctx.facts(kernel)
    out = {v: _predict_variant(kernel, facts, v) for v in variants}
    memo[key] = out
    return out


# --------------------------------------------------------------------------
# DIV0xx divergence diagnostics
# --------------------------------------------------------------------------


def _join(names) -> str:
    return ", ".join(names)


def _ok_predictions(preds: Mapping[str, VariantPrediction]):
    return {v: p for v, p in preds.items() if p.ok}


@rule(
    "DIV001",
    title="compilers diverge on loop interchange",
    category=Category.PORTABILITY,
    severity=Severity.WARNING,
    help_text="Replays each variant's interchange/rescheduling gates "
    "(language window, search depth, polyhedral SCoP gate) "
    "against the dataflow facts.  Fires when some variants "
    "reorder the nest to a >=2x cheaper loop order while "
    "others keep the written one — the paper's 2mm/3mm "
    "Figure 1 divergence, statically.",
)
def interchange_divergence(kernel: Kernel, ctx) -> "list[Diagnostic]":
    out: list[Diagnostic] = []
    preds = _ok_predictions(predict_transforms(kernel, ctx))
    if len(preds) < 2:
        return out
    for i, nf in enumerate(ctx.facts(kernel).nests):
        movers = {
            v: p.nests[i]
            for v, p in preds.items()
            if not p.eliminated and p.nests[i].interchanged
        }
        stayers = [
            v
            for v, p in preds.items()
            if not p.eliminated and not p.nests[i].interchanged
        ]
        if not movers or not stayers:
            continue
        best = min(movers.values(), key=lambda n: n.cost_final)
        if best.cost_final <= 0:
            continue
        ratio = best.cost_original / best.cost_final
        if ratio < INTERCHANGE_GAIN_THRESHOLD:
            continue
        out.append(
            Diagnostic(
                rule_id="DIV001",
                severity=Severity.WARNING,
                category=Category.PORTABILITY,
                message=(
                    f"{_join(stayers)} keep{'s' if len(stayers) == 1 else ''} "
                    f"loop order {''.join(best.original)} while "
                    f"{_join(sorted(movers))} reorder to "
                    f"{''.join(best.order)} ({ratio:.1f}x fewer cache lines "
                    f"per iteration) — the paper's 2mm/3mm interchange "
                    f"divergence"
                ),
                kernel=kernel.name,
                nest=nf.label,
                loop=best.order[-1],
                hint=f"rewrite the nest as {''.join(best.order)}, or pick "
                f"{sorted(movers)[0]} for this kernel",
            )
        )
    return out


@rule(
    "DIV002",
    title="dead-code elimination divergence",
    category=Category.PORTABILITY,
    severity=Severity.WARNING,
    help_text="A variant whose interprocedural optimizer proves the "
    "kernel's computation dead (and deletes it) reports "
    "fantasy speedups — the paper's >250,000x LLVM+Polly mvt "
    "cell.  Fires when the DCE incident table plus the SCoP "
    "gate predict elimination under some variants only.",
)
def dce_divergence(kernel: Kernel, ctx) -> "list[Diagnostic]":
    preds = _ok_predictions(predict_transforms(kernel, ctx))
    eliminators = sorted(v for v, p in preds.items() if p.eliminated)
    survivors = [v for v, p in preds.items() if not p.eliminated]
    if not eliminators or not survivors:
        return []
    return [
        Diagnostic(
            rule_id="DIV002",
            severity=Severity.WARNING,
            category=Category.PORTABILITY,
            message=(
                f"{_join(eliminators)} eliminate"
                f"{'s' if len(eliminators) == 1 else ''} this kernel's "
                f"computation as dead code — its timings measure an empty "
                f"loop (the paper's >250,000x mvt outlier)"
            ),
            kernel=kernel.name,
            hint="make the outputs observable to the timing harness, or "
            "exclude these cells from speedup claims",
        )
    ]


@rule(
    "DIV003",
    title="build/run incident divergence",
    category=Category.PORTABILITY,
    severity=Severity.WARNING,
    help_text="Replays the per-variant incident tables (Figure 2's "
    "compile-error and runtime-fault cells, with Fortran "
    "delegation): the kernel builds and runs under some "
    "variants but not others.",
)
def incident_divergence(kernel: Kernel, ctx) -> "list[Diagnostic]":
    out: list[Diagnostic] = []
    preds = predict_transforms(kernel, ctx)
    if all(not p.ok for p in preds.values()):
        return out  # no divergence: broken everywhere
    for variant in sorted(preds):
        p = preds[variant]
        if p.status == STATUS_COMPILE_ERROR:
            out.append(
                Diagnostic(
                    rule_id="DIV003",
                    severity=Severity.WARNING,
                    category=Category.PORTABILITY,
                    message=(
                        f"{variant} fails to build this kernel (internal "
                        f"compiler error) — the cell is lost under that "
                        f"toolchain"
                    ),
                    kernel=kernel.name,
                    hint="any other study variant builds it",
                )
            )
        elif p.status == STATUS_RUNTIME_FAULT:
            out.append(
                Diagnostic(
                    rule_id="DIV003",
                    severity=Severity.WARNING,
                    category=Category.PORTABILITY,
                    message=(
                        f"{variant} miscompiles this kernel — the binary "
                        f"faults at runtime"
                    ),
                    kernel=kernel.name,
                    hint="any other study variant runs it correctly",
                )
            )
    return out


@rule(
    "DIV004",
    title="vectorization divergence",
    category=Category.PORTABILITY,
    severity=Severity.NOTE,
    help_text="Replays the vectorizer gates (legality verdict, "
    "fast-math reassociation, gather/strided/predication "
    "capability) per variant on each nest's predicted final "
    "loop order.  Fires when some variants SIMD the loop and "
    "others fall back to scalar code.",
)
def vectorization_divergence(kernel: Kernel, ctx) -> "list[Diagnostic]":
    out: list[Diagnostic] = []
    preds = _ok_predictions(predict_transforms(kernel, ctx))
    if len(preds) < 2:
        return out
    for i, nf in enumerate(ctx.facts(kernel).nests):
        yes = sorted(
            v for v, p in preds.items() if not p.eliminated and p.nests[i].vectorized
        )
        no = {
            v: p.nests[i].vector_blocker
            for v, p in preds.items()
            if not p.eliminated and not p.nests[i].vectorized
        }
        if not yes or not no:
            continue
        reasons = _join(sorted({blocker for blocker in no.values() if blocker}))
        out.append(
            Diagnostic(
                rule_id="DIV004",
                severity=Severity.NOTE,
                category=Category.PORTABILITY,
                message=(
                    f"innermost loop {nf.innermost_var!r} vectorizes under "
                    f"{_join(yes)} but stays scalar under "
                    f"{_join(sorted(no))}"
                    + (f" ({reasons})" if reasons else "")
                ),
                kernel=kernel.name,
                nest=nf.label,
                loop=nf.innermost_var,
                hint="the scalar variants leave SIMD throughput on the "
                "table for this nest",
            )
        )
    return out


@rule(
    "DIV005",
    title="polyhedral tiling divergence",
    category=Category.PORTABILITY,
    severity=Severity.NOTE,
    help_text="Fires when the polyhedral variant tiles a reuse-rich "
    "SCoP nest (temporal reuse above the tiling threshold) "
    "that every non-polyhedral variant leaves untiled — "
    "cache blocking the programmer would otherwise hand-write.",
)
def tiling_divergence(kernel: Kernel, ctx) -> "list[Diagnostic]":
    out: list[Diagnostic] = []
    preds = _ok_predictions(predict_transforms(kernel, ctx))
    if len(preds) < 2:
        return out
    for i, nf in enumerate(ctx.facts(kernel).nests):
        tilers = sorted(
            v for v, p in preds.items() if not p.eliminated and p.nests[i].tiled
        )
        others = [
            v for v, p in preds.items() if not p.eliminated and not p.nests[i].tiled
        ]
        if not tilers or not others:
            continue
        out.append(
            Diagnostic(
                rule_id="DIV005",
                severity=Severity.NOTE,
                category=Category.PORTABILITY,
                message=(
                    f"{_join(tilers)} tile{'s' if len(tilers) == 1 else ''} "
                    f"this SCoP nest (temporal reuse {nf.reuse:.2f}) — "
                    f"{_join(others)} leave cache blocking to the programmer"
                ),
                kernel=kernel.name,
                nest=nf.label,
                hint="hand-tile the nest to make the locality win portable",
            )
        )
    return out


#: The divergence rule IDs, in registration (and thus emission) order.
DIVERGENCE_RULES: tuple[str, ...] = (
    "DIV001",
    "DIV002",
    "DIV003",
    "DIV004",
    "DIV005",
)

#: Impact order used when ranking divergence findings for reports:
#: losing a cell outright (DCE fantasy numbers, build/run incidents)
#: outranks a missed transform.
_RULE_IMPACT = {
    "DIV002": 0,
    "DIV003": 1,
    "DIV001": 2,
    "DIV005": 3,
    "DIV004": 4,
}


def rank_divergence(diags) -> tuple[Diagnostic, ...]:
    """Divergence findings ranked most-impactful first (stable)."""
    ranked = [d for d in diags if d.rule_id in _RULE_IMPACT]
    return tuple(
        sorted(
            ranked,
            key=lambda d: (_RULE_IMPACT[d.rule_id], -d.severity.rank, d.kernel, d.nest),
        )
    )


# --------------------------------------------------------------------------
# best-compiler recommendation + the evaluate_grid oracle
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Recommendation:
    """Static best-variant prediction for one kernel or benchmark."""

    name: str
    variant: str
    #: Lower-is-faster static proxy score per variant (inf = broken).
    scores: Mapping[str, float]
    #: One-line rationale per variant.
    reasons: Mapping[str, str]

    def ranking(self) -> tuple[str, ...]:
        return tuple(sorted(self.scores, key=lambda v: self.scores[v]))


#: Fractional cost of Polly's runtime versioning checks (mirrors the
#: polyhedral pass's ``_VERSIONING_OVERHEAD``) — the reason plain LLVM
#: beats LLVM+Polly whenever tiling has nothing to block.
_POLLY_OVERHEAD = 0.02


def _tile_budget(machine, nf: NestFacts) -> int:
    """The per-tile working-set budget the polyhedral pass would use."""
    threads = (
        machine.topology.cores_per_domain if nf.parallel_levels else 1
    )
    return machine.cache_levels[-1].effective_capacity(threads) // 2


def _nest_score(nf: NestFacts, np: NestPrediction, caps, flags, language, machine) -> float:
    """Static proxy for one nest's execution time under one variant.

    Builds the *predicted* codegen summary — the transforms the gate
    replay says fire, priced with the variant's quality tables — and
    hands it to the ECM machine model.  No compiler pass runs; the
    passes' incremental adjustments (epilogue factors, prefetch
    schedules, unroll tuning) are deliberately absent, so this is an
    idealized prediction, not a reimplementation of ``compile()``.
    Only the cross-variant ordering is consumed.
    """
    nest = (
        nf.nest.permuted(np.order) if np.order != nf.loop_vars else nf.nest
    )
    lanes = max(machine.core.fp_pipe_bits // 64, 1) if np.vectorized else 1
    info = CodegenNestInfo(
        nest=nest,
        vectorized=np.vectorized,
        vec_lanes=lanes,
        vec_efficiency=caps.vec_quality.get(language, 0.8),
        scalar_quality=caps.scalar_quality.get(language, 0.8),
        memory_schedule_quality=caps.memory_schedule_quality.get(language, 0.9),
        unroll_factor=4,
        tile_working_set=_tile_budget(machine, nf) if np.tiled else None,
        runtime_check_overhead=(
            _POLLY_OVERHEAD if np.tiled or np.reordered_by == "polly" else 0.0
        ),
        large_pages=flags.largepage,
    )
    return nest_time(info, machine).total_s


def _kernel_score(
    kernel: Kernel, facts: KernelFacts, pred: VariantPrediction, machine
) -> tuple[float, str]:
    """Static best-variant proxy score for one kernel (lower = faster)."""
    if pred.status == STATUS_COMPILE_ERROR:
        return float("inf"), "does not compile"
    if pred.status == STATUS_RUNTIME_FAULT:
        return float("inf"), "miscompiled (runtime fault)"
    if pred.eliminated:
        return 1e-9, "computation eliminated as dead code"
    caps, flags = _variant_model(pred.codegen_variant)
    language = kernel.language
    total = 0.0
    notes: list[str] = []
    for nf, np in zip(facts.nests, pred.nests):
        total += _nest_score(nf, np, caps, flags, language, machine)
        if np.tiled and nf.working_sets[0] > _tile_budget(machine, nf):
            notes.append(f"tiles {np.label}")
        if np.interchanged:
            notes.append(f"reorders {np.label} to {''.join(np.order)}")
        if not np.vectorized and np.vector_blocker:
            notes.append(f"scalar {np.label}: {np.vector_blocker}")
    total *= pred.anomaly_multiplier
    if pred.anomaly_multiplier != 1.0:
        notes.append(f"empirical x{pred.anomaly_multiplier:g}")
    return total, "; ".join(notes) if notes else "no divergent transform"


def recommend_compiler(
    kernel: Kernel, ctx, variants: tuple[str, ...] = STUDY_VARIANTS
) -> Recommendation:
    """Predict the fastest study variant for one kernel, statically."""
    facts = ctx.facts(kernel)
    preds = predict_transforms(kernel, ctx, variants)
    scores: dict[str, float] = {}
    reasons: dict[str, str] = {}
    for variant in variants:
        scores[variant], reasons[variant] = _kernel_score(
            kernel, facts, preds[variant], ctx.machine
        )
    best = min(variants, key=lambda v: (scores[v], variants.index(v)))
    return Recommendation(
        name=kernel.name, variant=best, scores=scores, reasons=reasons
    )


def recommend_benchmark(
    benchmark, ctx, variants: tuple[str, ...] = STUDY_VARIANTS
) -> Recommendation:
    """Best-variant prediction for a whole benchmark (scores summed
    over its kernels; a broken kernel disqualifies the variant)."""
    scores = {v: 0.0 for v in variants}
    reasons: dict[str, list[str]] = {v: [] for v in variants}
    seen: set[int] = set()
    for kernel in benchmark.kernels():
        if id(kernel) in seen:
            continue
        seen.add(id(kernel))
        rec = recommend_compiler(kernel, ctx, variants)
        for v in variants:
            scores[v] += rec.scores[v]
            if rec.reasons[v] and rec.reasons[v] != "no divergent transform":
                reasons[v].append(f"{kernel.name}: {rec.reasons[v]}")
    best = min(variants, key=lambda v: (scores[v], variants.index(v)))
    return Recommendation(
        name=benchmark.full_name,
        variant=best,
        scores=scores,
        reasons={v: "; ".join(r) if r else "no divergent transform" for v, r in reasons.items()},
    )


def grid_best_variants(
    *,
    suites: "tuple[str, ...] | None" = None,
    benchmarks: "tuple[str, ...] | None" = None,
    variants: tuple[str, ...] = STUDY_VARIANTS,
    machine=None,
) -> dict[str, str]:
    """The consistency oracle: per-benchmark fastest variant according
    to the batched cost model (:func:`repro.perf.batch.evaluate_grid`)."""
    grid = evaluate_grid(
        GridSpec(machine=machine, variants=variants, suites=suites, benchmarks=benchmarks)
    )
    best: dict[str, tuple[str, float]] = {}
    for cell in grid.cells:
        time_s = cell.best.time_s
        prev = best.get(cell.benchmark)
        if prev is None or time_s < prev[1]:
            best[cell.benchmark] = (cell.variant, time_s)
    return {bench: variant for bench, (variant, _t) in best.items()}
