"""Cross-compiler divergence analysis: which transformations fire where.

The paper's headline result — a median 16 % win from picking the best
compiler per code, with extremes like the ``2mm``/``3mm`` interchange
fcc misses and Polly's >250,000x on ``mvt`` — comes down to which
transformations each compiler applies to which kernel.  The compiler
models of :mod:`repro.compilers` decide exactly that, so the ``DIV0xx``
rules decide nothing themselves: they read each study variant's compile
of the kernel (``AnalysisContext.compiled``, one compile per variant
through the one compile path) and fire where the
:class:`~repro.compilers.base.CompiledKernel` s *diverge*:

* DIV001 — the final loop order (interchange or Polly moved the loops),
  the gain priced with the interchange pass's ``stride_cost``;
* DIV002 — every nest eliminated as dead code;
* DIV003 — the build/run status;
* DIV004 — vectorized or not, with the vectorizer's ``vector_blocker``;
* DIV005 — tiled (a per-tile working set).

Fusion keeps the first nest's label, so a nest fused into its
predecessor is compared through the nest that absorbed it: that nest
runs its statements.  :func:`rank_divergence` orders findings by impact.
"""

from __future__ import annotations

from typing import Iterable

from repro.compilers.base import CodegenNestInfo, CompiledKernel, CompileStatus
from repro.compilers.passes.interchange import stride_cost
from repro.ir.kernel import Kernel
from repro.ir.loop import LoopNest
from repro.staticanalysis.diagnostics import Category, Diagnostic, Severity
from repro.staticanalysis.registry import rule

#: Interchange divergence must clear the same stride-cost factor as the
#: OPT010 rule before it is worth a finding (divergence and OPT010 then
#: agree on what counts as "large").
from repro.staticanalysis.rules import INTERCHANGE_GAIN_THRESHOLD

#: What runs one source nest under one variant: the source nest whose
#: label the compiled nest kept, and that nest's codegen info.
NestRun = tuple[LoopNest, CodegenNestInfo]


def _join(names: Iterable[str]) -> str:
    return ", ".join(names)


def _runs(kernel: Kernel, compiled: CompiledKernel) -> list[NestRun]:
    """What runs each source nest of ``kernel``, in source order.

    A nest whose label the compile lacks was fused into the nearest
    preceding nest that kept its own."""
    by_label = {info.nest.label: info for info in compiled.nest_infos}
    runs: list[NestRun] = []
    for nest in kernel.nests:
        if nest.label in by_label or not runs:
            runs.append((nest, by_label[nest.label]))
        else:
            runs.append(runs[-1])
    return runs


def _per_nest(kernel: Kernel, ctx) -> list[dict[str, NestRun]]:
    """Per source nest: variant -> what runs it, over the variants that
    build and run the kernel and keep the nest (not dead code)."""
    runs = {
        v: _runs(kernel, ck) for v, ck in ctx.compiled(kernel).items() if ck.ok
    }
    return [
        {v: r[i] for v, r in runs.items() if not r[i][1].eliminated}
        for i in range(len(kernel.nests))
    ]


def _final_order(nest: LoopNest, run: NestRun) -> tuple[str, ...]:
    """``nest``'s compiled loop order, in its own loop variables (fusion
    renames an absorbed nest's loops positionally onto its host's)."""
    host, info = run
    rename = dict(zip(host.loop_vars, nest.loop_vars))
    return tuple(rename[v] for v in info.nest.loop_vars)


@rule(
    "DIV001",
    title="compilers diverge on loop interchange",
    category=Category.PORTABILITY,
    severity=Severity.WARNING,
    help_text="Compares each variant's compiled loop order (interchange "
    "or polyhedral rescheduling).  Fires when some variants "
    "reorder the nest to a >=2x cheaper loop order while "
    "others keep the written one — the paper's 2mm/3mm "
    "Figure 1 divergence.",
)
def interchange_divergence(kernel: Kernel, ctx) -> "list[Diagnostic]":
    out: list[Diagnostic] = []
    for nf, runs in zip(ctx.facts(kernel).nests, _per_nest(kernel, ctx)):
        original = nf.loop_vars
        orders = {v: _final_order(nf.nest, run) for v, run in runs.items()}
        movers = {v: order for v, order in orders.items() if order != original}
        stayers = [v for v, order in orders.items() if order == original]
        if not movers or not stayers:
            continue
        costs = {
            v: stride_cost(nf.nest, order, ctx.line_bytes)
            for v, order in movers.items()
        }
        best = min(movers, key=costs.__getitem__)
        if costs[best] <= 0:
            continue
        ratio = nf.interchange.cost_original / costs[best]
        if ratio < INTERCHANGE_GAIN_THRESHOLD:
            continue
        order = movers[best]
        out.append(
            Diagnostic(
                rule_id="DIV001",
                severity=Severity.WARNING,
                category=Category.PORTABILITY,
                message=(
                    f"{_join(stayers)} keep{'s' if len(stayers) == 1 else ''} "
                    f"loop order {''.join(original)} while "
                    f"{_join(sorted(movers))} reorder to "
                    f"{''.join(order)} ({ratio:.1f}x fewer cache lines "
                    f"per iteration) — the paper's 2mm/3mm interchange "
                    f"divergence"
                ),
                kernel=kernel.name,
                nest=nf.label,
                loop=order[-1],
                hint=f"rewrite the nest as {''.join(order)}, or pick "
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
    "cell.  Fires when some variants' compiles eliminate "
    "every nest and others keep them.",
)
def dce_divergence(kernel: Kernel, ctx) -> "list[Diagnostic]":
    dead = {
        v: all(info.eliminated for info in ck.nest_infos)
        for v, ck in ctx.compiled(kernel).items()
        if ck.ok
    }
    eliminators = sorted(v for v, gone in dead.items() if gone)
    if not eliminators or all(dead.values()):
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
    help_text="Reads each variant's compile status (Figure 2's "
    "compile-error and runtime-fault cells, with Fortran "
    "delegation): the kernel builds and runs under some "
    "variants but not others.",
)
def incident_divergence(kernel: Kernel, ctx) -> "list[Diagnostic]":
    out: list[Diagnostic] = []
    compiled = ctx.compiled(kernel)
    if not any(ck.ok for ck in compiled.values()):
        return out  # no divergence: broken everywhere
    for variant in sorted(compiled):
        status = compiled[variant].status
        if status is CompileStatus.COMPILE_ERROR:
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
        elif status is CompileStatus.RUNTIME_FAULT:
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
    help_text="Compares which variants' compiles vectorize each nest's "
    "innermost loop.  Fires when some variants SIMD the loop "
    "and others fall back to scalar code, naming what stopped "
    "the vectorizer.",
)
def vectorization_divergence(kernel: Kernel, ctx) -> "list[Diagnostic]":
    out: list[Diagnostic] = []
    for nf, runs in zip(ctx.facts(kernel).nests, _per_nest(kernel, ctx)):
        yes = sorted(v for v, (_, info) in runs.items() if info.vectorized)
        no = {
            v: info.vector_blocker
            for v, (_, info) in runs.items()
            if not info.vectorized
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
    help_text="Fires when some variants' compiles tile the nest (a "
    "per-tile working set) and others leave it untiled — "
    "cache blocking the programmer would otherwise hand-write.",
)
def tiling_divergence(kernel: Kernel, ctx) -> "list[Diagnostic]":
    out: list[Diagnostic] = []
    facts = ctx.facts(kernel).nests
    reuse = {f.label: f.reuse for f in facts}
    for nf, runs in zip(facts, _per_nest(kernel, ctx)):
        tilers = sorted(
            v for v, (_, info) in runs.items() if info.tile_working_set is not None
        )
        others = [
            v for v, (_, info) in runs.items() if info.tile_working_set is None
        ]
        if not tilers or not others:
            continue
        # A nest tiled through fusion was tiled for its host's reuse.
        by_host: dict[str, list[str]] = {}
        for v in tilers:
            by_host.setdefault(runs[v][0].label, []).append(v)
        tiled: list[str] = []
        for host, variants in by_host.items():
            what = "this SCoP nest" if not tiled else "it"
            score = f"temporal reuse {reuse[host]:.2f}"
            if host != nf.label:
                what += f" as part of {host}, which it was fused into"
                score = f"{host}'s {score}"
            tiled.append(
                f"{_join(variants)} tile{'s' if len(variants) == 1 else ''} "
                f"{what} ({score})"
            )
        out.append(
            Diagnostic(
                rule_id="DIV005",
                severity=Severity.NOTE,
                category=Category.PORTABILITY,
                message=(
                    f"{'; '.join(tiled)} — "
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


def rank_divergence(diags: Iterable[Diagnostic]) -> tuple[Diagnostic, ...]:
    """Divergence findings ranked most-impactful first (stable)."""
    ranked = [d for d in diags if d.rule_id in _RULE_IMPACT]
    return tuple(
        sorted(
            ranked,
            key=lambda d: (_RULE_IMPACT[d.rule_id], -d.severity.rank, d.kernel, d.nest),
        )
    )
