#!/usr/bin/env python3
"""Compiler advice without a campaign: what each compiler did, and who wins.

The paper's conclusion is a per-workload compiler recommendation
derived from measurements on real A64FX nodes.  The divergence rules
explain the differences without running a cell: they compile each
kernel with every study variant and compare what the compiler models
did (loop order, dead-code elimination, build/run status,
vectorization, tiling).  The noise-free cost model then names the
winner, as ``a64fx-campaign advise-static`` does.

Three stops:

1. Recover the paper's 2mm diagnosis: FJ keeps ijk, the others
   interchange — and the cost model's pick follows.
2. The mvt outlier: LLVM+Polly eliminates the kernel as dead code
   (DIV002), which is a *trap*, not a win.
3. Ranked divergence findings for a whole benchmark.

Run:  python examples/advise_static.py
"""

from repro.perf.batch import evaluate_grid
from repro.staticanalysis import AnalysisContext, analyze_kernel
from repro.staticanalysis.divergence import DIVERGENCE_RULES, rank_divergence
from repro.suites import get_benchmark


def kernel_of(full_name: str):
    return next(iter(get_benchmark(full_name).kernels()))


def fastest(full_name: str) -> str:
    """The variant the noise-free cost model finds fastest."""
    cells = evaluate_grid(benchmarks=(full_name,)).cells
    return min(cells, key=lambda cell: cell.best.time_s).variant


def stop_1_the_2mm_diagnosis(ctx: AnalysisContext) -> None:
    print("=== 1. 2mm: who interchanges, and who should you use ===")
    kernel = kernel_of("polybench.2mm")
    for variant, compiled in ctx.compiled(kernel).items():
        orders = ", ".join(
            "".join(info.nest.loop_vars)
            + ("*" if info.tile_working_set is not None else "")
            for info in compiled.nest_infos
        )
        print(f"  {variant:10s} loop orders: {orders}   (* = tiled)")
    print(f"  -> the cost model picks {fastest('polybench.2mm')}")
    print()


def stop_2_the_mvt_trap(ctx: AnalysisContext) -> None:
    print("=== 2. mvt: the >250,000x dead-code outlier ===")
    kernel = kernel_of("polybench.mvt")
    for diag in analyze_kernel(kernel, ctx=ctx):
        if diag.rule_id == "DIV002":
            print(f"  {diag}")
    print(f"  -> the cost model picks {fastest('polybench.mvt')} "
          f"(Polly's 'win' measures an empty loop)")
    print()


def stop_3_ranked_divergence(ctx: AnalysisContext) -> None:
    print("=== 3. Ranked divergence findings for micro.k22 ===")
    findings = [
        d
        for d in analyze_kernel(kernel_of("micro.k22"), ctx=ctx)
        if d.rule_id in DIVERGENCE_RULES
    ]
    for diag in rank_divergence(findings):
        print(f"  {diag}")


def main() -> None:
    ctx = AnalysisContext()  # one context: each kernel compiles once
    stop_1_the_2mm_diagnosis(ctx)
    stop_2_the_mvt_trap(ctx)
    stop_3_ranked_divergence(ctx)


if __name__ == "__main__":
    main()
