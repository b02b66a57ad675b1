"""Compiler advisor: distill a campaign into per-situation advice.

The paper's conclusion: "we could not identify a 'silver bullet'
compiler for A64FX, but our measurements give indications of which
compilers work well in which situations, i.e., Fujitsu for Fortran
codes, GNU for integer-intensive apps, and any clang-based compilers
for C/C++."  This module derives exactly that table from campaign data
— wins and mean gains grouped by language and workload class — so the
recommendation is an output of the measurements, not an assertion.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.gains import benchmark_gains
from repro.compilers.registry import BASELINE_VARIANT
from repro.errors import AnalysisError
from repro.harness.results import CampaignResult
from repro.ir.kernel import Feature
from repro.ir.types import Language
from repro.suites.registry import get_benchmark

#: Workload classes the advice is phrased in.
CLASS_FORTRAN = "Fortran codes"
CLASS_INTEGER = "integer-intensive apps"
CLASS_C_FP = "C/C++ floating-point codes"

_CLANG_FAMILY = frozenset({"FJclang", "LLVM", "LLVM+Polly"})


def classify_benchmark(full_name: str) -> str:
    """Map a benchmark to the conclusion's workload classes."""
    bench = get_benchmark(full_name)
    if bench.language is Language.FORTRAN:
        return CLASS_FORTRAN
    integer = any(
        k.has_feature(Feature.INTEGER_DOMINANT) for k in bench.kernels()
    )
    if integer:
        return CLASS_INTEGER
    return CLASS_C_FP


@dataclass(frozen=True)
class ClassAdvice:
    """Derived recommendation for one workload class."""

    workload_class: str
    count: int
    #: variant -> number of outright wins (ties credited to FJtrad).
    wins: dict[str, int]
    #: variant -> geometric-ish mean gain over the baseline.
    mean_gain: dict[str, float]

    @property
    def recommended(self) -> str:
        return max(self.wins, key=lambda v: (self.wins[v], self.mean_gain.get(v, 0.0)))

    def recommended_family(self) -> str:
        """Collapse the two LLVM-based variants + FJclang into 'clang'."""
        rec = self.recommended
        return "clang-based" if rec in _CLANG_FAMILY else rec

    def __str__(self) -> str:
        wins = ", ".join(f"{v}:{n}" for v, n in sorted(self.wins.items(), key=lambda x: -x[1]) if n)
        return f"{self.workload_class}: use {self.recommended_family()} (n={self.count}; wins {wins})"


def advise(result: CampaignResult, baseline: str = BASELINE_VARIANT) -> dict[str, ClassAdvice]:
    """Per-class recommendations derived from the campaign."""
    groups: dict[str, list] = {}
    for g in benchmark_gains(result, baseline):
        if not g.baseline_valid:
            continue
        try:
            cls = classify_benchmark(g.benchmark)
        except Exception as exc:  # ad-hoc benchmark outside the registry
            raise AnalysisError(f"cannot classify {g.benchmark!r}") from exc
        groups.setdefault(cls, []).append(g)

    out: dict[str, ClassAdvice] = {}
    for cls, gains in groups.items():
        wins: dict[str, int] = {}
        totals: dict[str, list] = {}
        for g in gains:
            winner = g.best_variant if g.best_gain > 1.02 else baseline
            wins[winner] = wins.get(winner, 0) + 1
            for variant, t in g.times.items():
                if t != float("inf"):
                    totals.setdefault(variant, []).append(g.baseline_s / t)
        mean_gain = {v: sum(vals) / len(vals) for v, vals in totals.items()}
        out[cls] = ClassAdvice(
            workload_class=cls, count=len(gains), wins=wins, mean_gain=mean_gain
        )
    return out


def advice_report(result: CampaignResult) -> str:
    """Render the conclusion-style recommendation table."""
    advice = advise(result)
    lines = [
        "Compiler advice derived from the campaign (paper's conclusion:",
        '"Fujitsu for Fortran codes, GNU for integer-intensive apps, and',
        'any clang-based compilers for C/C++"):',
        "",
    ]
    for cls in (CLASS_FORTRAN, CLASS_INTEGER, CLASS_C_FP):
        if cls in advice:
            lines.append(f"  - {advice[cls]}")
    # silver bullet check: does any single compiler win everywhere?
    all_wins: dict[str, int] = {}
    total = 0
    for a in advice.values():
        total += a.count
        for v, n in a.wins.items():
            all_wins[v] = all_wins.get(v, 0) + n
    best, best_wins = max(all_wins.items(), key=lambda x: x[1])
    lines.append("")
    if best_wins < total * 0.75:
        lines.append(
            f'  No "silver bullet": the most frequent winner ({best}) takes '
            f"only {best_wins}/{total} benchmarks."
        )
    else:  # pragma: no cover - would contradict the reproduction
        lines.append(f"  {best} wins {best_wins}/{total}: near-universal.")
    return "\n".join(lines)
