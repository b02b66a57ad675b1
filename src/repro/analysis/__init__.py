"""Result analysis: relative gains, the paper's figures, and the
paper-vs-measured claim evaluation."""

from repro.analysis.advisor import (
    ClassAdvice,
    advice_report,
    advise,
    classify_benchmark,
)
from repro.analysis.compare import CampaignDiff, CellDelta, compare_campaigns
from repro.analysis.figures import Figure1, Figure1Row, figure1, figure2
from repro.analysis.gains import (
    BenchmarkGains,
    SuiteSummary,
    benchmark_gains,
    overall_summary,
    suite_summary,
    summarize,
)
from repro.analysis.heatmap import Heatmap, HeatmapCell, gain_glyph
from repro.analysis.report import (
    ClaimCheck,
    evaluate,
    doctor_markdown,
    experiments_markdown,
    flight_recorder_markdown,
    lint_markdown,
    resilience_markdown,
    shard_markdown,
    tuning_markdown,
)
from repro.analysis.svg import figure1_svg, figure2_svg, gain_color
from repro.analysis.stats import (
    RunSummary,
    coefficient_of_variation,
    geometric_mean,
    percent_improvement,
    run_summary,
    variability_report,
)

__all__ = [
    "BenchmarkGains",
    "CampaignDiff",
    "CellDelta",
    "ClassAdvice",
    "compare_campaigns",
    "advice_report",
    "advise",
    "classify_benchmark",
    "ClaimCheck",
    "Figure1",
    "Figure1Row",
    "Heatmap",
    "HeatmapCell",
    "SuiteSummary",
    "benchmark_gains",
    "coefficient_of_variation",
    "evaluate",
    "doctor_markdown",
    "experiments_markdown",
    "flight_recorder_markdown",
    "lint_markdown",
    "resilience_markdown",
    "shard_markdown",
    "tuning_markdown",
    "figure1",
    "figure1_svg",
    "figure2",
    "figure2_svg",
    "gain_color",
    "gain_glyph",
    "geometric_mean",
    "overall_summary",
    "percent_improvement",
    "RunSummary",
    "run_summary",
    "suite_summary",
    "summarize",
    "variability_report",
]
