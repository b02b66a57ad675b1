"""Static analysis over the kernel IR: the ``repro lint`` subsystem.

The paper's headline anomaly — icc interchanges ``2mm``/``3mm``'s loop
nests where fcc does not, for two orders of magnitude (Fig. 1) — is a
*static* property of the kernels, and its error cells (compile errors,
runtime faults) are precisely the defect class a pre-flight check
catches before burning node-hours.  This package provides that check:

* :mod:`~repro.staticanalysis.diagnostics` — ``Diagnostic`` findings
  with stable rule IDs, severities, and categories, plus the sink;
* :mod:`~repro.staticanalysis.registry` — the rule registry and the
  ``@rule`` plugin decorator;
* :mod:`~repro.staticanalysis.dataflow` — the fixpoint dataflow
  framework (lattices, ``solve_forward``) and the derived
  ``KernelFacts``/``NestFacts`` every rule consumes;
* :mod:`~repro.staticanalysis.rules` — the built-in rules (RACE001,
  BND002, VEC003, INIT004, RED005, OPT010, STRUCT001), all ported
  onto the dataflow facts;
* :mod:`~repro.staticanalysis.divergence` — the cross-compiler
  divergence analyzer (DIV001–DIV005) replaying each compiler model's
  transform gates against the facts, plus per-kernel best-compiler
  recommendations;
* :mod:`~repro.staticanalysis.driver` — ``analyze_kernel`` walking a
  kernel once and dispatching to rules over a memoizing context, with
  an on-disk :class:`~repro.staticanalysis.driver.AnalysisCache`;
* :mod:`~repro.staticanalysis.baseline` — the ratcheted lint gate:
  content-addressed finding identities diffed against a committed
  ``lint-baseline.json`` so CI fails only on *new* findings;
* :mod:`~repro.staticanalysis.sarif` — text / JSON / SARIF 2.1.0
  renderers (physical locations + suggested fixes) for CI ingestion.

Entry points: ``repro lint`` / ``repro advise-static`` on the CLI,
``CampaignConfig.lint_policy`` in campaigns, and ``tools/lint_gate.py``
in CI.  Compilation never runs the analyzer.
"""

from repro import _lazy_exports
from repro.staticanalysis.diagnostics import (
    Category,
    Diagnostic,
    DiagnosticSink,
    LintError,
    Severity,
    dedupe_diagnostics,
    has_at_least,
    max_severity,
)
from repro.staticanalysis.registry import Rule, all_rules, get_rule, rule, select_rules

__all__ = [
    "AnalysisCache",
    "AnalysisContext",
    "Baseline",
    "BaselineDiff",
    "Category",
    "Diagnostic",
    "DiagnosticSink",
    "InterchangeSummary",
    "KernelFacts",
    "LintError",
    "NestFacts",
    "Recommendation",
    "Rule",
    "Severity",
    "StridePattern",
    "VariantPrediction",
    "all_rules",
    "analyze_benchmark",
    "analyze_benchmark_cached",
    "analyze_kernel",
    "analyze_kernel_cached",
    "dedupe_diagnostics",
    "diff_against_baseline",
    "finding_identity",
    "findings_to_json",
    "get_rule",
    "has_at_least",
    "compute_kernel_facts",
    "max_severity",
    "predict_transforms",
    "rank_divergence",
    "recommend_benchmark",
    "recommend_compiler",
    "render_kernel_ir",
    "render_text",
    "rule",
    "select_rules",
    "to_sarif",
    "validate_sarif",
]

__getattr__ = _lazy_exports(__name__, {
    "repro.staticanalysis.baseline": (
        "Baseline",
        "BaselineDiff",
        "diff_against_baseline",
        "finding_identity",
    ),
    "repro.staticanalysis.dataflow": (
        "InterchangeSummary",
        "KernelFacts",
        "NestFacts",
        "StridePattern",
        "compute_kernel_facts",
    ),
    "repro.staticanalysis.divergence": (
        "Recommendation",
        "VariantPrediction",
        "predict_transforms",
        "rank_divergence",
        "recommend_benchmark",
        "recommend_compiler",
    ),
    "repro.staticanalysis.driver": (
        "AnalysisCache",
        "AnalysisContext",
        "analyze_benchmark",
        "analyze_benchmark_cached",
        "analyze_kernel",
        "analyze_kernel_cached",
    ),
    "repro.staticanalysis.sarif": (
        "findings_to_json",
        "render_kernel_ir",
        "render_text",
        "to_sarif",
        "validate_sarif",
    ),
})
