"""Tests for the cross-compiler divergence rules.

The headline assertions mirror the paper: DIV001 must reproduce the
2mm/3mm interchange diagnosis (fcc keeps ijk, the others reorder),
DIV002 the mvt dead-code outlier.  The rules read the compiled kernels,
so each one must follow its compiler pass: with the pass switched off,
its finding changes."""

import pickle

import pytest

from repro.compilers.passes.dce import DeadCodeEliminationPass
from repro.compilers.passes.interchange import InterchangePass
from repro.compilers.passes.polyhedral import PolyhedralPass
from repro.compilers.passes.vectorize import VectorizePass
from repro.staticanalysis import AnalysisContext, analyze_kernel
from repro.staticanalysis.divergence import DIVERGENCE_RULES, rank_divergence
from repro.suites import get_benchmark


def _kernel(full_name, kernel_name=None):
    bench = get_benchmark(full_name)
    kernels = list(bench.kernels())
    if kernel_name is None:
        return kernels[0]
    return next(k for k in kernels if k.name == kernel_name)


def _div_findings(kernel, ctx=None):
    ctx = ctx or AnalysisContext()
    return [
        d for d in analyze_kernel(kernel, ctx=ctx)
        if d.rule_id in DIVERGENCE_RULES
    ]


def _rule_findings(full_name, rule_id):
    return [
        d for d in _div_findings(_kernel(full_name)) if d.rule_id == rule_id
    ]


class TestDivergenceRules:
    def test_div001_reproduces_the_paper_2mm_diagnosis(self):
        findings = [
            d for d in _div_findings(_kernel("polybench.2mm"))
            if d.rule_id == "DIV001"
        ]
        assert len(findings) == 2  # both nests
        message = findings[0].message
        assert "FJtrad" in message and "FJclang" in message
        assert "ijk" in message and "ikj" in message
        assert "2mm/3mm" in message
        assert "rewrite the nest as ikj" in findings[0].hint

    def test_div001_fires_on_3mm_too(self):
        findings = [
            d for d in _div_findings(_kernel("polybench.3mm"))
            if d.rule_id == "DIV001"
        ]
        assert len(findings) == 3

    def test_div002_mvt_outlier(self):
        findings = [
            d for d in _div_findings(_kernel("polybench.mvt"))
            if d.rule_id == "DIV002"
        ]
        assert len(findings) == 1
        assert "LLVM+Polly" in findings[0].message
        assert "mvt outlier" in findings[0].message

    def test_div003_compile_error_and_fault(self):
        k22 = [
            d for d in _div_findings(_kernel("micro.k22"))
            if d.rule_id == "DIV003"
        ]
        assert any("FJclang" in d.message for d in k22)
        k03 = [
            d for d in _div_findings(_kernel("micro.k03"))
            if d.rule_id == "DIV003"
        ]
        assert any("GNU" in d.message for d in k03)

    def test_div004_durbin_vectorization_split(self):
        """FJ vectorizes durbin in place; GNU/LLVM interchange into a
        carried dependence and lose SIMD (the 8x empirical gap), and
        the finding names the vectorizer's reason."""
        (finding,) = _rule_findings("polybench.durbin", "DIV004")
        assert "vectorizes under FJclang, FJtrad" in finding.message
        assert "scalar under GNU, LLVM, LLVM+Polly" in finding.message
        assert "(carried dependence blocks SIMD)" in finding.message

    def test_fused_nest_is_compared_through_its_host(self):
        """LLVM+Polly fuses adi's second nest into its first and tiles
        the result, so the second nest's statements run tiled."""
        nests = {d.nest for d in _rule_findings("polybench.adi", "DIV005")}
        assert {"nest0", "nest1"} <= nests

    def test_fused_nest_reports_its_hosts_reuse(self):
        """gramschmidt's second nest scores 0.00, below the tiling
        threshold; LLVM+Polly tiled it as part of nest0, for nest0's
        reuse, and the finding says so."""
        (finding,) = [d for d in _rule_findings("polybench.gramschmidt", "DIV005")
                      if d.nest == "nest1"]
        assert "as part of nest0, which it was fused into" in finding.message
        assert "(nest0's temporal reuse 0.67)" in finding.message
        assert "0.00" not in finding.message

    def test_ranking_puts_incidents_before_notes(self):
        ctx = AnalysisContext()
        findings = []
        for name in ("polybench.mvt", "polybench.2mm"):
            findings.extend(_div_findings(_kernel(name), ctx))
        ranked = rank_divergence(findings)
        assert ranked[0].rule_id == "DIV002"
        ids = [d.rule_id for d in ranked]
        assert ids.index("DIV001") < ids.index("DIV005")

    def test_rules_are_registered(self):
        from repro.staticanalysis import all_rules

        ids = {r.rule_id for r in all_rules()}
        assert set(DIVERGENCE_RULES) <= ids


def _movers(message):
    """The variants a DIV001 message names as reordering the nest."""
    return set(message.split(" while ")[1].split(" reorder to ")[0].split(", "))


def _no_gnu_or_llvm_reorder(findings):
    return bool(findings) and all(
        not {"GNU", "LLVM"} & _movers(d.message) for d in findings
    )


#: (pass switched off, benchmark, rule, holds on the findings after).
FOLLOWS_ITS_PASS = [
    (InterchangePass, "polybench.2mm", "DIV001", _no_gnu_or_llvm_reorder),
    (VectorizePass, "polybench.durbin", "DIV004", lambda found: not found),
    (PolyhedralPass, "polybench.2mm", "DIV005", lambda found: not found),
    (DeadCodeEliminationPass, "polybench.mvt", "DIV002", lambda found: not found),
]


@pytest.mark.parametrize(
    "pass_cls, bench, rule_id, holds",
    FOLLOWS_ITS_PASS,
    ids=[case[0].__name__ for case in FOLLOWS_ITS_PASS],
)
def test_each_div_rule_follows_its_pass(monkeypatch, pass_cls, bench, rule_id, holds):
    """A DIV rule reports what the compiler models did: switch a pass
    off and its finding follows.  The kernel is a fresh copy, so the
    identity-keyed compile memo cannot answer with a compile made while
    the pass still ran."""
    assert _rule_findings(bench, rule_id)
    monkeypatch.setattr(pass_cls, "run", lambda self, info, ctx: None)
    kernel = pickle.loads(pickle.dumps(_kernel(bench)))
    found = [d for d in _div_findings(kernel) if d.rule_id == rule_id]
    assert holds(found), found
