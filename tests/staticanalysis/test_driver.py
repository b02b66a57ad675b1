"""Tests for the analysis driver: context memoization, caching,
telemetry integration, and benchmark-level analysis."""

import dataclasses
import pickle

from repro import telemetry
from repro.ir import KernelBuilder, Language, read, write
from repro.machine import a64fx, xeon
from repro.staticanalysis import (
    AnalysisContext,
    Severity,
    analyze_benchmark,
    analyze_kernel,
    max_severity,
    select_rules,
)
from repro.staticanalysis.driver import (
    FINDINGS_COUNTER_PREFIX,
    analyze_benchmark_cached,
    analyze_kernel_cached,
    worst_severity,
)
from repro.suites import get_benchmark
from repro.telemetry import SPAN_LINT, Telemetry


def racy_kernel(name="racy", n=64):
    b = KernelBuilder(name, Language.C)
    b.array("a", (n,))
    b.nest(
        [("i", 1, n)],
        [b.stmt(write("a", "i"), read("a", "i-1"), fadd=1)],
        parallel=("i",),
    )
    return b.build()


class TestAnalyzeKernel:
    def test_findings_bound_to_kernel(self):
        findings = analyze_kernel(racy_kernel())
        assert findings
        assert all(f.kernel == "racy" for f in findings)

    def test_rule_filter(self):
        findings = analyze_kernel(
            racy_kernel(), rules=select_rules(["RACE001"])
        )
        assert findings
        assert {f.rule_id for f in findings} == {"RACE001"}

    def test_shared_context_memoizes_deps(self):
        ctx = AnalysisContext()
        kernel = racy_kernel()
        analyze_kernel(kernel, ctx=ctx)
        cached = dict(ctx._deps)
        analyze_kernel(kernel, ctx=ctx)
        # Second walk reuses the same dependence sets (same id keys).
        assert dict(ctx._deps) == cached

    def test_machine_parameter(self):
        # Both machine models must produce findings for the racy kernel.
        assert analyze_kernel(racy_kernel(), machine=a64fx())
        assert analyze_kernel(racy_kernel(), machine=xeon())


class TestCachedEntryPoints:
    def test_kernel_cache_identity(self):
        kernel = racy_kernel()
        machine = a64fx()
        first = analyze_kernel_cached(kernel, machine)
        assert analyze_kernel_cached(kernel, machine) is first

    def test_kernel_cache_keyed_by_machine(self):
        kernel = racy_kernel()
        first = analyze_kernel_cached(kernel, a64fx())
        other = analyze_kernel_cached(kernel, xeon())
        assert first is not other

    def test_memos_keyed_by_machine_content_not_name(self):
        # Same name, other parameters: 64 B L1 lines instead of 256 B.
        bench = get_benchmark("polybench.gemm")
        base = a64fx()
        l1, *rest = base.cache_levels
        narrow = dataclasses.replace(
            base, cache_levels=(dataclasses.replace(l1, line_bytes=64), *rest))
        assert narrow.name == base.name
        analyze_benchmark_cached(bench, base)
        expected = analyze_benchmark(bench, machine=narrow)
        assert expected != analyze_benchmark(bench, machine=base)
        assert analyze_benchmark_cached(bench, narrow) == expected
        (kernel,) = bench.kernels()
        assert analyze_kernel_cached(kernel, narrow) == analyze_kernel(
            kernel, machine=narrow)

    def test_benchmark_cache_identity(self):
        bench = get_benchmark("polybench.2mm")
        machine = a64fx()
        first = analyze_benchmark_cached(bench, machine)
        assert analyze_benchmark_cached(bench, machine) is first
        assert any(f.rule_id == "OPT010" for f in first)

    def test_no_duplicates_on_warm_memo_reemission(self):
        """Regression: re-analyzing a benchmark through the memoized
        entry point used to re-emit each shared kernel's findings once
        per arrival, doubling the report on warm caches."""
        bench = get_benchmark("polybench.2mm")
        machine = a64fx()
        cold = analyze_benchmark_cached(bench, machine)
        warm = analyze_benchmark_cached(bench, machine)
        assert warm == cold
        assert len(set(warm)) == len(warm), "duplicate findings re-emitted"


class TestKernelMemoBound:
    def test_fresh_kernel_copies_stay_bounded(self, monkeypatch):
        # A long-lived pool worker unpickles fresh kernels for every
        # chunk; the memo must not keep all of them.
        from repro.staticanalysis import driver as driver_mod

        monkeypatch.setattr(driver_mod._KERNEL_DIAGNOSTICS, "maxsize", 8)
        driver_mod._KERNEL_DIAGNOSTICS.clear()
        payload = pickle.dumps(racy_kernel())
        machine = a64fx()
        first = analyze_kernel_cached(pickle.loads(payload), machine)
        for _ in range(19):
            assert analyze_kernel_cached(pickle.loads(payload), machine) == first
        assert len(driver_mod._KERNEL_DIAGNOSTICS) <= 8


class TestAnalyzeBenchmark:
    def test_2mm_flags_interchange(self):
        findings = analyze_benchmark(get_benchmark("polybench.2mm"))
        opt = [f for f in findings if f.rule_id == "OPT010"]
        assert opt, "the paper's 2mm interchange anomaly must be flagged"
        assert all("icc does, fcc does not" in f.message for f in opt)

    def test_3mm_flags_interchange(self):
        findings = analyze_benchmark(get_benchmark("polybench.3mm"))
        assert any(f.rule_id == "OPT010" for f in findings)


class TestTelemetry:
    def test_span_and_counters(self):
        recorder = Telemetry()
        with telemetry.active(recorder):
            analyze_kernel(racy_kernel())
        spans = [s for s in recorder.spans if s.name == SPAN_LINT]
        assert spans and spans[0].attrs["kernel"] == "racy"
        counters = recorder.metrics.snapshot()["counters"]
        race_counter = FINDINGS_COUNTER_PREFIX + "RACE001"
        assert counters.get(race_counter, 0) >= 1


class TestTelemetryParity:
    def test_memo_hit_records_the_spans_of_a_cold_analysis(self):
        """A cold analysis compiles each study variant once per kernel
        (one ``compile`` span each); a memo hit makes the same memoized
        compile calls, so its span population is the cold one's."""
        from collections import Counter

        from repro.compilers import STUDY_VARIANTS
        from repro.staticanalysis import driver as driver_mod

        bench, machine = get_benchmark("polybench.2mm"), a64fx()
        driver_mod._BENCH_DIAGNOSTICS.clear()
        driver_mod._KERNEL_DIAGNOSTICS.clear()
        populations = []
        for _ in range(2):  # cold, then memo-warm
            recorder = Telemetry()
            with telemetry.active(recorder):
                analyze_benchmark_cached(bench, machine)
            populations.append(Counter(s.name for s in recorder.spans))
        cold, warm = populations
        assert cold["compile"] == len(STUDY_VARIANTS) * len(bench.kernels())
        assert cold[SPAN_LINT] == len(bench.kernels())
        assert warm == cold


class TestWorstSeverity:
    def test_matches_max_severity(self):
        findings = analyze_kernel(racy_kernel())
        assert worst_severity(findings) is max_severity(findings)
        assert worst_severity(findings) is Severity.ERROR
        assert worst_severity(()) is None
