"""Integration tests for the CLI and the EXPERIMENTS.md generator."""

import json

import pytest

from repro.analysis import experiments_markdown, flight_recorder_markdown
from repro.cli import main
from repro.harness.results import CampaignResult


class TestExperimentsMarkdown:
    def test_contains_all_claims_and_passes(self, campaign_result, xeon_polybench_result):
        text = experiments_markdown(campaign_result, xeon_polybench_result)
        assert "| id | claim |" in text
        assert "FAIL" not in text.replace("PASS/FAIL", "")
        assert "29/29 claims pass." in text

    def test_without_xeon_reference(self, campaign_result):
        text = experiments_markdown(campaign_result)
        assert "fig1.max" not in text
        assert "overall.median" in text


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "polybench" in out
        assert "108" not in out or True  # just exercise it

    def test_figure1(self, capsys):
        assert main(["figure1"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out
        assert "2mm" in out

    def test_figure2_with_csv(self, capsys, tmp_path):
        csv_path = tmp_path / "fig2.csv"
        assert main(["figure2", "--csv", str(csv_path)]) == 0
        assert csv_path.exists()
        content = csv_path.read_text()
        assert "polybench,polybench.mvt" in content

    def test_run_saves_json(self, capsys, tmp_path):
        out_path = tmp_path / "results.json"
        assert main(["run", "--out", str(out_path)]) == 0
        from repro.harness import CampaignResult

        loaded = CampaignResult.load(out_path)
        assert len(loaded.records) == 540

    def test_report_exit_zero_when_all_pass(self, capsys, tmp_path):
        out_path = tmp_path / "EXP.md"
        assert main(["report", "--out", str(out_path)]) == 0
        assert "claims pass" in out_path.read_text()


class TestCliExtensions:
    def test_show(self, capsys):
        assert main(["show", "polybench.2mm"]) == 0
        out = capsys.readouterr().out
        assert "order=ikj" in out  # LLVM's interchange visible
        assert "order=ijk" in out  # FJtrad's missed interchange visible
        assert "gain=" in out

    def test_show_compiles_through_its_cache(self, capsys, monkeypatch):
        import repro.compilers
        import repro.compilers.registry
        import repro.perf.cost

        assert main(["show", "polybench.2mm"]) == 0
        first = capsys.readouterr().out
        original = repro.compilers.registry.compile_kernel
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[0])
            return original(*args, **kwargs)

        for module in (repro.compilers, repro.compilers.registry, repro.perf.cost):
            monkeypatch.setattr(module, "compile_kernel", counting)
        assert main(["show", "polybench.2mm"]) == 0
        assert calls == []
        assert capsys.readouterr().out == first

    def test_show_failure_cell(self, capsys):
        assert main(["show", "micro.k22"]) == 0
        out = capsys.readouterr().out
        assert "compiler error" in out

    def test_advise(self, capsys):
        assert main(["advise"]) == 0
        out = capsys.readouterr().out
        assert "Fortran codes: use FJtrad" in out
        assert "integer-intensive apps: use GNU" in out
        assert "clang-based" in out
        assert 'No "silver bullet"' in out

    def test_figure1_svg_export(self, capsys, tmp_path):
        svg = tmp_path / "fig1.svg"
        assert main(["figure1", "--svg", str(svg)]) == 0
        assert svg.read_text().startswith("<svg")

    def test_figure2_svg_export(self, capsys, tmp_path):
        svg = tmp_path / "fig2.svg"
        assert main(["figure2", "--svg", str(svg)]) == 0
        assert "compiler error" in svg.read_text()


class TestKernelCommand:
    def test_kernel_file_workflow(self, capsys, tmp_path):
        from repro.ir import kernel_to_json
        from tests.conftest import build_gemm

        path = tmp_path / "k.json"
        path.write_text(kernel_to_json(build_gemm(256)))
        assert main(["kernel", str(path)]) == 0
        out = capsys.readouterr().out
        assert "recommendation: LLVM" in out
        assert "interchange" in out

    def test_kernel_rejects_invalid(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema": 1, "name": "x"}')
        with pytest.raises(Exception):
            main(["kernel", str(path)])

    def test_kernel_time_is_the_campaign_model(self, capsys, tmp_path):
        """A parallel kernel is costed as a one-unit OpenMP benchmark:
        fork/barrier cost and the 2 µs floor included."""
        from repro.compilers import STUDY_VARIANTS
        from repro.ir import kernel_to_json
        from repro.machine import Placement, a64fx
        from repro.perf import benchmark_model
        from repro.suites.base import Benchmark, ParallelKind, WorkUnit
        from repro.units import pretty_seconds
        from tests.conftest import build_stream

        kernel = build_stream()
        path = tmp_path / "triad.json"
        path.write_text(kernel_to_json(kernel))
        assert main(["kernel", str(path), "--threads", "12"]) == 0
        lines = capsys.readouterr().out.splitlines()
        bench = Benchmark(kernel.name, "kernel", kernel.language,
                          (WorkUnit(kernel=kernel),), ParallelKind.OPENMP)
        for variant in STUDY_VARIANTS:
            model = benchmark_model(bench, variant, a64fx(), Placement(1, 12))
            assert model.units[0].omp_overhead_s > 0
            line = next(l for l in lines if l.split()[0] == variant)
            assert line.split()[1:3] == pretty_seconds(model.time_s).split()

    def test_kernel_rejects_threads_beyond_the_node(self, capsys, tmp_path):
        from repro.ir import kernel_to_json
        from tests.conftest import build_stream

        path = tmp_path / "triad.json"
        path.write_text(kernel_to_json(build_stream()))
        assert main(["kernel", str(path), "--threads", "64"]) == 2
        captured = capsys.readouterr()
        assert "--threads 64" in captured.err
        assert captured.out == ""


class TestCliTrace:
    """run --trace/--metrics plus the trace summarize/validate commands."""

    def _run(self, tmp_path, extra=()):
        trace = tmp_path / "trace.json"
        argv = [
            "run", "--benchmark", "micro.k01", "--benchmark", "micro.k02",
            "--variant", "GNU", "--variant", "LLVM",
            "--cache-dir", str(tmp_path / "cache"),
            "--trace", str(trace), *extra,
        ]
        assert main(argv) == 0
        return trace

    def test_trace_file_validates(self, capsys, tmp_path):
        trace = self._run(tmp_path)
        assert trace.exists()
        assert main(["trace", "validate", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "valid Chrome trace_event file" in out
        doc = json.loads(trace.read_text())
        names = {e["name"] for e in doc["traceEvents"] if e.get("ph") == "X"}
        assert {"campaign", "cell", "compile", "simulate"} <= names

    def test_trace_validate_rejects_junk(self, capsys, tmp_path):
        junk = tmp_path / "junk.json"
        junk.write_text(json.dumps({"nope": 1}))
        assert main(["trace", "validate", str(junk)]) == 1

    def test_trace_summarize(self, capsys, tmp_path):
        trace = self._run(tmp_path)
        capsys.readouterr()
        assert main(["trace", "summarize", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "campaign flight recorder" in out
        assert "parallel efficiency" in out
        assert "cache hit rate" in out

    def test_metrics_prints_flight_report(self, capsys, tmp_path):
        self._run(tmp_path, extra=["--metrics"])
        out = capsys.readouterr().out
        assert "campaign flight recorder" in out
        assert "cache hit rate" in out
        # --metrics without --out suppresses the raw result JSON dump.
        assert '"records"' not in out

    def test_span_log_jsonl(self, capsys, tmp_path):
        log = tmp_path / "spans.jsonl"
        self._run(tmp_path, extra=["--span-log", str(log)])
        lines = [json.loads(l) for l in log.read_text().splitlines()]
        assert lines[-1]["kind"] == "metrics"
        assert any(l.get("name") == "campaign" for l in lines)

    def test_saved_result_renders_flight_recorder(self, capsys, tmp_path):
        out_path = tmp_path / "result.json"
        self._run(tmp_path, extra=["--out", str(out_path)])
        result = CampaignResult.load(out_path)
        section = flight_recorder_markdown(result)
        assert "## Campaign flight recorder" in section
        assert "parallel efficiency" in section
        # Results saved without telemetry render no section at all.
        assert flight_recorder_markdown(CampaignResult(machine="A64FX")) == ""


class TestCliLint:
    def test_polybench_flags_2mm_3mm_interchange(self, capsys):
        assert main(["lint", "--suite", "polybench"]) == 0
        out = capsys.readouterr().out
        assert "OPT010" in out
        assert "[2mm/" in out and "[3mm/" in out
        assert "icc does, fcc does not" in out
        assert "finding(s):" in out

    def test_single_benchmark_rule_filter(self, capsys):
        assert main(["lint", "--benchmark", "polybench.2mm",
                     "--rule", "OPT010"]) == 0
        out = capsys.readouterr().out
        assert "OPT010" in out
        assert "VEC003" not in out

    def test_sarif_output_validates(self, capsys, tmp_path):
        from repro.staticanalysis import validate_sarif

        path = tmp_path / "lint.sarif"
        assert main(["lint", "--suite", "polybench", "--format", "sarif",
                     "--out", str(path)]) == 0
        doc = json.loads(path.read_text())
        assert validate_sarif(doc) == []
        assert any(
            r["ruleId"] == "OPT010"
            for r in doc["runs"][0]["results"]
        )

    def test_json_output(self, capsys):
        assert main(["lint", "--benchmark", "polybench.2mm",
                     "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert any(f["rule"] == "OPT010" for f in doc["findings"])

    def test_fail_on_warning_trips_on_findings(self, capsys):
        assert main(["lint", "--benchmark", "polybench.2mm",
                     "--fail-on", "warning"]) == 1
        err = capsys.readouterr().err
        assert "lint gate" in err

    def test_fail_on_error_passes_clean_suites(self, capsys):
        # The shipped suites must stay free of ERROR-severity findings
        # (this is the CI lint gate's invariant).
        assert main(["lint", "--fail-on", "error"]) == 0


class TestAdviseStatic:
    def test_names_the_cost_models_fastest_variant(self, capsys):
        """On every benchmark, ``advise-static`` recommends the variant
        the noise-free cost model finds fastest (first in Figure 2
        order on ties), and shows failed builds as failed."""
        import re

        from repro.perf.batch import evaluate_grid

        fastest: dict[str, tuple[str, float]] = {}
        for cell in evaluate_grid().cells:
            time_s = cell.best.time_s
            if cell.benchmark not in fastest or time_s < fastest[cell.benchmark][1]:
                fastest[cell.benchmark] = (cell.variant, time_s)

        assert main(["advise-static"]) == 0
        out = capsys.readouterr().out
        advised = dict(re.findall(r"^(\S+): use (\S+)$", out, re.MULTILINE))
        assert len(advised) == 108
        assert advised == {bench: v for bench, (v, _) in fastest.items()}
        k22 = out.split("micro.k22: use ")[1].split("\n")
        assert any(
            "FJclang" in line and "failed (compile-error)" in line for line in k22[:6]
        )


class TestCliTune:
    def test_list_scenarios(self, capsys):
        assert main(["tune", "--list-scenarios"]) == 0
        out = capsys.readouterr().out
        assert "gemm-int8-sdot" in out
        assert "placement:" in out

    def test_gemm_default_rediscovers_and_saves(self, capsys, tmp_path):
        out_path = tmp_path / "tune.json"
        assert main(["tune", "--out", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "mr=6,nr=4,kc=256,unroll=2" in out
        assert "rediscovered" in out
        doc = json.loads(out_path.read_text())
        assert doc["best"]["label"] == "mr=6,nr=4,kc=256,unroll=2"
        assert doc["complete"] is True

    def test_placement_scenario_grid(self, capsys):
        assert main([
            "tune", "--scenario", "placement:polybench.gemm:GNU",
            "--strategy", "grid",
        ]) == 0
        assert "placement=1x1" in capsys.readouterr().out

    def test_metrics_prints_counters(self, capsys):
        assert main(["tune", "--strategy", "random", "--samples", "12",
                     "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "tuner.evaluations" in out

    def test_resume_round_trip(self, capsys, tmp_path):
        argv = ["tune", "--strategy", "random", "--samples", "12",
                "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        # the rerun answers every candidate from the cache, same winner
        assert "effort    0 evaluations, 12 from cache" in second
        best_lines = [l for l in first.splitlines() if l.startswith("best")]
        assert best_lines and best_lines[0] in second
        # a killed search is rerun: there is nothing to resume
        with pytest.raises(SystemExit) as exit_info:
            main(argv + ["--resume"])
        assert exit_info.value.code == 2


class TestTuningReport:
    @pytest.fixture(scope="class")
    def tune_result(self):
        from repro.api import TuneSpec, run_tune

        return run_tune(TuneSpec())

    def test_section_contents(self, tune_result):
        from repro.analysis import tuning_markdown

        text = tuning_markdown(tune_result)
        assert "## Auto-tuning" in text
        assert "`mr=6,nr=4,kc=256,unroll=2`" in text
        assert "rediscovered" in text
        assert "| rung | configs | trials | best | score |" in text

    def test_none_renders_empty(self):
        from repro.analysis import tuning_markdown

        assert tuning_markdown(None) == ""

    def test_experiments_markdown_appends_section(
        self, campaign_result, tune_result
    ):
        text = experiments_markdown(campaign_result, tune=tune_result)
        assert "## Auto-tuning" in text
        # the tuning section sits after the claim table
        assert text.index("| id | claim |") < text.index("## Auto-tuning")
