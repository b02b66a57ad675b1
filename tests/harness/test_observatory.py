"""Tests for the campaign observatory's read side: ``campaign_status``
over live sharded journals, the campaign doctor over chaos journals,
and the ``status`` / ``doctor`` CLI subcommands."""

import json

import pytest

from repro.cli import main as cli_main
from repro.faults import FaultPlan, FaultRule
from repro.harness.engine import CampaignEngine
from repro.harness.observatory import (
    CLUSTER_MIN,
    DoctorFinding,
    DoctorReport,
    _cell_group,
    campaign_status,
    diagnose,
    doctor_from_cache_dir,
    render_doctor,
    render_status,
)
from repro.harness.results import STATUS_COMPILE_ERROR, STATUS_OK, RunRecord
from repro.suites import get_suite, micro_suite
from repro.telemetry import Telemetry
from repro.telemetry.history import HistorySample


def _engine(machine, **kwargs):
    kwargs.setdefault("suites", (get_suite("micro"),))
    kwargs.setdefault("variants", ("GNU", "LLVM"))
    kwargs.setdefault("retry_backoff_s", 0.0)
    return CampaignEngine(machine, **kwargs)


def _record(name="micro.k01", variant="GNU", status=STATUS_OK):
    return RunRecord(
        benchmark=name, suite=name.split(".", 1)[0], variant=variant,
        ranks=1, threads=48,
        runs=(0.1,) * 3 if status == STATUS_OK else (),
        status=status,
    )


def _sample(t=1.0, completed=1, total=4, **kw):
    defaults = dict(
        t=t, elapsed_s=t, completed=completed, total=total,
        executed=completed, cache_hits=0, failures=0,
        retried=0, throughput_cps=completed / t, eta_s=None,
        cache_hit_rate=None,
    )
    defaults.update(kw)
    return HistorySample(**defaults)


CELLS = len(micro_suite().benchmarks) * 2  # two variants


# -- campaign status -------------------------------------------------------


class TestCampaignStatus:
    def test_none_without_journals(self, tmp_path):
        assert campaign_status(tmp_path) is None

    def test_mid_run_sharded_campaign(self, a64fx_machine, tmp_path):
        _engine(a64fx_machine, shard=(1, 2), cache_dir=tmp_path,
                telemetry=Telemetry()).run()
        status = campaign_status(tmp_path)
        assert status is not None
        assert not status.complete
        assert status.total == CELLS
        assert 0 < status.completed < CELLS
        # Shard 1's journal is the only one; it finished its slice.
        (shard,) = status.shards
        assert shard.shard == (1, 2)
        assert shard.finished
        assert shard.completed == shard.assigned == status.completed
        # Rates come from the shard's metrics history.
        assert status.throughput_cps is not None
        assert status.throughput_cps > 0
        assert shard.throughput_cps == status.throughput_cps
        # The missing half belongs to a shard that never journaled, so
        # no unfinished shard contributes capacity: no ETA claim.
        assert status.eta_s is None

        text = render_status(status)
        assert "[in progress]" in text
        assert f"missing: {CELLS - status.completed} cell(s)" in text
        assert "shard   1/2" in text

    def test_completed_campaign(self, a64fx_machine, tmp_path):
        for index in (1, 2):
            _engine(a64fx_machine, shard=(index, 2), cache_dir=tmp_path,
                    telemetry=Telemetry()).run()
        status = campaign_status(tmp_path)
        assert status is not None
        assert status.complete
        assert status.completed == status.total == CELLS
        assert len(status.shards) == 2
        assert all(sp.finished for sp in status.shards)
        assert status.executed == CELLS
        assert "[complete]" in render_status(status)

    def test_resumed_run_reports_cache_hits(self, a64fx_machine, tmp_path):
        _engine(a64fx_machine, cache_dir=tmp_path,
                telemetry=Telemetry()).run()
        _engine(a64fx_machine, cache_dir=tmp_path,
                telemetry=Telemetry()).run()  # every cell a cache hit
        status = campaign_status(tmp_path)
        assert status is not None
        assert status.cache_hit_rate == pytest.approx(1.0)
        assert "cache-hit rate 100.0%" in render_status(status)

    def test_status_without_history_degrades(self, a64fx_machine, tmp_path):
        _engine(a64fx_machine, cache_dir=tmp_path,
                telemetry=Telemetry()).run()
        for path in tmp_path.glob("history*.jsonl"):
            path.unlink()
        status = campaign_status(tmp_path)
        assert status is not None
        assert status.complete
        assert status.throughput_cps is None
        assert status.eta_s is None
        assert status.cache_hit_rate is None
        assert "no metrics history found" in render_status(status)


# -- the doctor: unit ------------------------------------------------------


class TestCellGroup:
    def test_suite_and_variant(self):
        assert _cell_group("polybench.2mm/GNU") == ("polybench", "GNU")

    def test_bare_benchmark(self):
        assert _cell_group("standalone/LLVM") == ("standalone", "LLVM")

    def test_no_variant_is_not_a_cell(self):
        assert _cell_group("not-a-cell") is None


class TestDiagnose:
    def test_healthy_campaign(self):
        report = diagnose([_record()])
        (finding,) = report.findings
        assert finding.category == "healthy"
        assert report.worst == "info"
        assert report.cells == 1
        assert report.failures == 0

    def test_retry_cluster_from_history_samples(self):
        samples = [
            _sample(t=float(i), event="cell-retried",
                    cell=f"micro.k0{i}/GNU")
            for i in range(1, CLUSTER_MIN + 1)
        ]
        report = diagnose([], samples=samples)
        (cluster,) = report.by_category("retry-cluster")
        assert cluster.severity == "warning"
        assert "micro/GNU" in cluster.title
        assert f"{CLUSTER_MIN} retries" in cluster.title

    def test_single_retry_is_noise_not_cluster(self):
        samples = [_sample(event="cell-retried", cell="micro.k01/GNU")]
        report = diagnose([], samples=samples)
        assert not report.by_category("retry-cluster")

    def test_failure_cluster_is_critical(self):
        records = [
            _record("micro.k01", status=STATUS_COMPILE_ERROR),
            _record("micro.k02", status=STATUS_COMPILE_ERROR),
        ]
        report = diagnose(records)
        (cluster,) = report.by_category("failure-cluster")
        assert cluster.severity == "critical"
        assert "micro" in cluster.title
        assert report.worst == "critical"
        assert report.failures == 2

    def test_accepts_mapping_of_records(self):
        records = {("micro.k01", "GNU"): _record()}
        assert diagnose(records).cells == 1

    def test_slow_phases_from_metrics(self):
        metrics = {"histograms": {
            "runner.explore_s": {"total": 9.0, "count": 3},
            "runner.perf_s": {"total": 1.0, "count": 10},
        }}
        report = diagnose([], metrics=metrics)
        phases = report.by_category("slow-phase")
        assert [p.title.split()[1].rstrip(":") for p in phases][:1] == \
            ["runner.explore_s"]  # sorted by total time, slowest first
        assert "mean 3.0000s" in phases[0].detail

    def test_write_errors_surface(self):
        metrics = {"counters": {"history.write_error": 2}}
        report = diagnose([], metrics=metrics)
        (finding,) = report.by_category("write-error")
        assert finding.severity == "warning"
        assert "history.write_error" in finding.title

    def test_every_write_error_counter_surfaces(self):
        metrics = {"counters": {
            "analysis_cache.write_error": 1,
            "service.registry.write_error": 3,
            "cell_cache.put": 5,
        }}
        report = diagnose([], metrics=metrics)
        titles = [f.title for f in report.by_category("write-error")]
        assert titles == [
            "analysis_cache.write_error: 1 failed write(s)",
            "service.registry.write_error: 3 failed write(s)",
        ]

    def test_cache_collapse_between_runs(self):
        runs = [
            ({"fingerprint": "fp"}, [_sample(cache_hit_rate=0.9)]),
            ({"fingerprint": "fp"}, [_sample(cache_hit_rate=0.1)]),
        ]
        report = diagnose([], runs=runs)
        (finding,) = report.by_category("cache-collapse")
        assert "90% -> 10%" in finding.title

    def test_steady_cache_rate_is_fine(self):
        runs = [
            ({}, [_sample(cache_hit_rate=0.9)]),
            ({}, [_sample(cache_hit_rate=0.8)]),
        ]
        assert not diagnose([], runs=runs).by_category("cache-collapse")

    def test_throughput_below_baseline(self):
        baseline = {
            "scenarios": {"cold_serial_s": 1.0},
            "grid": {"suites": ["micro"], "variants": ["GNU"]},
        }
        samples = [_sample(throughput_cps=0.01)]
        report = diagnose([], samples=samples, baseline=baseline)
        (finding,) = report.by_category("throughput")
        assert "below the bench baseline" in finding.title

    def test_meta_timeouts_and_worker_loss(self):
        report = diagnose([], meta={"timeouts": 2, "cell_timeout_s": 5,
                                    "worker_restarts": 1})
        assert report.by_category("timeouts")
        assert report.by_category("worker-loss")
        assert report.worst == "warning"

    def test_render_lists_every_finding(self):
        report = DoctorReport(findings=(
            DoctorFinding("info", "healthy", "all good"),
            DoctorFinding("critical", "failure-cluster", "bad",
                          detail="details here"),
        ), cells=4, failures=2)
        text = render_doctor(report)
        assert "[worst: critical]" in text
        assert "!! [failure-cluster] bad" in text
        assert "details here" in text


# -- the doctor: over a chaos campaign's cache directory -------------------


#: Permanent compile faults on two GNU cells (a failure cluster) plus
#: healing transient run faults on every LLVM cell (a retry cluster).
CHAOS = FaultPlan(seed=7, rules=(
    FaultRule(site="compile", benchmark="micro.k01", variant="GNU",
              first_attempts=None),
    FaultRule(site="compile", benchmark="micro.k02", variant="GNU",
              first_attempts=None),
    FaultRule(site="run", benchmark="micro.*", variant="LLVM",
              transient=True, first_attempts=1),
))


class TestDoctorFromCacheDir:
    def test_none_without_journals(self, tmp_path):
        assert doctor_from_cache_dir(tmp_path) is None

    @pytest.fixture()
    def chaos_dir(self, a64fx_machine, tmp_path):
        _engine(a64fx_machine, fault_plan=CHAOS, max_retries=2,
                cache_dir=tmp_path, telemetry=Telemetry()).run()
        return tmp_path

    def test_flags_injected_chaos(self, chaos_dir):
        report = doctor_from_cache_dir(chaos_dir)
        assert report is not None

        (retries,) = report.by_category("retry-cluster")
        assert "micro/LLVM" in retries.title

        # The plan's permanent compile faults cluster; the suite's own
        # modeled GNU runtime faults may form a second cluster beside it.
        (failures,) = [f for f in report.by_category("failure-cluster")
                       if "compiler error" in f.title]
        assert "2 'compiler error' cell(s)" in failures.title
        assert "micro.k01/GNU" in failures.detail
        assert report.worst == "critical"
        # The sharded-latest metrics aggregation feeds the phase view.
        assert report.by_category("slow-phase")

    def test_healthy_run_has_no_clusters(self, a64fx_machine, tmp_path):
        # LLVM only: the micro suite's modeled GNU compiler faults
        # would otherwise form a genuine failure cluster.
        _engine(a64fx_machine, variants=("LLVM",), cache_dir=tmp_path,
                telemetry=Telemetry()).run()
        report = doctor_from_cache_dir(tmp_path)
        assert report is not None
        assert not report.by_category("retry-cluster")
        assert not report.by_category("failure-cluster")
        assert report.worst == "info"

    def test_baseline_feeds_throughput_check(self, chaos_dir):
        # An absurdly fast baseline forces the throughput finding: the
        # join between history samples and the bench baseline works.
        baseline = {
            "scenarios": {"cold_serial_s": 1e-9},
            "grid": {"suites": ["micro"], "variants": ["GNU", "LLVM"]},
        }
        report = doctor_from_cache_dir(chaos_dir, baseline=baseline)
        assert report is not None
        assert report.by_category("throughput")


# -- CLI -------------------------------------------------------------------


class TestStatusCli:
    def test_no_campaign_exits_2(self, tmp_path, capsys):
        assert cli_main(["status", "--cache-dir", str(tmp_path)]) == 2
        assert "no campaign journals" in capsys.readouterr().err

    def test_mid_run_exits_1_and_renders(self, a64fx_machine, tmp_path,
                                         capsys):
        _engine(a64fx_machine, shard=(1, 2), cache_dir=tmp_path,
                telemetry=Telemetry()).run()
        rc = cli_main(["status", "--cache-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "[in progress]" in out

    def test_complete_exits_0_and_json_parses(self, a64fx_machine,
                                              tmp_path, capsys):
        _engine(a64fx_machine, cache_dir=tmp_path,
                telemetry=Telemetry()).run()
        rc = cli_main(["status", "--cache-dir", str(tmp_path), "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert doc["completed"] == doc["total"] == CELLS
        assert doc["shards"][0]["finished"] is True


class TestDoctorCli:
    def test_no_campaign_exits_2(self, tmp_path, capsys):
        assert cli_main(["doctor", "--cache-dir", str(tmp_path)]) == 2
        capsys.readouterr()

    def test_chaos_campaign_exits_1_with_findings(
        self, a64fx_machine, tmp_path, capsys
    ):
        _engine(a64fx_machine, fault_plan=CHAOS, max_retries=2,
                cache_dir=tmp_path, telemetry=Telemetry()).run()
        rc = cli_main(["doctor", "--cache-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 1  # critical findings exit non-zero
        assert "[failure-cluster]" in out
        assert "[retry-cluster]" in out

    def test_healthy_campaign_exits_0(self, a64fx_machine, tmp_path,
                                      capsys):
        _engine(a64fx_machine, variants=("LLVM",), cache_dir=tmp_path,
                telemetry=Telemetry()).run()
        rc = cli_main(["doctor", "--cache-dir", str(tmp_path), "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert doc["cells"] == CELLS // 2
