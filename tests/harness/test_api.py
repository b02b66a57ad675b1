"""Tests for the public API (repro.api) and the result schema
versioning that supports it."""

import json
from dataclasses import asdict, fields

import pytest

import repro
from repro.api import CampaignConfig, CampaignSession, EventKind
from repro.errors import HarnessError
from repro.harness import (
    RESULT_SCHEMA_VERSION,
    CampaignResult,
    RunRecord,
)
from repro.faults.taxonomy import FailureInfo, RetryStep
from repro.harness.results import (
    STATUS_OK,
    STATUS_TIMEOUT,
    record_from_dict,
    record_to_dict,
)
from repro.staticanalysis.diagnostics import Category, Diagnostic, Severity


def _asdict_record(record, *, compact=True):
    """``record_to_dict`` as it was written with ``dataclasses.asdict``:
    the reference the field-by-field form must equal."""
    raw = asdict(record)
    raw["lint"] = [d.to_dict() for d in record.lint]
    raw["failure"] = record.failure.to_dict() if record.failure else None
    if compact:
        for optional in ("exploration", "diagnostics", "lint"):
            if not raw[optional]:
                del raw[optional]
        if raw["failure"] is None:
            del raw["failure"]
        if raw["status"] == STATUS_OK:
            del raw["status"]
    return raw


class TestCampaignConfig:
    def test_defaults(self):
        cfg = CampaignConfig()
        assert cfg.workers == 1
        assert cfg.cache_dir is None
        # A killed campaign is rerun on its cache dir: nothing to resume.
        assert "resume" not in {f.name for f in fields(cfg)}
        assert len(cfg.variants) == 5

    def test_with_(self):
        cfg = CampaignConfig().with_(workers=4, suites=("micro",))
        assert cfg.workers == 4 and cfg.suites == ("micro",)
        assert CampaignConfig().workers == 1  # original untouched

    def test_top_level_reexports(self):
        assert repro.CampaignSession is CampaignSession
        assert repro.CampaignConfig is CampaignConfig
        assert repro.EventKind is EventKind

    def test_tuning_exports(self):
        import repro.api as api
        import repro.tuning as tuning

        assert api.TuneSpec is tuning.TuneSpec
        assert api.TuneResult is tuning.TuneResult
        assert api.run_tune is tuning.run_tune
        assert "TuneSpec" in api.__all__ and "run_tune" in api.__all__


class TestCampaignSession:
    def test_run_restricted_campaign(self):
        session = CampaignSession(
            CampaignConfig(suites=("top500",), variants=("GNU", "LLVM"))
        )
        result = session.run()
        assert len(result.records) == 6
        assert result is session.result
        assert result.meta["workers"] == 1

    def test_keyword_overrides(self):
        session = CampaignSession(benchmarks=("micro.k01",), variants=("GNU",))
        result = session.run()
        assert list(result.records) == [("micro.k01", "GNU")]

    def test_machine_by_name(self):
        session = CampaignSession(
            CampaignConfig(machine="xeon", suites=("polybench",), variants=("icc",))
        )
        assert session.engine().machine.name == "Xeon"

    def test_unknown_machine_rejected(self):
        with pytest.raises(HarnessError, match="unknown machine"):
            CampaignSession(CampaignConfig(machine="fugaku")).engine()

    def test_result_before_run_raises(self):
        with pytest.raises(HarnessError, match="has not been run"):
            CampaignSession().result

    def test_subscribe_decorator_and_events(self):
        session = CampaignSession(
            CampaignConfig(benchmarks=("micro.k01", "micro.k02"), variants=("GNU",))
        )
        events = []

        @session.subscribe
        def collect(event):
            events.append(event)

        session.run()
        kinds = [e.kind for e in events]
        assert EventKind.CAMPAIGN_STARTED in kinds
        assert kinds.count(EventKind.CELL_FINISHED) == 2
        assert kinds[-1] is EventKind.CAMPAIGN_FINISHED
        assert "2" in str(events[-1])  # events render readably

    def test_cells_enumeration(self):
        session = CampaignSession(
            CampaignConfig(suites=("top500",), variants=("GNU",))
        )
        cells = session.cells()
        assert len(cells) == 3
        assert cells[0].index == 0

    def test_save_round_trip(self, tmp_path):
        session = CampaignSession(
            CampaignConfig(benchmarks=("micro.k01",), variants=("GNU",))
        )
        session.run()
        path = tmp_path / "out.json"
        session.save(path)
        loaded = CampaignResult.load(path)
        assert loaded.records == session.result.records
        assert loaded.meta["engine_version"] == session.result.meta["engine_version"]


class TestResultSchemaVersioning:
    def _v1_text(self):
        # The original unversioned on-disk format: no "schema" marker,
        # every record field spelled out.
        return json.dumps(
            {
                "machine": "A64FX",
                "records": [
                    {
                        "benchmark": "s.b",
                        "suite": "s",
                        "variant": "GNU",
                        "ranks": 4,
                        "threads": 12,
                        "runs": [1.5, 1.2],
                        "status": "ok",
                        "exploration": [[1, 1, 2.0]],
                        "diagnostics": [],
                    }
                ],
            }
        )

    def test_v1_file_still_loads(self):
        result = CampaignResult.from_json(self._v1_text())
        rec = result.get("s.b", "GNU")
        assert rec.best_s == 1.2
        assert rec.exploration == ((1, 1, 2.0),)
        assert result.meta == {}

    def test_v2_round_trip_with_meta(self, tmp_path):
        result = CampaignResult(machine="A64FX", meta={"workers": 4})
        result.add(RunRecord("s.b", "s", "GNU", 1, 1, (1.0,)))
        path = tmp_path / "r.json"
        result.save(path)
        payload = json.loads(path.read_text())
        assert payload["schema"] == RESULT_SCHEMA_VERSION
        loaded = CampaignResult.load(path)
        assert loaded.meta["workers"] == 4
        assert loaded.records == result.records

    def test_unknown_schema_rejected(self):
        text = json.dumps({"schema": 99, "machine": "A64FX", "records": []})
        with pytest.raises(HarnessError, match="unknown CampaignResult schema"):
            CampaignResult.from_json(text)

    def test_empty_exploration_round_trips(self, tmp_path):
        # Regression: empty exploration/diagnostics used to be brittle
        # on save/load; v2 omits them on disk and restores defaults.
        result = CampaignResult(machine="A64FX")
        rec = RunRecord("s.b", "s", "GNU", 1, 1, (1.0,), exploration=(), diagnostics=())
        result.add(rec)
        path = tmp_path / "r.json"
        result.save(path)
        loaded = CampaignResult.load(path)
        assert loaded.get("s.b", "GNU") == rec
        assert loaded.get("s.b", "GNU").exploration == ()

    def test_record_dict_omits_empty_optionals(self):
        rec = RunRecord("s.b", "s", "GNU", 1, 1, (1.0,))
        raw = record_to_dict(rec)
        assert "exploration" not in raw and "diagnostics" not in raw
        assert "status" not in raw  # ok is the default
        assert record_from_dict(raw) == rec

    def test_record_dict_equals_the_asdict_form(self):
        lint = Diagnostic(
            rule_id="VEC003", severity=Severity.WARNING,
            category=Category.PERFORMANCE, message="not vectorized",
            kernel="k", nest="nest0", statement="S0", array="A", loop="i",
            hint="interchange",
        )
        failure = FailureInfo(
            kind="TimeoutFault", site="run", message="budget", transient=True,
            injected=True, attempts=2, retries=1,
            history=(RetryStep(0, "TimeoutFault", "run", "first", True, True, 0.05),),
        )
        full = RunRecord(
            "s.b", "s", "GNU", 4, 12, (1.5, 1.25), status=STATUS_TIMEOUT,
            exploration=((4, 12, 1.25), (1, 48, 2.0)), diagnostics=("slow",),
            lint=(lint,), failure=failure,
        )
        for rec in (full, RunRecord("s.b", "s", "GNU", 1, 1, (1.0,))):
            for compact in (True, False):
                raw = record_to_dict(rec, compact=compact)
                reference = _asdict_record(rec, compact=compact)
                assert raw == reference
                assert list(raw) == list(reference)
                assert json.dumps(raw) == json.dumps(reference)
                assert record_from_dict(raw) == rec

    def test_record_missing_runs_is_clear_error(self):
        with pytest.raises(HarnessError, match="missing 'runs'"):
            record_from_dict({"benchmark": "s.b"})

    def test_duplicate_add_message_names_machine_and_resume(self):
        result = CampaignResult(machine="A64FX")
        rec = RunRecord("s.b", "s", "GNU", 1, 1, (1.0,))
        result.add(rec)
        with pytest.raises(HarnessError) as err:
            result.add(rec)
        message = str(err.value)
        assert "A64FX" in message
        assert "--resume" not in message
        assert "s.b" in message and "GNU" in message
