"""Tests for the campaign lint gate: policy validation, cell skipping,
finding attachment, events, cache-key handling, and JSON round-trips."""

import pytest

from repro.api import CampaignConfig, CampaignSession
from repro.errors import HarnessError
from repro.harness.engine import (
    LINT_ERROR,
    LINT_OFF,
    LINT_WARN,
    CampaignEngine,
    EventKind,
    cell_cache_key,
)
from repro.harness.results import STATUS_LINT_ERROR, CampaignResult
from repro.ir import KernelBuilder, Language, read, update, write
from repro.machine import a64fx
from repro.suites.base import Benchmark, ParallelKind, WorkUnit


def _racy_benchmark(name="racer"):
    b = KernelBuilder(f"{name}_kernel", Language.C)
    b.array("a", (256,))
    b.nest(
        [("i", 1, 256)],
        [b.stmt(write("a", "i"), read("a", "i-1"), fadd=1)],
        parallel=("i",),
    )
    return Benchmark(
        name=name,
        suite="fixture",
        language=Language.C,
        units=(WorkUnit(kernel=b.build()),),
        parallel=ParallelKind.OPENMP,
    )


def _clean_benchmark(name="clean"):
    b = KernelBuilder(f"{name}_kernel", Language.C)
    b.array("y", (256,))
    b.array("x", (256,))
    b.nest(
        [("i", 256)],
        [b.stmt(update("y", "i"), read("x", "i"), fma=1)],
        parallel=("i",),
    )
    return Benchmark(
        name=name,
        suite="fixture",
        language=Language.C,
        units=(WorkUnit(kernel=b.build()),),
        parallel=ParallelKind.OPENMP,
    )


def _engine(benchmarks, policy, **kw):
    return CampaignEngine(
        a64fx(),
        benchmarks=tuple(benchmarks),
        variants=("GNU",),
        lint_policy=policy,
        **kw,
    )


class TestPolicyValidation:
    def test_unknown_policy_rejected(self):
        with pytest.raises(HarnessError, match="lint"):
            _engine((_clean_benchmark(),), "strict")

    def test_config_passes_policy_through(self):
        session = CampaignSession(CampaignConfig(lint_policy="warn"))
        assert session.engine().lint_policy == LINT_WARN


class TestErrorPolicy:
    def test_defective_cell_skipped_with_findings(self):
        result = _engine((_racy_benchmark(),), LINT_ERROR).run()
        record = result.get("fixture.racer", "GNU")
        assert record.status == STATUS_LINT_ERROR
        assert not record.valid
        assert record.runs == ()
        assert any(d.rule_id == "RACE001" for d in record.lint)
        assert result.meta["lint_policy"] == LINT_ERROR
        assert result.meta["lint_skipped"] == 1

    def test_clean_cell_still_runs(self):
        result = _engine(
            (_racy_benchmark(), _clean_benchmark()), LINT_ERROR
        ).run()
        clean = result.get("fixture.clean", "GNU")
        assert clean.valid and clean.runs
        racy = result.get("fixture.racer", "GNU")
        assert racy.status == STATUS_LINT_ERROR

    def test_lint_failed_event_emitted(self):
        events = []
        _engine((_racy_benchmark(),), LINT_ERROR).run(emit=events.append)
        kinds = [e.kind for e in events]
        assert EventKind.CELL_LINT_FAILED in kinds
        assert EventKind.CELL_FINISHED not in kinds

    def test_roundtrip_preserves_status_and_findings(self):
        result = _engine((_racy_benchmark(),), LINT_ERROR).run()
        loaded = CampaignResult.from_json(result.to_json())
        record = loaded.get("fixture.racer", "GNU")
        assert record.status == STATUS_LINT_ERROR
        assert record.lint == result.get("fixture.racer", "GNU").lint


class TestWarnPolicy:
    def test_defective_cell_runs_with_findings_attached(self):
        result = _engine((_racy_benchmark(),), LINT_WARN).run()
        record = result.get("fixture.racer", "GNU")
        assert record.valid and record.runs
        assert any(d.rule_id == "RACE001" for d in record.lint)
        assert result.meta["lint_skipped"] == 0


class TestOffPolicy:
    def test_no_findings_attached(self):
        result = _engine((_racy_benchmark(),), LINT_OFF).run()
        record = result.get("fixture.racer", "GNU")
        assert record.valid
        assert record.lint == ()


class TestCacheKeys:
    def test_off_policy_keeps_legacy_keys(self):
        # lint_policy="off" must not perturb pre-existing cache keys.
        bench, machine = _clean_benchmark(), a64fx()
        base = cell_cache_key(bench, "GNU", machine, None, 10)
        assert cell_cache_key(
            bench, "GNU", machine, None, 10, lint_policy=LINT_OFF
        ) == base

    def test_policies_get_distinct_keys(self):
        bench, machine = _clean_benchmark(), a64fx()
        keys = {
            cell_cache_key(bench, "GNU", machine, None, 10, lint_policy=p)
            for p in (LINT_OFF, LINT_WARN, LINT_ERROR)
        }
        assert len(keys) == 3

    def test_fingerprint_stable_when_off(self):
        bench = _clean_benchmark()
        off = _engine((bench,), LINT_OFF).campaign_fingerprint()
        error = _engine((bench,), LINT_ERROR).campaign_fingerprint()
        assert off != error
        assert off == _engine((bench,), LINT_OFF).campaign_fingerprint()


class TestFindingsFollowTheRules:
    def test_cached_and_replayed_records_carry_current_findings(
        self, tmp_path, monkeypatch
    ):
        """A record served from ``cells/`` carries the current rule
        set's findings, not those of the rule set that stored it: the
        cell key names only the lint policy."""
        from repro.staticanalysis import driver
        from repro.staticanalysis.diagnostics import Category, Diagnostic, Severity

        bench = _racy_benchmark()
        first = _engine((bench,), LINT_WARN, cache_dir=tmp_path).run()
        stored = first.get("fixture.racer", "GNU").lint
        assert any(d.rule_id == "RACE001" for d in stored)

        newer = (
            Diagnostic(
                rule_id="NEW001",
                severity=Severity.NOTE,
                category=Category.PERFORMANCE,
                message="a finding only a newer rule set makes",
                kernel="racer_kernel",
            ),
        )
        monkeypatch.setattr(
            driver, "analyze_benchmark_cached",
            lambda bench, machine, cache=None: newer,
        )
        cached = _engine((bench,), LINT_WARN, cache_dir=tmp_path).run()
        assert cached.meta["cache_hits"] == 1
        assert cached.get("fixture.racer", "GNU").lint == newer
