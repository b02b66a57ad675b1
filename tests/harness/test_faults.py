"""Tests for the fault-injection & resilient-execution subsystem:
taxonomy, seed-stable plans, the retrying runner, and the engine's
chaos behavior (worker loss, cache faults, timeouts, degradation)."""

import json
import shutil

import pytest

from repro.errors import HarnessError
from repro.faults import (
    FAULT_FOR_SITE,
    SITES,
    CompileFault,
    Fault,
    FaultInjector,
    FaultPlan,
    FaultRule,
    FailureInfo,
    RetryPolicy,
    RuntimeFault,
    TimeoutFault,
    VerificationFault,
    WorkerCrash,
    classify_exception,
    failure_info,
)
from repro.harness.engine import CampaignEngine, EventKind
from repro.harness.journalstore import CampaignJournal
from repro.harness.results import (
    FAILURE_STATUSES,
    STATUS_OK,
    STATUS_TIMEOUT,
    CampaignResult,
)
from repro.harness.runner import measure_benchmark, run_cell
from repro.suites import get_suite, micro_suite


def _micro_bench(name: str):
    for bench in micro_suite().benchmarks:
        if bench.name == name:
            return bench
    raise AssertionError(f"no micro benchmark named {name}")


#: A plan whose transient rules strike every cell's first attempt and
#: heal on retry — the chaos-equals-clean workhorse.
def _healing_plan(seed: int = 11) -> FaultPlan:
    return FaultPlan(seed=seed, rules=(
        FaultRule(site="compile", probability=0.5, transient=True),
        FaultRule(site="run", probability=0.4, transient=True),
        FaultRule(site="timeout", probability=0.3, transient=True),
    ))


class TestTaxonomy:
    def test_status_per_kind(self):
        assert CompileFault().status == "compiler error"
        assert RuntimeFault().status == "runtime error"
        assert TimeoutFault().status == "timeout"
        assert VerificationFault().status == "verification error"
        assert WorkerCrash().status == "worker crash"

    def test_every_site_has_a_fault_class(self):
        assert set(FAULT_FOR_SITE) == set(SITES)
        for site, cls in FAULT_FOR_SITE.items():
            assert issubclass(cls, Fault)

    def test_worker_crash_always_transient(self):
        assert WorkerCrash().transient is True

    def test_statuses_match_results_constants(self):
        statuses = {cls().status for s, cls in FAULT_FOR_SITE.items()
                    if s != "cache"}
        assert statuses <= set(FAILURE_STATUSES)

    def test_classify_environmental_errors_transient(self):
        for exc in (OSError("disk"), MemoryError(), ConnectionError("net")):
            fault = classify_exception(exc)
            assert fault.transient is True
            assert isinstance(fault, RuntimeFault)
        fault = classify_exception(TimeoutError("hung"))
        assert fault.transient is True
        assert isinstance(fault, TimeoutFault)

    def test_classify_deterministic_bugs_permanent(self):
        fault = classify_exception(ValueError("bad shape"))
        assert fault.transient is False
        assert "ValueError" in fault.message

    def test_failure_info_round_trip(self):
        info = failure_info(
            TimeoutFault(message="m", transient=True, injected=True), attempts=3
        )
        assert info.kind == "TimeoutFault"
        assert info.retries == 2
        assert FailureInfo.from_dict(info.to_dict()) == info


class TestFaultPlan:
    def test_rule_validation(self):
        for site in ("bogus", "kernel-cache"):  # no compiled-kernel store left
            with pytest.raises(HarnessError):
                FaultRule(site=site)
        with pytest.raises(HarnessError):
            FaultRule(site="run", probability=1.5)
        with pytest.raises(HarnessError):
            FaultRule(site="run", probability=-0.1)

    def test_json_round_trip(self, tmp_path):
        plan = FaultPlan(seed=9, rules=(
            FaultRule(site="compile", benchmark="micro.*", probability=0.5,
                      transient=True, message="x"),
            FaultRule(site="worker", first_attempts=None),
        ))
        path = tmp_path / "plan.json"
        plan.save(path)
        loaded = FaultPlan.load(path)
        assert loaded == plan
        assert loaded.digest() == plan.digest()

    def test_unknown_fields_rejected(self):
        with pytest.raises(HarnessError):
            FaultRule.from_dict({"site": "run", "sprobability": 1.0})

    def test_digest_sensitive_to_rules_and_seed(self):
        base = FaultPlan(seed=1, rules=(FaultRule(site="run"),))
        assert base.digest() != FaultPlan(seed=2, rules=base.rules).digest()
        assert base.digest() != FaultPlan(
            seed=1, rules=(FaultRule(site="compile"),)
        ).digest()

    def test_injector_deterministic_across_instances(self):
        plan = _healing_plan()
        a, b = FaultInjector(plan), FaultInjector(plan)
        cells = [(f"micro.k{i:02d}", v) for i in range(1, 23)
                 for v in ("GNU", "LLVM")]
        decisions_a = [a.decide("run", bench, var, 0) for bench, var in cells]
        decisions_b = [b.decide("run", bench, var, 0) for bench, var in cells]
        assert decisions_a == decisions_b
        assert any(d is not None for d in decisions_a)
        assert any(d is None for d in decisions_a)

    def test_seed_changes_decisions(self):
        cells = [(f"micro.k{i:02d}", "GNU") for i in range(1, 23)]
        first = [FaultInjector(_healing_plan(1)).decide("run", b, v, 0)
                 is not None for b, v in cells]
        second = [FaultInjector(_healing_plan(2)).decide("run", b, v, 0)
                  is not None for b, v in cells]
        assert first != second

    def test_first_attempts_window(self):
        plan = FaultPlan(seed=0, rules=(
            FaultRule(site="run", probability=1.0, first_attempts=1),
        ))
        injector = FaultInjector(plan)
        assert injector.decide("run", "s.b", "GNU", 0) is not None
        assert injector.decide("run", "s.b", "GNU", 1) is None

    def test_first_attempts_none_fires_forever(self):
        plan = FaultPlan(seed=0, rules=(
            FaultRule(site="run", probability=1.0, first_attempts=None),
        ))
        injector = FaultInjector(plan)
        for attempt in range(4):
            assert injector.decide("run", "s.b", "GNU", attempt) is not None

    def test_probability_extremes(self):
        always = FaultInjector(FaultPlan(rules=(
            FaultRule(site="run", probability=1.0),)))
        never = FaultInjector(FaultPlan(rules=(
            FaultRule(site="run", probability=0.0),)))
        for i in range(20):
            assert always.decide("run", f"s.b{i}", "GNU", 0) is not None
            assert never.decide("run", f"s.b{i}", "GNU", 0) is None

    def test_glob_matching(self):
        plan = FaultPlan(rules=(
            FaultRule(site="run", benchmark="micro.*", variant="GNU",
                      probability=1.0),
        ))
        injector = FaultInjector(plan)
        assert injector.decide("run", "micro.k01", "GNU", 0) is not None
        assert injector.decide("run", "polybench.2mm", "GNU", 0) is None
        assert injector.decide("run", "micro.k01", "LLVM", 0) is None

    def test_fault_is_marked_injected_with_site_type(self):
        plan = FaultPlan(rules=(FaultRule(site="compile", probability=1.0),))
        fault = FaultInjector(plan).decide("compile", "s.b", "GNU", 0)
        assert isinstance(fault, CompileFault)
        assert fault.injected is True


class TestRetryPolicy:
    def test_budget_and_transience(self):
        policy = RetryPolicy(max_retries=2)
        transient = RuntimeFault(transient=True)
        assert policy.should_retry(transient, 0)
        assert policy.should_retry(transient, 1)
        assert not policy.should_retry(transient, 2)
        assert not policy.should_retry(RuntimeFault(transient=False), 0)

    def test_delay_deterministic_and_bounded(self):
        policy = RetryPolicy(max_retries=3, backoff_s=0.1, multiplier=2.0,
                             max_backoff_s=0.3, jitter=0.25, seed=5)
        delays = [policy.delay_s("s.b", "GNU", a) for a in range(4)]
        assert delays == [policy.delay_s("s.b", "GNU", a) for a in range(4)]
        assert all(0 <= d <= 0.3 * 1.25 for d in delays)

    def test_zero_backoff_means_zero_delay(self):
        policy = RetryPolicy(max_retries=1, backoff_s=0.0)
        assert policy.delay_s("s.b", "GNU", 0) == 0.0

    def test_negative_budget_rejected(self):
        with pytest.raises(HarnessError):
            RetryPolicy(max_retries=-1)


class TestRunCell:
    """The resilient per-cell wrapper, without the engine."""

    def test_transient_fault_heals_to_identical_record(self, a64fx_machine):
        bench = _micro_bench("k01")
        clean = measure_benchmark(bench, "GNU", a64fx_machine)
        injector = FaultInjector(FaultPlan(seed=1, rules=(
            FaultRule(site="run", probability=1.0, transient=True),)))
        outcome = run_cell(
            bench, "GNU", a64fx_machine,
            injector=injector,
            retry=RetryPolicy(max_retries=1, backoff_s=0.0),
        )
        assert outcome.record == clean
        assert outcome.record.failure is None
        assert outcome.attempts == 2
        assert len(outcome.retries) == 1
        assert outcome.retries[0].fault.kind == "RuntimeFault"

    def test_retry_budget_exhaustion(self, a64fx_machine):
        bench = _micro_bench("k01")
        injector = FaultInjector(FaultPlan(seed=1, rules=(
            FaultRule(site="run", probability=1.0, transient=True,
                      first_attempts=None, message="always down"),)))
        outcome = run_cell(
            bench, "GNU", a64fx_machine,
            injector=injector,
            retry=RetryPolicy(max_retries=2, backoff_s=0.0),
        )
        record = outcome.record
        assert record.status == "runtime error"
        assert record.runs == ()
        assert outcome.attempts == 3
        assert record.failure is not None
        assert record.failure.attempts == 3
        assert record.failure.retries == 2
        assert record.failure.transient is True
        assert record.failure.injected is True

    def test_permanent_fault_burns_no_retries(self, a64fx_machine):
        bench = _micro_bench("k01")
        injector = FaultInjector(FaultPlan(rules=(
            FaultRule(site="compile", probability=1.0, first_attempts=None),)))
        outcome = run_cell(
            bench, "GNU", a64fx_machine,
            injector=injector,
            retry=RetryPolicy(max_retries=5, backoff_s=0.0),
        )
        assert outcome.record.status == "compiler error"
        assert outcome.attempts == 1
        assert outcome.retries == ()

    def test_injected_timeout_classifies_as_timeout(self, a64fx_machine):
        bench = _micro_bench("k01")
        injector = FaultInjector(FaultPlan(rules=(
            FaultRule(site="timeout", probability=1.0, first_attempts=None),)))
        outcome = run_cell(bench, "GNU", a64fx_machine, injector=injector)
        assert outcome.record.status == STATUS_TIMEOUT
        assert outcome.record.failure.kind == "TimeoutFault"

    def test_real_wall_clock_budget_enforced(self, a64fx_machine):
        bench = _micro_bench("k01")
        # Any real execution takes longer than a zero-second budget, so
        # the post-hoc check must classify the cell as timed out (and,
        # being transient, retry it until the budget runs dry).
        outcome = run_cell(
            bench, "GNU", a64fx_machine,
            timeout_s=1e-9,
            retry=RetryPolicy(max_retries=1, backoff_s=0.0),
        )
        assert outcome.record.status == STATUS_TIMEOUT
        assert outcome.attempts == 2
        assert outcome.record.failure.transient is True
        assert outcome.record.failure.injected is False

    def test_models_own_failures_pass_through(self, a64fx_machine):
        # micro.k22 is the paper's FJclang compiler-error cell: a
        # deterministic model failure, not a fault — no retries burned,
        # no failure block attached.
        bench = _micro_bench("k22")
        clean = measure_benchmark(bench, "FJclang", a64fx_machine)
        assert clean.status != STATUS_OK
        outcome = run_cell(
            bench, "FJclang", a64fx_machine,
            retry=RetryPolicy(max_retries=3, backoff_s=0.0),
        )
        assert outcome.record == clean
        assert outcome.record.failure is None
        assert outcome.attempts == 1

    def test_backoff_sleeps_between_attempts(self, a64fx_machine):
        bench = _micro_bench("k01")
        injector = FaultInjector(FaultPlan(rules=(
            FaultRule(site="run", probability=1.0, transient=True),)))
        slept = []
        run_cell(
            bench, "GNU", a64fx_machine,
            injector=injector,
            retry=RetryPolicy(max_retries=1, backoff_s=0.05, jitter=0.0),
            sleep=slept.append,
        )
        assert slept == [0.05]


class TestEngineChaos:
    """Chaos campaigns through the full engine."""

    VARIANTS = ("GNU", "FJtrad")

    def _engine(self, machine, **kwargs):
        return CampaignEngine(
            machine, suites=(get_suite("micro"),), variants=self.VARIANTS,
            retry_backoff_s=0.0, **kwargs,
        )

    def test_transient_chaos_equals_clean_serial_and_parallel(
        self, a64fx_machine
    ):
        clean = self._engine(a64fx_machine).run()
        plan = _healing_plan()
        serial = self._engine(a64fx_machine, fault_plan=plan, max_retries=2).run()
        parallel = self._engine(
            a64fx_machine, fault_plan=plan, max_retries=2, workers=4
        ).run()
        assert serial.records == clean.records
        assert parallel.records == clean.records
        assert serial.meta["retried"] > 0
        assert serial.meta["retried"] == parallel.meta["retried"]
        assert serial.meta["fault_plan"] == plan.digest()

    def test_worker_crash_requeues_and_recovers(self, a64fx_machine):
        clean = self._engine(a64fx_machine).run()
        plan = FaultPlan(seed=4, rules=(
            FaultRule(site="worker", probability=1.0, transient=True),))
        events = []
        result = self._engine(
            a64fx_machine, fault_plan=plan, workers=4
        ).run(emit=events.append)
        assert result.records == clean.records
        assert result.meta["worker_restarts"] >= 1
        assert any(e.kind is EventKind.WORKER_LOST for e in events)

    def test_exhausted_restart_budget_degrades_to_in_process(
        self, a64fx_machine, monkeypatch
    ):
        import repro.harness.engine as engine_mod

        monkeypatch.setattr(engine_mod, "MAX_WORKER_RESTARTS", 0)
        clean = self._engine(a64fx_machine).run()
        plan = FaultPlan(seed=4, rules=(
            FaultRule(site="worker", probability=1.0, transient=True,
                      first_attempts=None),))
        events = []
        result = self._engine(
            a64fx_machine, fault_plan=plan, workers=2,
        ).run(emit=events.append)
        assert result.records == clean.records
        assert result.meta["worker_restarts"] == 1
        lost = [e.message for e in events if e.kind is EventKind.WORKER_LOST]
        assert any("restart budget (0) exhausted" in m for m in lost)

    def test_worker_site_ignored_in_serial(self, a64fx_machine):
        clean = self._engine(a64fx_machine).run()
        plan = FaultPlan(seed=4, rules=(
            FaultRule(site="worker", probability=1.0, transient=True,
                      first_attempts=None),))
        result = self._engine(a64fx_machine, fault_plan=plan).run()
        assert result.records == clean.records
        assert result.meta["worker_restarts"] == 0

    def test_permanent_faults_degrade_with_taxonomy(self, a64fx_machine):
        plan = FaultPlan(seed=1, rules=(
            FaultRule(site="compile", benchmark="micro.k01",
                      first_attempts=None),
            FaultRule(site="run", benchmark="micro.k02",
                      first_attempts=None),
            FaultRule(site="timeout", benchmark="micro.k03",
                      first_attempts=None),
            FaultRule(site="verify", benchmark="micro.k04",
                      first_attempts=None),
        ))
        events = []
        result = self._engine(
            a64fx_machine, fault_plan=plan, max_retries=1
        ).run(emit=events.append)
        expected = {
            "micro.k01": "compiler error",
            "micro.k02": "runtime error",
            "micro.k03": "timeout",
            "micro.k04": "verification error",
        }
        for bench, status in expected.items():
            for variant in self.VARIANTS:
                record = result.get(bench, variant)
                assert record.status == status
                assert record.failure is not None
                assert record.failure.injected is True
        assert result.meta["failures"] >= len(expected) * len(self.VARIANTS)
        assert any(e.kind is EventKind.CELL_TIMED_OUT for e in events)
        assert any(e.kind is EventKind.CELL_FAILED for e in events)

    def test_retried_cells_emit_cell_retried_events(self, a64fx_machine):
        events = []
        self._engine(
            a64fx_machine, fault_plan=_healing_plan(), max_retries=2
        ).run(emit=events.append)
        retried = [e for e in events if e.kind is EventKind.CELL_RETRIED]
        assert retried
        assert all("retried" in e.message for e in retried)

    def test_failure_blocks_survive_save_load(self, a64fx_machine, tmp_path):
        plan = FaultPlan(seed=1, rules=(
            FaultRule(site="compile", benchmark="micro.k01",
                      first_attempts=None),))
        result = self._engine(a64fx_machine, fault_plan=plan).run()
        path = tmp_path / "chaos.json"
        result.save(path)
        loaded = CampaignResult.load(path)
        assert loaded.records == result.records
        block = loaded.get("micro.k01", "GNU").failure
        assert block is not None and block.kind == "CompileFault"
        # Clean cells carry no block in the JSON (schema-additive).
        raw = json.loads(path.read_text())
        clean_cells = [r for r in raw["records"]
                       if r.get("status", STATUS_OK) == STATUS_OK]
        assert clean_cells
        assert all("failure" not in r for r in clean_cells)

    def test_cache_fault_forces_reexecution(self, a64fx_machine, tmp_path):
        plan = FaultPlan(seed=2, rules=(
            FaultRule(site="cache", probability=1.0, first_attempts=None),))
        kwargs = dict(fault_plan=plan, cache_dir=tmp_path)
        first = self._engine(a64fx_machine, **kwargs).run()
        second = self._engine(a64fx_machine, **kwargs).run()
        assert second.records == first.records
        # Every lookup was chaos-suppressed: nothing hit, everything
        # re-executed.
        assert second.meta["cache_hits"] == 0
        assert second.meta["cache_faults"] == len(second.records)

    def test_resilience_options_keep_default_fingerprint(self, a64fx_machine):
        plain = self._engine(a64fx_machine)
        explicit = self._engine(
            a64fx_machine, fault_plan=None, max_retries=1, cell_timeout_s=None
        )
        assert plain.campaign_fingerprint() == explicit.campaign_fingerprint()
        chaotic = self._engine(a64fx_machine, fault_plan=_healing_plan())
        assert chaotic.campaign_fingerprint() != plain.campaign_fingerprint()

    def test_journal_corrupted_mid_resume(self, a64fx_machine, tmp_path):
        clean = self._engine(a64fx_machine).run()
        interrupted = self._engine(a64fx_machine, cache_dir=tmp_path)
        interrupted.run()
        journal_path = tmp_path / "journal.jsonl"
        lines = journal_path.read_text().splitlines()
        assert json.loads(lines[-1])["kind"] == "done"
        # Simulate a kill plus on-disk rot: drop the done marker,
        # mangle one middle cell line, truncate the trailing one.
        middle = len(lines) // 2
        lines[middle] = lines[middle][: len(lines[middle]) // 2]
        journal_path.write_text("\n".join(lines[:-2]) + "\n" + lines[-2][:10])
        # Wipe the cell cache so only the journal can restore cells.
        shutil.rmtree(tmp_path / "cells")
        resumed = self._engine(
            a64fx_machine, cache_dir=tmp_path, resume=True
        ).run()
        assert resumed.records == clean.records
        assert resumed.meta["resumed"] > 0

    def test_engine_validates_resilience_options(self, a64fx_machine):
        with pytest.raises(HarnessError):
            self._engine(a64fx_machine, cell_timeout_s=0.0)
        with pytest.raises(HarnessError):
            self._engine(a64fx_machine, max_retries=-1)


class TestResilienceReporting:
    def test_resilience_markdown_for_chaos_run(self, a64fx_machine):
        from repro.analysis import resilience_markdown

        plan = FaultPlan(seed=1, rules=(
            FaultRule(site="timeout", benchmark="micro.k05",
                      first_attempts=None),
            FaultRule(site="run", probability=0.4, transient=True),
        ))
        engine = CampaignEngine(
            a64fx_machine, suites=(get_suite("micro"),),
            variants=("GNU",), fault_plan=plan, max_retries=1,
            retry_backoff_s=0.0,
        )
        text = resilience_markdown(engine.run())
        assert "## Resilience" in text
        assert "micro.k05/GNU" in text
        assert "timeout" in text
        assert "FAIL" not in text

    def test_clean_run_renders_no_section(self, a64fx_machine):
        from repro.analysis import resilience_markdown

        engine = CampaignEngine(
            a64fx_machine, suites=(get_suite("micro"),), variants=("GNU",)
        )
        assert resilience_markdown(engine.run()) == ""
