"""Tests for the tuner: journal resume, caching, workers."""

from pathlib import Path

import pytest

from repro import telemetry
from repro.machine import Placement
from repro.telemetry import Telemetry
from repro.tuning import (
    Evaluation,
    Parameter,
    Scenario,
    SearchSpace,
    TuneInterrupted,
    TuneResult,
    TuneSpec,
    run_tune,
)


class QuadScenario(Scenario):
    """A tiny deterministic landscape with a unique minimum at (7, 2)."""

    name = "quad-test"
    noise_cv = 0.01

    def space(self, machine):
        return SearchSpace(
            (
                Parameter("x", tuple(range(12))),
                Parameter("y", tuple(range(5))),
            )
        )

    def evaluate(self, configs, machine):
        return tuple(
            Evaluation(
                config=c,
                time_s=1.0 + 0.01 * ((c["x"] - 7) ** 2 + (c["y"] - 2) ** 2),
            )
            for c in configs
        )

    def fingerprint(self, machine):
        return "quad-test-v1"

    def known_best(self, machine):
        return self.space(machine).config(x=7, y=2)


def quad_spec(**kwargs):
    defaults = dict(
        scenario=QuadScenario(),
        strategy="successive-halving",
        trials=3,
        min_trials=1,
        eta=3,
    )
    defaults.update(kwargs)
    return TuneSpec(**defaults)


class TestRediscovery:
    def test_gemm_successive_halving_finds_the_handtuned_tile(self):
        # The headline acceptance: from a cold start the tuner lands on
        # the write-up's 6x4 / kc=256 / 2x-unroll kernel at ~94%.
        result = run_tune(TuneSpec())
        assert result.complete
        assert result.best_label == "mr=6,nr=4,kc=256,unroll=2"
        assert result.rediscovered is True
        assert 0.92 <= result.best_detail["efficiency"] <= 0.96
        # fidelity escalates: first rung cheap, last rung at the cap
        assert result.rungs[0].trials == 1
        assert result.rungs[-1].trials == 3
        assert len(result.rungs) >= 3

    def test_quad_scenario_all_strategies_agree(self):
        grid = run_tune(quad_spec(strategy="grid"))
        sh = run_tune(quad_spec())
        assert grid.best_label == "x=7,y=2" == sh.best_label
        assert grid.rediscovered and sh.rediscovered
        # grid pays full fidelity everywhere; halving spends less
        assert grid.evaluations == 60
        assert sh.evaluations > 60  # counts re-evaluations per rung
        assert sum(r.configs for r in sh.rungs) < 3 * 60


class TestJournal:
    def test_journaled_run_matches_cacheless(self, tmp_path):
        bare = run_tune(quad_spec())
        stored = run_tune(quad_spec(cache_dir=tmp_path))
        assert stored.best_label == bare.best_label
        assert stored.trajectory == bare.trajectory
        assert stored.journal is not None and Path(stored.journal).exists()

    def test_kill_and_resume_is_byte_identical(self, tmp_path):
        clean = run_tune(quad_spec(cache_dir=tmp_path / "clean"))
        # Rung 0 holds 60 candidates: the second kill lands in rung 1,
        # whose records the journal header does not list.
        for kill_after in (13, 65):
            killed = tmp_path / f"killed-{kill_after}"
            with pytest.raises(TuneInterrupted):
                run_tune(
                    quad_spec(cache_dir=killed),
                    stop_after_evaluations=kill_after,
                )
            resumed = run_tune(quad_spec(cache_dir=killed, resume=True))
            assert resumed.from_journal >= kill_after
            assert resumed.best_label == clean.best_label
            assert resumed.trajectory == clean.trajectory
            assert (
                Path(resumed.journal).read_bytes()
                == Path(clean.journal).read_bytes()
            )

    def test_replay_of_finished_journal_appends_nothing(self, tmp_path):
        first = run_tune(quad_spec(cache_dir=tmp_path))
        before = Path(first.journal).read_bytes()
        replay = run_tune(quad_spec(cache_dir=tmp_path, resume=True))
        assert replay.complete
        assert replay.evaluations == 0
        assert replay.from_journal > 0
        assert replay.best_label == first.best_label
        assert Path(replay.journal).read_bytes() == before

    def test_fresh_start_discards_stale_journal(self, tmp_path):
        first = run_tune(quad_spec(cache_dir=tmp_path))
        # resume=False must not replay the journal: with the cache dir
        # shared, the cells still satisfy every lookup, so no fresh
        # evaluations — but the journal is rebuilt rather than appended.
        again = run_tune(quad_spec(cache_dir=tmp_path))
        assert again.evaluations == 0
        assert again.from_cache > 0
        assert again.best_label == first.best_label


class TestCache:
    def test_cache_shared_across_strategies(self, tmp_path):
        probe = run_tune(quad_spec(strategy="grid", cache_dir=tmp_path))
        assert probe.from_cache == 0
        # grid evaluated every config at trials=3; the halving run's
        # final full-fidelity rungs hit those entries.
        sh = run_tune(quad_spec(cache_dir=tmp_path))
        assert sh.from_cache > 0
        assert sh.best_label == probe.best_label

    def test_cacheless_spec_keeps_no_state(self):
        result = run_tune(quad_spec())
        assert result.journal is None
        assert result.from_cache == 0


class TestWorkers:
    def test_parallel_matches_serial(self, tmp_path):
        serial = run_tune(
            TuneSpec(strategy="random", samples=24, trials=2, seed=5)
        )
        parallel = run_tune(
            TuneSpec(strategy="random", samples=24, trials=2, seed=5, workers=2)
        )
        assert parallel.best_label == serial.best_label
        assert parallel.trajectory == serial.trajectory

    def test_workers_need_no_process_pool(self, monkeypatch):
        import concurrent.futures

        serial = run_tune(
            TuneSpec(strategy="random", samples=24, trials=2, seed=5)
        )

        def no_pool(self, *args, **kwargs):
            raise OSError("this host cannot start worker processes")

        monkeypatch.setattr(
            concurrent.futures.ProcessPoolExecutor, "__init__", no_pool
        )
        pooled = run_tune(
            TuneSpec(strategy="random", samples=24, trials=2, seed=5, workers=2)
        )
        assert pooled.complete
        assert pooled.trajectory == serial.trajectory


class TestPlacementScenarios:
    def test_pinned_benchmark_space_is_single_core_only(self):
        result = run_tune(
            TuneSpec(scenario="placement:polybench.gemm:GNU", strategy="grid")
        )
        assert result.complete
        assert result.best_label == "placement=1x1"
        assert result.meta["space_size"] == 1

    def test_openmp_benchmark_grid(self, a64fx_machine):
        result = run_tune(
            TuneSpec(scenario="placement:ecp.nekbone:GNU", strategy="grid")
        )
        assert result.complete
        label = result.best_label
        assert label.startswith("placement=")
        ranks, threads = label.removeprefix("placement=").split("x")
        assert Placement(int(ranks), int(threads)).fits(a64fx_machine.topology)
        assert result.evaluations > 1


class TestTelemetry:
    def test_spans_and_counters(self):
        tel = Telemetry()
        with telemetry.active(tel):
            run_tune(quad_spec())
        names = [s.name for s in tel.spans]
        assert "tune" in names
        assert names.count("tune.rung") >= 3
        assert tel.metrics.counter_value("tuner.evaluations") > 0
        assert tel.metrics.counter_value("tuner.rungs") >= 3


class TestTuneResult:
    def test_json_round_trip(self, tmp_path):
        result = run_tune(quad_spec(cache_dir=tmp_path))
        loaded = TuneResult.from_json(result.to_json())
        assert loaded == result

    def test_rediscovered_none_without_known_best(self):
        class Anon(QuadScenario):
            name = "quad-anon"

            def known_best(self, machine):
                return None

        result = run_tune(quad_spec(scenario=Anon()))
        assert result.known_best_label is None
        assert result.rediscovered is None
