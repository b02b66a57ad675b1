"""Tests for the tuner: its evaluation cache, kill and rerun, workers."""

from pathlib import Path

import pytest

from repro import telemetry
from repro.caching import SEGMENT_GLOB
from repro.machine import Placement
from repro.telemetry import Telemetry
from repro.tuning import (
    Evaluation,
    Parameter,
    Scenario,
    SearchSpace,
    TuneInterrupted,
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


def _cache_entries(cache_dir):
    """Every ``(key, entry)`` line of the searches' caches under
    ``cache_dir``, read across segments."""
    return [
        tuple(line.split(b"\t", 1))
        for segment in sorted(Path(cache_dir).glob(f"tuning/*/cells/{SEGMENT_GLOB}"))
        for line in segment.read_bytes().splitlines()
    ]


def _files(root):
    """Each file under ``root``: identity, modification time and bytes."""
    return {
        path.relative_to(root): (path.stat().st_ino, path.stat().st_mtime_ns,
                                 path.read_bytes())
        for path in sorted(Path(root).rglob("*"))
        if path.is_file()
    }


class TestJournal:
    """The evaluation cache is a search's one store."""

    def test_journaled_run_matches_cacheless(self, tmp_path):
        bare = run_tune(quad_spec())
        stored = run_tune(quad_spec(cache_dir=tmp_path))
        assert stored.to_dict() == bare.to_dict()
        assert [p.name for p in (tmp_path / "tuning" / "quad-test").iterdir()] == [
            "cells"]

    def test_kill_and_rerun_is_byte_identical(self, tmp_path):
        clean = run_tune(quad_spec(cache_dir=tmp_path / "clean"))
        # Rung 0 holds 60 candidates: the second kill lands in rung 1.
        for kill_after in (13, 65):
            killed = tmp_path / f"killed-{kill_after}"
            with pytest.raises(TuneInterrupted):
                run_tune(
                    quad_spec(cache_dir=killed),
                    stop_after_evaluations=kill_after,
                )
            rerun = run_tune(quad_spec(cache_dir=killed))
            assert rerun.best_label == clean.best_label
            assert rerun.trajectory == clean.trajectory
            assert rerun.from_cache >= kill_after
            assert rerun.evaluations + kill_after <= clean.evaluations
            entries = _cache_entries(killed)
            assert len(entries) == len(dict(entries))  # none stored twice
            assert dict(entries) == dict(_cache_entries(tmp_path / "clean"))

    def test_replay_of_finished_journal_appends_nothing(self, tmp_path):
        first = run_tune(quad_spec(cache_dir=tmp_path))
        before = _files(tmp_path)
        rerun = run_tune(quad_spec(cache_dir=tmp_path))
        assert rerun.complete
        assert rerun.evaluations == 0
        assert rerun.from_cache > 0
        assert rerun.best_label == first.best_label
        assert rerun.trajectory == first.trajectory
        assert _files(tmp_path) == before


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
    def test_rediscovered_none_without_known_best(self):
        class Anon(QuadScenario):
            name = "quad-anon"

            def known_best(self, machine):
                return None

        result = run_tune(quad_spec(scenario=Anon()))
        assert result.known_best_label is None
        assert result.rediscovered is None
