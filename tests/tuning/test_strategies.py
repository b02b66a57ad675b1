"""Tests for the search strategies: grid, random, successive halving."""

import math

import pytest

from repro.errors import HarnessError
from repro.perf.noise import noise_multiplier
from repro.tuning import (
    Candidate,
    GridStrategy,
    Parameter,
    RandomStrategy,
    SearchSpace,
    SuccessiveHalvingStrategy,
    fastest_of,
    make_strategy,
    select_best,
)


def toy_space(n=6):
    return SearchSpace((Parameter("x", tuple(range(n))),))


def drive(strategy, space, score_fn):
    """Run a strategy generator to completion; returns (winner, batches)."""
    gen = strategy.run(space)
    batches = []
    batch = next(gen)
    while True:
        batches.append(batch)
        scores = tuple(score_fn(c) for c in batch)
        try:
            batch = gen.send(scores)
        except StopIteration as stop:
            return stop.value, batches


class TestFastestOf:
    def test_matches_exploration_arithmetic(self):
        # bit-identical to the historical best-of-three inline loop
        time_s, cv = 0.123, 0.05
        key = ("explore", "s.b", "GNU", "4x12")
        expected = min(
            time_s * noise_multiplier(cv, *key, trial) for trial in range(3)
        )
        assert fastest_of(time_s, cv, 3, *key) == expected

    def test_monotone_in_trials(self):
        # trial indices start at 0, so more trials extend the sample set
        scores = [fastest_of(1.0, 0.1, t, "k") for t in range(1, 8)]
        assert scores == sorted(scores, reverse=True) or all(
            b <= a for a, b in zip(scores, scores[1:])
        )

    def test_zero_cv_is_ideal_time(self):
        assert fastest_of(2.5, 0.0, 3, "k") == 2.5


class TestSelectBest:
    def test_first_wins_on_ties(self):
        assert select_best(("a", "b", "c"), (1.0, 1.0, 1.0)) == 0

    def test_strict_improvement_required(self):
        assert select_best(("a", "b", "c"), (2.0, 1.0, 1.0)) == 1

    def test_all_inf_falls_back_to_first(self):
        inf = float("inf")
        assert select_best(("a", "b"), (inf, inf)) == 0


class TestGridStrategy:
    def test_sweeps_grid_in_order_once(self):
        space = toy_space()
        winner, batches = drive(GridStrategy(trials=3), space, lambda c: c.config["x"])
        assert len(batches) == 1
        assert tuple(c.config for c in batches[0]) == space.grid()
        assert all(c.trials == 3 for c in batches[0])
        assert winner.config["x"] == 0

    def test_trials_validated(self):
        with pytest.raises(HarnessError):
            GridStrategy(trials=0)


class TestRandomStrategy:
    def test_proposes_seeded_subset(self):
        space = toy_space(20)
        w1, b1 = drive(RandomStrategy(5, seed=3), space, lambda c: c.config["x"])
        w2, b2 = drive(RandomStrategy(5, seed=3), space, lambda c: c.config["x"])
        assert b1 == b2 and w1 == w2
        assert len(b1[0]) == 5

    def test_seed_changes_subset(self):
        space = toy_space(20)
        _, b1 = drive(RandomStrategy(5, seed=0), space, lambda c: c.config["x"])
        _, b2 = drive(RandomStrategy(5, seed=1), space, lambda c: c.config["x"])
        assert b1 != b2

    def test_validation(self):
        with pytest.raises(HarnessError):
            RandomStrategy(0)
        with pytest.raises(HarnessError):
            RandomStrategy(3, trials=0)


class TestSuccessiveHalving:
    def test_rung_zero_is_full_grid_by_default(self):
        space = toy_space(9)
        _, batches = drive(
            SuccessiveHalvingStrategy(eta=3, min_trials=1, max_trials=9),
            space,
            lambda c: c.config["x"],
        )
        assert len(batches[0]) == 9
        assert all(c.trials == 1 and c.rung == 0 for c in batches[0])

    def test_keep_and_escalation_schedule(self):
        space = toy_space(9)
        _, batches = drive(
            SuccessiveHalvingStrategy(eta=3, min_trials=1, max_trials=9),
            space,
            lambda c: c.config["x"],
        )
        sizes = [len(b) for b in batches]
        trials = [b[0].trials for b in batches]
        assert sizes == [9, 3, 1]
        assert trials == [1, 3, 9]
        # every rung keeps ceil(n / eta)
        for a, b in zip(sizes, sizes[1:]):
            assert b == max(1, math.ceil(a / 3))

    def test_survivors_are_best_scores_stable_order(self):
        space = toy_space(6)
        scores = {0: 5.0, 1: 1.0, 2: 1.0, 3: 0.5, 4: 9.0, 5: 1.0}
        _, batches = drive(
            SuccessiveHalvingStrategy(eta=3, min_trials=1, max_trials=3),
            space,
            lambda c: scores[c.config["x"]],
        )
        # keep 2 of 6: best score first, then the earliest of the 1.0 tie
        assert [c.config["x"] for c in batches[1]] == [3, 1]

    def test_winner_is_final_rung_best(self):
        space = toy_space(9)
        winner, _ = drive(
            SuccessiveHalvingStrategy(eta=3, min_trials=1, max_trials=9),
            space,
            lambda c: abs(c.config["x"] - 4),
        )
        assert winner.config["x"] == 4

    def test_trials_capped_at_max(self):
        space = toy_space(30)
        _, batches = drive(
            SuccessiveHalvingStrategy(eta=3, min_trials=2, max_trials=5),
            space,
            lambda c: c.config["x"],
        )
        assert max(b[0].trials for b in batches) == 5

    def test_seeded_initial_population(self):
        space = toy_space(30)
        strat = SuccessiveHalvingStrategy(initial=6, seed=1, eta=3)
        _, batches = drive(strat, space, lambda c: c.config["x"])
        assert len(batches[0]) == 6
        assert tuple(c.config for c in batches[0]) == space.sample(6, seed=1)

    def test_score_count_mismatch_rejected(self):
        gen = SuccessiveHalvingStrategy().run(toy_space(4))
        next(gen)
        with pytest.raises(HarnessError):
            gen.send((1.0,))

    def test_validation(self):
        with pytest.raises(HarnessError):
            SuccessiveHalvingStrategy(eta=1)
        with pytest.raises(HarnessError):
            SuccessiveHalvingStrategy(initial=1)
        with pytest.raises(HarnessError):
            SuccessiveHalvingStrategy(min_trials=3, max_trials=2)


class TestMakeStrategy:
    def test_builds_each_kind(self):
        assert make_strategy("grid", trials=5).trials == 5
        assert make_strategy("random", samples=4).samples == 4
        sh = make_strategy("successive-halving", trials=3, min_trials=1)
        assert isinstance(sh, SuccessiveHalvingStrategy)
        assert sh.max_trials == 3

    def test_successive_halving_cap_is_trials(self):
        # A cap below min_trials is rejected, not widened to min_trials:
        # trials=0 would otherwise run every rung at 1 trial, and
        # min_trials=5 with trials=3 every rung at 5.
        with pytest.raises(HarnessError, match="min_trials <= max_trials"):
            make_strategy("successive-halving", trials=0)
        with pytest.raises(HarnessError, match="min_trials <= max_trials"):
            make_strategy("successive-halving", trials=3, min_trials=5)
        sh = make_strategy("successive-halving", trials=5, min_trials=5)
        assert sh.min_trials == sh.max_trials == 5

    def test_random_needs_samples(self):
        with pytest.raises(HarnessError):
            make_strategy("random")

    def test_unknown_rejected(self):
        with pytest.raises(HarnessError):
            make_strategy("simulated-annealing")


class TestCandidate:
    def test_name_carries_fidelity(self):
        space = toy_space()
        cand = Candidate(space.grid()[2], trials=3, rung=1)
        assert cand.name == "x=2@t3"
