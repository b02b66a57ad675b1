"""Search strategies: grid, seeded random, successive halving.

A strategy is a deterministic co-routine over a :class:`SearchSpace`:
:meth:`Strategy.run` yields batches of :class:`Candidate` s (config +
trial-count fidelity + rung index) and receives one score per candidate
(lower is better) via ``send``; the generator's return value is the
winning candidate.  The tuner owns evaluation — scoring through the
batched model evaluator, caching — so strategies stay pure control
flow and propose the same batches when a search is rerun.

Tie-breaking is everywhere *first wins under strict* ``<`` in candidate
order: the exploration phase's :func:`select_best`, re-exported here
with its :func:`fastest_of` from :mod:`repro.harness.exploration`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import HarnessError
from repro.harness.exploration import fastest_of, select_best
from repro.tuning.space import Config, SearchSpace

__all__ = [
    "Candidate",
    "GridStrategy",
    "RandomStrategy",
    "Strategy",
    "SuccessiveHalvingStrategy",
    "fastest_of",
    "make_strategy",
    "select_best",
]


@dataclass(frozen=True)
class Candidate:
    """One proposed evaluation: a config at a trial-count fidelity."""

    config: Config
    trials: int
    rung: int = 0

    @property
    def name(self) -> str:
        """Cache-facing identity: the config label plus fidelity."""
        return f"{self.config.label}@t{self.trials}"


class Strategy:
    """Deterministic batch proposer (see module docstring)."""

    name = "strategy"

    def run(self, space: SearchSpace):
        """Generator: yields ``tuple[Candidate, ...]``, receives a
        ``tuple[float, ...]`` of scores, returns the winning
        :class:`Candidate`."""
        raise NotImplementedError


class GridStrategy(Strategy):
    """Exhaustive sweep: every config once, at full fidelity.

    This is the paper's exploration phase generalized: given the same
    scores it picks the candidate ``explore()`` picks.
    """

    name = "grid"

    def __init__(self, trials: int = 3) -> None:
        if trials < 1:
            raise HarnessError(f"trials must be >= 1, got {trials}")
        self.trials = trials

    def run(self, space: SearchSpace):
        batch = tuple(
            Candidate(config, self.trials, rung=0) for config in space.grid()
        )
        scores = yield batch
        return batch[select_best(batch, scores)]


class RandomStrategy(Strategy):
    """Seeded random subset: ``samples`` distinct configs, one batch.

    Sampling is the space's deterministic content-hash ranking — the
    same seed proposes the same configs on every node.
    """

    name = "random"

    def __init__(self, samples: int, seed: int = 0, trials: int = 3) -> None:
        if samples < 1:
            raise HarnessError(f"samples must be >= 1, got {samples}")
        if trials < 1:
            raise HarnessError(f"trials must be >= 1, got {trials}")
        self.samples = samples
        self.seed = seed
        self.trials = trials

    def run(self, space: SearchSpace):
        batch = tuple(
            Candidate(config, self.trials, rung=0)
            for config in space.sample(self.samples, self.seed)
        )
        scores = yield batch
        return batch[select_best(batch, scores)]


class SuccessiveHalvingStrategy(Strategy):
    """Successive halving over trial-count fidelity.

    Rung 0 evaluates the starting population (the full grid by default,
    or ``initial`` seeded samples) at ``min_trials`` trials each; every
    rung keeps the best ``ceil(n / eta)`` configs (score order, ties
    broken by rung position) and re-evaluates the survivors with
    ``eta``-times the trials, capped at ``max_trials``.  The search
    stops when one survivor remains — spending most of the trial budget
    on the configurations the cheap early rungs could not separate.
    """

    name = "successive-halving"

    def __init__(
        self,
        *,
        initial: "int | None" = None,
        eta: int = 3,
        seed: int = 0,
        min_trials: int = 1,
        max_trials: int = 9,
    ) -> None:
        if eta < 2:
            raise HarnessError(f"eta must be >= 2, got {eta}")
        if initial is not None and initial < 2:
            raise HarnessError(f"initial population must be >= 2, got {initial}")
        if min_trials < 1 or max_trials < min_trials:
            raise HarnessError(
                f"need 1 <= min_trials <= max_trials, got "
                f"{min_trials}..{max_trials}"
            )
        self.initial = initial
        self.eta = eta
        self.seed = seed
        self.min_trials = min_trials
        self.max_trials = max_trials

    def run(self, space: SearchSpace):
        if self.initial is None or self.initial >= space.size:
            population = space.grid()
        else:
            population = space.sample(self.initial, self.seed)
        trials = self.min_trials
        rung = 0
        while True:
            batch = tuple(
                Candidate(config, trials, rung=rung) for config in population
            )
            scores = yield batch
            if len(scores) != len(batch):
                raise HarnessError(
                    f"rung {rung}: got {len(scores)} scores for "
                    f"{len(batch)} candidates"
                )
            if len(batch) == 1:
                return batch[0]
            keep = max(1, math.ceil(len(batch) / self.eta))
            # Stable sort: equal scores keep rung order, so promotion is
            # deterministic and independent of float tie noise sources.
            order = sorted(range(len(batch)), key=lambda i: (scores[i], i))
            survivors = [batch[i].config for i in order[:keep]]
            if keep == 1 and trials >= self.max_trials:
                return batch[order[0]]
            population = tuple(survivors)
            trials = min(trials * self.eta, self.max_trials)
            rung += 1


def make_strategy(
    name: str,
    *,
    samples: "int | None" = None,
    seed: int = 0,
    eta: int = 3,
    trials: int = 3,
    min_trials: int = 1,
) -> Strategy:
    """Build a strategy from CLI-ish knobs.

    ``trials`` is the full fidelity: grid/random per-config trials and
    the successive-halving cap, which must not be below ``min_trials``.
    """
    if name == GridStrategy.name:
        return GridStrategy(trials=trials)
    if name == RandomStrategy.name:
        if samples is None:
            raise HarnessError("random strategy needs --samples")
        return RandomStrategy(samples, seed=seed, trials=trials)
    if name == SuccessiveHalvingStrategy.name:
        return SuccessiveHalvingStrategy(
            initial=samples,
            eta=eta,
            seed=seed,
            min_trials=min_trials,
            max_trials=trials,
        )
    raise HarnessError(
        f"unknown strategy {name!r}; choose from grid, random, "
        f"successive-halving"
    )
