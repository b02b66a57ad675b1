"""The tuner: strategies × scenarios on campaign infrastructure.

:func:`run_tune` drives one search: the strategy proposes candidate
batches, the scenario evaluates them noise-free and batched (one
:func:`~repro.perf.batch.evaluate_placements` call per group), the
tuner layers the deterministic trial noise on top and journals every
scored candidate through the same machinery measurement campaigns use:

* **journal resume** — every (config, fidelity) evaluation appends one
  :class:`~repro.harness.results.RunRecord` to a
  :class:`~repro.harness.journalstore.CampaignJournal` under
  ``<cache_dir>/tuning/<scenario>/``, opened through
  :func:`~repro.harness.journalstore.open_journal` like a campaign's.
  A killed search resumed with ``TuneSpec(resume=True)`` replays the
  journaled records and appends only the remainder — byte-identical to
  the uninterrupted run.  Resuming a finished search appends nothing.
* **content-addressed caching** — finished evaluations land in a
  :class:`~repro.harness.engine.CellCache` keyed by scenario
  fingerprint + candidate identity (strategy-independent, so a random
  probe warms the successive-halving run that follows).
* **in-process evaluation** — each batch's pending candidates are
  scored in one batched scenario call in this process.  A search is
  too small to pay for a process pool, so ``TuneSpec.workers`` is
  accepted and ignored.
* **telemetry** — a ``tune`` span wraps the search, one ``tune.rung``
  span per batch, with ``tuner.*`` counters and a best-score gauge
  (see :mod:`repro.telemetry.recorder`).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro import telemetry
from repro.errors import HarnessError
from repro.harness.engine import CellCache
from repro.harness.journalstore import (
    CampaignJournal,
    DirectoryJournalStore,
    open_journal,
)
from repro.harness.results import RunRecord
from repro.machine.machine import Machine
from repro.perf.noise import noise_multiplier
from repro.telemetry.recorder import SPAN_TUNE, SPAN_TUNE_RUNG
from repro.tuning.scenario import Evaluation, Scenario, get_scenario
from repro.tuning.strategies import Candidate, Strategy, make_strategy

__all__ = [
    "RungSummary",
    "TrajectoryPoint",
    "TuneInterrupted",
    "TuneResult",
    "TuneSpec",
    "run_tune",
]

#: Journal/cache format marker for tuning searches.
TUNE_VERSION = 1


class TuneInterrupted(HarnessError):
    """Raised by the ``stop_after_evaluations`` kill-switch (CI's
    mid-search-kill gate); the journal keeps everything appended so far."""


@dataclass(frozen=True)
class TuneSpec:
    """Everything one tuning search needs, in one frozen bundle."""

    #: Scenario object or spec string (``"gemm-int8-sdot"``,
    #: ``"placement:<suite.name>[:<variant>]"``).
    scenario: "Scenario | str" = "gemm-int8-sdot"
    #: ``"grid"``, ``"random"`` or ``"successive-halving"``.
    strategy: str = "successive-halving"
    #: Machine model or registry name; ``None`` = the paper's A64FX.
    machine: "Machine | str | None" = None
    #: Full-fidelity trials per config (the exploration phase's 3; also
    #: the successive-halving cap).
    trials: int = 3
    #: Successive halving's rung-0 trials.
    min_trials: int = 1
    #: Population for ``random`` (required) and successive halving
    #: (``None`` starts from the full grid).
    samples: "int | None" = None
    #: Successive halving's keep-1-in-eta ratio.
    eta: int = 3
    #: Seed for sampled populations.
    seed: int = 0
    #: Root for the tuning journal and evaluation cache; ``None``
    #: disables persistence (no resume, no cross-run cache).
    cache_dir: "str | Path | None" = None
    #: Resume an interrupted search from its journal.
    resume: bool = False
    #: Accepted and ignored: every search evaluates in-process.
    workers: int = 1

    def with_(self, **kwargs: object) -> "TuneSpec":
        """A copy with the given fields replaced."""
        return replace(self, **kwargs)  # type: ignore[arg-type]


@dataclass(frozen=True)
class TrajectoryPoint:
    """One scored candidate, in evaluation order."""

    order: int
    rung: int
    label: str
    trials: int
    score: float
    best_so_far: float


@dataclass(frozen=True)
class RungSummary:
    """One strategy batch: population, fidelity, where scores came from."""

    rung: int
    trials: int
    configs: int
    evaluated: int
    from_journal: int
    from_cache: int
    best_label: str
    best_score: float


@dataclass(frozen=True)
class TuneResult:
    """Outcome of one tuning search."""

    scenario: str
    strategy: str
    machine: str
    #: Winner identity and score.
    best_label: str
    best_score: float
    #: Noise-free model time and scenario detail for the winner.
    best_time_s: float
    best_detail: dict = field(default_factory=dict)
    evaluations: int = 0
    from_journal: int = 0
    from_cache: int = 0
    rungs: tuple[RungSummary, ...] = ()
    trajectory: tuple[TrajectoryPoint, ...] = ()
    #: Always true: every search runs to its winner.
    complete: bool = True
    #: The scenario's calibrated answer, when it declares one.
    known_best_label: "str | None" = None
    journal: "str | None" = None
    meta: dict = field(default_factory=dict)

    @property
    def rediscovered(self) -> "bool | None":
        """Did the search find the scenario's known-best config?
        ``None`` when the scenario declares no known best."""
        if self.known_best_label is None:
            return None
        return self.best_label == self.known_best_label

    def to_dict(self) -> dict:
        doc = {
            "scenario": self.scenario,
            "strategy": self.strategy,
            "machine": self.machine,
            "best": {
                "label": self.best_label,
                "score": self.best_score,
                "time_s": self.best_time_s,
                "detail": dict(self.best_detail),
            },
            "evaluations": self.evaluations,
            "from_journal": self.from_journal,
            "from_cache": self.from_cache,
            "complete": self.complete,
            "known_best_label": self.known_best_label,
            "journal": self.journal,
            "rungs": [
                {
                    "rung": r.rung,
                    "trials": r.trials,
                    "configs": r.configs,
                    "evaluated": r.evaluated,
                    "from_journal": r.from_journal,
                    "from_cache": r.from_cache,
                    "best_label": r.best_label,
                    "best_score": r.best_score,
                }
                for r in self.rungs
            ],
            "trajectory": [
                {
                    "order": p.order,
                    "rung": p.rung,
                    "label": p.label,
                    "trials": p.trials,
                    "score": p.score,
                    "best_so_far": p.best_so_far,
                }
                for p in self.trajectory
            ],
            "meta": dict(self.meta),
        }
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)



# -- record plumbing ------------------------------------------------------


def _tune_benchmark_name(scenario: Scenario) -> str:
    return f"tune:{scenario.name}"


def candidate_runs(
    scenario: Scenario, evaluation: Evaluation, trials: int
) -> tuple[float, ...]:
    """The candidate's noisy trial times (empty for invalid configs).

    Trial ``i`` is keyed ``("tune", scenario, label, i)`` — independent
    of rung and strategy, so a higher-fidelity re-evaluation *extends*
    the lower rung's trials instead of redrawing them.
    """
    if not evaluation.valid:
        return ()
    return tuple(
        evaluation.time_s
        * noise_multiplier(
            scenario.noise_cv,
            "tune",
            scenario.name,
            evaluation.config.label,
            trial,
        )
        for trial in range(trials)
    )


def candidate_record(
    scenario: Scenario, candidate: Candidate, evaluation: Evaluation
) -> RunRecord:
    """The journal/cache record for one scored candidate."""
    placement = evaluation.placement
    return RunRecord(
        benchmark=_tune_benchmark_name(scenario),
        suite="tune",
        variant=candidate.name,
        ranks=placement.ranks if placement is not None else 1,
        threads=placement.threads if placement is not None else 1,
        runs=candidate_runs(scenario, evaluation, candidate.trials),
        status=evaluation.status,
    )


def _record_score(record: RunRecord) -> float:
    return min(record.runs) if record.runs else float("inf")


def _search_fingerprint(
    scenario: Scenario, strategy: Strategy, machine: Machine
) -> str:
    """Journal identity: everything that affects the record *sequence*."""
    parts = (
        f"tune|v{TUNE_VERSION}",
        scenario.fingerprint(machine),
        strategy.describe(),
        f"cv={scenario.noise_cv!r}",
        machine.name,
    )
    return hashlib.sha256("|".join(parts).encode()).hexdigest()


def _eval_fingerprint(scenario: Scenario, machine: Machine) -> str:
    """Cache identity: strategy-independent, so searches share entries."""
    parts = (
        f"tune-eval|v{TUNE_VERSION}",
        scenario.fingerprint(machine),
        f"cv={scenario.noise_cv!r}",
        machine.name,
    )
    return hashlib.sha256("|".join(parts).encode()).hexdigest()


def _cache_key(eval_fingerprint: str, candidate: Candidate) -> str:
    return hashlib.sha256(
        f"tunecell|{eval_fingerprint}|{candidate.name}".encode()
    ).hexdigest()


def _evaluate_chunk(
    scenario: Scenario, machine: Machine, candidates: "list[Candidate]"
) -> "list[RunRecord]":
    """Score one rung's fresh candidates in-process, in one batched
    :meth:`Scenario.evaluate` call."""
    if not candidates:
        return []
    evaluations = scenario.evaluate(tuple(c.config for c in candidates), machine)
    return [
        candidate_record(scenario, cand, evaluation)
        for cand, evaluation in zip(candidates, evaluations)
    ]


# -- the tuner ------------------------------------------------------------


def run_tune(
    spec: "TuneSpec | None" = None,
    *,
    stop_after_evaluations: "int | None" = None,
    **overrides: object,
) -> TuneResult:
    """Run one tuning search (see the module docstring).

    Accepts a :class:`TuneSpec`, keyword overrides on top of one, or
    bare keywords.  ``stop_after_evaluations`` is the CI kill-switch:
    after journaling that many fresh evaluations the search raises
    :class:`TuneInterrupted`, leaving a journal a ``resume=True`` rerun
    completes byte-identically.
    """
    from repro.machine.select import resolve_machine

    spec = spec if spec is not None else TuneSpec()
    if overrides:
        spec = spec.with_(**overrides)

    scenario = (
        spec.scenario
        if isinstance(spec.scenario, Scenario)
        else get_scenario(spec.scenario)
    )
    machine = resolve_machine(spec.machine)
    strategy = make_strategy(
        spec.strategy,
        samples=spec.samples,
        seed=spec.seed,
        eta=spec.eta,
        trials=spec.trials,
        min_trials=spec.min_trials,
    )
    space = scenario.space(machine)
    search_fp = _search_fingerprint(scenario, strategy, machine)
    eval_fp = _eval_fingerprint(scenario, machine)
    bench_name = _tune_benchmark_name(scenario)

    gen = strategy.run(space)
    batch = next(gen)
    journal: "CampaignJournal | None" = None
    cache: "CellCache | None" = None
    known: dict[str, RunRecord] = {}
    if spec.cache_dir is not None:
        root = Path(spec.cache_dir) / "tuning" / scenario.name.replace(":", "-").replace("/", "-")
        cache = CellCache(root / "cells")
        # The header lists rung 0; a resume replays every journaled
        # record, later rungs included.
        journal, replayed = open_journal(
            DirectoryJournalStore(root),
            search_fp,
            machine.name,
            [(bench_name, cand.name) for cand in batch],
            resume=spec.resume,
        )
        known = {variant: record for (_bench, variant), record in replayed.items()}

    evaluations = from_journal = from_cache = 0
    trajectory: list[TrajectoryPoint] = []
    rungs: list[RungSummary] = []
    best_so_far = float("inf")

    try:
        with telemetry.span(
            SPAN_TUNE, scenario=scenario.name, strategy=strategy.name
        ):
            rung_index = 0
            while True:
                rung_trials = batch[0].trials if batch else 0
                with telemetry.span(
                    SPAN_TUNE_RUNG,
                    rung=rung_index,
                    configs=len(batch),
                    trials=rung_trials,
                ):
                    records: dict[int, RunRecord] = {}
                    rung_journal = rung_cache = 0
                    pending: list[int] = []
                    for i, cand in enumerate(batch):
                        held = known.get(cand.name)
                        if held is not None:
                            records[i] = held
                            rung_journal += 1
                            continue
                        if cache is not None:
                            hit = cache.get(_cache_key(eval_fp, cand))
                            if hit is not None:
                                records[i] = hit
                                known[cand.name] = hit
                                rung_cache += 1
                                telemetry.count("tuner.cache_hits")
                                # Cache hits are journaled too, so the
                                # journal alone replays the search.
                                if journal is not None:
                                    journal.append(hit)
                                continue
                        pending.append(i)

                    fresh = _evaluate_chunk(
                        scenario, machine, [batch[i] for i in pending]
                    )
                    for i, record in zip(pending, fresh):
                        records[i] = record
                        known[batch[i].name] = record
                        evaluations += 1
                        telemetry.count("tuner.evaluations")
                        if cache is not None:
                            cache.put(_cache_key(eval_fp, batch[i]), record)
                        if journal is not None:
                            journal.append(record)
                            if (
                                stop_after_evaluations is not None
                                and evaluations >= stop_after_evaluations
                            ):
                                raise TuneInterrupted(
                                    f"stopped after {evaluations} evaluations "
                                    f"(kill-switch); resume from "
                                    f"{journal.path}"
                                )

                    from_journal += rung_journal
                    from_cache += rung_cache
                    scores = []
                    rung_best = float("inf")
                    rung_best_label = ""
                    for i, cand in enumerate(batch):
                        score = _record_score(records[i])
                        scores.append(score)
                        if score < best_so_far:
                            best_so_far = score
                        if score < rung_best:
                            rung_best = score
                            rung_best_label = cand.config.label
                        trajectory.append(
                            TrajectoryPoint(
                                order=len(trajectory),
                                rung=cand.rung,
                                label=cand.config.label,
                                trials=cand.trials,
                                score=score,
                                best_so_far=best_so_far,
                            )
                        )
                    rungs.append(
                        RungSummary(
                            rung=rung_index,
                            trials=rung_trials,
                            configs=len(batch),
                            evaluated=len(pending),
                            from_journal=rung_journal,
                            from_cache=rung_cache,
                            best_label=rung_best_label,
                            best_score=rung_best,
                        )
                    )
                    telemetry.count("tuner.rungs")
                try:
                    batch = gen.send(tuple(scores))
                except StopIteration as stop:
                    winner: Candidate = stop.value
                    break
                rung_index += 1
        if journal is not None:
            journal.done()
    finally:
        if journal is not None:
            journal.close()

    known_best = scenario.known_best(machine)
    final = scenario.evaluate((winner.config,), machine)[0]
    winner_record = known.get(winner.name)
    best_score = (
        _record_score(winner_record)
        if winner_record is not None
        else min(candidate_runs(scenario, final, winner.trials) or (float("inf"),))
    )
    return TuneResult(
        scenario=scenario.name,
        strategy=strategy.name,
        machine=machine.name,
        best_label=winner.config.label,
        best_score=best_score,
        best_time_s=final.time_s,
        best_detail=dict(final.detail),
        evaluations=evaluations,
        from_journal=from_journal,
        from_cache=from_cache,
        rungs=tuple(rungs),
        trajectory=tuple(trajectory),
        known_best_label=known_best.label if known_best else None,
        journal=str(journal.path) if journal is not None else None,
        meta={"space_size": space.size},
    )
