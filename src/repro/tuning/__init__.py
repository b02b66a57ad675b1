"""Auto-tuning: typed search spaces, strategies, scenarios, the tuner.

The paper's exploration phase (Sec. 2.4) is a grid search over
rank×thread placements with best-of-three trials.  This package
generalizes it into a search-engine subsystem: a
:class:`~repro.tuning.space.SearchSpace` can span placements, compiler
variants, register-tile sizes and unroll factors; a strategy (``grid``,
seeded ``random``, ``successive-halving``) proposes candidate batches;
a :class:`~repro.tuning.scenario.Scenario` evaluates them batched and
noise-free; and :func:`~repro.tuning.tuner.run_tune` adds deterministic
trial noise, a content-addressed evaluation cache (a killed search is
finished by rerunning it on the same cache) and telemetry — the
campaign engine's guarantees applied to search.

The exploration phase's placement candidates, best-of-trials score
and first-wins tie-break come from :mod:`repro.harness.exploration`
and are re-exported here.  ``a64fx-campaign tune`` is the CLI entry
point.
"""

from repro.tuning.space import (
    Config,
    Parameter,
    SearchSpace,
    benchmark_placements,
    placement_space,
    render_value,
)
from repro.tuning.strategies import (
    Candidate,
    GridStrategy,
    RandomStrategy,
    Strategy,
    SuccessiveHalvingStrategy,
    fastest_of,
    make_strategy,
    select_best,
)
from repro.tuning.scenario import (
    Evaluation,
    PlacementScenario,
    Scenario,
    get_scenario,
    register_scenario,
    scenario_names,
)
from repro.tuning.gemm import Int8SdotGemmScenario
from repro.tuning.tuner import (
    RungSummary,
    TrajectoryPoint,
    TuneInterrupted,
    TuneResult,
    TuneSpec,
    run_tune,
)

__all__ = [
    "Candidate",
    "Config",
    "Evaluation",
    "GridStrategy",
    "Int8SdotGemmScenario",
    "Parameter",
    "PlacementScenario",
    "RandomStrategy",
    "RungSummary",
    "Scenario",
    "SearchSpace",
    "Strategy",
    "SuccessiveHalvingStrategy",
    "TrajectoryPoint",
    "TuneInterrupted",
    "TuneResult",
    "TuneSpec",
    "benchmark_placements",
    "fastest_of",
    "get_scenario",
    "make_strategy",
    "placement_space",
    "register_scenario",
    "render_value",
    "run_tune",
    "scenario_names",
    "select_best",
]
