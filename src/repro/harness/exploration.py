"""The exploration phase (Section 2.4).

"We employ an exploration phase for each compiler and test various MPI
and/or OMP combinations for all parallelized, strong-scaling benchmarks
..., using three trial runs each.  The fastest time-to-solution
determines the final MPI/OMP setting (individual per compiler) for the
performance runs."

Benchmark constraints honoured: PolyBench is pinned to one core; SWFFT
needs power-of-two ranks; OpenMP-only codes keep one rank; weak-scaling
codes (miniAMR, XSBench) skip exploration and use the recommended
placement.

The auto-tuning package re-exports the candidate set (as
``benchmark_placements``), :func:`fastest_of` and :func:`select_best`;
its search strategies break ties with the same :func:`select_best`.
``explore()`` winners are a compatibility contract the golden campaign
results depend on.
"""

from __future__ import annotations

from repro.compilers.flags import CompilerFlags
from repro.machine.machine import Machine
from repro.machine.topology import Placement, candidate_placements
from repro.perf.batch import evaluate_placements
from repro.perf.cost import CompilationCache, ModelResult
from repro.perf.noise import noise_multiplier
from repro.suites.base import Benchmark, ParallelKind, ScalingKind

#: Trial runs per placement candidate (Sec. 2.4).
EXPLORATION_TRIALS = 3


def placement_candidates(bench: Benchmark, machine: Machine) -> tuple[Placement, ...]:
    """The placements the exploration phase tries for one benchmark.

    This is the paper's Sec. 2.4 candidate set, honouring each
    benchmark's constraints (see the module docstring).  The candidate
    order is a compatibility contract: first-wins tie-breaks make
    winners order-sensitive.
    """
    topo = machine.topology
    if bench.pinned_single_core or bench.parallel is ParallelKind.SERIAL:
        return (Placement(1, 1),)
    if bench.scaling is ScalingKind.WEAK:
        # Weak-scaling codes are excluded from the sweep (Sec. 2.4).
        return (machine.recommended_placement(),)
    if bench.parallel is ParallelKind.OPENMP:
        threads: list[int] = []
        t = 1
        while t <= topo.total_cores:
            threads.append(t)
            t *= 2
        if topo.cores_per_domain not in threads:
            threads.append(topo.cores_per_domain)
        if topo.total_cores not in threads:
            threads.append(topo.total_cores)
        return tuple(Placement(1, t) for t in sorted(set(threads)))
    if bench.parallel is ParallelKind.MPI:
        ranks: list[int] = []
        r = 1
        while r <= topo.total_cores:
            ranks.append(r)
            r *= 2
        if topo.numa_domains not in ranks:
            ranks.append(topo.numa_domains)
        if topo.total_cores not in ranks:
            ranks.append(topo.total_cores)
        if bench.pow2_ranks:
            ranks = [x for x in ranks if not x & (x - 1)]
        return tuple(Placement(x, 1) for x in sorted(set(ranks)))
    return candidate_placements(topo, pow2_ranks_only=bench.pow2_ranks)


def fastest_of(time_s: float, cv: float, trials: int, *key_parts: object) -> float:
    """Fastest of ``trials`` noisy observations of one model time.

    Trial ``i`` multiplies ``time_s`` by the deterministic
    :func:`~repro.perf.noise.noise_multiplier` keyed on
    ``(*key_parts, i)``; the minimum is the score — the exploration
    phase's best-of-three arithmetic.  Trial indices always start at 0:
    evaluating the same key at a higher fidelity *extends* the trial
    set, so scores improve monotonically across successive-halving
    rungs.
    """
    return min(
        time_s * noise_multiplier(cv, *key_parts, trial)
        for trial in range(trials)
    )


def select_best(candidates, scores) -> int:
    """Index of the winner: first strictly-smallest score in order."""
    best_index = -1
    best_score = float("inf")
    for i, score in enumerate(scores):
        if score < best_score:
            best_score = score
            best_index = i
    if best_index < 0:
        # All-inf scores (every build failed): first candidate, the same
        # convention the exploration phase uses for failed cells.
        best_index = 0
    return best_index


def explore(
    bench: Benchmark,
    variant: str,
    machine: Machine,
    *,
    flags: CompilerFlags | None = None,
    cache: CompilationCache | None = None,
) -> tuple[Placement, tuple[tuple[int, int, float], ...], ModelResult]:
    """Run the exploration sweep; returns (winner, trial log, its model).

    Each candidate gets :data:`EXPLORATION_TRIALS` noisy trials; the
    placement with the fastest single trial wins (per the paper).
    Failed builds return the *first legal candidate* unexplored — the
    failure is recorded by the performance runner anyway, but the
    placement must still satisfy the benchmark's constraints.  (The
    historical behaviour returned ``machine.recommended_placement()``
    unconditionally, handing pinned-single-core and OpenMP-only codes
    a 4x12 MPI placement they cannot legally run.)

    The whole candidate sweep is costed in one call to
    :func:`repro.perf.batch.evaluate_placements` (kernels compile once,
    features extract once, the per-placement arithmetic is batched).
    """
    cache = cache if cache is not None else CompilationCache()
    candidates = placement_candidates(bench, machine)
    models = evaluate_placements(
        bench, variant, machine, candidates, flags=flags, cache=cache
    )
    if not models[0].valid:
        # Build failures are placement-independent: hand back the
        # first model — and the first *candidate*, which is legal by
        # construction.
        return candidates[0], (), models[0]

    # The paper's best-of-three noisy trials per candidate; the first
    # strictly-fastest candidate wins.
    scores = tuple(
        fastest_of(
            model.time_s,
            bench.noise_cv,
            EXPLORATION_TRIALS,
            "explore",
            bench.full_name,
            variant,
            str(placement),
        )
        for placement, model in zip(candidates, models)
    )
    best = select_best(candidates, scores)
    log = tuple(
        (placement.ranks, placement.threads, score)
        for placement, score in zip(candidates, scores)
    )
    return candidates[best], log, models[best]
