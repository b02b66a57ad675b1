"""Tunable scenarios: what a search space's configs *mean*.

A :class:`Scenario` binds a :class:`~repro.tuning.space.SearchSpace` to
a batched, noise-free evaluation: given many configs, return one
:class:`Evaluation` (model time, validity, detail) per config, in
order.  The tuner layers deterministic trial noise, journaling and
caching on top — scenarios themselves stay pure model arithmetic, so
they are safe to re-evaluate on resume.

:class:`PlacementScenario` is the bridge to the measurement harness: a
one-axis (or placement × variant) space over a benchmark's exploration
candidates, evaluated through the batched
:func:`repro.perf.batch.evaluate_placements` — the same bit-identical
fast path the campaign engine and ``explore()`` use.

Scenarios are addressable by a spec string (``"gemm-int8-sdot"``,
``"placement:<suite.name>:<variant>"``), which is how the CLI and
:class:`~repro.tuning.tuner.TuneSpec` name them.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.compilers.base import CompileStatus
from repro.compilers.flags import CompilerFlags
from repro.errors import HarnessError
from repro.machine.machine import Machine
from repro.machine.topology import Placement
from repro.perf.batch import evaluate_placements
from repro.perf.cost import CompilationCache
from repro.suites.base import Benchmark
from repro.tuning.space import Config, SearchSpace, placement_space

__all__ = [
    "Evaluation",
    "PlacementScenario",
    "Scenario",
    "get_scenario",
    "register_scenario",
    "scenario_names",
]


#: CompileStatus → journal status string, the same mapping the harness
#: runner uses, so tuning records speak the campaign status vocabulary.
_STATUS_MAP = {
    CompileStatus.OK: "ok",
    CompileStatus.COMPILE_ERROR: "compiler error",
    CompileStatus.RUNTIME_FAULT: "runtime error",
}


@dataclass(frozen=True)
class Evaluation:
    """Noise-free model outcome for one config."""

    config: Config
    #: Ideal model time (seconds); ``inf`` for failed builds.
    time_s: float
    #: False when the config could not be evaluated (e.g. build failure).
    valid: bool = True
    #: Status string (mirrors :mod:`repro.harness.results` statuses).
    status: str = "ok"
    #: The rank×thread placement the config implies, if any.
    placement: "Placement | None" = None
    #: Scenario-specific numbers (e.g. the GEMM model's efficiency).
    detail: dict = field(default_factory=dict)


class Scenario:
    """One tunable problem: a space plus its batched evaluation."""

    #: Spec-string identity (also the journal/cache namespace).
    name = "scenario"
    #: Run-to-run variability the tuner's trial noise should model.
    noise_cv = 0.0

    def space(self, machine: Machine) -> SearchSpace:
        raise NotImplementedError

    def evaluate(
        self, configs: "tuple[Config, ...]", machine: Machine
    ) -> "tuple[Evaluation, ...]":
        """Batched noise-free evaluation, one result per config in order."""
        raise NotImplementedError

    def fingerprint(self, machine: Machine) -> str:
        """Content hash over everything that affects evaluations."""
        raise NotImplementedError

    def known_best(self, machine: Machine) -> "Config | None":
        """The config the scenario is calibrated to prefer, if any."""
        return None


class PlacementScenario(Scenario):
    """Tune a benchmark's rank×thread placement (and optionally the
    compiler variant) through the batched placement evaluator.

    The single-variant space reproduces the exploration phase exactly:
    same candidates, same order, same batched evaluation.  With several
    ``variants`` the space gains a second axis and each batch groups
    configs by variant so every group still flows through *one*
    :func:`~repro.perf.batch.evaluate_placements` call.
    """

    def __init__(
        self,
        bench: Benchmark,
        variant: str = "GNU",
        *,
        variants: "tuple[str, ...] | None" = None,
        flags: "CompilerFlags | None" = None,
    ) -> None:
        self.bench = bench
        self.variants = tuple(variants) if variants is not None else (variant,)
        if not self.variants:
            raise HarnessError("PlacementScenario needs at least one variant")
        self.flags = flags
        self.noise_cv = bench.noise_cv
        if len(self.variants) == 1:
            self.name = f"placement:{bench.full_name}:{self.variants[0]}"
        else:
            self.name = f"placement:{bench.full_name}:{'+'.join(self.variants)}"

    def space(self, machine: Machine) -> SearchSpace:
        space = placement_space(bench=self.bench, machine=machine)
        if len(self.variants) == 1:
            return space
        from repro.tuning.space import Parameter

        return SearchSpace(space.params + (Parameter("variant", self.variants),))

    def evaluate(
        self, configs: "tuple[Config, ...]", machine: Machine
    ) -> "tuple[Evaluation, ...]":
        cache = CompilationCache()
        # Group configs by variant, preserving order within each group,
        # so each group is one batched evaluate_placements call.
        groups: dict[str, list[int]] = {}
        for i, config in enumerate(configs):
            variant = str(config.get("variant", self.variants[0]))
            groups.setdefault(variant, []).append(i)
        out: list[Evaluation | None] = [None] * len(configs)
        for variant, indices in groups.items():
            placements = tuple(configs[i]["placement"] for i in indices)
            models = evaluate_placements(
                self.bench,
                variant,
                machine,
                placements,
                flags=self.flags,
                cache=cache,
            )
            for i, model in zip(indices, models):
                out[i] = Evaluation(
                    config=configs[i],
                    time_s=model.time_s,
                    valid=model.valid,
                    status=_STATUS_MAP.get(model.status, str(model.status.value)),
                    placement=model.placement,
                    detail={"variant": variant},
                )
        return tuple(out)  # type: ignore[arg-type]

    def fingerprint(self, machine: Machine) -> str:
        from repro.harness.engine import benchmark_fingerprint, canonical
        from repro.perf.cost import machine_fingerprint

        parts = (
            "placement-scenario",
            benchmark_fingerprint(self.bench),
            ",".join(self.variants),
            canonical(self.flags) if self.flags is not None else "default-flags",
            machine.name,
            machine_fingerprint(machine),
        )
        return hashlib.sha256("|".join(parts).encode()).hexdigest()


# -- the registry ---------------------------------------------------------

_FACTORIES: dict[str, object] = {}


def register_scenario(name: str, factory) -> None:
    """Register a zero-argument scenario factory under ``name``."""
    _FACTORIES[name] = factory


def scenario_names() -> tuple[str, ...]:
    """Registered scenario names (excluding the ``placement:`` family)."""
    return tuple(sorted(_FACTORIES))


def get_scenario(spec: str) -> Scenario:
    """Resolve a scenario spec string.

    ``"placement:<suite.name>[:<variant>]"`` builds a
    :class:`PlacementScenario` over a registry benchmark (variants may
    be ``+``-joined for a placement×variant space); any other spec is
    looked up among the registered named scenarios.
    """
    if spec.startswith("placement:"):
        _, _, rest = spec.partition(":")
        bench_name, _, variant = rest.partition(":")
        from repro.suites.registry import get_benchmark

        bench = get_benchmark(bench_name)
        variants = tuple(variant.split("+")) if variant else ("GNU",)
        return PlacementScenario(bench, variants=variants)
    factory = _FACTORIES.get(spec)
    if factory is None:
        known = ", ".join(sorted(_FACTORIES)) or "<none>"
        raise HarnessError(
            f"unknown scenario {spec!r}; known: {known}, or "
            f"placement:<suite.name>[:<variant>]"
        )
    return factory()  # type: ignore[operator]
