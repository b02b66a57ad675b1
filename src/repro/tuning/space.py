"""Typed search spaces for the auto-tuner.

A :class:`SearchSpace` is an ordered tuple of categorical
:class:`Parameter` axes — ranks×threads placements, compiler-flag
bundles, register-tile sizes, unroll factors — and a :class:`Config` is
one point in that space.  Everything here is deterministic by
construction: grids enumerate in declared axis order, samples are ranked
by a seeded content hash (never ``random``/``PYTHONHASHSEED``), and
labels/digests derive from a canonical rendering, so the same space
produces the same candidates on every node and every run — the property
the content-addressed evaluation cache builds on.

The exploration phase's candidate set lives in
:mod:`repro.harness.exploration` and is re-exported here as
:func:`benchmark_placements`.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass

from repro.errors import HarnessError
from repro.harness.exploration import placement_candidates as benchmark_placements
from repro.machine.machine import Machine
from repro.machine.topology import Placement
from repro.suites.base import Benchmark

__all__ = [
    "Config",
    "Parameter",
    "SearchSpace",
    "benchmark_placements",
    "placement_space",
    "render_value",
]


def render_value(value: object) -> str:
    """Canonical string form of a parameter value.

    Stable across processes and hash seeds: placements render as
    ``"RxT"``, bools lowercase, everything else through ``str``.  The
    rendering is the identity used in labels, digests, record variants
    and cache keys, so it must never depend on object ids or dict/set
    iteration order.
    """
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


@dataclass(frozen=True)
class Parameter:
    """One categorical axis of a search space."""

    name: str
    choices: tuple

    def __post_init__(self) -> None:
        if not self.name:
            raise HarnessError("parameter name must be non-empty")
        if not self.choices:
            raise HarnessError(f"parameter {self.name!r} has no choices")
        rendered = [render_value(c) for c in self.choices]
        if len(set(rendered)) != len(rendered):
            raise HarnessError(
                f"parameter {self.name!r} has duplicate choices: {rendered}"
            )

    def index_of(self, value: object) -> int:
        """Position of ``value`` among the choices (by canonical render)."""
        rendered = render_value(value)
        for i, choice in enumerate(self.choices):
            if render_value(choice) == rendered:
                return i
        raise HarnessError(
            f"{rendered!r} is not a choice of parameter {self.name!r}"
        )


@dataclass(frozen=True)
class Config:
    """One point of a search space: ``(name, value)`` pairs in axis order."""

    items: tuple[tuple[str, object], ...]

    def __getitem__(self, name: str) -> object:
        for key, value in self.items:
            if key == name:
                return value
        raise KeyError(name)

    def get(self, name: str, default: object = None) -> object:
        try:
            return self[name]
        except KeyError:
            return default

    @property
    def label(self) -> str:
        """Human- and record-facing identity, e.g. ``mr=6,nr=4``."""
        return ",".join(f"{k}={render_value(v)}" for k, v in self.items)

    def values(self) -> dict[str, object]:
        return dict(self.items)

    def __str__(self) -> str:
        return self.label


@dataclass(frozen=True)
class SearchSpace:
    """An ordered product of categorical parameters."""

    params: tuple[Parameter, ...]

    def __post_init__(self) -> None:
        names = [p.name for p in self.params]
        if len(set(names)) != len(names):
            raise HarnessError(f"duplicate parameter names: {names}")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.params)

    @property
    def size(self) -> int:
        n = 1
        for p in self.params:
            n *= len(p.choices)
        return n

    def param(self, name: str) -> Parameter:
        for p in self.params:
            if p.name == name:
                return p
        raise HarnessError(f"no parameter named {name!r} in this space")

    def config(self, **values: object) -> Config:
        """Build (and validate) a config from keyword values."""
        if set(values) != set(self.names):
            raise HarnessError(
                f"config keys {sorted(values)} do not match space "
                f"parameters {sorted(self.names)}"
            )
        items = []
        for p in self.params:
            value = values[p.name]
            p.index_of(value)  # validates membership
            items.append((p.name, value))
        return Config(tuple(items))

    def grid(self) -> tuple[Config, ...]:
        """Every config, lexicographic in declared axis order."""
        combos = itertools.product(*(p.choices for p in self.params))
        return tuple(
            Config(tuple(zip(self.names, combo))) for combo in combos
        )

    def sample(self, n: int, seed: int) -> tuple[Config, ...]:
        """``n`` distinct configs, deterministically seeded.

        Every grid config is ranked by a sha256 over ``(seed, label)``
        and the ``n`` smallest digests win — no ``random`` module, no
        hash-seed sensitivity, stable across processes.  ``n`` at or
        above the grid size returns the whole grid (in ranked order).
        """
        if n <= 0:
            raise HarnessError(f"sample size must be positive, got {n}")
        ranked = sorted(
            self.grid(),
            key=lambda c: hashlib.sha256(
                f"{seed}|{c.label}".encode()
            ).hexdigest(),
        )
        return tuple(ranked[:n])

    @property
    def fingerprint(self) -> str:
        """Content hash over every axis (cache identity)."""
        parts = [
            f"{p.name}:[{','.join(render_value(c) for c in p.choices)}]"
            for p in self.params
        ]
        return hashlib.sha256("|".join(parts).encode()).hexdigest()


# -- placement spaces ------------------------------------------------------


def placement_space(
    placements: "tuple[Placement, ...] | None" = None,
    *,
    bench: "Benchmark | None" = None,
    machine: "Machine | None" = None,
) -> SearchSpace:
    """A one-axis space over rank×thread placements.

    Pass explicit ``placements``, or a ``(bench, machine)`` pair to use
    the exploration candidates.  Axis order preserves the candidate
    order, so a grid strategy over this space sweeps placements exactly
    the way ``explore()`` always did.
    """
    if placements is None:
        if bench is None or machine is None:
            raise HarnessError(
                "placement_space needs explicit placements or bench+machine"
            )
        placements = benchmark_placements(bench, machine)
    return SearchSpace((Parameter("placement", tuple(placements)),))
