"""Golden outputs of the cost model over the full grid, on every
registry machine.

``golden/model_grid.json`` holds one sha256 per (machine, benchmark,
variant) over ``repr()`` of that cell's model results, one per
exploration candidate.  ``repr`` keeps every float bit, and a numpy
scalar that leaked into a result would print differently and fail the
digest.  The three machines cover both
cache shapes: A64FX has two levels, Xeon and ThunderX2 three, so only
they exercise the middle (L2<->L3) boundary.

A change to the model's outputs regenerates the file on purpose and
says so:

    PYTHONPATH=src python -m tests.perf.test_model_golden
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.api import evaluate_grid
from repro.machine.select import MACHINES

GOLDEN = Path(__file__).parent / "golden" / "model_grid.json"


def cell_digest(results) -> str:
    """sha256 over the reprs of one cell's results, in candidate order."""
    text = "\n".join(repr(r) for r in results)
    return hashlib.sha256(text.encode()).hexdigest()


def grid_digests(machine_name: str) -> "tuple[dict[str, str], int]":
    """Every cell's digest on one machine, keyed ``machine/bench/variant``,
    and the number of placements costed."""
    digests = {}
    placements = 0
    for cell in evaluate_grid(machine=machine_name).cells:
        digests[f"{machine_name}/{cell.benchmark}/{cell.variant}"] = (
            cell_digest(cell.results))
        placements += len(cell.results)
    return digests, placements


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("machine_name", sorted(MACHINES))
def test_model_grid_matches_golden(machine_name):
    digests, placements = grid_digests(machine_name)
    golden = _golden()
    want = {k: v for k, v in golden["cells"].items()
            if k.startswith(machine_name + "/")}
    assert placements == golden["placements"][machine_name]
    assert sorted(digests) == sorted(want)
    changed = [k for k in sorted(digests) if digests[k] != want[k]]
    assert not changed, (
        f"{len(changed)} cells differ from {GOLDEN.name} (first: {changed[:5]})")


def test_golden_covers_every_registry_machine():
    golden = _golden()
    assert sorted(golden["placements"]) == sorted(MACHINES)
    machines = {key.split("/", 1)[0] for key in golden["cells"]}
    assert machines == set(MACHINES)


def main() -> int:
    cells: dict[str, str] = {}
    placements: dict[str, int] = {}
    for name in sorted(MACHINES):
        digests, placements[name] = grid_digests(name)
        cells.update(digests)
    GOLDEN.parent.mkdir(exist_ok=True)
    doc = {"cells": cells, "placements": placements}
    GOLDEN.write_text(json.dumps(doc, indent=0, sort_keys=True) + "\n")
    print(f"{len(cells)} cells, {sum(placements.values())} placements "
          f"-> {GOLDEN}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
