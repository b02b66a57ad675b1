"""Regenerate the benchmark's expected outputs from the current model.

    python3 perfbench/gen_expected.py

Writes ``expected/cells.json`` (one record digest per cell of the
108 x 5 paper grid, from a serial campaign without a cache dir) and
``expected/searches.json`` (the reference result digest and search
space size of every tune search the seeded plans can draw).  A change that alters model outputs
on purpose reruns this and says so; every other change must leave both
files untouched.
"""

from __future__ import annotations

import json
import sys

from check import EXPECTED_DIR
from common import SRC, record_digest, search_digest

#: The Figure-2 failure cells: correct outputs of the model, not errors.
FIGURE2_FAILURES = 7
GEMM_WINNER = "mr=6,nr=4,kc=256,unroll=2"


def main() -> int:
    sys.path.insert(0, str(SRC))
    from repro.api import CampaignConfig, CampaignSession, TuneSpec, run_tune
    from repro.harness.results import record_to_dict

    result = CampaignSession(CampaignConfig()).run()
    cells, failures = [], []
    for record in result.records.values():
        cells.append([record.benchmark, record.variant,
                      record_digest(record_to_dict(record))])
        if record.status != "ok":
            failures.append([record.benchmark, record.variant, record.status])
    if len(cells) != 540 or len(failures) != FIGURE2_FAILURES:
        print(f"unexpected grid: {len(cells)} cells, {len(failures)} failures",
              file=sys.stderr)
        return 1

    searches, spaces = {}, {}
    # A scenario spec joins variants with "+", so LLVM+Polly cannot be
    # named alone; the plans never draw it.
    scenarios = ["gemm-int8-sdot"] + [
        f"placement:{b}:{v}" for b, v, _ in cells if "+" not in v]
    for scenario in scenarios:
        doc = run_tune(TuneSpec(scenario=scenario)).to_dict()
        searches[scenario] = search_digest(doc)
        spaces[scenario] = doc["meta"]["space_size"]
        if scenario == "gemm-int8-sdot" and doc["best"]["label"] != GEMM_WINNER:
            print(f"gemm-int8-sdot found {doc['best']['label']}", file=sys.stderr)
            return 1

    EXPECTED_DIR.mkdir(exist_ok=True)
    (EXPECTED_DIR / "cells.json").write_text(json.dumps({
        "grid": {"machine": "a64fx", "flags": "default", "runs": 10},
        "failures": failures,
        "cells": cells,
    }, indent=1) + "\n")
    (EXPECTED_DIR / "searches.json").write_text(json.dumps({
        "strategy": "successive-halving",
        "gemm_winner": GEMM_WINNER,
        "searches": searches,
        "spaces": spaces,
    }, indent=1, sort_keys=True) + "\n")
    print(f"{len(cells)} cell digests ({len(failures)} failure cells), "
          f"{len(searches)} search digests")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
