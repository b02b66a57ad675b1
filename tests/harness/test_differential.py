"""Differential test: every execution path produces the same records.

A seeded random subset of cells runs through the serial loop, the
process pool, two shards folded by ``merged_result``, a campaign killed
mid-run and rerun on its cell cache with its journal deleted, and the
campaign service.  The record documents must match byte for byte, in canonical
order.  (Tuner candidates are not benchmark cells: their noise keys
differ from ``explore()``'s, so the tuner is not one of the paths.)
"""

from __future__ import annotations

import asyncio
import json
import random

import pytest

from repro.compilers.registry import STUDY_VARIANTS
from repro.harness.engine import CampaignEngine, EventKind
from repro.harness.journalstore import DirectoryJournalStore, merged_result
from repro.harness.results import record_to_dict
from repro.service import CampaignSpec
from repro.service.scheduler import CampaignScheduler
from repro.suites.registry import all_suites

RUNS = 3


class _Killed(Exception):
    pass


def _subset(seed: int):
    rng = random.Random(seed)
    benches = [b for s in all_suites() for b in s.benchmarks]
    return tuple(rng.sample(benches, 5)), tuple(rng.sample(STUDY_VARIANTS, 2)), rng


def _doc(records) -> str:
    return json.dumps([record_to_dict(r) for r in records], sort_keys=True)


@pytest.mark.parametrize("seed", [0, 1])
def test_every_path_gives_the_same_records(a64fx_machine, tmp_path, seed):
    benches, variants, rng = _subset(seed)

    def engine(**kw) -> CampaignEngine:
        return CampaignEngine(a64fx_machine, benchmarks=benches,
                              variants=variants, runs=RUNS, **kw)

    serial = _doc(engine().run().records.values())
    paths = {"workers=2": _doc(engine(workers=2).run().records.values())}

    shard_dir = tmp_path / "shards"
    for index in (1, 2):
        engine(cache_dir=shard_dir, shard=(index, 2)).run()
    merged = merged_result(DirectoryJournalStore(shard_dir).merge())
    paths["shards 1/2 + 2/2"] = _doc(merged.records.values())

    kill_after = rng.randrange(1, len(benches) * len(variants))
    finished = []

    def killer(event) -> None:
        if event.kind in (EventKind.CELL_FINISHED, EventKind.CELL_FAILED,
                          EventKind.CELL_TIMED_OUT):
            finished.append(event)
            if len(finished) >= kill_after:
                raise _Killed()

    killed_dir = tmp_path / "killed"
    with pytest.raises(_Killed):
        engine(cache_dir=killed_dir).run(emit=killer)
    # The journal is a log the engine never reads: the rerun answers
    # the killed run's finished cells from cells/ alone.
    (killed_dir / "journal.jsonl").unlink()
    rerun = engine(cache_dir=killed_dir).run()
    assert rerun.meta["cache_hits"] == kill_after
    assert rerun.meta["executed"] == len(benches) * len(variants) - kill_after
    paths["killed + rerun"] = _doc(rerun.records.values())

    async def service():
        scheduler = CampaignScheduler(tmp_path / "service", workers=0)
        campaign = scheduler.submit(CampaignSpec(
            benchmarks=tuple(b.full_name for b in benches),
            variants=variants, runs=RUNS,
        ))
        await campaign.task
        return [campaign.done[task.name] for task in campaign.cells]

    paths["service"] = _doc(asyncio.run(service()))

    for name, doc in paths.items():
        assert doc == serial, f"{name} differs from the serial run"
