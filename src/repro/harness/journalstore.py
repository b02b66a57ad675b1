"""Sharded campaign journals: per-shard checkpoint logs, their
directory store, and the cross-shard merge.

The paper's 540-cell grid was measured across many Fugaku nodes.  Each
node's engine writes what it finished to a journal, and any node can
fold the journals of every shard back into the full study result:

:class:`CampaignJournal`
    One append-only JSONL log of a campaign shard's finished cells.
    The engine writes it and never reads it: a killed campaign is
    rerun on its cache dir, where every cell it finished is a
    ``cells/`` hit.  A run's header goes through temp file +
    ``os.replace``, so the previous journal stays intact until the new
    one is durably in place.

:func:`shard_cells` / :func:`shard_of`
    The deterministic shard assignment over canonical (benchmark-major)
    cell order.  Cells are assigned **benchmark-major**: all variants
    of one benchmark land on the same shard (so a shard's workers keep
    reusing compiled kernels), and benchmarks are dealt round-robin so
    the shards stay balanced.  The assignment is a pure function of the
    cell list and the shard count — no hashing, no randomness — so
    every node, every process, and every ``PYTHONHASHSEED`` agrees.

:class:`DirectoryJournalStore`
    One journal per ``(campaign_fingerprint, shard i/N)`` in one
    directory.  The unsharded journal keeps its legacy name
    ``journal.jsonl``; shard ``i`` of ``N`` writes
    ``journal-<i>of<N>.jsonl`` next to it.

:func:`merge_journals` / :class:`MergedJournal`
    Folds any subset of shard journals — plus a legacy single
    ``journal.jsonl`` — into one completed-cell map, with conflict
    detection: journals from different campaigns (fingerprint
    mismatch) and contradictory records for the same cell both raise
    :class:`~repro.errors.HarnessError` instead of silently mixing
    results.

:func:`merged_result`
    Assembles a :class:`~repro.harness.results.CampaignResult` from a
    merged journal set, in canonical cell order, so ``a64fx-campaign
    journal merge`` can produce the full study result without
    re-running anything.

Shard indices are 1-based everywhere a human sees them (CLI
``--shard 1/4``, file names, headers, ``CampaignResult.meta``).
"""

from __future__ import annotations

import json
import re
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from pathlib import Path

from repro import telemetry
from repro.atomicio import atomic_write
from repro.errors import HarnessError
from repro.harness.results import (
    FAILURE_STATUSES,
    CampaignResult,
    RunRecord,
    record_from_dict,
    record_to_dict,
)

#: Bumped when the engine's journal/cell formats change incompatibly.
ENGINE_VERSION = 1

#: A cell identity as journals store it: (benchmark full name, variant).
CellName = tuple[str, str]

#: File name of shard ``index``/``count`` (1-based).  1/1 keeps the
#: legacy name so pre-shard journals remain first-class citizens.
_SHARD_FILE_RE = re.compile(r"^journal-(\d+)of(\d+)\.jsonl$")


def validate_shard(shard: "tuple[int, int] | None") -> tuple[int, int]:
    """Normalize and validate a 1-based ``(index, count)`` shard spec."""
    if shard is None:
        return (1, 1)
    try:
        index, count = int(shard[0]), int(shard[1])
    except (TypeError, ValueError, IndexError):
        raise HarnessError(
            f"shard must be an (index, count) pair, got {shard!r}"
        ) from None
    if count < 1:
        raise HarnessError(f"shard count must be >= 1, got {count}")
    if not 1 <= index <= count:
        raise HarnessError(
            f"shard index must be in [1, {count}], got {index} "
            f"(shards are 1-based: the first of four is 1/4)"
        )
    return (index, count)


def shard_journal_name(index: int, count: int) -> str:
    """On-disk journal file name for shard ``index``/``count``."""
    index, count = validate_shard((index, count))
    if count == 1:
        return "journal.jsonl"
    return f"journal-{index}of{count}.jsonl"


def shard_of(cells: Sequence[CellName], count: int) -> tuple[int, ...]:
    """1-based shard index per cell, benchmark-major round-robin.

    Benchmarks keep their canonical (first-appearance) order; benchmark
    ``k`` goes to shard ``(k % count) + 1``, taking all of its variants
    with it.  Deterministic by construction — the same cell list and
    count produce the same assignment on every node.
    """
    if count < 1:
        raise HarnessError(f"shard count must be >= 1, got {count}")
    bench_pos: dict[str, int] = {}
    for bench, _variant in cells:
        if bench not in bench_pos:
            bench_pos[bench] = len(bench_pos)
    return tuple((bench_pos[bench] % count) + 1 for bench, _variant in cells)


def shard_cells(
    cells: Sequence[CellName], index: int, count: int
) -> tuple[CellName, ...]:
    """The subset of ``cells`` assigned to shard ``index``/``count``,
    in canonical order."""
    index, count = validate_shard((index, count))
    owners = shard_of(cells, count)
    return tuple(c for c, owner in zip(cells, owners) if owner == index)


# -- one journal ---------------------------------------------------------


class CampaignJournal:
    """Append-only JSONL log of one campaign (shard)'s finished cells.

    Line 1 is a header identifying the campaign (machine, the **full**
    campaign cell list, the shard this journal covers, and a
    fingerprint over everything that affects results); each completed
    cell appends one ``cell`` line, flushed immediately so a killed run
    loses at most the in-flight cells.  A final ``done`` line marks
    clean completion of the shard.  Partial trailing lines (from a kill
    mid-write) are ignored on load.
    """

    def __init__(self, path: "str | Path") -> None:
        self.path = Path(path)
        self._fh = None

    # -- writing ---------------------------------------------------------

    def start(
        self,
        fingerprint: str,
        machine: str,
        cells: Sequence[CellName],
        shard: "tuple[int, int] | None" = None,
    ) -> None:
        """Open a fresh journal for appending: a header-only file
        atomically replaces whatever was there."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        shard = validate_shard(shard)
        header = {
            "kind": "header",
            "engine_version": ENGINE_VERSION,
            "fingerprint": fingerprint,
            "machine": machine,
            "shard": list(shard),
            "cells": [list(c) for c in cells],
        }
        atomic_write(self.path, json.dumps(header) + "\n")
        self._fh = open(self.path, "a")

    def append(self, record: RunRecord) -> None:
        if self._fh is not None:
            self._write({"kind": "cell", "record": record_to_dict(record)})

    def done(self) -> None:
        """Mark clean completion and close."""
        if self._fh is not None:
            self._write({"kind": "done"})
        self.close()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def _write(self, doc: dict) -> None:
        assert self._fh is not None
        self._fh.write(json.dumps(doc) + "\n")
        # flush() hands the line to the kernel, which survives a killed
        # process; per-line fsync would only add OS-crash durability at
        # ~3ms per cell.
        self._fh.flush()

    # -- reading ---------------------------------------------------------

    def load(self) -> "tuple[dict, list[RunRecord], bool] | None":
        """(header, completed records, ends in ``done``) or ``None``."""
        try:
            text = self.path.read_text()
        except OSError:
            return None
        header: dict | None = None
        records: list[RunRecord] = []
        finished = False
        for line in text.splitlines():
            try:
                doc = json.loads(line)
            except ValueError:
                continue  # truncated trailing line from a killed run
            kind = doc.get("kind")
            if kind == "header":
                header = doc
            elif kind == "cell" and header is not None:
                try:
                    records.append(record_from_dict(doc["record"]))
                except (HarnessError, KeyError, TypeError):
                    continue
                finished = False
            elif kind == "done":
                finished = True
        if header is None:
            return None
        return header, records, finished


# -- merged view ---------------------------------------------------------


@dataclass(frozen=True)
class ShardCoverage:
    """What one source journal contributed to a merge."""

    path: str
    #: 1-based (index, count) from the journal header; (1, 1) for a
    #: legacy unsharded journal.
    shard: tuple[int, int]
    #: Cells assigned to this shard by the deterministic assignment.
    assigned: int
    #: Distinct cell records the journal actually holds.
    completed: int
    #: Completed cells that degraded to a failure status.
    failures: int
    #: The journal carries a ``done`` marker (clean shard completion).
    finished: bool

    @property
    def label(self) -> str:
        return f"{self.shard[0]}/{self.shard[1]}"


@dataclass
class MergedJournal:
    """The fold of one or more shard journals of a single campaign."""

    fingerprint: str
    machine: str
    #: The full campaign cell list, canonical order (from the headers).
    cells: tuple[CellName, ...]
    #: Completed-cell map in canonical cell order.
    records: dict[CellName, RunRecord]
    #: Per-source coverage, in merge order.
    shards: tuple[ShardCoverage, ...] = ()

    @property
    def missing(self) -> tuple[CellName, ...]:
        return tuple(c for c in self.cells if c not in self.records)

    @property
    def complete(self) -> bool:
        return not self.missing


def merge_journals(paths: Iterable["str | Path"]) -> "MergedJournal | None":
    """Fold any subset of shard journals into one completed-cell map.

    Accepts shard journals and legacy unsharded ``journal.jsonl`` files
    interchangeably.  Returns ``None`` when no readable journal is
    found.  Raises :class:`HarnessError` when the journals disagree on
    the campaign fingerprint, or when two journals carry
    *contradictory* records for the same cell — identical duplicates (a
    cell checkpointed by several shards, or by an unsharded rerun) merge
    cleanly, first occurrence wins.  Only the cells of the header's
    cell list are kept.
    """
    fingerprint: str | None = None
    machine = ""
    cells: tuple[CellName, ...] = ()
    merged: dict[CellName, RunRecord] = {}
    origin: dict[CellName, str] = {}
    shards: list[ShardCoverage] = []
    for raw_path in paths:
        path = Path(raw_path)
        journal = CampaignJournal(path)
        loaded = journal.load()
        if loaded is None:
            continue
        header, records, finished = loaded
        fp = header.get("fingerprint")
        if fingerprint is not None and fp != fingerprint:
            raise HarnessError(
                f"journal at {path} belongs to a different campaign "
                f"(machine/benchmarks/variants/flags changed); delete it or "
                f"pick a fresh --cache-dir to start over"
            )
        if fingerprint is None:
            fingerprint = fp
            machine = str(header.get("machine", ""))
            cells = tuple((str(b), str(v)) for b, v in header.get("cells", []))
        shard = validate_shard(tuple(header.get("shard", (1, 1))))
        seen_here: set[CellName] = set()
        failures = 0
        for record in records:
            name = (record.benchmark, record.variant)
            if name not in seen_here:
                seen_here.add(name)
                if record.status in FAILURE_STATUSES:
                    failures += 1
            held = merged.get(name)
            if held is None:
                merged[name] = record
                origin[name] = str(path)
                telemetry.count("journal.merged_records")
            elif record_to_dict(held) != record_to_dict(record):
                raise HarnessError(
                    f"conflicting records for cell {name[0]}/{name[1]}: "
                    f"{origin[name]} and {path} checkpoint the same campaign "
                    f"fingerprint but disagree on the result — the journals "
                    f"cannot be merged safely"
                )
        assigned = len(shard_cells(cells, *shard)) if cells else len(seen_here)
        shards.append(
            ShardCoverage(
                path=str(path),
                shard=shard,
                assigned=assigned,
                completed=len(seen_here),
                failures=failures,
                finished=finished,
            )
        )
    if fingerprint is None:
        return None
    return MergedJournal(
        fingerprint=fingerprint,
        machine=machine,
        cells=cells,
        # Canonical cell order.
        records={name: merged[name] for name in cells if name in merged},
        shards=tuple(shards),
    )


def merged_result(
    merged: MergedJournal, *, allow_partial: bool = False
) -> CampaignResult:
    """Assemble a :class:`CampaignResult` from a merged journal set.

    The records follow canonical cell order, so a complete merge is
    record-for-record identical to the unsharded serial run.  An
    incomplete merge raises unless ``allow_partial`` is set, in which
    case the missing cells are simply absent and counted in ``meta``.
    """
    missing = merged.missing
    if missing and not allow_partial:
        preview = ", ".join(f"{b}/{v}" for b, v in missing[:5])
        more = f" (+{len(missing) - 5} more)" if len(missing) > 5 else ""
        raise HarnessError(
            f"merged journals cover {len(merged.records)} of "
            f"{len(merged.cells)} cells; missing {preview}{more} — finish "
            f"(or rerun) the remaining shards, or pass allow_partial"
        )
    result = CampaignResult(machine=merged.machine)
    for record in merged.records.values():
        result.add(record)
    result.meta = {
        "engine_version": ENGINE_VERSION,
        "cells": len(merged.cells),
        "missing": len(missing),
        "fingerprint": merged.fingerprint,
        "merged_from": [
            {
                "path": cov.path,
                "shard": list(cov.shard),
                "assigned": cov.assigned,
                "completed": cov.completed,
                "failures": cov.failures,
                "finished": cov.finished,
            }
            for cov in merged.shards
        ],
    }
    return result


# -- the store -----------------------------------------------------------


class DirectoryJournalStore:
    """Where a campaign's shard journals live: sibling files in one
    directory.

    One journal exists per ``(campaign_fingerprint, shard i/N)``; the
    store hands out journals for writing and enumerates and merges
    whatever subset is present.  The unsharded journal is the legacy
    ``journal.jsonl``; shard ``i`` of ``N`` lives in
    ``journal-<i>of<N>.jsonl``.  A directory shared over a parallel
    file system (the multi-node campaign case) needs no coordination:
    every shard appends only to its own file, and any node can merge
    the visible subset.
    """

    def __init__(self, root: "str | Path") -> None:
        self.root = Path(root)

    def journal(self, shard: "tuple[int, int] | None" = None) -> CampaignJournal:
        index, count = validate_shard(shard)
        return CampaignJournal(self.root / shard_journal_name(index, count))

    def journal_paths(self) -> tuple[Path, ...]:
        """Every journal file present, legacy first, then shards in
        (count, index) order — a deterministic merge order."""
        if not self.root.is_dir():
            return ()
        legacy = self.root / "journal.jsonl"
        found: list[tuple[tuple[int, int], Path]] = []
        for path in self.root.iterdir():
            match = _SHARD_FILE_RE.match(path.name)
            if match:
                found.append(((int(match.group(2)), int(match.group(1))), path))
        ordered = [p for _key, p in sorted(found)]
        if legacy.is_file():
            ordered.insert(0, legacy)
        return tuple(ordered)

    def merge(self) -> "MergedJournal | None":
        return merge_journals(self.journal_paths())
