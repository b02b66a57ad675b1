"""Per-campaign metrics history: an append-only time series beside the
journal shards, and cross-run trend queries.

The journal records *what* finished; the history records *how the
campaign was doing* while it finished — one :class:`HistorySample` per
cell completion (progress, throughput, ETA, cache effectiveness, plus
the sampled counters/gauges and summarized histograms of the active
telemetry).  Each shard appends to its own ``history-<i>of<N>.jsonl``
next to its journal (unsharded campaigns keep ``history.jsonl``), so a
multi-node sweep needs no coordination and ``a64fx-campaign status``
can merge whatever subset of shards is visible — exactly the journal
discipline, applied to metrics.

The file is a *multi-run* series: every engine run appends a fresh
``run`` header line followed by its samples, so repeated campaigns
against one cache dir accumulate a trend history.  A fingerprint
change (different campaign) atomically replaces the file, mirroring
:meth:`repro.harness.journalstore.CampaignJournal.start`.

Write failures follow the PR 5 cache-write contract: never raised,
never swallowed silently — logged through stdlib ``logging``, counted
as ``history.write_error`` on the active telemetry, and the sample
simply missing from disk.
"""

from __future__ import annotations

import json
import logging
import os
import re
import time
from collections.abc import Iterable
from dataclasses import dataclass, field
from pathlib import Path

from repro import telemetry
from repro.atomicio import atomic_write, open_append

_LOG = logging.getLogger(__name__)

#: Bumped when the on-disk history format changes incompatibly.
HISTORY_SCHEMA = 1

_HISTORY_FILE_RE = re.compile(r"^history-(\d+)of(\d+)\.jsonl$")


def history_file_name(index: int, count: int) -> str:
    """On-disk history file name for shard ``index``/``count``."""
    if count == 1:
        return "history.jsonl"
    return f"history-{index}of{count}.jsonl"


@dataclass(frozen=True)
class HistorySample:
    """One point of the campaign time series, taken at a cell completion.

    Progress fields are always present (they come from the engine's own
    bookkeeping, telemetry on or off); ``counters``/``gauges``/
    ``histograms`` carry the active telemetry's snapshot and stay empty
    for untraced campaigns.  Histograms are summarized to
    ``{"count": n, "total": s}`` — the full bucket vectors belong in
    trace files, not a per-cell series.
    """

    #: Wall-clock seconds (``time.time()``) — comparable across nodes.
    t: float
    #: Seconds since this run started.
    elapsed_s: float
    completed: int
    total: int
    executed: int
    cache_hits: int
    resumed: int
    failures: int
    retried: int
    #: Completed cells per second of elapsed wall-clock.
    throughput_cps: float
    #: Remaining / throughput; ``None`` before the first completion
    #: and after the last.
    eta_s: "float | None"
    #: Cells satisfied without execution / cells decided so far
    #: (cache hits + resumed) / (cache hits + resumed + executed).
    cache_hit_rate: "float | None"
    #: What completion produced this sample (an EventKind value).
    event: str = ""
    #: ``benchmark/variant`` of the completing cell ("" for aggregate
    #: samples such as the final campaign-finished one).
    cell: str = ""
    counters: dict = field(default_factory=dict)
    gauges: dict = field(default_factory=dict)
    histograms: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        # Field by field, in declaration order: ``asdict`` deep-copies
        # the three dicts, which a once-per-cell sample cannot afford.
        return {
            "t": self.t,
            "elapsed_s": self.elapsed_s,
            "completed": self.completed,
            "total": self.total,
            "executed": self.executed,
            "cache_hits": self.cache_hits,
            "resumed": self.resumed,
            "failures": self.failures,
            "retried": self.retried,
            "throughput_cps": self.throughput_cps,
            "eta_s": self.eta_s,
            "cache_hit_rate": self.cache_hit_rate,
            "event": self.event,
            "cell": self.cell,
            "counters": self.counters,
            "gauges": self.gauges,
            "histograms": self.histograms,
            "kind": "sample",
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "HistorySample":
        return cls(
            t=float(doc.get("t", 0.0)),
            elapsed_s=float(doc.get("elapsed_s", 0.0)),
            completed=int(doc.get("completed", 0)),
            total=int(doc.get("total", 0)),
            executed=int(doc.get("executed", 0)),
            cache_hits=int(doc.get("cache_hits", 0)),
            resumed=int(doc.get("resumed", 0)),
            failures=int(doc.get("failures", 0)),
            retried=int(doc.get("retried", 0)),
            throughput_cps=float(doc.get("throughput_cps", 0.0)),
            eta_s=doc.get("eta_s"),
            cache_hit_rate=doc.get("cache_hit_rate"),
            event=str(doc.get("event", "")),
            cell=str(doc.get("cell", "")),
            counters=dict(doc.get("counters", {})),
            gauges=dict(doc.get("gauges", {})),
            histograms=dict(doc.get("histograms", {})),
        )


def summarize_histograms(snapshot: dict) -> dict:
    """``{name: {"count", "total"}}`` from a metrics snapshot."""
    return {
        name: {"count": doc.get("count", 0), "total": doc.get("total", 0.0)}
        for name, doc in snapshot.get("histograms", {}).items()
    }


class CampaignHistory:
    """One shard's append-only metrics time series."""

    def __init__(self, path: "str | Path") -> None:
        self.path = Path(path)
        self._fh = None

    # -- writing ---------------------------------------------------------

    def start(self, fingerprint: str, shard: "tuple[int, int]" = (1, 1)) -> bool:
        """Open the series for appending; returns ``False`` when the
        history could not be opened (the campaign proceeds without it).

        A matching existing file gains a fresh ``run`` header line (the
        cross-run trend grows); a file from a *different* campaign is
        atomically replaced, exactly like a stale journal.
        """
        header = {
            "kind": "run",
            "schema": HISTORY_SCHEMA,
            "fingerprint": fingerprint,
            "shard": list(shard),
            "t": round(time.time(), 6),
            "pid": os.getpid(),
        }
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            existing = self._fingerprint()
            if existing is not None and existing != fingerprint:
                # Different campaign: replace atomically so no instant
                # leaves a mixed-campaign series behind.
                atomic_write(self.path, json.dumps(header) + "\n")
                self._fh = open(self.path, "a")
                return True
            self._fh = open_append(self.path)
            self._fh.write(json.dumps(header) + "\n")
            self._fh.flush()
            return True
        except OSError as exc:
            _LOG.warning("cannot open campaign history %s: %s", self.path, exc)
            telemetry.count("history.write_error")
            self._fh = None
            return False

    def append(self, sample: HistorySample) -> bool:
        """Append one sample; returns ``False`` (after logging and
        counting ``history.write_error``) when the write failed."""
        if self._fh is None:
            return False
        try:
            self._fh.write(json.dumps(sample.to_dict()) + "\n")
            self._fh.flush()
        except OSError as exc:
            _LOG.warning("history append to %s failed: %s", self.path, exc)
            telemetry.count("history.write_error")
            return False
        telemetry.count("history.samples")
        return True

    def close(self) -> None:
        if self._fh is not None:
            try:
                self._fh.close()
            except OSError:
                pass
            self._fh = None

    # -- reading ---------------------------------------------------------

    def _fingerprint(self) -> "str | None":
        """The campaign fingerprint of the file's first run header: a
        file holds one campaign's runs (another's replaces it)."""
        try:
            with open(self.path) as fh:
                doc = json.loads(fh.readline())
        except (OSError, ValueError):
            return None
        if not isinstance(doc, dict) or doc.get("kind") != "run":
            return None
        return str(doc.get("fingerprint", ""))

    def load(self) -> "tuple[str, tuple[int, int], list[HistorySample]] | None":
        """``(fingerprint, shard, samples across all runs)`` or ``None``.

        Truncated trailing lines (kill mid-write) are skipped; the
        fingerprint/shard come from the *last* run header, which is the
        only campaign the file can contain (mismatches replace it).
        """
        try:
            text = self.path.read_text()
        except OSError:
            return None
        fingerprint: "str | None" = None
        shard = (1, 1)
        samples: list[HistorySample] = []
        for line in text.splitlines():
            try:
                doc = json.loads(line)
            except ValueError:
                continue
            kind = doc.get("kind")
            if kind == "run":
                fingerprint = str(doc.get("fingerprint", ""))
                raw = doc.get("shard", (1, 1))
                try:
                    shard = (int(raw[0]), int(raw[1]))
                except (TypeError, ValueError, IndexError):
                    shard = (1, 1)
            elif kind == "sample" and fingerprint is not None:
                try:
                    samples.append(HistorySample.from_dict(doc))
                except (TypeError, ValueError):
                    continue
        if fingerprint is None:
            return None
        return fingerprint, shard, samples

    def runs(self) -> "list[tuple[dict, list[HistorySample]]]":
        """Every ``(run header, its samples)`` segment, in file order —
        the cross-run trend view."""
        try:
            text = self.path.read_text()
        except OSError:
            return []
        out: list[tuple[dict, list[HistorySample]]] = []
        for line in text.splitlines():
            try:
                doc = json.loads(line)
            except ValueError:
                continue
            kind = doc.get("kind")
            if kind == "run":
                out.append((doc, []))
            elif kind == "sample" and out:
                try:
                    out[-1][1].append(HistorySample.from_dict(doc))
                except (TypeError, ValueError):
                    continue
        return out


# -- the cross-shard / cross-run store -------------------------------------


@dataclass(frozen=True)
class ShardHistory:
    """One shard's contribution to a merged history view."""

    path: str
    shard: tuple[int, int]
    samples: tuple[HistorySample, ...]

    @property
    def latest(self) -> "HistorySample | None":
        return self.samples[-1] if self.samples else None


@dataclass(frozen=True)
class MergedHistory:
    """The fold of every visible shard history of one campaign."""

    fingerprint: str
    shards: tuple[ShardHistory, ...]

    @property
    def samples(self) -> tuple[HistorySample, ...]:
        """All samples across shards, ordered by wall-clock time."""
        merged = [s for sh in self.shards for s in sh.samples]
        merged.sort(key=lambda s: s.t)
        return tuple(merged)

    @property
    def throughput_cps(self) -> float:
        """Aggregate completion rate: the sum of each shard's latest
        observed throughput (shards run concurrently on different
        nodes, so their rates add)."""
        total = 0.0
        for sh in self.shards:
            latest = sh.latest
            if latest is not None:
                total += latest.throughput_cps
        return total


class HistoryStore:
    """Where a campaign's shard histories live (beside its journals)."""

    def __init__(self, root: "str | Path") -> None:
        self.root = Path(root)

    def history(self, shard: "tuple[int, int]" = (1, 1)) -> CampaignHistory:
        return CampaignHistory(self.root / history_file_name(*shard))

    def history_paths(self) -> tuple[Path, ...]:
        """Every history file present, legacy first, then shards in
        (count, index) order — the journal store's merge order."""
        if not self.root.is_dir():
            return ()
        legacy = self.root / "history.jsonl"
        found: list[tuple[tuple[int, int], Path]] = []
        for path in self.root.iterdir():
            match = _HISTORY_FILE_RE.match(path.name)
            if match:
                found.append(((int(match.group(2)), int(match.group(1))), path))
        ordered = [p for _key, p in sorted(found)]
        if legacy.is_file():
            ordered.insert(0, legacy)
        return tuple(ordered)

    def merge(self, expect_fingerprint: "str | None" = None) -> "MergedHistory | None":
        """Fold the visible shard histories; shards from a different
        campaign than ``expect_fingerprint`` (or than the first shard
        seen) are skipped rather than raising — a stale history must
        never block ``status`` on a live sweep."""
        return merge_history(self.history_paths(), expect_fingerprint)

    def runs(self) -> "list[tuple[dict, list[HistorySample]]]":
        """Every run segment across every history file, ordered by the
        run headers' wall-clock start — the cross-run trend stream."""
        segments: list[tuple[dict, list[HistorySample]]] = []
        for path in self.history_paths():
            segments.extend(CampaignHistory(path).runs())
        segments.sort(key=lambda seg: seg[0].get("t", 0.0))
        return segments


def merge_history(
    paths: Iterable["str | Path"],
    expect_fingerprint: "str | None" = None,
) -> "MergedHistory | None":
    """Fold shard history files into one :class:`MergedHistory`."""
    fingerprint: "str | None" = expect_fingerprint
    shards: list[ShardHistory] = []
    for raw in paths:
        loaded = CampaignHistory(raw).load()
        if loaded is None:
            continue
        fp, shard, samples = loaded
        if fingerprint is None:
            fingerprint = fp
        elif fp != fingerprint:
            continue  # stale shard from another campaign
        shards.append(ShardHistory(path=str(raw), shard=shard,
                                   samples=tuple(samples)))
    if fingerprint is None or not shards:
        return None
    return MergedHistory(fingerprint=fingerprint, shards=tuple(shards))


# -- the bench baseline's reference rate -----------------------------------


def baseline_throughput(baseline: dict) -> "float | None":
    """Cells-per-second implied by a ``BENCH_engine`` baseline document.

    The guard's ``cold_serial_s`` times a known grid (its ``grid``
    block names the suites and variants); dividing the cell count by
    the time gives a machine-specific reference rate the doctor can
    compare a campaign against.  Returns ``None`` when the document
    does not carry enough to compute it.
    """
    scenarios = baseline.get("scenarios", {})
    cold = scenarios.get("cold_serial_s")
    grid = baseline.get("grid", {})
    suites = grid.get("suites") or ()
    variants = grid.get("variants") or ()
    if not cold or not suites or not variants:
        return None
    try:
        from repro.suites.registry import get_suite

        cells = sum(len(get_suite(name).benchmarks) for name in suites)
    except Exception:  # noqa: BLE001 - unknown suite names in a foreign file
        return None
    cells *= len(variants)
    if cells <= 0:
        return None
    return cells / float(cold)
