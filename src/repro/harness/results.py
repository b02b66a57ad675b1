"""Result records and campaign containers, with JSON round-tripping.

The harness reproduces the paper's reporting discipline: each
(benchmark, compiler) pair stores the chosen placement (from the
exploration phase), the ten performance-run times, and a status for
Figure 2's failure cells.  The *reported* time is the fastest run
(Sec. 3: "We report the fastest runtime across 10 performance runs").
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass, field, fields
from pathlib import Path

from repro.errors import AnalysisError, HarnessError
from repro.faults.taxonomy import FailureInfo
from repro.machine.topology import Placement
from repro.staticanalysis.diagnostics import Diagnostic

#: Status strings stored in records (Figure 2 cell kinds).
STATUS_OK = "ok"
STATUS_COMPILE_ERROR = "compiler error"
STATUS_RUNTIME_ERROR = "runtime error"
#: The cell exceeded its wall-clock budget (``cell_timeout_s`` or an
#: injected :class:`~repro.faults.taxonomy.TimeoutFault`) — the paper's
#: cells that never produce a time-to-solution.
STATUS_TIMEOUT = "timeout"
#: The run completed but produced wrong answers.
STATUS_VERIFICATION_ERROR = "verification error"
#: The worker executing the cell died and the failure outlived every
#: requeue (multi-node campaigns; single-node runs degrade to serial
#: execution instead of ever recording this).
STATUS_WORKER_CRASH = "worker crash"
#: The cell was skipped by the pre-flight lint gate
#: (``CampaignConfig.lint_policy="error"``); its diagnostics are in
#: :attr:`RunRecord.lint`.
STATUS_LINT_ERROR = "lint error"

#: Statuses that mark a failed execution (Figure 2 error cells) as
#: opposed to a skipped (lint) or successful one.
FAILURE_STATUSES = (
    STATUS_COMPILE_ERROR,
    STATUS_RUNTIME_ERROR,
    STATUS_TIMEOUT,
    STATUS_VERIFICATION_ERROR,
    STATUS_WORKER_CRASH,
)

#: Current on-disk schema for :meth:`CampaignResult.to_json`.  Version 2
#: adds the top-level ``schema`` marker and an ``engine`` metadata block
#: (workers, cache statistics, provenance) and omits empty optional
#: record fields; version 1 (the original unversioned format) is still
#: accepted by :meth:`CampaignResult.load`.  Version 2 files may also
#: carry an optional top-level ``telemetry`` flight-recorder block —
#: files without it load unchanged.  Records may additionally carry an
#: optional ``lint`` list of static-analysis findings and an optional
#: structured ``failure`` block (:class:`repro.faults.FailureInfo`);
#: both are additive: files with or without them round-trip at
#: version 2.
RESULT_SCHEMA_VERSION = 2


@dataclass(frozen=True)
class RunRecord:
    """All measurements for one (benchmark, compiler) cell."""

    benchmark: str  # full name: "suite.name"
    suite: str
    variant: str
    ranks: int
    threads: int
    #: The ten performance-run times (seconds); empty on failure.
    runs: tuple[float, ...]
    status: str = STATUS_OK
    #: (ranks, threads, best-of-3 time) for every explored placement.
    exploration: tuple[tuple[int, int, float], ...] = ()
    diagnostics: tuple[str, ...] = ()
    #: Static-analysis findings for the cell's kernels (populated when
    #: the campaign runs with ``lint_policy`` other than ``"off"``).
    lint: tuple[Diagnostic, ...] = ()
    #: Structured failure taxonomy for failed cells (``None`` for
    #: successful ones and for records written before the fault
    #: subsystem existed).
    failure: "FailureInfo | None" = None

    @property
    def valid(self) -> bool:
        return self.status == STATUS_OK and bool(self.runs)

    @property
    def best_s(self) -> float:
        """Fastest performance run — the paper's reported metric."""
        if not self.valid:
            return float("inf")
        return min(self.runs)

    @property
    def mean_s(self) -> float:
        if not self.valid:
            return float("inf")
        return statistics.fmean(self.runs)

    @property
    def cv(self) -> float:
        """Coefficient of variation across the performance runs."""
        if not self.valid or len(self.runs) < 2:
            return 0.0
        mean = statistics.fmean(self.runs)
        if mean == 0:
            return 0.0
        return statistics.stdev(self.runs) / mean

    @property
    def placement(self) -> Placement:
        return Placement(self.ranks, self.threads)


#: :class:`RunRecord`'s fields in declaration order, which is the key
#: order of its JSON form.
_RECORD_FIELDS = tuple(f.name for f in fields(RunRecord))


def record_to_dict(record: RunRecord, *, compact: bool = True) -> dict:
    """JSON-ready dict for one record.

    The dict shares the record's tuples (immutable, so no copy is
    needed); only ``lint`` and ``failure`` are converted.  With
    ``compact`` (the v2 on-disk form), empty optional fields are
    omitted; :func:`record_from_dict` restores their defaults.
    """
    raw = {name: getattr(record, name) for name in _RECORD_FIELDS}
    raw["lint"] = [d.to_dict() for d in record.lint]
    raw["failure"] = record.failure.to_dict() if record.failure else None
    if compact:
        for optional in ("exploration", "diagnostics", "lint"):
            if not raw[optional]:
                del raw[optional]
        if raw["failure"] is None:
            del raw["failure"]
        if raw["status"] == STATUS_OK:
            del raw["status"]
    return raw


def record_from_dict(raw: dict) -> RunRecord:
    """Rebuild a :class:`RunRecord` from its JSON dict.

    Tolerates omitted optional fields (``status``, ``exploration``,
    ``diagnostics``) so that both compact v2 records and hand-trimmed v1
    files round-trip; earlier loaders raised ``KeyError`` on a record
    whose empty exploration log had been dropped.
    """
    raw = dict(raw)
    try:
        raw["runs"] = tuple(raw["runs"])
    except KeyError:
        raise HarnessError(f"record missing 'runs': {sorted(raw)}") from None
    raw["exploration"] = tuple(tuple(e) for e in raw.get("exploration", ()))
    raw["diagnostics"] = tuple(raw.get("diagnostics", ()))
    raw["lint"] = tuple(Diagnostic.from_dict(d) for d in raw.get("lint", ()))
    failure = raw.get("failure")
    raw["failure"] = FailureInfo.from_dict(failure) if failure else None
    raw.setdefault("status", STATUS_OK)
    return RunRecord(**raw)


@dataclass
class CampaignResult:
    """All records of one measurement campaign (one machine)."""

    machine: str
    records: dict[tuple[str, str], RunRecord] = field(default_factory=dict)
    #: Engine/provenance metadata (schema v2): workers, cache hits,
    #: elapsed wall-clock, engine version.  Empty for v1 files and
    #: results assembled by hand.
    meta: dict = field(default_factory=dict)
    #: Optional flight-recorder block (schema v2): the campaign's
    #: metrics snapshot and derived summary (cache hit rate, parallel
    #: efficiency, slowest cells) as written by
    #: :func:`repro.telemetry.telemetry_block`.  Empty when the
    #: campaign ran without telemetry; files without the block still
    #: load.
    telemetry: dict = field(default_factory=dict)

    def add(self, record: RunRecord) -> None:
        key = (record.benchmark, record.variant)
        if key in self.records:
            raise HarnessError(
                f"duplicate record for benchmark {record.benchmark!r} "
                f"variant {record.variant!r} on machine {self.machine!r}; "
                f"a campaign result holds one record per cell"
            )
        self.records[key] = record

    def get(self, benchmark: str, variant: str) -> RunRecord:
        try:
            return self.records[(benchmark, variant)]
        except KeyError:
            raise AnalysisError(
                f"no record for {benchmark!r} under {variant!r}"
            ) from None

    def has(self, benchmark: str, variant: str) -> bool:
        return (benchmark, variant) in self.records

    def benchmarks(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for bench, _ in self.records:
            seen.setdefault(bench)
        return tuple(seen)

    def variants(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for _, variant in self.records:
            seen.setdefault(variant)
        return tuple(seen)

    def suite_records(self, suite: str) -> tuple[RunRecord, ...]:
        return tuple(r for r in self.records.values() if r.suite == suite)

    # -- persistence -----------------------------------------------------

    def to_json(self) -> str:
        payload = {
            "schema": RESULT_SCHEMA_VERSION,
            "machine": self.machine,
            "engine": dict(self.meta),
            "records": [record_to_dict(r) for r in self.records.values()],
        }
        if self.telemetry:
            payload["telemetry"] = dict(self.telemetry)
        return json.dumps(payload, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "CampaignResult":
        payload = json.loads(text)
        schema = payload.get("schema", 1)
        if schema not in (1, RESULT_SCHEMA_VERSION):
            raise HarnessError(
                f"unknown CampaignResult schema version {schema!r}; this "
                f"build reads versions 1-{RESULT_SCHEMA_VERSION} — upgrade "
                f"the repro package to load this file"
            )
        meta = payload.get("engine", {}) if schema >= 2 else {}
        telemetry = payload.get("telemetry", {}) if schema >= 2 else {}
        result = cls(
            machine=payload["machine"],
            meta=dict(meta),
            telemetry=dict(telemetry),
        )
        for raw in payload["records"]:
            result.add(record_from_dict(raw))
        return result

    def save(self, path: "str | Path") -> None:
        Path(path).write_text(self.to_json())

    @classmethod
    def load(cls, path: "str | Path") -> "CampaignResult":
        return cls.from_json(Path(path).read_text())
