"""Campaign status and the campaign doctor.

Two read-side views over the artifacts a campaign leaves in its cache
directory — no engine required, so they work on a *live* sweep from any
node that can see the directory:

* :func:`campaign_status` folds the shard journals (what finished) with
  the shard metrics histories (how fast it is finishing) into one
  :class:`CampaignStatus`: progress, per-shard coverage, aggregate
  throughput, ETA, and cache-hit rate.  This is what
  ``a64fx-campaign status`` renders while a sharded sweep is mid-run.
* :func:`diagnose` is the doctor: it joins journal failure blocks,
  the telemetry history stream, the flight-recorder metrics, and the
  bench baseline into named findings — retry clusters (per-suite /
  per-variant, the signal the ROADMAP's adaptive-retry item will
  spend budgets on), failure clusters, slowest phases, cache-hit
  collapses, persistence write errors, and below-baseline throughput.
  ``a64fx-campaign doctor`` and the analysis report's Doctor section
  both render its :class:`DoctorReport`.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from pathlib import Path

from repro.harness.journalstore import DirectoryJournalStore
from repro.harness.results import (
    FAILURE_STATUSES,
    RunRecord,
)
from repro.service.registry import ServiceRegistry
from repro.telemetry.history import (
    HistorySample,
    HistoryStore,
    baseline_throughput,
)

#: Finding severities, mildest first.
SEVERITIES = ("info", "warning", "critical")


# -- live status -----------------------------------------------------------


@dataclass(frozen=True)
class ShardProgress:
    """One shard's slice of a campaign, journal + history combined."""

    shard: tuple[int, int]
    path: str
    assigned: int
    completed: int
    failures: int
    finished: bool
    #: Latest observed completion rate (``None`` without a history).
    throughput_cps: "float | None" = None

    @property
    def label(self) -> str:
        return f"{self.shard[0]}/{self.shard[1]}"


@dataclass(frozen=True)
class CampaignStatus:
    """Everything ``a64fx-campaign status`` knows about a campaign."""

    fingerprint: str
    machine: str
    total: int
    completed: int
    failures: int
    shards: tuple[ShardProgress, ...]
    #: Aggregate completion rate across shards (they run concurrently,
    #: so per-shard rates add); ``None`` without any history.
    throughput_cps: "float | None" = None
    #: Remaining cells over the unfinished shards' aggregate rate.
    eta_s: "float | None" = None
    #: Cells satisfied without execution over cells decided, summed
    #: across the shards' latest history samples.
    cache_hit_rate: "float | None" = None
    executed: int = 0
    cache_hits: int = 0
    resumed: int = 0
    retried: int = 0

    @property
    def complete(self) -> bool:
        return self.completed >= self.total

    @property
    def fraction(self) -> float:
        return self.completed / self.total if self.total else 0.0


def campaign_status(cache_dir: "str | Path") -> "CampaignStatus | None":
    """Fold the journals and histories under ``cache_dir``; ``None``
    when no campaign has journaled there yet."""
    merged = DirectoryJournalStore(cache_dir).merge()
    if merged is None:
        return None
    history = HistoryStore(cache_dir).merge(
        expect_fingerprint=merged.fingerprint)

    latest_by_shard: dict[tuple[int, int], HistorySample] = {}
    if history is not None:
        for sh in history.shards:
            latest = sh.latest
            if latest is not None:
                latest_by_shard[sh.shard] = latest

    shards = []
    for cov in merged.shards:
        latest = latest_by_shard.get(tuple(cov.shard))
        shards.append(ShardProgress(
            shard=tuple(cov.shard),
            path=cov.path,
            assigned=cov.assigned,
            completed=cov.completed,
            failures=cov.failures,
            finished=cov.finished,
            throughput_cps=(latest.throughput_cps
                            if latest is not None else None),
        ))

    executed = sum(s.executed for s in latest_by_shard.values())
    cache_hits = sum(s.cache_hits for s in latest_by_shard.values())
    resumed = sum(s.resumed for s in latest_by_shard.values())
    retried = sum(s.retried for s in latest_by_shard.values())
    decided = executed + cache_hits + resumed
    hit_rate = (cache_hits + resumed) / decided if decided else None

    throughput = None
    if latest_by_shard:
        throughput = sum(
            s.throughput_cps for s in latest_by_shard.values())

    total = len(merged.cells)
    completed = len(merged.records)
    eta = None
    if completed < total:
        # Only shards still working contribute to draining the
        # remainder; a finished shard's rate is history, not capacity.
        active = sum(
            (sp.throughput_cps or 0.0)
            for sp in shards if not sp.finished
        )
        if active > 0:
            eta = (total - completed) / active

    return CampaignStatus(
        fingerprint=merged.fingerprint,
        machine=merged.machine,
        total=total,
        completed=completed,
        failures=sum(cov.failures for cov in merged.shards),
        shards=tuple(shards),
        throughput_cps=throughput,
        eta_s=eta,
        cache_hit_rate=hit_rate,
        executed=executed,
        cache_hits=cache_hits,
        resumed=resumed,
        retried=retried,
    )


def render_status(status: CampaignStatus, width: int = 32) -> str:
    """Human-readable status: progress bar, rates, per-shard coverage."""
    filled = int(round(status.fraction * width))
    bar = "#" * filled + "." * (width - filled)
    state = "complete" if status.complete else "in progress"
    lines = [
        f"campaign {status.fingerprint[:12]} on {status.machine}: "
        f"{status.completed}/{status.total} cells "
        f"({status.fraction * 100:.1f}%)  [{state}]",
        f"  [{bar}]",
    ]
    rates = []
    if status.throughput_cps is not None:
        rates.append(f"throughput {status.throughput_cps:.2f} cells/s")
    if status.eta_s is not None:
        rates.append(f"eta ~{status.eta_s:.1f}s")
    if status.cache_hit_rate is not None:
        rates.append(f"cache-hit rate {status.cache_hit_rate * 100:.1f}%")
    if status.retried:
        rates.append(f"{status.retried} retried")
    if status.failures:
        rates.append(f"{status.failures} failed")
    if rates:
        lines.append("  " + "   ".join(rates))
    if not any(s.throughput_cps is not None for s in status.shards):
        lines.append("  (no metrics history found — rates/ETA need a "
                     "campaign run with this engine version)")
    for sp in sorted(status.shards, key=lambda s: s.shard):
        rate = (f"  {sp.throughput_cps:.2f} cells/s"
                if sp.throughput_cps is not None else "")
        failed = f", {sp.failures} failed" if sp.failures else ""
        shard_state = "done" if sp.finished else "in progress"
        lines.append(
            f"  shard {sp.label:>5s}  {sp.completed:4d}/{sp.assigned:4d} "
            f"cells{failed}  [{shard_state}]{rate}  {sp.path}")
    remaining = status.total - status.completed
    if remaining > 0:
        lines.append(f"  missing: {remaining} cell(s) not yet checkpointed")
    return "\n".join(lines)


# -- the doctor ------------------------------------------------------------


@dataclass(frozen=True)
class DoctorFinding:
    """One named diagnostic conclusion."""

    severity: str  # "info" | "warning" | "critical"
    category: str  # e.g. "retry-cluster", "slow-phase", "cache-collapse"
    title: str
    detail: str = ""


@dataclass(frozen=True)
class DoctorReport:
    """The doctor's verdict over one campaign's artifacts."""

    findings: tuple[DoctorFinding, ...]
    cells: int = 0
    failures: int = 0

    @property
    def worst(self) -> str:
        rank = {s: i for i, s in enumerate(SEVERITIES)}
        worst = "info"
        for f in self.findings:
            if rank.get(f.severity, 0) > rank[worst]:
                worst = f.severity
        return worst

    def by_category(self, category: str) -> tuple[DoctorFinding, ...]:
        return tuple(f for f in self.findings if f.category == category)


def _cell_group(cell: str) -> "tuple[str, str] | None":
    """``"suite.bench/variant"`` -> ``(suite, variant)``."""
    if "/" not in cell:
        return None
    bench, variant = cell.rsplit("/", 1)
    suite = bench.split(".", 1)[0] if "." in bench else bench
    return suite, variant


#: Cluster threshold: this many correlated events in one
#: (suite, variant) group is a pattern, not noise.
CLUSTER_MIN = 2

#: A cache-hit rate falling below this fraction of the previous run's
#: is a collapse (something invalidated the content-addressed keys).
COLLAPSE_RATIO = 0.5

#: Throughput below this fraction of the bench baseline's implied rate
#: earns a finding.
BASELINE_RATIO = 0.25


def diagnose(
    records: "Iterable[RunRecord] | Mapping[object, RunRecord]",
    meta: "dict | None" = None,
    metrics: "dict | None" = None,
    samples: "Iterable[HistorySample]" = (),
    runs: "Iterable[tuple[dict, list[HistorySample]]]" = (),
    baseline: "dict | None" = None,
) -> DoctorReport:
    """Join the campaign's artifacts into named findings.

    ``records`` are the journal/result records (failure blocks feed the
    retry/failure clusters); ``samples`` is the merged history stream
    (retry events feed the clusters too, and the last sample carries
    the rates); ``runs`` are cross-run history segments (cache-collapse
    trend); ``metrics`` is a flight-recorder metrics snapshot (slowest
    phases, write errors); ``baseline`` a ``BENCH_engine`` baseline
    document (throughput reference).  Every input is optional — the
    doctor reports what the available artifacts support.
    """
    if isinstance(records, Mapping):
        records = list(records.values())
    else:
        records = list(records)
    samples = list(samples)
    runs = list(runs)
    meta = meta or {}
    findings: list[DoctorFinding] = []

    # -- retry clusters (per-suite / per-variant) -----------------------
    retry_groups: dict[tuple[str, str], int] = {}
    retry_cells: dict[tuple[str, str], set] = {}
    for record in records:
        info = record.failure
        if info is None:
            continue
        for step in info.history:
            group = (record.suite, record.variant)
            retry_groups[group] = retry_groups.get(group, 0) + 1
            retry_cells.setdefault(group, set()).add(record.benchmark)
    for sample in samples:
        if sample.event != "cell-retried" or not sample.cell:
            continue
        group = _cell_group(sample.cell)
        if group is None:
            continue
        retry_groups[group] = retry_groups.get(group, 0) + 1
        retry_cells.setdefault(group, set()).add(
            sample.cell.rsplit("/", 1)[0])
    for group in sorted(retry_groups):
        count = retry_groups[group]
        if count < CLUSTER_MIN:
            continue
        cells = sorted(retry_cells.get(group, ()))
        suite, variant = group
        findings.append(DoctorFinding(
            severity="warning",
            category="retry-cluster",
            title=f"retry cluster in {suite}/{variant}: "
                  f"{count} retries across {len(cells)} cell(s)",
            detail="transient faults concentrate here — a targeted "
                   "retry budget would spend attempts where they pay "
                   f"(cells: {', '.join(cells[:6])}"
                   + (", ..." if len(cells) > 6 else "") + ")",
        ))

    # -- failure clusters ------------------------------------------------
    failed = [r for r in records if r.status in FAILURE_STATUSES]
    fail_groups: dict[tuple[str, str], list[RunRecord]] = {}
    for record in failed:
        fail_groups.setdefault((record.suite, record.status), []).append(record)
    for (suite, status), members in sorted(fail_groups.items()):
        if len(members) < CLUSTER_MIN:
            continue
        sites = sorted({
            m.failure.site for m in members if m.failure is not None})
        names = sorted({f"{m.benchmark}/{m.variant}" for m in members})
        findings.append(DoctorFinding(
            severity="critical",
            category="failure-cluster",
            title=f"failure cluster in {suite}: "
                  f"{len(members)} '{status}' cell(s)",
            detail=(f"sites: {', '.join(sites) or 'n/a'}; cells: "
                    + ", ".join(names[:6])
                    + (", ..." if len(names) > 6 else "")),
        ))

    # -- slowest phases --------------------------------------------------
    hist_totals: dict[str, tuple[float, int]] = {}
    if metrics:
        for name, doc in metrics.get("histograms", {}).items():
            hist_totals[name] = (doc.get("total", 0.0), doc.get("count", 0))
    elif samples:
        for name, doc in samples[-1].histograms.items():
            hist_totals[name] = (doc.get("total", 0.0), doc.get("count", 0))
    phases = sorted(
        ((name, total, count) for name, (total, count) in hist_totals.items()
         if count > 0),
        key=lambda item: -item[1],
    )
    for name, total, count in phases[:3]:
        findings.append(DoctorFinding(
            severity="info",
            category="slow-phase",
            title=f"phase {name}: {total:.3f}s total over "
                  f"{count} observation(s)",
            detail=f"mean {total / count:.4f}s",
        ))

    # -- cache-hit collapse (cross-run trend) ----------------------------
    finals = []
    for header, segment in runs:
        if segment:
            finals.append((header, segment[-1]))
    if len(finals) >= 2:
        prev, last = finals[-2][1], finals[-1][1]
        prev_rate = prev.cache_hit_rate or 0.0
        last_rate = last.cache_hit_rate or 0.0
        if prev_rate >= 0.3 and last_rate < prev_rate * COLLAPSE_RATIO:
            findings.append(DoctorFinding(
                severity="warning",
                category="cache-collapse",
                title=f"cache-hit rate collapsed: "
                      f"{prev_rate * 100:.0f}% -> {last_rate * 100:.0f}% "
                      "between runs",
                detail="the content-addressed keys changed (new engine "
                       "version, flags, machine model, or resilience "
                       "options) or the cell cache was lost",
            ))

    # -- persistence write errors ----------------------------------------
    counters = (metrics or {}).get("counters", {})
    for name in sorted(n for n in counters if n.endswith(".write_error")):
        count = counters[name]
        if count:
            findings.append(DoctorFinding(
                severity="warning",
                category="write-error",
                title=f"{name}: {count:.0f} failed write(s)",
                detail="persistence is degraded (disk full or "
                       "permissions?); records stayed in memory and in "
                       "the journal but warm-cache reuse is lost",
            ))

    # -- throughput vs the bench baseline --------------------------------
    if baseline is not None:
        reference = baseline_throughput(baseline)
        observed = None
        if samples:
            observed = samples[-1].throughput_cps
        elif meta.get("elapsed_s") and meta.get("cells"):
            observed = meta["cells"] / meta["elapsed_s"]
        if reference is not None and observed is not None and observed > 0:
            if observed < reference * BASELINE_RATIO:
                findings.append(DoctorFinding(
                    severity="warning",
                    category="throughput",
                    title=f"throughput {observed:.2f} cells/s is "
                          f"{reference / observed:.1f}x below the bench "
                          f"baseline's {reference:.2f} cells/s",
                    detail="the baseline times a cold serial sweep of "
                           "the guard grid on a healthy machine; being "
                           "far under it suggests contention, injected "
                           "faults, or a slow filesystem",
                ))

    # -- timeouts / worker restarts from meta ----------------------------
    if meta.get("timeouts"):
        findings.append(DoctorFinding(
            severity="warning",
            category="timeouts",
            title=f"{meta['timeouts']} cell(s) blew the "
                  f"{meta.get('cell_timeout_s')}s wall-clock budget",
        ))
    if meta.get("worker_restarts"):
        findings.append(DoctorFinding(
            severity="warning",
            category="worker-loss",
            title=f"{meta['worker_restarts']} worker-pool restart(s) "
                  "absorbed",
            detail="worker processes died mid-chunk (crash rules or "
                   "real OOM/node loss) and their cells were requeued",
        ))

    if not findings:
        findings.append(DoctorFinding(
            severity="info",
            category="healthy",
            title="no anomalies: no retry/failure clusters, no write "
                  "errors, no cache collapse",
        ))

    return DoctorReport(
        findings=tuple(findings),
        cells=len(records),
        failures=len(failed),
    )


def doctor_from_cache_dir(
    cache_dir: "str | Path",
    baseline: "dict | None" = None,
) -> "DoctorReport | None":
    """Run the doctor over a campaign's cache directory (journals +
    histories); ``None`` when nothing has journaled there yet."""
    merged = DirectoryJournalStore(cache_dir).merge()
    if merged is None:
        return None
    store = HistoryStore(cache_dir)
    history = store.merge(expect_fingerprint=merged.fingerprint)
    samples = list(history.samples) if history is not None else []
    metrics = None
    if history is not None and any(sh.latest for sh in history.shards):
        # Each shard's latest sample carries that shard's cumulative
        # metrics; the campaign-wide view is their sum (counters and
        # histogram totals add across concurrent shards).
        counters: dict[str, float] = {}
        histograms: dict[str, dict] = {}
        for sh in history.shards:
            latest = sh.latest
            if latest is None:
                continue
            for name, value in latest.counters.items():
                counters[name] = counters.get(name, 0) + value
            for name, doc in latest.histograms.items():
                agg = histograms.setdefault(name, {"total": 0.0, "count": 0})
                agg["total"] += doc.get("total", 0.0)
                agg["count"] += doc.get("count", 0)
        metrics = {"counters": counters, "gauges": {},
                   "histograms": histograms}
    return diagnose(
        merged.records,
        metrics=metrics,
        samples=samples,
        runs=store.runs(),
        baseline=baseline,
    )


_MARKS = {"info": "·", "warning": "!", "critical": "!!"}


def render_doctor(report: DoctorReport) -> str:
    """Human-readable doctor's note."""
    lines = [
        f"doctor: {len(report.findings)} finding(s) over "
        f"{report.cells} cell(s), {report.failures} failure record(s) "
        f"[worst: {report.worst}]",
    ]
    for finding in report.findings:
        mark = _MARKS.get(finding.severity, "·")
        lines.append(f"  {mark:>2s} [{finding.category}] {finding.title}")
        if finding.detail:
            lines.append(f"       {finding.detail}")
    return "\n".join(lines)


# -- service overview ------------------------------------------------------


@dataclass(frozen=True)
class ServiceOverview:
    """The read-side view of the campaign service's registry.

    Built purely from ``<cache>/service/`` artifacts (the atomic
    registry document plus per-campaign result files), so ``status``
    and ``doctor`` can describe the service's campaigns whether or not
    the service process is still alive.
    """

    path: str
    campaigns: tuple[dict, ...]

    @property
    def by_state(self) -> dict:
        out: dict[str, int] = {}
        for entry in self.campaigns:
            state = entry.get("state", "unknown")
            out[state] = out.get(state, 0) + 1
        return out

    @property
    def tenants(self) -> dict:
        """Per-tenant rollup: campaigns, cells, completed, dedupe."""
        out: dict[str, dict] = {}
        for entry in self.campaigns:
            tenant = entry.get("tenant", "default")
            agg = out.setdefault(tenant, {
                "campaigns": 0, "cells": 0, "completed": 0,
                "deduped": 0, "executed": 0,
            })
            agg["campaigns"] += 1
            agg["cells"] += int(entry.get("cells", 0))
            agg["completed"] += int(entry.get("completed", 0))
            stats = entry.get("stats", {}) or {}
            agg["deduped"] += int(stats.get("deduped", 0))
            agg["executed"] += int(stats.get("executed", 0))
        return out

    @property
    def resumable(self) -> int:
        return sum(1 for e in self.campaigns
                   if e.get("state") in ("queued", "running"))


def service_overview(cache_dir: "str | Path") -> "ServiceOverview | None":
    """The service registry under ``cache_dir``, or ``None`` when no
    campaign service ever ran against this cache."""
    path = Path(cache_dir) / "service" / "campaigns.json"
    if not path.is_file():
        return None
    entries = ServiceRegistry(path).load()
    campaigns = tuple(
        {"id": cid, **entry}
        for cid, entry in sorted(
            entries.items(),
            key=lambda kv: kv[1].get("submitted_at", 0.0),
        )
    )
    return ServiceOverview(path=str(path), campaigns=campaigns)


def render_service_overview(overview: ServiceOverview) -> str:
    """Human-readable service summary for ``a64fx-campaign status``."""
    states = ", ".join(f"{n} {s}" for s, n in
                       sorted(overview.by_state.items()))
    lines = [f"service: {len(overview.campaigns)} campaign(s) ({states})"]
    for tenant, agg in sorted(overview.tenants.items()):
        lines.append(
            f"  tenant {tenant:12s} {agg['campaigns']} campaign(s)  "
            f"{agg['completed']:4d}/{agg['cells']:4d} cells  "
            f"{agg['executed']} executed, {agg['deduped']} deduped"
        )
    if overview.resumable:
        lines.append(
            f"  {overview.resumable} campaign(s) queued/running — a "
            f"service restart on this cache dir will resume them"
        )
    return "\n".join(lines)
