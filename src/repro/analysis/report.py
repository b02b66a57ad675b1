"""Paper-vs-measured evaluation and the EXPERIMENTS.md writer.

Every quantitative claim the paper's evaluation section makes is
encoded as a :class:`Claim` with an acceptance band; :func:`evaluate`
checks a campaign against all of them and :func:`experiments_markdown`
renders the record.  The integration tests and the benchmark harness
assert on these same claims, so "does the reproduction hold" is a
single source of truth.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from collections.abc import Callable

from repro.analysis.figures import figure1
from repro.analysis.gains import benchmark_gains, overall_summary, suite_summary
from repro.analysis.stats import variability_report
from repro.harness.results import (
    FAILURE_STATUSES,
    STATUS_COMPILE_ERROR,
    STATUS_LINT_ERROR,
    STATUS_RUNTIME_ERROR,
    CampaignResult,
)

#: SPEC CPU integer benchmarks (the single-threaded half).
SPEC_INT = (
    "spec_cpu.600.perlbench_s",
    "spec_cpu.602.gcc_s",
    "spec_cpu.605.mcf_s",
    "spec_cpu.620.omnetpp_s",
    "spec_cpu.623.xalancbmk_s",
    "spec_cpu.625.x264_s",
    "spec_cpu.631.deepsjeng_s",
    "spec_cpu.641.leela_s",
    "spec_cpu.648.exchange2_s",
    "spec_cpu.657.xz_s",
)


@dataclass(frozen=True)
class ClaimCheck:
    """Result of checking one paper claim against the campaign."""

    claim_id: str
    description: str
    paper_value: str
    measured: float
    low: float
    high: float

    @property
    def passed(self) -> bool:
        return self.low <= self.measured <= self.high

    def __str__(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return (
            f"[{verdict}] {self.claim_id}: {self.description} — paper "
            f"{self.paper_value}, measured {self.measured:.4g} "
            f"(accept [{self.low:.4g}, {self.high:.4g}])"
        )


def _gains_by_name(result: CampaignResult) -> dict[str, float]:
    return {g.benchmark: g.best_gain for g in benchmark_gains(result) if g.baseline_valid}


def evaluate(
    result: CampaignResult, xeon_result: CampaignResult | None = None
) -> list[ClaimCheck]:
    """Check every encoded paper claim; Figure 1 claims need the Xeon
    reference campaign."""
    checks: list[ClaimCheck] = []
    gains = _gains_by_name(result)
    records = result.records

    def add(cid: str, desc: str, paper: str, measured: float, low: float, high: float) -> None:
        checks.append(ClaimCheck(cid, desc, paper, measured, low, high))

    # ---- Figure 1 -------------------------------------------------------
    if xeon_result is not None:
        fig1 = figure1(result, xeon_result)
        add(
            "fig1.max",
            "max PolyBench Xeon-over-A64FX slowdown (recommended compilers)",
            "up to two orders of magnitude",
            fig1.max_slowdown,
            30.0,
            500.0,
        )
        add(
            "fig1.2mm",
            "2mm slowdown (compute-bound kernel unexpectedly slow)",
            ">> 1 (called out)",
            fig1.row("2mm").slowdown,
            8.0,
            200.0,
        )
        add(
            "fig1.3mm",
            "3mm slowdown",
            ">> 1 (called out)",
            fig1.row("3mm").slowdown,
            8.0,
            200.0,
        )

    # ---- Section 3.1: micro kernels ----------------------------------------
    micro = suite_summary(result, "micro")
    add("s31.micro.mean", "micro: mean best-compiler gain", "17% (1.17x)", micro.mean_gain, 1.10, 1.26)
    add("s31.micro.median", "micro: median best-compiler gain", "0% (1.0x)", micro.median_gain, 1.0, 1.03)
    add("s31.micro.peak", "micro: peak best-compiler gain", "2.4x", micro.peak_gain, 2.0, 2.9)
    gnu_wins = sum(
        1
        for g in benchmark_gains(result)
        if g.suite == "micro" and g.baseline_valid and g.best_variant == "GNU" and g.best_gain > 1.1
    )
    add("s31.micro.gnu_wins", "micro: kernels GNU noticeably wins", "4 of 22", gnu_wins, 4, 4)
    gnu_faults = sum(
        1
        for (b, v), r in records.items()
        if v == "GNU" and r.suite == "micro" and r.status == STATUS_RUNTIME_ERROR
    )
    add("s31.micro.gnu_faults", "micro: GNU runtime errors", "6 of 22", gnu_faults, 6, 6)
    k22_ce = sum(
        1
        for (b, v), r in records.items()
        if b == "micro.k22" and r.status == STATUS_COMPILE_ERROR
    )
    add("s31.micro.k22", "micro: Kernel 22 compiler-error cells", ">= 1 (called out)", k22_ce, 1, 4)

    pb = suite_summary(result, "polybench")
    add("s31.pb.median", "PolyBench: median best-compiler gain", "3.8x", pb.median_gain, 2.6, 5.2)
    add("s31.pb.mvt", "PolyBench: mvt best-compiler gain", "> 250,000x", gains["polybench.mvt"], 250_000.0, 5e6)
    polly_wins = sum(
        1
        for g in benchmark_gains(result)
        if g.suite == "polybench" and g.best_variant in ("LLVM+Polly", "LLVM") and g.best_gain > 1.05
    )
    add(
        "s31.pb.llvm_wins",
        "PolyBench: kernels won by LLVM(+Polly)",
        "LLVM+Polly shows the best results",
        polly_wins,
        12,
        30,
    )

    # ---- Section 3.2 -------------------------------------------------------
    add("s32.hpl", "HPL: best-compiler gain (LLVM, SSL2-bound)", "~5%", gains["top500.hpl"], 1.02, 1.10)
    add(
        "s32.stream",
        "BabelStream: best-compiler gain",
        "up to 51% lower runtime",
        gains["top500.babelstream"],
        1.30,
        2.04,
    )
    ecp = suite_summary(result, "ecp")
    add("s32.ecp.mean", "ECP proxies: mean best-compiler gain", "1.65x", ecp.mean_gain, 1.40, 1.95)
    add("s32.ecp.median", "ECP proxies: median best-compiler gain", "1.09x", ecp.median_gain, 1.02, 1.22)
    add("s32.xsbench", "XSBench: best-compiler gain (Polly)", "6.7x", gains["ecp.xsbench"], 5.4, 8.0)
    fiber_fj = sum(
        1
        for g in benchmark_gains(result)
        if g.suite == "fiber" and g.baseline_valid and g.best_gain <= 1.05
    )
    add(
        "s32.fiber.fj",
        "Fiber: benchmarks where FJtrad is (near-)best",
        "Fujitsu dominates, few exceptions",
        fiber_fj,
        5,
        8,
    )
    add("s32.fiber.ffb", "Fiber: FFB exception gain", "exception (FJ loses)", gains["fiber.ffb"], 1.2, 2.5)
    add("s32.fiber.mvmc", "Fiber: mVMC exception gain", "exception (FJ loses)", gains["fiber.mvmc"], 1.2, 3.5)

    # ---- Section 3.3 ---------------------------------------------------------
    cpu = suite_summary(result, "spec_cpu")
    add("s33.cpu.mean", "SPEC CPU: mean best-compiler gain", "49% (1.49x)", cpu.mean_gain, 1.30, 1.70)
    gnu_int = sum(
        1
        for b in SPEC_INT
        if records[(b, "GNU")].valid
        and records[(b, "GNU")].best_s < records[(b, "FJtrad")].best_s * 0.98
    )
    add(
        "s33.int.gnu",
        "SPEC int: codes where GNU beats FJtrad",
        "almost universally",
        gnu_int,
        8,
        10,
    )
    fj_over_clang = sum(
        1
        for b in SPEC_INT
        if records[(b, "FJtrad")].best_s
        < min(records[(b, "LLVM")].best_s, records[(b, "FJclang")].best_s) * 1.02
    )
    add(
        "s33.int.fj_vs_clang",
        "SPEC int: codes where FJtrad beats the clang-based compilers",
        "FJtrad outperforms any Clang-based alternative",
        fj_over_clang,
        8,
        10,
    )
    omp = suite_summary(result, "spec_omp")
    add("s33.omp.mean", "SPEC OMP: mean best-compiler gain", "2.5x", omp.mean_gain, 2.0, 3.1)
    add("s33.kdtree", "SPEC OMP: kdtree best-compiler gain", "16.5x", gains["spec_omp.376.kdtree"], 12.0, 21.0)
    spec_gains = [g for n, g in gains.items() if n.startswith("spec_")]
    add(
        "s33.spec.median",
        "SPEC CPU+OMP: median best-compiler gain",
        "14% (1.14x)",
        statistics.median(spec_gains),
        1.06,
        1.25,
    )

    # ---- Overall -----------------------------------------------------------
    overall = overall_summary(result)
    add(
        "overall.median",
        "all 108 benchmarks: median best-compiler gain",
        "16% (1.16x)",
        overall.median_gain,
        1.10,
        1.26,
    )

    # ---- Section 2.4 variability ---------------------------------------------
    cvs = variability_report(result)
    add("s24.amg_cv", "AMG: runtime CV", "< 0.114%", cvs["ecp.amg"], 0.0, 0.00114 * 2)
    add("s24.stream_cv", "BabelStream: runtime CV", "up to 22%", cvs["top500.babelstream"], 0.05, 0.30)

    return checks


def flight_recorder_markdown(result: CampaignResult) -> str:
    """The per-campaign flight-recorder section (empty string when the
    campaign ran without telemetry)."""
    summary = result.telemetry.get("summary", {}) if result.telemetry else {}
    if not summary:
        return ""
    lines = ["## Campaign flight recorder", ""]
    lines.append(
        f"- wall-time {summary.get('wall_s', 0):.3f} s with "
        f"{summary.get('workers', 1)} worker(s); cell busy-time "
        f"{summary.get('busy_s', 0):.3f} s over "
        f"{summary.get('cells_traced', 0)} traced cell(s)"
    )
    eff = summary.get("parallel_efficiency")
    lines.append(
        f"- parallel efficiency: {eff * 100:.1f}% (busy-time / workers x wall-time)"
        if eff is not None
        else "- parallel efficiency: n/a (no cells executed — warm cache)"
    )
    hit = summary.get("cache_hit_rate")
    lines.append(
        f"- cell-cache hit rate: {hit * 100:.1f}%"
        if hit is not None
        else "- cell-cache hit rate: n/a (campaign ran without a cache dir)"
    )
    slowest = summary.get("slowest_cells", ())
    if slowest:
        lines += ["", "| slowest cells | duration s |", "|---|---|"]
        for cell in slowest:
            lines.append(
                f"| {cell['benchmark']}/{cell['variant']} "
                f"| {cell['duration_s']:.4f} |"
            )
    lines.append("")
    return "\n".join(lines)


def lint_markdown(result: CampaignResult) -> str:
    """The static-analysis section (empty when the campaign ran with
    ``lint_policy="off"`` and no record carries findings).

    Lint findings are variant-independent, so each benchmark's findings
    are reported once even though every (benchmark, variant) record
    carries a copy.
    """
    by_benchmark: dict[str, tuple] = {}
    skipped: list[str] = []
    for record in result.records.values():
        if record.lint and record.benchmark not in by_benchmark:
            by_benchmark[record.benchmark] = record.lint
        if record.status == STATUS_LINT_ERROR and record.benchmark not in skipped:
            skipped.append(record.benchmark)
    if not by_benchmark and not skipped:
        return ""
    lines = ["## Static analysis", ""]
    policy = result.meta.get("lint_policy") if result.meta else None
    if policy:
        lines.append(f"- lint policy: `{policy}`")
    total = sum(len(diags) for diags in by_benchmark.values())
    lines.append(
        f"- {total} finding(s) across {len(by_benchmark)} benchmark(s)"
    )
    if skipped:
        lines.append(
            f"- skipped by the lint gate (ERROR findings): "
            + ", ".join(f"`{name}`" for name in skipped)
        )
    counts: dict[str, int] = {}
    for diags in by_benchmark.values():
        for diag in diags:
            counts[diag.rule_id] = counts.get(diag.rule_id, 0) + 1
    if counts:
        lines += ["", "| rule | findings |", "|---|---|"]
        for rule_id in sorted(counts):
            lines.append(f"| {rule_id} | {counts[rule_id]} |")
    lines.append("")
    return "\n".join(lines)


def resilience_markdown(result: CampaignResult) -> str:
    """The resilient-execution section (empty for a clean campaign run
    without retries, timeouts, worker restarts, or a fault plan).

    Summarizes what the engine absorbed (retried cells, worker
    restarts, injected cache losses) and what degraded into failure
    cells, broken down by taxonomy status.  Failed cells are listed
    with their fault site so a chaos run's report shows exactly where
    each fault landed.
    """
    meta = result.meta or {}
    # Only taxonomy-degraded cells count: the model's own deterministic
    # error cells (Figure 2's grey squares) are part of the paper's
    # reproduction, not resilience events, and carry no failure block.
    failed = [r for r in result.records.values()
              if r.status in FAILURE_STATUSES and r.failure is not None]
    retried = meta.get("retried", 0)
    timeouts = meta.get("timeouts", 0)
    restarts = meta.get("worker_restarts", 0)
    cache_faults = meta.get("cache_faults", 0)
    plan = meta.get("fault_plan")
    if not (failed or retried or timeouts or restarts or cache_faults or plan):
        return ""
    lines = ["## Resilience", ""]
    if plan:
        lines.append(
            f"- fault plan `{plan[:12]}` (seed {meta.get('fault_seed', 0)}) "
            "injected deterministic faults into this campaign"
        )
    lines.append(
        f"- {retried} cell retr{'y' if retried == 1 else 'ies'} absorbed "
        f"(budget: {meta.get('max_retries', 0)} per cell), "
        f"{restarts} worker-pool restart(s), "
        f"{cache_faults} injected cache loss(es)"
    )
    budget = meta.get("cell_timeout_s")
    lines.append(
        f"- per-cell wall-clock budget: {budget}s, {timeouts} cell(s) over budget"
        if budget is not None
        else "- per-cell wall-clock budget: none"
    )
    if failed:
        counts: dict[str, int] = {}
        for record in failed:
            counts[record.status] = counts.get(record.status, 0) + 1
        summary = ", ".join(f"{counts[s]} {s}" for s in FAILURE_STATUSES if s in counts)
        lines.append(f"- {len(failed)} cell(s) degraded to failure records: {summary}")
        lines += ["", "| cell | status | site | transient | attempts | retry history |",
                  "|---|---|---|---|---|---|"]
        for record in sorted(failed, key=lambda r: (r.benchmark, r.variant)):
            info = record.failure
            # The per-retry fault/delay detail the record's failure
            # block carries (empty for first-attempt failures and for
            # results saved before the history existed).
            history = "; ".join(
                f"#{step.attempt} {step.kind}@{step.site}"
                + (f" +{step.delay_s:.2f}s" if step.delay_s else "")
                for step in info.history
            ) or "—"
            lines.append(
                f"| {record.benchmark}/{record.variant} | {record.status} "
                f"| {info.site} | {'yes' if info.transient else 'no'} "
                f"| {info.attempts} | {history} |"
            )
    else:
        lines.append("- every cell completed; no failure records")
    lines.append("")
    return "\n".join(lines)


def shard_markdown(result: CampaignResult) -> str:
    """The shard coverage section (empty for ordinary unsharded runs).

    Renders for a single-shard result (``meta["shard"]``, as produced
    by ``run --shard I/N``) and for a merged one
    (``meta["merged_from"]``, as produced by ``journal merge`` /
    :func:`repro.harness.journalstore.merged_result`), so a multi-node
    campaign's report shows which nodes covered which slice of the
    grid and which shards still owe cells.
    """
    meta = result.meta or {}
    shard = meta.get("shard")
    merged_from = meta.get("merged_from")
    if not shard and not merged_from:
        return ""
    lines = ["## Shards", ""]
    if shard:
        lines.append(
            f"- this result is shard {shard[0]}/{shard[1]} of a "
            f"{meta.get('campaign_cells', '?')}-cell campaign "
            f"({len(result.records)} cells); merge the shard journals "
            f"(`a64fx-campaign journal merge`) for the full grid"
        )
    if merged_from:
        missing = meta.get("missing", 0)
        lines.append(
            f"- merged from {len(merged_from)} journal(s): "
            f"{len(result.records)}/{meta.get('cells', len(result.records))} "
            f"cells" + (f", {missing} still missing" if missing else "")
        )
        lines += ["", "| shard | journal | cells | failures | state |",
                  "|---|---|---|---|---|"]
        for cov in merged_from:
            index, count = cov.get("shard", (1, 1))
            state = "done" if cov.get("finished") else "in progress"
            lines.append(
                f"| {index}/{count} | {cov.get('path', '?')} "
                f"| {cov.get('completed', 0)}/{cov.get('assigned', 0)} "
                f"| {cov.get('failures', 0)} | {state} |"
            )
    lines.append("")
    return "\n".join(lines)


def doctor_markdown(result: CampaignResult) -> str:
    """The campaign doctor's section (empty when the doctor has nothing
    to say beyond "healthy" — a clean run without telemetry).

    Runs :func:`repro.harness.observatory.diagnose` over what the
    result itself carries (records, meta, the telemetry metrics block);
    the richer cross-run trends live in ``a64fx-campaign doctor``,
    which also reads the on-disk history stream.
    """
    from repro.harness.observatory import diagnose

    metrics = result.telemetry.get("metrics") if result.telemetry else None
    report = diagnose(result.records, meta=result.meta or {}, metrics=metrics)
    notable = [f for f in report.findings if f.category != "healthy"]
    if not notable:
        return ""
    marks = {"info": "·", "warning": "**!**", "critical": "**!!**"}
    lines = ["## Campaign doctor", ""]
    lines.append(
        f"- {len(notable)} finding(s) over {report.cells} cell(s), "
        f"{report.failures} failure record(s); worst severity: "
        f"**{report.worst}**"
    )
    lines += ["", "| severity | category | finding |", "|---|---|---|"]
    for finding in notable:
        mark = marks.get(finding.severity, finding.severity)
        detail = f" — {finding.detail}" if finding.detail else ""
        lines.append(
            f"| {mark} {finding.severity} | {finding.category} "
            f"| {finding.title}{detail} |"
        )
    lines.append("")
    return "\n".join(lines)


def tuning_markdown(tune) -> str:
    """The auto-tuner's search-trajectory section for one
    :class:`~repro.tuning.TuneResult` (``""`` for ``None``).

    Shows the winner against the scenario's calibrated known-best (the
    INT8 SDOT GEMM's hand-tuned 6x4 tile), the per-rung narrowing of
    the candidate population, and where the scores came from
    (evaluation or cache).
    """
    if tune is None:
        return ""
    lines = ["## Auto-tuning", ""]
    lines.append(
        f"- scenario `{tune.scenario}`, strategy `{tune.strategy}` on "
        f"{tune.machine}: best `{tune.best_label}` "
        f"(score {tune.best_score:.6g}, model {tune.best_time_s:.6g}s)"
    )
    efficiency = tune.best_detail.get("efficiency")
    if efficiency is not None:
        lines.append(f"- modeled efficiency {efficiency:.1%} of peak")
    if tune.known_best_label is not None:
        verdict = "rediscovered" if tune.rediscovered else "**missed**"
        lines.append(f"- known-best `{tune.known_best_label}`: {verdict}")
    lines.append(
        f"- effort: {tune.evaluations} evaluation(s), "
        f"{tune.from_cache} cache hit(s)"
    )
    if tune.rungs:
        lines += ["", "| rung | configs | trials | best | score |",
                  "|---|---|---|---|---|"]
        for rung in tune.rungs:
            lines.append(
                f"| {rung.rung} | {rung.configs} | {rung.trials} "
                f"| `{rung.best_label}` | {rung.best_score:.6g} |"
            )
    lines.append("")
    return "\n".join(lines)


def experiments_markdown(
    result: CampaignResult,
    xeon_result: CampaignResult | None = None,
    *,
    tune=None,
) -> str:
    """Render the EXPERIMENTS.md content: claim table + suite summaries.

    ``tune`` (a :class:`~repro.tuning.TuneResult`) appends the
    auto-tuner's search-trajectory section.
    """
    checks = evaluate(result, xeon_result)
    lines = [
        "# EXPERIMENTS — paper vs. measured",
        "",
        "Regenerate with `python -m repro.cli report` (or the benchmark",
        "suite under `benchmarks/`).  Every quantitative claim in the",
        "paper's evaluation is checked against an acceptance band; the",
        "reproduction targets *shape* (who wins, by what factor), not the",
        "absolute Fugaku runtimes.",
        "",
        "| id | claim | paper | measured | band | verdict |",
        "|---|---|---|---|---|---|",
    ]
    for c in checks:
        verdict = "PASS" if c.passed else "FAIL"
        lines.append(
            f"| {c.claim_id} | {c.description} | {c.paper_value} | "
            f"{c.measured:.4g} | [{c.low:.4g}, {c.high:.4g}] | {verdict} |"
        )
    lines.append("")
    lines.append("## Suite summaries (best compiler vs. FJtrad)")
    lines.append("")
    for suite in ("micro", "polybench", "top500", "ecp", "fiber", "spec_cpu", "spec_omp"):
        lines.append(f"- {suite_summary(result, suite)}")
    lines.append(f"- {overall_summary(result)}")
    lines.append("")
    passed = sum(1 for c in checks if c.passed)
    lines.append(f"**{passed}/{len(checks)} claims pass.**")
    lines.append("")
    if result.meta:
        workers = result.meta.get("workers", 1)
        hits = result.meta.get("cache_hits", 0)
        cells = result.meta.get("cells", len(result.records))
        elapsed = result.meta.get("elapsed_s")
        provenance = (
            f"_Campaign engine v{result.meta.get('engine_version', '?')}: "
            f"{cells} cells, {workers} worker(s), {hits} cache hit(s)"
        )
        if elapsed is not None:
            provenance += f", {elapsed:.1f}s wall-clock"
        lines.append(provenance + "._")
        lines.append("")
    lint = lint_markdown(result)
    if lint:
        lines.append(lint)
    resilience = resilience_markdown(result)
    if resilience:
        lines.append(resilience)
    shards = shard_markdown(result)
    if shards:
        lines.append(shards)
    recorder = flight_recorder_markdown(result)
    if recorder:
        lines.append(recorder)
    doctor = doctor_markdown(result)
    if doctor:
        lines.append(doctor)
    tuning = tuning_markdown(tune)
    if tuning:
        lines.append(tuning)
    return "\n".join(lines)
