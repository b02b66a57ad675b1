"""Command-line interface: run the study and regenerate the artifacts.

Usage::

    a64fx-campaign run [--out results.json]       # full 108x5 campaign
        [--workers N]                             # parallel cell execution
        [--cache-dir DIR]                         # persistent kernel/cell cache
        [--resume]                                # continue an interrupted run
        [--shard I/N]                             # run one shard (1-based) of the grid
        [--trace trace.json]                      # Chrome trace_event flight record
        [--span-log spans.jsonl]                  # flat JSONL span log
        [--metrics]                               # print the flight-recorder summary
        [--suite S ...] [--benchmark B ...]       # scope to a sub-campaign
        [--serve PORT]                            # live /metrics, /healthz, /progress
        [--log-json PATH]                         # structured JSONL event log
    a64fx-campaign serve --cache-dir DIR          # multi-tenant campaign service
        [--port PORT] [--workers N]               # (HTTP submit/status/events;
        [--no-resume] [--log-json PATH]           #  see docs/SERVICE.md)
    a64fx-campaign status --cache-dir DIR         # live progress/ETA/cache-hit rate
    a64fx-campaign doctor --cache-dir DIR         # diagnose clusters and collapses
    a64fx-campaign journal status --cache-dir DIR # per-shard checkpoint coverage
    a64fx-campaign journal merge --cache-dir DIR  # fold shard journals into a result
        [--out results.json] [--allow-partial]
        [--journal PATH ...]                      # explicit journal files instead
    a64fx-campaign trace summarize trace.json     # flight-recorder report of a trace
    a64fx-campaign trace validate trace.json      # shape-check a Chrome trace file
    a64fx-campaign lint [--suite S ...]           # static-analysis findings
        [--benchmark B ...] [--machine M]
        [--format text|json|sarif] [--out PATH]
        [--fail-on error|warning] [--rule ID ...]
        [--diff | --baseline PATH]                # fail only on NEW findings
    a64fx-campaign advise-static [--suite S ...]  # model-grid compiler advice
        [--benchmark B ...] [--machine M]         # + divergence findings
    a64fx-campaign figure1                        # Xeon-vs-A64FX PolyBench
    a64fx-campaign figure2 [--csv figure2.csv]    # the full heatmap
    a64fx-campaign report [--out EXPERIMENTS.md]  # paper-vs-measured claims
    a64fx-campaign list                           # suites and benchmarks
    a64fx-campaign tune [--scenario S]            # auto-tune a search space
        [--strategy grid|random|successive-halving]
        [--samples N] [--eta K] [--seed N]
        [--trials N] [--min-trials N]
        [--cache-dir DIR]                         # rerun to finish a killed search
        [--out tune.json]                         # (see docs/TUNING.md)
"""

from __future__ import annotations

import argparse
import os
import sys


def _progress_printer(total_hint: int = 0):
    """An event handler that prints coarse progress lines to stderr."""
    from repro.api import EventKind

    state = {"last": -1}

    def handler(event) -> None:
        if event.kind is EventKind.CAMPAIGN_FINISHED:
            print(f"  {event.message} in {event.elapsed_s:.1f}s", file=sys.stderr)
            return
        if event.kind is EventKind.WORKER_LOST:
            print(f"  worker lost: {event.message}", file=sys.stderr)
            return
        if event.kind not in (EventKind.CELL_FINISHED, EventKind.CELL_FAILED,
                              EventKind.CELL_TIMED_OUT, EventKind.CACHE_HIT):
            return
        decile = 10 * event.completed // max(event.total, 1)
        if decile > state["last"]:
            state["last"] = decile
            eta = f", eta {event.eta_s:.0f}s" if event.eta_s else ""
            print(
                f"  [{event.completed:4d}/{event.total}] "
                f"{event.benchmark}/{event.variant}{eta}",
                file=sys.stderr,
            )

    return handler


def _parse_shard(text: str) -> "tuple[int, int]":
    """``"2/4"`` -> ``(2, 4)`` (1-based shard index / shard count)."""
    import re

    match = re.fullmatch(r"(\d+)/(\d+)", text.strip())
    if not match:
        raise argparse.ArgumentTypeError(
            f"expected I/N (e.g. 1/4, 1-based), got {text!r}"
        )
    return (int(match.group(1)), int(match.group(2)))


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.api import CampaignConfig, CampaignSession, EventKind

    telemetry_on = bool(args.trace or args.span_log or args.metrics)
    fault_plan = None
    if args.fault_plan:
        from repro.faults import FaultPlan

        fault_plan = FaultPlan.load(args.fault_plan)
        print(
            f"fault plan {args.fault_plan}: seed {fault_plan.seed}, "
            f"{len(fault_plan.rules)} rule(s), digest {fault_plan.digest()[:12]}",
            file=sys.stderr,
        )
    config = CampaignConfig(
        workers=args.workers,
        cache_dir=args.cache_dir,
        resume=args.resume,
        suites=tuple(args.suite) if args.suite else None,
        benchmarks=tuple(args.benchmark) if args.benchmark else None,
        variants=tuple(args.variant) if args.variant else CampaignConfig.variants,
        telemetry=telemetry_on,
        fault_plan=fault_plan,
        max_retries=args.max_retries,
        cell_timeout_s=args.cell_timeout,
        retry_backoff_s=args.retry_backoff,
        shard=args.shard,
        serve=args.serve,
        log_json=args.log_json,
    )
    if args.shard and not args.cache_dir:
        print(
            "warning: --shard without --cache-dir writes no journal; the "
            "shard's records cannot be merged back into the full campaign",
            file=sys.stderr,
        )
    session = CampaignSession(config)
    session.subscribe(_progress_printer())
    if args.serve is not None:
        @session.subscribe
        def _announce(event) -> None:
            if event.kind is EventKind.CAMPAIGN_STARTED:
                server = session.observatory
                if server is not None:
                    print(f"observatory serving {server.url}/metrics "
                          f"(/healthz, /progress)", file=sys.stderr)
    result = session.run()
    if args.out:
        result.save(args.out)
        print(f"saved {len(result.records)} records to {args.out}")
    elif not args.metrics:
        print(result.to_json())
    if telemetry_on:
        from repro import telemetry

        if args.trace:
            telemetry.write_chrome_trace(args.trace, session.telemetry)
            print(f"Chrome trace written to {args.trace} "
                  f"(open in chrome://tracing or https://ui.perfetto.dev)",
                  file=sys.stderr)
        if args.span_log:
            telemetry.write_jsonl(args.span_log, session.telemetry)
            print(f"span log written to {args.span_log}", file=sys.stderr)
        if args.metrics:
            report = telemetry.flight_report(
                session.telemetry.spans, session.telemetry.metrics.snapshot()
            )
            print(telemetry.render_flight_report(report))
    return 0


def _journal_merged(args: argparse.Namespace):
    """The merged journal view for the journal subcommands (or None)."""
    from repro.harness.journalstore import DirectoryJournalStore, merge_journals

    if args.journal:
        return merge_journals(args.journal)
    return DirectoryJournalStore(args.cache_dir).merge()


def _cmd_journal_status(args: argparse.Namespace) -> int:
    from repro.errors import HarnessError

    try:
        merged = _journal_merged(args)
    except HarnessError as exc:
        print(f"journal conflict: {exc}", file=sys.stderr)
        return 1
    if merged is None:
        where = args.cache_dir if not args.journal else ", ".join(args.journal)
        print(f"no campaign journals found in {where}")
        return 1
    print(f"campaign {merged.fingerprint[:12]} on {merged.machine}: "
          f"{len(merged.records)}/{len(merged.cells)} cells checkpointed")
    for cov in merged.shards:
        state = "done" if cov.finished else "in progress"
        failed = f", {cov.failures} failed" if cov.failures else ""
        print(f"  shard {cov.label:>5s}  {cov.completed:4d}/{cov.assigned:4d} "
              f"cells{failed}  [{state}]  {cov.path}")
    missing = merged.missing
    if missing:
        preview = ", ".join(f"{b}/{v}" for b, v in missing[:5])
        more = f" (+{len(missing) - 5} more)" if len(missing) > 5 else ""
        print(f"missing: {preview}{more}")
        return 1
    print("complete: every cell is checkpointed; "
          "`a64fx-campaign journal merge` can assemble the full result")
    return 0


def _cmd_journal_merge(args: argparse.Namespace) -> int:
    from repro.errors import HarnessError
    from repro.harness.journalstore import merged_result

    try:
        merged = _journal_merged(args)
        if merged is None:
            where = args.cache_dir if not args.journal else ", ".join(args.journal)
            print(f"no campaign journals found in {where}", file=sys.stderr)
            return 1
        result = merged_result(merged, allow_partial=args.allow_partial)
    except HarnessError as exc:
        print(f"merge failed: {exc}", file=sys.stderr)
        return 1
    shards = ", ".join(cov.label for cov in merged.shards)
    print(f"merged {len(result.records)} records from shard(s) {shards}"
          + (f" ({len(merged.missing)} cells still missing)"
             if merged.missing else ""),
          file=sys.stderr)
    if args.out:
        result.save(args.out)
        print(f"saved {len(result.records)} records to {args.out}")
    else:
        print(result.to_json())
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    from dataclasses import asdict
    import json

    from repro.harness.observatory import (
        campaign_status,
        render_service_overview,
        render_status,
        service_overview,
    )

    status = campaign_status(args.cache_dir)
    service = service_overview(args.cache_dir)
    if status is None and service is None:
        print(f"no campaign journals found in {args.cache_dir}",
              file=sys.stderr)
        return 2
    if args.json:
        # Campaign fields stay top-level (the pre-service shape, which
        # scripts already parse); the service overview rides along
        # under its own key.
        doc = asdict(status) if status is not None else {}
        if service is not None:
            doc["service"] = {
                "path": service.path,
                "campaigns": list(service.campaigns),
                "tenants": service.tenants,
            }
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        if status is not None:
            print(render_status(status))
        if service is not None:
            print(render_service_overview(service))
    if status is None:
        return 0
    return 0 if status.complete else 1


def _cmd_doctor(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.harness.observatory import doctor_from_cache_dir, render_doctor

    baseline = None
    baseline_path = args.baseline
    if baseline_path is None:
        default = Path("benchmarks/BENCH_engine.baseline.json")
        if default.exists():
            baseline_path = str(default)
    if baseline_path is not None:
        try:
            baseline = json.loads(Path(baseline_path).read_text())
        except (OSError, ValueError) as exc:
            print(f"warning: could not read baseline {baseline_path}: {exc}",
                  file=sys.stderr)
    report = doctor_from_cache_dir(args.cache_dir, baseline=baseline)
    if report is None:
        print(f"no campaign journals found in {args.cache_dir}",
              file=sys.stderr)
        return 2
    if args.json:
        from dataclasses import asdict

        print(json.dumps(asdict(report), indent=2, sort_keys=True))
    else:
        print(render_doctor(report))
        from repro.harness.observatory import service_overview

        service = service_overview(args.cache_dir)
        if service is not None:
            failed = [e for e in service.campaigns
                      if e.get("state") == "failed"]
            interrupted = service.resumable
            if failed or interrupted:
                print(f"service: {len(failed)} failed campaign(s), "
                      f"{interrupted} interrupted (resumable) — see "
                      f"`a64fx-campaign status --cache-dir "
                      f"{args.cache_dir}`")
    return 1 if report.worst == "critical" else 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the campaign service until interrupted."""
    import contextlib
    import time as _time

    from repro import telemetry
    from repro.service import CampaignService

    log_cm = contextlib.nullcontext()
    if args.log_json:
        logger = telemetry.StructuredLogger(path=args.log_json)
        log_cm = telemetry.logging_active(logger)
    with log_cm:
        service = CampaignService(
            args.cache_dir,
            host=args.host,
            port=args.port,
            workers=args.workers,
            resume=not args.no_resume,
        )
        service.start()
        sched = service.scheduler
        resumed = sum(1 for c in sched.campaigns.values())
        print(f"campaign service on {service.url} "
              f"(cache {args.cache_dir}, {args.workers} worker(s)"
              + (f", resumed {resumed} campaign(s)" if resumed else "")
              + ")", file=sys.stderr)
        print(f"  POST {service.url}/campaigns submits; "
              f"GET /campaigns/<id>/events streams; see docs/SERVICE.md",
              file=sys.stderr)
        try:
            while True:
                _time.sleep(3600)
        except KeyboardInterrupt:
            print("shutting down (waiting for running campaigns; "
                  "interrupted campaigns resume on next start)",
                  file=sys.stderr)
            service.stop(graceful=True)
    return 0


def _cmd_trace_summarize(args: argparse.Namespace) -> int:
    from repro.telemetry import flight_report_from_file, render_flight_report

    print(render_flight_report(flight_report_from_file(args.path)))
    return 0


def _cmd_trace_validate(args: argparse.Namespace) -> int:
    import json

    from repro.telemetry import validate_chrome_trace

    with open(args.path) as fh:
        doc = json.load(fh)
    problems = validate_chrome_trace(doc)
    if problems:
        for problem in problems:
            print(f"  {problem}", file=sys.stderr)
        print(f"{args.path}: INVALID ({len(problems)} problem(s))")
        return 1
    spans = sum(1 for e in doc["traceEvents"] if e.get("ph") == "X")
    print(f"{args.path}: valid Chrome trace_event file ({spans} spans)")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    """Run the static analyzer over kernel IR and report the findings."""
    import json

    from repro.api import _resolve_machine
    from repro.staticanalysis import (
        AnalysisContext,
        Severity,
        analyze_benchmark,
        findings_to_json,
        has_at_least,
        render_text,
        select_rules,
        to_sarif,
        validate_sarif,
    )
    from repro.suites import all_suites, get_benchmark, get_suite

    benchmarks = []
    if args.benchmark:
        benchmarks.extend(get_benchmark(name) for name in args.benchmark)
    if args.suite:
        for name in args.suite:
            benchmarks.extend(get_suite(name).benchmarks)
    if not benchmarks:
        for suite in all_suites():
            benchmarks.extend(suite.benchmarks)

    rules = select_rules(args.rule) if args.rule else None
    ctx = AnalysisContext(machine=_resolve_machine(args.machine))
    findings = []
    kernels = []
    seen_kernels = set()
    for bench in benchmarks:
        findings.extend(analyze_benchmark(bench, rules=rules, ctx=ctx))
        for kernel in bench.kernels():
            if id(kernel) not in seen_kernels:
                seen_kernels.add(id(kernel))
                kernels.append(kernel)

    if args.format == "sarif":
        doc = to_sarif(findings, kernels=kernels)
        problems = validate_sarif(doc)
        if problems:  # pragma: no cover - internal consistency check
            for problem in problems:
                print(f"  {problem}", file=sys.stderr)
            print("generated SARIF failed self-validation", file=sys.stderr)
            return 2
        text = json.dumps(doc, indent=2)
    elif args.format == "json":
        text = findings_to_json(findings)
    else:
        text = render_text(findings)

    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
        print(f"{len(findings)} finding(s) written to {args.out} "
              f"({args.format})", file=sys.stderr)
    else:
        print(text)

    if args.diff or args.baseline:
        from repro.staticanalysis import diff_against_baseline

        baseline_path = args.baseline or "lint-baseline.json"
        diff = diff_against_baseline(findings, baseline_path)
        print(f"baseline diff vs {baseline_path}: {diff.summary()}",
              file=sys.stderr)
        for diag in diff.new:
            print(f"  NEW {diag}", file=sys.stderr)
        if not diff.ok:
            return 1

    if args.fail_on:
        threshold = Severity.parse(args.fail_on)
        if has_at_least(findings, threshold):
            worst = sum(1 for d in findings if d.severity.at_least(threshold))
            print(f"lint gate: {worst} finding(s) at or above "
                  f"{threshold.value!r}", file=sys.stderr)
            return 1
    return 0


def _cmd_advise_static(args: argparse.Namespace) -> int:
    """Per-benchmark compiler advice from the noise-free cost model.

    Unlike ``advise`` (which runs the full campaign), this evaluates the
    model grid once for the selected benchmarks (``evaluate_grid``, as
    ``grid`` does) and prints the fastest variant, each variant's
    best-placement model time or failed status, and the ranked
    divergence findings: what each compiler did differently.
    """
    from repro.machine.select import resolve_machine
    from repro.perf.batch import GridSpec, evaluate_grid
    from repro.staticanalysis import AnalysisContext, analyze_benchmark
    from repro.staticanalysis.divergence import DIVERGENCE_RULES, rank_divergence
    from repro.suites import get_benchmark, get_suite
    from repro.units import pretty_seconds

    names = list(args.benchmark or [])
    for suite in args.suite or []:
        names.extend(b.full_name for b in get_suite(suite).benchmarks)
    machine = resolve_machine(args.machine)
    grid = evaluate_grid(GridSpec(
        machine=machine, benchmarks=tuple(dict.fromkeys(names)) or None))
    cells: dict[str, list] = {}
    for cell in grid.cells:
        cells.setdefault(cell.benchmark, []).append(cell)

    ctx = AnalysisContext(machine=machine)
    div_ids = set(DIVERGENCE_RULES)
    for name, row in cells.items():
        ranked = sorted(row, key=lambda c: c.best.time_s)
        print(f"{name}: use {ranked[0].variant}")
        for cell in ranked:
            best = cell.best
            marker = "*" if cell is ranked[0] else " "
            if best.valid:
                shown = (f"{pretty_seconds(best.time_s):>10s}  at "
                         f"{best.placement.ranks}x{best.placement.threads}")
            else:
                shown = f"failed ({best.status.value})"
            print(f"  {marker} {cell.variant:10s} {shown}")
        findings = [
            d for d in analyze_benchmark(get_benchmark(name), ctx=ctx)
            if d.rule_id in div_ids
        ]
        for diag in rank_divergence(findings):
            print(f"    {diag}")
    return 0


def _cmd_figure1(args: argparse.Namespace) -> int:
    from repro.analysis import figure1, figure1_svg
    from repro.api import CampaignConfig, CampaignSession
    from repro.harness import run_polybench_xeon

    a64 = CampaignSession(CampaignConfig(suites=("polybench",))).run()
    xeon = run_polybench_xeon()
    fig = figure1(a64, xeon)
    print(fig.render())
    if args.svg:
        with open(args.svg, "w") as fh:
            fh.write(figure1_svg(fig))
        print(f"\nSVG written to {args.svg}")
    return 0


def _cmd_figure2(args: argparse.Namespace) -> int:
    from repro.analysis import figure2, figure2_svg
    from repro.api import CampaignConfig, CampaignSession

    result = CampaignSession(CampaignConfig()).run()
    fig = figure2(result)
    print(fig.render())
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(fig.to_csv())
        print(f"\nCSV written to {args.csv}")
    if args.svg:
        with open(args.svg, "w") as fh:
            fh.write(figure2_svg(fig))
        print(f"SVG written to {args.svg}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis import evaluate, experiments_markdown
    from repro.api import CampaignConfig, CampaignSession
    from repro.harness import run_polybench_xeon

    result = CampaignSession(CampaignConfig()).run()
    xeon = run_polybench_xeon()
    text = experiments_markdown(result, xeon)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"report written to {args.out}")
    else:
        print(text)
    checks = evaluate(result, xeon)
    failed = [c for c in checks if not c.passed]
    return 1 if failed else 0


def _cmd_kernel(args: argparse.Namespace) -> int:
    """Compile and cost a user-authored kernel from a JSON file.

    The kernel is costed as a one-unit OpenMP benchmark on one rank of
    ``--threads`` threads, through the campaign's cost model: OpenMP
    fork/barrier cost, NUMA spill and the 2 µs floor included.
    """
    from repro.compilers import STUDY_VARIANTS
    from repro.ir import check_kernel, kernel_from_json
    from repro.machine import Placement, a64fx
    from repro.perf import CompilationCache, benchmark_model, roofline_point
    from repro.suites.base import Benchmark, ParallelKind, WorkUnit
    from repro.units import pretty_seconds

    with open(args.path) as fh:
        kernel = kernel_from_json(fh.read())
    check_kernel(kernel)
    machine = a64fx()
    threads = args.threads
    if not 1 <= threads <= machine.total_cores:
        print(f"--threads {threads} does not fit {machine.name} "
              f"({machine.total_cores} cores)", file=sys.stderr)
        return 2
    placement = Placement(1, threads)
    bench = Benchmark(
        name=kernel.name,
        suite="kernel",
        language=kernel.language,
        units=(WorkUnit(kernel=kernel),),
        parallel=ParallelKind.OPENMP,
    )
    print(f"kernel {kernel.name} [{kernel.language.value}], "
          f"{kernel.total_flops() / 1e9:.2f} GFLOP, "
          f"{kernel.data_footprint_bytes / 2**20:.1f} MiB footprint")
    cache = CompilationCache()
    best = None
    for variant in STUDY_VARIANTS:
        model = benchmark_model(bench, variant, machine, placement, cache=cache)
        if not model.valid:
            print(f"  {variant:12s} {model.status.value}")
            continue
        if best is None or model.time_s < best[1]:
            best = (variant, model.time_s)
        info = cache.get(variant, kernel, machine, None).nest_infos[0]
        point = roofline_point(info, machine, threads=threads)
        print(
            f"  {variant:12s} {pretty_seconds(model.time_s):>10s}  "
            f"AI={point.arithmetic_intensity:7.3f} F/B  "
            f"passes={','.join(info.applied_passes)}"
        )
    if best:
        print(f"recommendation: {best[0]} ({pretty_seconds(best[1])})")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.analysis import compare_campaigns
    from repro.harness import CampaignResult

    before = CampaignResult.load(args.before)
    after = CampaignResult.load(args.after)
    diff = compare_campaigns(before, after)
    print(diff.render(args.threshold))
    return 0


def _cmd_show(args: argparse.Namespace) -> int:
    from repro.compilers import STUDY_VARIANTS
    from repro.harness import measure_benchmark
    from repro.machine import a64fx
    from repro.perf import CompilationCache
    from repro.suites import get_benchmark
    from repro.units import pretty_seconds

    bench = get_benchmark(args.benchmark)
    machine = a64fx()
    cache = CompilationCache()
    print(f"{bench.full_name} [{bench.language.value}] — {bench.notes}")
    print(
        f"  parallel={bench.parallel.value} scaling={bench.scaling.value} "
        f"noise_cv={bench.noise_cv}"
    )
    base_time = None
    for variant in STUDY_VARIANTS:
        record = measure_benchmark(bench, variant, machine, cache=cache)
        if not record.valid:
            print(f"  {variant:12s} {record.status}")
            continue
        if base_time is None:
            base_time = record.best_s
        gain = base_time / record.best_s
        print(
            f"  {variant:12s} best={pretty_seconds(record.best_s):>10s} "
            f"gain={gain:6.2f}x placement={record.ranks}x{record.threads} "
            f"cv={record.cv * 100:.2f}%"
        )
        for unit in bench.units:
            if unit.kernel is None:
                continue
            compiled = cache.get(variant, unit.kernel, machine, None)
            if not compiled.ok:
                continue
            for info in compiled.nest_infos:
                vec = (
                    f"{info.vector_isa.name}x{info.vec_lanes}"
                    if info.vectorized
                    else "scalar"
                )
                print(
                    f"      {unit.kernel.name:22s} order={''.join(info.nest.loop_vars):6s} "
                    f"{vec:10s} passes={','.join(info.applied_passes)}"
                )
    return 0


def _cmd_advise(args: argparse.Namespace) -> int:
    from repro.analysis import advice_report
    from repro.api import CampaignConfig, CampaignSession

    result = CampaignSession(CampaignConfig()).run()
    print(advice_report(result))
    return 0


def _cmd_list(args: argparse.Namespace) -> int:
    from repro.suites import all_suites

    for suite in all_suites():
        print(f"{suite.display} ({suite.name}): {len(suite)} benchmarks")
        for b in suite.benchmarks:
            print(f"  {b.full_name:28s} [{b.language.value:7s}] {b.notes}")
    return 0


def _cmd_grid(args: argparse.Namespace) -> int:
    """Batch-evaluate the noise-free model grid (no measurement runs)."""
    from repro.api import GridSpec, evaluate_grid
    from repro.units import pretty_seconds

    spec = GridSpec(
        machine=args.machine,
        variants=tuple(args.variants) if args.variants else GridSpec().variants,
        suites=tuple(args.suites) if args.suites else None,
        benchmarks=tuple(args.benchmarks) if args.benchmarks else None,
    )
    grid = evaluate_grid(spec)
    print(f"model grid on {grid.machine}: {len(grid.cells)} cells")
    for cell in grid.cells:
        best = cell.best
        if not best.valid:
            print(f"  {cell.benchmark:28s} {cell.variant:8s} (build failed)")
            continue
        print(
            f"  {cell.benchmark:28s} {cell.variant:8s} "
            f"best={pretty_seconds(best.time_s):>10s} "
            f"placement={best.placement.ranks}x{best.placement.threads} "
            f"({len(cell.placements)} placements)"
        )
    return 0


def _cmd_tune(args: argparse.Namespace) -> int:
    """Run one auto-tuning search (see docs/TUNING.md)."""
    from pathlib import Path

    from repro import telemetry as telemetry_mod
    from repro.api import TuneSpec, run_tune
    from repro.tuning import scenario_names

    if args.list_scenarios:
        for name in scenario_names():
            print(name)
        print("placement:<suite.name>[:<variant>[+<variant>...]]")
        return 0

    spec = TuneSpec(
        scenario=args.scenario,
        strategy=args.strategy,
        machine=args.machine,
        trials=args.trials,
        min_trials=args.min_trials,
        samples=args.samples,
        eta=args.eta,
        seed=args.seed,
        cache_dir=args.cache_dir,
    )
    recorder = telemetry_mod.Telemetry() if args.metrics else None
    with telemetry_mod.active(recorder):
        result = run_tune(spec)

    print(f"scenario  {result.scenario}")
    print(f"strategy  {result.strategy} on {result.machine}")
    print(
        f"best      {result.best_label}  "
        f"(score {result.best_score:.6g}, model {result.best_time_s:.6g}s)"
    )
    for key, value in sorted(result.best_detail.items()):
        if isinstance(value, float):
            print(f"          {key} = {value:.4g}")
        else:
            print(f"          {key} = {value}")
    if result.known_best_label is not None:
        verdict = "rediscovered" if result.rediscovered else "MISSED"
        print(f"known     {result.known_best_label}  [{verdict}]")
    print(
        f"effort    {result.evaluations} evaluations, "
        f"{result.from_cache} from cache, {len(result.rungs)} rung(s)"
    )
    for rung in result.rungs:
        print(
            f"  rung {rung.rung}: {rung.configs:4d} configs x "
            f"{rung.trials} trial(s) -> best {rung.best_label} "
            f"({rung.best_score:.6g})"
        )
    if recorder is not None:
        snapshot = recorder.metrics.snapshot()
        for name, value in sorted(snapshot.get("counters", {}).items()):
            if name.startswith("tuner."):
                print(f"  {name} = {value:g}")
    if args.out:
        Path(args.out).write_text(result.to_json() + "\n")
        print(f"wrote {args.out}")
    return 0


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="a64fx-campaign",
        description="Reproduce 'A64FX - Your Compiler You Must Decide!' (CLUSTER'21)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the full campaign")
    p_run.add_argument("--out", help="write results JSON here")
    p_run.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for cell execution (default: 1, serial)",
    )
    p_run.add_argument(
        "--cache-dir",
        help="persistent cache root (compiled kernels, finished cells, journal)",
    )
    p_run.add_argument(
        "--resume", action="store_true",
        help="resume an interrupted campaign from the journal in --cache-dir",
    )
    p_run.add_argument(
        "--trace", metavar="PATH",
        help="record the campaign flight recorder and write a Chrome "
             "trace_event JSON here (open in chrome://tracing / Perfetto)",
    )
    p_run.add_argument(
        "--span-log", metavar="PATH",
        help="also write the raw span stream as JSONL here",
    )
    p_run.add_argument(
        "--metrics", action="store_true",
        help="print the flight-recorder summary (cache hit rate, parallel "
             "efficiency, slowest cells) after the run",
    )
    p_run.add_argument(
        "--suite", action="append", metavar="NAME",
        help="limit the campaign to this suite (repeatable)",
    )
    p_run.add_argument(
        "--benchmark", action="append", metavar="FULL_NAME",
        help="limit the campaign to this benchmark, e.g. polybench.2mm "
             "(repeatable; overrides --suite)",
    )
    p_run.add_argument(
        "--variant", action="append", metavar="NAME",
        help="limit the campaign to this compiler variant (repeatable)",
    )
    p_run.add_argument(
        "--cell-timeout", type=float, default=None, metavar="SECONDS",
        help="per-cell wall-clock budget; blown cells record as 'timeout' "
             "(default: no limit)",
    )
    p_run.add_argument(
        "--max-retries", type=int, default=1, metavar="N",
        help="retry budget per cell for transient faults (default: 1)",
    )
    p_run.add_argument(
        "--retry-backoff", type=float, default=0.05, metavar="SECONDS",
        help="base of the seeded exponential retry backoff (default: 0.05)",
    )
    p_run.add_argument(
        "--fault-plan", metavar="PATH",
        help="inject deterministic faults from this JSON plan "
             "(see repro.faults.FaultPlan) — chaos testing",
    )
    p_run.add_argument(
        "--shard", type=_parse_shard, default=None, metavar="I/N",
        help="run only shard I of N (1-based, deterministic benchmark-major "
             "assignment); each shard journals separately under --cache-dir "
             "and `journal merge` folds them back together",
    )
    p_run.add_argument(
        "--serve", type=int, default=None, metavar="PORT",
        help="serve the live observability endpoint (/metrics in Prometheus "
             "text format, /healthz, /progress) on this port while the "
             "campaign runs; 0 binds an ephemeral port (printed to stderr)",
    )
    p_run.add_argument(
        "--log-json", metavar="PATH",
        help="append structured JSONL log records (cell lifecycle, faults, "
             "retries, correlated by campaign/shard/cell) to this file",
    )
    p_run.set_defaults(func=_cmd_run)

    p_journal = sub.add_parser(
        "journal", help="inspect and merge campaign checkpoint journals"
    )
    journal_sub = p_journal.add_subparsers(dest="journal_command", required=True)
    p_jstat = journal_sub.add_parser(
        "status", help="per-shard checkpoint coverage of a campaign"
    )
    p_jstat.add_argument(
        "--cache-dir", default=".", metavar="DIR",
        help="campaign cache root holding the journal files (default: .)",
    )
    p_jstat.add_argument(
        "--journal", action="append", metavar="PATH",
        help="inspect these journal files instead of --cache-dir (repeatable)",
    )
    p_jstat.set_defaults(func=_cmd_journal_status)
    p_jmerge = journal_sub.add_parser(
        "merge", help="fold shard journals into one campaign result"
    )
    p_jmerge.add_argument(
        "--cache-dir", default=".", metavar="DIR",
        help="campaign cache root holding the journal files (default: .)",
    )
    p_jmerge.add_argument(
        "--journal", action="append", metavar="PATH",
        help="merge these journal files instead of --cache-dir (repeatable)",
    )
    p_jmerge.add_argument("--out", help="write the merged results JSON here")
    p_jmerge.add_argument(
        "--allow-partial", action="store_true",
        help="produce a result even when some cells have no checkpoint yet",
    )
    p_jmerge.set_defaults(func=_cmd_journal_merge)

    p_status = sub.add_parser(
        "status",
        help="live progress of a (possibly running, possibly sharded) "
             "campaign: completion, throughput, ETA, cache-hit rate",
    )
    p_status.add_argument(
        "--cache-dir", default=".", metavar="DIR",
        help="campaign cache root holding the journals and metrics "
             "histories (default: .)",
    )
    p_status.add_argument(
        "--json", action="store_true",
        help="emit the status as JSON instead of the rendered view",
    )
    p_status.set_defaults(func=_cmd_status)

    p_doctor = sub.add_parser(
        "doctor",
        help="diagnose a campaign: retry/failure clusters, slowest phases, "
             "cache-hit collapses, throughput vs the bench baseline",
    )
    p_doctor.add_argument(
        "--cache-dir", default=".", metavar="DIR",
        help="campaign cache root holding the journals and metrics "
             "histories (default: .)",
    )
    p_doctor.add_argument(
        "--baseline", metavar="PATH",
        help="bench baseline JSON for the throughput reference (default: "
             "benchmarks/BENCH_engine.baseline.json when present)",
    )
    p_doctor.add_argument(
        "--json", action="store_true",
        help="emit the findings as JSON instead of the rendered note",
    )
    p_doctor.set_defaults(func=_cmd_doctor)

    p_serve = sub.add_parser(
        "serve",
        help="run the campaign service: accept concurrent campaign "
             "submissions over HTTP, dedupe overlapping cells across "
             "tenants, stream events, resume interrupted campaigns",
    )
    p_serve.add_argument(
        "--cache-dir", default=".", metavar="DIR",
        help="shared cache root (cells, kernels, service registry and "
             "journals; default: .)",
    )
    p_serve.add_argument(
        "--host", default="127.0.0.1",
        help="bind address (default: 127.0.0.1)",
    )
    p_serve.add_argument(
        "--port", type=int, default=0, metavar="PORT",
        help="bind port; 0 (default) binds an ephemeral port, printed "
             "to stderr — the collision-safe choice",
    )
    p_serve.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help="worker processes for cell execution; 0 runs cells on "
             "threads in-process (default: 2)",
    )
    p_serve.add_argument(
        "--no-resume", action="store_true",
        help="do not resume interrupted campaigns from the registry",
    )
    p_serve.add_argument(
        "--log-json", metavar="PATH",
        help="append structured JSONL service/worker log records "
             "(correlated by campaign id and tenant) to this file",
    )
    p_serve.set_defaults(func=_cmd_serve)

    p_trace = sub.add_parser("trace", help="inspect recorded campaign traces")
    trace_sub = p_trace.add_subparsers(dest="trace_command", required=True)
    p_summ = trace_sub.add_parser(
        "summarize", help="flight-recorder report from a trace file"
    )
    p_summ.add_argument("path", help="Chrome trace JSON or JSONL span log")
    p_summ.set_defaults(func=_cmd_trace_summarize)
    p_val = trace_sub.add_parser(
        "validate", help="shape-check a Chrome trace_event JSON file"
    )
    p_val.add_argument("path", help="Chrome trace JSON file")
    p_val.set_defaults(func=_cmd_trace_validate)

    p_lint = sub.add_parser(
        "lint", help="static-analysis findings for kernel IR"
    )
    p_lint.add_argument(
        "--suite", action="append", metavar="NAME",
        help="lint every benchmark of this suite (repeatable; "
             "default: all suites)",
    )
    p_lint.add_argument(
        "--benchmark", action="append", metavar="FULL_NAME",
        help="lint this benchmark, e.g. polybench.2mm (repeatable)",
    )
    p_lint.add_argument(
        "--machine", default=None,
        help="machine model for the cost-based rules "
             "(a64fx, xeon, thunderx2; default: a64fx)",
    )
    p_lint.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="output format (default: text)",
    )
    p_lint.add_argument(
        "--out", metavar="PATH",
        help="write the findings here instead of stdout",
    )
    p_lint.add_argument(
        "--fail-on", choices=("error", "warning"), default=None,
        help="exit nonzero when any finding is at or above this severity",
    )
    p_lint.add_argument(
        "--rule", action="append", metavar="ID",
        help="run only this rule, e.g. RACE001 (repeatable; default: all)",
    )
    p_lint.add_argument(
        "--diff", action="store_true",
        help="diff findings against the committed lint-baseline.json "
             "and exit nonzero on findings the baseline does not know",
    )
    p_lint.add_argument(
        "--baseline", metavar="PATH", default=None,
        help="like --diff, against this baseline file instead",
    )
    p_lint.set_defaults(func=_cmd_lint)

    p_astat = sub.add_parser(
        "advise-static",
        help="per-benchmark compiler advice from the noise-free model "
             "grid, with the divergence findings (no campaign)",
    )
    p_astat.add_argument(
        "--suite", action="append", metavar="NAME",
        help="advise every benchmark of this suite (repeatable; "
             "default: all suites)",
    )
    p_astat.add_argument(
        "--benchmark", action="append", metavar="FULL_NAME",
        help="advise this benchmark, e.g. polybench.2mm (repeatable)",
    )
    p_astat.add_argument(
        "--machine", default=None,
        help="machine model to evaluate and compile for (a64fx, xeon, "
             "thunderx2; default: a64fx)",
    )
    p_astat.set_defaults(func=_cmd_advise_static)

    p_f1 = sub.add_parser("figure1", help="regenerate Figure 1")
    p_f1.add_argument("--svg", help="also export an SVG chart here")
    p_f1.set_defaults(func=_cmd_figure1)

    p_f2 = sub.add_parser("figure2", help="regenerate Figure 2 (heatmap)")
    p_f2.add_argument("--csv", help="also export CSV here")
    p_f2.add_argument("--svg", help="also export an SVG heatmap here")
    p_f2.set_defaults(func=_cmd_figure2)

    p_rep = sub.add_parser("report", help="paper-vs-measured claim report")
    p_rep.add_argument("--out", help="write markdown here")
    p_rep.set_defaults(func=_cmd_report)

    p_adv = sub.add_parser("advise", help="derive per-workload compiler advice")
    p_adv.set_defaults(func=_cmd_advise)

    p_show = sub.add_parser("show", help="per-compiler detail for one benchmark")
    p_show.add_argument("benchmark", help="full name, e.g. polybench.2mm")
    p_show.set_defaults(func=_cmd_show)

    p_k = sub.add_parser("kernel", help="compile & cost a kernel JSON file")
    p_k.add_argument("path", help="kernel JSON (see repro.ir.kernel_to_json)")
    p_k.add_argument("--threads", type=int, default=12)
    p_k.set_defaults(func=_cmd_kernel)

    p_cmp = sub.add_parser("compare", help="diff two saved campaign JSONs")
    p_cmp.add_argument("before")
    p_cmp.add_argument("after")
    p_cmp.add_argument("--threshold", type=float, default=0.02)
    p_cmp.set_defaults(func=_cmd_compare)

    p_list = sub.add_parser("list", help="list suites and benchmarks")
    p_list.set_defaults(func=_cmd_list)

    p_grid = sub.add_parser(
        "grid", help="batch-evaluate the noise-free model grid"
    )
    p_grid.add_argument(
        "--machine", default=None, help="machine name (default: a64fx)"
    )
    p_grid.add_argument(
        "--variant", dest="variants", action="append", default=None,
        help="compiler variant (repeatable; default: all five)",
    )
    p_grid.add_argument(
        "--suite", dest="suites", action="append", default=None,
        help="suite name (repeatable; default: all seven)",
    )
    p_grid.add_argument(
        "--benchmark", dest="benchmarks", action="append", default=None,
        help="benchmark full name (repeatable; overrides --suite)",
    )
    p_grid.set_defaults(func=_cmd_grid)

    p_tune = sub.add_parser(
        "tune", help="auto-tune a search space (see docs/TUNING.md)"
    )
    p_tune.add_argument(
        "--scenario", default="gemm-int8-sdot",
        help="scenario spec: a registered name, or "
             "placement:<suite.name>[:<variant>[+<variant>...]] "
             "(default: gemm-int8-sdot)",
    )
    p_tune.add_argument(
        "--strategy", default="successive-halving",
        choices=("grid", "random", "successive-halving"),
        help="search strategy (default: successive-halving)",
    )
    p_tune.add_argument(
        "--machine", default=None, help="machine name (default: a64fx)"
    )
    p_tune.add_argument(
        "--trials", type=int, default=3,
        help="full-fidelity trials per config (default: 3, the paper's "
             "exploration-phase count; also the successive-halving cap, "
             "at least --min-trials)",
    )
    p_tune.add_argument(
        "--min-trials", type=int, default=1,
        help="successive halving's rung-0 trials (default: 1)",
    )
    p_tune.add_argument(
        "--samples", type=int, default=None,
        help="population size for random (required) and successive "
             "halving (default: the full grid)",
    )
    p_tune.add_argument(
        "--eta", type=int, default=3,
        help="successive halving's keep-1-in-eta ratio (default: 3)",
    )
    p_tune.add_argument(
        "--seed", type=int, default=0,
        help="seed for sampled populations (default: 0)",
    )
    p_tune.add_argument(
        "--cache-dir",
        help="persistent root for the evaluation cache (rerun a killed "
             "search on it to finish it)",
    )
    p_tune.add_argument(
        "--metrics", action="store_true",
        help="record telemetry and print the tuner.* counters",
    )
    p_tune.add_argument("--out", help="write the TuneResult JSON here")
    p_tune.add_argument(
        "--list-scenarios", action="store_true",
        help="list tunable scenarios and exit",
    )
    p_tune.set_defaults(func=_cmd_tune)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early; not an error.
        # Detach stdout so the interpreter's shutdown flush cannot raise.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
