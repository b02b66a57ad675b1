"""Per-layer metrics and the traced report, from the spans every traced
process wrote (see :mod:`tracer`).

Self times are summed over all processes of the program, pool workers
included; the table splits them into the main process (the blocking
path of a campaign) and the workers.  ``trace.unattributed_s`` is the
traced wall time minus the main process's layer self times, so for the
open-loop ``service`` it includes the time the server sat idle.
"""

from __future__ import annotations

from collections import defaultdict

from common import WORKERS, median

#: Layers in report order: (span name, what it times).
LAYERS = (
    ("setup.import", "import repro.cli / repro.api"),
    ("suites", "suites.registry.all_suites (first call builds)"),
    ("engine", "CampaignEngine.run"),
    ("runner", "run_cell"),
    ("explore", "explore"),
    ("kernel_cache", "CompilationCache.get"),
    ("compilers", "compile_kernel (perf.cost)"),
    ("staticanalysis", "analyze_kernel_cached"),
    ("batch", "evaluate_placements"),
    ("features", "nest_features"),
    ("noise", "noise_multiplier"),
    ("cell_cache.hit", "CellCache.get, hit"),
    ("cell_cache.miss", "CellCache.get, miss"),
    ("cell_cache.put", "CellCache.put"),
    ("journal", "CampaignJournal.start/append/done, merge"),
    ("history", "CampaignHistory.start/append/close"),
    ("results", "record_to_dict, CampaignResult.save"),
    ("pool", "parallel phase in the parent (waits on workers)"),
    ("pool.worker", "chunk inside a worker (wait: pool.wait_s)"),
    ("service.submit", "CampaignScheduler.submit"),
    ("service.registry", "ServiceRegistry.upsert"),
    ("tuner", "run_tune"),
    ("tuner.eval", "Scenario.evaluate"),
    ("tuner_cache.hit", "tuner CellCache.get, hit"),
    ("tuner_cache.miss", "tuner CellCache.get, miss"),
    ("tuner_cache.put", "tuner CellCache.put"),
)
#: Per-layer metric names and units, in BENCHMARK.json order.
PER_LAYER = (
    ("setup.import_s", "s"), ("suites.build_s", "s"), ("suites.kernels", "count"),
    ("compilers.calls", "count"), ("compilers.self_s", "s"),
    ("staticanalysis.calls", "count"), ("staticanalysis.self_s", "s"),
    ("kernel_cache.gets", "count"), ("kernel_cache.memory_hits", "count"),
    ("kernel_cache.disk_hits", "count"), ("kernel_cache.compiles", "count"),
    ("kernel_cache.self_s", "s"),
    ("features.calls", "count"), ("features.built", "count"), ("features.self_s", "s"),
    ("batch.calls", "count"), ("batch.placements", "count"), ("batch.self_s", "s"),
    ("noise.draws", "count"), ("noise.self_s", "s"),
    ("runner.cells", "count"), ("runner.retries", "count"), ("runner.self_s", "s"),
    ("explore.self_s", "s"),
    ("cell_cache.gets", "count"), ("cell_cache.hit_ratio", "ratio"),
    ("cell_cache.get_s", "s"), ("cell_cache.puts", "count"), ("cell_cache.put_s", "s"),
    ("journal.appends", "count"), ("journal.self_s", "s"),
    ("history.appends", "count"), ("history.self_s", "s"),
    ("results.serializations", "count"), ("results.self_s", "s"),
    ("pool.starts", "count"), ("pool.tasks", "count"), ("pool.payload_bytes", "bytes"),
    ("pool.worker_busy_s", "s"), ("pool.wait_s", "s"),
    ("engine.self_s", "s"),
    ("service.requests", "count"), ("service.http_s.p50", "s"),
    ("service.submit_s", "s"), ("service.cells_executed", "count"),
    ("service.dedupe_ratio", "ratio"), ("service.registry_writes", "count"),
    ("service.registry_s", "s"),
    ("tuner.searches", "count"), ("tuner.evaluations", "count"),
    ("tuner.cache_hit_ratio", "ratio"), ("tuner.eval_s", "s"), ("tuner.self_s", "s"),
    ("trace.wall_s", "s"), ("trace.unattributed_s", "s"), ("trace.overhead_s", "s"),
    ("loadgen.late_s.max", "s"),
    ("inversion.hit_s_per_cell", "s"), ("inversion.recompute_s_per_cell", "s"),
    ("inversion.hit_over_recompute", "ratio"),
    ("inversion.pool_wait_share.small", "ratio"),
    ("inversion.pool_wait_share.full", "ratio"),
)


class LayerStats:
    def __init__(self) -> None:
        self.count = 0
        self.total_s = 0.0
        self.self_main = 0.0
        self.self_workers = 0.0

    @property
    def self_s(self) -> float:
        return self.self_main + self.self_workers


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Trace:
    """The spans of one traced pass, cut to its timed window."""

    def __init__(self, procs: list[dict], window: "tuple[float, float] | None") -> None:
        self.window = window
        self.layers: dict[str, LayerStats] = defaultdict(LayerStats)
        self.events: dict[str, float] = defaultdict(float)
        self.worker_spans: list[tuple] = []
        self.phases: list[tuple] = []
        setup_spans: dict[str, list[float]] = defaultdict(list)
        for proc in procs:
            main = proc["role"] == "main"
            first_suites = None
            for layer, start, duration, self_s in proc["spans"]:
                if layer == "setup.import":
                    setup_spans[layer].append(duration)
                elif layer == "suites" and first_suites is None:
                    first_suites = duration
                if not self._inside(start):
                    continue
                stats = self.layers[layer]
                stats.count += 1
                stats.total_s += duration
                if main:
                    stats.self_main += self_s
                else:
                    stats.self_workers += self_s
                if layer in ("pool.worker", "runner") and not main:
                    self.worker_spans.append((layer, start, duration))
            if first_suites is not None:
                setup_spans["suites"].append(first_suites)
            for name, t, value in proc["events"]:
                if name.startswith("suites.") or self._inside(t):
                    self.events[name] = (max(self.events[name], value)
                                         if name == "suites.kernels"
                                         else self.events[name] + value)
            if main:
                self.phases.extend(p for p in proc["phases"] if self._inside(p[0]))
        self.setup = setup_spans

    def _inside(self, t: float) -> bool:
        return self.window is None or self.window[0] <= t <= self.window[1]

    def busy_between(self, start: float, end: float) -> float:
        return sum(d for layer, s, d in self.worker_spans
                   if layer == "pool.worker" and start <= s <= end)

    def phase_wait(self, start: float, end: float) -> float:
        """Parallel-phase wall minus worker busy time over workers."""
        wall = sum(e - s for s, e, _w in self.phases if start <= s <= end)
        return wall - self.busy_between(start, end) / WORKERS if wall else 0.0

    def pool_wait(self) -> float:
        """``pool.wait_s`` of the whole window.  A long-lived pool (the
        service's, built before the window) has no phase of its own: its
        phase is the window."""
        if self.window is not None and not self.phases:
            busy = self.busy_between(*self.window)
            return (self.window[1] - self.window[0]) - busy / WORKERS if busy else 0.0
        return self.phase_wait(float("-inf"), float("inf"))

    def metrics(self, *, wall_s: float, untraced_wall_s: float,
                extra: "dict | None" = None) -> dict[str, float]:
        L, E = self.layers, self.events
        cc_hits, cc_miss = L["cell_cache.hit"], L["cell_cache.miss"]
        gets = cc_hits.count + cc_miss.count
        worker_runner = [d for layer, _s, d in self.worker_spans if layer == "runner"]
        main_self = sum(s.self_main for s in L.values())
        evaluated = E["tuner.evaluations"] + E["tuner.from_cache"]
        out = {
            "setup.import_s": median(self.setup["setup.import"]),
            "suites.build_s": median(self.setup["suites"]),
            "suites.kernels": E["suites.kernels"],
            "compilers.calls": L["compilers"].count,
            "compilers.self_s": L["compilers"].self_s,
            "staticanalysis.calls": L["staticanalysis"].count,
            "staticanalysis.self_s": L["staticanalysis"].self_s,
            "kernel_cache.gets": L["kernel_cache"].count,
            "kernel_cache.memory_hits": E["kernel_cache.memory_hits"],
            "kernel_cache.disk_hits": E["kernel_cache.disk_hits"],
            "kernel_cache.compiles": E["kernel_cache.compiles"],
            "kernel_cache.self_s": L["kernel_cache"].self_s,
            "features.calls": L["features"].count,
            "features.built": E["features.built"],
            "features.self_s": L["features"].self_s,
            "batch.calls": L["batch"].count,
            "batch.placements": E["batch.placements"],
            "batch.self_s": L["batch"].self_s,
            "noise.draws": L["noise"].count,
            "noise.self_s": L["noise"].self_s,
            "runner.cells": L["runner"].count,
            "runner.retries": E["runner.retries"],
            "runner.self_s": L["runner"].self_s,
            "explore.self_s": L["explore"].self_s,
            "cell_cache.gets": gets,
            "cell_cache.hit_ratio": _ratio(cc_hits.count, gets),
            "cell_cache.get_s": cc_hits.total_s + cc_miss.total_s,
            "cell_cache.puts": L["cell_cache.put"].count,
            "cell_cache.put_s": L["cell_cache.put"].total_s,
            "journal.appends": E["journal.appends"],
            "journal.self_s": L["journal"].self_s,
            "history.appends": E["history.appends"],
            "history.self_s": L["history"].self_s,
            "results.serializations": L["results"].count,
            "results.self_s": L["results"].self_s,
            "pool.starts": E["pool.starts"],
            "pool.tasks": E["pool.tasks"],
            "pool.payload_bytes": E["pool.payload_bytes"],
            "pool.worker_busy_s": self.busy_between(float("-inf"), float("inf")),
            "pool.wait_s": self.pool_wait(),
            "engine.self_s": L["engine"].self_s,
            "service.submit_s": L["service.submit"].total_s,
            "service.registry_writes": L["service.registry"].count,
            "service.registry_s": L["service.registry"].total_s,
            "tuner.searches": L["tuner"].count,
            "tuner.evaluations": E["tuner.evaluations"],
            "tuner.cache_hit_ratio": _ratio(E["tuner.from_cache"], evaluated),
            "tuner.eval_s": L["tuner.eval"].total_s,
            "tuner.self_s": L["tuner"].self_s,
            "trace.wall_s": wall_s,
            "trace.unattributed_s": wall_s - main_self,
            "trace.overhead_s": wall_s - untraced_wall_s,
            "inversion.hit_s_per_cell": _ratio(cc_hits.total_s, cc_hits.count),
            "inversion.recompute_s_per_cell": _ratio(sum(worker_runner), len(worker_runner)),
        }
        out["inversion.hit_over_recompute"] = _ratio(
            out["inversion.hit_s_per_cell"], out["inversion.recompute_s_per_cell"])
        out.update(extra or {})
        return {name: float(out.get(name, 0.0)) for name, _unit in PER_LAYER}

    def table(self, wall_s: float) -> list[str]:
        """The per-layer table: count, self time (main process and
        workers), the pool's wait, and each layer's share of the wall."""
        rows = [f"{'layer':18s} {'count':>8s} {'self main s':>12s} "
                f"{'self workers s':>15s} {'wait s':>9s} {'main/wall':>9s}  calls timed"]
        for layer, what in LAYERS:
            s = self.layers.get(layer)
            if s is None or not s.count:
                continue
            wait = self.pool_wait() if layer == "pool.worker" else None
            rows.append(
                f"{layer:18s} {s.count:8d} {s.self_main:12.4f} {s.self_workers:15.4f} "
                f"{'' if wait is None else format(wait, '9.4f'):>9s} "
                f"{_ratio(s.self_main, wall_s):9.3f}  {what}")
        return rows
