"""Span recorder installed into a program process by the traced run.

:func:`install` wraps the public calls of each layer at every place a
caller binds them (several modules import these names directly), plus
the class methods of the cache, journal, history, registry, scheduler
and engine objects.  No source file of the program changes, and the
program's own telemetry (``CampaignConfig(telemetry=True)``,
``--trace``) stays off: it bypasses the compile memo and so measures a
different program.

Spans stay in memory — ``(layer, start, duration, self time)`` with a
layer's self time its duration minus the time its child spans cover —
and each process writes them out once, at its end: the main process
from :func:`flush`, each pool worker from a ``multiprocessing``
finalizer that runs as the worker exits.  ``perf_counter`` reads the
system-wide monotonic clock, so spans of different processes share
one time line.
"""

from __future__ import annotations

import functools
import importlib
import marshal
import multiprocessing.util
import os
import pickle
import sys
import threading
from pathlib import Path
from time import perf_counter


class Tracer:
    def __init__(self, out_dir: "str | Path") -> None:
        self.out_dir = Path(out_dir)
        self.main_pid = os.getpid()
        self.enabled = True
        self._reset()

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.spans: list[tuple] = []
        #: Pool phases seen from the creating thread: (start, end, workers).
        self.phases: list[tuple] = []
        #: Counter increments, time-stamped so that a window can be cut
        #: out of a process's life: (name, time, value).
        self.events: list[tuple] = []
        self._local = threading.local()
        self._flushed = False

    def after_fork(self) -> None:
        """In a freshly forked pool worker: start empty span lists and
        write this worker's own when it exits.  The parent's lists are
        kept, not freed: freeing them would write to every shared page
        that holds them and make each fork pay a copy of the parent's
        spans (pool workers leave through ``os._exit``, so they are
        never freed at all)."""
        self._inherited = (self.spans, self.events, self.phases)
        self._reset()
        multiprocessing.util.Finalize(self, self.flush, exitpriority=100)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open_span(self) -> list:
        frame = [0.0, perf_counter()]
        self._stack().append(frame)
        return frame

    def close_span(self, layer: str, frame: list) -> float:
        end = perf_counter()
        stack = self._stack()
        if stack and stack[-1] is frame:
            stack.pop()
        duration = end - frame[1]
        if stack:
            stack[-1][0] += duration
        self.spans.append((layer, frame[1], duration, duration - frame[0]))
        return duration

    def nested(self) -> bool:
        return bool(self._stack())

    def count(self, name: str, value: float = 1.0) -> None:
        self.events.append((name, perf_counter(), value))

    def flush(self) -> None:
        if self._flushed:
            return
        self._flushed = True
        role = "main" if self.pid == self.main_pid else "worker"
        path = self.out_dir / f"spans-{self.pid}.marshal"
        with open(path, "wb") as fh:
            marshal.dump({"pid": self.pid, "role": role, "spans": self.spans,
                          "phases": self.phases, "events": self.events}, fh)


def load_dir(trace_dir: "str | Path") -> list[dict]:
    """Every process's flushed spans under ``trace_dir``."""
    out = []
    for path in sorted(Path(trace_dir).glob("spans-*.marshal")):
        with open(path, "rb") as fh:
            out.append(marshal.load(fh))
    return out


# -- wrappers ------------------------------------------------------------


def _wrap(tracer: Tracer, fn, layer, after=None):
    """A traced stand-in for ``fn``; ``layer`` is a name or a function
    of the call's arguments, ``after(args, kwargs, result)`` counts."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        name = layer if isinstance(layer, str) else layer(args)
        frame = tracer.open_span()
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close_span(name, frame)
        if after is not None:
            after(args, kwargs, result)
        return result

    return traced


def _rebind(original, replacement) -> None:
    """Point every module-level binding of ``original`` in the program
    at ``replacement`` (callers that imported the name directly too)."""
    for module in list(sys.modules.values()):
        name = getattr(module, "__name__", "") or ""
        if not name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _patch_function(tracer, module_name, attr, layer, after=None) -> None:
    module = importlib.import_module(module_name)
    original = getattr(module, attr)
    _rebind(original, _wrap(tracer, original, layer, after))


def _patch_method(tracer, cls, attr, layer, after=None) -> None:
    setattr(cls, attr, _wrap(tracer, getattr(cls, attr), layer, after))


_MODULES = (
    "repro.api", "repro.cli", "repro.compilers.registry", "repro.perf.cost",
    "repro.perf.batch", "repro.perf.noise", "repro.harness.engine",
    "repro.harness.runner", "repro.harness.exploration",
    "repro.harness.journalstore", "repro.harness.results",
    "repro.staticanalysis.driver", "repro.telemetry.history",
    "repro.service.scheduler", "repro.service.registry", "repro.suites",
    "repro.suites.registry", "repro.tuning", "repro.tuning.tuner",
    "repro.tuning.scenario", "repro.tuning.strategies", "repro.tuning.gemm",
)


def install(trace_dir: "str | Path") -> Tracer:
    """Wrap every traced call of the program in this process."""
    import concurrent.futures

    for name in _MODULES:
        importlib.import_module(name)
    tracer = Tracer(trace_dir)
    multiprocessing.util.register_after_fork(tracer, Tracer.after_fork)
    count = tracer.count
    m = sys.modules

    # setup: the suite registry is built by its first call.
    kernels_counted = []

    def suites_built(args, kwargs, suites):
        if not kernels_counted:
            kernels_counted.append(True)
            count("suites.kernels", sum(
                1 for suite in suites for bench in suite.benchmarks
                for unit in bench.units if unit.kernel is not None))

    _patch_function(tracer, "repro.suites.registry", "all_suites", "suites", suites_built)

    # compute layers
    _patch_function(tracer, "repro.perf.cost", "compile_kernel", "compilers")
    _patch_function(tracer, "repro.staticanalysis.driver", "analyze_kernel_cached",
                    "staticanalysis")
    _patch_function(tracer, "repro.perf.batch", "nest_features", "features")
    features_cls = m["repro.perf.batch"].NestFeatures
    built = features_cls.__init__

    @functools.wraps(built)
    def counted_init(self, *args, **kwargs):
        built(self, *args, **kwargs)
        if tracer.enabled:
            count("features.built")

    features_cls.__init__ = counted_init

    def placements(args, kwargs, result):
        count("batch.placements", len(result))

    _patch_function(tracer, "repro.perf.batch", "evaluate_placements", "batch", placements)
    _patch_function(tracer, "repro.perf.noise", "noise_multiplier", "noise")

    cache_cls = m["repro.perf.cost"].CompilationCache
    cache_get = cache_cls.get

    @functools.wraps(cache_get)
    def kernel_cache_get(self, *args, **kwargs):
        if not tracer.enabled:
            return cache_get(self, *args, **kwargs)
        before = (self.memory_hits, self.disk_hits, self.compile_count)
        frame = tracer.open_span()
        try:
            return cache_get(self, *args, **kwargs)
        finally:
            tracer.close_span("kernel_cache", frame)
            count("kernel_cache.memory_hits", self.memory_hits - before[0])
            count("kernel_cache.disk_hits", self.disk_hits - before[1])
            count("kernel_cache.compiles", self.compile_count - before[2])

    cache_cls.get = kernel_cache_get

    # harness
    def retries(args, kwargs, outcome):
        count("runner.retries", len(outcome.retries))

    _patch_function(tracer, "repro.harness.runner", "run_cell", "runner", retries)
    _patch_function(tracer, "repro.harness.exploration", "explore", "explore")

    # The tuner keeps its own CellCache under <cache dir>/tuning.
    def cache_prefix(cache) -> str:
        return "tuner_cache." if "tuning" in cache.root.parts else "cell_cache."

    cell_cache_cls = m["repro.harness.engine"].CellCache
    cell_get = cell_cache_cls.get

    @functools.wraps(cell_get)
    def cell_cache_get(self, *args, **kwargs):
        if not tracer.enabled:
            return cell_get(self, *args, **kwargs)
        frame = tracer.open_span()
        record = None
        try:
            record = cell_get(self, *args, **kwargs)
            return record
        finally:
            outcome = "miss" if record is None else "hit"
            tracer.close_span(cache_prefix(self) + outcome, frame)

    cell_cache_cls.get = cell_cache_get
    _patch_method(tracer, cell_cache_cls, "put", lambda args: cache_prefix(args[0]) + "put")

    journal = m["repro.harness.journalstore"]
    for attr in ("start", "done", "close"):
        _patch_method(tracer, journal.CampaignJournal, attr, "journal")
    _patch_method(tracer, journal.CampaignJournal, "append", "journal",
                  lambda a, k, r: count("journal.appends"))
    _patch_method(tracer, journal.DirectoryJournalStore, "merge", "journal")

    history = m["repro.telemetry.history"].CampaignHistory
    for attr in ("start", "close"):
        _patch_method(tracer, history, attr, "history")
    _patch_method(tracer, history, "append", "history",
                  lambda a, k, r: count("history.appends"))

    _patch_function(tracer, "repro.harness.results", "record_to_dict", "results")
    _patch_method(tracer, m["repro.harness.results"].CampaignResult, "save", "results")

    _patch_method(tracer, m["repro.harness.engine"].CampaignEngine, "run", "engine")

    # pool: construction/submit in the parent, chunks inside workers
    base_pool = concurrent.futures.ProcessPoolExecutor

    class TracedPool(base_pool):
        def __init__(self, max_workers=None, *args, **kwargs):
            count("pool.starts")
            self._perfbench_workers = max_workers or os.cpu_count() or 1
            # A pool built inside a traced call (engine run, tune rung)
            # is a parallel phase of it; the service's long-lived pool
            # is built from the event loop and is not.
            self._perfbench_frame = tracer.open_span() if (
                tracer.enabled and tracer.nested()) else None
            super().__init__(max_workers, *args, **kwargs)

        def submit(self, fn, /, *args, **kwargs):
            if tracer.enabled:
                count("pool.tasks")
                count("pool.payload_bytes", len(pickle.dumps((fn, args, kwargs))))
            return super().submit(fn, *args, **kwargs)

        def shutdown(self, *args, **kwargs):
            try:
                super().shutdown(*args, **kwargs)
            finally:
                frame, self._perfbench_frame = self._perfbench_frame, None
                if frame is not None:
                    start = frame[1]
                    duration = tracer.close_span("pool", frame)
                    tracer.phases.append(
                        (start, start + duration, self._perfbench_workers))

    concurrent.futures.ProcessPoolExecutor = TracedPool
    for module_name in ("repro.harness.engine", "repro.tuning.tuner"):
        setattr(m[module_name], "ProcessPoolExecutor", TracedPool)
    _patch_function(tracer, "repro.harness.engine", "_run_chunk", "pool.worker")
    _patch_function(tracer, "repro.tuning.tuner", "_evaluate_chunk", "pool.worker")

    # service
    _patch_method(tracer, m["repro.service.scheduler"].CampaignScheduler, "submit",
                  "service.submit")
    _patch_method(tracer, m["repro.service.registry"].ServiceRegistry, "upsert",
                  "service.registry")

    # tuning
    def tuned(args, kwargs, result):
        count("tuner.evaluations", result.evaluations)
        count("tuner.from_cache", result.from_cache)

    _patch_function(tracer, "repro.tuning.tuner", "run_tune", "tuner", tuned)
    for module_name, cls in (("repro.tuning.scenario", "PlacementScenario"),
                             ("repro.tuning.gemm", "Int8SdotGemmScenario")):
        _patch_method(tracer, getattr(m[module_name], cls), "evaluate", "tuner.eval")
    return tracer
