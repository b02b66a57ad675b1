"""Tests for the parallel campaign engine: cache keys, persistent
caching, the journal, reruns after a kill, and parallel-vs-serial
equivalence."""

import dataclasses
import json
import os
import pickle
import subprocess
import sys

import pytest

from repro.compilers.flags import GNU_FLAGS
from repro.errors import HarnessError
from repro import telemetry
from repro.caching import SEGMENT_GLOB
from repro.harness.engine import (
    CampaignEngine,
    CampaignEvent,
    CampaignJournal,
    CellCache,
    CellTask,
    EventKind,
    _run_chunk,
    benchmark_fingerprint,
    cell_cache_key,
)
from repro.harness.results import CampaignResult, RunRecord, record_to_dict
from repro.telemetry import SPAN_CELL, Telemetry
from repro.ir import KernelBuilder, Language, read, update
from repro.perf.cost import kernel_fingerprint
from repro.suites import get_benchmark, get_suite, micro_suite, top500_suite


def _gemm(n: int = 64, name: str = "gemm_fp"):
    b = KernelBuilder(name, Language.C)
    b.array("A", (n, n))
    b.array("B", (n, n))
    b.array("C", (n, n))
    b.nest(
        loops=[("i", n), ("j", n), ("k", n)],
        body=[
            b.stmt(
                update("C", "i", "j"),
                read("A", "i", "k"),
                read("B", "k", "j"),
                fma=1,
                reduction="k",
            )
        ],
    )
    return b.build()


class TestCacheKeys:
    def test_kernel_fingerprint_stable_across_builds(self):
        # Two independently-built identical kernels hash identically
        # (the property that makes the on-disk cache survive restarts).
        assert kernel_fingerprint(_gemm()) == kernel_fingerprint(_gemm())

    def test_kernel_fingerprint_sensitive_to_content(self):
        assert kernel_fingerprint(_gemm(64)) != kernel_fingerprint(_gemm(65))

    def test_benchmark_fingerprint_stable(self):
        b1 = micro_suite().benchmarks[0]
        b2 = micro_suite().benchmarks[0]
        assert benchmark_fingerprint(b1) == benchmark_fingerprint(b2)

    def test_cell_key_varies_variant_flags_runs(self, a64fx_machine):
        b = micro_suite().benchmarks[0]
        base = cell_cache_key(b, "GNU", a64fx_machine, None, 10)
        assert base == cell_cache_key(b, "GNU", a64fx_machine, None, 10)
        assert base != cell_cache_key(b, "LLVM", a64fx_machine, None, 10)
        assert base != cell_cache_key(b, "GNU", a64fx_machine, GNU_FLAGS, 10)
        assert base != cell_cache_key(b, "GNU", a64fx_machine, None, 3)

    def test_fingerprints_stable_across_interpreter_invocations(self):
        # Regression: Kernel.features is a frozenset, which iterates in
        # hash order — per-process under hash randomization.  A
        # repr-derived fingerprint therefore changed between interpreter
        # runs, breaking cross-process cache hits.  Pin stability by
        # recomputing under two different hash seeds.
        prog = (
            "from repro.harness.engine import CampaignEngine, cell_cache_key\n"
            "e = CampaignEngine()\n"
            "t = e.cells()[0]\n"
            "print(e.campaign_fingerprint())\n"
            "print(cell_cache_key(t.benchmark, t.variant, e.machine, e.flags, e.runs))\n"
        )
        outs = set()
        for seed in ("0", "1", "20210907"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.pathsep.join(sys.path)
            proc = subprocess.run(
                [sys.executable, "-c", prog],
                capture_output=True, text=True, env=env, check=True,
            )
            outs.add(proc.stdout)
        assert len(outs) == 1, f"fingerprints vary with hash seed: {outs}"


class TestEngineSerial:
    def test_invalid_workers(self):
        with pytest.raises(HarnessError):
            CampaignEngine(workers=0)

    def test_event_stream_shape(self, a64fx_machine):
        engine = CampaignEngine(
            a64fx_machine, variants=("GNU",), benchmarks=micro_suite().benchmarks[:3]
        )
        events = []
        engine.run(emit=events.append)
        kinds = [e.kind for e in events]
        assert kinds[0] is EventKind.CAMPAIGN_STARTED
        assert kinds[-1] is EventKind.CAMPAIGN_FINISHED
        assert kinds.count(EventKind.CELL_STARTED) == 3
        finished = [
            e for e in events
            if e.kind in (EventKind.CELL_FINISHED, EventKind.CELL_FAILED)
        ]
        assert len(finished) == 3  # k03 is a GNU runtime-fault cell
        assert all(e.record is not None for e in finished)
        assert finished[-1].completed == 3 and finished[-1].total == 3
        # ETA is populated once at least one cell completed.
        assert any(e.eta_s is not None for e in events)

    def test_failure_cells_emit_cell_failed(self, a64fx_machine):
        # micro.k22 is a compile-error cell under FJclang (Figure 2).
        engine = CampaignEngine(
            a64fx_machine, variants=("FJclang",),
            benchmarks=(micro_suite().get("k22"),),
        )
        events = []
        result = engine.run(emit=events.append)
        assert any(e.kind is EventKind.CELL_FAILED for e in events)
        assert not result.get("micro.k22", "FJclang").valid


class TestCellCacheAndWarmRuns:
    def test_warm_cache_zero_reevaluations(self, a64fx_machine, tmp_path, monkeypatch):
        benches = top500_suite().benchmarks
        cold = CampaignEngine(
            a64fx_machine, benchmarks=benches, cache_dir=tmp_path
        ).run()
        assert cold.meta["cache_hits"] == 0
        assert cold.meta["executed"] == len(cold.records)
        # The warm run must never reach the model: make measure_benchmark
        # explode if it does.
        def boom(*a, **k):
            raise AssertionError("model re-evaluated on a warm cache")

        monkeypatch.setattr("repro.harness.runner.measure_benchmark", boom)
        warm = CampaignEngine(
            a64fx_machine, benchmarks=benches, cache_dir=tmp_path
        ).run()
        assert warm.meta["cache_hits"] == len(warm.records)
        assert warm.meta["executed"] == 0
        assert warm.records == cold.records

    def test_flag_change_invalidates_cells(self, a64fx_machine, tmp_path):
        benches = micro_suite().benchmarks[:2]
        CampaignEngine(
            a64fx_machine, variants=("GNU",), benchmarks=benches, cache_dir=tmp_path
        ).run()
        ablation = CampaignEngine(
            a64fx_machine, variants=("GNU",), benchmarks=benches,
            flags=GNU_FLAGS.with_(fast_math=True), cache_dir=tmp_path,
        ).run()
        assert ablation.meta["cache_hits"] == 0  # different content key

    def test_cell_cache_unreadable_entry_ignored(self, tmp_path):
        cache = CellCache(tmp_path)
        rec = RunRecord("s.b", "s", "GNU", 1, 1, (1.0,))
        cache.put("k1", rec)
        assert cache.get("k1") == rec
        cache.store.put("k2", "{broken")
        assert cache.get("k2") is None
        assert cache.get("missing") is None


class _StopRun(Exception):
    pass


#: Pool workers forked while this holds a ``multiprocessing.Event``
#: wait on it before each chunk (see :func:`_gated_run_chunk`).
_CHUNK_GATE = None


def _gated_run_chunk(chunk):
    # The timeout only keeps a broken test from hanging the suite.
    _CHUNK_GATE.wait(60)
    return _run_chunk(chunk)


class TestJournalResume:
    def _engine(self, machine, tmp_path, **kw):
        return CampaignEngine(
            machine,
            variants=("FJtrad", "GNU"),
            benchmarks=top500_suite().benchmarks + micro_suite().benchmarks[:5],
            cache_dir=tmp_path,
            **kw,
        )

    def test_resume_after_kill_replays_journal(self, a64fx_machine, tmp_path, monkeypatch):
        # Kill the campaign after 6 completed cells...
        count = [0]

        def killer(event):
            if event.kind in (EventKind.CELL_FINISHED, EventKind.CELL_FAILED):
                count[0] += 1
                if count[0] >= 6:
                    raise _StopRun()

        with pytest.raises(_StopRun):
            self._engine(a64fx_machine, tmp_path).run(emit=killer)
        # ...and rerun: the 6 finished cells come from cells/, not from
        # a second execution.
        calls = []
        import repro.harness.runner as runner_mod

        real = runner_mod.measure_benchmark

        def counting(*args, **kwargs):
            calls.append(args[0].full_name)
            return real(*args, **kwargs)

        monkeypatch.setattr("repro.harness.runner.measure_benchmark", counting)
        resumed = self._engine(a64fx_machine, tmp_path).run()
        assert resumed.meta["cache_hits"] == 6
        total = len(resumed.records)
        assert resumed.meta["executed"] == total - 6
        assert len(calls) == total - 6
        # The final result is identical to an uninterrupted run.
        fresh = CampaignEngine(
            a64fx_machine,
            variants=("FJtrad", "GNU"),
            benchmarks=top500_suite().benchmarks + micro_suite().benchmarks[:5],
        ).run()
        assert resumed.records == fresh.records

    def test_resuming_a_finished_campaign_appends_nothing(
        self, a64fx_machine, tmp_path
    ):
        def engine(**kw):
            return CampaignEngine(
                a64fx_machine, variants=("GNU",),
                benchmarks=micro_suite().benchmarks[:1],
                cache_dir=tmp_path, **kw,
            )

        first = engine().run()
        journal = tmp_path / "journal.jsonl"
        finished = journal.read_bytes()
        again = engine().run()
        assert again.meta["cache_hits"] == 1
        assert again.records == first.records
        assert journal.read_bytes() == finished

    def test_resume_rejects_foreign_journal(self, a64fx_machine, tmp_path):
        # Another campaign's run replaces the journal; the two are
        # never mixed.
        self._engine(a64fx_machine, tmp_path).run()
        other = CampaignEngine(
            a64fx_machine, variants=("LLVM",),
            benchmarks=micro_suite().benchmarks[:1],
            cache_dir=tmp_path,
        )
        result = other.run()
        header, records, finished = CampaignJournal(
            tmp_path / "journal.jsonl").load()
        assert header["fingerprint"] == other.campaign_fingerprint()
        assert records == list(result.records.values()) and finished

    def test_truncated_trailing_line_tolerated(self, tmp_path):
        journal = CampaignJournal(tmp_path / "journal.jsonl")
        journal.start("fp", "A64FX", [("s.b", "GNU")])
        journal.append(RunRecord("s.b", "s", "GNU", 1, 1, (1.0,)))
        journal.close()
        with open(journal.path, "a") as fh:
            fh.write('{"kind": "cell", "record": {"benchm')  # killed mid-write
        loaded = CampaignJournal(journal.path).load()
        assert loaded is not None
        header, records, finished = loaded
        assert header["fingerprint"] == "fp"
        assert len(records) == 1 and not finished

    def test_no_journal_means_fresh_run(self, a64fx_machine, tmp_path):
        engine = CampaignEngine(
            a64fx_machine, variants=("GNU",),
            benchmarks=micro_suite().benchmarks[:2],
            cache_dir=tmp_path,
        )
        result = engine.run()
        assert result.meta["cache_hits"] == 0
        assert result.meta["executed"] == 2
        assert "resumed" not in result.meta
        assert len(result.records) == 2


class TestParallelEquivalence:
    """The acceptance check: workers=N matches workers=1 exactly."""

    def test_workers4_equals_workers1_two_suites(self, a64fx_machine):
        benches = [b for s in (get_suite("top500"), get_suite("micro")) for b in s.benchmarks]
        serial = CampaignEngine(
            a64fx_machine, benchmarks=benches, workers=1
        ).run()
        parallel = CampaignEngine(
            a64fx_machine, benchmarks=benches, workers=4
        ).run()
        assert parallel.records == serial.records
        assert parallel.machine == serial.machine
        assert list(parallel.records) == list(serial.records)  # canonical order

    def test_parallel_with_persistent_cache(self, a64fx_machine, tmp_path):
        benches = micro_suite().benchmarks[:6]
        parallel = CampaignEngine(
            a64fx_machine, variants=("GNU", "LLVM"), benchmarks=benches,
            workers=3, cache_dir=tmp_path,
        ).run()
        # No compiled-kernel store; every record packed into one segment.
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "cells", "history.jsonl", "journal.jsonl"]
        (segment,) = (tmp_path / "cells").glob(SEGMENT_GLOB)
        assert len(segment.read_text().splitlines()) == len(parallel.records)
        serial = CampaignEngine(
            a64fx_machine, variants=("GNU", "LLVM"), benchmarks=benches, workers=1
        ).run()
        assert parallel.records == serial.records


def _running(pid: int) -> bool:
    """Is ``pid`` a live (not zombie) process?"""
    try:
        stat = open(f"/proc/{pid}/stat").read()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


class TestWorkerPoolScope:
    """The engine's pool lives for the process."""

    def test_runs_share_one_pool(self, a64fx_machine, monkeypatch, fresh_engine_pool):
        import repro.harness.engine as engine_mod

        real = engine_mod.ProcessPoolExecutor
        starts = []

        class CountingPool(real):
            def __init__(self, *args, **kwargs):
                starts.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(engine_mod, "ProcessPoolExecutor", CountingPool)
        kw = dict(variants=("GNU", "FJtrad"), benchmarks=micro_suite().benchmarks[:6])
        for _ in range(2):
            CampaignEngine(a64fx_machine, workers=2, **kw).run()
        assert len(starts) == 1
        CampaignEngine(a64fx_machine, workers=3, **kw).run()
        assert len(starts) == 2  # another count replaces it

    def test_escaping_exception_cancels_the_runs_queued_chunks(
        self, a64fx_machine, monkeypatch, fresh_engine_pool
    ):
        import multiprocessing

        import repro.harness.engine as engine_mod

        # The workers wait at a closed gate, so no chunk finishes while
        # the run submits: the two workers hold one chunk each and the
        # executor's call queue three more, so from the sixth submitted
        # chunk on every chunk is still queued, whatever the timing.
        gate = multiprocessing.Event()
        monkeypatch.setattr(sys.modules[__name__], "_CHUNK_GATE", gate)
        monkeypatch.setattr(engine_mod, "_run_chunk", _gated_run_chunk)
        submitted = []
        real_submit = engine_mod.WorkerPool.submit

        def recording_submit(self, chunk):
            submitted.append(real_submit(self, chunk))
            return submitted[-1]

        monkeypatch.setattr(engine_mod.WorkerPool, "submit", recording_submit)

        def stop(event):
            # 30 cells make 8 chunks: this is the last chunk's first cell.
            if event.kind is EventKind.CELL_STARTED and len(submitted) == 7:
                raise _StopRun("stopped before the last chunk was submitted")

        kw = dict(suites=(get_suite("polybench"),), variants=("GNU",))
        try:
            with pytest.raises(_StopRun):
                CampaignEngine(a64fx_machine, workers=2, **kw).run(emit=stop)
        finally:
            gate.set()
        assert any(future.cancelled() for future in submitted)
        # The pool outlives the failed run and serves the next one.
        again = CampaignEngine(a64fx_machine, workers=2, **kw).run()
        assert again.records == CampaignEngine(a64fx_machine, **kw).run().records

    def test_exited_process_leaves_no_worker(self):
        prog = (
            "import json, multiprocessing\n"
            "from repro.harness.engine import CampaignEngine\n"
            "from repro.suites import micro_suite\n"
            "CampaignEngine(benchmarks=micro_suite().benchmarks[:6],\n"
            "               variants=('GNU', 'FJtrad'), workers=2).run()\n"
            "print(json.dumps([p.pid for p in multiprocessing.active_children()]))\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        # A worker left running would hold the pipes open past the timeout.
        proc = subprocess.run([sys.executable, "-c", prog], capture_output=True,
                              text=True, env=env, check=True, timeout=120)
        workers = json.loads(proc.stdout.splitlines()[-1])
        assert len(workers) == 2  # the pool outlived the run ...
        assert [pid for pid in workers if _running(pid)] == []  # ... not the process


class TestCellsByName:
    """A registry benchmark crosses the pool boundary as its name."""

    def test_registry_task_pickles_as_its_name(self):
        bench = get_benchmark("polybench.3mm")
        payload = pickle.dumps(CellTask(7, bench, "GNU"))
        assert len(payload) < 200
        task = pickle.loads(payload)
        assert task.benchmark is bench
        assert (task.index, task.variant) == (7, "GNU")

    def test_other_benchmarks_travel_by_value(self):
        registry = get_benchmark("micro.k01")
        for bench in (
            dataclasses.replace(registry),  # same name, not the registry's object
            dataclasses.replace(registry, suite="scratch"),  # unknown suite
        ):
            task = pickle.loads(pickle.dumps(CellTask(0, bench, "GNU")))
            assert task.benchmark == bench
            assert task.benchmark is not registry


class TestWarmWorkers:
    """Forked workers run the registry's own kernels, so they find the
    compiles their parent memoized."""

    def test_parallel_run_after_a_serial_one_compiles_nothing(
        self, a64fx_machine, fresh_engine_pool
    ):
        kw = dict(suites=(get_suite("micro"),), variants=("GNU",))
        serial = CampaignEngine(a64fx_machine, **kw).run()
        tel = Telemetry()
        parallel = CampaignEngine(a64fx_machine, workers=2, telemetry=tel, **kw).run()
        assert parallel.records == serial.records
        assert parallel.meta["executed"] == len(parallel.records)
        assert tel.metrics.counter_value("compile.memo_hit") > 0
        assert tel.metrics.counter_value("compile.count") == 0


class TestParallelStartMethods:
    """``workers=2`` under the start methods that do not fork.

    Such a worker imports only what unpickling ``_run_chunk`` pulls in,
    so an import that the worker path misses shows only here.
    """

    SUITES = ("micro", "polybench")
    VARIANTS = ("GNU", "FJtrad")
    PROBE = (
        "import json, multiprocessing, sys\n"
        "from repro.harness.engine import CampaignEngine\n"
        "from repro.harness.results import record_to_dict\n"
        "from repro.suites import get_suite\n"
        "if __name__ == '__main__':\n"
        "    multiprocessing.set_start_method(sys.argv[1])\n"
        "    benches = [b for s in sys.argv[2].split(',') for b in get_suite(s).benchmarks]\n"
        "    result = CampaignEngine(benchmarks=benches, variants=tuple(sys.argv[3].split(',')),\n"
        "                            workers=2).run()\n"
        "    print(json.dumps({'worker_restarts': result.meta['worker_restarts'],\n"
        "                      'records': [record_to_dict(r) for r in result.records.values()]}))\n"
    )

    @pytest.mark.parametrize("method", ["forkserver", "spawn"])
    def test_records_equal_the_serial_run(self, method, a64fx_machine):
        benches = [b for s in self.SUITES for b in get_suite(s).benchmarks]
        serial = CampaignEngine(
            a64fx_machine, benchmarks=benches, variants=self.VARIANTS, workers=1
        ).run()
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.run(
            [sys.executable, "-c", self.PROBE, method, ",".join(self.SUITES),
             ",".join(self.VARIANTS)],
            capture_output=True, text=True, env=env, check=True, timeout=300,
        )
        doc = json.loads(proc.stdout.splitlines()[-1])
        assert doc["worker_restarts"] == 0
        expected = [record_to_dict(r) for r in serial.records.values()]
        assert len(expected) == 104
        assert doc["records"] == json.loads(json.dumps(expected))


class TestEventFormatting:
    """Satellite: CampaignEvent.__str__ stable widths and cache status."""

    def _line(self, **kw):
        defaults = dict(kind=EventKind.CELL_FINISHED, benchmark="micro.k01",
                        variant="GNU", completed=3, total=44, elapsed_s=1.5)
        defaults.update(kw)
        return str(CampaignEvent(**defaults))

    def test_prefix_width_is_stable(self):
        short = self._line(completed=3, elapsed_s=1.5)
        long = self._line(completed=1234, total=9999, elapsed_s=12345.67)
        cut = len("[9999/9999] 12345.67s ")
        assert len(short[:cut]) == len(long[:cut]) == cut
        # Kind column is padded so the cell name starts at a fixed offset.
        assert short[:cut].endswith("s ")
        assert short[cut:].startswith("cell-finished")
        assert long[cut:].startswith("cell-finished")
        assert short.index("micro.k01") == long.index("micro.k01")

    def test_cache_hit_marks_cached(self):
        line = self._line(kind=EventKind.CACHE_HIT, from_cache=True)
        assert "[cached]" in line
        assert "[cached]" not in self._line()

    def test_eta_and_message_render(self):
        line = self._line(eta_s=12.3, message="runtime error")
        assert "eta=   12.3s" in line
        assert line.endswith("runtime error")


class TestCellCacheCorruption:
    """Satellite: corrupt cache entries become misses, not crashes."""

    def _put(self, tmp_path):
        cache = CellCache(tmp_path)
        cache.put("good", RunRecord("s.b", "s", "GNU", 1, 1, (1.0,)))
        return cache

    def test_truncated_json_deleted_and_counted(self, tmp_path):
        self._put(tmp_path).store.put("trunc", '{"key": "trunc", "record": {"ben')
        cache = CellCache(tmp_path)
        tel = Telemetry()
        with telemetry.active(tel):
            assert cache.get("trunc") is None
            assert cache.get("trunc") is None  # dropped: a plain miss now
        assert tel.metrics.counter_value("cell_cache.corrupt") == 1
        assert tel.metrics.counter_value("cell_cache.miss") == 2
        assert cache.get("good") is not None

    def test_valid_json_missing_runs_is_corrupt(self, tmp_path):
        self._put(tmp_path).store.put(
            "norun", json.dumps({"key": "norun", "record": {"benchmark": "s.b"}})
        )
        cache = CellCache(tmp_path)
        tel = Telemetry()
        with telemetry.active(tel):
            assert cache.get("norun") is None
            assert cache.get("norun") is None
        assert tel.metrics.counter_value("cell_cache.corrupt") == 1

    def test_hit_miss_put_counters(self, tmp_path):
        tel = Telemetry()
        with telemetry.active(tel):
            cache = self._put(tmp_path)
            assert cache.get("good") is not None
            assert cache.get("absent") is None
        assert tel.metrics.counter_value("cell_cache.put") == 1
        assert tel.metrics.counter_value("cell_cache.hit") == 1
        assert tel.metrics.counter_value("cell_cache.miss") == 1
        assert tel.metrics.counter_value("cell_cache.corrupt") == 0

    def test_corruption_survives_into_campaign(self, a64fx_machine, tmp_path):
        benches = micro_suite().benchmarks[:2]
        args = dict(variants=("GNU",), benchmarks=benches, cache_dir=tmp_path)
        CampaignEngine(a64fx_machine, **args).run()
        (segment,) = (tmp_path / "cells").glob(SEGMENT_GLOB)
        entries = segment.read_text().splitlines()
        assert len(entries) == 2
        key = entries[0].split("\t")[0]
        entries[0] = key + "\t{broken"  # disk rot on one entry
        segment.write_text("\n".join(entries) + "\n")
        rerun = CampaignEngine(a64fx_machine, **args).run()
        assert rerun.meta["cache_hits"] == 1
        assert rerun.meta["executed"] == 1  # re-ran only the corrupt cell
        assert len(rerun.records) == 2


class TestJournalReplayEvents:
    """A rerun announces the cells ``cells/`` answers as the documented
    event sequence."""

    def test_resumed_cells_emit_cache_hits_in_canonical_order(
        self, a64fx_machine, tmp_path, monkeypatch
    ):
        benches = micro_suite().benchmarks[:3]
        args = dict(variants=("GNU", "LLVM"), benchmarks=benches,
                    cache_dir=tmp_path)
        first = CampaignEngine(a64fx_machine, **args).run()
        # The journal is a log the engine never reads: without it the
        # rerun is answered from cells/ all the same.
        (tmp_path / "journal.jsonl").unlink()

        events = []
        resumed = CampaignEngine(a64fx_machine, **args).run(
            emit=events.append
        )
        assert resumed.records == first.records

        kinds = [e.kind for e in events]
        n = len(first.records)
        assert kinds[0] == EventKind.CAMPAIGN_STARTED
        assert kinds[1:1 + n] == [EventKind.CACHE_HIT] * n
        assert kinds[-1] == EventKind.CAMPAIGN_FINISHED
        replayed = events[1:1 + n]
        assert all(e.from_cache for e in replayed)
        # Hits follow the canonical (benchmark-major) cell order and
        # keep the completed counter monotone.
        assert [(e.benchmark, e.variant) for e in replayed] == list(first.records)
        assert [e.completed for e in replayed] == list(range(1, n + 1))
        assert all(e.total == n for e in events)

    def test_fresh_run_emits_no_replay_events(self, a64fx_machine, tmp_path):
        events = []
        CampaignEngine(
            a64fx_machine, variants=("GNU",),
            benchmarks=micro_suite().benchmarks[:1],
            cache_dir=tmp_path,
        ).run(emit=events.append)
        assert not any(e.kind is EventKind.CACHE_HIT or e.from_cache
                       for e in events)


class TestTelemetryMergeAcrossWorkers:
    """Satellite: workers=4 and workers=1 agree on every deterministic
    metric total; only timings may differ."""

    _DETERMINISTIC = (
        "engine.cells_executed",
        "runner.cells",
        "runner.perf_runs",
        "runner.failed_cells",
    )

    def _run(self, machine, workers):
        tel = Telemetry()
        benches = micro_suite().benchmarks[:4]
        result = CampaignEngine(
            machine, variants=("GNU", "LLVM"), benchmarks=benches,
            workers=workers, telemetry=tel,
        ).run()
        return tel, result

    def test_metric_totals_identical(self, a64fx_machine):
        serial_tel, serial = self._run(a64fx_machine, workers=1)
        parallel_tel, parallel = self._run(a64fx_machine, workers=4)
        assert parallel.records == serial.records
        for name in self._DETERMINISTIC:
            assert parallel_tel.metrics.counter_value(name) == \
                serial_tel.metrics.counter_value(name), name
        # Same span population (counts per name), wherever recorded.
        def span_counts(tel):
            counts = {}
            for s in tel.spans:
                counts[s.name] = counts.get(s.name, 0) + 1
            return counts
        assert span_counts(parallel_tel) == span_counts(serial_tel)
        # Histogram sample counts match too (the sampled values differ).
        hist = "engine.cell_s"
        assert parallel_tel.metrics.histograms[hist].count == \
            serial_tel.metrics.histograms[hist].count

    def test_parallel_spans_come_from_worker_processes(self, a64fx_machine):
        tel, _ = self._run(a64fx_machine, workers=4)
        pids = {s.pid for s in tel.spans}
        assert len(pids) > 1  # campaign span + at least one worker pid
        root = next(s for s in tel.spans if s.name == "campaign")
        cells = [s for s in tel.spans if s.name == SPAN_CELL]
        assert cells
        assert all(s.parent_id == root.span_id for s in cells)


class TestTracedRunUsesTheCompileMemo:
    """Telemetry observes the compile memo instead of bypassing it, so a
    traced campaign does the untraced one's work."""

    def test_traced_rerun_compiles_nothing(self, a64fx_machine):
        benches = micro_suite().benchmarks[:3]

        def run(tel=None):
            return CampaignEngine(
                a64fx_machine, variants=("GNU", "LLVM"), benchmarks=benches,
                telemetry=tel,
            ).run()

        untraced = run()
        tel = Telemetry()
        traced = run(tel)
        assert traced.records == untraced.records
        assert tel.metrics.counter_value("compile.count") == 0
        assert tel.metrics.counter_value("compile.memo_hit") > 0
        compiles = [s for s in tel.spans if s.name == "compile"]
        assert compiles
        assert all(s.attrs["cached"] is True for s in compiles)


class TestResultTelemetryBlock:
    """CampaignResult carries (and round-trips) the flight recorder."""

    def test_engine_attaches_block_when_enabled(self, a64fx_machine):
        tel = Telemetry()
        result = CampaignEngine(
            a64fx_machine, variants=("GNU",),
            benchmarks=micro_suite().benchmarks[:2], telemetry=tel,
        ).run()
        assert result.telemetry
        summary = result.telemetry["summary"]
        assert summary["cells_traced"] == 2
        assert 0.0 < summary["parallel_efficiency"] <= 1.0
        counters = result.telemetry["metrics"]["counters"]
        assert counters["engine.cells_executed"] == 2

    def test_disabled_by_default(self, a64fx_machine):
        result = CampaignEngine(
            a64fx_machine, variants=("GNU",),
            benchmarks=micro_suite().benchmarks[:1],
        ).run()
        assert result.telemetry == {}

    def test_round_trip_and_legacy_files(self, tmp_path):
        result = CampaignResult(machine="A64FX")
        result.add(RunRecord("s.b", "s", "GNU", 1, 1, (1.0,)))
        result.telemetry = {"metrics": {"counters": {"x": 1}},
                            "summary": {"wall_s": 2.0}}
        path = tmp_path / "result.json"
        result.save(path)
        loaded = CampaignResult.load(path)
        assert loaded.telemetry == result.telemetry
        # A v2 file without the block (older writer) loads with {}.
        doc = json.loads(path.read_text())
        del doc["telemetry"]
        path.write_text(json.dumps(doc))
        assert CampaignResult.load(path).telemetry == {}
