"""Tests for the sharded journal store: deterministic shard
assignment, append-only resume safety (the truncate-then-rewrite
data-loss fix), the finished-journal replay rule, cross-shard merge,
failed cache writes, and the serial-vs-sharded equality contract."""

import dataclasses
import json
import shutil

import pytest

from repro.errors import HarnessError
from repro import telemetry
from repro.faults import FaultPlan, FaultRule
from repro.faults.taxonomy import FailureInfo, RetryStep
from repro.caching import ContentStore
from repro.harness.engine import (
    _BENCH_FINGERPRINTS,
    CampaignEngine,
    CellCache,
    EventKind,
    benchmark_fingerprint,
)
from repro.harness.journalstore import (
    CampaignJournal,
    DirectoryJournalStore,
    merge_journals,
    merged_result,
    open_journal,
    shard_cells,
    shard_journal_name,
    shard_of,
    validate_shard,
)
from repro.harness.results import RunRecord, record_from_dict, record_to_dict
from repro.harness.runner import run_cell
from repro.suites import get_benchmark, micro_suite, top500_suite
from repro.telemetry import Telemetry

VARIANTS = ("FJtrad", "GNU")


def _benches(n: int = 4):
    return micro_suite().benchmarks[:n]


def _cells(benches, variants=VARIANTS):
    return [(b.full_name, v) for b in benches for v in variants]


def _record(bench: str, variant: str, t: float = 1.0) -> RunRecord:
    return RunRecord(bench, bench.split(".")[0], variant, 1, 1, (t,))


class TestShardAssignment:
    def test_deterministic_and_repeatable(self):
        cells = _cells(_benches(6))
        first = shard_of(cells, 3)
        assert first == shard_of(cells, 3) == shard_of(list(cells), 3)

    def test_benchmark_major(self):
        # All variants of one benchmark land on the same shard, so a
        # shard's workers keep reusing compiled kernels.
        cells = _cells(_benches(5))
        owners = dict(zip(cells, shard_of(cells, 2)))
        for bench in {b for b, _v in cells}:
            shards = {owners[(b, v)] for b, v in cells if b == bench}
            assert len(shards) == 1

    def test_partition_is_exact(self):
        cells = _cells(_benches(7))
        pieces = [shard_cells(cells, i, 3) for i in (1, 2, 3)]
        merged = [c for piece in pieces for c in piece]
        assert sorted(merged) == sorted(cells)
        assert len(merged) == len(set(merged))  # disjoint

    def test_single_shard_is_everything(self):
        cells = _cells(_benches(3))
        assert shard_cells(cells, 1, 1) == tuple(cells)

    def test_one_based_validation(self):
        assert validate_shard(None) == (1, 1)
        assert validate_shard((2, 4)) == (2, 4)
        with pytest.raises(HarnessError, match="1-based"):
            validate_shard((0, 2))
        with pytest.raises(HarnessError):
            validate_shard((3, 2))
        with pytest.raises(HarnessError):
            validate_shard((1, 0))
        with pytest.raises(HarnessError):
            validate_shard("1/2")

    def test_journal_names(self):
        assert shard_journal_name(1, 1) == "journal.jsonl"  # legacy
        assert shard_journal_name(2, 4) == "journal-2of4.jsonl"
        with pytest.raises(HarnessError):
            shard_journal_name(5, 4)


class TestAppendOnlyJournal:
    """The data-loss fix: an existing journal is never truncated."""

    def test_keep_returns_existing_and_preserves_records(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = CampaignJournal(path)
        journal.start("fp", "A64FX", [("s.a", "GNU"), ("s.b", "GNU")])
        journal.append(_record("s.a", "GNU"))
        journal.close()

        again = CampaignJournal(path)
        existing = again.start("fp", "A64FX", [("s.a", "GNU"), ("s.b", "GNU")],
                               keep=True)
        assert existing == {("s.a", "GNU")}
        # The old record is still on disk before anything is written.
        assert b'"s.a"' in path.read_bytes()
        again.append(_record("s.b", "GNU"))
        again.done()
        header, records, finished = CampaignJournal(path).load()
        assert [(r.benchmark, r.variant) for r in records] == [
            ("s.a", "GNU"), ("s.b", "GNU")]
        assert finished

    def test_resuming_a_finished_journal_writes_no_second_done(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = CampaignJournal(path)
        journal.start("fp", "A64FX", [("s.a", "GNU")])
        journal.append(_record("s.a", "GNU"))
        journal.done()
        finished = path.read_bytes()

        again = CampaignJournal(path)
        again.start("fp", "A64FX", [("s.a", "GNU")], keep=True)
        again.done()
        assert path.read_bytes() == finished
        # A record appended after the old marker earns a new one.
        again = CampaignJournal(path)
        again.start("fp", "A64FX", [("s.a", "GNU")], keep=True)
        again.append(_record("s.b", "GNU"))
        again.done()
        assert path.read_text().splitlines()[-1] == '{"kind": "done"}'
        assert CampaignJournal(path).load()[2]

    def test_record_after_done_is_not_finished(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = CampaignJournal(path)
        journal.start("fp", "A64FX", [("s.a", "GNU")])
        journal.done()
        with open(path, "a") as fh:
            fh.write('{"kind": "cell", "record": %s}\n'
                     % json.dumps(record_to_dict(_record("s.a", "GNU"))))
        assert not CampaignJournal(path).load()[2]

    def test_keep_with_foreign_fingerprint_starts_fresh(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = CampaignJournal(path)
        journal.start("old-fp", "A64FX", [("s.a", "GNU")])
        journal.append(_record("s.a", "GNU"))
        journal.close()
        existing = CampaignJournal(path).start(
            "new-fp", "A64FX", [("s.a", "GNU")], keep=True)
        assert existing == set()
        header, records, _ = CampaignJournal(path).load()
        assert header["fingerprint"] == "new-fp" and records == []

    def test_append_after_truncated_trailing_line(self, tmp_path):
        # A kill mid-write leaves a partial line with no newline; the
        # next append must start a fresh line, not extend the garbage.
        path = tmp_path / "journal.jsonl"
        journal = CampaignJournal(path)
        journal.start("fp", "A64FX", [("s.a", "GNU"), ("s.b", "GNU")])
        journal.append(_record("s.a", "GNU"))
        journal.close()
        with open(path, "a") as fh:
            fh.write('{"kind": "cell", "record": {"benchm')
        again = CampaignJournal(path)
        assert again.start("fp", "A64FX", [], keep=True) == {("s.a", "GNU")}
        again.append(_record("s.b", "GNU"))
        again.close()
        _header, records, _ = CampaignJournal(path).load()
        assert [(r.benchmark, r.variant) for r in records] == [
            ("s.a", "GNU"), ("s.b", "GNU")]

    def test_header_carries_shard_and_cells(self, tmp_path):
        journal = CampaignJournal(tmp_path / "journal-2of3.jsonl")
        journal.start("fp", "A64FX", [("s.a", "GNU"), ("s.b", "GNU")],
                      shard=(2, 3))
        journal.close()
        header, _, _ = CampaignJournal(journal.path).load()
        assert header["shard"] == [2, 3]
        assert header["cells"] == [["s.a", "GNU"], ["s.b", "GNU"]]

    def test_positional_compatibility(self, tmp_path):
        # Pre-shard callers pass (fingerprint, machine, cells)
        # positionally and expect a fresh journal.
        journal = CampaignJournal(tmp_path / "journal.jsonl")
        assert journal.start("fp", "A64FX", [("s.b", "GNU")]) == set()
        journal.close()


class TestMerge:
    def _write_shard(self, root, index, count, cells, records,
                     fingerprint="fp", done=True):
        journal = CampaignJournal(root / shard_journal_name(index, count))
        journal.start(fingerprint, "A64FX", cells, shard=(index, count))
        for record in records:
            journal.append(record)
        if done:
            journal.done()
        else:
            journal.close()
        return journal.path

    def test_merge_two_shards_canonical_order(self, tmp_path):
        cells = [("s.a", "GNU"), ("s.a", "LLVM"), ("s.b", "GNU"), ("s.b", "LLVM")]
        self._write_shard(tmp_path, 1, 2, cells,
                          [_record("s.a", "LLVM"), _record("s.a", "GNU")])
        self._write_shard(tmp_path, 2, 2, cells,
                          [_record("s.b", "GNU"), _record("s.b", "LLVM")])
        merged = DirectoryJournalStore(tmp_path).merge()
        assert merged is not None and merged.complete
        assert list(merged.records) == cells  # canonical, not arrival, order
        assert {cov.label for cov in merged.shards} == {"1/2", "2/2"}

    def test_merge_includes_legacy_journal(self, tmp_path):
        cells = [("s.a", "GNU"), ("s.b", "GNU")]
        self._write_shard(tmp_path, 1, 1, cells, [_record("s.a", "GNU")],
                          done=False)  # legacy journal.jsonl, partial
        self._write_shard(tmp_path, 2, 2, cells, [_record("s.b", "GNU")])
        merged = DirectoryJournalStore(tmp_path).merge()
        assert merged.complete
        assert merged.shards[0].path.endswith("journal.jsonl")  # legacy first

    def test_overlapping_identical_records_dedupe(self, tmp_path):
        cells = [("s.a", "GNU")]
        record = _record("s.a", "GNU")
        self._write_shard(tmp_path, 1, 2, cells, [record])
        self._write_shard(tmp_path, 2, 2, cells, [record])
        merged = DirectoryJournalStore(tmp_path).merge()
        assert len(merged.records) == 1

    def test_conflicting_records_raise(self, tmp_path):
        cells = [("s.a", "GNU")]
        self._write_shard(tmp_path, 1, 2, cells, [_record("s.a", "GNU", 1.0)])
        self._write_shard(tmp_path, 2, 2, cells, [_record("s.a", "GNU", 2.0)])
        with pytest.raises(HarnessError, match="conflicting records"):
            DirectoryJournalStore(tmp_path).merge()

    def test_fingerprint_mismatch_raises(self, tmp_path):
        cells = [("s.a", "GNU")]
        self._write_shard(tmp_path, 1, 2, cells, [], fingerprint="fp-one")
        self._write_shard(tmp_path, 2, 2, cells, [], fingerprint="fp-two")
        with pytest.raises(HarnessError, match="different campaign"):
            DirectoryJournalStore(tmp_path).merge()
        with pytest.raises(HarnessError, match="different campaign"):
            DirectoryJournalStore(tmp_path).merge(expect_fingerprint="fp-two")

    def test_merge_empty_store(self, tmp_path):
        assert DirectoryJournalStore(tmp_path).merge() is None
        assert merge_journals([tmp_path / "nope.jsonl"]) is None

    def test_merged_result_partial(self, tmp_path):
        cells = [("s.a", "GNU"), ("s.b", "GNU")]
        self._write_shard(tmp_path, 1, 2, cells, [_record("s.a", "GNU")])
        merged = DirectoryJournalStore(tmp_path).merge()
        assert not merged.complete and merged.missing == (("s.b", "GNU"),)
        with pytest.raises(HarnessError, match="missing"):
            merged_result(merged)
        partial = merged_result(merged, allow_partial=True)
        assert len(partial.records) == 1
        assert partial.meta["missing"] == 1
        assert partial.meta["merged_from"][0]["shard"] == [1, 2]


class TestOpenJournal:
    def test_resume_replays_only_the_header_cells(self, tmp_path):
        cells = [("s.a", "GNU"), ("s.b", "GNU")]
        journal = CampaignJournal(tmp_path / "journal.jsonl")
        journal.start("fp", "A64FX", cells)
        journal.append(_record("s.a", "GNU"))
        journal.append(_record("s.c", "GNU"))
        journal.close()
        journal, replayed = open_journal(
            DirectoryJournalStore(tmp_path), "fp", "A64FX", cells, resume=True)
        journal.close()
        assert list(replayed) == [("s.a", "GNU")]


class _Boom(Exception):
    pass


class TestShardedEngine:
    def _engine(self, machine, **kw):
        return CampaignEngine(
            machine, variants=VARIANTS,
            benchmarks=top500_suite().benchmarks + micro_suite().benchmarks[:3],
            **kw,
        )

    def test_invalid_shard_rejected(self, a64fx_machine):
        with pytest.raises(HarnessError):
            self._engine(a64fx_machine, shard=(0, 2))
        with pytest.raises(HarnessError):
            self._engine(a64fx_machine, shard=(3, 2))

    def test_serial_vs_sharded_records_identical(self, a64fx_machine, tmp_path):
        baseline = self._engine(a64fx_machine).run()
        for index in (1, 2, 3):
            result = self._engine(
                a64fx_machine, cache_dir=tmp_path, shard=(index, 3)).run()
            assert result.meta["shard"] == [index, 3]
            assert result.meta["campaign_cells"] == len(baseline.records)
            for key, record in result.records.items():
                assert baseline.records[key] == record
        merged = DirectoryJournalStore(tmp_path).merge()
        assert merged.complete
        full = merged_result(merged)
        assert full.records == baseline.records
        assert list(full.records) == list(baseline.records)  # byte order too
        assert (json.loads(full.to_json())["records"]
                == json.loads(baseline.to_json())["records"])

    def test_any_node_resumes_the_whole_sweep(self, a64fx_machine, tmp_path):
        # Shard 1 ran to completion elsewhere; an unsharded resume on
        # this "node" replays it from the merged stream and executes
        # only the remainder.
        self._engine(a64fx_machine, cache_dir=tmp_path, shard=(1, 2)).run()
        shutil.rmtree(tmp_path / "cells")  # only the journals can restore shard 1
        resumed = self._engine(a64fx_machine, cache_dir=tmp_path,
                               resume=True).run()
        baseline = self._engine(a64fx_machine).run()
        assert resumed.records == baseline.records
        shard1 = len(shard_cells(list(baseline.records), 1, 2))
        assert resumed.meta["resumed"] == shard1
        assert resumed.meta["executed"] == len(baseline.records) - shard1

    def test_shard_resumes_its_own_journal(self, a64fx_machine, tmp_path):
        first = self._engine(a64fx_machine, cache_dir=tmp_path,
                             shard=(2, 2)).run()
        shutil.rmtree(tmp_path / "cells")
        again = self._engine(a64fx_machine, cache_dir=tmp_path, shard=(2, 2),
                             resume=True).run()
        assert again.records == first.records
        assert again.meta["executed"] == 0
        assert again.meta["resumed"] == len(first.records)

    def test_kill_between_start_and_replay_loses_nothing(
            self, a64fx_machine, tmp_path, monkeypatch):
        """Regression for the truncate-then-rewrite window: the old
        ``start`` opened the journal with mode "w", so a crash right
        after it lost every checkpointed record."""
        self._engine(a64fx_machine, cache_dir=tmp_path).run()
        path = tmp_path / "journal.jsonl"
        _, records_before, _ = CampaignJournal(path).load()
        assert records_before  # the journal holds the whole campaign

        real_start = CampaignJournal.start

        def crash_right_after_start(self, *args, **kwargs):
            real_start(self, *args, **kwargs)
            raise _Boom("killed between journal open and re-persist")

        monkeypatch.setattr(CampaignJournal, "start", crash_right_after_start)
        with pytest.raises(_Boom):
            self._engine(a64fx_machine, cache_dir=tmp_path, resume=True).run()
        monkeypatch.undo()

        _, records_after, _ = CampaignJournal(path).load()
        assert len(records_after) == len(records_before)  # nothing lost

    def test_fresh_run_still_replaces_journal_atomically(
            self, a64fx_machine, tmp_path):
        # Without --resume a new campaign replaces the journal; the old
        # file stays intact until the new header is durably in place.
        self._engine(a64fx_machine, cache_dir=tmp_path).run()
        result = self._engine(a64fx_machine, cache_dir=tmp_path).run()
        _, records, finished = CampaignJournal(tmp_path / "journal.jsonl").load()
        assert len(records) == len(result.records) and finished

    def test_shard_events_and_counts(self, a64fx_machine, tmp_path):
        events = []
        result = self._engine(
            a64fx_machine, cache_dir=tmp_path, shard=(1, 2)).run(events.append)
        started = [e for e in events if e.kind is EventKind.CAMPAIGN_STARTED]
        assert "shard 1/2" in started[0].message
        assert started[0].total == len(result.records)


def _unwritable(root):
    """Replace the store directory ``root`` with a file, so that no
    segment can be created in it."""
    root.rmdir()
    root.write_text("")


class TestAtomicWriteFailures:
    def test_failed_replace_logged_counted_and_tmp_removed(self, tmp_path, caplog):
        root = tmp_path / "cells"
        store = ContentStore(root, "cell_cache")
        _unwritable(root)
        with caplog.at_level("WARNING", logger="repro.caching"):
            ok = store.put("cell", "{}")
        assert ok is False
        assert any("append" in r.message for r in caplog.records)
        root.unlink()
        root.mkdir()
        assert list(root.iterdir()) == []  # nothing half-written left behind
        assert ContentStore(root, "cell_cache").get("cell", json.loads) is None

    def test_cell_cache_put_counts_write_error(self, tmp_path):
        cache = CellCache(tmp_path / "cells")
        record = _record("s.a", "GNU")
        _unwritable(tmp_path / "cells")
        tel = Telemetry()
        with telemetry.active(tel):
            cache.put("k1", record)
        counters = tel.metrics.snapshot()["counters"]
        assert counters.get("cell_cache.write_error") == 1
        assert "cell_cache.put" not in counters

    def test_successful_put_still_counts_put(self, tmp_path):
        cache = CellCache(tmp_path)
        tel = Telemetry()
        with telemetry.active(tel):
            cache.put("k1", _record("s.a", "GNU"))
        assert tel.metrics.snapshot()["counters"].get("cell_cache.put") == 1
        assert cache.get("k1") is not None


class TestRetryHistory:
    def test_exhausted_budget_surfaces_history(self, a64fx_machine):
        plan = FaultPlan(seed=3, rules=(
            FaultRule(site="run", benchmark="micro.k01", transient=True,
                      first_attempts=None),
        ))
        from repro.faults.plan import FaultInjector, RetryPolicy

        bench = get_benchmark("micro.k01")
        outcome = run_cell(
            bench, "GNU", a64fx_machine,
            injector=FaultInjector(plan),
            retry=RetryPolicy(max_retries=2, backoff_s=0.0, seed=3),
        )
        record = outcome.record
        assert record.failure is not None
        assert record.failure.retries == 2
        history = record.failure.history
        assert len(history) == 2
        assert [step.attempt for step in history] == [0, 1]
        assert all(step.kind == "RuntimeFault" for step in history)

        # Schema-additive round trip through the v2 record form.
        raw = record_to_dict(record)
        assert len(raw["failure"]["history"]) == 2
        assert record_from_dict(json.loads(json.dumps(raw))) == record

    def test_healed_cells_carry_no_history(self, a64fx_machine):
        # The chaos-gate contract: a transiently-faulted cell that heals
        # must be byte-identical to a fault-free run — no failure block.
        plan = FaultPlan(seed=3, rules=(
            FaultRule(site="run", benchmark="micro.k01", transient=True),
        ))
        from repro.faults.plan import FaultInjector, RetryPolicy

        bench = get_benchmark("micro.k01")
        outcome = run_cell(
            bench, "GNU", a64fx_machine,
            injector=FaultInjector(plan),
            retry=RetryPolicy(max_retries=1, backoff_s=0.0, seed=3),
        )
        assert outcome.retries  # the fault did strike
        assert outcome.record.failure is None
        clean = run_cell(bench, "GNU", a64fx_machine)
        assert outcome.record == clean.record

    def test_pre_history_failure_blocks_still_load(self):
        raw = {"kind": "TimeoutFault", "site": "timeout", "attempts": 3,
               "retries": 2, "transient": True, "injected": False,
               "message": "m"}
        info = FailureInfo.from_dict(raw)
        assert info.history == ()
        assert "history" not in info.to_dict()

    def test_retry_step_round_trip(self):
        step = RetryStep(attempt=1, kind="CompileFault", site="compile",
                         message="boom", transient=True, injected=True,
                         delay_s=0.25)
        assert RetryStep.from_dict(step.to_dict()) == step
        info = FailureInfo(kind="CompileFault", site="compile",
                           attempts=2, retries=1, history=(step,))
        assert FailureInfo.from_dict(info.to_dict()) == info


class TestBenchFingerprintMemoBound:
    def test_memo_is_bounded(self, monkeypatch):
        monkeypatch.setattr(_BENCH_FINGERPRINTS, "maxsize", 8)
        base = micro_suite().benchmarks[0]
        _BENCH_FINGERPRINTS.clear()
        ad_hoc = [dataclasses.replace(base, name=f"tmp{i}") for i in range(50)]
        digests = [benchmark_fingerprint(b) for b in ad_hoc]
        assert len(_BENCH_FINGERPRINTS) <= 8
        # Memoization still works for live entries...
        assert benchmark_fingerprint(ad_hoc[-1]) == digests[-1]
        # ...and eviction never changes the (content-addressed) digest.
        assert benchmark_fingerprint(ad_hoc[0]) == digests[0]

    def test_distinct_objects_same_content_same_digest(self):
        base = micro_suite().benchmarks[0]
        clone = dataclasses.replace(base)
        assert benchmark_fingerprint(base) == benchmark_fingerprint(clone)
