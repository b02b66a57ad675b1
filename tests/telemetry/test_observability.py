"""Tests for the campaign observatory: structured logs, metrics
history, Prometheus exposition, and the HTTP endpoint."""

import dataclasses
import json
import urllib.error
import urllib.request

import pytest

from repro import telemetry
from repro.harness.engine import CampaignEngine
from repro.harness.observatory import diagnose
from repro.suites import micro_suite
from repro.telemetry import (
    CampaignHistory,
    HistorySample,
    HistoryStore,
    MetricsRegistry,
    ObservatoryServer,
    StructuredLogger,
    Telemetry,
    history_file_name,
    render_prometheus,
    validate_exposition,
)
from repro.telemetry.history import baseline_throughput
from repro.telemetry.promexport import metric_name


def _sample(t=1.0, completed=1, total=4, **kw):
    defaults = dict(
        t=t, elapsed_s=t, completed=completed, total=total, executed=completed,
        cache_hits=0, failures=0, retried=0,
        throughput_cps=completed / t, eta_s=None, cache_hit_rate=None,
    )
    defaults.update(kw)
    return HistorySample(**defaults)


# -- structured logging ----------------------------------------------------


class TestStructuredLog:
    def test_disabled_by_default(self):
        assert telemetry.active_logger() is None
        telemetry.log_event("nobody.listening", answer=42)  # must not raise

    def test_context_merged_into_records(self):
        logger = StructuredLogger()
        with telemetry.logging_active(logger):
            with telemetry.context(campaign="abc123", shard="1of2"):
                with telemetry.context(cell="micro.k01/GNU"):
                    telemetry.log_event("unit.test", attempt=0)
        (record,) = logger.records
        assert record["event"] == "unit.test"
        assert record["campaign"] == "abc123"
        assert record["shard"] == "1of2"
        assert record["cell"] == "micro.k01/GNU"
        assert record["attempt"] == 0
        assert record["level"] == "info"

    def test_reserved_keys_namespaced_not_clobbered(self):
        logger = StructuredLogger()
        with telemetry.logging_active(logger):
            with telemetry.context(event="ctx-event"):
                telemetry.log_event("real.event", t="field-t")
        (record,) = logger.records
        assert record["event"] == "real.event"
        assert record["ctx.event"] == "ctx-event"
        assert record["field.t"] == "field-t"
        assert isinstance(record["t"], float)

    def test_context_restored_after_scope(self):
        logger = StructuredLogger()
        with telemetry.logging_active(logger):
            with telemetry.context(cell="a/b"):
                pass
            telemetry.log_event("after.scope")
        (record,) = logger.records
        assert "cell" not in record

    def test_jsonl_file_round_trip(self, tmp_path):
        path = tmp_path / "log.jsonl"
        logger = StructuredLogger(path)
        with telemetry.logging_active(logger):
            telemetry.log_event("one", level="warning", n=1)
            telemetry.log_event("two", n=2)
        logger.close()
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert [r["event"] for r in lines] == ["one", "two"]
        assert lines[0]["level"] == "warning"

    def test_merge_writes_through_and_keeps_order(self, tmp_path):
        worker = StructuredLogger()  # buffer-only, like a pool worker
        with telemetry.logging_active(worker):
            with telemetry.context(cell="x/y"):
                telemetry.log_event("worker.event")
        parent = StructuredLogger(tmp_path / "log.jsonl")
        parent.merge(worker.snapshot())
        parent.close()
        (record,) = parent.records
        assert record["event"] == "worker.event"
        assert record["cell"] == "x/y"
        on_disk = [json.loads(l) for l in
                   (tmp_path / "log.jsonl").read_text().splitlines()]
        assert on_disk == list(parent.records)

    def test_record_after_a_torn_line_parses(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text('{"event": "one"}\n{"event": "tw')  # kill mid-write
        logger = StructuredLogger(path)
        with telemetry.logging_active(logger):
            telemetry.log_event("three")
        logger.close()
        last = path.read_text().splitlines()[-1]
        assert json.loads(last)["event"] == "three"

    def test_write_error_counted_not_raised(self, tmp_path):
        tel = Telemetry()
        logger = StructuredLogger(tmp_path)  # a directory: open() fails
        with telemetry.active(tel), telemetry.logging_active(logger):
            telemetry.log_event("doomed")
        assert logger.write_errors == 1
        assert logger.records  # buffered despite the failed write
        assert tel.metrics.counter_value("log.write_error") == 1


class TestLogEquality:
    """Serial and parallel runs must log the same events (PR 2
    invariant, extended to the log stream)."""

    def _run(self, machine, workers):
        logger = StructuredLogger()
        benches = micro_suite().benchmarks[:4]
        with telemetry.logging_active(logger):
            result = CampaignEngine(
                machine, variants=("GNU", "LLVM"), benchmarks=benches,
                workers=workers,
            ).run()
        return logger, result

    @staticmethod
    def _essence(logger):
        # Timestamps, pids, completion order and prose (which embeds
        # the worker count) differ between modes; the logged facts —
        # which event, for which cell, with what correlation ids and
        # status — must not.
        volatile = ("t", "pid", "completed", "message")
        out = []
        for r in logger.records:
            out.append(tuple(sorted(
                (k, str(v)) for k, v in r.items() if k not in volatile
            )))
        return sorted(out)

    def test_serial_and_parallel_log_identical_events(self, a64fx_machine):
        serial_log, serial = self._run(a64fx_machine, workers=1)
        parallel_log, parallel = self._run(a64fx_machine, workers=3)
        assert parallel.records == serial.records
        assert self._essence(parallel_log) == self._essence(serial_log)

    def test_records_carry_correlation_ids(self, a64fx_machine):
        logger, result = self._run(a64fx_machine, workers=3)
        assert logger.records
        campaigns = {r.get("campaign") for r in logger.records}
        assert len(campaigns) == 1 and None not in campaigns
        assert all(r.get("shard") == "1of1" for r in logger.records)
        finished = {(r["benchmark"], r["variant"]) for r in logger.records
                    if r["event"] in ("engine.cell_finished",
                                      "engine.cell_failed")}
        expected = {(rec.benchmark, rec.variant)
                    for rec in result.records.values()}
        assert finished == expected


# -- metrics history -------------------------------------------------------


class TestHistoryFileNames:
    def test_unsharded_keeps_legacy_name(self):
        assert history_file_name(1, 1) == "history.jsonl"

    def test_sharded(self):
        assert history_file_name(2, 4) == "history-2of4.jsonl"


class TestCampaignHistory:
    def test_sample_with_a_resumed_count_still_loads(self):
        # Older history files carry a ``resumed`` count per sample.
        doc = dict(_sample().to_dict(), resumed=3)
        assert HistorySample.from_dict(doc) == _sample()

    def test_round_trip(self, tmp_path):
        hist = CampaignHistory(tmp_path / "history.jsonl")
        assert hist.start("fp-1", (1, 1))
        hist.append(_sample(t=1.0, completed=1))
        hist.append(_sample(t=2.0, completed=2,
                            counters={"runner.cells": 2},
                            histograms={"runner.explore_s":
                                        {"count": 2, "total": 0.5}}))
        hist.close()
        fingerprint, shard, samples = hist.load()
        assert fingerprint == "fp-1"
        assert shard == (1, 1)
        assert [s.completed for s in samples] == [1, 2]
        assert samples[1].counters == {"runner.cells": 2}
        assert samples[1].histograms["runner.explore_s"]["count"] == 2

    def test_same_fingerprint_appends_a_run_segment(self, tmp_path):
        path = tmp_path / "history.jsonl"
        for run in range(2):
            hist = CampaignHistory(path)
            hist.start("fp-1")
            hist.append(_sample(t=float(run + 1)))
            hist.close()
        runs = CampaignHistory(path).runs()
        assert len(runs) == 2
        assert all(header["fingerprint"] == "fp-1" for header, _ in runs)
        # load() folds both segments into one stream
        _, _, samples = CampaignHistory(path).load()
        assert len(samples) == 2

    def test_fingerprint_change_replaces_file(self, tmp_path):
        path = tmp_path / "history.jsonl"
        old = CampaignHistory(path)
        old.start("fp-old")
        old.append(_sample())
        old.close()
        new = CampaignHistory(path)
        new.start("fp-new")
        new.append(_sample(t=9.0))
        new.close()
        fingerprint, _, samples = CampaignHistory(path).load()
        assert fingerprint == "fp-new"
        assert [s.t for s in samples] == [9.0]
        assert len(CampaignHistory(path).runs()) == 1

    def test_sample_dict_is_the_dataclass_in_field_order(self):
        sample = _sample(counters={"runner.cells": 2}, gauges={"engine.workers": 2},
                         histograms={"engine.cell_s": {"count": 1, "total": 0.5}})
        doc = sample.to_dict()
        expected = {**dataclasses.asdict(sample), "kind": "sample"}
        assert list(doc) == list(expected)  # same keys, same line bytes
        assert json.dumps(doc) == json.dumps(expected)

    def test_truncated_trailing_line_skipped(self, tmp_path):
        path = tmp_path / "history.jsonl"
        hist = CampaignHistory(path)
        hist.start("fp-1")
        hist.append(_sample())
        hist.close()
        with open(path, "a") as fh:
            fh.write('{"kind": "sample", "t": 3.0, "comp')  # kill mid-write
        _, _, samples = CampaignHistory(path).load()
        assert len(samples) == 1

    def test_run_after_a_torn_line_is_its_own_segment(self, tmp_path):
        path = tmp_path / "history.jsonl"
        hist = CampaignHistory(path)
        hist.start("fp-1")
        hist.append(_sample(cache_hit_rate=1.0))
        hist.close()
        with open(path, "a") as fh:
            fh.write('{"kind": "sample", "t": 3.0, "comp')  # kill mid-write
        hist = CampaignHistory(path)
        hist.start("fp-1")
        hist.append(_sample(t=9.0, cache_hit_rate=0.0))
        hist.close()
        runs = CampaignHistory(path).runs()
        assert len(runs) == 2
        # The doctor sees the collapse across the kill.
        (finding,) = diagnose([], runs=runs).by_category("cache-collapse")
        assert "100% -> 0%" in finding.title

    def test_write_failure_counted_not_raised(self, tmp_path):
        tel = Telemetry()
        with telemetry.active(tel):
            hist = CampaignHistory(tmp_path / "no" / "such")
            # parent mkdir succeeds, but the path itself is a dir now
            (tmp_path / "no" / "such").mkdir(parents=True)
            assert hist.start("fp") is False
        assert tel.metrics.counter_value("history.write_error") == 1
        assert hist.append(_sample()) is False  # closed history: quiet no-op

    def test_samples_counted_on_success(self, tmp_path):
        tel = Telemetry()
        with telemetry.active(tel):
            hist = CampaignHistory(tmp_path / "history.jsonl")
            hist.start("fp")
            hist.append(_sample())
            hist.append(_sample(t=2.0))
            hist.close()
        assert tel.metrics.counter_value("history.samples") == 2


class TestHistoryStore:
    def test_merges_shards_and_skips_stale(self, tmp_path):
        for index in (1, 2):
            hist = CampaignHistory(tmp_path / history_file_name(index, 2))
            hist.start("fp-live", (index, 2))
            hist.append(_sample(t=float(index), throughput_cps=2.0))
            hist.close()
        stale = CampaignHistory(tmp_path / "history.jsonl")
        stale.start("fp-stale")
        stale.append(_sample())
        stale.close()
        merged = HistoryStore(tmp_path).merge(expect_fingerprint="fp-live")
        assert merged.fingerprint == "fp-live"
        assert {sh.shard for sh in merged.shards} == {(1, 2), (2, 2)}
        assert merged.throughput_cps == pytest.approx(4.0)
        assert [s.t for s in merged.samples] == [1.0, 2.0]

    def test_empty_dir_merges_to_none(self, tmp_path):
        assert HistoryStore(tmp_path).merge() is None

    def test_engine_writes_history_through_worker_pool(
        self, a64fx_machine, tmp_path
    ):
        tel = Telemetry()
        benches = micro_suite().benchmarks[:4]
        result = CampaignEngine(
            a64fx_machine, variants=("GNU", "LLVM"), benchmarks=benches,
            workers=3, cache_dir=tmp_path, telemetry=tel,
        ).run()
        merged = HistoryStore(tmp_path).merge()
        assert merged is not None
        # One sample per completed cell plus the final aggregate one.
        cells = len(result.records)
        per_cell = [s for s in merged.samples if s.cell]
        assert len(per_cell) == cells
        last = merged.samples[-1]
        assert last.completed == cells
        # The sampled counters round-tripped the pool merge: the final
        # sample's totals equal the parent telemetry's.
        assert last.counters.get("runner.cells") == \
            tel.metrics.counter_value("runner.cells")
        assert result.meta["history"].endswith("history.jsonl")

    def test_serial_and_parallel_history_totals_match(
        self, a64fx_machine, tmp_path
    ):
        benches = micro_suite().benchmarks[:4]

        def final_sample(workers, where):
            CampaignEngine(
                a64fx_machine, variants=("GNU", "LLVM"), benchmarks=benches,
                workers=workers, cache_dir=where, telemetry=Telemetry(),
            ).run()
            return HistoryStore(where).merge().samples[-1]

        serial = final_sample(1, tmp_path / "serial")
        parallel = final_sample(3, tmp_path / "parallel")
        deterministic = ("engine.cells_executed", "runner.cells",
                         "runner.perf_runs", "history.samples")
        for name in deterministic:
            assert serial.counters.get(name) == \
                parallel.counters.get(name), name
        assert serial.completed == parallel.completed
        assert serial.executed == parallel.executed


class TestBaselineThroughput:
    def test_computes_rate_from_grid(self):
        doc = {"scenarios": {"cold_serial_s": 2.0},
               "grid": {"suites": ["micro"], "variants": ["GNU", "LLVM"]}}
        benches = len(micro_suite().benchmarks)
        assert baseline_throughput(doc) == pytest.approx(benches * 2 / 2.0)

    def test_incomplete_document_gives_none(self):
        assert baseline_throughput({}) is None
        assert baseline_throughput({"scenarios": {"cold_serial_s": 1}}) is None

    def test_unknown_suite_gives_none(self):
        doc = {"scenarios": {"cold_serial_s": 1.0},
               "grid": {"suites": ["not-a-suite"], "variants": ["GNU"]}}
        assert baseline_throughput(doc) is None


# -- Prometheus exposition -------------------------------------------------


class TestPromExport:
    def test_counter_gains_total_suffix_and_namespace(self):
        assert metric_name("engine.cells_executed", "counter") == \
            "a64fx_engine_cells_executed_total"
        assert metric_name("engine.eta_s", "gauge") == "a64fx_engine_eta_s"

    def test_render_counters_and_gauges(self):
        reg = MetricsRegistry()
        reg.inc("engine.cells_executed", 5)
        reg.set("engine.eta_s", 12.5)
        text = render_prometheus(reg)
        assert "# TYPE a64fx_engine_cells_executed_total counter" in text
        assert "a64fx_engine_cells_executed_total 5" in text
        assert "# TYPE a64fx_engine_eta_s gauge" in text
        assert "a64fx_engine_eta_s 12.5" in text
        assert "# HELP a64fx_engine_cells_executed_total " in text

    def test_histogram_buckets_cumulative_with_inf(self):
        reg = MetricsRegistry()
        for value in (0.0005, 0.003, 0.003, 5000.0):  # last overflows
            reg.observe("runner.explore_s", value)
        text = render_prometheus(reg)
        bucket_lines = [l for l in text.splitlines()
                        if l.startswith("a64fx_runner_explore_s_bucket")]
        counts = [int(l.rsplit(" ", 1)[1]) for l in bucket_lines]
        assert counts == sorted(counts)  # cumulative
        assert 'le="+Inf"' in bucket_lines[-1]
        assert counts[-1] == 4
        assert "a64fx_runner_explore_s_count 4" in text
        assert "a64fx_runner_explore_s_sum" in text

    def test_labels_attached_and_escaped(self):
        reg = MetricsRegistry()
        reg.inc("engine.cells_executed")
        reg.observe("runner.explore_s", 0.1)
        text = render_prometheus(reg, labels={"shard": '1of2',
                                              "machine": 'A"64\\FX'})
        assert 'shard="1of2"' in text
        assert '\\"64\\\\FX' in text  # quote and backslash escaped
        # histogram buckets carry both the shard label and le
        assert any('shard="1of2"' in l and 'le="' in l
                   for l in text.splitlines() if "_bucket" in l)

    def test_rendered_output_is_conformant(self):
        reg = MetricsRegistry()
        reg.inc("engine.cells_executed", 3)
        reg.inc("log.records", 17)
        reg.set("engine.progress.completed", 3)
        reg.set("engine.cache_hit_rate", 0.25)
        reg.observe("runner.explore_s", 0.004)
        reg.observe("engine.cell_s", 0.1)
        text = render_prometheus(reg, labels={"shard": "2of4"})
        assert validate_exposition(text) == []

    def test_warm_cache_hits_carry_their_help_line(self, a64fx_machine, tmp_path):
        def engine(tel):
            return CampaignEngine(a64fx_machine, variants=("GNU",),
                                  benchmarks=micro_suite().benchmarks[:2],
                                  cache_dir=tmp_path, telemetry=tel)

        engine(Telemetry()).run()
        tel = Telemetry()
        assert engine(tel).run().meta["cache_hits"] == 2
        text = render_prometheus(tel.metrics)
        assert ("# HELP a64fx_cell_cache_hit_total Cells satisfied from "
                "the content-addressed cell cache.") in text
        assert "a64fx_cell_cache_hit_total 2" in text
        assert "resumed" not in text

    def test_snapshot_dict_renders_identically(self):
        reg = MetricsRegistry()
        reg.inc("a.b", 2)
        reg.observe("c.d", 1.0)
        assert render_prometheus(reg.snapshot()) == render_prometheus(reg)

    def test_empty_registry_renders_empty(self):
        assert render_prometheus(MetricsRegistry()) == ""


class TestValidateExposition:
    def test_catches_type_after_samples(self):
        text = ("a64fx_x_total 1\n"
                "# HELP a64fx_x_total x.\n"
                "# TYPE a64fx_x_total counter\n")
        assert any("after its samples" in p or "without TYPE" in p
                   for p in validate_exposition(text))

    def test_catches_negative_counter(self):
        text = ("# HELP a64fx_x_total x.\n"
                "# TYPE a64fx_x_total counter\n"
                "a64fx_x_total -3\n")
        assert any("negative" in p for p in validate_exposition(text))

    def test_catches_missing_inf_bucket(self):
        text = ("# HELP a64fx_h h.\n"
                "# TYPE a64fx_h histogram\n"
                'a64fx_h_bucket{le="1"} 1\n'
                "a64fx_h_sum 0.5\n"
                "a64fx_h_count 1\n")
        assert any("+Inf" in p for p in validate_exposition(text))

    def test_catches_non_cumulative_buckets(self):
        text = ("# HELP a64fx_h h.\n"
                "# TYPE a64fx_h histogram\n"
                'a64fx_h_bucket{le="1"} 5\n'
                'a64fx_h_bucket{le="2"} 3\n'
                'a64fx_h_bucket{le="+Inf"} 5\n'
                "a64fx_h_sum 1\n"
                "a64fx_h_count 5\n")
        assert any("cumulative" in p for p in validate_exposition(text))

    def test_catches_count_bucket_disagreement(self):
        text = ("# HELP a64fx_h h.\n"
                "# TYPE a64fx_h histogram\n"
                'a64fx_h_bucket{le="+Inf"} 5\n'
                "a64fx_h_sum 1\n"
                "a64fx_h_count 7\n")
        assert any("_count" in p for p in validate_exposition(text))

    def test_catches_duplicate_series(self):
        text = ("# HELP a64fx_g g.\n"
                "# TYPE a64fx_g gauge\n"
                "a64fx_g 1\n"
                "a64fx_g 2\n")
        assert any("duplicate series" in p for p in validate_exposition(text))


# -- the HTTP endpoint -----------------------------------------------------


def _get(url):
    with urllib.request.urlopen(url, timeout=5) as resp:
        return resp.status, resp.headers.get("Content-Type", ""), \
            resp.read().decode()


class TestObservatoryServer:
    def test_serves_metrics_health_progress(self):
        reg = MetricsRegistry()
        reg.inc("engine.cells_executed", 7)
        server = ObservatoryServer(
            metrics=reg.snapshot,
            progress=lambda: {"state": "running", "completed": 7},
            health=lambda: {"fingerprint": "fp"},
            labels={"shard": "1of1"},
        )
        with server:
            assert server.port != 0  # ephemeral port resolved
            status, ctype, text = _get(server.url + "/metrics")
            assert status == 200
            assert "version=0.0.4" in ctype
            assert "a64fx_engine_cells_executed_total" in text
            assert 'shard="1of1"' in text
            assert validate_exposition(text) == []

            status, ctype, text = _get(server.url + "/healthz")
            doc = json.loads(text)
            assert (status, doc["status"], doc["fingerprint"]) == \
                (200, "ok", "fp")

            status, _, text = _get(server.url + "/progress")
            assert json.loads(text)["completed"] == 7

    def test_unknown_route_404s(self):
        with ObservatoryServer(metrics=dict) as server:
            with pytest.raises(urllib.error.HTTPError) as err:
                _get(server.url + "/nope")
            assert err.value.code == 404

    def test_taken_port_falls_back_to_ephemeral(self):
        with ObservatoryServer(metrics=dict) as first:
            taken = first.port
            # A fixed port that is already bound must not kill the
            # campaign; the server falls back to a kernel-assigned
            # port and publishes it.
            with ObservatoryServer(metrics=dict, port=taken) as second:
                assert second.port != taken
                status, _, _ = _get(second.url + "/healthz")
                assert status == 200

    def test_provider_error_500s_not_crashes(self):
        def boom():
            raise RuntimeError("provider exploded")

        with ObservatoryServer(progress=boom) as server:
            with pytest.raises(urllib.error.HTTPError) as err:
                _get(server.url + "/progress")
            assert err.value.code == 500
            # the server survived: another route still answers
            status, _, _ = _get(server.url + "/healthz")
            assert status == 200
