"""The HTTP surface: routes, SSE streaming, and 4xx discipline.

One module-scoped service instance (``workers=0``) serves most tests;
requests go through real sockets via :mod:`http.client` so the parsing
path — request line, headers, body limits — is the one clients hit.
"""

from __future__ import annotations

import http.client
import json
import time

import pytest

from repro.service import CampaignService
from repro.service.registry import ServiceRegistry
from repro.telemetry.promexport import validate_exposition

SPEC = {
    "tenant": "alice",
    "benchmarks": ["polybench.gemm"],
    "variants": ["GNU", "FJtrad"],
    "runs": 2,
}


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    svc = CampaignService(
        tmp_path_factory.mktemp("service-http"), workers=0
    ).start()
    yield svc
    svc.stop(graceful=False)


def request(service, method, path, body=None, raw_body=None, headers=None):
    conn = http.client.HTTPConnection("127.0.0.1", service.port, timeout=30)
    try:
        payload = raw_body
        if body is not None:
            payload = json.dumps(body).encode()
        conn.request(method, path, body=payload, headers=headers or {})
        resp = conn.getresponse()
        text = resp.read().decode()
        try:
            return resp.status, json.loads(text)
        except ValueError:
            return resp.status, text
    finally:
        conn.close()


def wait_terminal(service, cid, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status, doc = request(service, "GET", f"/campaigns/{cid}")
        assert status == 200
        if doc["state"] in ("finished", "failed", "cancelled"):
            return doc
        time.sleep(0.05)
    raise AssertionError(f"campaign {cid} never reached a terminal state")


class TestHappyPath:
    def test_submit_poll_result_events(self, service):
        status, doc = request(service, "POST", "/campaigns", body=SPEC)
        assert status == 202
        assert doc["total"] == 2
        cid = doc["id"]
        final = wait_terminal(service, cid)
        assert final["state"] == "finished"
        assert final["stats"]["failures"] == 0

        status, result = request(service, "GET", f"/campaigns/{cid}/result")
        assert status == 200
        assert len(result["records"]) == 2
        assert result["engine"]["tenant"] == "alice"
        assert result["engine"]["service"] is True

        # SSE: history replays in order, stream closes after terminal.
        conn = http.client.HTTPConnection(
            "127.0.0.1", service.port, timeout=30)
        conn.request("GET", f"/campaigns/{cid}/events")
        resp = conn.getresponse()
        assert resp.getheader("Content-Type") == "text/event-stream"
        frames = resp.read().decode()
        conn.close()
        kinds = [line.split(" ", 1)[1] for line in frames.splitlines()
                 if line.startswith("event: ")]
        assert kinds[0] == "campaign-started"
        assert kinds[-2:] == ["campaign-finished", "end"]
        seqs = [int(line.split(" ", 1)[1]) for line in frames.splitlines()
                if line.startswith("id: ")]
        assert seqs == sorted(seqs)

        status, listing = request(service, "GET", "/campaigns")
        assert status == 200
        assert cid in [c["id"] for c in listing["campaigns"]]

    def test_stats_and_metrics(self, service):
        status, stats = request(service, "GET", "/stats")
        assert status == 200
        assert "cells_executed" in stats and "tenants" in stats

        status, text = request(service, "GET", "/metrics")
        assert status == 200
        assert validate_exposition(text) == []
        assert "a64fx_service_cells_executed_total" in text
        assert 'tenant="alice"' in text

        status, doc = request(service, "GET", "/healthz")
        assert status == 200 and doc["ok"] is True

    def test_delete_cancels_idempotently(self, service):
        status, doc = request(service, "POST", "/campaigns", body=SPEC)
        cid = doc["id"]
        status, doc = request(service, "DELETE", f"/campaigns/{cid}")
        assert status == 200
        wait_terminal(service, cid)
        status, again = request(service, "DELETE", f"/campaigns/{cid}")
        assert status == 200  # cancelling a settled campaign is a no-op


class TestClientErrors:
    @pytest.mark.parametrize(
        "body",
        [
            b"this is not json",
            b"[1, 2",
            b"\xff\xfe garbage",
        ],
    )
    def test_unparseable_bodies_are_400(self, service, body):
        status, doc = request(service, "POST", "/campaigns", raw_body=body,
                              headers={"Content-Length": str(len(body))})
        assert status == 400
        assert "error" in doc

    @pytest.mark.parametrize(
        "doc",
        [
            {"bogus": 1},
            {"tenant": ""},
            {"runs": 0},
            {"benchmarks": []},
            {"variants": ["not-a-compiler"]},
            {"benchmarks": ["no.such_bench"]},
            {"suites": ["no_such_suite"]},
            {"machine": "pdp11"},
            ["a", "list"],
        ],
    )
    def test_invalid_submissions_are_400(self, service, doc):
        status, body = request(service, "POST", "/campaigns", body=doc)
        assert status == 400
        assert "error" in body

    def test_unknown_routes_are_404(self, service):
        assert request(service, "GET", "/nope")[0] == 404
        assert request(service, "GET", "/campaigns/zz-unknown")[0] == 404
        assert request(service, "GET",
                       "/campaigns/zz-unknown/events")[0] == 404
        assert request(service, "DELETE", "/campaigns/zz-unknown")[0] == 404

    def test_wrong_methods_are_405(self, service):
        assert request(service, "PUT", "/campaigns")[0] == 405
        assert request(service, "DELETE", "/stats")[0] == 404

    def test_oversized_body_is_413(self, service):
        status, doc = request(
            service, "POST", "/campaigns", raw_body=b"",
            headers={"Content-Length": str(2 << 20)},
        )
        assert status == 413

    def test_result_before_finish_is_404(self, service, tmp_path):
        # A fresh cache dir so the campaign actually has to execute.
        svc = CampaignService(tmp_path / "fresh", workers=0).start()
        try:
            status, doc = request(svc, "POST", "/campaigns", body=SPEC)
            cid = doc["id"]
            status, body = request(svc, "GET", f"/campaigns/{cid}/result")
            # Either still running (404) or already done (200): both are
            # legal; what must never happen is a 5xx or a partial body.
            assert status in (404, 200)
            wait_terminal(svc, cid)
            assert request(svc, "GET", f"/campaigns/{cid}/result")[0] == 200
        finally:
            svc.stop(graceful=False)


class TestServiceLifecycle:
    def test_port_zero_reports_bound_port(self, tmp_path):
        svc = CampaignService(tmp_path, workers=0).start()
        try:
            assert svc.port > 0
            assert request(svc, "GET", "/healthz")[0] == 200
        finally:
            svc.stop(graceful=False)

    def test_stale_registry_entry_fails_alone(self, tmp_path):
        # A campaign accepted before its benchmark left the registry
        # must not stop every later start on this cache dir.
        registry = ServiceRegistry(tmp_path / "service" / "campaigns.json")
        stale = dict(SPEC, benchmarks=["polybench.no_such_kernel"])
        registry.upsert("c0001-stale000", {"spec": stale, "state": "running"})
        registry.upsert("c0002-valid000", {"spec": SPEC, "state": "queued"})
        svc = CampaignService(tmp_path, workers=0).start()
        try:
            final = wait_terminal(svc, "c0002-valid000")
            assert final["state"] == "finished"
        finally:
            svc.stop(graceful=False)
        entry = ServiceRegistry(registry.path).load()["c0001-stale000"]
        assert entry["state"] == "failed"
        assert "no benchmark 'no_such_kernel'" in entry["error"]

    def test_two_services_never_collide(self, tmp_path):
        a = CampaignService(tmp_path / "a", workers=0).start()
        b = CampaignService(tmp_path / "b", workers=0).start()
        try:
            assert a.port != b.port
        finally:
            a.stop(graceful=False)
            b.stop(graceful=False)
