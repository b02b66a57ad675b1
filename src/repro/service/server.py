"""The HTTP/JSON front end of the campaign service.

The service's route table on the repository's one HTTP/1.1 server,
:class:`repro.telemetry.httpd.HttpServer` (request parsing and limits,
JSON/text responses, status mapping, the event-loop thread).  Routes:

``POST /campaigns``
    Submit a campaign (JSON body, see :func:`repro.service.config
    .spec_from_dict`).  202 with ``{"id": ..., "state": ...}``.
``GET /campaigns``
    All campaigns (most recent first).
``GET /campaigns/<id>``
    One campaign's status document.
``GET /campaigns/<id>/result``
    The saved result of a finished campaign (404 until finished).
``GET /campaigns/<id>/events``
    Server-sent events: full history, then live events until the
    campaign reaches a terminal state.
``DELETE /campaigns/<id>``
    Cancel a campaign (idempotent).
``GET /stats``
    Scheduler counters, per-tenant gauges, pool state.
``GET /metrics``
    Prometheus text exposition of the same.
``GET /healthz``
    Liveness.

The scheduler runs on the server's event loop, so synchronous callers
(the CLI, tests, the service gauntlet) start the service with
``service.start()`` and talk plain HTTP to ``service.port``.  Binding
port 0 and reporting the kernel-assigned port is the supported way to
avoid port collisions (the CLI's default); a taken fixed port fails
the start.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import json
from pathlib import Path

from repro import telemetry
from repro.service.config import ServiceError, spec_from_dict
from repro.service.metrics import render_service_metrics
from repro.service.scheduler import CampaignScheduler
from repro.telemetry.httpd import (
    PROM_CONTENT_TYPE,
    HttpError,
    HttpServer,
    respond_json,
    respond_text,
)


class CampaignService:
    """The campaign service: scheduler + HTTP front end."""

    def __init__(
        self,
        cache_dir: "str | Path",
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        resume: bool = True,
    ) -> None:
        self.cache_dir = Path(cache_dir)
        self.host = host
        self._requested_port = port
        self._resume = resume
        self._workers = workers
        self.scheduler: "CampaignScheduler | None" = None
        self._http = HttpServer(self._route, name="campaign-service")

    # -- lifecycle -------------------------------------------------------

    @property
    def port(self) -> int:
        """The bound port (the kernel's pick when constructed with 0)."""
        if self._http.port is None:
            raise ServiceError("service is not running")
        return self._http.port

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "CampaignService":
        """Bind and serve; returns once the socket is bound and registry
        resume (if any) has been kicked off."""
        if self._http.loop is not None:
            raise ServiceError("service already started")
        try:
            self.scheduler = CampaignScheduler(
                self.cache_dir, workers=self._workers
            )
            self._http.start(self.host, self._requested_port,
                             setup=self._started)
        except Exception as exc:
            raise ServiceError(f"service failed to start: {exc}") from exc
        return self

    async def _started(self) -> None:
        telemetry.set_gauge("service.port", self.port)
        telemetry.log_event("service.started", host=self.host,
                            port=self.port, workers=self._workers)
        if self._resume:
            resumed = self.scheduler.resume_pending()
            if resumed:
                telemetry.log_event(
                    "service.resumed",
                    campaigns=[c.id for c in resumed],
                )

    def stop(self, *, graceful: bool = True, timeout: float = 30.0) -> None:
        """Stop serving.  ``graceful=True`` waits for running campaigns;
        ``graceful=False`` abandons them mid-flight (they stay
        ``running`` in the registry, so the next start reruns them —
        the restart path the service gauntlet exercises)."""
        loop = self._http.loop
        if loop is None:
            return
        if graceful:
            drained = asyncio.run_coroutine_threadsafe(
                self._drain(timeout), loop)
            concurrent.futures.wait([drained], timeout=timeout + 5)
        self._http.stop(teardown=self._cancel_campaigns)
        if self.scheduler is not None:
            self.scheduler.shutdown_pool(wait=graceful)

    async def _drain(self, timeout: float) -> None:
        tasks = [c.task for c in self.scheduler.campaigns.values()
                 if c.task is not None and not c.task.done()]
        if tasks:
            await asyncio.wait(tasks, timeout=timeout)

    async def _cancel_campaigns(self) -> None:
        campaigns = self.scheduler.campaigns.values()
        for c in campaigns:
            if c.task is not None and not c.task.done():
                c.task.cancel()
        await asyncio.gather(
            *(c.task for c in campaigns if c.task is not None),
            return_exceptions=True,
        )

    # -- routing ---------------------------------------------------------

    async def _route(self, writer, method: str, path: str, body: bytes):
        telemetry.count("service.http_requests")
        sched = self.scheduler
        parts = [p for p in path.split("/") if p]
        if path == "/healthz":
            await respond_json(writer, 200, {"ok": True})
        elif path == "/stats" and method == "GET":
            await respond_json(writer, 200, sched.stats_snapshot())
        elif path == "/metrics" and method == "GET":
            await respond_text(writer, 200, render_service_metrics(sched),
                               PROM_CONTENT_TYPE)
        elif parts[:1] == ["campaigns"] and len(parts) == 1:
            if method == "POST":
                await self._post_campaign(writer, body)
            elif method == "GET":
                docs = [sched.campaign_doc(c)
                        for c in sched.campaigns.values()]
                docs.sort(key=lambda d: d["submitted_at"], reverse=True)
                await respond_json(writer, 200, {"campaigns": docs})
            else:
                raise HttpError(405, f"{method} not allowed on {path}")
        elif parts[:1] == ["campaigns"] and len(parts) in (2, 3):
            await self._campaign_route(writer, method, parts)
        else:
            raise HttpError(404, f"no route {method} {path}")

    async def _post_campaign(self, writer, body: bytes) -> None:
        try:
            doc = json.loads(body.decode() or "null")
        except (ValueError, UnicodeDecodeError):
            raise HttpError(400, "request body is not valid JSON") from None
        try:
            campaign = self.scheduler.submit(spec_from_dict(doc))
        except ServiceError as exc:
            raise HttpError(400, str(exc)) from None
        telemetry.log_event("service.campaign_accepted", campaign=campaign.id,
                            tenant=campaign.tenant, cells=campaign.total)
        await respond_json(writer, 202, {
            "id": campaign.id,
            "state": campaign.state,
            "tenant": campaign.tenant,
            "total": campaign.total,
            "fingerprint": campaign.fingerprint,
        })

    async def _campaign_route(self, writer, method: str, parts: list) -> None:
        sched = self.scheduler
        try:
            campaign = sched.get(parts[1])
        except ServiceError as exc:
            raise HttpError(404, str(exc)) from None
        if len(parts) == 2:
            if method == "GET":
                await respond_json(writer, 200, sched.campaign_doc(campaign))
            elif method == "DELETE":
                sched.cancel(campaign.id)
                telemetry.log_event("service.campaign_cancelled",
                                    campaign=campaign.id,
                                    tenant=campaign.tenant)
                await respond_json(writer, 200, sched.campaign_doc(campaign))
            else:
                raise HttpError(405, f"{method} not allowed here")
        elif parts[2] == "result" and method == "GET":
            path = campaign.dir / "result.json"
            if not path.is_file():
                raise HttpError(
                    404, f"campaign {campaign.id} has no result yet "
                    f"(state={campaign.state})"
                )
            await respond_text(writer, 200, path.read_text(),
                               "application/json")
        elif parts[2] == "events" and method == "GET":
            await self._stream_events(writer, campaign)
        else:
            raise HttpError(404, f"no route {method} on campaign")

    async def _stream_events(self, writer, campaign) -> None:
        """Server-sent events: history first, then live until terminal."""
        sched = self.scheduler
        queue = sched.subscribe(campaign)
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: text/event-stream\r\n"
            b"Cache-Control: no-store\r\n"
            b"Connection: close\r\n\r\n"
        )
        try:
            await writer.drain()
            while True:
                doc = await queue.get()
                if doc is None:
                    writer.write(b"event: end\ndata: {}\n\n")
                    await writer.drain()
                    return
                payload = json.dumps(doc)
                writer.write(
                    f"id: {doc['seq']}\nevent: {doc['kind']}\n"
                    f"data: {payload}\n\n".encode()
                )
                await writer.drain()
        except (ConnectionError, OSError):
            pass  # client went away mid-stream; campaign runs on
        finally:
            sched.unsubscribe(campaign, queue)

