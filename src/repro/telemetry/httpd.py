"""The repository's one HTTP/1.1 server, and the campaign observatory on it.

:class:`HttpServer` is a deliberately small server over
``asyncio.start_server``, stdlib only, on a daemon thread that owns its
event loop.  Synchronous callers start it and talk plain HTTP to
:attr:`HttpServer.port`; binding port 0 publishes the kernel-assigned
port there.  It reads one request per connection — request line,
headers and body, each bounded — and hands ``(writer, method, path,
body)`` to a route handler.  Handlers answer with :func:`respond_json`
or :func:`respond_text` and signal client errors by raising
:class:`HttpError`; any other exception becomes a 500, so a client
never sees a hung socket.  Every response closes its connection.

Two route tables run on it: :class:`ObservatoryServer` below, and the
campaign service (:class:`repro.service.server.CampaignService`).

:class:`ObservatoryServer` is the opt-in endpoint of a running
campaign (``a64fx-campaign run --serve``):

* ``GET /metrics``  — the active :class:`MetricsRegistry` in Prometheus
  text exposition (see :mod:`repro.telemetry.promexport`),
* ``GET /healthz``  — liveness JSON (``{"status": "ok", ...}``),
* ``GET /progress`` — the engine's live progress document (completed /
  total, throughput, ETA, cache-hit rate).

It never touches engine state directly: it is constructed with
*providers* — zero-argument callables returning the current snapshot —
so it works equally for an engine mid-campaign, a finished result, or
a test feeding canned data.  Providers run on the server's event-loop
thread; they must be cheap and thread-safe (the engine hands in
lock-free snapshot reads).
"""

from __future__ import annotations

import asyncio
import errno
import json
import threading

from repro.telemetry.log import log_event
from repro.telemetry.promexport import render_prometheus

#: Content type mandated by Prometheus text format 0.0.4.
PROM_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Request-line/header/body guards: both servers are trusted-network
#: control planes, not internet-facing, but malformed input still gets
#: a clean 4xx instead of an exception.
_MAX_REQUEST_LINE = 4096
_MAX_HEADERS = 64
_MAX_BODY = 1 << 20

_STATUS_TEXT = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 413: "Payload Too Large",
    500: "Internal Server Error",
}


class HttpError(Exception):
    """A client error with a status code, rendered as a JSON body."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


async def respond_text(writer, status: int, text: str,
                       content_type: str) -> None:
    """Write one complete response and flush it."""
    body = text.encode()
    writer.write(
        f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: close\r\n\r\n".encode() + body
    )
    await writer.drain()


async def respond_json(writer, status: int, doc) -> None:
    await respond_text(writer, status, json.dumps(doc, indent=2) + "\n",
                       "application/json")


async def _read_line(reader) -> bytes:
    try:
        return await reader.readline()
    except ValueError:  # longer than the stream buffer's 64 KiB limit
        raise HttpError(400, "line too long") from None


async def _read_request(reader) -> "tuple[str, str, bytes]":
    line = await _read_line(reader)
    if len(line) > _MAX_REQUEST_LINE:
        raise HttpError(400, "request line too long")
    parts = line.decode("latin-1").split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise HttpError(400, "malformed request line")
    method, path = parts[0].upper(), parts[1]
    headers: dict[str, str] = {}
    for _ in range(_MAX_HEADERS):
        raw = await _read_line(reader)
        if raw in (b"\r\n", b"\n", b""):
            break
        name, sep, value = raw.decode("latin-1").partition(":")
        if sep:
            headers[name.strip().lower()] = value.strip()
    else:
        raise HttpError(400, "too many headers")
    try:
        length = int(headers.get("content-length", "0"))
    except ValueError:
        raise HttpError(400, "malformed Content-Length") from None
    if length < 0 or length > _MAX_BODY:
        raise HttpError(413, f"body larger than {_MAX_BODY} bytes")
    body = await reader.readexactly(length) if length else b""
    return method, path.split("?", 1)[0], body


async def _respond_error(writer, exc: HttpError) -> None:
    try:
        await respond_json(writer, exc.status, {"error": str(exc)})
    except (ConnectionError, OSError):
        pass  # the client went away; nothing left to tell it


class HttpServer:
    """One HTTP/1.1 listener on a daemon thread running its own loop.

    ``handler`` is a coroutine function ``(writer, method, path, body)``
    that writes the response; ``name`` names the thread.
    """

    def __init__(self, handler, *, name: str) -> None:
        self._handler = handler
        self._name = name
        #: The serving event loop (``None`` when stopped); hand it
        #: coroutines with :func:`asyncio.run_coroutine_threadsafe`.
        self.loop: "asyncio.AbstractEventLoop | None" = None
        #: The bound port while serving (the kernel's pick for port 0).
        self.port: "int | None" = None
        self._server: "asyncio.Server | None" = None
        self._thread: "threading.Thread | None" = None
        self._teardown = None

    def start(self, host: str, port: int, setup=None) -> None:
        """Bind ``host:port``, await ``setup()`` on the loop, serve.

        Returns once serving.  Raises what binding or ``setup`` raised,
        after which the server is stopped and may be started again.
        """
        ready = threading.Event()
        failure: list[BaseException] = []
        loop = asyncio.new_event_loop()
        thread = threading.Thread(
            target=self._main, args=(loop, host, port, setup, ready, failure),
            name=self._name, daemon=True,
        )
        self.loop, self._thread = loop, thread
        thread.start()
        if not ready.wait(timeout=30):
            raise TimeoutError(f"{self._name} did not come up within 30s")
        if failure:
            thread.join(timeout=10)
            self.loop = self._thread = self.port = None
            raise failure[0]

    def stop(self, teardown=None) -> None:
        """Stop serving; ``teardown()`` is awaited on the loop after the
        listener has closed."""
        loop, thread = self.loop, self._thread
        if loop is None or thread is None:
            return
        self._teardown = teardown
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=10)
        self.loop = self._thread = self.port = None

    def _main(self, loop, host, port, setup, ready, failure) -> None:
        asyncio.set_event_loop(loop)
        try:
            try:
                loop.run_until_complete(self._boot(host, port, setup))
            except BaseException as exc:  # noqa: BLE001 - re-raised by start()
                failure.append(exc)
                return
            finally:
                ready.set()
            loop.run_forever()
        finally:
            try:
                loop.run_until_complete(self._shutdown())
            finally:
                loop.close()

    async def _boot(self, host: str, port: int, setup) -> None:
        self._server = await asyncio.start_server(self._connection, host, port)
        self.port = self._server.sockets[0].getsockname()[1]
        if setup is not None:
            await setup()

    async def _shutdown(self) -> None:
        server, self._server = self._server, None
        if server is not None:
            server.close()
            await server.wait_closed()
        teardown, self._teardown = self._teardown, None
        if teardown is not None:
            await teardown()

    async def _connection(self, reader, writer) -> None:
        try:
            try:
                method, path, body = await _read_request(reader)
            except HttpError as exc:
                await _respond_error(writer, exc)
                return
            except (asyncio.IncompleteReadError, ConnectionError):
                return
            try:
                await self._handler(writer, method, path, body)
            except HttpError as exc:
                await _respond_error(writer, exc)
            except ConnectionError:
                pass
            except Exception as exc:  # noqa: BLE001 - 500, never a hung socket
                log_event("httpd.error", level="error", server=self._name,
                          path=path, error=str(exc))
                await _respond_error(
                    writer, HttpError(500, f"{type(exc).__name__}: {exc}")
                )
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass


class ObservatoryServer:
    """Serves ``/metrics``, ``/healthz``, ``/progress`` for one campaign."""

    def __init__(
        self,
        metrics=None,
        progress=None,
        health=None,
        host: str = "127.0.0.1",
        port: int = 0,
        labels: "dict[str, str] | None" = None,
    ) -> None:
        self._metrics = metrics
        self._progress = progress
        self._health = health
        self._host = host
        self._requested_port = port
        self._labels = dict(labels) if labels else None
        self._http = HttpServer(self._route, name="a64fx-observatory")

    # -- lifecycle -------------------------------------------------------

    def start(self) -> "ObservatoryServer":
        if self._http.loop is not None:
            return self
        try:
            self._http.start(self._host, self._requested_port)
        except OSError as exc:
            if self._requested_port == 0 or exc.errno not in (
                errno.EADDRINUSE, errno.EACCES,
            ):
                raise
            # The fixed port is taken (another campaign, another tool):
            # fall back to a kernel-assigned port rather than dying —
            # the bound port is always published via ``.port``/``.url``.
            log_event("httpd.port_fallback", level="warning",
                      requested=self._requested_port, error=str(exc))
            self._http.start(self._host, 0)
        log_event("httpd.started", url=self.url)
        return self

    def stop(self) -> None:
        if self._http.loop is None:
            return
        self._http.stop()
        log_event("httpd.stopped")

    def __enter__(self) -> "ObservatoryServer":
        return self.start()

    def __exit__(self, *exc: object) -> bool:
        self.stop()
        return False

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` ephemeral binds)."""
        if self._http.port is None:
            return self._requested_port
        return self._http.port

    @property
    def url(self) -> str:
        return f"http://{self._host}:{self.port}"

    # -- routes ----------------------------------------------------------

    async def _route(self, writer, method: str, path: str, body: bytes) -> None:
        log_event("httpd.request", method=method, path=path)
        if path not in ("/metrics", "/healthz", "/progress"):
            raise HttpError(404, f"no route {method} {path}")
        if method != "GET":
            raise HttpError(405, f"{method} not allowed on {path}")
        if path == "/metrics":
            snapshot = self._metrics() if self._metrics is not None else {}
            await respond_text(writer, 200,
                               render_prometheus(snapshot, labels=self._labels),
                               PROM_CONTENT_TYPE)
        elif path == "/healthz":
            doc = self._health() if self._health is not None else {}
            await respond_json(writer, 200, {"status": "ok", **(doc or {})})
        else:
            doc = self._progress() if self._progress is not None else {}
            await respond_json(writer, 200, doc or {})
