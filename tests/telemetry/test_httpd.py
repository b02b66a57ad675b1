"""The shared HTTP/1.1 core, driven over raw sockets through both
servers that run on it: the campaign observatory and the service."""

from __future__ import annotations

import asyncio
import socket

import pytest

from repro.service import CampaignService, ServiceError
from repro.telemetry import ObservatoryServer
from repro.telemetry.httpd import HttpError, _read_request


@pytest.fixture(params=["observatory", "service"])
def server(request, tmp_path):
    if request.param == "observatory":
        observatory = ObservatoryServer(metrics=dict).start()
        yield observatory
        observatory.stop()
    else:
        service = CampaignService(tmp_path, workers=0).start()
        yield service
        service.stop(graceful=False)


def exchange(port: int, raw: bytes) -> int:
    """Send ``raw``, read the reply to EOF, return its status code."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(raw)
        reply = b""
        while chunk := sock.recv(65536):
            reply += chunk
    return int(reply.split(b" ", 2)[1])


def test_malformed_request_line_is_400_and_server_survives(server):
    assert exchange(server.port, b"GARBAGE\r\n\r\n") == 400
    assert exchange(server.port,
                    b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n") == 200


def test_service_fails_on_a_taken_fixed_port(tmp_path):
    # The observatory falls back to an ephemeral port (see
    # TestObservatoryServer); the service must not move silently.
    with ObservatoryServer(metrics=dict) as taken:
        service = CampaignService(tmp_path, port=taken.port, workers=0)
        with pytest.raises(ServiceError, match="failed to start"):
            service.start()
        with pytest.raises(ServiceError, match="not running"):
            service.port


@pytest.mark.parametrize("line", [
    b"GET /" + b"x" * 5000 + b" HTTP/1.1\r\n",    # over the 4 KiB limit
    b"GET /" + b"x" * 70000 + b" HTTP/1.1\r\n",   # over the stream buffer
])
def test_overlong_request_line_is_400(line):
    async def parse():
        reader = asyncio.StreamReader()
        reader.feed_data(line + b"\r\n")
        reader.feed_eof()
        await _read_request(reader)

    with pytest.raises(HttpError) as err:
        asyncio.run(parse())
    assert err.value.status == 400
