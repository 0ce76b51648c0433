"""Tests for the shared HTTP server/handler base (``repro.utils.http``).

The keep-alive tests pin the reason the base exists: a response whose
headers and body leave in two writes with Nagle on stalls each
keep-alive request on the client's delayed ACK (~40 ms on Linux).
25 sequential requests on one connection must take well under a
second; with the stall they take about one.
"""

import json
import socket
import time
from http.client import HTTPConnection

import numpy as np
import pytest

from repro.nn import Dense, ReLU, Sequential, Softmax
from repro.obs import events as obs_events
from repro.obs.dashboard import DashboardServer
from repro.serve import ModelRegistry, ServeServer
from repro.utils.http import HttpError, HttpServer, JsonHandler

REQUESTS = 25
BUDGET_S = 0.5


def _keep_alive_loop(url, method, path, body=None):
    """Seconds for ``REQUESTS`` sequential requests on one connection."""
    host, port = url.removeprefix("http://").split(":")
    connection = HTTPConnection(host, int(port), timeout=10)
    headers = {"Content-Type": "application/json"}
    try:
        connection.request(method, path, body=body, headers=headers)  # connect
        response = connection.getresponse()
        assert response.status == 200, response.read()
        response.read()
        start = time.perf_counter()
        for _ in range(REQUESTS):
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            assert response.status == 200
            response.read()
        return time.perf_counter() - start
    finally:
        connection.close()


@pytest.fixture
def serve_url(rng, tmp_path):
    registry = ModelRegistry(str(tmp_path))
    model = Sequential([Dense(8), ReLU(), Dense(2), Softmax()])
    registry.register(model.build((6,), rng).compile(dtype="float32"), "unit")
    with ServeServer(registry, max_wait_ms=0.0) as server:
        yield server.url


class TestKeepAliveLatency:
    def test_serve_healthz(self, serve_url):
        assert _keep_alive_loop(serve_url, "GET", "/healthz") < BUDGET_S

    def test_serve_classify_64_rows(self, serve_url):
        rows = np.random.default_rng(5).integers(0, 2, (64, 6)).tolist()
        body = json.dumps({"model": "unit", "features": rows}).encode()
        elapsed = _keep_alive_loop(serve_url, "POST", "/v1/classify", body)
        assert elapsed < BUDGET_S

    def test_dashboard_events(self, tmp_path):
        obs_events.emit("run.start", run_dir=tmp_path, experiment="table2")
        with DashboardServer(tmp_path) as server:
            elapsed = _keep_alive_loop(server.url, "GET", "/api/events")
        assert elapsed < BUDGET_S


class _Probe(JsonHandler):
    def do_GET(self):  # noqa: N802 - stdlib naming
        self.respond(self._route)

    def _route(self):
        if self.path == "/ok":
            self.send_json(200, {"ok": True})
        elif self.path == "/busy":
            raise HttpError(503, "busy", (("Retry-After", "1"),))
        else:
            raise RuntimeError("boom")


class TestHandlerBase:
    @pytest.fixture
    def probe(self):
        with HttpServer(("127.0.0.1", 0), _Probe) as server:
            yield server

    def _get(self, server, path):
        host, port = server.server_address[:2]
        connection = HTTPConnection(host, port, timeout=10)
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            return response.status, response.getheaders(), response.read()
        finally:
            connection.close()

    def test_response_leaves_in_one_write(self, probe):
        host, port = probe.server_address[:2]
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(b"GET /ok HTTP/1.1\r\nHost: x\r\n\r\n")
            # One write arrives as one loopback segment; a handler that
            # writes the headers first delivers them on their own.
            chunk = sock.recv(65536)
        head, _, body = chunk.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200")
        assert json.loads(body) == {"ok": True}

    def test_http09_request_gets_the_bare_body(self, probe):
        host, port = probe.server_address[:2]
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(b"GET /ok\r\n\r\n")
            reply = b"".join(iter(lambda: sock.recv(65536), b""))
        assert json.loads(reply) == {"ok": True}

    def test_nagle_is_off(self, probe):
        assert probe.RequestHandlerClass.disable_nagle_algorithm is True

    def test_http_error_maps_status_headers_and_body(self, probe):
        status, headers, body = self._get(probe, "/busy")
        assert status == 503
        assert ("Retry-After", "1") in headers
        assert json.loads(body) == {"error": "busy"}

    def test_other_exception_is_json_500(self, probe):
        status, _, body = self._get(probe, "/crash")
        assert status == 500
        assert json.loads(body) == {"error": "internal error: boom"}

    def test_stop_is_idempotent_and_closes(self):
        server = HttpServer(("127.0.0.1", 0), _Probe).start()
        host, port = server.server_address[:2]
        server.stop()
        server.stop()
        with pytest.raises(OSError):
            socket.create_connection((host, port), timeout=2).close()
