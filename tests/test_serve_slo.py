"""Tests for the serving tier's rolling-window SLO evaluation."""

import json
import urllib.request

import pytest

from repro.errors import ServeError
from repro.serve.metrics import (
    DEFAULT_SLO_ERROR_RATE,
    DEFAULT_SLO_MIN_SAMPLES,
    DEFAULT_SLO_P99_MS,
    HTTP_WINDOW,
    ServeMetrics,
    SloPolicy,
)


def _fill(metrics, count, status=200, latency_s=0.01):
    for _ in range(count):
        metrics.record_http(status, latency_s)


class TestSloPolicy:
    def test_unknown_below_min_samples(self):
        metrics = ServeMetrics()
        _fill(metrics, DEFAULT_SLO_MIN_SAMPLES - 1)
        verdict = SloPolicy().evaluate(metrics)
        assert verdict["status"] == "unknown"
        assert verdict["breaches"] == []
        assert verdict["samples"] == DEFAULT_SLO_MIN_SAMPLES - 1

    def test_ok_when_healthy(self):
        metrics = ServeMetrics()
        _fill(metrics, 50)
        verdict = SloPolicy().evaluate(metrics)
        assert verdict["status"] == "ok"
        assert verdict["error_rate"] == 0.0
        assert verdict["p99_ms"] == pytest.approx(10.0)

    def test_error_rate_breach(self):
        metrics = ServeMetrics()
        _fill(metrics, 40)
        _fill(metrics, 10, status=500)
        verdict = SloPolicy(error_rate=0.05).evaluate(metrics)
        assert verdict["status"] == "breached"
        assert "error_rate" in verdict["breaches"]
        assert verdict["error_rate"] == pytest.approx(0.2)

    def test_p99_breach(self):
        metrics = ServeMetrics()
        _fill(metrics, 50, latency_s=0.5)
        verdict = SloPolicy(p99_ms=250.0).evaluate(metrics)
        assert verdict["status"] == "breached"
        assert verdict["breaches"] == ["p99_latency"]

    def test_4xx_do_not_count_as_errors(self):
        metrics = ServeMetrics()
        _fill(metrics, 30, status=404)
        verdict = SloPolicy().evaluate(metrics)
        assert verdict["status"] == "ok"
        assert verdict["error_rate"] == 0.0

    def test_window_is_bounded(self):
        metrics = ServeMetrics()
        _fill(metrics, HTTP_WINDOW, status=500)
        _fill(metrics, HTTP_WINDOW)  # healthy traffic pushes errors out
        verdict = SloPolicy().evaluate(metrics)
        assert verdict["samples"] == HTTP_WINDOW
        assert verdict["status"] == "ok"

    def test_invalid_thresholds_raise(self):
        with pytest.raises(ServeError):
            SloPolicy(error_rate=0.0)
        with pytest.raises(ServeError):
            SloPolicy(p99_ms=-1.0)
        with pytest.raises(ServeError):
            SloPolicy(min_samples=0)


class TestHealthzEndpoint:
    @pytest.fixture
    def server(self, tmp_path):
        from repro.serve import ModelRegistry, ServeServer

        with ServeServer(ModelRegistry(str(tmp_path))) as server:
            yield server

    def _get(self, url):
        with urllib.request.urlopen(url) as resp:
            return json.loads(resp.read())

    def test_healthz_plain_has_no_slo_detail(self, server):
        body = self._get(server.url + "/healthz")
        assert body["status"] == "ok"
        assert "slo" not in body
        assert "kernels" not in body

    def test_healthz_verbose_attaches_verdict(self, server):
        from repro.utils import cbuild

        body = self._get(server.url + "/healthz?verbose=1")
        assert body["slo"]["status"] == "unknown"  # idle server
        assert body["slo"]["thresholds"] == {
            "error_rate": DEFAULT_SLO_ERROR_RATE,
            "p99_ms": DEFAULT_SLO_P99_MS,
            "min_samples": DEFAULT_SLO_MIN_SAMPLES,
        }
        # Which compiled kernels this process runs: provenance for a result.
        assert body["kernels"] == cbuild.kernels_in_use()

    def test_healthz_degrades_on_breach(self, server):
        _fill(server.service.metrics, DEFAULT_SLO_MIN_SAMPLES, status=500)
        body = self._get(server.url + "/healthz?verbose=1")
        assert body["status"] == "degraded"
        assert body["slo"]["status"] == "breached"
        assert "error_rate" in body["slo"]["breaches"]

    def test_healthz_polling_stays_out_of_window(self, server):
        for _ in range(5):
            self._get(server.url + "/healthz")
        assert server.service.metrics.http_window() == []

    def test_other_routes_feed_window(self, server):
        self._get(server.url + "/v1/models")
        window = server.service.metrics.http_window()
        assert len(window) == 1
        assert window[0][0] == 200
