"""Serving telemetry: latency percentiles, throughput, batching shape.

One :class:`ServeMetrics` instance is shared by the micro-batching
engine and the HTTP front-end.  Since the observability PR it is a thin
facade over a :class:`repro.obs.metrics.MetricsRegistry`: counters,
gauges, and windowed histograms live in the registry (so the same
numbers come out of ``GET /v1/metrics?format=prometheus``), while
``snapshot()`` keeps rendering the exact JSON structure the original
implementation served at ``GET /v1/metrics`` and embedded in
``BENCH_serve.json``.

Each instance gets its own registry by default — two servers (or two
tests) never share series — but a shared registry can be injected when
one exposition should cover several components.  The per-request and
per-batch latency histograms keep bounded sliding windows (oldest
samples drop once ``window`` is full), so a long-lived server's
percentiles always reflect recent behaviour.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ServeError
from repro.obs.metrics import MetricsRegistry, quantile

#: Rolling (status, latency) window for SLO evaluation: big enough for a
#: stable p99, small enough that a recovered server stops reporting a
#: breach within a few hundred requests.
HTTP_WINDOW = 512

#: Default thresholds of :class:`SloPolicy` (the ones ``/healthz`` uses).
DEFAULT_SLO_ERROR_RATE = 0.05
DEFAULT_SLO_P99_MS = 250.0
DEFAULT_SLO_MIN_SAMPLES = 20

#: Batch-size histogram buckets: power-of-two ceilings, matching the
#: original implementation's bucketing rule (3 rows -> bucket 4).
BATCH_SIZE_BUCKETS = tuple(1 << i for i in range(21))


def _latency_summary(window: Sequence[float]) -> Optional[Dict[str, float]]:
    if not window:
        return None
    values = list(window)
    return {
        "mean_ms": 1e3 * sum(values) / len(values),
        "p50_ms": 1e3 * quantile(values, 50.0),
        "p95_ms": 1e3 * quantile(values, 95.0),
        "p99_ms": 1e3 * quantile(values, 99.0),
        "max_ms": 1e3 * max(values),
    }


class ServeMetrics:
    """Thread-safe request/batch/queue telemetry for the serving stack."""

    def __init__(self, window: int = 65536, registry: Optional[MetricsRegistry] = None):
        if window <= 0:
            raise ServeError(f"metrics window must be positive, got {window}")
        self.registry = registry if registry is not None else MetricsRegistry()
        self._lock = threading.Lock()
        self._started = time.monotonic()
        self._requests = self.registry.counter("repro_serve_requests_total")
        self._rows = self.registry.counter("repro_serve_rows_total")
        self._timeouts = self.registry.counter("repro_serve_timeouts_total")
        self._rejected = self.registry.counter("repro_serve_rejected_total")
        self._batches = self.registry.counter("repro_serve_batches_total")
        self._batch_rows = self.registry.counter("repro_serve_batch_rows_total")
        self._request_latency = self.registry.histogram(
            "repro_serve_request_latency_seconds", window=window
        )
        self._batch_latency = self.registry.histogram(
            "repro_serve_batch_latency_seconds", window=window
        )
        self._batch_size = self.registry.histogram(
            "repro_serve_batch_size", buckets=BATCH_SIZE_BUCKETS, window=window
        )
        self._queue_depth = self.registry.gauge("repro_serve_queue_depth")
        # Scalars with no Prometheus analogue (the JSON keeps them).
        self._batch_max = 0
        self._queue_depth_sum = 0
        # Rolling (status, latency_s) pairs from the HTTP front-end,
        # consumed by SLO evaluation; bounded so a long-lived server's
        # verdict tracks recent behaviour, not its whole lifetime.
        self._http_window: deque = deque(maxlen=HTTP_WINDOW)

    # -- recording ---------------------------------------------------------

    def record_request(self, latency_s: float, rows: int = 1) -> None:
        """One answered request: end-to-end latency and its row count."""
        self._requests.inc()
        self._rows.inc(int(rows))
        self._request_latency.observe(float(latency_s))

    def record_batch(self, size: int, queue_depth: int, latency_s: float) -> None:
        """One coalesced inference batch run by the engine.

        ``queue_depth`` is the depth sampled by the engine *when the
        batch was assembled* (under the engine lock), not re-read here.
        """
        size = int(size)
        self._batches.inc()
        self._batch_rows.inc(size)
        self._batch_size.observe(size)
        self._batch_latency.observe(float(latency_s))
        self._queue_depth.set(int(queue_depth))
        with self._lock:
            self._batch_max = max(self._batch_max, size)
            self._queue_depth_sum += int(queue_depth)

    def record_timeout(self) -> None:
        """A request whose deadline expired before it could be answered."""
        self._timeouts.inc()

    def record_http(self, status: int, latency_s: float) -> None:
        """One HTTP response (any route) for the SLO rolling window."""
        with self._lock:
            self._http_window.append((int(status), float(latency_s)))

    def http_window(self) -> List[Tuple[int, float]]:
        """The retained (status, latency_s) pairs, oldest first."""
        with self._lock:
            return list(self._http_window)

    def record_rejection(self) -> None:
        """A request shed by queue-depth backpressure."""
        self._rejected.inc()

    # -- reporting ---------------------------------------------------------

    def snapshot(self) -> dict:
        """A JSON-ready view of everything recorded so far.

        Structure (and values) are identical to the pre-registry
        implementation; ``test_serve_http.py`` and ``BENCH_serve.json``
        consume it unchanged.
        """
        with self._lock:
            batch_max = self._batch_max
            queue_depth_sum = self._queue_depth_sum
        elapsed = max(time.monotonic() - self._started, 1e-9)
        requests = int(self._requests.value)
        batches = int(self._batches.value)
        size_counts = self._batch_size.bucket_counts()
        return {
            "uptime_s": elapsed,
            "requests": {
                "count": requests,
                "rows": int(self._rows.value),
                "timeouts": int(self._timeouts.value),
                "rejected": int(self._rejected.value),
                "throughput_rps": requests / elapsed,
                "row_throughput_rps": self._rows.value / elapsed,
                "latency": _latency_summary(
                    self._request_latency.window_values()
                ),
            },
            "batches": {
                "count": batches,
                "mean_size": (
                    self._batch_rows.value / batches if batches else 0.0
                ),
                "max_size": batch_max,
                "size_histogram": {
                    str(int(bucket)): count
                    for bucket, count in sorted(size_counts.items())
                    if count
                },
                "latency": _latency_summary(
                    self._batch_latency.window_values()
                ),
            },
            "queue": {
                "mean_depth": (
                    queue_depth_sum / batches if batches else 0.0
                ),
                "max_depth": int(self._queue_depth.max),
            },
        }


class SloPolicy:
    """Rolling-window SLO thresholds for the serving front-end.

    Two objectives over the last :data:`HTTP_WINDOW` responses (the
    ``/healthz`` route itself excluded, so health polling cannot mask or
    cause a breach):

    * **availability** — the fraction of 5xx responses must stay at or
      below ``error_rate``;
    * **latency** — the p99 response time must stay at or below
      ``p99_ms`` milliseconds.

    With fewer than ``min_samples`` responses in the window the verdict
    is ``"unknown"``: an idle server is neither healthy nor breached,
    and twenty quiet seconds after a deploy should not page anyone.
    """

    def __init__(
        self,
        error_rate: float = DEFAULT_SLO_ERROR_RATE,
        p99_ms: float = DEFAULT_SLO_P99_MS,
        min_samples: int = DEFAULT_SLO_MIN_SAMPLES,
    ):
        if not 0 < error_rate <= 1:
            raise ServeError(
                f"SLO error rate must be in (0, 1], got {error_rate}"
            )
        if p99_ms <= 0:
            raise ServeError(f"SLO p99 must be positive, got {p99_ms}")
        if min_samples < 1:
            raise ServeError(
                f"SLO min samples must be >= 1, got {min_samples}"
            )
        self.error_rate = float(error_rate)
        self.p99_ms = float(p99_ms)
        self.min_samples = int(min_samples)

    def evaluate(self, metrics: ServeMetrics) -> Dict:
        """The SLO verdict over the metrics' rolling HTTP window."""
        window = metrics.http_window()
        samples = len(window)
        verdict: Dict = {
            "samples": samples,
            "thresholds": {
                "error_rate": self.error_rate,
                "p99_ms": self.p99_ms,
                "min_samples": self.min_samples,
            },
        }
        if samples < self.min_samples:
            verdict["status"] = "unknown"
            verdict["breaches"] = []
            return verdict
        errors = sum(1 for status, _ in window if status >= 500)
        error_rate = errors / samples
        p99_ms = 1e3 * quantile([lat for _, lat in window], 99.0)
        breaches = []
        if error_rate > self.error_rate:
            breaches.append("error_rate")
        if p99_ms > self.p99_ms:
            breaches.append("p99_latency")
        verdict["error_rate"] = error_rate
        verdict["p99_ms"] = p99_ms
        verdict["breaches"] = breaches
        verdict["status"] = "breached" if breaches else "ok"
        return verdict
