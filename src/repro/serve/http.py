"""Stdlib-only HTTP JSON front-end for the serving subsystem.

Endpoints (all JSON in / JSON out):

* ``GET  /healthz``        — liveness: model count, uptime, rolling
  SLO verdict (``?verbose=1`` attaches the full error-rate/p99
  evaluation and which compiled kernels this process runs,
  :func:`repro.utils.cbuild.kernels_in_use`; breaches log
  ``serve.slo_breach`` events).
* ``GET  /v1/models``      — registry listing (manifest summaries).
* ``GET  /v1/metrics``     — the shared :class:`ServeMetrics` snapshot;
  ``?format=prometheus`` renders the backing
  :class:`~repro.obs.metrics.MetricsRegistry` as Prometheus text
  exposition instead (serve counters/histograms plus the per-route
  ``repro_http_requests_total`` / ``repro_http_request_duration_seconds``
  series recorded by this handler).
* ``POST /v1/classify``    — ``{"model": <id|name>, "features": [[...]]}``
  → labels plus per-class probability vectors, served through the
  micro-batching engine.
* ``POST /v1/distinguish`` — incremental online phase.  The first call
  (no ``"session"``) creates an :class:`OnlineSession` from the model's
  manifest (threshold, sample budget) and returns its id; subsequent
  calls feed ``{"features": [[...]], "labels": [...]}`` batches and
  return the running accuracy, progress, and — once the budget is met —
  the CIPHER/RANDOM verdict.

Request bodies are decoded by :func:`repro.serve.body.decode_body`.
Error mapping: 400 for malformed requests (including non-finite or
non-numeric features, a non-numeric ``timeout_s`` and labels that are
not class indices), 404 for unknown models or sessions, 503 with ``Retry-After``
when the engine sheds load, 504 when a request times out in the queue.
The server and handler build on :mod:`repro.utils.http`;
:meth:`ServeServer.stop` performs a graceful shutdown (stop accepting,
join the serving thread, drain the engines).
"""

from __future__ import annotations

import math
import threading
import time
from typing import Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

import numpy as np

from repro.errors import (
    EngineOverloaded,
    RegistryError,
    ReproError,
    ServeError,
    ServeTimeout,
)
from repro.obs import events as obs_events
from repro.obs import log as obs_log
from repro.serve.body import decode_body
from repro.serve.engine import (
    DEFAULT_MAX_BATCH,
    DEFAULT_MAX_WAIT_MS,
    MicroBatchEngine,
)
from repro.serve.metrics import ServeMetrics, SloPolicy
from repro.serve.registry import ModelRecord, ModelRegistry
from repro.serve.sessions import SessionStore
from repro.utils import cbuild
from repro.utils.http import HttpError, HttpServer, JsonHandler

_log = obs_log.get_logger("repro.serve")

#: Reject request bodies larger than this (64 MiB ~ 2^17 float rows).
MAX_BODY_BYTES = 64 * 1024 * 1024

#: Paths whose route label is their own name; everything else is
#: grouped under "other" so unknown paths can't explode label
#: cardinality in the metrics registry.
KNOWN_ROUTES = frozenset(
    ("/healthz", "/v1/models", "/v1/metrics", "/v1/classify", "/v1/distinguish")
)


class ServeService:
    """Registry + per-model engines + sessions behind the HTTP handler."""

    def __init__(
        self,
        registry: ModelRegistry,
        max_batch: int = DEFAULT_MAX_BATCH,
        max_wait_ms: float = DEFAULT_MAX_WAIT_MS,
        max_queue: int = 1024,
        metrics: Optional[ServeMetrics] = None,
    ):
        self.registry = registry
        self.metrics = metrics if metrics is not None else ServeMetrics()
        self.sessions = SessionStore()
        self._max_batch = max_batch
        self._max_wait_ms = max_wait_ms
        self._max_queue = max_queue
        self._engines: Dict[str, MicroBatchEngine] = {}
        self._lock = threading.Lock()
        self._started = time.monotonic()

    def engine_for(self, ref: str) -> Tuple[MicroBatchEngine, ModelRecord]:
        """The (lazily created) engine serving the referenced model."""
        try:
            record = self.registry.resolve(ref)
        except RegistryError as exc:
            raise HttpError(404, str(exc)) from None
        with self._lock:
            engine = self._engines.get(record.model_id)
            if engine is None:
                model, _ = self.registry.load(record.model_id)
                engine = MicroBatchEngine(
                    model,
                    max_batch=self._max_batch,
                    max_wait_ms=self._max_wait_ms,
                    max_queue=self._max_queue,
                    metrics=self.metrics,
                )
                self._engines[record.model_id] = engine
        return engine, record

    def stop(self) -> None:
        """Drain and stop every model engine."""
        with self._lock:
            engines = list(self._engines.values())
            self._engines.clear()
        for engine in engines:
            engine.stop(drain=True)

    # -- endpoint bodies ---------------------------------------------------

    def healthz(self, verbose: bool = False) -> dict:
        """Liveness plus rolling-window SLO verdict.

        The SLO (error rate and p99 latency over the recent HTTP
        window, :class:`SloPolicy`'s default thresholds) is evaluated on
        every call; a breach degrades the reported status and emits a
        ``serve.slo_breach`` structured log line + run event.  The full
        verdict, and the map of which compiled kernels this process
        runs, are attached only with ``?verbose=1``.
        """
        slo = SloPolicy().evaluate(self.metrics)
        if slo["status"] == "breached":
            _log.warning(
                "serve.slo_breach",
                breaches=",".join(slo["breaches"]),
                error_rate=round(slo["error_rate"], 4),
                p99_ms=round(slo["p99_ms"], 2),
                samples=slo["samples"],
            )
            obs_events.emit(
                "serve.slo_breach",
                breaches=slo["breaches"],
                error_rate=round(slo["error_rate"], 6),
                p99_ms=round(slo["p99_ms"], 3),
                samples=slo["samples"],
            )
        payload = {
            "status": "degraded" if slo["status"] == "breached" else "ok",
            "models": len(self.registry.list()),
            "sessions": len(self.sessions),
            "uptime_s": time.monotonic() - self._started,
        }
        if verbose:
            payload["slo"] = slo
            payload["kernels"] = cbuild.kernels_in_use()
        return payload

    def list_models(self) -> dict:
        return {"models": [record.summary() for record in self.registry.list()]}

    @staticmethod
    def _parse_features(body: dict) -> np.ndarray:
        features = body.get("features")
        if features is None:
            raise HttpError(400, "request body needs a 'features' array")
        try:
            array = np.asarray(features)
            if array.dtype.kind == "O":
                # Ints beyond int64, nulls or nested objects: numpy's own
                # float conversion decides, as it always has.
                array = np.asarray(features, dtype=np.float64)
        except (TypeError, ValueError, OverflowError) as exc:
            raise HttpError(400, f"malformed 'features': {exc}") from None
        if array.dtype.kind not in "iuf":
            raise HttpError(
                400, f"'features' must be JSON numbers, got {array.dtype}"
            )
        array = array.astype(np.float64, copy=False)
        if array.ndim == 1:
            array = array[None, :]
        if array.ndim != 2 or array.shape[0] == 0:
            raise HttpError(
                400, f"'features' must be a non-empty 2-D array, got shape "
                f"{array.shape}"
            )
        return array

    @staticmethod
    def _parse_timeout(body: dict) -> Optional[float]:
        timeout_s = body.get("timeout_s")
        if timeout_s is None:
            return None
        if isinstance(timeout_s, (int, float)) and not isinstance(timeout_s, bool):
            try:
                value = float(timeout_s)
            except OverflowError:
                value = math.inf
            if 0.0 < value < math.inf:
                return value
        raise HttpError(
            400, "'timeout_s' must be a positive, finite number of seconds"
        )

    def _classify_rows(self, body: dict) -> Tuple[np.ndarray, ModelRecord]:
        ref = body.get("model")
        if not ref:
            raise HttpError(400, "request body needs a 'model' id or name")
        engine, record = self.engine_for(str(ref))
        features = self._parse_features(body)
        timeout_s = self._parse_timeout(body)
        try:
            probabilities = engine.classify(features, timeout_s=timeout_s)
        except EngineOverloaded as exc:
            raise HttpError(503, str(exc), (("Retry-After", "1"),)) from None
        except ServeTimeout as exc:
            raise HttpError(504, str(exc)) from None
        except ServeError as exc:
            raise HttpError(400, str(exc)) from None
        if not np.isfinite(probabilities).all():
            raise HttpError(
                400, "'features' overflow the model: its outputs are not finite"
            )
        return probabilities, record

    def classify(self, body: dict) -> dict:
        probabilities, record = self._classify_rows(body)
        return {
            "model": record.model_id,
            "labels": probabilities.argmax(axis=1).tolist(),
            "probabilities": probabilities.tolist(),
        }

    def distinguish(self, body: dict) -> dict:
        session_id = body.get("session")
        if session_id is not None:
            try:
                session = self.sessions.get(str(session_id))
            except ServeError as exc:
                raise HttpError(404, str(exc)) from None
        else:
            session = self._create_session(body)
        if body.get("features") is None:
            return session.state()
        labels = body.get("labels")
        if labels is None:
            raise HttpError(
                400, "distinguish updates need 'labels' (the δ-class of "
                "each query row)"
            )
        probabilities, _ = self._classify_rows(body)
        predicted = probabilities.argmax(axis=1)
        try:
            return session.update(predicted, labels)
        except ServeError as exc:
            raise HttpError(400, str(exc)) from None

    def _create_session(self, body: dict):
        ref = body.get("model")
        if not ref:
            raise HttpError(400, "request body needs a 'model' id or name")
        try:
            record = self.registry.resolve(str(ref))
        except RegistryError as exc:
            raise HttpError(404, str(exc)) from None
        training = record.manifest.get("training")
        training_accuracy = body.get("training_accuracy")
        if training_accuracy is None:
            if not training:
                raise HttpError(
                    400,
                    f"model {record.model_id!r} has no training manifest; "
                    "pass 'training_accuracy' explicitly",
                )
            training_accuracy = training["validation_accuracy"]
        num_classes = record.num_classes or 2
        try:
            return self.sessions.create(
                training_accuracy=float(training_accuracy),
                num_classes=int(body.get("num_classes", num_classes)),
                target_samples=body.get("target_samples"),
                error_probability=float(body.get("error_probability", 0.01)),
                threshold=body.get("threshold"),
            )
        except (ReproError, TypeError, ValueError, OverflowError) as exc:
            raise HttpError(400, str(exc)) from None


class _Handler(JsonHandler):
    @property
    def service(self) -> ServeService:
        return self.server.service  # type: ignore[attr-defined]

    def _read_body(self) -> dict:
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = -1
        if length > MAX_BODY_BYTES or length < 0:
            # The body stays unread, so the connection cannot carry
            # another request.
            self.close_connection = True
        if length > MAX_BODY_BYTES:
            raise HttpError(
                413, f"body of {length} bytes exceeds the {MAX_BODY_BYTES} cap"
            )
        if length <= 0:
            raise HttpError(400, "POST body must be non-empty JSON")
        raw = self.rfile.read(length)
        try:
            body = decode_body(raw)
        except (ValueError, RecursionError) as exc:
            raise HttpError(400, f"invalid JSON body: {exc}") from None
        if not isinstance(body, dict):
            raise HttpError(400, "JSON body must be an object")
        return body

    def send_bytes(self, status, body, content_type, headers=()) -> None:
        # Record first: once a client holds its answer, the request is
        # already in the metrics it reads next.
        self._record(status)
        super().send_bytes(status, body, content_type, headers)

    def _record(self, status: int) -> None:
        """Per-route request counter + latency histogram (obs registry)."""
        latency_s = time.perf_counter() - self._started
        route = self._route
        registry = self.service.metrics.registry
        registry.counter(
            "repro_http_requests_total",
            method=self.command,
            route=route,
            status=str(status),
        ).inc()
        registry.histogram(
            "repro_http_request_duration_seconds", route=route
        ).observe(latency_s)
        if route != "/healthz":
            # Health polling must not dilute (or constitute) the SLO
            # window it is reporting on.
            self.service.metrics.record_http(status, latency_s)

    def _handle(self, route_fn) -> None:
        self._started = time.perf_counter()
        parts = urlsplit(self.path)
        self._route = parts.path if parts.path in KNOWN_ROUTES else "other"
        self.respond(route_fn, parts)

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        self._handle(self._get)

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        self._handle(self._post)

    def _get(self, parts) -> None:
        query = parse_qs(parts.query)
        if parts.path == "/healthz":
            verbose = query.get("verbose", ["0"])[-1] in ("1", "true", "yes")
            self.send_json(200, self.service.healthz(verbose=verbose))
        elif parts.path == "/v1/models":
            self.send_json(200, self.service.list_models())
        elif parts.path == "/v1/metrics":
            wire_format = query.get("format", ["json"])[-1]
            if wire_format == "prometheus":
                self.send_text(
                    200,
                    self.service.metrics.registry.to_prometheus(),
                    "text/plain; version=0.0.4; charset=utf-8",
                )
            elif wire_format == "json":
                self.send_json(200, self.service.metrics.snapshot())
            else:
                raise HttpError(
                    400, f"unknown metrics format {wire_format!r}; "
                    "expected 'json' or 'prometheus'"
                )
        else:
            raise HttpError(404, f"unknown path {self.path!r}")

    def _post(self, parts) -> None:
        body = self._read_body()
        if parts.path == "/v1/classify":
            self.send_json(200, self.service.classify(body))
        elif parts.path == "/v1/distinguish":
            self.send_json(200, self.service.distinguish(body))
        else:
            raise HttpError(404, f"unknown path {self.path!r}")


class ServeServer(HttpServer):
    """A running HTTP serving endpoint with graceful shutdown.

    ``port=0`` binds an ephemeral loopback port (the resolved address is
    on :attr:`address`), which is what the tests and the load harness
    use.  Use as a context manager or call :meth:`start`/:meth:`stop`.
    """

    def __init__(
        self,
        registry: ModelRegistry,
        host: str = "127.0.0.1",
        port: int = 0,
        max_batch: int = DEFAULT_MAX_BATCH,
        max_wait_ms: float = DEFAULT_MAX_WAIT_MS,
        max_queue: int = 1024,
        metrics: Optional[ServeMetrics] = None,
    ):
        self.service = ServeService(
            registry,
            max_batch=max_batch,
            max_wait_ms=max_wait_ms,
            max_queue=max_queue,
            metrics=metrics,
        )
        super().__init__((host, port), _Handler)

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)``."""
        return self.server_address[:2]

    def stop(self) -> None:
        """Graceful shutdown: stop accepting, join, drain engines."""
        super().stop()
        self.service.stop()


def create_server(registry_root: str, host: str = "127.0.0.1", port: int = 0, **kwargs) -> ServeServer:
    """Convenience: a :class:`ServeServer` over a registry directory."""
    return ServeServer(ModelRegistry(registry_root), host=host, port=port, **kwargs)
