"""Micro-batching inference engine: one worker, fused batched predicts.

Serving traffic arrives as many small feature batches; numpy inference
is dramatically faster on one large matmul than on many small ones (the
PR 1–2 float32 kernels are GEMM-bound).  The engine therefore runs a
single worker thread that drains a bounded request queue, coalesces
pending requests until ``max_batch`` rows are gathered or ``max_wait``
elapses since the first one, runs **one** fused
:meth:`~repro.nn.model.Sequential.predict_proba` over the concatenated
rows, and fans the probability slices back through per-request futures.

Flow control:

* **Backpressure** — the queue holds at most ``max_queue`` requests;
  :meth:`submit` raises :class:`~repro.errors.EngineOverloaded` instead
  of queueing unboundedly (the HTTP layer maps this to 503).
* **Per-request timeouts** — a request carries an optional deadline;
  if the worker drains it after the deadline it resolves the future
  with :class:`~repro.errors.ServeTimeout` rather than wasting compute
  on an answer nobody is waiting for.

Knobs (constructor arguments; the ``python -m repro.serve`` flags
``--max-batch`` and ``--max-wait-ms``): ``max_batch`` (default
:data:`DEFAULT_MAX_BATCH`, 256 rows) and ``max_wait_ms`` (default
:data:`DEFAULT_MAX_WAIT_MS`, 2.0 ms).
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.errors import EngineOverloaded, ServeError, ServeTimeout
from repro.nn.backend import blas
from repro.nn.model import Sequential
from repro.obs.trace import span
from repro.serve.metrics import ServeMetrics

DEFAULT_MAX_BATCH = 256
DEFAULT_MAX_WAIT_MS = 2.0
DEFAULT_MAX_QUEUE = 1024

_STOP = object()


@dataclass
class _Request:
    features: np.ndarray
    future: Future = field(default_factory=Future)
    enqueued: float = field(default_factory=time.monotonic)
    deadline: Optional[float] = None

    @property
    def rows(self) -> int:
        return self.features.shape[0]


class MicroBatchEngine:
    """Coalesces concurrent classify requests into fused model predicts."""

    def __init__(
        self,
        model: Sequential,
        max_batch: int = DEFAULT_MAX_BATCH,
        max_wait_ms: float = DEFAULT_MAX_WAIT_MS,
        max_queue: int = DEFAULT_MAX_QUEUE,
        metrics: Optional[ServeMetrics] = None,
        autostart: bool = True,
    ):
        if model.input_shape is None:
            raise ServeError("build the model before serving it")
        self.model = model
        self.max_batch = int(max_batch)
        wait_ms = float(max_wait_ms)
        if self.max_batch <= 0:
            raise ServeError(f"max_batch must be positive, got {self.max_batch}")
        if wait_ms < 0:
            raise ServeError(f"max_wait_ms must be >= 0, got {wait_ms}")
        if max_queue <= 0:
            raise ServeError(f"max_queue must be positive, got {max_queue}")
        self.max_wait_s = wait_ms / 1e3
        self.metrics = metrics if metrics is not None else ServeMetrics()
        self._queue: "queue.Queue" = queue.Queue(maxsize=int(max_queue))
        self._worker: Optional[threading.Thread] = None
        self._stopped = False
        self._lock = threading.Lock()
        if autostart:
            self.start()

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "MicroBatchEngine":
        """Start the worker thread (idempotent)."""
        with self._lock:
            if self._stopped:
                raise ServeError("engine has been stopped; create a new one")
            if self._worker is None:
                self._worker = threading.Thread(
                    target=self._run, name="repro-serve-engine", daemon=True
                )
                self._worker.start()
        return self

    def stop(self, drain: bool = True) -> None:
        """Stop the worker; with ``drain`` (default) answer queued work first.

        Without ``drain``, still-queued requests fail with
        :class:`ServeError` rather than hanging their futures forever.
        """
        with self._lock:
            if self._stopped:
                return
            self._stopped = True
            worker = self._worker
        if worker is None or not drain:
            self._fail_pending("engine stopped without draining")
        if worker is not None:
            self._queue.put(_STOP)
            worker.join()

    def _fail_pending(self, reason: str) -> None:
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                return
            if item is not _STOP and item.future.set_running_or_notify_cancel():
                item.future.set_exception(ServeError(reason))

    def __enter__(self) -> "MicroBatchEngine":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- submission --------------------------------------------------------

    def submit(
        self, features: np.ndarray, timeout_s: Optional[float] = None
    ) -> Future:
        """Enqueue a ``(rows, features)`` batch; resolves to probabilities.

        The returned :class:`~concurrent.futures.Future` yields the
        ``(rows, classes)`` probability array.  ``timeout_s`` bounds how
        long the request may sit in the queue before the worker discards
        it with :class:`ServeTimeout`.
        """
        if self._stopped:
            raise ServeError("engine is stopped")
        features = np.ascontiguousarray(features, dtype=self.model.dtype)
        if features.ndim == 1:
            features = features[None, :]
        expected = tuple(self.model.input_shape or ())
        if features.shape[1:] != expected:
            raise ServeError(
                f"request features have shape {features.shape[1:]}, model "
                f"expects {expected}"
            )
        if features.shape[0] == 0:
            raise ServeError("request must contain at least one row")
        if not np.isfinite(features).all():
            raise ServeError(
                f"request features must be finite as {features.dtype}"
            )
        request = _Request(features=features)
        if timeout_s is not None:
            if timeout_s <= 0:
                raise ServeError(f"timeout_s must be positive, got {timeout_s}")
            request.deadline = request.enqueued + timeout_s
        try:
            self._queue.put_nowait(request)
        except queue.Full:
            self.metrics.record_rejection()
            raise EngineOverloaded(
                f"request queue is full ({self._queue.maxsize} pending); "
                "shed load or retry with backoff"
            ) from None
        return request.future

    def classify(
        self, features: np.ndarray, timeout_s: Optional[float] = None
    ) -> np.ndarray:
        """Synchronous :meth:`submit`: block until the batch is answered."""
        return self.submit(features, timeout_s=timeout_s).result()

    @property
    def queue_depth(self) -> int:
        """Requests currently waiting (approximate, lock-free read)."""
        return self._queue.qsize()

    # -- worker ------------------------------------------------------------

    def _run(self) -> None:
        while True:
            item = self._queue.get()
            if item is _STOP:
                return
            batch = [item]
            rows = item.rows
            deadline = time.monotonic() + self.max_wait_s
            stop_after = False
            # Coalesce until the row budget is met or the wait expires.
            # The first request is always taken whole, so one oversized
            # request can exceed max_batch by itself but never starves.
            while rows < self.max_batch:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    try:
                        nxt = self._queue.get_nowait()
                    except queue.Empty:
                        break
                else:
                    try:
                        nxt = self._queue.get(timeout=remaining)
                    except queue.Empty:
                        break
                if nxt is _STOP:
                    stop_after = True
                    break
                batch.append(nxt)
                rows += nxt.rows
            # Sample the queue depth the moment the batch is assembled,
            # under the engine lock, so the recorded depth is the
            # backlog this batch actually left behind — not whatever
            # the queue happens to hold after the predict finishes.
            with self._lock:
                depth = self._queue.qsize()
            self._run_batch(batch, depth)
            if stop_after:
                return

    def _run_batch(self, batch: List[_Request], queue_depth: int) -> None:
        now = time.monotonic()
        live: List[_Request] = []
        for request in batch:
            if request.deadline is not None and now > request.deadline:
                self.metrics.record_timeout()
                if request.future.set_running_or_notify_cancel():
                    request.future.set_exception(
                        ServeTimeout(
                            f"request waited {now - request.enqueued:.3f}s, "
                            "past its deadline"
                        )
                    )
                continue
            if request.future.set_running_or_notify_cancel():
                live.append(request)
        if not live:
            return
        features = (
            live[0].features
            if len(live) == 1
            else np.concatenate([request.features for request in live], axis=0)
        )
        start = time.perf_counter()
        try:
            # One fused predict over the whole coalesced batch — the
            # per-row results are exactly those of an unbatched
            # ``predict_proba`` call on the same concatenated rows.
            # BLAS threads are pinned to the serve domain for the call
            # (REPRO_BLAS_THREADS_SERVE): serving batches are small, so
            # thread fan-out overhead usually exceeds the GEMM win.
            with blas.thread_domain("serve"), \
                    span("serve.batch", rows=int(features.shape[0]),
                         requests=len(live)):
                probabilities = self.model.predict_proba(
                    features, batch_size=max(features.shape[0], 1)
                )
        except BaseException as exc:  # propagate to every waiter
            for request in live:
                request.future.set_exception(exc)
            return
        latency = time.perf_counter() - start
        self.metrics.record_batch(features.shape[0], queue_depth, latency)
        offset = 0
        done = time.monotonic()
        for request in live:
            result = probabilities[offset:offset + request.rows]
            offset += request.rows
            self.metrics.record_request(done - request.enqueued, request.rows)
            request.future.set_result(np.array(result, copy=True))
