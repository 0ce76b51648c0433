"""Unified observability: structured logging, tracing, metrics, profiling.

Every subsystem — offline training (:mod:`repro.nn`), dataset
generation and experiment grids (:mod:`repro.core.parallel`,
:mod:`repro.experiments`), and the online serving stack
(:mod:`repro.serve`) — reports through this one dependency-free layer
instead of ad-hoc prints.  Pillars:

* :mod:`repro.obs.log` — structured JSON-lines logging with bound
  context and levels.  ``REPRO_LOG=json|text|off`` selects the console
  renderer (human-readable text by default), ``REPRO_LOG_LEVEL`` the
  threshold, ``REPRO_LOG_FILE`` an always-JSON file sink.
* :mod:`repro.obs.trace` — span-based tracing
  (``with span("train.epoch", epoch=i): ...``), nested, thread-safe,
  and a shared no-op object when disabled so the hot path pays one
  ``if``.  ``REPRO_TRACE=<path>`` dumps a Chrome-trace-format JSON at
  process exit (load it in ``chrome://tracing`` / Perfetto).
* :mod:`repro.obs.metrics` — counters, gauges, and histograms
  (p50/p95/p99 over a sliding window plus fixed Prometheus buckets),
  with labeled series, grouped in a :class:`MetricsRegistry`.  The
  process-wide default registry is ``repro.obs.metrics.REGISTRY``; the
  serving stack renders its registry at
  ``GET /v1/metrics?format=prometheus``.
* :mod:`repro.obs.context` + :mod:`repro.obs.agg` — cross-process
  telemetry.  A :class:`~repro.obs.context.RunContext` rides into pool
  workers, each process flushes its spans/metrics to per-pid sinks
  under ``<run_dir>/obs/``, and :func:`~repro.obs.agg.merge_run`
  deterministically collates them into one Chrome trace
  (``trace_merged.json``) and one Prometheus snapshot
  (``metrics_merged.prom``) per run.
* :mod:`repro.obs.events` — the append-only per-run event bus
  (``events.jsonl``): cell lifecycle, fit epoch ticks, queue depth,
  stalls, SLO breaches.
* :mod:`repro.obs.dashboard` — ``python -m repro.obs.dashboard
  --run-dir DIR``: a live stdlib-HTTP sweep dashboard (plus ``--watch``
  terminal mode) over any run directory, in-flight or killed.
* :mod:`repro.obs.profile` — ``REPRO_PROFILE=1`` per-layer
  forward/backward timing inside ``Sequential.fit``, reported as a
  table at the end of training.

None of these touch any RNG stream: enabling every pillar leaves
training bit-identical (``tests/test_obs_trace.py`` proves it).
"""

from repro.obs.agg import merge_run
from repro.obs.context import RunContext, current, run_context
from repro.obs.events import emit, read_events
from repro.obs.log import Logger, configure, get_logger
from repro.obs.metrics import (
    REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.trace import span

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Logger",
    "MetricsRegistry",
    "REGISTRY",
    "RunContext",
    "configure",
    "current",
    "emit",
    "get_logger",
    "merge_run",
    "read_events",
    "run_context",
    "span",
]
