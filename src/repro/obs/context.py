"""Run-scoped trace context, propagated across process boundaries.

Per-process observability (:mod:`repro.obs.trace`,
:mod:`repro.obs.metrics`) loses everything produced inside pool
workers: each worker keeps its own span buffer and metrics registry,
and both evaporate when the pool is torn down.  This module makes a
*run* — one ``--run-dir`` invocation — the unit of telemetry instead:

* :func:`run_context` binds a :class:`RunContext` (run id, run
  directory, origin pid) as the process-ambient context.  Everything
  that wants run-level telemetry — the event bus
  (:mod:`repro.obs.events`), worker flushing, the manifest writer —
  reads it via :func:`current`.
* :class:`ContextTask` wraps the function dispatched to
  :mod:`multiprocessing` pool workers by
  :func:`repro.core.parallel.run_grid` and
  :func:`~repro.core.parallel.generate_dataset_sharded` (the generator
  behind every ``generate_dataset`` call).  On the first
  task a worker executes for a given run it discards the span buffer
  and registry contents inherited over ``fork`` (they are the parent's,
  already flushed parent-side), re-enables tracing, and installs the
  context; after *every* task it appends the spans the task produced to
  ``<run_dir>/obs/worker-<pid>.spans.jsonl`` and atomically rewrites
  ``<run_dir>/obs/worker-<pid>.metrics.json`` with a cumulative
  registry dump.
* :func:`flush_main` writes the parent's own spans and registry dump
  under the same layout (``main-<pid>.*``), so the deterministic merger
  (:mod:`repro.obs.agg`) sees one uniform set of per-process sinks.

File names carry the writing pid, so concurrent workers never share a
file and no cross-process locking is needed; appends within one file
come from one process, sequentially.  The layout survives resumed runs:
each invocation's processes add files, none overwrite another's.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional

#: Subdirectory of the run dir holding per-process telemetry sinks.
OBS_DIRNAME = "obs"


@dataclass(frozen=True)
class RunContext:
    """Identity of one observed run, shared by every process in it."""

    run_id: str
    run_dir: str
    origin_pid: int
    trace: bool = True


_current: Optional[RunContext] = None

#: ``(run_id, pid)`` of the last worker initialisation, so a pool worker
#: resets its inherited telemetry exactly once per run.
_worker_key = None


def new_run_id() -> str:
    """A unique, sortable run id (timestamp + pid + random suffix)."""
    stamp = time.strftime("%Y%m%dT%H%M%S")
    return f"{stamp}-{os.getpid():x}-{os.urandom(3).hex()}"


def current() -> Optional[RunContext]:
    """The ambient run context of this process (``None`` outside runs)."""
    return _current


def set_current(ctx: Optional[RunContext]) -> None:
    """Install ``ctx`` as the ambient context (``None`` clears it)."""
    global _current
    _current = ctx


class run_context:
    """Context manager binding a :class:`RunContext` for a run directory.

    ``trace`` records whether span collection is on for this run; pool
    workers re-enable tracing from it (a ``spawn``-style child would not
    inherit the module flag).  Nesting restores the previous context on
    exit, so a run inside a run (tests) is safe.
    """

    def __init__(self, run_dir, run_id: Optional[str] = None,
                 trace: Optional[bool] = None):
        from repro.obs import trace as obs_trace

        self.ctx = RunContext(
            run_id=run_id or new_run_id(),
            run_dir=str(Path(run_dir)),
            origin_pid=os.getpid(),
            trace=obs_trace.is_enabled() if trace is None else bool(trace),
        )
        self._previous: Optional[RunContext] = None

    def __enter__(self) -> RunContext:
        self._previous = current()
        set_current(self.ctx)
        return self.ctx

    def __exit__(self, exc_type, exc, tb) -> bool:
        set_current(self._previous)
        return False


def obs_dir(run_dir) -> Path:
    """The per-process sink directory under ``run_dir`` (created lazily)."""
    return Path(run_dir) / OBS_DIRNAME


# -- flushing ---------------------------------------------------------------


def _span_records(spans: List[dict], ctx: RunContext, role: str) -> List[dict]:
    pid = os.getpid()
    out = []
    for record in spans:
        enriched = dict(record)
        enriched["pid"] = pid
        enriched["role"] = role
        enriched["run_id"] = ctx.run_id
        out.append(enriched)
    return out


def _flush(ctx: RunContext, role: str, spans: List[dict], registry) -> None:
    """Append ``spans`` and rewrite the registry dump for this process.

    Span lines append (one JSON object per line, one writer per file);
    the metrics dump is cumulative, so it is atomically *replaced* on
    every flush — the last write is the process's complete registry.
    """
    from repro.utils.atomic import atomic_write

    sink = obs_dir(ctx.run_dir)
    sink.mkdir(parents=True, exist_ok=True)
    pid = os.getpid()
    if spans:
        lines = "".join(
            json.dumps(record, sort_keys=True, default=str) + "\n"
            for record in _span_records(spans, ctx, role)
        )
        with open(sink / f"{role}-{pid}.spans.jsonl", "a",
                  encoding="utf-8") as handle:
            handle.write(lines)
    dump = registry.dump() if registry is not None else {"series": []}
    if dump["series"]:
        dump["pid"] = pid
        dump["role"] = role
        dump["run_id"] = ctx.run_id
        atomic_write(
            sink / f"{role}-{pid}.metrics.json",
            json.dumps(dump, sort_keys=True) + "\n",
        )


def flush_main(spans: List[dict], ctx: Optional[RunContext] = None,
               registry=None) -> None:
    """Flush the parent process's spans + registry into the run dir.

    Called by the manifest writer with the spans it already collected
    for the run; ``registry`` defaults to the process-wide
    :data:`repro.obs.metrics.REGISTRY`.
    """
    from repro.obs import metrics as obs_metrics

    ctx = ctx if ctx is not None else current()
    if ctx is None:
        return
    _flush(ctx, "main", spans,
           registry if registry is not None else obs_metrics.REGISTRY)


def ensure_worker(ctx: Optional[RunContext]) -> bool:
    """Prepare this pool worker for run-scoped telemetry (idempotent).

    Returns ``True`` when running in a worker process (pid differs from
    the context's origin).  The first call per ``(run, pid)`` discards
    the span buffer and clears the metrics registry inherited over
    ``fork`` — both are the parent's state, flushed by the parent
    itself — then enables tracing per the context and installs it as
    ambient so :func:`repro.obs.events.emit` works inside the worker.
    """
    global _worker_key
    if ctx is None or os.getpid() == ctx.origin_pid:
        return False
    key = (ctx.run_id, os.getpid())
    if _worker_key != key:
        from repro.obs import metrics as obs_metrics
        from repro.obs import trace as obs_trace

        obs_trace.drain()
        obs_metrics.REGISTRY.reset()
        if ctx.trace and not obs_trace.is_enabled():
            obs_trace.enable()
        _worker_key = key
    set_current(ctx)
    return True


def flush_worker(ctx: Optional[RunContext]) -> None:
    """Flush this worker's spans + registry snapshot after one task."""
    if ctx is None or os.getpid() == ctx.origin_pid:
        return
    from repro.obs import metrics as obs_metrics
    from repro.obs import trace as obs_trace

    _flush(ctx, "worker", obs_trace.drain(), obs_metrics.REGISTRY)


class ContextTask:
    """Picklable wrapper installing a run context around a pool task.

    ``run_grid`` wraps the cell function in one of these when a run
    context is ambient at dispatch time; the wrapper travels to the
    worker (the context is three strings and two scalars), initialises
    the worker on arrival, runs the task, and flushes the worker's
    telemetry — even when the task raises, so a failing cell's spans
    still reach the run directory.
    """

    __slots__ = ("fn", "ctx")

    def __init__(self, fn, ctx: RunContext):
        self.fn = fn
        self.ctx = ctx

    def __call__(self, payload):
        ensure_worker(self.ctx)
        try:
            return self.fn(payload)
        finally:
            flush_worker(self.ctx)
