"""Run manifests: a machine-readable record of one experiment run.

:func:`run_with_manifest` wraps :func:`~repro.experiments.registry
.run_experiment` in a root span, captures every span the run produced
(the table runners open one per grid cell), and writes two files into
``run_dir``::

    <name>_result.json     the experiment's result dict, verbatim
    <name>_manifest.json   run metadata + per-cell spans

The manifest carries the experiment name, wall-clock start/duration,
the scalar keyword arguments, the requested *and* resolved worker
count, every ``REPRO_*`` environment knob, the Python/platform
fingerprint, the span list (name, start, duration, parent, attrs) and a
``cells`` digest (one wall-clock entry per ``*.cell`` span) — enough to
compare two runs of the same table without re-deriving anything from
logs.  Tracing is enabled for the duration of the call if it was not
already on; spans collected *before* the call are untouched.

Both files are written atomically (temp file + rename), so a run
directory never holds a truncated result — even when the process is
killed mid-write, which is exactly when a resumable run directory is
read back.

``python -m repro.experiments <name> --run-dir DIR`` routes through
this module.
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path
from typing import Dict, List, Tuple

from repro.core.parallel import resolve_workers
from repro.obs import agg as obs_agg
from repro.obs import context as obs_context
from repro.obs import events as obs_events
from repro.obs import trace
from repro.utils import cbuild
from repro.utils.atomic import atomic_write

#: Manifest schema version, bumped on incompatible layout changes.
#: v2: atomic writes, ``workers`` (requested/resolved), ``cells``.
#: v3: ``run_id`` + ``obs`` (merged trace / Prometheus artefacts,
#: contributing processes) — the run is now the unit of telemetry.
#: v4: ``compute.kernels`` maps every compiled kernel to whether it
#: resolved, in place of one key per kernel.
#: v5: drops ``compute.quant_mode`` with the int8 path's mode knob.
MANIFEST_VERSION = 5


def _scalar_args(kwargs: Dict) -> Dict:
    """The JSON-safe scalar subset of an experiment's keyword args."""
    return {
        key: value
        for key, value in kwargs.items()
        if isinstance(value, (bool, int, float, str)) or value is None
    }


def _repro_env() -> Dict[str, str]:
    return {
        key: value
        for key, value in sorted(os.environ.items())
        if key.startswith("REPRO_")
    }


def _compute_manifest() -> Dict:
    """The resolved compute substrate: BLAS control and kernels.

    ``env`` above records what was *requested*; this records what the
    process actually *resolved* — whether the BLAS thread-count symbols
    were found, and which compiled kernels passed their load-time
    self-tests (:func:`repro.utils.cbuild.kernels_in_use`) — so two
    manifests can be compared for compute-substrate drift, not just
    knob drift.
    """
    from repro.nn.backend import blas

    return {
        "blas_threads_controllable": blas.controllable(),
        "kernels": cbuild.kernels_in_use(),
    }


def _cell_digest(spans: List[Dict], queue_dir=None) -> List[Dict]:
    """Per-cell wall-clock entries for this run.

    Primary source: the run's ``*.cell`` spans, one per grid cell that
    executed in this process.  Cells dispatched to pool workers trace in
    the *worker's* buffer (lost to the parent), so a queued run falls
    back to the queue's job records, whose ``duration_s`` is the same
    wall-clock measured inside the worker — and also covers cells
    completed by *earlier* invocations of a resumed run.
    """
    cells = []
    for record in spans:
        if not record.get("name", "").endswith(".cell"):
            continue
        cells.append(
            {
                "span": record["name"],
                "attrs": record.get("attrs", {}),
                "wall_clock_s": record["dur_us"] / 1e6,
                "started_us": record["start_us"],
            }
        )
    if cells or queue_dir is None:
        return cells
    from repro.jobs import JobQueue

    for record in JobQueue(queue_dir).jobs():
        if record.get("duration_s") is None:
            continue
        spec = record.get("spec") or {}
        cells.append(
            {
                "span": "queue.job",
                "attrs": {
                    key: value
                    for key, value in spec.items()
                    if key not in ("experiment", "seed") and value is not None
                },
                "wall_clock_s": record["duration_s"],
                "status": record.get("status"),
                "attempts": record.get("attempts"),
            }
        )
    return cells


def _worker_manifest(kwargs: Dict) -> Dict:
    """Requested vs machine-resolved worker count for this run."""
    from repro.experiments.config import get_workers

    requested = kwargs.get("workers")
    if requested is None:
        requested = get_workers()
    return {
        "requested": requested,
        "resolved": resolve_workers(requested),
    }


def run_with_manifest(name: str, run_dir, **kwargs) -> Tuple[Dict, Path]:
    """Run experiment ``name`` and write result + manifest into ``run_dir``.

    Returns ``(result, manifest_path)``.  Keyword arguments are passed
    through to the experiment function unchanged.
    """
    from repro.experiments.registry import run_experiment

    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    was_enabled = trace.is_enabled()
    if not was_enabled:
        trace.enable()
    before = len(trace.finished_spans())
    started_unix = time.time()
    start = time.perf_counter()
    # The run context propagates the run id into pool workers (which
    # flush their spans/metrics under run_dir/obs/) and routes run
    # events — cell lifecycle, fit epoch ticks — into events.jsonl.
    with obs_context.run_context(run_dir, trace=True) as ctx:
        obs_events.emit("run.start", experiment=name, run_id=ctx.run_id)
        try:
            with trace.span(f"experiment.{name}"):
                result = run_experiment(name, **kwargs)
        except BaseException as exc:
            obs_events.emit(
                "run.failed", experiment=name, run_id=ctx.run_id,
                error_type=type(exc).__name__,
                duration_s=round(time.perf_counter() - start, 3),
            )
            raise
        finally:
            duration = time.perf_counter() - start
            spans = trace.finished_spans()[before:]
            if not was_enabled:
                trace.disable()
        obs_events.emit(
            "run.done", experiment=name, run_id=ctx.run_id,
            duration_s=round(duration, 3),
        )
        # Flush the parent's own telemetry next to the workers' and
        # merge everything into one Chrome trace + one Prometheus
        # snapshot for the whole run.
        obs_context.flush_main(spans, ctx=ctx)
        merged = obs_agg.merge_run(run_dir)
    result_path = run_dir / f"{name}_result.json"
    atomic_write(
        result_path, json.dumps(result, indent=2, default=str) + "\n"
    )
    manifest = {
        "manifest_version": MANIFEST_VERSION,
        "experiment": name,
        "run_id": ctx.run_id,
        "started_unix": round(started_unix, 3),
        "duration_s": duration,
        "args": _scalar_args(kwargs),
        "workers": _worker_manifest(kwargs),
        "env": _repro_env(),
        "compute": _compute_manifest(),
        "platform": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "system": platform.system(),
        },
        "result_file": result_path.name,
        "cells": _cell_digest(spans, queue_dir=kwargs.get("queue_dir")),
        "spans": spans,
        "dropped_spans": trace.dropped_spans(),
        "obs": {
            "trace_file": merged["trace_path"].name,
            "metrics_file": merged["metrics_path"].name,
            "events_file": obs_events.EVENTS_FILENAME,
            "merged_spans": merged["spans"],
            "processes": merged["processes"],
        },
    }
    manifest_path = run_dir / f"{name}_manifest.json"
    atomic_write(
        manifest_path, json.dumps(manifest, indent=2, default=str) + "\n"
    )
    return result, manifest_path
