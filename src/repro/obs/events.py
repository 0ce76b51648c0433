"""The run event bus: an append-only ``events.jsonl`` per run directory.

Spans answer *how long did things take*; the event bus answers *what is
happening right now*.  Every process participating in a run — the
parent runner, pool workers mid-``fit``, the serving tier — appends
one-line JSON events to ``<run_dir>/events.jsonl``:

===================  ====================================================
event                emitted by
===================  ====================================================
``run.start/done``   the manifest writer, bracketing an experiment
``run.plan``         the job runner (totals: completed/to-run/deferred)
``cell.start``       the job runner, when a cell is marked running
``cell.retry``       inside the worker, between retry attempts
``cell.done/failed`` the job runner, as each cell's outcome lands
``cell.stall``       the grid scheduler's stall detector
``queue.depth``      the job runner, after each completed cell
``fit.epoch``        ``Sequential.fit``, one tick per epoch
``serve.slo_breach`` the serving tier's health evaluator
===================  ====================================================

Writes open the file in append mode and emit the whole line in a single
``write`` call: POSIX ``O_APPEND`` makes each line atomic with respect
to other writers, so the parent and N workers can share the file
without locks, and a reader never has to repair interleaved lines (a
torn *final* line from a killed process is skipped by the reader).

:func:`emit` resolves the target from the ambient
:class:`~repro.obs.context.RunContext` when ``run_dir`` is not given;
with neither it is a no-op costing one attribute check, so
instrumentation points (``fit`` epoch ticks) stay free outside runs.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro.obs import context as obs_context

EVENTS_FILENAME = "events.jsonl"


def events_path(run_dir) -> Path:
    """Where the event bus for ``run_dir`` lives."""
    return Path(run_dir) / EVENTS_FILENAME


def emit(event: str, run_dir=None, **fields) -> bool:
    """Append one event; returns whether anything was written.

    ``run_dir=None`` targets the ambient run context (no-op without
    one).  I/O errors are swallowed — telemetry must never take down
    the run it is observing.
    """
    run_id = None
    if run_dir is None:
        ctx = obs_context.current()
        if ctx is None:
            return False
        run_dir = ctx.run_dir
        run_id = ctx.run_id
    record: Dict = {
        "ts": round(time.time(), 6),
        "pid": os.getpid(),
        "event": str(event),
    }
    if run_id is not None:
        record["run_id"] = run_id
    record.update(fields)
    line = json.dumps(record, sort_keys=True, default=str) + "\n"
    try:
        path = events_path(run_dir)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(line)
    except OSError:
        return False
    return True


def read_events(run_dir, limit: Optional[int] = None,
                event: Optional[str] = None) -> List[dict]:
    """Parse the event bus, oldest first; tolerant of a torn last line.

    ``event`` filters by event name; ``limit`` keeps only the newest
    ``limit`` entries (after filtering).
    """
    path = events_path(run_dir)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError:
        return []
    records: List[dict] = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue  # a killed writer's torn line
        if not isinstance(record, dict):
            continue
        if event is not None and record.get("event") != event:
            continue
        records.append(record)
    if limit is not None and limit >= 0:
        records = records[-limit:] if limit else []
    return records

