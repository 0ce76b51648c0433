"""Job-queue orchestration harness: writes ``BENCH_jobs.json``.

Times the overhead the persistent queue adds on top of the bare grid
runner (submit + atomic state writes + JSON result round-trip per
cell) and the replay path a resumed run takes (all cells already done
on disk).  Entries follow the shared
``BENCH_<suite>.json`` schema (``name`` / ``mean_s`` / ``stddev_s`` /
``rounds``), so ``check_regression.py`` gates on the means exactly as
it does for the other suites.

Usage::

    PYTHONPATH=src python benchmarks/bench_jobs.py [--quick] [--output-dir DIR]
"""

from __future__ import annotations

import statistics
import tempfile

import timing
from repro.core.parallel import run_grid
from repro.jobs import run_cells

GRID_CELLS = 16


def _cell(payload):
    # a near-free cell: what remains is the orchestration overhead
    return {"value": payload["value"] * 2}


def _payloads():
    return [{"value": i} for i in range(GRID_CELLS)]


def _specs():
    return [{"experiment": "bench", "value": i} for i in range(GRID_CELLS)]


def _queued_run():
    with tempfile.TemporaryDirectory() as tmp:
        run_cells(_cell, _payloads(), specs=_specs(), queue_dir=tmp)


def _queued_replay_factory():
    # one persistent directory, pre-completed: each round is pure replay
    tmp = tempfile.TemporaryDirectory()
    run_cells(_cell, _payloads(), specs=_specs(), queue_dir=tmp.name)

    def replay():
        run_cells(_cell, _payloads(), specs=_specs(), queue_dir=tmp.name)

    return replay, tmp


def run(quick: bool) -> dict:
    # Quick mode cuts rounds, never shapes: entry names must match the
    # committed full-mode baseline so check_regression compares them.
    grid_rounds = 3 if quick else 15
    entries = []

    samples = timing.sample(lambda: run_grid(_cell, _payloads()), grid_rounds)
    grid_mean = statistics.fmean(samples)
    entries.append(timing.entry("grid_bare_16cells", samples, cells=GRID_CELLS))

    samples = timing.sample(_queued_run, grid_rounds)
    queued_mean = statistics.fmean(samples)
    entries.append(
        timing.entry(
            "queue_run_16cells",
            samples,
            cells=GRID_CELLS,
            overhead_ms_per_cell=(queued_mean - grid_mean) / GRID_CELLS * 1e3,
        )
    )

    replay, tmp = _queued_replay_factory()
    try:
        samples = timing.sample(replay, grid_rounds)
    finally:
        tmp.cleanup()
    entries.append(timing.entry("queue_replay_16cells", samples, cells=GRID_CELLS))

    return {
        "grid_cells": GRID_CELLS,
        "benchmarks": entries,
    }


if __name__ == "__main__":
    raise SystemExit(timing.main("jobs", run))
