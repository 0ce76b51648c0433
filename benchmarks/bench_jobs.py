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

import argparse
import json
import statistics
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

from repro.core.parallel import run_grid  # noqa: E402
from repro.jobs import run_cells  # noqa: E402
from repro.obs import log as obs_log  # noqa: E402

import timing  # noqa: E402

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
    warmup = 1
    entries = []

    samples = timing.time_calls(lambda: run_grid(_cell, _payloads()), grid_rounds, warmup)
    grid_mean = statistics.fmean(samples)
    entries.append(timing.entry("grid_bare_16cells", samples, cells=GRID_CELLS))

    samples = timing.time_calls(_queued_run, grid_rounds, warmup)
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
        samples = timing.time_calls(replay, grid_rounds, warmup)
    finally:
        tmp.cleanup()
    entries.append(timing.entry("queue_replay_16cells", samples, cells=GRID_CELLS))

    return {
        "suite": "jobs",
        "quick": bool(quick),
        "grid_cells": GRID_CELLS,
        "benchmarks": entries,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="few-round smoke timings"
    )
    parser.add_argument(
        "--output-dir",
        type=Path,
        default=BENCH_DIR,
        help="where to write BENCH_jobs.json (default: benchmarks/)",
    )
    args = parser.parse_args(argv)
    obs_log.configure(level="warning")  # timings, not heartbeats
    report = run(args.quick)
    args.output_dir.mkdir(parents=True, exist_ok=True)
    out_path = args.output_dir / "BENCH_jobs.json"
    out_path.write_text(json.dumps(report, indent=2) + "\n")
    for entry in report["benchmarks"]:
        overhead = entry.get("overhead_ms_per_cell")
        note = f"  ({overhead:.3f} ms/cell overhead)" if overhead else ""
        print(f"{entry['name']}: {entry['mean_s'] * 1e3:.3f} ms{note}")
    print(f"wrote {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
