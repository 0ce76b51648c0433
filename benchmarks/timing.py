"""The one measuring path of the ``benchmarks/`` suites.

Every ``BENCH_<suite>.json`` row is sampled here, under one policy:
each timed callable first runs :data:`WARMUP` untimed calls (scratch
buffers, BLAS thread spin-up, kernel loads), the cyclic garbage
collector is off while timing, and every timed call is kept (no
trimming: the mean, p95 and p99 of a row see its tail).  Three shapes
share that policy:

* :func:`sample` -- one callable, in timed batches of ``iterations``
  calls (a sub-microsecond primitive needs batches to rise above the
  clock's resolution);
* :func:`sample_interleaved` -- labelled variants run in consecutive
  blocks, the blocks of all labels interleaved, so a slow patch on a
  shared machine lands on every label;
* :func:`sample_clients` -- ``threads`` closed-loop client threads,
  for the latency a concurrent caller sees.

:func:`entry` is the one shape of a row, :func:`write_report` the one
writer of a report and :func:`validate_bench_file` its schema check;
:func:`main` is the command line of every ``bench_<suite>.py``
script::

    PYTHONPATH=src python benchmarks/bench_<suite>.py [--quick] [--output-dir DIR]
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import statistics
import threading
import time
from pathlib import Path

from repro.obs import log as obs_log
from repro.obs.metrics import quantile

BENCH_DIR = Path(__file__).resolve().parent

#: Untimed calls before a callable's (or a block's) timed calls.
WARMUP = 2

#: Blocks per label in :func:`sample_interleaved`.
BLOCKS = 4

_REQUIRED_ENTRY_KEYS = ("name", "mean_s", "stddev_s", "rounds")


@contextlib.contextmanager
def _gc_off():
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _warm(fn):
    for _ in range(WARMUP):
        fn()


def _timed(fn, iterations):
    start = time.perf_counter()
    for _ in range(iterations):
        fn()
    return (time.perf_counter() - start) / iterations


def sample(fn, rounds, iterations=1):
    """Seconds per call of ``fn`` for each of ``rounds`` timed batches
    of ``iterations`` calls."""
    with _gc_off():
        _warm(fn)
        return [_timed(fn, iterations) for _ in range(rounds)]


def sample_interleaved(fns, rounds):
    """``{label: samples}`` for the thunks in ``fns``, ``rounds`` each.

    Each label runs its calls in consecutive blocks (a serving process
    runs one variant repeatedly, and fine-grained interleaving would
    evict the working set being measured), and the labels take turns
    block by block, :data:`BLOCKS` times over.
    """
    per_block = max(1, rounds // BLOCKS)
    samples = {label: [] for label in fns}
    for _ in range(BLOCKS):
        for label, fn in fns.items():
            samples[label] += sample(fn, per_block)
    return samples


def sample_clients(worker, requests, threads):
    """``(samples, wall_s)`` of ``requests`` closed-loop calls.

    ``threads`` clients split ``worker(0) .. worker(requests - 1)``
    between them; each client warms up on its first calls, then all
    start their timed calls together, each call issued when the
    client's previous one returns.  ``wall_s`` runs from that common
    start to the last client's last return.
    """
    shares = [range(client, requests, threads) for client in range(threads)]
    samples = [[] for _ in shares]
    started, errors = [], []
    barrier = threading.Barrier(
        threads, action=lambda: started.append(time.perf_counter())
    )

    def client(index):
        calls = iter(shares[index])

        def call():
            worker(next(calls))

        try:
            _warm(call)
            barrier.wait()
            samples[index] = [
                _timed(call, 1) for _ in range(len(shares[index]) - WARMUP)
            ]
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            errors.append(exc)
            barrier.abort()

    pool = [threading.Thread(target=client, args=(i,)) for i in range(threads)]
    with _gc_off():
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        end = time.perf_counter()
    if errors:
        raise errors[0]
    flat = [s for client_samples in samples for s in client_samples]
    return flat, end - started[0]


def entry(name, samples, **extras):
    """A ``BENCH_<suite>.json`` row: ``name`` / ``mean_s`` /
    ``stddev_s`` / ``rounds`` and ``p50_s`` / ``p95_s`` / ``p99_s`` over
    ``samples``, plus ``extras``."""
    row = {
        "name": name,
        "mean_s": statistics.fmean(samples),
        "stddev_s": statistics.pstdev(samples),
        "rounds": len(samples),
        "p50_s": quantile(samples, 50.0),
        "p95_s": quantile(samples, 95.0),
        "p99_s": quantile(samples, 99.0),
    }
    row.update(extras)
    return row


def validate_bench_file(path: Path) -> None:
    """Raise ``ValueError`` if ``path`` is not a well-formed BENCH artefact."""
    try:
        report = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"{path.name}: unreadable or invalid JSON ({exc})")
    if not isinstance(report, dict):
        raise ValueError(f"{path.name}: top level must be an object")
    for key in ("suite", "quick", "benchmarks"):
        if key not in report:
            raise ValueError(f"{path.name}: missing key {key!r}")
    entries = report["benchmarks"]
    if not isinstance(entries, list) or not entries:
        raise ValueError(f"{path.name}: 'benchmarks' must be a non-empty list")
    for row in entries:
        for key in _REQUIRED_ENTRY_KEYS:
            if key not in row:
                raise ValueError(
                    f"{path.name}: entry {row.get('name', '?')!r} missing {key!r}"
                )
        if not row["name"]:
            raise ValueError(f"{path.name}: entry with empty name")
        if not (float(row["mean_s"]) > 0.0):
            raise ValueError(
                f"{path.name}: {row['name']!r} has non-positive mean_s"
            )
        if float(row["stddev_s"]) < 0.0 or int(row["rounds"]) < 1:
            raise ValueError(
                f"{path.name}: {row['name']!r} has malformed stats"
            )


def _duration(seconds):
    if seconds < 1e-3:
        return f"{seconds * 1e6:.3f} us"
    return f"{seconds * 1e3:.3f} ms"


def write_report(suite, quick, body, output_dir: Path) -> Path:
    """Write ``body`` (``{"benchmarks": [rows]}`` plus any suite-level
    fields) as ``output_dir/BENCH_<suite>.json``, validate and print it."""
    report = {"suite": suite, "quick": quick, **body}
    output_dir.mkdir(parents=True, exist_ok=True)
    out_path = output_dir / f"BENCH_{suite}.json"
    out_path.write_text(json.dumps(report, indent=2) + "\n")
    validate_bench_file(out_path)
    for row in report["benchmarks"]:
        print(
            f"{row['name']}: mean {_duration(row['mean_s'])}, "
            f"p50 {_duration(row['p50_s'])}, p95 {_duration(row['p95_s'])} "
            f"over {row['rounds']} rounds"
        )
    print(f"wrote {out_path}")
    return out_path


def main(suite, run, argv=None) -> int:
    """Command line of a ``bench_<suite>.py`` script: ``run(quick)``
    returns the report body for :func:`write_report`.  ``--quick`` runs
    fewer rounds, never other shapes, so entry names match the
    committed full-mode baseline."""
    parser = argparse.ArgumentParser(description=f"Write BENCH_{suite}.json.")
    parser.add_argument(
        "--quick", action="store_true", help="few rounds per row (fast, noisy)"
    )
    parser.add_argument(
        "--output-dir",
        type=Path,
        default=BENCH_DIR,
        help="where to write the report (default: benchmarks/)",
    )
    args = parser.parse_args(argv)
    obs_log.configure(level="warning")  # timings, not heartbeats
    write_report(suite, args.quick, run(args.quick), args.output_dir)
    return 0
