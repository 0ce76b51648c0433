"""Timing helpers shared by the script benchmarks (``bench_*.py`` run as
scripts, which puts this directory on ``sys.path``).

``entry`` is the one shape of a ``BENCH_<suite>.json`` row and
``time_calls`` the plain warm-up-then-time loop.  ``bench_quant.py``'s
block-interleaved ``_time_group`` and ``bench_serve.py``'s closed-loop
``_drive`` are different timing policies and stay with their scripts.
"""

from __future__ import annotations

import statistics
import time


def time_calls(fn, rounds, warmup):
    """Seconds per call of ``fn`` over ``rounds`` calls, after
    ``warmup`` untimed ones."""
    for _ in range(warmup):
        fn()
    samples = []
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return samples


def entry(name, samples, **extras):
    """A ``BENCH_<suite>.json`` row: ``name`` / ``mean_s`` /
    ``stddev_s`` / ``rounds`` over ``samples``, plus ``extras``."""
    row = {
        "name": name,
        "mean_s": statistics.fmean(samples),
        "stddev_s": statistics.pstdev(samples),
        "rounds": len(samples),
    }
    row.update(extras)
    return row
