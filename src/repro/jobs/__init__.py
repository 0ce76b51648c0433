"""Persistent job-queue orchestration for experiment grids.

The experiments and search layers submit every grid cell as a
payload-complete job through a directory-backed queue
(:mod:`repro.jobs.queue`), and a runner (:mod:`repro.jobs.runner`)
executes the unfinished ones in worker processes with per-job retries —
so ``python -m repro.experiments table2 --resume DIR`` after a kill
completes only the missing cells and returns rows bit-identical to an
uninterrupted run.
"""

from repro.jobs.queue import (
    DONE,
    FAILED,
    PENDING,
    RUNNING,
    JobQueue,
    atomic_write_json,
    jsonify,
    spec_fingerprint,
)
from repro.jobs.runner import JobRunner, bind_run, run_cells

__all__ = [
    "DONE",
    "FAILED",
    "PENDING",
    "RUNNING",
    "JobQueue",
    "JobRunner",
    "atomic_write_json",
    "bind_run",
    "jsonify",
    "run_cells",
    "spec_fingerprint",
]
