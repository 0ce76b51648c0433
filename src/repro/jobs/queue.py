"""A persistent, directory-based job queue for experiment grids.

One queue directory holds one logical grid (a table's cells, a search
sweep's scenarios).  Layout::

    <dir>/
      queue.json            queue-level metadata: experiment name, the
                            argument fingerprint and the pinned seed
      jobs/<job_id>.json    one atomic JSON record per job
      results/<job_id>.json the job's JSON result, written atomically

Every job is identified by a **spec fingerprint**: the SHA-256 of the
canonical JSON encoding of its spec dict (experiment name, cell keys,
sizes, seed).  Submitting the same spec twice is idempotent, which is
what makes resume work: a re-run of an interrupted grid re-submits every
cell, finds the completed ones already ``done`` on disk, and only
executes the remainder.

All writes go through temp-file-plus-:func:`os.replace`, so a killed
run can truncate nothing: a job record or result either exists with
valid JSON or does not exist at all.  Job state is owned by the parent
(runner) process — worker processes only compute payloads — so there
are no cross-process file races.

Job lifecycle::

    pending -> running -> done
                 |  ^
                 v  |            (crash: ``running`` records are reset
               failed             to ``pending`` at the next runner
                                  start, attempts preserved)

``attempts`` counts executions; ``error``/``error_type`` record the
last failure verbatim, so a grid that died on one cell is fully
auditable from the queue directory alone.
"""

from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from repro.errors import JobError
from repro.obs import log as obs_log
from repro.utils.atomic import atomic_write

_log = obs_log.get_logger("repro.jobs")

#: Bump on incompatible queue-layout changes.
QUEUE_VERSION = 1

#: Job states.  ``PENDING`` includes never-run and retry-eligible jobs.
PENDING = "pending"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
STATUSES = (PENDING, RUNNING, DONE, FAILED)


def jsonify(value):
    """Project ``value`` onto plain JSON types, exactly.

    Numpy scalars map through ``.item()`` (lossless: a ``float64``
    becomes the identical Python float), arrays through ``tolist()``.
    Used for job specs, results and queue metadata so a JSON round-trip
    preserves every bit of a result row.
    """
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return jsonify(value.tolist())
    if isinstance(value, dict):
        return {str(k): jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonify(v) for v in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise JobError(
        f"value of type {type(value).__name__} is not JSON-serialisable "
        "for a job record"
    )


def atomic_write_json(path, payload) -> None:
    """Atomically write ``payload`` as indented JSON."""
    atomic_write(path, json.dumps(payload, indent=2) + "\n")


def spec_fingerprint(spec: Dict) -> str:
    """The job id: SHA-256 over the canonical JSON encoding of ``spec``."""
    canonical = json.dumps(jsonify(spec), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:24]


class JobQueue:
    """One grid's worth of persistent job state (see module docstring)."""

    def __init__(self, root):
        self.root = Path(root)
        self.jobs_dir = self.root / "jobs"
        self.results_dir = self.root / "results"
        for directory in (self.root, self.jobs_dir, self.results_dir):
            directory.mkdir(parents=True, exist_ok=True)

    # -- queue-level metadata ------------------------------------------------

    @property
    def meta_path(self) -> Path:
        return self.root / "queue.json"

    def bind(self, experiment: str, args: Dict, seed: Optional[int]) -> int:
        """Pin run-level metadata (and the seed) to this queue directory.

        The first bind writes ``queue.json``; later binds (resumed runs)
        validate that the experiment and arguments are unchanged and
        return the *stored* seed, so a resume with ``--seed`` omitted
        still derives exactly the original per-cell streams.  A
        mismatch raises :class:`~repro.errors.JobError` — completed
        results under different arguments must never be mixed.
        """
        args = jsonify(args)
        if self.meta_path.exists():
            meta = self._read_json(self.meta_path)
            if meta.get("experiment") != experiment or meta.get("args") != args:
                raise JobError(
                    f"queue directory {self.root} was created for "
                    f"{meta.get('experiment')!r} with args {meta.get('args')}; "
                    f"refusing to reuse it for {experiment!r} with args "
                    f"{args} — use a fresh directory"
                )
            stored = int(meta["seed"])
            if seed is not None and int(seed) != stored:
                raise JobError(
                    f"queue directory {self.root} pinned seed {stored}; "
                    f"refusing to resume with seed {seed} — use a fresh "
                    "directory"
                )
            return stored
        if seed is None:
            seed = int(np.random.SeedSequence().entropy) & (2**63 - 1)
        meta = {
            "queue_version": QUEUE_VERSION,
            "experiment": experiment,
            "args": args,
            "seed": int(seed),
            "created_unix": round(time.time(), 3),
        }
        atomic_write_json(self.meta_path, meta)
        return int(seed)

    def meta(self) -> Optional[Dict]:
        """The bound queue metadata, or ``None`` before the first bind."""
        if not self.meta_path.exists():
            return None
        return self._read_json(self.meta_path)

    # -- job records ---------------------------------------------------------

    def _record_path(self, job_id: str) -> Path:
        return self.jobs_dir / f"{job_id}.json"

    def _result_path(self, job_id: str) -> Path:
        return self.results_dir / f"{job_id}.json"

    @staticmethod
    def _read_json(path: Path) -> Dict:
        try:
            return json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise JobError(f"unreadable job-queue file {path}: {exc}") from None

    def submit(self, spec: Dict, index: int = 0) -> str:
        """Register a job for ``spec``; idempotent on the fingerprint.

        Returns the job id.  An existing record (any status) is left
        untouched — that is the resume path.
        """
        spec = jsonify(spec)
        job_id = spec_fingerprint(spec)
        path = self._record_path(job_id)
        if not path.exists():
            record = {
                "job_id": job_id,
                "index": int(index),
                "spec": spec,
                "status": PENDING,
                "attempts": 0,
                "error": None,
                "error_type": None,
                "duration_s": None,
                "result_file": None,
                "submitted_unix": round(time.time(), 3),
                "updated_unix": round(time.time(), 3),
            }
            atomic_write_json(path, record)
            _log.debug("jobs.submit", job_id=job_id, index=index)
        return job_id

    def load(self, job_id: str) -> Dict:
        path = self._record_path(job_id)
        if not path.exists():
            raise JobError(f"no job {job_id!r} in queue {self.root}")
        return self._read_json(path)

    def update(self, job_id: str, **fields) -> Dict:
        """Merge ``fields`` into a job record and rewrite it atomically."""
        record = self.load(job_id)
        status = fields.get("status")
        if status is not None and status not in STATUSES:
            raise JobError(f"unknown job status {status!r}; known: {STATUSES}")
        record.update(fields)
        record["updated_unix"] = round(time.time(), 3)
        atomic_write_json(self._record_path(job_id), record)
        return record

    def mark_done(self, job_id: str, result, duration_s: float,
                  attempts: int) -> None:
        """Persist ``result`` atomically and flip the record to done."""
        result_path = self._result_path(job_id)
        atomic_write_json(result_path, {"job_id": job_id,
                                        "result": jsonify(result)})
        self.update(
            job_id,
            status=DONE,
            attempts=int(attempts),
            duration_s=float(duration_s),
            result_file=result_path.name,
            error=None,
            error_type=None,
        )

    def mark_failed(self, job_id: str, error: str, error_type: str,
                    duration_s: float, attempts: int) -> None:
        self.update(
            job_id,
            status=FAILED,
            attempts=int(attempts),
            duration_s=float(duration_s),
            error=str(error),
            error_type=str(error_type),
        )

    def result(self, job_id: str):
        """The stored result of a done job."""
        record = self.load(job_id)
        if record["status"] != DONE:
            raise JobError(
                f"job {job_id!r} is {record['status']}, not done; "
                f"last error: {record.get('error')!r}"
            )
        return self._read_json(self._result_path(job_id))["result"]

    def jobs(self) -> List[Dict]:
        """All job records, sorted by submission index then id."""
        records = [
            self._read_json(path)
            for path in sorted(self.jobs_dir.glob("*.json"))
        ]
        records.sort(key=lambda r: (r.get("index", 0), r.get("job_id", "")))
        return records

    def counts(self) -> Dict[str, int]:
        """Job counts by status (all four statuses always present)."""
        counts = {status: 0 for status in STATUSES}
        for record in self.jobs():
            counts[record.get("status", PENDING)] = (
                counts.get(record.get("status", PENDING), 0) + 1
            )
        return counts

    def reset_interrupted(self) -> int:
        """Flip ``running`` records (a killed run's leftovers) to pending.

        Returns how many were reset.  Attempt counts are preserved: an
        interrupted attempt still consumed budget.
        """
        reset = 0
        for record in self.jobs():
            if record["status"] == RUNNING:
                self.update(record["job_id"], status=PENDING)
                reset += 1
        if reset:
            _log.info("jobs.reset_interrupted", count=reset)
        return reset
