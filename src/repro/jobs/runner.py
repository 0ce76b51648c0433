"""Execute queued jobs with worker processes, retries and resume.

:func:`run_cells` is the single entry point the experiment layer uses.
Without a queue directory it degrades to the plain in-memory
:func:`~repro.core.parallel.run_grid` (the historical path, unchanged
results).  With one, every cell becomes a persistent job:

* cells whose spec fingerprint is already ``done`` in the queue are
  **skipped** and their stored results returned (resume);
* the remainder run through ``run_grid`` (so ``workers=N`` trains that
  many cells in parallel, exactly like the non-queued path), each
  wrapped in a retry loop with exponential backoff;
* results and state transitions are written atomically by the parent as
  cells complete, so a ``kill -9`` at any moment loses at most the
  cells that were mid-flight — and those are reset to pending at the
  next start.

A job gets :data:`DEFAULT_MAX_ATTEMPTS` attempts, with a backoff of
:data:`DEFAULT_BACKOFF_S` seconds doubled per retry.  One environment
knob (see EXPERIMENTS.md): ``REPRO_JOBS_MAX_CELLS`` processes at most
this many jobs in one invocation, then stops with the rest pending.  It
exists for interruption testing (a deterministic "kill") and for
time-boxing a slice of a large grid; the next invocation resumes where
this one stopped.

Because a job's result is JSON (written through
:func:`~repro.jobs.queue.jsonify`, which is lossless for the float64
values the tables report), a resumed grid's rows are bit-identical to
an uninterrupted run's: completed cells replay from disk, fresh cells
recompute from the same pinned per-cell seed material.
"""

from __future__ import annotations

import time
import traceback
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.parallel import run_grid
from repro.errors import JobError
from repro.jobs.queue import DONE, FAILED, PENDING, JobQueue
from repro.obs import events as obs_events
from repro.obs import log as obs_log
from repro.obs.trace import span
from repro.utils.env import env_number

_log = obs_log.get_logger("repro.jobs")

DEFAULT_MAX_ATTEMPTS = 2
DEFAULT_BACKOFF_S = 0.05


def _attempt_job(args):
    """Run one job payload with in-worker retries (module-level: pickles).

    Returns ``(ok, value, attempts, duration_s)`` where ``value`` is the
    cell result on success or ``(error_type, message, traceback)`` on
    terminal failure.  Retrying inside the worker keeps the parent's
    ``imap`` streaming and makes the backoff local to the failing cell.
    Each retry emits a ``cell.retry`` run event (the executing process
    carries the run context, whether it is the parent or a pool worker).
    """
    fn, payload, max_attempts, backoff_s, job_id = args
    start = time.perf_counter()
    failure = None
    for attempt in range(1, max_attempts + 1):
        try:
            result = fn(payload)
            return True, result, attempt, time.perf_counter() - start
        except Exception as exc:  # noqa: BLE001 - recorded, not swallowed
            failure = (
                type(exc).__name__,
                str(exc),
                traceback.format_exc(limit=20),
            )
            if attempt < max_attempts:
                obs_events.emit(
                    "cell.retry",
                    job_id=job_id,
                    attempt=attempt,
                    error_type=failure[0],
                )
                if backoff_s > 0:
                    time.sleep(backoff_s * (2 ** (attempt - 1)))
    return False, failure, max_attempts, time.perf_counter() - start


def _outcome_duration(outcome) -> float:
    """The in-worker wall clock of an ``_attempt_job`` outcome tuple.

    Feeds the grid's stall detector with true per-cell durations instead
    of inter-completion gaps.
    """
    return outcome[3]


class JobRunner:
    """Drive a :class:`~repro.jobs.queue.JobQueue` to completion."""

    def __init__(
        self,
        queue: JobQueue,
        workers: int = 1,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        backoff_s: float = DEFAULT_BACKOFF_S,
        max_jobs: Optional[int] = None,
    ):
        self.queue = queue
        self.workers = workers
        if max_jobs is None:
            max_jobs = env_number(
                "REPRO_JOBS_MAX_CELLS", None, error=JobError, minimum=1
            )
        self.max_attempts = max_attempts
        self.backoff_s = backoff_s
        self.max_jobs = max_jobs

    def run(
        self,
        fn: Callable,
        job_payloads: Dict[str, object],
        label: str = "jobs",
    ) -> Dict[str, int]:
        """Execute every non-done job that has a payload.

        ``job_payloads`` maps job id -> payload (all submitted cells,
        rebuilt by the caller on every invocation — payload
        reconstruction is deterministic and cheap next to the training
        it saves).  Returns the final status counts.
        """
        self.queue.reset_interrupted()
        todo: List[str] = []
        for record in self.queue.jobs():
            job_id = record["job_id"]
            if job_id not in job_payloads:
                continue  # a job from another slice of this queue
            if record["status"] == DONE:
                continue
            todo.append(job_id)
        skipped_cap = 0
        if self.max_jobs is not None and len(todo) > self.max_jobs:
            skipped_cap = len(todo) - self.max_jobs
            todo = todo[: self.max_jobs]
        done_already = sum(
            1 for r in self.queue.jobs()
            if r["job_id"] in job_payloads and r["status"] == DONE
        )
        _log.info(
            f"{label}.plan",
            total=len(job_payloads),
            completed=done_already,
            to_run=len(todo),
            deferred=skipped_cap,
        )
        obs_events.emit(
            "run.plan",
            label=label,
            total=len(job_payloads),
            completed=done_already,
            to_run=len(todo),
            deferred=skipped_cap,
        )
        if todo:
            # Mark the slice running *before* dispatch: a kill between
            # here and completion leaves honest "running" records that
            # the next invocation resets to pending.
            previous_attempts = {}
            for job_id in todo:
                record = self.queue.load(job_id)
                previous_attempts[job_id] = record["attempts"]
                self.queue.update(
                    job_id, status="running",
                    attempts=record["attempts"],
                )
                obs_events.emit(
                    "cell.start", label=label, job_id=job_id,
                    index=record.get("index"),
                )
            args = [
                (fn, job_payloads[job_id], self.max_attempts, self.backoff_s,
                 job_id)
                for job_id in todo
            ]
            finished = 0

            def _persist_outcome(index: int, outcome) -> None:
                # Runs in the parent, in cell order, as each outcome
                # streams out of the grid — a kill mid-grid keeps every
                # cell completed so far, not just completed invocations.
                nonlocal finished
                job_id = todo[index]
                ok, value, attempts, duration = outcome
                total_attempts = previous_attempts[job_id] + attempts
                if ok:
                    self.queue.mark_done(
                        job_id, value, duration, total_attempts
                    )
                    obs_events.emit(
                        "cell.done", label=label, job_id=job_id,
                        duration_s=round(duration, 4),
                        attempts=total_attempts,
                    )
                else:
                    error_type, message, trace = value
                    self.queue.mark_failed(
                        job_id,
                        error=f"{message}\n{trace}",
                        error_type=error_type,
                        duration_s=duration,
                        attempts=total_attempts,
                    )
                    _log.warning(
                        f"{label}.job_failed",
                        job_id=job_id,
                        error_type=error_type,
                        attempts=total_attempts,
                    )
                    obs_events.emit(
                        "cell.failed", label=label, job_id=job_id,
                        error_type=error_type,
                        duration_s=round(duration, 4),
                        attempts=total_attempts,
                    )
                finished += 1
                obs_events.emit(
                    "queue.depth", label=label,
                    pending=len(todo) - finished,
                    done=done_already + finished,
                    total=len(job_payloads),
                )

            with span(f"{label}.jobs", to_run=len(todo),
                      completed=done_already):
                run_grid(
                    _attempt_job, args, workers=self.workers, label=label,
                    on_result=_persist_outcome,
                    duration_of=_outcome_duration,
                )
        counts = {status: 0 for status in (PENDING, "running", DONE, FAILED)}
        for record in self.queue.jobs():
            if record["job_id"] in job_payloads:
                counts[record["status"]] += 1
        return counts


def bind_run(queue_dir, experiment: str, args: Dict, rng) -> int:
    """Bind an experiment invocation to a queue directory; returns the seed.

    ``rng`` must be ``None`` or an integer seed: a live generator cannot
    be fingerprinted into a resumable run.  ``None`` pins fresh OS
    entropy on first use and replays the pinned value on resume.
    """
    if rng is not None and not isinstance(rng, (int,)):
        raise JobError(
            "resumable runs need an integer seed (or none), got "
            f"{type(rng).__name__}; a live generator cannot be replayed "
            "across invocations"
        )
    queue = JobQueue(queue_dir)
    return queue.bind(experiment, args, rng)


def run_cells(
    fn: Callable,
    payloads: Sequence,
    specs: Optional[Sequence[Dict]] = None,
    workers: int = 1,
    label: str = "grid",
    queue_dir=None,
) -> List:
    """Map ``fn`` over grid cells, optionally through a persistent queue.

    ``queue_dir=None`` is exactly :func:`~repro.core.parallel.run_grid`.
    With a queue directory, ``specs`` (one JSON-able dict per payload)
    fingerprint the cells; completed cells are skipped and replayed from
    disk, fresh cells run with retry/backoff, and the returned rows are
    always the JSON-round-tripped stored results, so an interrupted +
    resumed grid is bit-identical to an uninterrupted one.

    Raises :class:`~repro.errors.JobError` when the grid ends with
    failed or unprocessed cells — after completing everything else, so a
    resume has the most work already banked.
    """
    if queue_dir is None:
        return run_grid(fn, payloads, workers=workers, label=label)
    payloads = list(payloads)
    if specs is None or len(list(specs)) != len(payloads):
        raise JobError(
            f"{label}: queued runs need one spec per payload "
            f"(got {0 if specs is None else len(list(specs))} specs for "
            f"{len(payloads)} payloads)"
        )
    queue = JobQueue(queue_dir)
    job_ids = [
        queue.submit(spec, index=index) for index, spec in enumerate(specs)
    ]
    if len(set(job_ids)) != len(job_ids):
        raise JobError(
            f"{label}: duplicate cell specs — every grid cell must "
            "fingerprint uniquely"
        )
    runner = JobRunner(queue, workers=workers)
    counts = runner.run(
        fn, dict(zip(job_ids, payloads)), label=label
    )
    unfinished = counts[PENDING] + counts["running"]
    if counts[FAILED] or unfinished:
        raise JobError(
            f"{label}: {counts[DONE]}/{len(job_ids)} cells done, "
            f"{counts[FAILED]} failed, {unfinished} not processed; "
            f"resume with the same queue directory ({queue.root}) to "
            "continue"
        )
    return [queue.result(job_id) for job_id in job_ids]
