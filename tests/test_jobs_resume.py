"""Resume semantics end-to-end: interrupted grids replay bit-identically."""

import pytest

from repro.errors import JobError
from repro.jobs import JobQueue
from repro.experiments.table2 import run_table2

#: Smallest table2 grid that still has multiple cells to interrupt.
TINY = dict(
    rounds=(3,),
    targets=("hash", "cipher"),
    offline_samples=1000,
    online_samples=300,
    epochs=1,
)


class TestTable2Resume:
    def test_queued_rows_match_plain_rows(self, tmp_path):
        plain = run_table2(rng=13, **TINY)
        queued = run_table2(rng=13, queue_dir=tmp_path, **TINY)
        assert queued["rows"] == plain["rows"]

    def test_interrupt_then_resume_is_bit_identical(self, tmp_path,
                                                    monkeypatch):
        uninterrupted = run_table2(rng=13, **TINY)

        monkeypatch.setenv("REPRO_JOBS_MAX_CELLS", "1")
        with pytest.raises(JobError, match="1 not processed"):
            run_table2(rng=13, queue_dir=tmp_path, **TINY)
        counts = JobQueue(tmp_path).counts()
        assert counts["done"] == 1 and counts["pending"] == 1

        monkeypatch.delenv("REPRO_JOBS_MAX_CELLS")
        resumed = run_table2(rng=13, queue_dir=tmp_path, **TINY)
        assert resumed["rows"] == uninterrupted["rows"]
        # the completed cell was replayed, not recomputed
        assert all(r["attempts"] == 1 for r in JobQueue(tmp_path).jobs())

    def test_resume_with_other_worker_count_is_bit_identical(
        self, tmp_path, monkeypatch
    ):
        # 6-7 rounds keep accuracies below 1, so a cell drawn from a
        # different dataset stream changes its row.
        kwargs = dict(
            rounds=(6, 7),
            targets=("hash",),
            offline_samples=6000,
            online_samples=600,
            epochs=1,
            dtype="float32",
        )
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        uninterrupted = run_table2(rng=11, workers=1, **kwargs)
        assert all(row["measured"] < 1 for row in uninterrupted["rows"])

        monkeypatch.setenv("REPRO_JOBS_MAX_CELLS", "1")
        with pytest.raises(JobError, match="1 not processed"):
            run_table2(rng=11, queue_dir=tmp_path, workers=None, **kwargs)
        monkeypatch.delenv("REPRO_JOBS_MAX_CELLS")
        resumed = run_table2(rng=11, queue_dir=tmp_path, workers=1, **kwargs)
        assert resumed["rows"] == uninterrupted["rows"]

    def test_resume_without_seed_replays_pinned_seed(self, tmp_path):
        first = run_table2(rng=13, queue_dir=tmp_path, **TINY)
        replayed = run_table2(rng=None, queue_dir=tmp_path, **TINY)
        assert replayed["rows"] == first["rows"]

    def test_changed_args_refused(self, tmp_path):
        run_table2(rng=13, queue_dir=tmp_path, **TINY)
        changed = dict(TINY, epochs=2)
        with pytest.raises(JobError, match="refusing to reuse"):
            run_table2(rng=13, queue_dir=tmp_path, **changed)

    def test_generator_rng_refused_for_queued_run(self, tmp_path):
        import numpy as np

        with pytest.raises(JobError, match="integer seed"):
            run_table2(
                rng=np.random.default_rng(0), queue_dir=tmp_path, **TINY
            )

    def test_interrupted_running_records_reset(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS_MAX_CELLS", "1")
        with pytest.raises(JobError):
            run_table2(rng=13, queue_dir=tmp_path, **TINY)
        # simulate a kill mid-cell: force a record back to running
        queue = JobQueue(tmp_path)
        pending = [r for r in queue.jobs() if r["status"] == "pending"]
        queue.update(pending[0]["job_id"], status="running")

        monkeypatch.delenv("REPRO_JOBS_MAX_CELLS")
        resumed = run_table2(rng=13, queue_dir=tmp_path, **TINY)
        assert len(resumed["rows"]) == 2
        assert JobQueue(tmp_path).counts()["done"] == 2
