"""Tests for the persistent job queue and runner (:mod:`repro.jobs`)."""

import json
import os

import numpy as np
import pytest

from repro.errors import JobError
from repro.jobs import JobQueue, bind_run, run_cells
from repro.jobs.queue import jsonify, spec_fingerprint
from repro.jobs.runner import DEFAULT_MAX_ATTEMPTS


def _double(payload):
    return {"value": payload["value"] * 2}


def _flaky(payload):
    """Fail until a marker file exists (created on the first attempt)."""
    marker = payload["marker"]
    if not os.path.exists(marker):
        with open(marker, "w", encoding="utf-8") as handle:
            handle.write("attempted")
        raise RuntimeError("transient failure")
    return {"value": payload["value"]}


def _always_fails(payload):
    raise ValueError(f"cell {payload['value']} is broken")


class TestJsonify:
    def test_numpy_scalars_are_lossless(self):
        value = np.float64(0.1234567890123456789)
        assert jsonify(value) == value.item()
        assert json.loads(json.dumps(jsonify(value))) == value.item()

    def test_arrays_and_nesting(self):
        out = jsonify({"a": np.arange(3, dtype=np.uint8), "b": (1, np.int64(2))})
        assert out == {"a": [0, 1, 2], "b": [1, 2]}

    def test_unserialisable_rejected(self):
        with pytest.raises(JobError):
            jsonify({"fn": _double})


class TestFingerprint:
    def test_stable_across_key_order(self):
        a = spec_fingerprint({"rounds": 3, "target": "hash"})
        b = spec_fingerprint({"target": "hash", "rounds": 3})
        assert a == b

    def test_distinct_specs_distinct_ids(self):
        a = spec_fingerprint({"rounds": 3})
        b = spec_fingerprint({"rounds": 4})
        assert a != b

    def test_numpy_values_fingerprint_like_python(self):
        a = spec_fingerprint({"rounds": np.int64(3)})
        b = spec_fingerprint({"rounds": 3})
        assert a == b


class TestQueue:
    def test_submit_is_idempotent(self, tmp_path):
        queue = JobQueue(tmp_path)
        first = queue.submit({"rounds": 3}, index=0)
        queue.update(first, status="done")
        second = queue.submit({"rounds": 3}, index=0)
        assert first == second
        assert queue.load(first)["status"] == "done"

    def test_lifecycle_and_result_roundtrip(self, tmp_path):
        queue = JobQueue(tmp_path)
        job_id = queue.submit({"rounds": 3})
        assert queue.load(job_id)["status"] == "pending"
        queue.update(job_id, status="running")
        row = {"accuracy": 0.9171582031249999, "rounds": 3}
        queue.mark_done(job_id, row, duration_s=0.5, attempts=1)
        record = queue.load(job_id)
        assert record["status"] == "done"
        assert record["attempts"] == 1
        # exact float round-trip through JSON
        assert queue.result(job_id) == row

    def test_result_of_unfinished_job_refused(self, tmp_path):
        queue = JobQueue(tmp_path)
        job_id = queue.submit({"rounds": 3})
        with pytest.raises(JobError):
            queue.result(job_id)

    def test_unknown_status_rejected(self, tmp_path):
        queue = JobQueue(tmp_path)
        job_id = queue.submit({"rounds": 3})
        with pytest.raises(JobError):
            queue.update(job_id, status="exploded")

    def test_reset_interrupted(self, tmp_path):
        queue = JobQueue(tmp_path)
        job_id = queue.submit({"rounds": 3})
        queue.update(job_id, status="running", attempts=2)
        assert queue.reset_interrupted() == 1
        record = queue.load(job_id)
        assert record["status"] == "pending"
        assert record["attempts"] == 2  # interrupted attempts still count

    def test_counts(self, tmp_path):
        queue = JobQueue(tmp_path)
        queue.submit({"rounds": 3})
        done = queue.submit({"rounds": 4})
        queue.mark_done(done, {"x": 1}, 0.1, 1)
        assert queue.counts() == {
            "pending": 1, "running": 0, "done": 1, "failed": 0,
        }


class TestBind:
    def test_bind_pins_and_replays_seed(self, tmp_path):
        seed = bind_run(tmp_path, "table2", {"rounds": [3]}, 17)
        assert seed == 17
        # resume without a seed replays the pinned one
        assert bind_run(tmp_path, "table2", {"rounds": [3]}, None) == 17

    def test_bind_none_seed_pins_entropy(self, tmp_path):
        first = bind_run(tmp_path, "table2", {}, None)
        assert bind_run(tmp_path, "table2", {}, None) == first

    def test_arg_mismatch_refused(self, tmp_path):
        bind_run(tmp_path, "table2", {"rounds": [3]}, 17)
        with pytest.raises(JobError):
            bind_run(tmp_path, "table2", {"rounds": [4]}, 17)

    def test_experiment_mismatch_refused(self, tmp_path):
        bind_run(tmp_path, "table2", {}, 17)
        with pytest.raises(JobError):
            bind_run(tmp_path, "table3", {}, 17)

    def test_seed_mismatch_refused(self, tmp_path):
        bind_run(tmp_path, "table2", {}, 17)
        with pytest.raises(JobError):
            bind_run(tmp_path, "table2", {}, 18)

    def test_generator_rng_refused(self, tmp_path):
        with pytest.raises(JobError):
            bind_run(tmp_path, "table2", {}, np.random.default_rng(0))


class TestRunCells:
    def _specs(self, n):
        return [{"experiment": "demo", "value": i} for i in range(n)]

    def test_plain_path_without_queue(self):
        payloads = [{"value": i} for i in range(3)]
        rows = run_cells(_double, payloads, specs=None)
        assert rows == [{"value": 0}, {"value": 2}, {"value": 4}]

    def test_queued_run_and_replay(self, tmp_path):
        payloads = [{"value": i} for i in range(3)]
        rows = run_cells(
            _double, payloads, specs=self._specs(3), queue_dir=tmp_path
        )
        assert rows == [{"value": 0}, {"value": 2}, {"value": 4}]
        # second invocation replays everything from disk
        replayed = run_cells(
            _double, payloads, specs=self._specs(3), queue_dir=tmp_path
        )
        assert replayed == rows
        assert all(r["attempts"] == 1 for r in JobQueue(tmp_path).jobs())

    def test_missing_specs_rejected(self, tmp_path):
        with pytest.raises(JobError):
            run_cells(_double, [{"value": 0}], specs=None, queue_dir=tmp_path)

    def test_duplicate_specs_rejected(self, tmp_path):
        payloads = [{"value": 0}, {"value": 1}]
        specs = [{"experiment": "demo"}, {"experiment": "demo"}]
        with pytest.raises(JobError):
            run_cells(_double, payloads, specs=specs, queue_dir=tmp_path)

    def test_retry_recovers_transient_failure(self, tmp_path):
        marker = tmp_path / "marker"
        payloads = [{"value": 7, "marker": str(marker)}]
        rows = run_cells(
            _flaky, payloads, specs=self._specs(1),
            queue_dir=tmp_path / "q",
        )
        assert rows == [{"value": 7}]
        (record,) = JobQueue(tmp_path / "q").jobs()
        assert record["status"] == "done"
        assert record["attempts"] == 2

    def test_failing_cell_records_error_and_attempts(self, tmp_path):
        payloads = [{"value": 0}, {"value": 1}]
        with pytest.raises(JobError, match="1 failed"):
            run_cells(
                lambda p: (_always_fails(p) if p["value"] == 1
                           else _double(p)),
                payloads, specs=self._specs(2), queue_dir=tmp_path,
            )
        records = {r["spec"]["value"]: r for r in JobQueue(tmp_path).jobs()}
        assert records[0]["status"] == "done"
        failed = records[1]
        assert failed["status"] == "failed"
        assert failed["attempts"] == DEFAULT_MAX_ATTEMPTS
        assert failed["error_type"] == "ValueError"
        assert "cell 1 is broken" in failed["error"]

    def test_max_cells_caps_one_invocation(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS_MAX_CELLS", "2")
        payloads = [{"value": i} for i in range(4)]
        with pytest.raises(JobError, match="2 not processed"):
            run_cells(_double, payloads, specs=self._specs(4),
                      queue_dir=tmp_path)
        assert JobQueue(tmp_path).counts()["done"] == 2
        monkeypatch.delenv("REPRO_JOBS_MAX_CELLS")
        rows = run_cells(_double, payloads, specs=self._specs(4),
                         queue_dir=tmp_path)
        assert rows == [{"value": 2 * i} for i in range(4)]
