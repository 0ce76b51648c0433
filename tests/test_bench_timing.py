"""The benchmark harness ``benchmarks/timing.py``: what a sample is."""

import gc
import sys
import threading
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"
sys.path.insert(0, str(BENCH_DIR))

import timing  # noqa: E402
from repro.obs.metrics import quantile  # noqa: E402


class _Calls:
    """A callable that counts its calls and sleeps on the first ``slow``."""

    def __init__(self, slow=0, seconds=0.05):
        self.count = 0
        self.slow = slow
        self.seconds = seconds

    def __call__(self):
        self.count += 1
        if self.count <= self.slow:
            time.sleep(self.seconds)


def test_sample_returns_one_sample_per_round():
    calls = _Calls()
    samples = timing.sample(calls, 5, iterations=3)
    assert len(samples) == 5
    assert all(s >= 0 for s in samples)
    assert calls.count == timing.WARMUP + 5 * 3


def test_warmup_calls_are_not_timed():
    calls = _Calls(slow=timing.WARMUP)
    samples = timing.sample(calls, 4)
    assert calls.count == timing.WARMUP + 4
    assert max(samples) < calls.seconds / 2


def test_gc_is_off_while_timing_and_restored():
    seen = []
    timing.sample(lambda: seen.append(gc.isenabled()), 2)
    assert seen == [False] * (timing.WARMUP + 2)
    assert gc.isenabled()


def test_gc_restored_when_the_timed_function_raises():
    def boom():
        raise RuntimeError("boom")

    assert gc.isenabled()
    with pytest.raises(RuntimeError, match="boom"):
        timing.sample(boom, 3)
    assert gc.isenabled()


def test_gc_left_off_if_it_was_off():
    gc.disable()
    try:
        timing.sample(lambda: None, 2)
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_variants_interleave_block_by_block():
    log = []
    fns = {label: (lambda label=label: log.append(label)) for label in "ab"}
    rounds = 2 * timing.BLOCKS
    samples = timing.sample_interleaved(fns, rounds)
    assert {label: len(s) for label, s in samples.items()} == {
        "a": rounds, "b": rounds
    }
    block = timing.WARMUP + rounds // timing.BLOCKS
    assert log == (["a"] * block + ["b"] * block) * timing.BLOCKS


def test_clients_make_every_call_once_and_time_the_rest():
    seen = []
    lock = threading.Lock()

    def worker(index):
        with lock:
            seen.append(index)

    samples, wall = timing.sample_clients(worker, 40, 4)
    assert sorted(seen) == list(range(40))
    assert len(samples) == 40 - 4 * timing.WARMUP
    assert wall > 0
    assert gc.isenabled()


def test_clients_reraise_a_worker_error():
    def worker(index):
        if index == 5:
            raise ValueError("bad request")

    with pytest.raises(ValueError, match="bad request"):
        timing.sample_clients(worker, 20, 2)
    assert gc.isenabled()


def test_entry_percentiles_are_obs_quantiles():
    samples = [0.004, 0.001, 0.003, 0.010, 0.002, 0.007, 0.005]
    row = timing.entry("x", samples, rows=8)
    assert row["name"] == "x"
    assert row["rounds"] == len(samples)
    assert row["mean_s"] == pytest.approx(sum(samples) / len(samples))
    for key, q in (("p50_s", 50.0), ("p95_s", 95.0), ("p99_s", 99.0)):
        assert row[key] == quantile(samples, q)
    assert row["rows"] == 8


def test_write_report_validates_what_it_writes(tmp_path):
    body = {"benchmarks": [timing.entry("x", [0.001, 0.002])], "extra": 1}
    path = timing.write_report("demo", True, body, tmp_path)
    assert path == tmp_path / "BENCH_demo.json"
    timing.validate_bench_file(path)
    with pytest.raises(ValueError, match="non-empty"):
        timing.write_report("empty", False, {"benchmarks": []}, tmp_path)
