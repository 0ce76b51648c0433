"""Tests for the micro-batching inference engine."""

import threading
import time

import numpy as np
import pytest

from repro.errors import EngineOverloaded, ServeError, ServeTimeout
from repro.nn import Dense, ReLU, Sequential, Softmax
from repro.serve import MicroBatchEngine, ServeMetrics


def make_model(rng, features=12, classes=3, dtype="float32"):
    model = Sequential([Dense(16), ReLU(), Dense(classes), Softmax()])
    return model.build((features,), rng).compile(dtype=dtype)


class TestCoalescing:
    def test_batched_results_bit_identical_to_unbatched_predict(self, rng):
        """Acceptance: micro-batched output == one unbatched predict call.

        The engine is started *after* submission so all five requests
        coalesce into a single fused predict over their concatenation,
        which must be bit-identical to ``predict_proba`` on the same
        rows in the same order.
        """
        model = make_model(rng)
        x = np.random.default_rng(1).random((40, 12)).astype(np.float32)
        engine = MicroBatchEngine(
            model, max_batch=64, max_wait_ms=50.0, autostart=False
        )
        futures = [engine.submit(x[begin:begin + 8]) for begin in range(0, 40, 8)]
        engine.start()
        batched = np.concatenate([future.result(timeout=10) for future in futures])
        engine.stop()
        unbatched = model.predict_proba(x, batch_size=x.shape[0])
        assert np.array_equal(batched, unbatched)

    def test_rows_routed_to_the_right_request(self, rng):
        model = make_model(rng)
        rows = np.random.default_rng(2).random((10, 12)).astype(np.float32)
        engine = MicroBatchEngine(
            model, max_batch=32, max_wait_ms=50.0, autostart=False
        )
        futures = [engine.submit(rows[i]) for i in range(10)]
        engine.start()
        results = [future.result(timeout=10) for future in futures]
        engine.stop()
        reference = model.predict_proba(rows, batch_size=10)
        for i, result in enumerate(results):
            assert result.shape == (1, 3)
            assert np.allclose(result[0], reference[i], atol=1e-6)

    def test_single_oversized_request_still_served(self, rng):
        model = make_model(rng)
        x = np.random.default_rng(3).random((50, 12)).astype(np.float32)
        with MicroBatchEngine(model, max_batch=8, max_wait_ms=1.0) as engine:
            probabilities = engine.classify(x)
        assert probabilities.shape == (50, 3)

    def test_batch_sizes_recorded(self, rng):
        model = make_model(rng)
        metrics = ServeMetrics()
        x = np.ones((4, 12), dtype=np.float32)
        engine = MicroBatchEngine(
            model, max_batch=64, max_wait_ms=50.0, metrics=metrics,
            autostart=False,
        )
        futures = [engine.submit(x) for _ in range(3)]
        engine.start()
        for future in futures:
            future.result(timeout=10)
        engine.stop()
        snapshot = metrics.snapshot()
        assert snapshot["batches"]["count"] == 1
        assert snapshot["batches"]["max_size"] == 12
        assert snapshot["requests"]["count"] == 3
        assert snapshot["requests"]["rows"] == 12


class TestFlowControl:
    def test_backpressure_raises_engine_overloaded(self, rng):
        model = make_model(rng)
        engine = MicroBatchEngine(
            model, max_batch=4, max_wait_ms=1.0, max_queue=2, autostart=False
        )
        x = np.ones((1, 12), dtype=np.float32)
        engine.submit(x)
        engine.submit(x)
        with pytest.raises(EngineOverloaded, match="queue is full"):
            engine.submit(x)
        assert engine.metrics.snapshot()["requests"]["rejected"] == 1
        engine.start()
        engine.stop()  # drains the two accepted requests

    def test_expired_request_gets_serve_timeout(self, rng):
        model = make_model(rng)
        engine = MicroBatchEngine(
            model, max_batch=4, max_wait_ms=1.0, autostart=False
        )
        x = np.ones((1, 12), dtype=np.float32)
        future = engine.submit(x, timeout_s=0.01)
        time.sleep(0.05)  # deadline passes while the worker is not running
        engine.start()
        with pytest.raises(ServeTimeout):
            future.result(timeout=10)
        assert engine.metrics.snapshot()["requests"]["timeouts"] == 1
        engine.stop()

    def test_stop_without_drain_fails_pending(self, rng):
        model = make_model(rng)
        engine = MicroBatchEngine(model, autostart=False)
        future = engine.submit(np.ones((1, 12), dtype=np.float32))
        engine.stop(drain=False)
        with pytest.raises(ServeError, match="without draining"):
            future.result(timeout=10)

    def test_submit_after_stop_rejected(self, rng):
        model = make_model(rng)
        engine = MicroBatchEngine(model)
        engine.stop()
        with pytest.raises(ServeError, match="stopped"):
            engine.submit(np.ones((1, 12), dtype=np.float32))


class TestValidation:
    def test_wrong_feature_width_rejected(self, rng):
        model = make_model(rng)
        with MicroBatchEngine(model) as engine:
            with pytest.raises(ServeError, match="model expects"):
                engine.submit(np.ones((2, 5), dtype=np.float32))

    def test_empty_request_rejected(self, rng):
        model = make_model(rng)
        with MicroBatchEngine(model) as engine:
            with pytest.raises(ServeError, match="at least one row"):
                engine.submit(np.empty((0, 12), dtype=np.float32))

    def test_unbuilt_model_rejected(self):
        with pytest.raises(ServeError, match="build"):
            MicroBatchEngine(Sequential([Dense(4)]))

    def test_1d_request_is_one_row(self, rng):
        model = make_model(rng)
        with MicroBatchEngine(model) as engine:
            assert engine.classify(np.ones(12, dtype=np.float32)).shape == (1, 3)


class TestKnobs:
    def test_defaults(self, rng):
        engine = MicroBatchEngine(make_model(rng), autostart=False)
        assert engine.max_batch == 256
        assert engine.max_wait_s == pytest.approx(2.0e-3)
        engine.stop()

    def test_explicit_args(self, rng):
        engine = MicroBatchEngine(
            make_model(rng), max_batch=8, max_wait_ms=7.5, autostart=False
        )
        assert engine.max_batch == 8
        assert engine.max_wait_s == pytest.approx(7.5e-3)
        engine.stop()

    def test_invalid_args_rejected(self, rng):
        with pytest.raises(ServeError, match="max_batch"):
            MicroBatchEngine(make_model(rng), max_batch=0, autostart=False)
        with pytest.raises(ServeError, match="max_wait_ms"):
            MicroBatchEngine(make_model(rng), max_wait_ms=-1, autostart=False)


class TestConcurrency:
    def test_many_threads_all_answered_consistently(self, rng):
        model = make_model(rng)
        x = np.random.default_rng(5).random((64, 12)).astype(np.float32)
        reference = model.predict_proba(x, batch_size=64)
        results = {}
        errors = []

        with MicroBatchEngine(model, max_batch=16, max_wait_ms=1.0) as engine:
            def worker(i):
                try:
                    results[i] = engine.classify(x[i:i + 1])
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(exc)

            threads = [
                threading.Thread(target=worker, args=(i,)) for i in range(64)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

        assert not errors
        for i in range(64):
            assert np.allclose(results[i][0], reference[i], atol=1e-5)
