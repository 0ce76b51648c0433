"""Tests for repro.obs.trace: span collection and Chrome-trace export.

The contract under test: spans nest per thread (parent/depth recorded),
survive exceptions without swallowing them, cost a single flag test
when disabled, export as valid Chrome trace-event JSON — and none of
it perturbs training numerics (bit-identical weights with everything
on).
"""

import json
import threading

import numpy as np
import pytest

from nn_helpers import registered_kernels
from repro.errors import ReproError
from repro.obs import log as obs_log
from repro.obs import trace
from repro.utils import cbuild


@pytest.fixture(autouse=True)
def _clean_tracing():
    """Each test starts disabled with an empty buffer and ends that way."""
    trace.disable()
    trace.drain()
    yield
    trace.disable()
    trace.drain()


class TestDisabled:
    def test_span_is_shared_noop(self):
        assert trace.span("a") is trace.span("b")

    def test_noop_collects_nothing(self):
        with trace.span("quiet", attr=1):
            pass
        assert trace.finished_spans() == []

    def test_noop_propagates_exceptions(self):
        with pytest.raises(ValueError):
            with trace.span("quiet"):
                raise ValueError("boom")


class TestCollection:
    def test_span_records_name_and_duration(self):
        trace.enable()
        with trace.span("unit", size=4):
            pass
        (record,) = trace.finished_spans()
        assert record["name"] == "unit"
        assert record["dur_us"] >= 0.0
        assert record["attrs"] == {"size": 4}
        assert record["parent"] is None
        assert record["depth"] == 0

    def test_nesting_records_parent_and_depth(self):
        trace.enable()
        with trace.span("outer"):
            with trace.span("inner"):
                pass
        inner, outer = trace.finished_spans()  # inner closes first
        assert inner["name"] == "inner"
        assert inner["parent"] == "outer"
        assert inner["depth"] == 1
        assert outer["parent"] is None

    def test_exception_is_reraised_and_flagged(self):
        trace.enable()
        with pytest.raises(RuntimeError):
            with trace.span("failing"):
                raise RuntimeError("boom")
        (record,) = trace.finished_spans()
        assert record["error"] == "RuntimeError"

    def test_stack_recovers_after_exception(self):
        trace.enable()
        with pytest.raises(RuntimeError):
            with trace.span("failing"):
                raise RuntimeError("boom")
        with trace.span("after"):
            pass
        after = trace.finished_spans()[-1]
        assert after["parent"] is None and after["depth"] == 0

    def test_drain_empties_buffer(self):
        trace.enable()
        with trace.span("once"):
            pass
        assert len(trace.drain()) == 1
        assert trace.finished_spans() == []

    def test_disable_keeps_collected_spans(self):
        trace.enable()
        with trace.span("kept"):
            pass
        trace.disable()
        assert len(trace.finished_spans()) == 1


class TestThreads:
    def test_threads_keep_independent_stacks(self):
        trace.enable()
        barrier = threading.Barrier(4)

        def work(tag):
            barrier.wait()
            for _ in range(25):
                with trace.span("outer", tag=tag):
                    with trace.span("inner", tag=tag):
                        pass

        threads = [
            threading.Thread(target=work, args=(t,)) for t in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        spans = trace.finished_spans()
        assert len(spans) == 4 * 25 * 2
        inner = [s for s in spans if s["name"] == "inner"]
        # Every inner span nests under its own thread's outer span.
        assert all(s["parent"] == "outer" and s["depth"] == 1 for s in inner)


class TestExport:
    def test_chrome_trace_shape(self):
        trace.enable()
        with trace.span("export", rows=2):
            pass
        doc = trace.chrome_trace()
        (event,) = doc["traceEvents"]
        assert event["ph"] == "X"
        assert event["name"] == "export"
        assert event["args"] == {"rows": 2}
        assert event["dur"] >= 0.0

    def test_dump_writes_valid_json(self, tmp_path):
        trace.enable()
        with trace.span("to_disk"):
            pass
        target = tmp_path / "trace.json"
        written = trace.dump(str(target))
        assert written == str(target)
        doc = json.loads(target.read_text())
        assert doc["traceEvents"][0]["name"] == "to_disk"

    def test_dump_without_path_raises(self, tmp_path):
        trace.enable()  # no path configured
        with trace.span("lost"):
            pass
        with pytest.raises(ReproError):
            trace.dump()


class TestManifest:
    def test_run_with_manifest_writes_result_and_spans(self, tmp_path):
        from repro.experiments.manifest import run_with_manifest

        result, manifest_path = run_with_manifest(
            "complexity", str(tmp_path / "runs")
        )
        manifest = json.loads(manifest_path.read_text())
        assert manifest["experiment"] == "complexity"
        assert manifest["manifest_version"] == 5
        assert manifest["run_id"]
        assert manifest["obs"]["trace_file"] == "trace_merged.json"
        assert manifest["duration_s"] > 0.0
        assert manifest["compute"] == {
            "blas_threads_controllable": manifest["compute"][
                "blas_threads_controllable"],
            "kernels": cbuild.kernels_in_use(),
        }
        names = [s["name"] for s in manifest["spans"]]
        assert "experiment.complexity" in names
        result_path = manifest_path.parent / manifest["result_file"]
        saved = json.loads(result_path.read_text())
        assert saved["experiment"] == result["experiment"]
        # Tracing was only on for the duration of the call.
        assert not trace.is_enabled()


    @pytest.mark.parametrize("name", registered_kernels())
    def test_compute_manifest_names_the_numpy_path(self, name, monkeypatch):
        from repro.experiments.manifest import _compute_manifest

        monkeypatch.setattr(cbuild._KERNELS[name], "get", lambda: None)
        assert _compute_manifest()["kernels"][name] is False


class TestBitIdenticalTraining:
    def test_full_observability_does_not_change_weights(self, monkeypatch, tmp_path):
        """Logging+tracing+profiling on vs everything off: same weights."""
        from repro.nn import Adam, CategoricalCrossentropy, Dense, ReLU, Sequential

        rng = np.random.default_rng(3)
        x = (rng.random((96, 16)) > 0.5).astype(np.float64)
        y = rng.integers(0, 2, 96)

        def train():
            model = Sequential([Dense(8), ReLU(), Dense(2)])
            model.build((16,), rng=0)
            model.compile(loss=CategoricalCrossentropy(), optimizer=Adam())
            model.fit(x, y, epochs=3, batch_size=32, rng=11, verbose=True)
            return [p.copy() for p in model._gather()[0]]

        import io

        saved_mode, saved_threshold = obs_log._mode, obs_log._threshold
        try:
            obs_log.configure(mode="off")
            monkeypatch.delenv("REPRO_PROFILE", raising=False)
            baseline = train()

            obs_log.configure(
                mode="json", level="debug", stream=io.StringIO()
            )
            monkeypatch.setenv("REPRO_PROFILE", "1")
            trace.enable()
            monkeypatch.setattr("builtins.print", lambda *a, **k: None)
            instrumented = train()
        finally:
            obs_log._mode, obs_log._threshold = saved_mode, saved_threshold

        assert len(baseline) == len(instrumented)
        for before, after in zip(baseline, instrumented):
            np.testing.assert_array_equal(before, after)
