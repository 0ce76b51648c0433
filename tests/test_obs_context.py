"""Tests for cross-process telemetry: context propagation, flush, merge.

The contract under test: a grid run with ``workers=N`` leaves the same
*set* of cell spans in the merged Chrome trace as ``workers=1`` (only
the owning process differs), and merging the same sink files twice is
byte-identical — the merge is a pure function of the sinks.
"""

import json
import time

from repro.core import parallel
from repro.core.parallel import run_grid
from repro.obs import agg as obs_agg
from repro.obs import context as obs_context
from repro.obs import events as obs_events
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace


def _traced_cell(payload):
    with obs_trace.span("t.cell", cell=payload):
        obs_metrics.REGISTRY.counter("t_cells_total").inc()
        return payload * 2


def _run_grid_once(run_dir, workers):
    """One observed grid over three cells; returns the merge summary."""
    obs_trace.enable()
    obs_trace.drain()
    try:
        with obs_context.run_context(run_dir, trace=True) as ctx:
            results = run_grid(
                _traced_cell, [1, 2, 3], workers=workers, label="t"
            )
            obs_context.flush_main(obs_trace.drain(), ctx=ctx)
            summary = obs_agg.merge_run(run_dir)
    finally:
        obs_trace.drain()
        obs_trace.disable()
    return results, summary


def _cell_span_set(run_dir):
    doc = json.loads((run_dir / obs_agg.TRACE_MERGED).read_text())
    return {
        (event["name"], event["args"].get("cell"))
        for event in doc["traceEvents"]
        if event.get("ph") == "X" and event["name"] == "t.cell"
    }


class TestContext:
    def test_run_context_binds_and_restores(self, tmp_path):
        assert obs_context.current() is None
        with obs_context.run_context(tmp_path) as ctx:
            assert obs_context.current() is ctx
            assert ctx.origin_pid > 0
            with obs_context.run_context(tmp_path / "inner") as inner:
                assert obs_context.current() is inner
            assert obs_context.current() is ctx
        assert obs_context.current() is None

    def test_run_ids_are_unique(self, tmp_path):
        ids = {obs_context.new_run_id() for _ in range(32)}
        assert len(ids) == 32

    def test_ensure_worker_noop_in_origin_process(self, tmp_path):
        import os

        ctx = obs_context.RunContext(
            run_id="r", run_dir=str(tmp_path), origin_pid=os.getpid()
        )
        assert obs_context.ensure_worker(ctx) is False
        assert obs_context.ensure_worker(None) is False

    def test_flush_main_writes_spans_and_metrics(self, tmp_path):
        ctx = obs_context.RunContext(
            run_id="r", run_dir=str(tmp_path), origin_pid=0
        )
        registry = obs_metrics.MetricsRegistry()
        registry.counter("t_total").inc(3)
        spans = [{"name": "a.cell", "start_us": 1.0, "dur_us": 2.0}]
        obs_context._flush(ctx, "main", spans, registry)
        sink = obs_context.obs_dir(tmp_path)
        span_files = list(sink.glob("main-*.spans.jsonl"))
        metric_files = list(sink.glob("main-*.metrics.json"))
        assert len(span_files) == 1 and len(metric_files) == 1
        record = json.loads(span_files[0].read_text().splitlines()[0])
        assert record["name"] == "a.cell"
        assert record["role"] == "main"
        assert record["run_id"] == "r"
        dump = json.loads(metric_files[0].read_text())
        assert dump["series"][0]["name"] == "t_total"


class TestCrossProcessMerge:
    def test_worker_spans_reach_merged_trace(self, tmp_path):
        _, summary = _run_grid_once(tmp_path, workers=2)
        assert summary["spans"] >= 3
        roles = {label.split("-")[0] for label in summary["processes"]}
        assert "worker" in roles

    def test_workers1_and_workers2_same_cell_span_set(self, tmp_path):
        serial_dir = tmp_path / "serial"
        pool_dir = tmp_path / "pool"
        serial_dir.mkdir()
        pool_dir.mkdir()
        results_serial, _ = _run_grid_once(serial_dir, workers=1)
        results_pool, _ = _run_grid_once(pool_dir, workers=2)
        assert results_serial == results_pool == [2, 4, 6]
        assert _cell_span_set(serial_dir) == _cell_span_set(pool_dir) == {
            ("t.cell", 1), ("t.cell", 2), ("t.cell", 3)
        }

    def test_double_merge_is_byte_stable(self, tmp_path):
        _run_grid_once(tmp_path, workers=2)
        first_trace = (tmp_path / obs_agg.TRACE_MERGED).read_bytes()
        first_prom = (tmp_path / obs_agg.METRICS_MERGED).read_bytes()
        obs_agg.merge_run(tmp_path)
        assert (tmp_path / obs_agg.TRACE_MERGED).read_bytes() == first_trace
        assert (tmp_path / obs_agg.METRICS_MERGED).read_bytes() == first_prom


class TestMetricsMerge:
    def _write_dump(self, tmp_path, pid, build):
        registry = obs_metrics.MetricsRegistry()
        build(registry)
        dump = registry.dump()
        dump.update(pid=pid, role="worker", run_id="r")
        sink = obs_context.obs_dir(tmp_path)
        sink.mkdir(parents=True, exist_ok=True)
        (sink / f"worker-{pid}.metrics.json").write_text(
            json.dumps(dump, sort_keys=True) + "\n"
        )

    def test_counters_sum_gauges_max_histograms_sum(self, tmp_path):
        def build_a(registry):
            registry.counter("cells_total").inc(3)
            registry.gauge("depth").set(5)
            registry.histogram("cell_seconds").observe(0.1)

        def build_b(registry):
            registry.counter("cells_total").inc(4)
            registry.gauge("depth").set(2)
            registry.histogram("cell_seconds").observe(0.2)
            registry.histogram("cell_seconds").observe(0.3)

        self._write_dump(tmp_path, 100, build_a)
        self._write_dump(tmp_path, 200, build_b)
        _, series = obs_agg.merge_metrics(tmp_path)
        by_name = {entry["name"]: entry for entry in series}
        assert by_name["cells_total"]["value"] == 7.0
        assert by_name["depth"]["value"] == 5.0
        assert by_name["cell_seconds"]["count"] == 3
        assert abs(by_name["cell_seconds"]["sum"] - 0.6) < 1e-9
        text = (tmp_path / obs_agg.METRICS_MERGED).read_text()
        assert "cells_total 7" in text
        assert "cell_seconds_count 3" in text

    def test_kind_conflict_refuses_to_merge(self, tmp_path):
        import pytest

        from repro.errors import ReproError

        self._write_dump(
            tmp_path, 100, lambda r: r.counter("x_total").inc()
        )
        self._write_dump(
            tmp_path, 200, lambda r: r.gauge("x_total").set(1)
        )
        with pytest.raises(ReproError):
            obs_agg.merge_metrics(tmp_path)

    def test_torn_span_line_is_skipped(self, tmp_path):
        sink = obs_context.obs_dir(tmp_path)
        sink.mkdir(parents=True)
        good = json.dumps({"name": "ok.cell", "start_us": 1, "dur_us": 1,
                           "pid": 9, "role": "worker"})
        (sink / "worker-9.spans.jsonl").write_text(
            good + "\n" + '{"name": "torn'
        )
        spans = obs_agg.read_span_files(tmp_path)
        assert [s["name"] for s in spans] == ["ok.cell"]


def _slow_then_fast(seconds):
    time.sleep(seconds)
    return seconds


class TestStallDetection:
    def test_stall_event_emitted_for_outlier_cell(self, tmp_path, monkeypatch):
        monkeypatch.setattr(parallel, "STALL_FACTOR", 2.0)
        monkeypatch.setattr(parallel, "STALL_POLL_S", 0.1)
        payloads = [0.02, 0.02, 0.02, 1.2]
        with obs_context.run_context(tmp_path, trace=False):
            run_grid(_slow_then_fast, payloads, workers=2, label="t")
        stalls = obs_events.read_events(tmp_path, event="cell.stall")
        assert stalls, "the 1.2s outlier cell should trip the detector"
        assert stalls[0]["label"] == "t"
        assert stalls[0]["waiting_s"] > 0
