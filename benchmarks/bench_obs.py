"""Observability overhead harness: writes ``BENCH_obs.json``.

Answers the one question the obs layer must keep answerable: *what does
instrumentation cost?*  Two headline entries time the paper's MLP III
compiled float32 train step (same shape as the ``BENCH_nn_ops.json``
rows) with observability fully **off** versus fully **on** (JSON
logging to a null sink, tracing enabled, the per-layer profiler
attached, a span plus a debug log line per step).  The off entry is the
<2% acceptance gate against the nn_ops baseline; the on entry bounds
the worst-case cost of running fully instrumented.

A set of micro entries then times the individual primitives (disabled
log call, JSON log line, disabled span, enabled span, counter
increment, histogram observation) so a regression can be attributed to
one pillar rather than "obs got slower".  Two aggregation entries time
the cross-process path: one worker flush (per-pid spans append +
atomic metrics dump) and the deterministic merge of a 16-cell grid's
sinks into ``trace_merged.json`` / ``metrics_merged.prom``.

Usage::

    PYTHONPATH=src python benchmarks/bench_obs.py [--quick] [--output-dir DIR]
"""

from __future__ import annotations

import io
import json
import time
from pathlib import Path

import numpy as np

import timing


class _NullStream(io.TextIOBase):
    """A text sink that swallows writes (keeps log cost, drops the I/O)."""

    def write(self, text):  # noqa: A003 - io.TextIOBase signature
        return len(text)


def _build_model():
    from repro.nn import Adam, CategoricalCrossentropy
    from repro.nn.architectures import mlp_iii

    model = mlp_iii()
    model.build((128,), rng=0)
    model.compile(loss=CategoricalCrossentropy(), optimizer=Adam(), dtype="float32")
    return model


def _train_batch(rng):
    from repro.nn.losses import one_hot

    x = (rng.random((256, 128)) > 0.5).astype(np.float32)
    y = one_hot(rng.integers(0, 2, 256), 2).astype(np.float32)
    return x, y


def run(quick: bool) -> dict:
    from repro.obs import log as obs_log
    from repro.obs import metrics as obs_metrics
    from repro.obs import profile as obs_profile
    from repro.obs import trace as obs_trace

    rng = np.random.default_rng(0x0B5)
    rounds = 3 if quick else 7
    step_iters = 2 if quick else 10
    micro_iters = 2_000 if quick else 50_000

    benchmarks = []

    # -- headline: MLP III compiled float32 train step -------------------
    model = _build_model()
    x, y = _train_batch(rng)

    # Off: the default state — log off, no trace, no profiler.
    obs_log.configure(mode="off")
    obs_trace.disable()
    samples = timing.sample(
        lambda: model.train_on_batch(x, y), rounds, step_iters
    )
    benchmarks.append(
        timing.entry("obs_off_mlp_iii_train_step[batch=256,float32]", samples)
    )

    # On: every pillar at once — JSON log line + enabled span per step,
    # per-layer profiler timing every forward/backward, live histogram.
    sink = _NullStream()
    obs_log.configure(mode="json", level="debug", stream=sink)
    obs_trace.enable()
    model._profiler = obs_profile.LayerProfiler()
    logger = obs_log.get_logger("bench.obs")
    registry = obs_metrics.MetricsRegistry()
    step_seconds = registry.histogram("bench_step_seconds")

    def instrumented_step():
        with obs_trace.span("bench.step", batch=256):
            start = time.perf_counter()
            loss_value = model.train_on_batch(x, y)
            step_seconds.observe(time.perf_counter() - start)
            logger.debug("bench.step", loss=float(loss_value))

    samples = timing.sample(instrumented_step, rounds, step_iters)
    benchmarks.append(
        timing.entry("obs_on_mlp_iii_train_step[batch=256,float32]", samples)
    )
    model._profiler = None
    obs_trace.drain()

    # -- micro: per-primitive costs ---------------------------------------
    obs_log.configure(mode="off")
    off_logger = obs_log.get_logger("bench.obs.off")
    samples = timing.sample(
        lambda: off_logger.debug("noop", value=1), rounds, micro_iters
    )
    benchmarks.append(timing.entry("obs_log_disabled_call", samples))

    obs_log.configure(mode="json", level="debug", stream=sink)
    samples = timing.sample(
        lambda: logger.debug("line", value=1.0, label="x"), rounds, micro_iters
    )
    benchmarks.append(timing.entry("obs_log_json_line", samples))

    obs_trace.disable()

    def disabled_span():
        with obs_trace.span("noop"):
            pass

    samples = timing.sample(disabled_span, rounds, micro_iters)
    benchmarks.append(timing.entry("obs_span_disabled", samples))

    obs_trace.enable()

    def enabled_span():
        with obs_trace.span("bench.micro"):
            pass

    samples = []
    for _ in range(rounds):
        obs_trace.drain()  # keep the buffer off its cap between rounds
        samples += timing.sample(enabled_span, 1, micro_iters)
    benchmarks.append(timing.entry("obs_span_enabled", samples))
    obs_trace.drain()
    obs_trace.disable()

    counter = registry.counter("bench_counter_total")
    samples = timing.sample(counter.inc, rounds, micro_iters)
    benchmarks.append(timing.entry("obs_counter_inc", samples))

    histogram = registry.histogram("bench_histogram_seconds")
    samples = timing.sample(
        lambda: histogram.observe(0.0042), rounds, micro_iters
    )
    benchmarks.append(timing.entry("obs_histogram_observe", samples))

    obs_log.configure(mode="off")

    # -- aggregation path: worker flush + 16-cell merge --------------------
    benchmarks.extend(_aggregation_entries(rounds))

    return {"benchmarks": benchmarks}


def _aggregation_entries(rounds: int):
    """Cost of the cross-process path: one worker flush, one grid merge.

    The flush entry is what every pool worker pays once per cell batch
    (spans JSONL append + atomic metrics dump); the merge entry is the
    parent's end-of-run cost of collating a 16-cell grid's worth of
    sinks (4 worker processes, 4 cells each) plus the event bus into
    ``trace_merged.json`` / ``metrics_merged.prom``.
    """
    import shutil
    import tempfile

    from repro.obs import agg as obs_agg
    from repro.obs import context as obs_context
    from repro.obs import events as obs_events
    from repro.obs import metrics as obs_metrics

    spans_per_flush = 32
    entries = []

    def make_spans(count, pid):
        return [
            {
                "name": "bench.cell",
                "start_us": 1_000 * i,
                "dur_us": 900,
                "tid": 1,
                "pid": pid,
                "attrs": {"cell": i},
            }
            for i in range(count)
        ]

    def make_registry():
        registry = obs_metrics.MetricsRegistry()
        registry.counter("bench_cells_total").inc(4)
        registry.histogram("bench_cell_seconds").observe(0.9)
        return registry

    # Worker flush: spans append + metrics dump into a fresh run dir.
    flush_dir = Path(tempfile.mkdtemp(prefix="bench-obs-flush-"))
    try:
        ctx = obs_context.RunContext(
            run_id="bench", run_dir=str(flush_dir), origin_pid=0
        )
        spans = make_spans(spans_per_flush, pid=1000)
        registry = make_registry()
        samples = timing.sample(
            lambda: obs_context._flush(ctx, "worker", spans, registry),
            rounds,
            5,
        )
        entries.append(
            timing.entry(f"obs_worker_flush[spans={spans_per_flush}]", samples)
        )
    finally:
        shutil.rmtree(flush_dir, ignore_errors=True)

    # Merge: 4 workers x 4 cells + a main process + an event bus.  Sink
    # files are synthesized directly (one per fake pid) because a real
    # ``_flush`` names files after *this* process's pid.
    merge_dir = Path(tempfile.mkdtemp(prefix="bench-obs-merge-"))
    try:
        sink = obs_context.obs_dir(merge_dir)
        sink.mkdir(parents=True, exist_ok=True)

        def write_process(role, pid, cells):
            lines = "".join(
                json.dumps(
                    {**record, "role": role, "run_id": "bench"},
                    sort_keys=True,
                ) + "\n"
                for record in make_spans(cells, pid)
            )
            (sink / f"{role}-{pid}.spans.jsonl").write_text(lines)
            dump = make_registry().dump()
            dump.update(pid=pid, role=role, run_id="bench")
            (sink / f"{role}-{pid}.metrics.json").write_text(
                json.dumps(dump, sort_keys=True) + "\n"
            )

        write_process("main", 1, 4)
        for worker in range(4):
            write_process("worker", 2000 + worker, 4)
        for i in range(16):
            obs_events.emit(
                "cell.done", run_dir=merge_dir, job_id=f"cell{i}",
                duration_s=0.9,
            )
        samples = timing.sample(
            lambda: obs_agg.merge_run(merge_dir), rounds, 5
        )
        entries.append(timing.entry("obs_merge_16cell_grid", samples))
    finally:
        shutil.rmtree(merge_dir, ignore_errors=True)
    return entries


if __name__ == "__main__":
    raise SystemExit(timing.main("obs", run))
