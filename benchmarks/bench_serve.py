"""Load harness for the serving subsystem: writes ``BENCH_serve.json``.

Serving performance is a concurrency property -- p50/p95/p99 latency
under parallel clients, sustained throughput, and how well the engine
coalesces micro-batches.  This harness therefore drives a real
:class:`ServeServer` on a loopback port (plus the engine directly, to
isolate HTTP overhead) with closed-loop client threads
(:func:`timing.sample_clients`), and times the decode of one 512-row
online-phase request body on its own.  Each row carries serving extras
on the shared schema (``throughput_rps``, and for the classify rows the
batch-size histogram and max queue depth); ``check_regression.py``
gates on the mean latency exactly as it does for the other suites.

Usage::

    PYTHONPATH=src python benchmarks/bench_serve.py [--quick] [--output-dir DIR]
"""

from __future__ import annotations

import json
import tempfile

import numpy as np

import timing


def _closed_loop_row(name, worker, requests, threads, metrics=None):
    """Drive ``worker`` closed-loop and return its row; ``metrics`` (a
    :class:`ServeMetrics`) adds the batch and queue extras."""
    samples, wall = timing.sample_clients(worker, requests, threads)
    extras = {"throughput_rps": len(samples) / wall}
    if metrics is not None:
        snapshot = metrics.snapshot()
        extras["batch_size_histogram"] = snapshot["batches"]["size_histogram"]
        extras["mean_batch_size"] = snapshot["batches"]["mean_size"]
        extras["max_queue_depth"] = snapshot["queue"]["max_depth"]
    return timing.entry(name, samples, **extras)


def run(quick: bool) -> dict:
    from repro import GimliHashScenario
    from repro.nn.architectures import build_mlp
    from repro.serve import (
        MicroBatchEngine,
        ModelRegistry,
        ServeClient,
        ServeMetrics,
        ServeServer,
    )

    rng = np.random.default_rng(0xBEEF)
    # --quick only sends fewer requests: same model and client count,
    # hence the same entry names, so it gates against the full baseline.
    widths = [128, 256]
    requests = 60 if quick else 400
    threads = 8
    rows = 8

    scenario = GimliHashScenario(rounds=6)
    model = build_mlp(widths).build((scenario.feature_bits,), rng)
    model.compile(dtype="float32")
    queries = rng.random((requests, rows, scenario.feature_bits)).astype(
        np.float32
    )
    benchmarks = []

    # 0. Request-body decode: one 512-row /v1/distinguish body of integer
    # features, as the online phase posts it, through the server's decoder.
    from repro.serve.body import decode_body

    decode_rows = 512
    raw = json.dumps({
        "model": "bench",
        "session": "s00000001",
        "features": rng.integers(
            0, 2, (decode_rows, scenario.feature_bits)).tolist(),
        "labels": rng.integers(0, 2, decode_rows).tolist(),
    }).encode()
    benchmarks.append(
        _closed_loop_row(
            f"serve_decode_body[rows={decode_rows}]",
            lambda i: decode_body(raw),
            requests,
            1,
        )
    )

    # 1. Engine direct: micro-batching + fused predict, no HTTP.
    engine_metrics = ServeMetrics()
    engine = MicroBatchEngine(model, metrics=engine_metrics)
    try:
        benchmarks.append(
            _closed_loop_row(
                f"serve_engine_classify[rows={rows},threads={threads}]",
                lambda i: engine.classify(queries[i]),
                requests,
                threads,
                engine_metrics,
            )
        )
    finally:
        engine.stop()

    with tempfile.TemporaryDirectory() as registry_root:
        registry = ModelRegistry(registry_root)
        registry.register(
            model,
            "bench",
            scenario=scenario,
            report={
                "validation_accuracy": 0.8,
                "training_accuracy": 0.8,
                "num_samples": 0,
                "num_classes": scenario.num_classes,
            },
        )
        with ServeServer(registry) as server:
            client = ServeClient(server.url)

            # 2. HTTP classify end to end.
            payloads = [q.tolist() for q in queries]
            benchmarks.append(
                _closed_loop_row(
                    f"serve_http_classify[rows={rows},threads={threads}]",
                    lambda i: client.classify("bench", payloads[i]),
                    requests,
                    threads,
                    server.service.metrics,
                )
            )

            # 3. HTTP distinguish: online-phase session updates.
            state = client.open_session(
                "bench", target_samples=requests * rows + 1
            )
            session = state["session"]
            labels = [[0] * rows for _ in range(requests)]
            benchmarks.append(
                _closed_loop_row(
                    f"serve_http_distinguish[rows={rows},threads={threads}]",
                    lambda i: client.distinguish_batch(
                        "bench", payloads[i], labels[i], session=session
                    ),
                    requests,
                    threads,
                )
            )

    return {"benchmarks": benchmarks}


if __name__ == "__main__":
    raise SystemExit(timing.main("serve", run))
