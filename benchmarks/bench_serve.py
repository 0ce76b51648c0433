"""Load harness for the serving subsystem: writes ``BENCH_serve.json``.

Unlike the pytest-benchmark substrate suites, serving performance is a
concurrency property — p50/p95/p99 latency under parallel clients,
sustained throughput, and how well the engine coalesces micro-batches.
This harness therefore drives a real :class:`ServeServer` on a loopback
port (plus the engine directly, to isolate HTTP overhead) with a thread
pool of closed-loop clients, times the decode of one 512-row
online-phase request body on its own, and distils the measurements
into the same ``BENCH_<suite>.json`` schema as the other suites (``name`` /
``mean_s`` / ``stddev_s`` / ``rounds``), with serving extras on each
entry (``p50_s``/``p95_s``/``p99_s``, ``throughput_rps``, batch-size
histogram, max queue depth).  ``check_regression.py`` gates on the mean
latency exactly as it does for the other suites.

Usage::

    PYTHONPATH=src python benchmarks/bench_serve.py [--quick] [--output-dir DIR]
"""

from __future__ import annotations

import argparse
import json
import statistics
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent


def _drive(worker, requests: int, threads: int):
    """Run ``requests`` closed-loop calls across ``threads`` clients.

    Returns ``(per_request_latencies_s, wall_s)``.
    """
    latencies = []
    lock = threading.Lock()
    counter = iter(range(requests))

    def loop():
        while True:
            with lock:
                index = next(counter, None)
            if index is None:
                return
            start = time.perf_counter()
            worker(index)
            elapsed = time.perf_counter() - start
            with lock:
                latencies.append(elapsed)

    pool = [threading.Thread(target=loop) for _ in range(threads)]
    wall_start = time.perf_counter()
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join()
    wall = time.perf_counter() - wall_start
    return latencies, wall


def _entry(name: str, latencies, wall_s: float, metrics_snapshot=None) -> dict:
    from repro.obs.metrics import quantile

    entry = {
        "name": name,
        "mean_s": statistics.fmean(latencies),
        "stddev_s": statistics.pstdev(latencies),
        "rounds": len(latencies),
        "p50_s": quantile(latencies, 50.0),
        "p95_s": quantile(latencies, 95.0),
        "p99_s": quantile(latencies, 99.0),
        "throughput_rps": len(latencies) / wall_s,
    }
    if metrics_snapshot is not None:
        entry["batch_size_histogram"] = metrics_snapshot["batches"][
            "size_histogram"
        ]
        entry["mean_batch_size"] = metrics_snapshot["batches"]["mean_size"]
        entry["max_queue_depth"] = metrics_snapshot["queue"]["max_depth"]
    return entry


def run(quick: bool, output_dir: Path) -> Path:
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
    decode_body(raw)  # loads the kernel outside the timed calls
    latencies, wall = _drive(lambda i: decode_body(raw), requests, 1)
    benchmarks.append(
        _entry(f"serve_decode_body[rows={decode_rows}]", latencies, wall)
    )

    # 1. Engine direct: micro-batching + fused predict, no HTTP.
    engine_metrics = ServeMetrics()
    engine = MicroBatchEngine(model, metrics=engine_metrics)
    _drive(lambda i: engine.classify(queries[i]), min(requests, 30), threads)
    latencies, wall = _drive(
        lambda i: engine.classify(queries[i]), requests, threads
    )
    engine.stop()
    benchmarks.append(
        _entry(
            f"serve_engine_classify[rows={rows},threads={threads}]",
            latencies,
            wall,
            engine_metrics.snapshot(),
        )
    )

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
            _drive(
                lambda i: client.classify("bench", payloads[i]),
                min(requests, 30),
                threads,
            )
            latencies, wall = _drive(
                lambda i: client.classify("bench", payloads[i]), requests, threads
            )
            benchmarks.append(
                _entry(
                    f"serve_http_classify[rows={rows},threads={threads}]",
                    latencies,
                    wall,
                    server.service.metrics.snapshot(),
                )
            )

            # 3. HTTP distinguish: online-phase session updates.
            state = client.open_session(
                "bench", target_samples=requests * rows + 1
            )
            session = state["session"]
            labels = [[0] * rows for _ in range(requests)]
            latencies, wall = _drive(
                lambda i: client.distinguish_batch(
                    "bench", payloads[i], labels[i], session=session
                ),
                requests,
                threads,
            )
            benchmarks.append(
                _entry(
                    f"serve_http_distinguish[rows={rows},threads={threads}]",
                    latencies,
                    wall,
                )
            )

    report = {"suite": "serve", "quick": bool(quick), "benchmarks": benchmarks}
    output_dir.mkdir(parents=True, exist_ok=True)
    out_path = output_dir / "BENCH_serve.json"
    out_path.write_text(json.dumps(report, indent=2) + "\n")
    return out_path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="small request counts (fast, noisy)"
    )
    parser.add_argument("--output-dir", type=Path, default=BENCH_DIR)
    args = parser.parse_args(argv)
    out_path = run(args.quick, args.output_dir)
    report = json.loads(out_path.read_text())
    for entry in report["benchmarks"]:
        print(
            f"{entry['name']}: mean {entry['mean_s'] * 1e3:.2f} ms, "
            f"p95 {entry['p95_s'] * 1e3:.2f} ms, "
            f"p99 {entry['p99_s'] * 1e3:.2f} ms, "
            f"{entry['throughput_rps']:.0f} req/s"
        )
    print(f"wrote {out_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
