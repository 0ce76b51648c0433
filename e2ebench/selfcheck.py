"""Checks of the benchmark's own machinery (not of the program it measures).

Usage::

    python3 e2ebench/selfcheck.py

1. Self time from a hand-built list of nested spans, including a weighted
   span on a second thread, and the layer report's accounting identity.
2. The harness percentile agrees with ``repro.obs.metrics.quantile`` and
   its quartiles with :func:`statistics.quantiles`.
3. ``run.py --smoke`` emits, for every workload, exactly the metrics that
   ``BENCHMARK.json`` lists, each with its unit, in both trace modes.
4. A wrong verdict injected into ``table2-paper`` counts as failed and
   makes ``run.py`` exit non-zero.

Exits 1 when a check fails.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
import layers  # noqa: E402


def check(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"selfcheck FAILED: {what}")
    print(f"ok: {what}")


def check_self_times() -> None:
    span = layers.Span
    spans = [
        span("a", "call", 1, 0.0, 10.0),
        span("b", "call", 1, 1.0, 4.0),
        span("c", "call", 1, 2.0, 3.0),
        span("b", "call", 1, 5.0, 9.0),
        # A batch three requests wait on: it and its child count thrice.
        span("e", "call", 2, 0.0, 6.0, weight=3),
        span("f", "call", 2, 1.0, 3.0),
    ]
    totals = layers.self_times(spans)
    got = {layer: totals[(layer, "call")]["self_s"] for layer in "abcef"}
    check(got == {"a": 3.0, "b": 6.0, "c": 1.0, "e": 12.0, "f": 6.0},
          f"self time of nested spans {got}")
    check(totals[("b", "call")]["calls"] == 2, "span calls are counted")
    wall = 30.0
    metrics = layers.layer_metrics(
        [span("nn.fit", "call", 1, 0.0, 20.0),
         span("nn.dense", "forward", 1, 2.0, 7.0)], wall)
    claimed = sum(metrics[f"{layer}.self_s"] for layer in layers.LAYERS)
    check(math.isclose(claimed + metrics["trace.untraced_remainder_s"], wall)
          and metrics["nn.dense.forward_s"] == 5.0
          and math.isclose(metrics["nn.fit.share"], 15.0 / wall),
          "layer self times plus the remainder equal the traced wall")


def check_statistics() -> None:
    from repro.obs.metrics import quantile

    samples = [5.0, 1.0, 4.0, 2.0, 8.0, 7.0, 3.0, 6.0, 9.0, 10.0, 0.5]
    check(all(harness.percentile(samples, q) == quantile(samples, q)
              for q in (0, 10, 50, 90, 95, 99, 100)),
          "percentile is the nearest-rank quantile of repro.obs.metrics")
    stats = harness.spread(samples)
    q1, median, q3 = statistics.quantiles(samples, n=4)
    check((stats["q1"], stats["median"], stats["q3"], stats["n"])
          == (q1, median, q3, len(samples))
          and stats["median"] == quantile(samples, 50),
          "spread reports statistics.quantiles quartiles and the sample count")


def check_smoke_metrics() -> None:
    bench = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    for workload in bench["workloads"]:
        for trace in (0, 1):
            child = harness.run_child(
                [sys.executable, str(harness.BENCH_DIR / "run.py"),
                 "--workload", workload["name"], "--seed", "0",
                 "--seconds", "0.1", "--trace", str(trace), "--smoke"],
                timeout_s=120,
            )
            result = json.loads(child.stdout.strip().splitlines()[-1])
            units = {name: value["unit"]
                     for name, value in result["metrics"].items()}
            check(child.returncode == 0 and result["correct"]
                  and units == expected[trace],
                  f"{workload['name']} --trace {trace} --smoke emits every "
                  f"metric with its unit ({child.wall_s:.1f} s)")


def check_injected_failure() -> None:
    harness.use_source()
    from repro.core.distinguisher import MLDistinguisher

    import run

    honest = MLDistinguisher.test

    def always_cipher(self, oracle, num_samples, rng=None):
        return dataclasses.replace(honest(self, oracle, num_samples, rng),
                                   is_cipher=True)

    MLDistinguisher.test = always_cipher
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = run.main(["--workload", "table2-paper", "--seed", "0",
                             "--seconds", "0.1", "--trace", "0", "--smoke"])
    finally:
        MLDistinguisher.test = honest
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    check(code != 0 and not result["correct"] and result["failed"] >= 1
          and result["attempted"] > result["failed"],
          f"an injected wrong verdict fails the run ({result['failed']} of "
          f"{result['attempted']} operations failed, exit {code})")


def main() -> int:
    harness.use_source()
    check_self_times()
    check_statistics()
    check_smoke_metrics()
    check_injected_failure()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
