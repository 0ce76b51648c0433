"""End-to-end benchmark of the paper pipeline, one workload per run.

Usage::

    python3 e2ebench/run.py --workload table2-paper --seed 0 --seconds 16 --trace 0

Workloads: ``table2-paper``, ``table3-trio``, ``serve-online`` and
``search-sweep`` (see ``workloads.py`` and ``README.md``).  A run

1. sets the workload up ``SETUP_REPEATS`` times, each in a fresh
   interpreter, and reports the median as ``setup_s``;
2. sets it up once more in this process and runs its operations for
   ``--seconds`` (the operation in flight at the deadline completes);
3. checks every output: a wrong verdict, a bad table row, a failed HTTP
   call or a sweep cell that does not reproduce counts as failed;
4. prints each metric by name and unit, then one JSON object with
   ``correct``, ``attempted``, ``failed`` and ``metrics`` as the last line
   of standard output.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` installs the
layer wrappers of ``layers.py``, reports the per-layer metrics and writes
``e2ebench/out/trace/<workload>.trace.json`` (Chrome trace) and
``<workload>.layers.txt`` (self time per layer).  ``--smoke`` shrinks
every size so a run takes seconds; it checks the harness, not the program.

Exit status: 0 when every check passed, 1 when one failed, 2 when the
program under test (``src/repro``) is missing.
"""

from __future__ import annotations

import argparse
import faulthandler
import json
import resource
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 3
WATCHDOG_S = 170

#: No tail percentile: a run holds 3-5 operations of the sequential
#: workloads and about 60 online phases, too few for any percentile above
#: the median to have ten samples beyond it.
END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "rows_per_s": "rows/s",
    "peak_rss_mb": "MB",
}


def per_layer_unit(name: str) -> str:
    """The unit of a per-layer metric, from its suffix."""
    if name.endswith((".share", "_share")):
        return "ratio"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("rows_per_s"):
        return "rows/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith((".mean_batch_rows", ".rows")):
        return "rows"
    return "count"


def measure_setup(name: str, seed: int, smoke: bool) -> list:
    repeats = 1 if smoke else SETUP_REPEATS
    argv = [sys.executable, str(harness.BENCH_DIR / "workloads.py"), name,
            str(seed)] + (["--smoke"] if smoke else [])
    walls = []
    for _ in range(repeats):
        child = harness.run_child(argv, timeout_s=150)
        if child.returncode != 0:
            raise RuntimeError(
                f"set-up of {name} exited with status {child.returncode}")
        walls.append(child.wall_s)
    return walls


def peak_rss_mb() -> float:
    """Peak RSS of this process or any child it has reaped."""
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024.0


def write_trace(name: str, tracks: dict, origin: float, metrics: dict) -> Path:
    directory = harness.OUT / "trace"
    directory.mkdir(parents=True, exist_ok=True)
    trace_path = directory / f"{name}.trace.json"
    with open(trace_path, "w", encoding="utf-8") as handle:
        json.dump(layers.chrome_trace(tracks, origin), handle)
    lines = [f"{'layer':<22}{'calls':>10}{'self_s':>12}{'share':>9}"]
    for layer in layers.LAYERS:
        lines.append(
            f"{layer:<22}{int(metrics[layer + '.calls']):>10}"
            f"{metrics[layer + '.self_s']:>12.4f}"
            f"{100 * metrics[layer + '.share']:>8.2f}%"
        )
    lines.append(
        f"{'untraced remainder':<32}"
        f"{metrics['trace.untraced_remainder_s']:>12.4f}"
        f"{100 * metrics['trace.untraced_remainder_share']:>8.2f}%"
    )
    lines.append(f"{'traced wall':<32}{metrics['trace.wall_s']:>12.4f}")
    (directory / f"{name}.layers.txt").write_text("\n".join(lines) + "\n")
    return trace_path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the paper pipeline")
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not harness.have_source():
        print(f"e2ebench: no program to measure under {harness.SRC}",
              file=sys.stderr)
        return 2
    # A run must end within 180 s; a stuck one dumps every thread's stack.
    faulthandler.dump_traceback_later(WATCHDOG_S, exit=True)
    harness.use_source()
    from repro.obs import log as obs_log

    obs_log.configure(stream=sys.stderr)
    setup_walls = measure_setup(args.workload, args.seed, args.smoke)
    recorder = None
    if args.trace:
        recorder = layers.Recorder()
        layers.install(recorder)
    workload = workloads.create(args.workload, args.seed, args.smoke, recorder)
    try:
        if recorder is not None:
            recorder.recording = True
        measurement = workload.measure(args.seconds)
        if recorder is not None:
            recorder.recording = False
    finally:
        workload.close()

    checks = measurement.checks
    if args.trace:
        # The serve process also recorded its warm-up request; drop it.
        server = [s for s in workload.server_spans or ()
                  if s.start >= measurement.start]
        metrics = layers.layer_metrics(
            recorder.spans, measurement.busy_s, server, layers.span_cost_s())
        for name in workloads.ServeOnline.COUNTERS:
            metrics[name] = measurement.counters.get(name, 0.0)
        tracks = {"benchmark": recorder.spans}
        if server:
            tracks["serve"] = server
        path = write_trace(args.workload, tracks, measurement.start, metrics)
        print(f"trace: {path}", file=sys.stderr)
        units = {name: per_layer_unit(name) for name in metrics}
    else:
        latencies_ms = [1e3 * s for s in measurement.latencies_s]
        metrics = {
            "setup_s": statistics.median(setup_walls),
            "op_p50_ms": harness.percentile(latencies_ms, 50.0),
            "rows_per_s": measurement.rows / measurement.wall_s,
            "peak_rss_mb": peak_rss_mb(),
        }
        units = END_TO_END_UNITS
    for failure in checks.failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed}: "
          f"{len(measurement.latencies_s)} operations, "
          f"{checks.attempted} checked, {len(checks.failures)} failed")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 1 if checks.failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
