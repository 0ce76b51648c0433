"""Run the engineering benchmark suites and write machine-readable results.

Runs each ``bench_<suite>.py`` script in its own process; each writes
and validates ``<output-dir>/BENCH_<suite>.json`` through
``timing.main``.  Every artefact has the shape::

    {
      "suite": "nn_ops",
      "quick": false,
      "benchmarks": [
        {"name": "...", "mean_s": 0.0123, "stddev_s": 0.0004, "rounds": 7,
         "p50_s": ..., "p95_s": ..., "p99_s": ...},
        ...
      ]
    }

The default output directory is ``benchmarks/`` itself: a full run
(``make bench-full``) rewrites the committed baselines.  ``--quick``
runs few rounds per row for smoke runs; the timings are then noisy but
the files still validate.  The script exits non-zero if a suite fails
or writes a malformed artefact, so a broken benchmark can't silently
commit garbage baselines.  ``check_regression.py`` compares a written
directory against the committed baselines.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent

SUITES = {
    suite: BENCH_DIR / f"bench_{suite}.py"
    for suite in ("nn_ops", "ciphers", "serve", "obs", "quant", "search", "jobs")
}


def run_suite(suite: str, quick: bool, output_dir: Path) -> None:
    """Run one suite's script, writing ``output_dir/BENCH_<suite>.json``."""
    command = [sys.executable, str(SUITES[suite]), "--output-dir", str(output_dir)]
    if quick:
        command.append("--quick")
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    if subprocess.run(command, cwd=REPO_ROOT, env=env).returncode != 0:
        raise RuntimeError(f"benchmark suite {suite!r} failed")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="few rounds per row (fast, noisy)",
    )
    parser.add_argument(
        "--suite",
        choices=sorted(SUITES),
        action="append",
        help="run only this suite (repeatable; default: all)",
    )
    parser.add_argument(
        "--output-dir",
        type=Path,
        default=BENCH_DIR,
        help="where to write BENCH_*.json (default: benchmarks/)",
    )
    args = parser.parse_args(argv)
    for suite in args.suite or sorted(SUITES):
        run_suite(suite, args.quick, args.output_dir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
