"""Statistics and child-process helpers shared by the end-to-end benchmark.

One definition of each statistic the benchmark reports:

* :func:`percentile` is the nearest-rank percentile of
  :func:`repro.obs.metrics.quantile`, the definition ``/v1/metrics`` and
  ``benchmarks/BENCH_serve.json`` already use for latencies;
* :func:`spread` gives the median, the first and third quartiles and the
  sample count of a set of runs, with the quartiles taken as
  :func:`statistics.quantiles` gives them, which is how run-to-run spread
  is judged against a metric's bound.

:func:`run_child` runs one child interpreter and returns its exit code,
wall time and standard output.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = ROOT / "e2ebench"
#: Scratch space for traces, temporary registries and queues; kept inside
#: the checkout so a run touches nothing outside it.
OUT = BENCH_DIR / "out"


def have_source() -> bool:
    """Whether the program under test is present next to the benchmark."""
    return (SRC / "repro" / "__init__.py").is_file()


def use_source() -> None:
    """Import ``repro`` from this checkout and drop ambient ``REPRO_*`` knobs.

    The program must see only the inputs the benchmark generates, so no
    environment setting of the caller may change what a workload does.
    """
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[name]


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100])."""
    from repro.obs.metrics import quantile

    return quantile(values, q)


def spread(values: Sequence[float]) -> dict:
    """Median, quartiles, their distance as a share of the median, and n."""
    values = [float(v) for v in values]
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {
        "n": len(values),
        "median": median,
        "q1": q1,
        "q3": q3,
        "iqr_share": (q3 - q1) / median if median else 0.0,
    }


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    return env


@dataclass
class Child:
    returncode: int
    wall_s: float
    stdout: str


def run_child(argv: List[str], timeout_s: float) -> Child:
    """Run ``argv`` from the checkout root; stderr passes through.

    A child still running after ``timeout_s`` is killed and reported with
    return code -9.
    """
    start = time.perf_counter()
    try:
        done = subprocess.run(
            argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, text=True, timeout=timeout_s,
        )
        code, out = done.returncode, done.stdout
    except subprocess.TimeoutExpired:
        code, out = -9, ""
    return Child(code, time.perf_counter() - start, out)
