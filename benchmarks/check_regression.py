"""Gate fresh benchmark reports against the committed baselines.

Compares every ``BENCH_<suite>.json`` in a directory that
``run_benchmarks.py --output-dir DIR`` wrote against the committed
``benchmarks/BENCH_<suite>.json``, row by row on matching names.  A
row whose fresh mean exceeds ``threshold`` times its committed mean
(default 2x) fails the check and the script exits non-zero.  Measuring
and comparing are separate steps: this script never times anything, and
a full ``run_benchmarks.py`` into ``benchmarks/`` is what rewrites the
baselines.

Rows present on only one side are reported but never fail the check:
adding a benchmark must not require regenerating every baseline in the
same commit, and renames surface visibly instead of silently passing.
Every compared row is reported with its percentage delta against the
baseline (``(fresh / baseline - 1) * 100``), so a change's effect is
readable per row even when nothing trips the gate.

Why means at 2x, and not the per-layer share deltas that
``e2ebench/ledger.py --compare`` reports: these rows time components in
isolation (one kernel, one train step, one request path) on a shared
machine, where run-to-run noise is tens of percent, so the gate's job is
to catch order-of-magnitude regressions -- a compiled kernel silently
falling back to numpy, a quadratic in a request path.  A component row
has no total to take a share of.  End-to-end and per-layer deltas, with
their bounds and paired runs against the parent, belong to e2ebench.

Usage::

    PYTHONPATH=src python benchmarks/run_benchmarks.py --output-dir DIR
    PYTHONPATH=src python benchmarks/check_regression.py DIR [--threshold 2.0]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Tuple

import timing

BENCH_DIR = Path(__file__).resolve().parent

DEFAULT_THRESHOLD = 2.0


def _means(report: dict) -> Dict[str, float]:
    return {
        entry["name"]: float(entry["mean_s"]) for entry in report["benchmarks"]
    }


def compare_reports(
    baseline: dict, fresh: dict, threshold: float = DEFAULT_THRESHOLD
) -> Tuple[List[dict], List[str]]:
    """Compare two BENCH reports name-by-name.

    Returns ``(rows, unmatched)``: one row per benchmark present in both
    reports (``name``, ``baseline_s``, ``fresh_s``, ``ratio``,
    ``regressed``), plus the names present in only one of the two.
    """
    if threshold <= 1.0:
        raise ValueError(f"threshold must exceed 1.0, got {threshold}")
    base = _means(baseline)
    new = _means(fresh)
    rows = []
    for name in sorted(base.keys() & new.keys()):
        ratio = new[name] / base[name]
        rows.append(
            {
                "name": name,
                "baseline_s": base[name],
                "fresh_s": new[name],
                "ratio": ratio,
                "delta_pct": (ratio - 1.0) * 100.0,
                "regressed": ratio > threshold,
            }
        )
    unmatched = sorted(base.keys() ^ new.keys())
    return rows, unmatched


def check_report(fresh_path: Path, threshold: float) -> bool:
    """Compare one fresh report against its committed baseline."""
    timing.validate_bench_file(fresh_path)
    fresh = json.loads(fresh_path.read_text())
    suite = fresh["suite"]
    committed_path = BENCH_DIR / fresh_path.name
    if not committed_path.exists():
        print(f"[{suite}] no committed baseline {committed_path.name}; skipping")
        return True
    baseline = json.loads(committed_path.read_text())
    if baseline.get("quick"):
        print(
            f"[{suite}] warning: committed baseline was recorded in --quick "
            "mode; timings are noisy"
        )
    rows, unmatched = compare_reports(baseline, fresh, threshold)
    for row in rows:
        flag = "REGRESSED" if row["regressed"] else "ok"
        print(
            f"[{suite}] {row['name']}: baseline {row['baseline_s'] * 1e3:.3f} ms, "
            f"fresh {row['fresh_s'] * 1e3:.3f} ms "
            f"({row['delta_pct']:+.1f}%) {flag}"
        )
    for name in unmatched:
        print(f"[{suite}] {name}: present in only one report (not compared)")
    if not rows:
        print(f"[{suite}] error: no benchmark names in common with the baseline")
        return False
    return not any(row["regressed"] for row in rows)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "fresh_dir",
        type=Path,
        help="directory of fresh BENCH_*.json reports (run_benchmarks.py "
        "--output-dir)",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        help=f"fail when fresh mean > threshold * baseline mean "
        f"(default {DEFAULT_THRESHOLD})",
    )
    args = parser.parse_args(argv)
    fresh_paths = sorted(args.fresh_dir.glob("BENCH_*.json"))
    if not fresh_paths:
        print(f"error: no BENCH_*.json reports in {args.fresh_dir}")
        return 1
    failed = [
        path.name for path in fresh_paths if not check_report(path, args.threshold)
    ]
    if failed:
        print(f"regressions detected in: {', '.join(failed)}")
        return 1
    print("no benchmark regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
