"""Repeat the benchmark and record the result as ``BENCH_e2e.json``.

Usage::

    python3 e2ebench/ledger.py [--runs 10] [--seed 0] [--out FILE]
    python3 e2ebench/ledger.py --compare BASE.json NEW.json

The first form makes two sets of ``--runs`` untraced runs of every
workload in ``BENCHMARK.json`` (set A in listed order with seeds
``seed..seed+runs-1``, set B in reverse order with the next ``runs``
seeds), then one traced run of each workload.  It records every value,
each set's median, quartiles and sample count, the shift of set B's
median from set A's in the metric's worse direction, and the per-layer
shares of the traced run.  It exits 1 when a run fails a check, a spread
(except ``setup_s``) reaches the metric's bound, or a shift exceeds it.

``--compare`` gates ``NEW`` against ``BASE``: each (workload, metric)
median over all untraced runs may be worse than the base by at most the
metric's bound in ``BENCHMARK.json``.  It also prints how each layer's
share of the traced wall moved.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402

BENCHMARK = harness.ROOT / "BENCHMARK.json"


def load_benchmark() -> dict:
    with open(BENCHMARK, "r", encoding="utf-8") as handle:
        return json.load(handle)


def run_once(bench: dict, workload: str, seed: int, trace: int) -> dict:
    argv = list(bench["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", str(trace),
    ]
    child = harness.run_child(argv, timeout_s=180)
    lines = child.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    result["returncode"] = child.returncode
    result["wall_s"] = child.wall_s
    print(f"{workload} seed={seed} trace={trace}: exit {child.returncode}, "
          f"{result.get('failed')} of {result.get('attempted')} failed, "
          f"{child.wall_s:.1f} s", file=sys.stderr, flush=True)
    return result


def worse_by(metric: dict, base: float, new: float) -> float:
    """How much worse ``new`` is than ``base``, as a share of ``base``."""
    change = (new - base) / base
    return change if metric["better"] == "lower" else -change


def measure(bench: dict, runs: int, first_seed: int) -> dict:
    names = [w["name"] for w in bench["workloads"]]
    sets = {"A": (names, first_seed), "B": (names[::-1], first_seed + runs)}
    values = {name: {} for name in names}
    for label, (order, seed) in sets.items():
        for offset in range(runs):
            for name in order:
                result = run_once(bench, name, seed + offset, 0)
                entry = values[name].setdefault(
                    label, {"seeds": [], "attempted": 0, "failed": 0,
                            "runs_failed": 0, "values": {}})
                entry["seeds"].append(seed + offset)
                entry["attempted"] += result.get("attempted", 0)
                entry["failed"] += result.get("failed", 0)
                if result["returncode"] != 0 or "metrics" not in result:
                    entry["runs_failed"] += 1
                    continue
                for metric, measured in result["metrics"].items():
                    entry["values"].setdefault(metric, []).append(
                        measured["value"])
    report = {}
    for name in names:
        sets_out = {}
        for label, entry in values[name].items():
            entry["metrics"] = {
                metric: {**harness.spread(vals), "values": vals}
                for metric, vals in entry.pop("values").items()
            }
            sets_out[label] = entry
        shifts = {}
        for metric in bench["end_to_end"]:
            a = sets_out["A"]["metrics"].get(metric["name"])
            b = sets_out["B"]["metrics"].get(metric["name"])
            if a and b:
                shifts[metric["name"]] = worse_by(metric, a["median"],
                                                  b["median"])
        traced = run_once(bench, name, first_seed, 1)
        report[name] = {
            "sets": sets_out,
            "median_shift": shifts,
            "traced": {
                "seed": first_seed,
                "failed": traced.get("failed"),
                "layers": {
                    metric: measured["value"]
                    for metric, measured in traced.get("metrics", {}).items()
                    if metric.endswith(".share") or metric.startswith("trace.")
                },
            },
        }
    return report


def verdict(bench: dict, report: dict) -> list:
    problems = []
    for name, entry in report.items():
        for label, results in entry["sets"].items():
            if results["failed"] or results["runs_failed"]:
                problems.append(f"{name} set {label}: {results['failed']} "
                                f"checks and {results['runs_failed']} runs failed")
            for metric in bench["end_to_end"]:
                stats = results["metrics"].get(metric["name"])
                if stats is None:
                    problems.append(f"{name} set {label}: no {metric['name']}")
                elif (metric["name"] != "setup_s"
                      and stats["iqr_share"] >= metric["bound"]):
                    problems.append(
                        f"{name} set {label}: {metric['name']} spread "
                        f"{stats['iqr_share']:.3f} >= bound {metric['bound']}")
        for metric in bench["end_to_end"]:
            shift = entry["median_shift"].get(metric["name"], 0.0)
            if shift > metric["bound"]:
                problems.append(f"{name}: {metric['name']} set B is worse by "
                                f"{shift:.3f} > bound {metric['bound']}")
    return problems


def all_values(entry: dict, metric: str) -> list:
    return [v for results in entry["sets"].values()
            for v in results["metrics"].get(metric, {}).get("values", [])]


def compare(bench: dict, base: dict, new: dict) -> int:
    regressions = 0
    print(f"{'workload':<14}{'metric':<14}{'base':>12}{'new':>12}"
          f"{'worse by':>10}{'bound':>7}")
    for name, entry in new["workloads"].items():
        if name not in base["workloads"]:
            print(f"{name}: not in the base ledger")
            continue
        for metric in bench["end_to_end"]:
            before = all_values(base["workloads"][name], metric["name"])
            after = all_values(entry, metric["name"])
            if not before or not after:
                continue
            b = harness.spread(before)["median"]
            n = harness.spread(after)["median"]
            worse = worse_by(metric, b, n)
            flag = worse > metric["bound"]
            regressions += flag
            print(f"{name:<14}{metric['name']:<14}{b:>12.5g}{n:>12.5g}"
                  f"{100 * worse:>9.1f}%{metric['bound']:>7}"
                  + ("  REGRESSION" if flag else ""))
    print("\nlayer share of the traced wall (base -> new):")
    for name, entry in new["workloads"].items():
        before = base["workloads"].get(name, {}).get("traced", {}).get(
            "layers", {})
        for metric, value in sorted(entry["traced"]["layers"].items()):
            if not metric.endswith(".share"):
                continue
            old = before.get(metric, 0.0)
            if max(old, value) >= 0.005:
                print(f"  {name:<14}{metric[:-6]:<22}{100 * old:>7.2f}% ->"
                      f"{100 * value:>7.2f}%  ({100 * (value - old):+.2f} pp)")
    return 1 if regressions else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=Path,
                        default=harness.BENCH_DIR / "BENCH_e2e.json")
    parser.add_argument("--compare", nargs=2, type=Path,
                        metavar=("BASE", "NEW"))
    args = parser.parse_args(argv)
    bench = load_benchmark()
    if args.compare:
        base, new = (json.loads(path.read_text()) for path in args.compare)
        return compare(bench, base, new)
    report = measure(bench, args.runs, args.seed)
    problems = verdict(bench, report)
    ledger = {
        "suite": "e2e",
        "command": bench["command"],
        "run_seconds": bench["run_seconds"],
        "machine": {"nproc": os.cpu_count(),
                    "python": platform.python_version(),
                    "platform": platform.platform()},
        "workloads": report,
        "problems": problems,
    }
    args.out.write_text(json.dumps(ledger, indent=1) + "\n")
    for problem in problems:
        print(f"PROBLEM: {problem}")
    print(f"wrote {args.out}")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
