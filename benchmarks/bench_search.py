"""Difference-search latency harness: writes ``BENCH_search.json``.

Times the two layers of ``repro.search``: the bias-scoring oracle
(single-candidate score, batched population score, and the derived
scores-per-second throughput) and a full evolutionary search on
ToySpeck — the whole automated offline phase on the toy cipher, which
is the latency a scenario author experiences per
``python -m repro.search`` invocation.  Entries follow the shared
``BENCH_<suite>.json`` schema (``name`` / ``mean_s`` / ``stddev_s`` /
``rounds``), so ``check_regression.py`` gates on the means exactly as
it does for the other suites.

Usage::

    PYTHONPATH=src python benchmarks/bench_search.py [--quick] [--output-dir DIR]
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

from repro.obs import log as obs_log  # noqa: E402
from repro.search import (  # noqa: E402
    BiasScoringOracle,
    SearchConfig,
    evolve_differences,
)
from repro.search.config import get_scenario_builder  # noqa: E402

import timing  # noqa: E402

ORACLE_SAMPLES = 2048
POPULATION = 64


def _fresh_oracle(seed=0):
    builder = get_scenario_builder("toyspeck")
    return BiasScoringOracle(
        builder.prototype(rounds=3),
        n_samples=ORACLE_SAMPLES,
        rng=seed,
        workers=1,
    )


def _population(rng):
    # distinct non-zero 16-bit candidates so nothing memoises away
    masks = set()
    while len(masks) < POPULATION:
        candidate = rng.integers(0, 256, size=2, dtype=np.uint8)
        if candidate.any():
            masks.add(candidate.tobytes())
    return np.frombuffer(b"".join(sorted(masks)), dtype=np.uint8).reshape(
        POPULATION, 2
    )


def run(quick: bool) -> dict:
    # Quick mode cuts rounds, never shapes: entry names must match the
    # committed full-mode baseline so check_regression compares them.
    score_rounds = 4 if quick else 30
    search_rounds = 2 if quick else 8
    warmup = 1 if quick else 2
    rng = np.random.default_rng(0x5EA7)
    entries = []

    # single-candidate score latency (fresh oracle each round: the
    # memo cache would otherwise turn rounds 2+ into dict lookups)
    oracles = iter([_fresh_oracle(seed) for seed in range(score_rounds + warmup)])
    delta = np.array([0x00, 0x40], dtype=np.uint8)
    samples = timing.time_calls(lambda: next(oracles).score(delta), score_rounds, warmup)
    entries.append(timing.entry("oracle_score_single", samples, samples_per_score=ORACLE_SAMPLES))

    # batched population score + throughput
    population = _population(rng)
    oracles = iter([_fresh_oracle(seed) for seed in range(score_rounds + warmup)])
    samples = timing.time_calls(
        lambda: next(oracles).score_batch(population), score_rounds, warmup
    )
    mean = statistics.fmean(samples)
    entries.append(
        timing.entry(
            "oracle_score_batch64",
            samples,
            candidates=POPULATION,
            scores_per_second=POPULATION / mean,
        )
    )

    # full evolutionary search on the toy cipher (seed varies per round
    # so the oracle memo never short-circuits a later round)
    config = SearchConfig(
        population_size=24,
        generations=4,
        elite=6,
        top_k=4,
        n_samples=ORACLE_SAMPLES,
    )
    seeds = iter(range(search_rounds + warmup))
    samples = timing.time_calls(
        lambda: evolve_differences(_fresh_oracle(next(seeds)), config),
        search_rounds,
        warmup,
    )
    entries.append(
        timing.entry(
            "search_toyspeck_full",
            samples,
            population_size=config.population_size,
            generations=config.generations,
        )
    )

    return {
        "suite": "search",
        "quick": bool(quick),
        "oracle_samples": ORACLE_SAMPLES,
        "benchmarks": entries,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="few-round smoke timings"
    )
    parser.add_argument(
        "--output-dir",
        type=Path,
        default=BENCH_DIR,
        help="where to write BENCH_search.json (default: benchmarks/)",
    )
    args = parser.parse_args(argv)
    obs_log.configure(level="warning")  # timings, not heartbeats
    report = run(args.quick)
    args.output_dir.mkdir(parents=True, exist_ok=True)
    out_path = args.output_dir / "BENCH_search.json"
    out_path.write_text(json.dumps(report, indent=2) + "\n")
    for entry in report["benchmarks"]:
        rate = entry.get("scores_per_second")
        note = f"  ({rate:.0f} scores/s)" if rate else ""
        print(f"{entry['name']}: {entry['mean_s'] * 1e3:.3f} ms{note}")
    print(f"wrote {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
