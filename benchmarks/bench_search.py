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

import statistics

import numpy as np

import timing
from repro.search import BiasScoringOracle, SearchConfig, evolve_differences
from repro.search.config import get_scenario_builder

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
    calls = timing.WARMUP + score_rounds
    rng = np.random.default_rng(0x5EA7)
    entries = []

    # single-candidate score latency (fresh oracle each round: the
    # memo cache would otherwise turn rounds 2+ into dict lookups)
    oracles = iter([_fresh_oracle(seed) for seed in range(calls)])
    delta = np.array([0x00, 0x40], dtype=np.uint8)
    samples = timing.sample(lambda: next(oracles).score(delta), score_rounds)
    entries.append(timing.entry("oracle_score_single", samples, samples_per_score=ORACLE_SAMPLES))

    # batched population score + throughput
    population = _population(rng)
    oracles = iter([_fresh_oracle(seed) for seed in range(calls)])
    samples = timing.sample(
        lambda: next(oracles).score_batch(population), score_rounds
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
    seeds = iter(range(timing.WARMUP + search_rounds))
    samples = timing.sample(
        lambda: evolve_differences(_fresh_oracle(next(seeds)), config),
        search_rounds,
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
        "oracle_samples": ORACLE_SAMPLES,
        "benchmarks": entries,
    }


if __name__ == "__main__":
    raise SystemExit(timing.main("search", run))
