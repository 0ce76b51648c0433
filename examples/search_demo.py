"""Difference-search walkthrough: discover, compare, train, register.

The paper hand-picks its input differences; this demo lets the
``repro.search`` evolutionary optimizer pick them instead.  It runs a
seeded search on round-reduced ToySpeck, prints the ranked top-k next
to the paper's hand-chosen ``delta1 = 0x0040`` under the same bias
oracle, then feeds the two best discovered differences through the
full pipeline — train an MLDistinguisher on them and register the
result in an on-disk model registry whose manifest records exactly
what was searched.  Takes a few seconds on a laptop.

Usage::

    python examples/search_demo.py [--rounds 3] [--generations 6]
"""

import argparse
import tempfile
import time

import numpy as np

from repro.search import (
    BiasScoringOracle,
    ScenarioSpec,
    SearchConfig,
    evolve_differences,
)
from repro.search.config import get_scenario_builder
from repro.search.pipeline import run_search_pipeline
from repro.serve import ModelRegistry

PAPER_DELTA = np.array([0x00, 0x40], dtype=np.uint8)  # delta1 = 0x0040


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rounds", type=int, default=3,
                        help="round-reduced ToySpeck rounds")
    parser.add_argument("--generations", type=int, default=6,
                        help="evolutionary generations")
    parser.add_argument("--seed", type=int, default=0, help="search seed")
    args = parser.parse_args()

    # -- 1. score the paper's hand-picked difference ------------------
    builder = get_scenario_builder("toyspeck")
    oracle = BiasScoringOracle(
        builder.prototype(rounds=args.rounds), n_samples=2048, rng=args.seed
    )
    paper_score = oracle.score(PAPER_DELTA)
    print(f"paper delta 0x0040 bias score at {args.rounds} rounds: "
          f"{paper_score:.4f} (noise floor {oracle.noise_floor():.4f})")

    # -- 2. let the optimizer search the full 16-bit space ------------
    config = SearchConfig(
        population_size=24, generations=args.generations, seed=args.seed
    )
    start = time.perf_counter()
    result = evolve_differences(oracle, config)
    elapsed = time.perf_counter() - start
    print(f"\nsearch: {result.evaluations} candidates scored in "
          f"{elapsed:.2f}s")
    for rank, (mask, score) in enumerate(
        zip(result.ranked_masks, result.ranked_scores), start=1
    ):
        delta = (int(mask[0]) << 8) | int(mask[1])
        marker = "  <- beats the paper" if score > paper_score else ""
        print(f"  #{rank}  delta {delta:#06x}  score {score:.4f}{marker}")

    # -- 3. full pipeline: search -> train -> register ----------------
    spec = ScenarioSpec.from_dict({
        "name": f"toyspeck-r{args.rounds}-auto",
        "scenario": "toyspeck",
        "params": {"rounds": args.rounds},
        "search": {"population_size": 24,
                   "generations": args.generations,
                   "seed": args.seed},
        "train": {"num_samples": 8_000, "epochs": 3, "significance": 0.05},
    })
    with tempfile.TemporaryDirectory() as root:
        registry = ModelRegistry(root)
        summary = run_search_pipeline(spec, registry=registry)
        print(f"\npipeline: trained on {summary['differences']} -> "
              f"validation accuracy "
              f"{summary['training']['validation_accuracy']:.4f}")
        record = registry.resolve(spec.name)
        manifest_search = record.manifest["search"]
        print(f"registered {record.name} v{record.version}; manifest "
              f"records {len(manifest_search['ranked_differences'])} ranked "
              f"differences from the search")


if __name__ == "__main__":
    main()
