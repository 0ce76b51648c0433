"""Name-indexed experiment registry and runner."""

from __future__ import annotations

from typing import Callable, Dict

from repro.core.complexity import cube_root_summary
from repro.errors import ExperimentError
from repro.experiments.figure1 import run_figure1
from repro.experiments.speck_baseline import (
    run_speck_baseline,
    run_toyspeck_allinone,
)
from repro.experiments.table1 import run_table1
from repro.experiments.table2 import run_table2
from repro.experiments.table3 import run_table3


def _run_complexity() -> Dict:
    return {"experiment": "complexity", "rows": [cube_root_summary(8)]}


def _run_search_toyspeck(
    rounds: int = 3,
    population_size: int = 24,
    generations: int = 5,
    n_samples: int = 2048,
    rng=0,
) -> Dict:
    """Automated difference search on ToySpeck, ranked against the paper.

    Runs the :mod:`repro.search` evolutionary optimizer at a small
    budget and reports the top differences next to the paper's
    hand-picked ``delta = 0x0040`` so the two choices are directly
    comparable under the same bias oracle.
    """
    import numpy as np

    from repro.search import BiasScoringOracle, SearchConfig, evolve_differences
    from repro.search.config import get_scenario_builder

    builder = get_scenario_builder("toyspeck")
    oracle = BiasScoringOracle(
        builder.prototype(rounds=rounds), n_samples=n_samples, rng=rng
    )
    config = SearchConfig(
        population_size=population_size,
        generations=generations,
        n_samples=n_samples,
        seed=int(rng),
    )
    result = evolve_differences(oracle, config)
    paper = np.array([0x00, 0x40], dtype=np.uint8)
    paper_score = oracle.score(paper)
    rows = [
        {
            "rank": rank,
            "difference": "0x" + "".join(f"{int(w):02x}" for w in mask),
            "bias_score": round(score, 4),
            "vs_paper": round(score / paper_score, 2) if paper_score else None,
        }
        for rank, (mask, score) in enumerate(
            zip(result.ranked_masks, result.ranked_scores), start=1
        )
    ]
    return {
        "experiment": "search-toyspeck",
        "rounds": rounds,
        "paper_difference": "0x0040",
        "paper_score": round(paper_score, 4),
        "noise_floor": round(result.noise_floor, 4),
        "evaluations": result.evaluations,
        "rows": rows,
    }


EXPERIMENTS: Dict[str, Callable[..., Dict]] = {
    "table1": run_table1,
    "table2": run_table2,
    "table3": run_table3,
    "figure1": run_figure1,
    "speck-baseline": run_speck_baseline,
    "toyspeck-allinone": run_toyspeck_allinone,
    "complexity": _run_complexity,
    "search-toyspeck": _run_search_toyspeck,
}


def get_experiment(name: str) -> Callable[..., Dict]:
    """Look up an experiment function by its registry name."""
    try:
        return EXPERIMENTS[name]
    except KeyError:
        known = ", ".join(sorted(EXPERIMENTS))
        raise ExperimentError(f"unknown experiment {name!r}; known: {known}") from None


def run_experiment(name: str, **kwargs) -> Dict:
    """Run an experiment by name with keyword overrides."""
    return get_experiment(name)(**kwargs)
