"""Automated input-difference search (the scenario-diversity engine).

The paper hand-picks its input differences ``δi`` per cipher; this
package replaces the hand with an AutoND-style loop:

* :mod:`repro.search.oracle` — a bias-scoring oracle: one candidate
  difference is scored by the mean absolute per-bit bias of the output
  difference over a small deterministic sample bank (milliseconds per
  score, memoised, ``REPRO_WORKERS``-invariant).
* :mod:`repro.search.evolve` — an elitist evolutionary optimizer over
  bit-difference candidates (seeded, deterministic), returning a ranked
  top-``k`` per cipher × rounds.
* :mod:`repro.search.config` — a declarative JSON scenario schema and a
  builder registry, so any registered cipher × rounds × difference-set
  is a one-line experiment.
* :mod:`repro.search.pipeline` — search → train
  (:class:`~repro.core.distinguisher.MLDistinguisher`) → register
  (:class:`~repro.serve.ModelRegistry`), with the discovered difference
  set recorded in the served model's manifest.

CLI::

    PYTHONPATH=src python -m repro.search config.json --registry registry/
    PYTHONPATH=src python -m repro.search --scenario toyspeck --rounds 3
"""

from repro.search.config import (
    SCENARIO_BUILDERS,
    ScenarioBuilder,
    ScenarioSpec,
    get_scenario_builder,
    register_scenario_builder,
)
from repro.search.evolve import SearchConfig, SearchResult, evolve_differences
from repro.search.oracle import BiasScoringOracle
from repro.search.pipeline import run_search, run_search_pipeline

__all__ = [
    "BiasScoringOracle",
    "SCENARIO_BUILDERS",
    "ScenarioBuilder",
    "ScenarioSpec",
    "SearchConfig",
    "SearchResult",
    "evolve_differences",
    "get_scenario_builder",
    "register_scenario_builder",
    "run_search",
    "run_search_pipeline",
]
