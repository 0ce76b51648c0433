"""The paper's contribution: ML-assisted differential distinguishers.

``scenario`` defines the chosen-difference experiments (which primitive,
which ``t`` input differences, what is observed), ``oracle`` the
CIPHER-vs-RANDOM game, ``distinguisher`` Algorithm 2 itself, and
``statistics``/``complexity`` the supporting analysis (expected random
accuracy, hypothesis tests, data-complexity accounting).
"""

from repro.core.complexity import (
    DistinguisherComplexity,
    gimli8_paper_complexity,
    log2_samples,
)
from repro.core.distinguisher import (
    MLDistinguisher,
    OnlineResult,
    TrainingReport,
)
from repro.core.extra_scenarios import (
    Gift16Scenario,
    Gift64Scenario,
)
from repro.core.oracle import CipherOracle, Oracle, RandomOracle
from repro.core.scenario import (
    DifferentialScenario,
    GimliCipherScenario,
    GimliHashScenario,
    GimliPermutationScenario,
    SpeckRealOrRandomScenario,
    ToySpeckScenario,
)
from repro.core.statistics import (
    advantage,
    binomial_pvalue,
    decision_threshold,
    expected_random_accuracy,
    required_online_samples,
)

__all__ = [
    "CipherOracle",
    "DifferentialScenario",
    "DistinguisherComplexity",
    "Gift16Scenario",
    "Gift64Scenario",
    "GimliCipherScenario",
    "GimliHashScenario",
    "GimliPermutationScenario",
    "MLDistinguisher",
    "OnlineResult",
    "Oracle",
    "RandomOracle",
    "SpeckRealOrRandomScenario",
    "ToySpeckScenario",
    "TrainingReport",
    "advantage",
    "binomial_pvalue",
    "decision_threshold",
    "expected_random_accuracy",
    "gimli8_paper_complexity",
    "log2_samples",
    "required_online_samples",
]
