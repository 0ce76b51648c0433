"""repro — Machine-learning assisted differential distinguishers.

A production-quality reproduction of Baksi, Breier, Dong & Yi,
*"Machine Learning Assisted Differential Distinguishers For Lightweight
Ciphers"* (DATE 2021 / ePrint 2020/571), built entirely on numpy:

* :mod:`repro.ciphers` — Gimli (+Hash/+Cipher), SPECK-32/64, GIFT-64
  and the exact-analysis toy ciphers;
* :mod:`repro.diffcrypt` — DDT/LAT, Markov-cipher analysis, exact Gimli
  SP-box differential probabilities, trail search, all-in-one baselines;
* :mod:`repro.nn` — a from-scratch neural-network library (Dense, Conv1D,
  LSTM, Adam, ...);
* :mod:`repro.core` — the paper's distinguisher (Algorithm 2) with its
  scenarios, oracles and statistics;
* :mod:`repro.experiments` — harnesses regenerating every table and
  figure of the paper.

Quickstart::

    from repro import GimliHashScenario, MLDistinguisher

    scenario = GimliHashScenario(rounds=5)
    distinguisher = MLDistinguisher(scenario, epochs=5, rng=7)
    report = distinguisher.train(num_samples=20_000)
    verdict = distinguisher.distinguish(scenario.cipher_oracle(), 4_000)
"""

from repro.ciphers import (
    GimliAead,
    GimliHash,
    GimliPermutation,
    Speck3264,
    gimli_hash,
    gimli_permute,
)
from repro.core import (
    CipherOracle,
    GimliCipherScenario,
    GimliHashScenario,
    GimliPermutationScenario,
    MLDistinguisher,
    RandomOracle,
    SpeckRealOrRandomScenario,
    ToySpeckScenario,
)
from repro.errors import DistinguisherAborted, ReproError
from repro.nn import Sequential

__version__ = "1.0.0"

__all__ = [
    "CipherOracle",
    "DistinguisherAborted",
    "GimliAead",
    "GimliCipherScenario",
    "GimliHash",
    "GimliHashScenario",
    "GimliPermutation",
    "GimliPermutationScenario",
    "MLDistinguisher",
    "RandomOracle",
    "ReproError",
    "Sequential",
    "Speck3264",
    "SpeckRealOrRandomScenario",
    "ToySpeckScenario",
    "gimli_hash",
    "gimli_permute",
    "__version__",
]
