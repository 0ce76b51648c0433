"""The paper's §6 future work, made runnable.

The conclusion proposes experimenting with "other non-Markov ciphers
and Markov ciphers like GIFT", and replacing the neural network with an
SVM.  This example runs the GIFT and SVM parts:

* round-reduced **GIFT-64** distinguishers (fresh keys per sample);
* the Gimli-Hash distinguisher retrained with a **linear SVM** instead
  of the MLP.

Usage::

    python examples/future_work_targets.py
"""

import time

from repro.core.distinguisher import MLDistinguisher
from repro.core.extra_scenarios import Gift64Scenario
from repro.core.scenario import GimliHashScenario
from repro.errors import DistinguisherAborted
from repro.nn.architectures import build_mlp
from repro.nn.svm import LinearSVM

SAMPLES = 10_000


def train(label, scenario, model=None, epochs=4):
    if model is None:
        model = build_mlp([64, 128], "relu", num_classes=scenario.num_classes)
    distinguisher = MLDistinguisher(scenario, model=model, epochs=epochs, rng=7)
    start = time.perf_counter()
    try:
        report = distinguisher.train(num_samples=SAMPLES)
        print(f"{label:<38} accuracy {report.validation_accuracy:.4f} "
              f"({time.perf_counter() - start:.1f}s)")
    except DistinguisherAborted:
        print(f"{label:<38} ABORT (no signal at {SAMPLES} samples)")


def main() -> None:
    print("== GIFT-64 (Markov, paper's named future-work cipher) ==")
    for rounds in (2, 3, 4, 5):
        train(f"GIFT-64, {rounds} rounds", Gift64Scenario(rounds=rounds))

    print("\n== SVM instead of the neural network (§6) ==")
    scenario = GimliHashScenario(rounds=6)
    svm = LinearSVM(num_classes=2, learning_rate=0.1)
    svm.build((scenario.feature_bits,))
    train("Gimli-Hash 6 rounds, linear SVM", scenario, model=svm, epochs=6)
    train("Gimli-Hash 6 rounds, MLP", scenario)


if __name__ == "__main__":
    main()
