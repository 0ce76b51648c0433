"""Ablation benchmarks for the design choices DESIGN.md calls out.

* **Classifier family** — the paper's conclusion claims an SVM can
  replace the neural network; measure the linear SVM against the
  "three layer" MLP on the same scenario.
* **Number of differences t** — Algorithm 2 requires ``t >= 2``; check
  the advantage (accuracy minus ``1/t``) persists as t grows.
* **Difference placement** — the paper picks message bytes 4 and 12
  (two different rate words); compare against two bytes in the *same*
  word.
* **Observation window** — full 384-bit permutation output vs the
  128-bit rate row only (what the sponge attacker actually sees).
"""

from repro.core.distinguisher import MLDistinguisher
from repro.core.scenario import GimliHashScenario, GimliPermutationScenario
from repro.errors import DistinguisherAborted
from repro.experiments.report import format_table
from repro.nn.architectures import build_mlp
from repro.nn.svm import LinearSVM

ROUNDS = 6
SAMPLES = 10_000


def _train(scenario, model, seed, epochs=4):
    distinguisher = MLDistinguisher(scenario, model=model, epochs=epochs, rng=seed)
    try:
        report = distinguisher.train(num_samples=SAMPLES)
        return report.validation_accuracy
    except DistinguisherAborted:
        return 1.0 / scenario.num_classes


def test_ablation_svm_vs_mlp():
    scenario = GimliHashScenario(rounds=ROUNDS)

    def run():
        mlp_acc = _train(scenario, build_mlp([128, 256], "relu"), seed=1)
        svm = LinearSVM(num_classes=2, learning_rate=0.1)
        svm.build((scenario.feature_bits,))
        svm_acc = _train(scenario, svm, seed=1)
        return mlp_acc, svm_acc

    mlp_acc, svm_acc = run()
    print()
    print(format_table(
        ["classifier", "accuracy"],
        [["MLP (three layer)", mlp_acc], ["Linear SVM", svm_acc]],
        title=f"classifier family, {ROUNDS}-round Gimli-Hash",
    ))
    # Both distinguish; the MLP sees bit correlations a linear model can't.
    assert svm_acc > 0.55
    assert mlp_acc >= svm_acc - 0.02


def test_ablation_bias_baseline_vs_mlp():
    """How much of the ML accuracy do marginal bit biases explain?

    A naive-Bayes classifier over independent output-difference bits is
    the no-learning classical baseline; the MLP's edge over it measures
    the bit-*correlation* information a neural model adds.
    """
    from repro.core.bias_baseline import BitBiasClassifier

    def run():
        rows = []
        for rounds in (5, 6, 7):
            scenario = GimliHashScenario(rounds=rounds)
            mlp_acc = _train(
                scenario, build_mlp([128, 256], "relu"), seed=8, epochs=4
            )
            baseline = BitBiasClassifier()
            baseline.build((scenario.feature_bits,))
            bias_acc = _train(scenario, baseline, seed=8, epochs=1)
            rows.append((rounds, bias_acc, mlp_acc))
        return rows

    rows = run()
    print()
    print(format_table(
        ["rounds", "bit-bias baseline", "MLP"],
        rows,
        title="first-order bias vs learned model, Gimli-Hash",
    ))
    for rounds, bias_acc, mlp_acc in rows:
        # The baseline explains much of the low-round signal...
        if rounds <= 6:
            assert bias_acc > 0.8
        # ...and the MLP never does meaningfully worse.
        assert mlp_acc >= bias_acc - 0.05, (rounds, bias_acc, mlp_acc)


def test_ablation_num_differences():
    def run():
        results = []
        for diff_bytes in [(4, 12), (0, 4, 8), (0, 4, 8, 12)]:
            scenario = GimliHashScenario(rounds=ROUNDS, diff_bytes=diff_bytes)
            model = build_mlp(
                [128, 256], "relu", num_classes=scenario.num_classes
            )
            acc = _train(scenario, model, seed=2)
            results.append((len(diff_bytes), acc, acc - 1 / len(diff_bytes)))
        return results

    results = run()
    print()
    print(format_table(
        ["t", "accuracy", "advantage over 1/t"],
        results,
        title=f"number of input differences, {ROUNDS}-round Gimli-Hash",
    ))
    for _t, _acc, adv in results:
        assert adv > 0.2


def test_ablation_difference_placement():
    def run():
        separate = _train(
            GimliHashScenario(rounds=ROUNDS, diff_bytes=(4, 12)),
            build_mlp([128, 256], "relu"),
            seed=3,
        )
        same_word = _train(
            GimliHashScenario(rounds=ROUNDS, diff_bytes=(4, 5)),
            build_mlp([128, 256], "relu"),
            seed=3,
        )
        return separate, same_word

    separate, same_word = run()
    print()
    print(format_table(
        ["placement", "accuracy"],
        [["bytes 4/12 (different words, paper)", separate],
         ["bytes 4/5 (same word)", same_word]],
        title=f"difference placement, {ROUNDS}-round Gimli-Hash",
    ))
    assert separate > 0.55
    assert same_word > 0.55


def test_ablation_observation_window():
    def run():
        full = _train(
            GimliPermutationScenario(rounds=ROUNDS),
            build_mlp([128, 256], "relu"),
            seed=4,
        )
        rate_only = _train(
            GimliPermutationScenario(rounds=ROUNDS, observe_words=range(4)),
            build_mlp([128, 256], "relu"),
            seed=4,
        )
        return full, rate_only

    full, rate_only = run()
    print()
    print(format_table(
        ["observation", "accuracy"],
        [["full 384-bit state", full], ["128-bit rate row", rate_only]],
        title=f"observation window, {ROUNDS}-round Gimli permutation",
    ))
    # Seeing more of the state can only help.
    assert full >= rate_only - 0.03
