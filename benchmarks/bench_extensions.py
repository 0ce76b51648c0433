"""Benchmark: the paper's §6 future-work targets, made concrete.

* GIFT-64 (the named Markov target): distinguisher accuracy sweep over
  rounds;
* Gift16 against its exact all-in-one Bayes ceiling.
"""

from repro.core.distinguisher import MLDistinguisher
from repro.core.extra_scenarios import Gift16Scenario, Gift64Scenario
from repro.diffcrypt.allinone import gift16_allinone
from repro.errors import DistinguisherAborted
from repro.experiments.report import format_table
from repro.nn.architectures import build_mlp

SAMPLES = 10_000


def _accuracy(scenario, seed, epochs=4, samples=SAMPLES):
    model = build_mlp([64, 128], "relu", num_classes=scenario.num_classes)
    distinguisher = MLDistinguisher(scenario, model=model, epochs=epochs, rng=seed)
    try:
        return distinguisher.train(num_samples=samples).validation_accuracy
    except DistinguisherAborted:
        return None


def test_gift64_round_sweep():
    def run():
        return [
            (rounds, _accuracy(Gift64Scenario(rounds=rounds), seed=9))
            for rounds in (2, 3, 4, 5)
        ]

    results = run()
    print()
    print(format_table(
        ["rounds", "accuracy"],
        [[r, "ABORT" if a is None else a] for r, a in results],
        title="GIFT-64 distinguisher (paper §6 future work)",
    ))
    by_round = dict(results)
    assert by_round[2] is not None and by_round[2] > 0.95
    assert by_round[3] is not None and by_round[3] > 0.8
    # Decay with rounds (later rounds may abort at this sample budget).
    if by_round[4] is not None:
        assert by_round[4] <= by_round[3] + 0.02


def test_gift16_vs_exact_ceiling():
    deltas = (0x0001, 0x0010)

    def run():
        rows = []
        for rounds in (2, 3, 4):
            ceiling = gift16_allinone(list(deltas), rounds).bayes_accuracy()
            measured = _accuracy(
                Gift16Scenario(rounds=rounds, deltas=deltas),
                seed=6,
                epochs=6,
                samples=20_000,
            )
            rows.append((rounds, ceiling, measured))
        return rows

    rows = run()
    print()
    print(format_table(
        ["rounds", "Bayes ceiling (exact)", "ML accuracy"],
        [[r, c, "ABORT" if m is None else m] for r, c, m in rows],
        title="Gift16: ML vs exact all-in-one",
    ))
    for _rounds, ceiling, measured in rows:
        if measured is not None:
            assert measured <= ceiling + 0.05
