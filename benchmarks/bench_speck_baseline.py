"""Benchmark: §2.3 background — Gohr-style SPECK + exact all-in-one.

Reproduced shapes:

* the real-vs-random SPECK distinguisher accuracy decays with rounds
  (strong at 3-4 rounds, weak by 6 — Gohr's residual networks reach
  farther, our MLP baseline shows the same qualitative curve);
* on ToySpeck, the ML accuracy approaches but never exceeds the exact
  all-in-one Bayes ceiling — the relationship Gohr established for
  SPECK-32/64 with a 34 GB DDT precomputation.
"""

from repro.experiments.report import format_table
from repro.experiments.speck_baseline import (
    run_speck_baseline,
    run_toyspeck_allinone,
)


def test_speck_real_vs_random():
    result = run_speck_baseline(rounds=(3, 4, 5, 6), rng=2)
    rows = [[row["rounds"], row["measured"]] for row in result["rows"]]
    print()
    print(format_table(
        ["rounds", "accuracy"],
        rows,
        title="SPECK-32/64 real-vs-random MLP distinguisher (Gohr's game)",
    ))
    by_round = {row["rounds"]: row["measured"] for row in result["rows"]}
    assert by_round[3] > 0.9
    assert by_round[4] > by_round[6]
    assert by_round[6] < 0.75


def test_toyspeck_ml_vs_allinone():
    result = run_toyspeck_allinone(rounds=(2, 3, 4), rng=3)
    rows = [
        [row["rounds"], row["bayes_accuracy"], row["measured"],
         row["advantage_vs_random"]]
        for row in result["rows"]
    ]
    print()
    print(format_table(
        ["rounds", "Bayes ceiling (exact all-in-one)", "ML accuracy",
         "TV advantage"],
        rows,
        title="ToySpeck: ML distinguisher vs exact all-in-one baseline",
    ))
    for row in result["rows"]:
        assert row["measured"] <= row["bayes_accuracy"] + 0.03
    by_round = {row["rounds"]: row for row in result["rows"]}
    # At 2 rounds the ML model should essentially reach the ceiling.
    assert by_round[2]["measured"] > 0.95 * by_round[2]["bayes_accuracy"]
    # Decay with rounds.
    assert by_round[4]["bayes_accuracy"] <= by_round[2]["bayes_accuracy"] + 1e-9
