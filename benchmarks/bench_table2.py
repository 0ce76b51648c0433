"""Benchmark: regenerate Table 2 (Gimli-Hash / Gimli-Cipher accuracies).

Trains the distinguisher for 6/7/8 rounds of both targets at
``REPRO_SCALE`` of the paper's 2^17.6 samples, then runs the online
phase against a cipher and a random oracle.  Shape assertions: accuracy
decreases with rounds, stays above 1/2 at 8 rounds, and the online
verdicts are correct.

Set ``REPRO_SCALE=1.0`` for the paper's full data budget (minutes of
CPU time per row).
"""

from repro.experiments.report import format_table
from repro.experiments.table2 import run_table2


def test_table2():
    result = run_table2(rounds=(6, 7, 8), rng=7)
    rows = [
        [row["target"], row["rounds"], row["paper"], row["measured"],
         row.get("cipher_verdict", "-"), row.get("random_verdict", "-")]
        for row in result["rows"]
    ]
    print()
    print(format_table(
        ["target", "rounds", "paper acc", "measured acc",
         "cipher oracle", "random oracle"],
        rows,
        title=(
            f"Table 2 (neural distinguisher accuracy; "
            f"{result['offline_samples']} offline samples, "
            f"{result['epochs']} epochs)"
        ),
    ))
    by_key = {(r["target"], r["rounds"]): r for r in result["rows"]}
    for target in ("hash", "cipher"):
        acc6 = by_key[(target, 6)]["measured"]
        acc7 = by_key[(target, 7)]["measured"]
        acc8 = by_key[(target, 8)]["measured"]
        # Monotone decay toward 1/2, as in the paper.
        assert acc6 > acc7 > acc8 - 0.02, (target, acc6, acc7, acc8)
        # 6 rounds is a strong distinguisher.
        assert acc6 > 0.80
        # 8 rounds still (just) beats random, the paper's headline.
        assert acc8 > 0.503
        # Online phase reaches the right verdicts at 6-7 rounds.
        for rounds in (6, 7):
            row = by_key[(target, rounds)]
            assert row["cipher_verdict"] == "CIPHER"
            assert row["random_verdict"] == "RANDOM"
