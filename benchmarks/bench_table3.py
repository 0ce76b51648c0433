"""Benchmark: regenerate Table 3 (architecture search, Gimli-Cipher).

Two parts:

* ``test_table3_all_networks`` — all ten networks on a 6-round,
  default-scale workload: reproduces the parameter-count column exactly
  (MLP I/II/IV/V; III/VI are off by the paper's own 2) and the
  training-time ordering (LSTMs an order of magnitude slower than
  MLPs).
* ``test_table3_8round_headline`` — representative networks at the
  paper's 8-round target with a 2^17-sample budget: reproduces the
  "MLPs distinguish 8-round Gimli-Cipher" accuracy row.

Known deviation (recorded in EXPERIMENTS.md): the paper's CNNs sit at
accuracy 0.5000; our Conv1D stack *does* learn the per-byte bias (the
paper does not specify its CNN topology, so exact reproduction of its
failure mode is not possible).
"""

from repro.experiments.report import format_table
from repro.experiments.table3 import run_table3


def _print_rows(result):
    rows = [
        [row["network"], row["activation"], row["parameters"],
         row["paper_parameters"], f"{row['training_time_s']:.1f}",
         row["measured"], row["paper"]]
        for row in result["rows"]
    ]
    print()
    print(format_table(
        ["network", "activation", "params", "paper params", "time (s)",
         "measured acc", "paper acc (8r)"],
        rows,
        title=(
            f"Table 3 (architecture search, {result['rounds']}-round "
            f"Gimli-Cipher, {result['num_samples']} samples, "
            f"{result['epochs']} epochs)"
        ),
    ))


def test_table3_all_networks():
    result = run_table3(total_rounds=6, rng=5)
    _print_rows(result)
    by_name = {row["network"]: row for row in result["rows"]}

    # Exact parameter-count reproduction for the fully-specified MLPs.
    for name in ("MLP I", "MLP II", "MLP IV", "MLP V"):
        assert by_name[name]["parameters"] == by_name[name]["paper_parameters"]
    # The paper's MLP III/VI figure is 2 below the layer arithmetic.
    for name in ("MLP III", "MLP VI"):
        assert by_name[name]["parameters"] == (
            by_name[name]["paper_parameters"] + 2
        )

    # MLPs distinguish comfortably at 6 rounds.
    for name in ("MLP II", "MLP III"):
        assert by_name[name]["measured"] > 0.55, name

    # LSTMs learn too, but train roughly an order of magnitude slower
    # than the comparable MLP (paper: ~10x on GPU).
    assert by_name["LSTM I"]["measured"] > 0.55
    mlp_time = by_name["MLP II"]["training_time_s"]
    lstm_time = by_name["LSTM I"]["training_time_s"]
    assert lstm_time > 3 * mlp_time


def test_table3_8round_headline():
    result = run_table3(
        networks=("MLP II", "MLP III"),
        total_rounds=8,
        num_samples=1 << 17,
        epochs=3,
        rng=5,
    )
    _print_rows(result)
    by_name = {row["network"]: row for row in result["rows"]}
    # The paper's headline: small MLPs distinguish 8-round Gimli-Cipher
    # (paper accuracies 0.5462 / 0.5654 at 2^17 samples, 5 epochs).
    for name in ("MLP II", "MLP III"):
        assert by_name[name]["measured"] > 0.505, name
