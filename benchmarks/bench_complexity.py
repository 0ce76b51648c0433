"""Benchmark: §4/§6 complexity accounting and the cube-root claim.

Checks the paper's arithmetic: 2^17.6 offline / 2^14.3 online against
the designers' 2^52 single-trail bound, and the statistical sizing that
justifies the online budget.
"""

from repro.core.complexity import cube_root_summary, gimli8_paper_complexity
from repro.core.statistics import required_online_samples
from repro.experiments.report import format_table


def test_cube_root_comparison():
    summary = cube_root_summary(8)
    rows = [
        ["classical trail (log2)", summary["classical_log2"]],
        ["ML offline (log2)", summary["ml_offline_log2"]],
        ["ML online (log2)", summary["ml_online_log2"]],
        ["cube root of classical (log2)", summary["cube_root_log2"]],
        ["online / classical exponent ratio", summary["online_exponent_ratio"]],
    ]
    print()
    print(format_table(["quantity", "value"], rows,
                       title="§6 complexity comparison (8-round Gimli)"))
    assert summary["classical_log2"] == 52.0
    # The paper's "around cube root" claim.
    assert abs(summary["offline_exponent_ratio"] - 1 / 3) < 0.08
    assert summary["online_exponent_ratio"] < 1 / 3


def test_online_budget_consistent_with_accuracy():
    """The paper's 2^14.3 online budget sits between what its two
    8-round accuracies require at 1% error: enough for Gimli-Hash
    (0.5219), tight for Gimli-Cipher (0.5099)."""

    def sizing():
        return (
            required_online_samples(0.5219, 2, error_probability=0.01),
            required_online_samples(0.5099, 2, error_probability=0.01),
        )

    needed_hash, needed_cipher = sizing()
    paper_online = gimli8_paper_complexity().online_samples
    print(f"\nonline samples @1% error: hash(0.5219) needs {needed_hash}, "
          f"cipher(0.5099) needs {needed_cipher}; paper budget "
          f"{paper_online:.0f}")
    assert needed_hash <= paper_online <= needed_cipher
