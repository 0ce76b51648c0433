"""Benchmark: regenerate Figure 1 / §2.1 (non-Markov toy demonstration).

Asserts the exact reproduction of every number the paper quotes:
characteristic probability 2^-6 by enumeration vs 2^-9 under the Markov
assumption (Eq. 2), the DDT entries, and the valid input tuples.
"""

from repro.experiments.figure1 import run_figure1
from repro.experiments.report import format_table


def test_figure1():
    result = run_figure1()
    rows = [
        ["exact probability", result["paper_exact_probability"],
         result["exact_probability"]],
        ["markov probability", result["paper_markov_probability"],
         result["markov_probability"]],
        ["round-1 probability", result["paper_round1_probability"],
         result["round1_probability"]],
        ["DDT(2->5)", 4, result["ddt_upper"]],
        ["DDT(3->8)", 2, result["ddt_lower"]],
    ]
    print()
    print(format_table(["quantity", "paper", "measured"], rows,
                       title="Figure 1 (non-Markov toy cipher)"))
    assert result["exact_probability"] == result["paper_exact_probability"]
    assert result["markov_probability"] == result["paper_markov_probability"]
    assert result["round1_probability"] == result["paper_round1_probability"]
    assert result["upper_valid_inputs"] == [0, 2, 4, 6]
    assert result["lower_valid_inputs"] == [0xD, 0xE]
