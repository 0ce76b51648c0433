"""Figure 1 / §2.1: the non-Markov toy-cipher demonstration.

The paper's 2-round, two-S-box toy built from the GIFT S-box has a
characteristic whose true probability (``2^-6``, by exhaustive
enumeration) is 8x the Markov-assumption product (``2^-9``).  This
experiment re-derives every quoted number: the DDT entries, the valid
input tuples, both probabilities, and the quantitative violation of
Lai-Massey-Murphy's Definition 2.
"""

from __future__ import annotations

from typing import Dict

from repro.ciphers.gift import GIFT_SBOX
from repro.ciphers.toygift import PAPER_TRAIL, ToyGift, default_wiring
from repro.diffcrypt.markov import figure1_demonstration, markov_violation_toygift
from repro.diffcrypt.sbox import SBox
from repro.jobs import bind_run, run_cells


def _run_figure1_cell(payload: Dict) -> Dict:
    """The whole (deterministic) derivation as one grid cell."""
    return _figure1_body()


def run_figure1(queue_dir=None) -> Dict:
    """Regenerate the Figure 1 discussion (all numbers re-derived).

    The derivation is exhaustive and deterministic — no seeds — so the
    experiment is a single job; ``queue_dir`` still routes it through
    :mod:`repro.jobs` so a run directory's queue state covers every
    experiment uniformly.
    """
    if queue_dir is None:
        return _figure1_body()
    bind_run(queue_dir, "figure1", {}, 0)
    (result,) = run_cells(
        _run_figure1_cell,
        [{}],
        specs=[{"experiment": "figure1"}],
        label="figure1",
        queue_dir=queue_dir,
    )
    return result


def _figure1_body() -> Dict:
    sbox = SBox(GIFT_SBOX)
    demo = figure1_demonstration()
    dy1 = PAPER_TRAIL["delta_y1"]
    dw1 = PAPER_TRAIL["delta_w1"]
    upper_pairs = sbox.valid_input_pairs(dy1[0], dw1[0])
    lower_pairs = sbox.valid_input_pairs(dy1[1], dw1[1])
    toy = ToyGift()
    return {
        "experiment": "figure1",
        "wiring": list(default_wiring()),
        "ddt_upper": int(sbox.ddt[dy1[0], dw1[0]]),
        "ddt_lower": int(sbox.ddt[dy1[1], dw1[1]]),
        "upper_valid_inputs": [p[0] for p in upper_pairs],
        "lower_valid_inputs": [p[0] for p in lower_pairs],
        "round1_probability": demo["round1_probability"],
        "paper_round1_probability": 2.0**-5,
        "exact_probability": demo["exact_probability"],
        "paper_exact_probability": 2.0**-6,
        "markov_probability": demo["markov_probability"],
        "paper_markov_probability": 2.0**-9,
        "markov_violation": markov_violation_toygift(),
        "trail": {k: list(v) for k, v in PAPER_TRAIL.items()},
        "exact_weight": demo["exact_weight"],
        "markov_weight": demo["markov_weight"],
        "toy_is_deterministic_per_input": toy.encrypt(0) == toy.encrypt(0),
    }
