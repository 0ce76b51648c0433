"""Tests for the experiment harness (fast, tiny configurations)."""

import os

import pytest

from repro.errors import ExperimentError
from repro.experiments.config import (
    PAPER_OFFLINE_SAMPLES,
    PAPER_ONLINE_SAMPLES,
    ExperimentScale,
    get_scale,
)
from repro.experiments.figure1 import run_figure1
from repro.experiments.registry import EXPERIMENTS, get_experiment, run_experiment
from repro.experiments.report import format_table
from repro.experiments.table1 import run_table1, verify_trail_empirically
from repro.experiments.table2 import PAPER_TABLE2, run_table2
from repro.experiments.table3 import run_table3


class TestConfig:
    def test_paper_sample_counts(self):
        assert PAPER_OFFLINE_SAMPLES == pytest.approx(2**17.6, rel=1e-4)
        assert PAPER_ONLINE_SAMPLES == pytest.approx(2**14.3, rel=1e-4)

    def test_scale_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.5")
        assert get_scale() == 0.5

    def test_scale_env_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert get_scale() == 0.05

    def test_scale_env_invalid(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "two")
        with pytest.raises(ExperimentError):
            get_scale()
        monkeypatch.setenv("REPRO_SCALE", "1.5")
        with pytest.raises(ExperimentError):
            get_scale()

    def test_scaled_budgets_have_floors(self):
        tiny = ExperimentScale(0.001)
        assert tiny.offline_samples >= 2000
        assert tiny.online_samples >= 500
        assert tiny.table2_epochs >= 3

    def test_full_scale_matches_paper(self):
        full = ExperimentScale(1.0)
        assert full.offline_samples == PAPER_OFFLINE_SAMPLES
        assert full.table3_samples == 1 << 17


class TestRegistry:
    def test_all_experiments_registered(self):
        for name in (
            "table1", "table2", "table3", "figure1",
            "speck-baseline", "toyspeck-allinone", "complexity",
        ):
            assert name in EXPERIMENTS

    def test_unknown_raises(self):
        with pytest.raises(ExperimentError):
            get_experiment("table9")

    def test_every_entry_callable(self):
        for name, func in EXPERIMENTS.items():
            assert callable(func), name

    def test_complexity_runs(self):
        result = run_experiment("complexity")
        assert result["rows"][0]["classical_log2"] == 52.0


class TestFigure1:
    def test_reproduces_every_paper_number(self):
        result = run_figure1()
        assert result["exact_probability"] == result["paper_exact_probability"]
        assert result["markov_probability"] == result["paper_markov_probability"]
        assert result["round1_probability"] == result["paper_round1_probability"]
        assert result["ddt_upper"] == 4
        assert result["ddt_lower"] == 2
        assert result["upper_valid_inputs"] == [0, 2, 4, 6]
        assert result["lower_valid_inputs"] == [0xD, 0xE]


class TestTable1:
    def test_low_rounds(self):
        result = run_table1(max_search_rounds=2, verify_samples=1 << 10, rng=1)
        rows = {row["rounds"]: row for row in result["rows"]}
        assert rows[1]["measured"] == 0.0
        assert rows[2]["measured"] == 0.0
        # Weight-0 trails verify empirically with probability 1.
        assert rows[1]["empirical_probability"] == 1.0
        assert rows[2]["empirical_probability"] == 1.0
        # Unsearched rounds still carry the reference weight.
        assert rows[8]["paper"] == 52
        assert rows[8]["measured"] is None

    def test_verify_trail_empirically_rejects_garbage(self, rng):
        from repro.diffcrypt.trail import DifferentialTrail

        bogus = DifferentialTrail(
            (tuple([1] + [0] * 11), tuple([1] + [0] * 11)), (1.0,)
        )
        prob = verify_trail_empirically(bogus, samples=256, rng=rng)
        assert prob < 0.05


class TestTable2:
    def test_small_run_shape(self):
        result = run_table2(
            rounds=(4,),
            targets=("hash",),
            offline_samples=3000,
            online_samples=600,
            epochs=2,
            rng=3,
        )
        assert len(result["rows"]) == 1
        row = result["rows"][0]
        assert row["measured"] > 0.8  # 4 rounds: strong signal
        assert row["cipher_verdict"] == "CIPHER"
        assert row["random_verdict"] == "RANDOM"

    def test_paper_reference_values(self):
        assert PAPER_TABLE2[("hash", 8)] == 0.5219
        assert PAPER_TABLE2[("cipher", 8)] == 0.5099

    def test_unknown_target(self):
        with pytest.raises(ValueError):
            run_table2(rounds=(4,), targets=("permutation",), offline_samples=100)


class TestTable3:
    def test_two_network_run(self):
        result = run_table3(
            networks=("MLP II", "MLP IV"),
            total_rounds=4,
            num_samples=2000,
            epochs=1,
            rng=4,
        )
        assert len(result["rows"]) == 2
        by_name = {row["network"]: row for row in result["rows"]}
        assert by_name["MLP II"]["parameters"] == 150658
        assert by_name["MLP II"]["training_time_s"] > 0
        # 4 rounds with even one epoch should beat random noticeably.
        assert by_name["MLP II"]["measured"] > 0.6


class TestReport:
    def test_format_table(self):
        text = format_table(["a", "b"], [[1, 0.5], ["x", 2.0]], title="T")
        assert "T" in text and "0.5000" in text and "x" in text


class TestMainEntry:
    def test_cli_figure1(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["figure1"]) == 0
        out = capsys.readouterr().out
        assert "figure1" in out

    def test_cli_unknown_experiment(self):
        from repro.experiments.__main__ import main

        with pytest.raises(SystemExit):
            main(["tableX"])
