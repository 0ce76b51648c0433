"""Tests for the extension scenarios (Gift16)."""

import numpy as np
import pytest

from repro.core.distinguisher import MLDistinguisher
from repro.core.extra_scenarios import Gift16Scenario
from repro.errors import DistinguisherError
from repro.nn.architectures import build_mlp


class TestGift16Scenario:
    def test_dataset_shapes(self, rng):
        scenario = Gift16Scenario(rounds=3)
        x, y = scenario.generate_dataset(25, rng=rng)
        assert x.shape == (50, 16)

    def test_low_rounds_distinguishable(self):
        scenario = Gift16Scenario(rounds=2)
        d = MLDistinguisher(
            scenario, model=build_mlp([32, 64], "relu"), epochs=5, rng=6
        )
        report = d.train(num_samples=4000)
        assert report.validation_accuracy > 0.6

    def test_accuracy_below_exact_bayes_ceiling(self):
        """The ML model cannot beat the exact all-in-one classifier."""
        from repro.diffcrypt.allinone import gift16_allinone

        deltas = (0x0001, 0x0010)
        rounds = 3
        ceiling = gift16_allinone(list(deltas), rounds).bayes_accuracy()
        scenario = Gift16Scenario(rounds=rounds, deltas=deltas)
        d = MLDistinguisher(
            scenario, model=build_mlp([32, 64], "relu"), epochs=5, rng=7
        )
        report = d.train(num_samples=6000)
        assert report.validation_accuracy <= ceiling + 0.05

    def test_invalid_construction(self):
        with pytest.raises(DistinguisherError):
            Gift16Scenario(rounds=0)
        with pytest.raises(DistinguisherError):
            Gift16Scenario(deltas=(0, 1))
