"""Tests for the per-bit-bias naive-Bayes baseline."""

import numpy as np
import pytest

from repro.core.bias_baseline import BitBiasClassifier
from repro.core.distinguisher import MLDistinguisher
from repro.core.scenario import GimliHashScenario
from repro.errors import TrainingError


def biased_data(rng, n=2000, bits=16, gap=0.3):
    """Two classes differing only in the bias of the first 4 bits."""
    y = rng.integers(0, 2, size=n)
    p = np.full((n, bits), 0.5)
    p[y == 1, :4] += gap
    x = (rng.random((n, bits)) < p).astype(np.float64)
    return x, y


class TestConstruction:
    def test_invalid_args(self):
        with pytest.raises(TrainingError):
            BitBiasClassifier(num_classes=1)
        with pytest.raises(TrainingError):
            BitBiasClassifier(smoothing=0)

    def test_count_params(self):
        clf = BitBiasClassifier().build((128,))
        assert clf.count_params() == 2 * 129

    def test_count_before_build(self):
        with pytest.raises(TrainingError):
            BitBiasClassifier().count_params()


class TestLearning:
    def test_learns_biased_bits(self, rng):
        x, y = biased_data(rng)
        clf = BitBiasClassifier()
        history = clf.fit(x, y)
        assert history.last("accuracy") > 0.6

    def test_bias_profile_localises_signal(self, rng):
        x, y = biased_data(rng)
        clf = BitBiasClassifier()
        clf.fit(x, y)
        profile = np.abs(clf.bias_profile())
        # Signal bits stand out against the noise bits.
        assert profile[:4].mean() > 5 * profile[4:].mean()

    def test_uniform_data_near_chance(self, rng):
        x = (rng.random((2000, 16)) < 0.5).astype(np.float64)
        y = rng.integers(0, 2, size=2000)
        clf = BitBiasClassifier()
        clf.fit(x, y)
        _, metrics = clf.evaluate(x, y)
        assert abs(metrics["accuracy"] - 0.5) < 0.06

    def test_posteriors_normalised(self, rng):
        x, y = biased_data(rng, n=200)
        clf = BitBiasClassifier()
        clf.fit(x, y)
        posterior = clf.predict(x)
        assert np.allclose(posterior.sum(axis=1), 1.0)

    def test_onehot_labels(self, rng):
        x, y = biased_data(rng, n=200)
        clf = BitBiasClassifier()
        clf.fit(x, np.eye(2)[y])
        assert set(clf.predict_classes(x)).issubset({0, 1})

    def test_empty_class_rejected(self, rng):
        x = rng.random((10, 4))
        y = np.zeros(10, dtype=int)
        with pytest.raises(TrainingError):
            BitBiasClassifier().fit(x, y)

    def test_predict_before_fit(self):
        with pytest.raises(TrainingError):
            BitBiasClassifier().predict(np.zeros((2, 4)))

    def test_mismatched_sizes(self, rng):
        with pytest.raises(TrainingError):
            BitBiasClassifier().fit(np.zeros((4, 2)), np.zeros(5, dtype=int))


class TestAsDistinguisherBaseline:
    def test_distinguishes_low_round_gimli(self):
        """At 5 rounds, marginal bit biases alone distinguish — the
        baseline that contextualises the MLP's accuracy."""
        scenario = GimliHashScenario(rounds=5)
        clf = BitBiasClassifier()
        clf.build((scenario.feature_bits,))
        distinguisher = MLDistinguisher(scenario, model=clf, epochs=1, rng=13)
        report = distinguisher.train(num_samples=8000)
        assert report.validation_accuracy > 0.8
        assert distinguisher.distinguish(
            scenario.cipher_oracle(), 1000, rng=14
        ) == "CIPHER"
        assert distinguisher.distinguish(
            scenario.random_oracle(rng=15), 1000, rng=16
        ) == "RANDOM"
