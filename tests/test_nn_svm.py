"""Tests for the linear SVM (the paper's suggested NN alternative)."""

import numpy as np
import pytest

from repro.core.distinguisher import MLDistinguisher
from repro.core.scenario import GimliHashScenario
from repro.errors import TrainingError
from repro.nn.svm import LinearSVM


def linearly_separable(rng, n=400, features=6):
    w = rng.normal(size=features)
    x = rng.normal(size=(n, features))
    y = (x @ w > 0).astype(np.int64)
    return x, y


class TestBasics:
    def test_invalid_construction(self):
        with pytest.raises(TrainingError):
            LinearSVM(num_classes=1)
        with pytest.raises(TrainingError):
            LinearSVM(learning_rate=0)
        with pytest.raises(TrainingError):
            LinearSVM(regularization=-1)

    def test_build_shapes(self):
        svm = LinearSVM(num_classes=3).build((10,))
        assert svm.weights.shape == (10, 3)
        assert svm.bias.shape == (3,)
        assert svm.count_params() == 33

    def test_count_before_build(self):
        with pytest.raises(TrainingError):
            LinearSVM().count_params()

    def test_predict_before_fit(self):
        with pytest.raises(TrainingError):
            LinearSVM().predict(np.zeros((2, 4)))


class TestLearning:
    def test_separable_problem(self, rng):
        x, y = linearly_separable(rng)
        svm = LinearSVM()
        history = svm.fit(x, y, epochs=20, rng=rng)
        assert history.last("accuracy") > 0.95

    def test_evaluate(self, rng):
        x, y = linearly_separable(rng)
        svm = LinearSVM()
        svm.fit(x, y, epochs=20, rng=rng)
        loss, metrics = svm.evaluate(x, y)
        assert metrics["accuracy"] > 0.95
        assert loss >= 0.0

    def test_onehot_labels_accepted(self, rng):
        x, y = linearly_separable(rng, n=100)
        onehot = np.eye(2)[y]
        svm = LinearSVM()
        svm.fit(x, onehot, epochs=5, rng=rng)
        assert set(svm.predict_classes(x)).issubset({0, 1})

    def test_multiclass(self, rng):
        """Three linearly separable clusters."""
        centers = np.array([[4.0, 0.0], [-4.0, 0.0], [0.0, 4.0]])
        x = np.concatenate(
            [rng.normal(loc=c, scale=0.5, size=(60, 2)) for c in centers]
        )
        y = np.repeat(np.arange(3), 60)
        svm = LinearSVM(num_classes=3)
        svm.fit(x, y, epochs=30, rng=rng)
        _, metrics = svm.evaluate(x, y)
        assert metrics["accuracy"] > 0.9

    def test_mismatched_sizes(self, rng):
        svm = LinearSVM()
        with pytest.raises(TrainingError):
            svm.fit(np.zeros((4, 3)), np.zeros(5, dtype=int), rng=rng)

    def test_invalid_epochs(self, rng):
        x, y = linearly_separable(rng, n=20)
        with pytest.raises(TrainingError):
            LinearSVM().fit(x, y, epochs=0, rng=rng)


class TestAsDistinguisherModel:
    def test_drop_in_for_mldistinguisher(self):
        """§6: 'an SVM can be used instead of neural network' — the SVM
        plugs into Algorithm 2 unchanged and distinguishes a low-round
        scenario."""
        scenario = GimliHashScenario(rounds=4)
        svm = LinearSVM(num_classes=2, learning_rate=0.1)
        svm.build((scenario.feature_bits,))
        distinguisher = MLDistinguisher(scenario, model=svm, epochs=5, rng=9)
        report = distinguisher.train(num_samples=6000)
        assert report.validation_accuracy > 0.7
        assert distinguisher.distinguish(
            scenario.cipher_oracle(), 1000, rng=10
        ) == "CIPHER"
        assert distinguisher.distinguish(
            scenario.random_oracle(rng=11), 1000, rng=12
        ) == "RANDOM"
