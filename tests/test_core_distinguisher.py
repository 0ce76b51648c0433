"""Tests for Algorithm 2: the ML distinguisher end to end.

Kept on few-round scenarios so the whole file runs in seconds while
still exercising every phase: offline train/accept, offline abort,
online CIPHER and RANDOM verdicts.
"""

import numpy as np
import pytest

from repro.core.distinguisher import MLDistinguisher
from repro.core.scenario import GimliHashScenario, ToySpeckScenario
from repro.errors import DistinguisherAborted, DistinguisherError
from repro.nn.architectures import build_mlp
from repro.serve import OnlineSession


@pytest.fixture(scope="module")
def trained():
    """A distinguisher trained once on 4-round Gimli-Hash (strong signal)."""
    scenario = GimliHashScenario(rounds=4)
    distinguisher = MLDistinguisher(
        scenario,
        model=build_mlp([64, 128], "relu"),
        epochs=3,
        batch_size=128,
        rng=21,
    )
    report = distinguisher.train(num_samples=4000)
    return scenario, distinguisher, report


class TestOfflinePhase:
    def test_training_accepts_with_signal(self, trained):
        _, _, report = trained
        assert not report.aborted
        assert report.validation_accuracy > 0.9
        assert report.baseline == 0.5
        assert report.advantage > 0.4

    def test_report_log2(self, trained):
        _, _, report = trained
        assert report.offline_log2 == pytest.approx(np.log2(report.num_samples))

    def test_abort_on_full_rounds_tiny_data(self):
        """24-round Gimli with 1,500 samples has no learnable signal;
        Algorithm 2 must abort."""
        scenario = GimliHashScenario(rounds=24)
        distinguisher = MLDistinguisher(
            scenario,
            model=build_mlp([32], "relu"),
            epochs=2,
            rng=5,
        )
        with pytest.raises(DistinguisherAborted):
            distinguisher.train(num_samples=1500)
        assert distinguisher.report is not None
        assert distinguisher.report.aborted

    def test_invalid_epochs(self):
        with pytest.raises(DistinguisherError):
            MLDistinguisher(GimliHashScenario(rounds=4), epochs=0)

    def test_bad_validation_split(self):
        distinguisher = MLDistinguisher(
            GimliHashScenario(rounds=4), epochs=1, rng=0
        )
        with pytest.raises(DistinguisherError):
            distinguisher.train(num_samples=100, validation_split=0.0)


class TestOnlinePhase:
    def test_cipher_verdict(self, trained):
        scenario, distinguisher, _ = trained
        result = distinguisher.test(scenario.cipher_oracle(), 1000, rng=3)
        assert result.verdict == "CIPHER"
        assert result.is_cipher
        assert result.accuracy > result.threshold
        assert result.p_value < 1e-6

    def test_random_verdict(self, trained):
        scenario, distinguisher, _ = trained
        result = distinguisher.test(
            scenario.random_oracle(rng=8), 1000, rng=4
        )
        assert result.verdict == "RANDOM"
        assert abs(result.accuracy - 0.5) < 0.1
        assert result.p_value > 1e-3

    def test_distinguish_wrapper(self, trained):
        scenario, distinguisher, _ = trained
        assert distinguisher.distinguish(scenario.cipher_oracle(), 600, rng=5) == (
            "CIPHER"
        )

    def test_online_before_offline_rejected(self):
        scenario = GimliHashScenario(rounds=4)
        distinguisher = MLDistinguisher(scenario, epochs=1, rng=0)
        with pytest.raises(DistinguisherError):
            distinguisher.test(scenario.cipher_oracle(), 100)

    def test_training_advantage_property(self, trained):
        _, distinguisher, report = trained
        assert distinguisher.training_advantage == pytest.approx(
            report.validation_accuracy - 0.5
        )

    @pytest.mark.parametrize("oracle", ["cipher", "random"])
    def test_matches_online_session(self, trained, oracle):
        """Batch and incremental online phases share one verdict rule."""
        scenario, distinguisher, report = trained

        def make_oracle():
            if oracle == "cipher":
                return scenario.cipher_oracle()
            return scenario.random_oracle(rng=8)

        batch = distinguisher.test(make_oracle(), 1000, rng=7)
        # Replay the same queries (``test`` seeds its data with
        # ``make_rng(7)``) and feed them in two increments.
        x, y = scenario.generate_dataset(
            500, rng=np.random.default_rng(7), oracle=make_oracle()
        )
        predicted = distinguisher.model.predict_classes(x)
        session = OnlineSession(
            report.validation_accuracy, scenario.num_classes,
            target_samples=y.shape[0],
        )
        session.update(predicted[:300], y[:300])
        session.update(predicted[300:], y[300:])
        assert session.result() == batch
        assert session.verdict == batch.verdict

    def test_online_log2(self, trained):
        scenario, distinguisher, _ = trained
        result = distinguisher.test(scenario.cipher_oracle(), 512, rng=6)
        assert result.online_log2 == pytest.approx(np.log2(result.num_samples))


class TestMultiClass:
    def test_four_differences(self):
        """t = 4 input differences: the game generalises beyond binary."""
        scenario = ToySpeckScenario(
            rounds=2, deltas=(0x0040, 0x2000, 0x0001, 0x8080)
        )
        distinguisher = MLDistinguisher(
            scenario,
            model=build_mlp([32, 64], "relu", num_classes=4),
            epochs=6,
            rng=12,
        )
        report = distinguisher.train(num_samples=8000)
        assert report.num_classes == 4
        assert report.baseline == 0.25
        assert report.validation_accuracy > 0.4
        result = distinguisher.test(scenario.cipher_oracle(), 2000, rng=13)
        assert result.verdict == "CIPHER"
        random_result = distinguisher.test(
            scenario.random_oracle(rng=14), 2000, rng=15
        )
        assert random_result.verdict == "RANDOM"
