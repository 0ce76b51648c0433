"""Cross-module integration tests: the paper's pipelines end to end."""

import numpy as np
import pytest

from repro import (
    GimliHashScenario,
    GimliPermutationScenario,
    MLDistinguisher,
    ToySpeckScenario,
)
from repro.core.statistics import required_online_samples
from repro.diffcrypt.allinone import toyspeck_allinone
from repro.nn.architectures import build_mlp
from repro.nn.model import load_model


class TestFullAlgorithm2:
    """Algorithm 2 run exactly as the paper describes, on a fast scenario."""

    def test_offline_online_roundtrip_with_persistence(self, tmp_path):
        scenario = GimliHashScenario(rounds=5)
        distinguisher = MLDistinguisher(
            scenario, model=build_mlp([64, 128], "relu"), epochs=3, rng=31
        )
        report = distinguisher.train(num_samples=6000)
        assert report.validation_accuracy > 0.8

        # The paper stores the trained model in an .h5 file; ours is .npz.
        path = str(tmp_path / "distinguisher.npz")
        distinguisher.model.save(path)
        reloaded = load_model(path)
        x, y = scenario.generate_dataset(200, rng=17)
        assert np.allclose(
            distinguisher.model.predict(x), reloaded.predict(x)
        )

        # Online sizing from the offline accuracy.
        n_online = required_online_samples(
            report.validation_accuracy, 2, error_probability=0.01
        )
        n_online = max(n_online, 200)
        assert distinguisher.distinguish(
            scenario.cipher_oracle(), n_online, rng=18
        ) == "CIPHER"
        assert distinguisher.distinguish(
            scenario.random_oracle(rng=19), n_online, rng=20
        ) == "RANDOM"


class TestMLTracksBayesCeiling:
    """The ML distinguisher approximates the exact all-in-one classifier."""

    def test_toyspeck_accuracy_below_ceiling(self):
        deltas = (0x0040, 0x2000)
        rounds = 3
        exact = toyspeck_allinone(list(deltas), rounds, max_active=2048)
        ceiling = exact.bayes_accuracy()
        scenario = ToySpeckScenario(rounds=rounds, deltas=deltas)
        distinguisher = MLDistinguisher(
            scenario,
            model=build_mlp([32, 64], "relu"),
            epochs=6,
            rng=41,
        )
        report = distinguisher.train(num_samples=12000)
        measured = report.validation_accuracy
        assert measured <= ceiling + 0.03  # cannot beat Bayes
        assert measured > 0.5 + 0.5 * (ceiling - 0.5) * 0.5  # but gets close


class TestAccuracyDecaysWithRounds:
    """Table 2's qualitative shape on the raw permutation."""

    def test_monotone_decay(self):
        accuracies = {}
        for rounds in (3, 5):
            scenario = GimliPermutationScenario(
                rounds=rounds, observe_words=range(4)
            )
            distinguisher = MLDistinguisher(
                scenario, model=build_mlp([64, 64], "relu"), epochs=3, rng=rounds
            )
            report = distinguisher.train(num_samples=4000)
            accuracies[rounds] = report.validation_accuracy
        assert accuracies[3] >= accuracies[5] - 0.02


class TestCrossImplementationConsistency:
    def test_scenario_pipeline_equals_mode_reference(self, rng):
        """GimliHashScenario's batched pipeline equals the byte-level
        Gimli-Hash first squeeze for the same message."""
        import struct

        from repro.ciphers.gimli_hash import gimli_hash

        scenario = GimliHashScenario(rounds=24)
        inputs = scenario.sample_base_inputs(4, rng)
        out = scenario.pipeline(inputs, None)
        for i in range(4):
            message = inputs[i].astype("<u4").tobytes()[:15]
            expected = gimli_hash(message)[:16]
            got = b"".join(struct.pack("<I", int(w)) for w in out[i])
            assert got == expected
