"""Tests for the float32/float64 compute-dtype policy.

The policy promise: ``compile(..., dtype="float32")`` switches every
parameter, activation, gradient and optimizer buffer to float32 — and a
float32 run is not a degraded run: on a learnable scenario it reaches
the same distinguisher verdict as float64.
"""

import numpy as np
import pytest

from repro.core.distinguisher import MLDistinguisher
from repro.core.scenario import ToySpeckScenario
from repro.errors import LayerError, TrainingError
from repro.nn.layers import Dense, Dropout, ReLU, Softmax
from repro.nn.losses import one_hot
from repro.nn.model import Sequential
from repro.nn.recurrent import LSTM


def _compiled(dtype=None, layers=None):
    model = Sequential(layers or [Dense(16), ReLU(), Dense(2), Softmax()])
    model.build((8,), rng=0)
    model.compile(dtype=dtype)
    return model


class TestDtypePropagation:
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_params_and_grads_follow_policy(self, dtype):
        model = _compiled(dtype=dtype)
        expected = np.dtype(dtype)
        params, grads = model._gather()
        assert params and all(p.dtype == expected for p in params)
        assert all(g.dtype == expected for g in grads)

    def test_default_stays_float64(self):
        model = _compiled()
        assert model.dtype == np.float64
        assert all(p.dtype == np.float64 for p in model._gather()[0])

    def test_forward_output_dtype(self):
        model = _compiled(dtype="float32")
        out = model.forward(np.zeros((4, 8)))
        assert out.dtype == np.float32

    def test_training_preserves_dtype(self):
        model = _compiled(dtype="float32")
        rng = np.random.default_rng(0)
        x = rng.normal(size=(32, 8))
        y = one_hot(rng.integers(0, 2, 32), 2)
        model.fit(x, y, epochs=2, batch_size=8, rng=1)
        assert all(p.dtype == np.float32 for p in model._gather()[0])
        assert all(g.dtype == np.float32 for g in model._gather()[1])

    def test_dropout_mask_does_not_upcast(self):
        model = _compiled(
            dtype="float32",
            layers=[Dense(16), ReLU(), Dropout(0.5), Dense(2), Softmax()],
        )
        out = model.forward(np.zeros((4, 8)), training=True, rng=0)
        assert out.dtype == np.float32

    def test_lstm_states_follow_dtype(self):
        model = Sequential([LSTM(8), Dense(2), Softmax()])
        model.build((4, 6), rng=0)
        model.compile(dtype="float32")
        out = model.forward(np.zeros((3, 4, 6)), training=True)
        assert out.dtype == np.float32

    def test_rejects_non_float_dtype(self):
        model = Sequential([Dense(2)])
        with pytest.raises(TrainingError):
            model.set_dtype("int32")
        layer = Dense(2)
        with pytest.raises(LayerError):
            layer.set_dtype(np.int64)

    def test_save_load_roundtrip_keeps_dtype(self, tmp_path):
        model = _compiled(dtype="float32")
        path = str(tmp_path / "model.npz")
        model.save(path)
        loaded = Sequential.load(path)
        assert loaded.dtype == np.float32
        assert all(p.dtype == np.float32 for p in loaded._gather()[0])
        x = np.random.default_rng(3).normal(size=(5, 8))
        np.testing.assert_allclose(model.predict(x), loaded.predict(x))


class TestFloat32Parity:
    def test_float32_reaches_same_verdict_on_toyspeck(self):
        """The acceptance test: a float32 distinguisher on 3-round
        ToySpeck trains past the 1/t abort gate and returns the same
        online verdicts as its float64 twin."""
        results = {}
        for dtype in ("float64", "float32"):
            scenario = ToySpeckScenario(rounds=3)
            distinguisher = MLDistinguisher(
                scenario, epochs=3, batch_size=128, rng=17, dtype=dtype
            )
            report = distinguisher.train(num_samples=4000)
            assert not report.aborted
            assert report.validation_accuracy > report.baseline
            cipher = distinguisher.test(scenario.cipher_oracle(), 1000, rng=3)
            random = distinguisher.test(
                scenario.random_oracle(rng=8), 1000, rng=4
            )
            assert distinguisher.model.dtype == np.dtype(dtype)
            results[dtype] = (cipher.verdict, random.verdict)
        assert results["float32"] == results["float64"] == ("CIPHER", "RANDOM")

    def test_float32_close_to_float64_on_one_batch(self):
        """One fused training step in float32 tracks float64 to ~1e-3."""
        rng = np.random.default_rng(5)
        x = rng.normal(size=(64, 8))
        y = one_hot(rng.integers(0, 2, 64), 2)
        updated = {}
        for dtype in ("float64", "float32"):
            model = _compiled(dtype=dtype)
            model.train_on_batch(x.astype(dtype), y.astype(dtype))
            updated[dtype] = [p.copy() for p in model._gather()[0]]
        for p64, p32 in zip(updated["float64"], updated["float32"]):
            np.testing.assert_allclose(p64, p32.astype(np.float64), atol=2e-3)
