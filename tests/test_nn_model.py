"""Tests for the Sequential model: training, evaluation, persistence."""

import os

import numpy as np
import pytest

from repro.errors import LayerError, TrainingError
from repro.nn import (
    LSTM,
    Conv1D,
    Dense,
    Dropout,
    EarlyStopping,
    Flatten,
    ReLU,
    Sequential,
    Softmax,
    load_model,
)
from repro.nn.model import _layer_class


def make_blob_data(rng, n=400):
    """Two separable Gaussian blobs in 4 dimensions."""
    x0 = rng.normal(loc=-2.0, size=(n // 2, 4))
    x1 = rng.normal(loc=+2.0, size=(n // 2, 4))
    x = np.concatenate([x0, x1])
    y = np.concatenate([np.zeros(n // 2, dtype=int), np.ones(n // 2, dtype=int)])
    order = rng.permutation(n)
    return x[order], y[order]


def make_model():
    return Sequential([Dense(16), ReLU(), Dense(2), Softmax()])


class TestBuildAndParams:
    def test_build_assigns_shapes(self, rng):
        model = make_model().build((4,), rng)
        assert model.count_params() == (4 * 16 + 16) + (16 * 2 + 2)

    def test_summary_mentions_layers(self, rng):
        summary = make_model().build((4,), rng).summary()
        assert "Dense" in summary and "Total params" in summary

    def test_empty_model_rejected(self):
        with pytest.raises(TrainingError):
            Sequential().build((4,))

    def test_add_after_build_rejected(self, rng):
        model = make_model().build((4,), rng)
        with pytest.raises(TrainingError):
            model.add(Dense(3))

    def test_count_before_build_rejected(self):
        with pytest.raises(TrainingError):
            make_model().count_params()


class TestTraining:
    def test_learns_separable_blobs(self, rng):
        x, y = make_blob_data(rng)
        model = make_model().build((4,), rng).compile()
        model.fit(x, y, epochs=10, batch_size=32, rng=rng)
        _, metrics = model.evaluate(x, y)
        assert metrics["accuracy"] > 0.95

    def test_loss_decreases(self, rng):
        x, y = make_blob_data(rng)
        model = make_model().build((4,), rng).compile()
        history = model.fit(x, y, epochs=8, batch_size=32, rng=rng)
        assert history["loss"][-1] < history["loss"][0]

    def test_history_keys(self, rng):
        x, y = make_blob_data(rng, n=64)
        model = make_model().build((4,), rng).compile()
        history = model.fit(x, y, epochs=2, rng=rng, validation_split=0.25)
        for key in ("loss", "accuracy", "val_loss", "val_accuracy", "time"):
            assert key in history

    def test_validation_data(self, rng):
        x, y = make_blob_data(rng, n=128)
        model = make_model().build((4,), rng).compile()
        history = model.fit(
            x[:96], y[:96], epochs=2, validation_data=(x[96:], y[96:]), rng=rng
        )
        assert "val_accuracy" in history

    def test_both_validation_specs_rejected(self, rng):
        x, y = make_blob_data(rng, n=64)
        model = make_model().build((4,), rng).compile()
        with pytest.raises(TrainingError):
            model.fit(
                x, y, validation_split=0.5, validation_data=(x, y), rng=rng
            )

    def test_fit_before_compile_rejected(self, rng):
        x, y = make_blob_data(rng, n=32)
        with pytest.raises(TrainingError):
            make_model().build((4,), rng).fit(x, y)

    def test_onehot_targets_accepted(self, rng):
        x, y = make_blob_data(rng, n=64)
        onehot = np.eye(2)[y]
        model = make_model().build((4,), rng).compile()
        model.fit(x, onehot, epochs=1, rng=rng)

    def test_mismatched_sample_counts(self, rng):
        model = make_model().build((4,), rng).compile()
        with pytest.raises(TrainingError):
            model.fit(np.zeros((4, 4)), np.zeros(5, dtype=int), rng=rng)

    def test_early_stopping(self, rng):
        x, y = make_blob_data(rng)
        model = make_model().build((4,), rng).compile()
        stopper = EarlyStopping(monitor="loss", patience=0, min_delta=10.0)
        history = model.fit(x, y, epochs=20, rng=rng, callbacks=[stopper])
        # min_delta=10 means "never improves" -> stops after epoch 2.
        assert len(history.epochs) == 2

    def test_deterministic_given_seed(self, rng_factory):
        results = []
        for _ in range(2):
            gen = rng_factory(11)
            x, y = make_blob_data(gen, n=64)
            model = make_model().build((4,), rng_factory(5)).compile()
            model.fit(x, y, epochs=2, rng=rng_factory(6))
            results.append(model.predict(x))
        assert np.allclose(results[0], results[1])

    def test_invalid_epochs_and_batch(self, rng):
        x, y = make_blob_data(rng, n=16)
        model = make_model().build((4,), rng).compile()
        with pytest.raises(TrainingError):
            model.fit(x, y, epochs=0, rng=rng)
        with pytest.raises(TrainingError):
            model.fit(x, y, batch_size=0, rng=rng)


class TestInference:
    def test_predict_batched_consistent(self, rng):
        x, y = make_blob_data(rng, n=64)
        model = make_model().build((4,), rng).compile()
        model.fit(x, y, epochs=1, rng=rng)
        assert np.allclose(model.predict(x, batch_size=7), model.predict(x))

    def test_predict_classes(self, rng):
        x, _ = make_blob_data(rng, n=32)
        model = make_model().build((4,), rng).compile()
        classes = model.predict_classes(x)
        assert set(classes).issubset({0, 1})

    def test_evaluate_before_compile(self, rng):
        x, y = make_blob_data(rng, n=16)
        with pytest.raises(TrainingError):
            make_model().build((4,), rng).evaluate(x, y)

    @pytest.mark.parametrize("batch_size", [0, -3])
    def test_nonpositive_predict_batch_rejected(self, rng, batch_size):
        x, y = make_blob_data(rng, n=16)
        model = make_model().build((4,), rng).compile()
        for call in (model.predict, model.predict_proba, model.predict_classes):
            with pytest.raises(TrainingError, match="batch size"):
                call(x, batch_size=batch_size)
        with pytest.raises(TrainingError, match="batch size"):
            model.evaluate(x, y, batch_size=batch_size)


class TestPredictProba:
    def test_softmax_model_proba_is_predict(self, rng):
        x, _ = make_blob_data(rng, n=32)
        model = make_model().build((4,), rng).compile()
        assert np.array_equal(model.predict_proba(x), model.predict(x))

    def test_non_softmax_model_gets_normalised(self, rng):
        x, _ = make_blob_data(rng, n=32)
        model = Sequential([Dense(8), ReLU(), Dense(3)]).build((4,), rng)
        proba = model.predict_proba(x)
        assert np.allclose(proba.sum(axis=1), 1.0)
        assert (proba >= 0).all()
        # Softmax is monotone, so class decisions match the raw argmax.
        assert np.array_equal(
            proba.argmax(axis=1), model.predict(x).argmax(axis=1)
        )

    def test_non_2d_output_rejected(self, rng):
        model = Sequential([Conv1D(3, 2)]).build((8, 2), rng)
        with pytest.raises(TrainingError, match="classes"):
            model.predict_proba(np.zeros((4, 8, 2)))

    def test_predict_classes_tie_breaks_to_lowest_index(self):
        """Exact probability ties resolve to the smallest class index."""
        model = Sequential([Softmax()]).build((3,))
        x = np.zeros((5, 3))  # uniform softmax: a three-way tie per row
        assert np.array_equal(model.predict_classes(x), np.zeros(5, dtype=int))


class TestPersistence:
    def test_save_load_roundtrip(self, rng, tmp_path):
        x, y = make_blob_data(rng, n=64)
        model = make_model().build((4,), rng).compile()
        model.fit(x, y, epochs=1, rng=rng)
        path = os.path.join(tmp_path, "model.npz")
        model.save(path)
        loaded = load_model(path)
        assert np.allclose(model.predict(x), loaded.predict(x))
        assert loaded.count_params() == model.count_params()

    def test_save_appends_npz_suffix(self, rng, tmp_path):
        model = make_model().build((4,), rng)
        model.save(os.path.join(tmp_path, "model"))
        assert os.listdir(tmp_path) == ["model.npz"]
        loaded = load_model(os.path.join(tmp_path, "model.npz"))
        assert loaded.count_params() == model.count_params()

    def test_save_before_build_rejected(self, tmp_path):
        with pytest.raises(TrainingError):
            make_model().save(os.path.join(tmp_path, "m.npz"))

    def test_unknown_layer_class(self):
        with pytest.raises(LayerError):
            _layer_class("NotALayer")

    def test_corrupt_file_raises_layer_error(self, rng, tmp_path):
        model = make_model().build((4,), rng).compile()
        path = os.path.join(tmp_path, "model.npz")
        model.save(path)
        intact = open(path, "rb").read()
        with open(path, "wb") as handle:
            handle.write(intact[: len(intact) // 2])
        with pytest.raises(LayerError, match="corrupt model file"):
            load_model(path)
        # Well-formed archives with a bad config or a missing parameter.
        np.savez(path, config=np.frombuffer(b"{not json", dtype=np.uint8))
        with pytest.raises(LayerError, match="corrupt model file"):
            load_model(path)
        model.save(path)
        with np.load(path) as data:
            arrays = {key: data[key] for key in data.files if key != "layer0_param1"}
        np.savez(path, **arrays)
        with pytest.raises(LayerError, match="corrupt model file"):
            load_model(path)


#: Every persistable layer family: (stack factory, input shape).
_ROUNDTRIP_STACKS = {
    "dense": (lambda: [Dense(16), ReLU(), Dense(2), Softmax()], (10,)),
    "conv1d": (
        lambda: [Conv1D(4, 3), ReLU(), Flatten(), Dense(2), Softmax()],
        (12, 2),
    ),
    "lstm": (lambda: [LSTM(6), Dense(2), Softmax()], (8, 4)),
    "dropout": (
        lambda: [Dense(16), ReLU(), Dropout(0.5), Dense(2), Softmax()],
        (10,),
    ),
}


class TestRoundtripEveryLayerFamily:
    """save/load must be bit-exact for every layer type and dtype."""

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("family", sorted(_ROUNDTRIP_STACKS))
    def test_predict_bit_identical_after_roundtrip(
        self, family, dtype, rng, tmp_path
    ):
        layers, input_shape = _ROUNDTRIP_STACKS[family]
        model = Sequential(layers()).build(input_shape, rng).compile(dtype=dtype)
        x = np.random.default_rng(5).random((16,) + input_shape)
        path = os.path.join(tmp_path, f"{family}-{dtype}.npz")
        model.save(path)
        loaded = load_model(path)
        assert loaded.dtype == np.dtype(dtype)
        assert np.array_equal(model.predict(x), loaded.predict(x))
        assert loaded.count_params() == model.count_params()


class TestCompileStatePersistence:
    def test_loaded_model_is_compiled(self, rng, tmp_path):
        x, y = make_blob_data(rng, n=64)
        model = make_model().build((4,), rng).compile(
            loss="categorical_crossentropy", optimizer="sgd",
            metrics=("accuracy",),
        )
        model.fit(x, y, epochs=1, rng=rng)
        path = os.path.join(tmp_path, "m.npz")
        model.save(path)
        loaded = load_model(path)
        assert type(loaded.loss).__name__ == "CategoricalCrossentropy"
        assert type(loaded.optimizer).__name__ == "SGD"
        assert loaded.metric_names == ["accuracy"]
        # evaluate and further fitting work without recompiling.
        loss, metrics = loaded.evaluate(x, y)
        assert "accuracy" in metrics
        loaded.fit(x, y, epochs=1, rng=rng)

    def test_legacy_file_without_compile_info(self, rng, tmp_path):
        """Files saved before compile persistence load but say why they
        cannot evaluate."""
        x, y = make_blob_data(rng, n=32)
        model = make_model().build((4,), rng)  # never compiled
        path = os.path.join(tmp_path, "legacy.npz")
        model.save(path)
        loaded = load_model(path)
        assert loaded.loss is None
        with pytest.raises(TrainingError, match="loaded model before evaluating"):
            loaded.evaluate(x, y)
        with pytest.raises(TrainingError, match="loaded model before fitting"):
            loaded.fit(x, y, rng=rng)
        # Compiling clears the hint and restores full function.
        loaded.compile()
        loaded.evaluate(x, y)

    def test_uncompiled_fresh_model_message_unchanged(self, rng):
        x, y = make_blob_data(rng, n=16)
        with pytest.raises(TrainingError, match="compile the model before"):
            make_model().build((4,), rng).fit(x, y)

    def test_dtype_survives_roundtrip_with_compile(self, rng, tmp_path):
        model = make_model().build((4,), rng).compile(dtype="float32")
        path = os.path.join(tmp_path, "f32.npz")
        model.save(path)
        loaded = load_model(path)
        assert loaded.dtype == np.dtype("float32")
        assert all(
            param.dtype == np.dtype("float32")
            for layer in loaded.layers
            for param in layer.params
        )
