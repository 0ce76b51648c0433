"""Tests for int8 quantized inference and its serving path.

The load-bearing properties:

* the compiled VNNI kernel and the numpy fallback are **bit-identical**
  (patching the kernel's ``get`` to ``lambda: None`` forces the
  fallback);
* fully-quantized inference is **batch-size invariant** bitwise, so the
  micro-batching engine's coalescing guarantee survives quantization;
* save -> register -> load -> serve round-trips preserve content
  (digest and array bytes) and predictions exactly;
* the registry manifest pins the held-out accuracy delta of a variant.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.errors import LayerError, RegistryError, TrainingError
from repro.nn import (
    LSTM,
    Conv1D,
    Dense,
    Flatten,
    QuantizedSequential,
    ReLU,
    Reshape,
    Sequential,
    Softmax,
    quantize_model,
)
from repro.nn.backend import qkernel
from repro.nn.quant import (
    INT8_MIN_WEIGHT_ELEMS,
    _Int8Linear,
    int8_affine,
    quantize_rows,
    quantize_weight,
)
from repro.serve import MicroBatchEngine, ModelRegistry


def make_model(rng, features=12, classes=3):
    model = Sequential(
        [Dense(16), ReLU(), Dense(classes), Softmax()]
    )
    return model.build((features,), rng).compile(dtype="float32")


def make_cnn(rng, classes=2):
    model = Sequential(
        [
            Reshape((8, 2)),
            Conv1D(6, 3),
            ReLU(),
            Flatten(),
            Dense(classes),
            Softmax(),
        ]
    )
    return model.build((16,), rng).compile(dtype="float32")


def make_report(accuracy=0.8, t=2):
    return {
        "validation_accuracy": accuracy,
        "training_accuracy": accuracy + 0.02,
        "num_samples": 1000,
        "num_classes": t,
    }


def bits(rng, n, features):
    return (rng.random((n, features)) < 0.5).astype(np.float32)


#: Quantized artifacts this build cannot read: an unknown scheme, the
#: float16 scheme that earlier builds wrote, and weight-only int8 LSTM
#: matrices (earlier builds quantized them; only Dense/Conv1D run int8).
UNSUPPORTED = ["int4", "float16", "int8_lstm"]


def write_unsupported(path, damage):
    """Overwrite the int8 artifact at ``path`` (a :func:`make_model`
    variant) with one of the :data:`UNSUPPORTED` layouts."""
    with np.load(path) as data:
        arrays = {key: np.array(data[key]) for key in data.files}
    config = json.loads(bytes(arrays.pop("config")).decode())
    if damage == "int4":
        config["quant_scheme"] = "int4"
    elif damage == "float16":
        config["quant_scheme"] = "float16"
        for key in [key for key in arrays if key.endswith("_q")]:
            base = key[: -len("_q")]
            scale = arrays.pop(f"{base}_scale")
            arrays[base] = arrays.pop(key) * scale
        arrays = {key: a.astype(np.float16) for key, a in arrays.items()}
    else:
        lstm = Sequential([Reshape((4, 3)), LSTM(4), Dense(2), Softmax()])
        lstm.build((12,), np.random.default_rng(0))
        config["input_shape"] = [12]
        config["layers"] = [
            {"class": layer.name, "config": layer.get_config()}
            for layer in lstm.layers
        ]
        arrays = {}
        for index, layer in enumerate(lstm.layers):
            for slot, param in enumerate(layer.params):
                base = f"layer{index}_param{slot}"
                if isinstance(layer, LSTM) and param.ndim == 2:
                    arrays[f"{base}_q"], scale = quantize_weight(param)
                    arrays[f"{base}_scale"] = np.float32(scale)
                else:
                    arrays[base] = param.astype(np.float32)
    arrays["config"] = np.frombuffer(json.dumps(config).encode(), np.uint8)
    np.savez(path, **arrays)


# -- primitives -------------------------------------------------------------


class TestPrimitives:
    def test_quantize_weight_roundtrip_error_bounded(self, rng):
        w = rng.normal(size=(64, 32)).astype(np.float32)
        q, scale = quantize_weight(w)
        assert q.dtype == np.int8
        assert np.abs(q.astype(np.float64) * scale - w).max() <= scale / 2 + 1e-9

    def test_quantize_weight_zero_tensor(self):
        q, scale = quantize_weight(np.zeros((4, 4)))
        assert scale == 1.0
        assert not q.any()

    def test_quantize_rows_is_per_row(self, rng):
        x = rng.normal(size=(6, 20)).astype(np.float32)
        q_all, scale_all, zp_all = quantize_rows(x)
        for i in range(x.shape[0]):
            q_one, scale_one, zp_one = quantize_rows(x[i:i + 1])
            assert q_one.tobytes() == q_all[i:i + 1].tobytes()
            assert scale_one[0] == scale_all[i]
            assert zp_one[0] == zp_all[i]

    def test_quantize_rows_zero_row_is_exact(self):
        q, scale, zp = quantize_rows(np.zeros((1, 8), dtype=np.float32))
        assert scale[0] == 0.0
        assert (q == zp[0]).all()

    def test_quantize_rows_keeps_exact_zero(self, rng):
        x = np.abs(rng.normal(size=(3, 16))).astype(np.float32)
        x[:, 0] = 0.0
        q, _scale, zp = quantize_rows(x)
        assert (q[:, 0] == zp).all()

    def test_bit_inputs_quantize_losslessly(self, rng):
        # {0, 1} rows hit the uint8 grid exactly: zp = 0 and each bit
        # lands on level 0 or 255 with no rounding.
        x = bits(rng, 5, 32)
        q, _scale, zp = quantize_rows(x)
        assert (zp == 0).all()
        assert np.array_equal(q, (x * 255).astype(np.uint8))


# -- kernel vs numpy fallback ----------------------------------------------


class TestKernelParity:
    def test_kernel_and_numpy_paths_bit_identical(self, rng, monkeypatch):
        if qkernel._KERNEL.get() is None:
            pytest.skip("compiled kernel unavailable on this host")
        w = rng.normal(size=(96, 33)).astype(np.float32)
        q, scale = quantize_weight(w)
        linear = _Int8Linear(q, scale, rng.normal(size=33).astype(np.float32))
        x = rng.normal(size=(17, 96)).astype(np.float32)
        x[3] = 0.0  # all-zero row: scale-0 edge case on both paths
        via_kernel = int8_affine(x, linear)
        monkeypatch.setattr(qkernel._KERNEL, "get", lambda: None)
        assert not qkernel.kernel_in_use()
        via_numpy = int8_affine(x, linear)
        assert via_kernel.dtype == via_numpy.dtype == np.float32
        assert via_kernel.tobytes() == via_numpy.tobytes()

    def test_pack_weights_pads_to_lanes(self, rng):
        q = rng.integers(-127, 128, size=(10, 5)).astype(np.int8)
        packed, kp, mp = qkernel.pack_weights(q)
        assert kp % 4 == 0 and kp >= 10
        assert mp % 16 == 0 and mp >= 5
        assert packed.shape == (kp // 4, mp, 4)


# -- quantize_model and the quantized model --------------------------------


class TestQuantizeModel:
    def test_unbuilt_model_rejected(self):
        with pytest.raises(TrainingError, match="build"):
            quantize_model(Sequential([Dense(4)]))

    def test_parent_model_unchanged(self, rng):
        model = make_model(rng)
        before = [p.copy() for layer in model.layers for p in layer.params]
        quantize_model(model, min_weight_elems=0)
        after = [p for layer in model.layers for p in layer.params]
        for a, b in zip(before, after):
            assert a.tobytes() == b.tobytes()

    def test_small_weights_stay_float_by_default(self, rng):
        model = make_model(rng)  # largest kernel is 16x3 << 2^15
        quantized = quantize_model(model)
        assert not any(key.endswith("_q") for key in quantized.arrays)
        x = bits(np.random.default_rng(1), 8, 12)
        assert (
            quantized.predict_proba(x).tobytes()
            == model.predict_proba(x).tobytes()
        )

    def test_min_weight_elems_zero_quantizes_matrices(self, rng):
        quantized = quantize_model(make_model(rng), min_weight_elems=0)
        assert "layer0_param0_q" in quantized.arrays
        assert quantized.arrays["layer0_param0_q"].dtype == np.int8
        assert "layer0_param1" in quantized.arrays  # bias stays float32

    def test_gate_threshold_is_two_to_fifteen(self):
        assert INT8_MIN_WEIGHT_ELEMS == 1 << 15

    def test_int8_predictions_close_to_parent(self, rng):
        model = make_model(rng)
        quantized = quantize_model(model, min_weight_elems=0)
        x = bits(np.random.default_rng(3), 64, 12)
        a = model.predict_proba(x)
        b = quantized.predict_proba(x)
        assert np.abs(a - b).max() < 0.05

    def test_conv_model_quantizes(self, rng):
        model = make_cnn(rng)
        quantized = quantize_model(model, min_weight_elems=0)
        assert "layer1_param0_q" in quantized.arrays
        x = bits(np.random.default_rng(4), 32, 16)
        a = model.predict_proba(x)
        b = quantized.predict_proba(x)
        assert np.argmax(a, axis=1).tolist() == np.argmax(b, axis=1).tolist()

    def test_lstm_parameters_stay_float32(self, rng):
        model = Sequential([Reshape((4, 3)), LSTM(8), Dense(2), Softmax()])
        model.build((12,), rng).compile(dtype="float32")
        quantized = quantize_model(model, min_weight_elems=0)
        assert "layer2_param0_q" in quantized.arrays
        assert not any(key.startswith("layer1_") and key.endswith("_q")
                       for key in quantized.arrays)
        for slot, param in enumerate(model.layers[1].params):
            stored = quantized.arrays[f"layer1_param{slot}"]
            assert stored.dtype == np.float32
            assert stored.tobytes() == param.tobytes()

    def test_quantized_layers_are_inference_only(self, rng):
        quantized = quantize_model(make_model(rng), min_weight_elems=0)
        x = bits(np.random.default_rng(5), 4, 12)
        with pytest.raises(TrainingError, match="inference-only"):
            quantized._exec.forward(x, training=True)

    def test_count_params_matches_parent(self, rng):
        model = make_model(rng)
        quantized = quantize_model(model, min_weight_elems=0)
        assert quantized.count_params() == model.count_params()


class TestBatchInvariance:
    def test_fully_quantized_predict_is_batch_size_invariant(self, rng):
        quantized = quantize_model(make_model(rng), min_weight_elems=0)
        x = bits(np.random.default_rng(6), 40, 12)
        fused = quantized.predict_proba(x, batch_size=40)
        for batch_size in (1, 7, 16):
            chunked = quantized.predict_proba(x, batch_size=batch_size)
            assert chunked.tobytes() == fused.tobytes()

    def test_row_results_independent_of_neighbours(self, rng):
        quantized = quantize_model(make_model(rng), min_weight_elems=0)
        x = bits(np.random.default_rng(7), 10, 12)
        fused = quantized.predict_proba(x, batch_size=10)
        for i in range(10):
            single = quantized.predict_proba(x[i:i + 1], batch_size=1)
            assert single.tobytes() == fused[i:i + 1].tobytes()


# -- persistence and registry ----------------------------------------------


class TestRoundtrip:
    def test_save_load_preserves_content_and_predictions(self, rng, tmp_path):
        quantized = quantize_model(make_model(rng), min_weight_elems=0)
        path = str(tmp_path / "variant.npz")
        quantized.save(path)
        loaded = QuantizedSequential.load(path)
        assert loaded.scheme == "int8"
        assert loaded.digest() == quantized.digest()
        assert sorted(loaded.arrays) == sorted(quantized.arrays)
        for key, array in quantized.arrays.items():
            assert loaded.arrays[key].dtype == array.dtype
            assert loaded.arrays[key].tobytes() == array.tobytes()
        x = bits(np.random.default_rng(8), 16, 12)
        assert (
            loaded.predict_proba(x).tobytes()
            == quantized.predict_proba(x).tobytes()
        )

    @pytest.mark.parametrize("scheme", [None, "int8"])
    def test_failed_save_leaves_previous_file(
        self, rng, tmp_path, scheme, monkeypatch
    ):
        model = make_model(rng)
        if scheme is not None:
            model = quantize_model(model, min_weight_elems=0)
        path = tmp_path / "model.npz"
        model.save(str(path))
        before = path.read_bytes()

        def torn(stream, **arrays):
            stream.write(before[: len(before) // 2])
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez", torn)
        with pytest.raises(OSError, match="disk full"):
            model.save(str(path))
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["model.npz"]

    def test_float_artifact_rejected(self, rng, tmp_path):
        path = str(tmp_path / "float.npz")
        make_model(rng).save(path)
        with pytest.raises(TrainingError, match="quantized"):
            QuantizedSequential.load(path)

    @pytest.mark.parametrize(
        "damage",
        ["truncate", "bad_config", "drop_weight", "drop_bias", "bad_shape"],
    )
    def test_torn_artifact_raises_layer_error(self, rng, tmp_path, damage):
        path = str(tmp_path / "variant.npz")
        quantize_model(make_model(rng), min_weight_elems=0).save(path)
        if damage == "truncate":
            with open(path, "r+b") as handle:
                handle.truncate(handle.seek(0, 2) // 2)
        else:
            with np.load(path) as data:
                arrays = {key: np.array(data[key]) for key in data.files}
            if damage == "bad_config":
                arrays["config"] = np.frombuffer(b"{not json", dtype=np.uint8)
            elif damage == "drop_weight":
                # Without the check the layer would load randomly
                # initialised: a silent wrong answer.
                del arrays["layer0_param0_q"], arrays["layer0_param0_scale"]
            elif damage == "drop_bias":
                del arrays["layer2_param1"]
            else:
                arrays["layer2_param0_q"] = arrays["layer2_param0_q"][:1]
            np.savez(path, **arrays)
        with pytest.raises(LayerError):
            QuantizedSequential.load(path)

    @pytest.mark.parametrize("damage", UNSUPPORTED)
    def test_unsupported_artifact_raises_layer_error(
        self, rng, tmp_path, damage
    ):
        path = str(tmp_path / "variant.npz")
        quantize_model(make_model(rng), min_weight_elems=0).save(path)
        write_unsupported(path, damage)
        with pytest.raises(LayerError, match="scheme|int8"):
            QuantizedSequential.load(path)


class TestRegistry:
    def _register_parent(self, rng, tmp_path):
        registry = ModelRegistry(str(tmp_path))
        model = make_model(rng, classes=2)
        # Train on a separable task (label = first bit) so decision
        # margins are wide, as they are for a real distinguisher —
        # the accuracy-delta criterion targets trained models, not
        # random initializations whose ties flip under any rounding.
        data_rng = np.random.default_rng(0xFEED)
        x = bits(data_rng, 512, 12)
        model.fit(x, x[:, 0].astype(int), epochs=4, batch_size=64, rng=1)
        record = registry.register(model, "toy", report=make_report())
        return registry, model, record

    def test_register_load_serve_roundtrip(self, rng, tmp_path):
        registry, model, parent = self._register_parent(rng, tmp_path)
        quantized = quantize_model(model, min_weight_elems=0)
        record = registry.register_quantized(quantized, "toy")
        assert record.name == "toy-int8"
        assert record.model_id == quantized.digest()
        assert record.manifest["quantization"]["parent_id"] == parent.model_id
        assert record.manifest["threshold"] == parent.manifest["threshold"]
        loaded, loaded_record = registry.load("toy-int8")
        assert isinstance(loaded, QuantizedSequential)
        assert loaded.digest() == quantized.digest()
        x = bits(np.random.default_rng(9), 24, 12)
        direct = quantized.predict_proba(x, batch_size=24)
        assert loaded.predict_proba(x, batch_size=24).tobytes() == direct.tobytes()
        with MicroBatchEngine(loaded) as engine:
            assert engine.classify(x).tobytes() == direct.tobytes()

    def test_register_quantized_is_idempotent(self, rng, tmp_path):
        registry, model, _parent = self._register_parent(rng, tmp_path)
        quantized = quantize_model(model, min_weight_elems=0)
        first = registry.register_quantized(quantized, "toy")
        second = registry.register_quantized(quantized, "toy")
        assert first.model_id == second.model_id
        assert first.version == second.version == 1

    def test_manifest_records_accuracy_delta(self, rng, tmp_path):
        registry, model, _parent = self._register_parent(rng, tmp_path)
        data_rng = np.random.default_rng(10)
        features = bits(data_rng, 400, 12)
        labels = model.predict_classes(features)
        quantized = quantize_model(model, min_weight_elems=0)
        record = registry.register_quantized(
            quantized, "toy", holdout=(features, labels)
        )
        section = record.manifest["quantization"]
        assert section["parent_holdout_accuracy"] == 1.0
        assert abs(section["accuracy_delta_pp"]) <= 0.5
        assert record.summary()["quantization"] == "int8"

    @pytest.mark.parametrize("damage", UNSUPPORTED)
    def test_unsupported_artifact_raises_registry_error(
        self, rng, tmp_path, damage
    ):
        registry, model, _parent = self._register_parent(rng, tmp_path)
        record = registry.register_quantized(
            quantize_model(model, min_weight_elems=0), "toy"
        )
        write_unsupported(record.model_path, damage)
        with pytest.raises(RegistryError, match="unreadable"):
            registry.load("toy-int8")


# -- the micro-batching engine on quantized models -------------------------


class TestEngineCoalescing:
    def test_coalesced_batch_bitwise_equals_fused_predict(self, rng):
        quantized = quantize_model(make_model(rng), min_weight_elems=0)
        data_rng = np.random.default_rng(12)
        batches = [bits(data_rng, rows, 12) for rows in (3, 1, 4, 2, 5)]
        engine = MicroBatchEngine(
            quantized, max_batch=64, max_wait_ms=5.0, autostart=False
        )
        futures = [engine.submit(batch) for batch in batches]
        engine.start()
        results = [future.result(timeout=10.0) for future in futures]
        engine.stop()
        fused = quantized.predict_proba(
            np.concatenate(batches, axis=0), batch_size=sum(b.shape[0] for b in batches)
        )
        offset = 0
        for batch, result in zip(batches, results):
            rows = batch.shape[0]
            assert result.tobytes() == fused[offset:offset + rows].tobytes()
            offset += rows
