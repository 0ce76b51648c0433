"""Tests for the content-addressed model registry."""

import json

import numpy as np
import pytest

from repro import GimliCipherScenario, GimliHashScenario, ToySpeckScenario
from repro.core.extra_scenarios import Gift64Scenario
from repro.errors import RegistryError
from repro.nn import Dense, ReLU, Sequential, Softmax, quantize_model
from repro.nn.architectures import mlp_iii
from repro.serve import ModelRegistry, model_digest


def make_model(rng, widths=(8, 4)):
    model = Sequential([Dense(widths[0]), ReLU(), Dense(widths[1]), Softmax()])
    return model.build((6,), rng).compile()


def make_report(accuracy=0.8, t=2):
    return {
        "validation_accuracy": accuracy,
        "training_accuracy": accuracy + 0.02,
        "num_samples": 1000,
        "num_classes": t,
    }


class TestDigest:
    def test_digest_is_stable(self, rng_factory):
        a = make_model(rng_factory(1))
        b = make_model(rng_factory(1))
        assert model_digest(a) == model_digest(b)

    def test_digest_sees_weights(self, rng_factory):
        a = make_model(rng_factory(1))
        b = make_model(rng_factory(2))
        assert model_digest(a) != model_digest(b)

    def test_unbuilt_model_rejected(self):
        with pytest.raises(RegistryError):
            model_digest(Sequential([Dense(4)]))


class TestRegistration:
    def test_register_writes_weights_and_manifest(self, rng, tmp_path):
        registry = ModelRegistry(str(tmp_path))
        record = registry.register(
            make_model(rng), "m", report=make_report()
        )
        manifest = json.loads(open(record.manifest_path).read())
        assert manifest["model_id"] == record.model_id
        assert manifest["training"]["validation_accuracy"] == 0.8
        # The paper's decision threshold (a + 1/t) / 2.
        assert record.threshold == pytest.approx((0.8 + 0.5) / 2)
        model, loaded_record = registry.load(record.model_id)
        assert loaded_record.model_id == record.model_id

    def test_register_is_idempotent(self, rng, tmp_path):
        registry = ModelRegistry(str(tmp_path))
        model = make_model(rng)
        first = registry.register(model, "m")
        second = registry.register(model, "m")
        assert first.model_id == second.model_id
        assert second.version == 1
        assert len(registry.list()) == 1

    def test_versions_count_up_per_name(self, rng_factory, tmp_path):
        registry = ModelRegistry(str(tmp_path))
        v1 = registry.register(make_model(rng_factory(1)), "m")
        v2 = registry.register(make_model(rng_factory(2)), "m")
        other = registry.register(make_model(rng_factory(3)), "other")
        assert (v1.version, v2.version, other.version) == (1, 2, 1)
        assert registry.latest("m").model_id == v2.model_id

    def test_scenario_manifest_fields(self, rng, tmp_path):
        registry = ModelRegistry(str(tmp_path))
        scenario = GimliHashScenario(rounds=5)
        record = registry.register(make_model(rng), "m", scenario=scenario)
        facts = record.manifest["scenario"]
        assert facts["class"] == "GimliHashScenario"
        assert facts["num_classes"] == 2
        assert facts["feature_bits"] == 128
        masks = np.asarray(facts["input_differences"])
        assert np.array_equal(masks, scenario.difference_masks)

    @pytest.mark.parametrize(
        "scenario,digest",
        [
            (GimliHashScenario(rounds=6),
             "8f215a517289c96a866d9102499ffce0705bc8d755ac2eb1a0769973a0642e24"),
            (GimliCipherScenario(total_rounds=7),
             "8dd6c9ad0a90ed692112c409f9c57e759058ace9bef395fa02cd871a1e18077d"),
            (Gift64Scenario(rounds=3),
             "83c0f762f0826322b8538e20b48dbb70be8c32fb183ac75961731d5a02cc4b7b"),
            (ToySpeckScenario(rounds=3),
             "9b1d2608a141aa55e953f9054b349347301e9e3dce592fc3ad2a6649f748fd92"),
        ],
        ids=["gimli-hash-r6", "gimli-cipher-r7", "gift64-r3", "toyspeck-r3"],
    )
    def test_scenario_fingerprint_is_pinned(self, scenario, digest, rng, tmp_path):
        # Saved manifests carry this digest; a change to the fingerprint
        # layout would silently re-fingerprint every registered model.
        record = ModelRegistry(str(tmp_path)).register(
            make_model(rng), "m", scenario=scenario
        )
        assert record.manifest["scenario"]["fingerprint_sha256"] == digest

    def test_untrained_manifest_has_no_threshold(self, rng, tmp_path):
        record = ModelRegistry(str(tmp_path)).register(make_model(rng), "m")
        assert record.threshold is None
        assert record.manifest["training"] is None

    def test_invalid_name_rejected(self, rng, tmp_path):
        registry = ModelRegistry(str(tmp_path))
        for name in ("", "a/b", " padded "):
            with pytest.raises(RegistryError):
                registry.register(make_model(rng), name)

    def test_bad_report_dict_rejected(self, rng, tmp_path):
        with pytest.raises(RegistryError, match="validation_accuracy"):
            ModelRegistry(str(tmp_path)).register(
                make_model(rng), "m", report={"num_classes": 2}
            )


class TestLookup:
    def test_get_unknown_id(self, tmp_path):
        with pytest.raises(RegistryError, match="no model"):
            ModelRegistry(str(tmp_path)).get("deadbeef")

    def test_latest_unknown_name(self, tmp_path):
        with pytest.raises(RegistryError, match="no model registered"):
            ModelRegistry(str(tmp_path)).latest("ghost")

    def test_resolve_prefers_exact_id(self, rng_factory, tmp_path):
        registry = ModelRegistry(str(tmp_path))
        v1 = registry.register(make_model(rng_factory(1)), "m")
        registry.register(make_model(rng_factory(2)), "m")
        assert registry.resolve(v1.model_id).model_id == v1.model_id

    def test_pin_overrides_latest(self, rng_factory, tmp_path):
        registry = ModelRegistry(str(tmp_path))
        v1 = registry.register(make_model(rng_factory(1)), "m")
        v2 = registry.register(make_model(rng_factory(2)), "m")
        assert registry.resolve("m").model_id == v2.model_id
        registry.pin("m", v1.model_id)
        assert registry.resolve("m").model_id == v1.model_id
        registry.unpin("m")
        assert registry.resolve("m").model_id == v2.model_id

    def test_pin_unknown_model_rejected(self, rng, tmp_path):
        registry = ModelRegistry(str(tmp_path))
        registry.register(make_model(rng), "m")
        with pytest.raises(RegistryError):
            registry.pin("m", "not-an-id")
        with pytest.raises(RegistryError):
            registry.unpin("never-pinned")


class TestLoadedModel:
    def test_loaded_model_predicts_bit_identically(self, rng, tmp_path):
        registry = ModelRegistry(str(tmp_path))
        model = make_model(rng)
        record = registry.register(model, "m")
        loaded, _ = registry.load(record.model_id)
        x = np.random.default_rng(3).random((32, 6))
        assert np.array_equal(model.predict(x), loaded.predict(x))

    def test_loaded_model_is_compiled(self, rng, tmp_path):
        registry = ModelRegistry(str(tmp_path))
        record = registry.register(make_model(rng), "m")
        loaded, _ = registry.load(record.model_id)
        x = np.random.default_rng(3).random((16, 6))
        y = np.zeros(16, dtype=np.int64)
        loss, metrics = loaded.evaluate(x, y)  # would raise if uncompiled
        assert "accuracy" in metrics

    def test_truncated_weights_raise_registry_error(self, rng, tmp_path):
        registry = ModelRegistry(str(tmp_path))
        record = registry.register(make_model(rng), "m")
        with open(record.model_path, "r+b") as handle:
            handle.truncate(handle.seek(0, 2) // 2)
        with pytest.raises(RegistryError, match="unreadable"):
            registry.load(record.model_id)

    def test_truncated_int8_weights_raise_registry_error(self, rng, tmp_path):
        registry = ModelRegistry(str(tmp_path))
        model = make_model(rng)
        registry.register(model, "m")
        record = registry.register_quantized(
            quantize_model(model, min_weight_elems=0), "m"
        )
        with open(record.model_path, "r+b") as handle:
            handle.truncate(handle.seek(0, 2) // 2)
        with pytest.raises(RegistryError, match="unreadable"):
            registry.load(record.model_id)

    def test_float_weights_under_int8_record_raise_registry_error(
        self, rng, tmp_path
    ):
        registry = ModelRegistry(str(tmp_path))
        model = mlp_iii().build((128,), rng).compile()
        registry.register(model, "m")
        record = registry.register_quantized(quantize_model(model), "m")
        model.save(record.model_path)  # a float model where int8 belongs
        with pytest.raises(RegistryError, match="unreadable"):
            registry.load(record.model_id)
