"""Tests for the content-addressed dataset cache."""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.parallel as parallel
from repro.core.cache import (
    CACHE_ENV_VAR,
    DatasetCache,
    dataset_cache_key,
    scenario_fingerprint,
)
from repro.core.parallel import generate_dataset_sharded, seed_sequence_from
from repro.core.scenario import GimliHashScenario, ToySpeckScenario
from repro.errors import DistinguisherError


@pytest.fixture
def cache(tmp_path):
    return DatasetCache(str(tmp_path / "cache"))


class TestCacheKey:
    def test_deterministic(self):
        a = dataset_cache_key(
            ToySpeckScenario(), 100, 64, True, np.random.SeedSequence(7)
        )
        b = dataset_cache_key(
            ToySpeckScenario(), 100, 64, True, np.random.SeedSequence(7)
        )
        assert a == b

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_per_class": 101},
            {"shard_size": 32},
            {"shuffle": False},
            {"seed_seq": np.random.SeedSequence(8)},
            {"seed_seq": np.random.SeedSequence(7).spawn(1)[0]},
            {"scenario": GimliHashScenario(rounds=4)},
            {"scenario": ToySpeckScenario(rounds=3)},
        ],
    )
    def test_any_input_changes_key(self, kwargs):
        base = dict(
            scenario=ToySpeckScenario(),
            n_per_class=100,
            shard_size=64,
            shuffle=True,
            seed_seq=np.random.SeedSequence(7),
        )
        assert dataset_cache_key(**base) != dataset_cache_key(**{**base, **kwargs})

    def test_fingerprint_sees_nested_objects(self):
        # GimliHashScenario holds a permutation *object*; its attributes
        # must reach the fingerprint (two round counts must differ).
        a = scenario_fingerprint(GimliHashScenario(rounds=4))
        b = scenario_fingerprint(GimliHashScenario(rounds=6))
        assert a != b


class TestDatasetCache:
    def test_store_then_load_roundtrip(self, cache, rng):
        x = rng.normal(size=(8, 5)).astype(np.float32)
        y = rng.integers(0, 2, size=8)
        cache.store("k" * 64, x, y)
        loaded = cache.load("k" * 64)
        assert loaded is not None
        assert np.array_equal(loaded[0], x) and np.array_equal(loaded[1], y)

    def test_miss_returns_none(self, cache):
        assert cache.load("0" * 64) is None

    def test_corrupt_entry_is_removed(self, cache, tmp_path):
        cache.store("c" * 64, np.zeros(3), np.zeros(3))
        path = cache._path("c" * 64)
        with open(path, "wb") as handle:
            handle.write(b"not a zip file")
        assert cache.load("c" * 64) is None
        import os

        assert not os.path.exists(path)

    def test_empty_root_rejected(self):
        with pytest.raises(DistinguisherError):
            DatasetCache("")

    def test_from_env(self, monkeypatch, tmp_path):
        monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
        assert DatasetCache.from_env() is None
        monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path))
        assert DatasetCache.from_env().root == str(tmp_path)


class TestShardedGenerationCaching:
    def test_hit_is_bit_identical_and_skips_generation(self, cache, monkeypatch):
        scenario = ToySpeckScenario()
        fresh = generate_dataset_sharded(
            scenario, 200, rng=5, shard_size=64, cache=cache
        )
        # Second run must be served from disk: make actual generation blow up.
        def boom(job):
            raise AssertionError("cache hit should not regenerate shards")

        monkeypatch.setattr(parallel, "_run_shard", boom)
        hit = generate_dataset_sharded(
            scenario, 200, rng=5, shard_size=64, cache=cache
        )
        assert np.array_equal(fresh[0], hit[0])
        assert np.array_equal(fresh[1], hit[1])

    def test_hit_matches_uncached_result(self, cache):
        scenario = ToySpeckScenario()
        plain = generate_dataset_sharded(scenario, 150, rng=9, shard_size=64)
        generate_dataset_sharded(scenario, 150, rng=9, shard_size=64, cache=cache)
        cached = generate_dataset_sharded(
            scenario, 150, rng=9, shard_size=64, cache=cache
        )
        assert np.array_equal(plain[0], cached[0])
        assert np.array_equal(plain[1], cached[1])

    def test_live_generator_stream_independent_of_hit(self, cache):
        scenario = ToySpeckScenario()
        # Miss then hit: the caller's generator must advance identically,
        # so follow-up draws agree between the two runs.
        rng_a = np.random.default_rng(3)
        generate_dataset_sharded(scenario, 100, rng=rng_a, shard_size=64, cache=cache)
        after_miss = rng_a.integers(0, 1 << 30)

        rng_b = np.random.default_rng(3)
        generate_dataset_sharded(scenario, 100, rng=rng_b, shard_size=64, cache=cache)
        after_hit = rng_b.integers(0, 1 << 30)
        assert after_miss == after_hit

    def test_env_var_enables_caching(self, monkeypatch, tmp_path):
        monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path / "env-cache"))
        scenario = ToySpeckScenario()
        generate_dataset_sharded(scenario, 100, rng=2, shard_size=64)
        entries = list((tmp_path / "env-cache").glob("*.npz"))
        assert len(entries) == 1

    def test_disabled_without_env(self, monkeypatch, tmp_path):
        monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
        scenario = ToySpeckScenario()
        generate_dataset_sharded(scenario, 100, rng=2, shard_size=64)
        assert not list(tmp_path.glob("*.npz"))

    def test_default_generate_dataset_uses_cache(self, monkeypatch, tmp_path):
        root = tmp_path / "env-cache"
        monkeypatch.setenv(CACHE_ENV_VAR, str(root))
        scenario = GimliHashScenario(rounds=5)
        fresh = scenario.generate_dataset(500, rng=5)
        assert len(list(root.glob("*.npz"))) == 1

        def boom(job):
            raise AssertionError("cache hit should not regenerate shards")

        monkeypatch.setattr(parallel, "_run_shard", boom)
        hit = scenario.generate_dataset(500, rng=5)
        assert fresh[0].tobytes() == hit[0].tobytes()
        assert fresh[1].tobytes() == hit[1].tobytes()

    def test_oracle_calls_write_no_entry(self, monkeypatch, tmp_path):
        root = tmp_path / "env-cache"
        monkeypatch.setenv(CACHE_ENV_VAR, str(root))
        scenario = GimliHashScenario(rounds=5)
        scenario.generate_dataset(
            500, rng=5, oracle=scenario.random_oracle(rng=6)
        )
        scenario.generate_dataset(
            500, rng=5, oracle=scenario.cipher_oracle()
        )
        assert not list(root.glob("*.npz"))

    def test_seed_sequence_entropy_reaches_key(self, cache):
        # Same params, different seeds: two distinct cache entries.
        scenario = ToySpeckScenario()
        generate_dataset_sharded(scenario, 100, rng=1, shard_size=64, cache=cache)
        generate_dataset_sharded(scenario, 100, rng=2, shard_size=64, cache=cache)
        import os

        assert len([f for f in os.listdir(cache.root) if f.endswith(".npz")]) == 2


class TestDifferenceSetInKey:
    """The fingerprint must carry the full difference set (search PR)."""

    def test_single_bit_mask_change_changes_fingerprint(self):
        a = ToySpeckScenario(deltas=(0x0040, 0x2000))
        b = ToySpeckScenario(deltas=(0x0041, 0x2000))
        assert scenario_fingerprint(a) != scenario_fingerprint(b)

    def test_single_bit_mask_change_changes_cache_key(self):
        a = ToySpeckScenario(deltas=(0x0040, 0x2000))
        b = ToySpeckScenario(deltas=(0x0041, 0x2000))
        seed = np.random.SeedSequence(3)
        key_a = dataset_cache_key(a, 100, 64, True, seed)
        key_b = dataset_cache_key(b, 100, 64, True, seed)
        assert key_a != key_b

    def test_mask_order_changes_fingerprint(self):
        a = ToySpeckScenario(deltas=(0x0040, 0x2000))
        b = ToySpeckScenario(deltas=(0x2000, 0x0040))
        assert scenario_fingerprint(a) != scenario_fingerprint(b)

    def test_gimli_hash_searched_masks_change_fingerprint(self):
        base = GimliHashScenario(rounds=2)
        searched = np.array(base.difference_masks, copy=True)
        searched[0, 0] ^= np.uint32(0x2)  # second bit of byte 0
        moved = GimliHashScenario(rounds=2, masks=searched)
        assert scenario_fingerprint(base) != scenario_fingerprint(moved)

    def test_no_collision_in_dataset_cache(self, cache):
        # two scenarios differing only in one difference bit must hit
        # different REPRO_DATASET_CACHE entries
        a = ToySpeckScenario(deltas=(0x0040, 0x2000))
        b = ToySpeckScenario(deltas=(0x0041, 0x2000))
        Xa, ya = generate_dataset_sharded(a, 100, rng=1, shard_size=64, cache=cache)
        Xb, yb = generate_dataset_sharded(b, 100, rng=1, shard_size=64, cache=cache)
        import os

        entries = [f for f in os.listdir(cache.root) if f.endswith(".npz")]
        assert len(entries) == 2
        assert not np.array_equal(Xa, Xb)

    def test_related_key_and_plain_never_collide(self):
        from repro.core.related_key import ToySpeckRelatedKeyScenario

        plain = ToySpeckScenario(rounds=2)
        related = ToySpeckRelatedKeyScenario(rounds=2)
        assert scenario_fingerprint(plain) != scenario_fingerprint(related)
