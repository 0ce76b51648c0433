"""Tests for repro.core.parallel: sharded dataset generation.

The contract under test: for a fixed seed and shard size the generated
dataset is a pure function of the seed — the worker count only changes
scheduling, never a single bit of the output.
"""

import hashlib
import tracemalloc

import numpy as np
import pytest

from repro.core.parallel import (
    DEFAULT_SHARD_SIZE,
    generate_dataset_sharded,
    resolve_workers,
    seed_sequence_from,
    shard_sizes,
)
from repro.core.scenario import (
    GimliCipherScenario,
    GimliHashScenario,
    ToySpeckScenario,
)
from repro.errors import DistinguisherError


class TestShardPlan:
    def test_exact_multiple(self):
        assert shard_sizes(8192, 4096) == [4096, 4096]

    def test_remainder_shard(self):
        assert shard_sizes(9000, 4096) == [4096, 4096, 808]

    def test_small_n_single_shard(self):
        assert shard_sizes(100, 4096) == [100]

    def test_default_shard_size(self):
        assert sum(shard_sizes(3 * DEFAULT_SHARD_SIZE + 1)) == (
            3 * DEFAULT_SHARD_SIZE + 1
        )

    def test_rejects_bad_inputs(self):
        with pytest.raises(DistinguisherError):
            shard_sizes(0)
        with pytest.raises(DistinguisherError):
            shard_sizes(10, 0)


class TestSeedSequenceFrom:
    def test_int_is_deterministic(self):
        a = seed_sequence_from(42).generate_state(4)
        b = seed_sequence_from(42).generate_state(4)
        assert np.array_equal(a, b)

    def test_seed_sequence_passthrough(self):
        seq = np.random.SeedSequence(7)
        assert seed_sequence_from(seq) is seq

    def test_generator_advances(self):
        gen = np.random.default_rng(1)
        a = seed_sequence_from(gen).generate_state(4)
        b = seed_sequence_from(gen).generate_state(4)
        assert not np.array_equal(a, b)


class TestShardedGeneration:
    @pytest.mark.parametrize("workers", [2, 3])
    def test_bit_identical_across_worker_counts(self, workers):
        scenario = ToySpeckScenario(rounds=3)
        x1, y1 = generate_dataset_sharded(
            scenario, 5000, rng=123, workers=1, shard_size=1024
        )
        xn, yn = generate_dataset_sharded(
            scenario, 5000, rng=123, workers=workers, shard_size=1024
        )
        assert np.array_equal(x1, xn)
        assert np.array_equal(y1, yn)

    def test_scenario_entry_point_routes_to_sharded(self):
        scenario = GimliHashScenario(rounds=4)
        direct = generate_dataset_sharded(scenario, 3000, rng=9, workers=1)
        via_method = scenario.generate_dataset(3000, rng=9, workers=1)
        assert np.array_equal(direct[0], via_method[0])
        assert np.array_equal(direct[1], via_method[1])

    def test_default_matches_every_worker_count(self):
        # Two shards at the default shard size, so workers=2 uses a pool.
        scenario = ToySpeckScenario(rounds=3)
        x, y = scenario.generate_dataset(DEFAULT_SHARD_SIZE + 500, rng=5)
        for workers in (1, 2):
            xw, yw = scenario.generate_dataset(
                DEFAULT_SHARD_SIZE + 500, rng=5, workers=workers
            )
            assert xw.tobytes() == x.tobytes()
            assert yw.tobytes() == y.tobytes()

    def test_unshuffled_is_class_major(self):
        scenario = GimliCipherScenario(total_rounds=4)
        _, y = generate_dataset_sharded(
            scenario, 2500, rng=3, workers=2, shard_size=1024, shuffle=False
        )
        expected = np.concatenate(
            [np.full(2500, i, dtype=np.int64) for i in range(scenario.num_classes)]
        )
        assert np.array_equal(y, expected)

    def test_shapes_and_dtype(self):
        scenario = GimliHashScenario(rounds=4)
        x, y = generate_dataset_sharded(scenario, 2048, rng=0, workers=2)
        assert x.shape == (2048 * scenario.num_classes, scenario.feature_bits)
        assert x.dtype == np.float32
        assert y.shape == (2048 * scenario.num_classes,)

    def test_balanced_labels_after_shuffle(self):
        scenario = ToySpeckScenario(rounds=3)
        _, y = generate_dataset_sharded(scenario, 4200, rng=1, workers=2)
        for i in range(scenario.num_classes):
            assert (y == i).sum() == 4200

    def test_stateful_oracle_shards_run_in_process(self):
        scenario = ToySpeckScenario(rounds=3)
        oracle = scenario.random_oracle(rng=0)
        with_workers = generate_dataset_sharded(
            scenario, 300, rng=8, oracle=oracle, workers=4, shard_size=64
        )
        # The caller's own oracle answered every query, so no shard ran
        # on a copy in another process.
        assert len(oracle._memo) >= 300
        oracle_again = scenario.random_oracle(rng=0)
        serial = generate_dataset_sharded(
            scenario, 300, rng=8, oracle=oracle_again, shard_size=64
        )
        assert np.array_equal(with_workers[0], serial[0])
        assert len(oracle_again._memo) == len(oracle._memo)

    def test_rejects_bad_workers(self):
        scenario = ToySpeckScenario(rounds=3)
        with pytest.raises(DistinguisherError):
            generate_dataset_sharded(scenario, 100, rng=0, workers=0)


def _sha256(array):
    return hashlib.sha256(array.tobytes()).hexdigest()


#: SHA-256 of ``x.tobytes()`` for ``3 * 512 + 100`` base inputs per class
#: at ``shard_size=512`` and ``rng=2024``, recorded when the shards still
#: returned float32 bit rows.  Every case shares the label digest below.
DATASET_DIGESTS = {
    "gimli-hash-r6": (
        lambda: GimliHashScenario(rounds=6),
        "e6a0e1eeb5081690658978f676a983e03dfad4de6278e8c8be31288991b2a668",
    ),
    "gimli-cipher-r7": (
        lambda: GimliCipherScenario(total_rounds=7),
        "357f2f9abc265c42ac7b7059bde90417760180777ab51154c39da3e1fe582fe2",
    ),
    "toyspeck-r3": (
        lambda: ToySpeckScenario(rounds=3),
        "689eb6b2089acbb654f03c1e4d9693e079df7efaa178c4f35c1befc61740e1a7",
    ),
}
LABEL_DIGEST = "e9751a65084fc40dd7d936e0dad36bffd653a1b85dab8ec25dd8f6d4a4007164"


class TestPinnedBytes:
    """Digests recorded at an earlier commit, so a change to any stream,
    the regrouping or the shuffle fails here even when it moves every
    worker count alike."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("case", sorted(DATASET_DIGESTS))
    def test_dataset_bytes(self, case, workers):
        make, x_digest = DATASET_DIGESTS[case]
        x, y = generate_dataset_sharded(
            make(), 3 * 512 + 100, rng=2024, workers=workers, shard_size=512
        )
        assert (_sha256(x), _sha256(y)) == (x_digest, LABEL_DIGEST)

    def test_memoised_random_oracle_bytes(self):
        scenario = ToySpeckScenario(rounds=3)
        x, y = generate_dataset_sharded(
            scenario, 3 * 512 + 100, rng=2024,
            oracle=scenario.random_oracle(rng=4), shard_size=512,
        )
        assert _sha256(x) == (
            "83e45bf4f65b33d84ee27958e2c87ee4505ac3970f394cc5ceddb19f936bd668"
        )
        assert _sha256(y) == LABEL_DIGEST


class TestMemory:
    def test_peak_is_one_dataset(self):
        # The features are expanded once, into the returned array, so
        # the traced peak stays near the result's own size.
        scenario = GimliHashScenario(rounds=6)
        scenario.generate_dataset(100, rng=0)  # warm caches and kernels
        tracemalloc.start()
        try:
            x, y = scenario.generate_dataset(3 * DEFAULT_SHARD_SIZE + 100, rng=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.6 * (x.nbytes + y.nbytes)


class TestResolveWorkers:
    def test_none_is_one(self):
        # No worker count given.
        assert resolve_workers() == 1

    def test_clamped_to_cpu_count(self):
        assert resolve_workers(10_000) >= 1

    def test_rejects_nonpositive(self):
        with pytest.raises(DistinguisherError):
            resolve_workers(0)
