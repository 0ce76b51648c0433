"""Tests for the distinguisher scenarios."""

import hashlib

import numpy as np
import pytest

from repro.core.scenario import (
    GimliCipherScenario,
    GimliHashScenario,
    GimliPermutationScenario,
    SpeckRealOrRandomScenario,
    ToySpeckScenario,
    scenario_fingerprint,
)
from repro.errors import DistinguisherError
from repro.utils.rng import make_rng


class TestGimliHashScenario:
    def test_difference_masks_match_paper_bytes(self):
        """Bytes 4 and 12 are the LSBs of rate words 1 and 3."""
        scenario = GimliHashScenario(rounds=8)
        masks = scenario.difference_masks
        assert masks.shape == (2, 4)
        assert masks[0, 1] == 1 and masks[0, [0, 2, 3]].sum() == 0
        assert masks[1, 3] == 1 and masks[1, [0, 1, 2]].sum() == 0

    def test_feature_bits(self):
        assert GimliHashScenario().feature_bits == 128

    def test_dataset_shapes_and_labels(self, rng):
        scenario = GimliHashScenario(rounds=6)
        x, y = scenario.generate_dataset(50, rng=rng)
        assert x.shape == (100, 128)
        assert x.dtype == np.float32
        assert sorted(np.unique(y)) == [0, 1]
        assert (np.bincount(y) == 50).all()

    def test_base_inputs_respect_block_len(self, rng):
        scenario = GimliHashScenario(rounds=6, block_len=7, diff_bytes=(1, 4))
        inputs = scenario.sample_base_inputs(10, make_rng(rng))
        raw = np.frombuffer(inputs.astype("<u4").tobytes(), dtype=np.uint8)
        raw = raw.reshape(10, 16)
        assert (raw[:, 7:] == 0).all()

    def test_diff_byte_outside_block_rejected(self):
        with pytest.raises(DistinguisherError):
            GimliHashScenario(diff_bytes=(4, 15), block_len=15)

    def test_invalid_block_len(self):
        with pytest.raises(DistinguisherError):
            GimliHashScenario(block_len=16)

    def test_need_two_differences(self):
        with pytest.raises(DistinguisherError):
            GimliHashScenario(diff_bytes=(4,))

    def test_dataset_deterministic_given_seed(self):
        scenario = GimliHashScenario(rounds=6)
        x1, y1 = scenario.generate_dataset(20, rng=99)
        x2, y2 = scenario.generate_dataset(20, rng=99)
        assert (x1 == x2).all() and (y1 == y2).all()

    def test_signal_at_low_rounds(self, rng):
        """At 2 rounds the two classes have visibly different
        output-difference distributions."""
        scenario = GimliHashScenario(rounds=2)
        x, y = scenario.generate_dataset(200, rng=rng)
        mean0 = x[y == 0].mean(axis=0)
        mean1 = x[y == 1].mean(axis=0)
        assert np.abs(mean0 - mean1).max() > 0.5


class TestGimliCipherScenario:
    def test_dataset_shapes(self, rng):
        scenario = GimliCipherScenario(total_rounds=6)
        x, y = scenario.generate_dataset(30, rng=rng)
        assert x.shape == (60, 128)

    def test_requires_context(self):
        scenario = GimliCipherScenario()
        with pytest.raises(DistinguisherError):
            scenario.pipeline(np.zeros((2, 4), dtype=np.uint32), None)

    def test_invalid_diff_byte(self):
        with pytest.raises(DistinguisherError):
            GimliCipherScenario(diff_bytes=(4, 16))

    def test_nonce_respecting_keys_differ(self, rng):
        scenario = GimliCipherScenario()
        ctx = scenario.sample_context(8, make_rng(rng))
        assert len({row.tobytes() for row in ctx}) == 8


class TestGimliPermutationScenario:
    def test_default_differences(self):
        scenario = GimliPermutationScenario(rounds=4)
        assert scenario.num_classes == 2
        assert scenario.feature_bits == 384

    def test_observe_words_subset(self, rng):
        scenario = GimliPermutationScenario(rounds=4, observe_words=range(4))
        x, y = scenario.generate_dataset(10, rng=rng)
        assert x.shape == (20, 128)

    def test_invalid_observe_words(self):
        with pytest.raises(DistinguisherError):
            GimliPermutationScenario(observe_words=[12])
        with pytest.raises(DistinguisherError):
            GimliPermutationScenario(observe_words=[])

    def test_custom_differences(self, rng):
        diffs = np.zeros((3, 12), dtype=np.uint32)
        diffs[0, 0] = 1
        diffs[1, 5] = 2
        diffs[2, 11] = 4
        scenario = GimliPermutationScenario(rounds=2, differences=diffs)
        x, y = scenario.generate_dataset(5, rng=rng)
        assert sorted(np.unique(y)) == [0, 1, 2]

    def test_zero_difference_rejected(self):
        diffs = np.zeros((2, 12), dtype=np.uint32)
        diffs[0, 0] = 1
        with pytest.raises(DistinguisherError):
            GimliPermutationScenario(differences=diffs)


class TestToySpeckScenario:
    def test_dataset_shapes(self, rng):
        scenario = ToySpeckScenario(rounds=3)
        x, y = scenario.generate_dataset(25, rng=rng)
        assert x.shape == (50, 16)
        assert scenario.feature_bits == 16

    def test_invalid_delta(self):
        with pytest.raises(DistinguisherError):
            ToySpeckScenario(deltas=(0, 1))
        with pytest.raises(DistinguisherError):
            ToySpeckScenario(deltas=(1 << 16, 1))

    def test_masks_split_words(self):
        scenario = ToySpeckScenario(deltas=(0x1234, 0x0001))
        assert scenario.difference_masks[0, 0] == 0x12
        assert scenario.difference_masks[0, 1] == 0x34


class TestRandomOracleDataset:
    def test_random_oracle_removes_signal(self, rng):
        scenario = GimliHashScenario(rounds=2)
        oracle = scenario.random_oracle(rng=7)
        x, y = scenario.generate_dataset(200, rng=rng, oracle=oracle)
        mean0 = x[y == 0].mean(axis=0)
        mean1 = x[y == 1].mean(axis=0)
        assert np.abs(mean0 - mean1).max() < 0.25


class TestSpeckRealOrRandom:
    def test_dataset_shapes(self, rng):
        scenario = SpeckRealOrRandomScenario(rounds=4)
        x, y = scenario.generate_dataset(100, rng=rng)
        assert x.shape == (200, 64)
        assert (np.bincount(y) == 100).all()

    def test_one_round_pairs_fully_determined(self, rng):
        """At 1 round Gohr's difference is deterministic, so real pairs
        XOR to a constant while random pairs don't."""
        scenario = SpeckRealOrRandomScenario(rounds=1)
        x, y = scenario.generate_dataset(200, rng=rng)
        c0 = x[:, :32]
        c1 = x[:, 32:]
        diffs = (c0 != c1).astype(int)
        real_patterns = {tuple(row) for row in diffs[y == 1]}
        random_patterns = {tuple(row) for row in diffs[y == 0]}
        assert len(real_patterns) == 1
        assert len(random_patterns) > 10

    @pytest.mark.parametrize("shuffle, x_digest, y_digest", [
        (True,
         "bdd7f588a22c11b5b00553a222371ad09a7e4406886ffc02c04e5b6a60e90c95",
         "73f205b210cef8b69e02d956d0986cbfd9ac975342ebeeca8250ebbdf17a8616"),
        (False,
         "f32b1d5b948500083f65e682f6ac75d9dbf6aa889cf1eb5ab281472678ffd72c",
         "d5bf0c1e70a7a3319c4e0233e075186348a76e380df3d5822ae105d92f1a0e1c"),
    ])
    def test_dataset_bytes_pinned(self, shuffle, x_digest, y_digest):
        # Recorded when the float rows were shuffled after expansion;
        # shuffling the word pairs first must give the same bytes.
        x, y = SpeckRealOrRandomScenario(rounds=5).generate_dataset(
            1000, rng=31, shuffle=shuffle
        )
        assert hashlib.sha256(x.tobytes()).hexdigest() == x_digest
        assert hashlib.sha256(y.tobytes()).hexdigest() == y_digest

    def test_invalid_delta(self):
        with pytest.raises(DistinguisherError):
            SpeckRealOrRandomScenario(delta=0)

    def test_invalid_sample_count(self, rng):
        with pytest.raises(DistinguisherError):
            SpeckRealOrRandomScenario().generate_dataset(0, rng=rng)


class TestScenarioFingerprint:
    """The fingerprint must carry the nested state and the difference set."""

    def test_fingerprint_sees_nested_objects(self):
        # GimliHashScenario holds a permutation *object*; its attributes
        # must reach the fingerprint (two round counts must differ).
        a = scenario_fingerprint(GimliHashScenario(rounds=4))
        b = scenario_fingerprint(GimliHashScenario(rounds=6))
        assert a != b

    def test_single_bit_mask_change_changes_fingerprint(self):
        a = ToySpeckScenario(deltas=(0x0040, 0x2000))
        b = ToySpeckScenario(deltas=(0x0041, 0x2000))
        assert scenario_fingerprint(a) != scenario_fingerprint(b)

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
