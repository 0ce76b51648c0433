"""Tests for the Gimli permutation: spec conformance and batch parity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nn_helpers import compiled_kernels_expected
from repro.ciphers import gimli
from repro.ciphers.gimli import (
    GIMLI_ROUNDS,
    GimliPermutation,
    gimli_permute,
    gimli_permute_batch,
    gimli_permute_numpy,
    gimli_round,
    spbox_column,
)
from repro.errors import CipherError, ShapeError

word = st.integers(0, 2**32 - 1)
state_strategy = st.lists(word, min_size=12, max_size=12)


class TestSpBox:
    def test_output_in_range(self):
        out = spbox_column(0xFFFFFFFF, 0xFFFFFFFF, 0xFFFFFFFF)
        assert all(0 <= w < 2**32 for w in out)

    def test_zero_input(self):
        # All-zero column maps to all-zero (no constants inside the SP-box).
        assert spbox_column(0, 0, 0) == (0, 0, 0)

    def test_known_algebra(self):
        # x=1, y=0, z=0: z' = x = 1; y' = x ^ (x<<1) = 3; x' = 0.
        assert spbox_column(1, 0, 0) == (0, 3, 1)


class TestScalarPermutation:
    def test_full_rounds_changes_state(self):
        state = list(range(12))
        assert gimli_permute(state) != state

    def test_zero_rounds_is_identity(self):
        state = list(range(12))
        assert gimli_permute(state, rounds=0) == state

    def test_round_composition(self):
        state = [3 * i + 1 for i in range(12)]
        two = gimli_permute(state, rounds=2)
        one = gimli_permute(state, rounds=1)
        chained = gimli_permute(one, rounds=1, start_round=GIMLI_ROUNDS - 1)
        assert two == chained

    def test_round_constant_applied_at_multiples_of_four(self):
        state = [0] * 12
        out = gimli_round(state, 24)
        # SP-box of zero is zero; swap of zeros is zero; constant lands.
        assert out[0] == 0x9E377900 ^ 24
        assert out[1:] == [0] * 11

    def test_no_constant_at_other_rounds(self):
        out = gimli_round([0] * 12, 23)
        assert out == [0] * 12

    def test_wrong_state_size_raises(self):
        with pytest.raises(CipherError):
            gimli_permute([0] * 11)

    def test_invalid_round_window_raises(self):
        with pytest.raises(CipherError):
            gimli_permute([0] * 12, rounds=25)
        with pytest.raises(CipherError):
            gimli_permute([0] * 12, rounds=-1)
        with pytest.raises(CipherError):
            gimli_permute([0] * 12, rounds=1, start_round=30)


class TestBatchParity:
    @settings(max_examples=25, deadline=None)
    @given(state_strategy, st.integers(0, 24))
    def test_batch_matches_scalar(self, state, rounds):
        scalar = gimli_permute(state, rounds)
        batch = gimli_permute_batch(np.array(state, dtype=np.uint32), rounds)
        assert scalar == [int(w) for w in batch]

    @settings(max_examples=25, deadline=None)
    @given(state_strategy, st.integers(1, 24), st.integers(0, 24))
    def test_batch_matches_scalar_off_default_window(self, state, start, budget):
        """Parity must also hold for round windows not starting at 24 —
        the swap/constant schedule depends on the absolute round index."""
        rounds = min(budget, start)
        scalar = gimli_permute(state, rounds, start_round=start)
        batch = gimli_permute_batch(
            np.array(state, dtype=np.uint32), rounds, start_round=start
        )
        assert scalar == [int(w) for w in batch]

    def test_batch_rows_match_scalar_with_start_round(self, rng):
        states = rng.integers(0, 2**32, size=(6, 12), dtype=np.uint64).astype(
            np.uint32
        )
        for start, rounds in [(11, 5), (8, 8), (23, 4), (10, 3)]:
            batch = gimli_permute_batch(states, rounds, start_round=start)
            for i in range(states.shape[0]):
                scalar = gimli_permute(
                    states[i].tolist(), rounds, start_round=start
                )
                assert scalar == [int(w) for w in batch[i]]

    def test_batch_shape_preserved(self, rng):
        states = rng.integers(0, 2**32, size=(17, 12), dtype=np.uint64).astype(
            np.uint32
        )
        out = gimli_permute_batch(states, 8)
        assert out.shape == (17, 12)
        assert out.dtype == np.uint32

    def test_batch_rows_independent(self, rng):
        states = rng.integers(0, 2**32, size=(5, 12), dtype=np.uint64).astype(
            np.uint32
        )
        full = gimli_permute_batch(states, 6)
        for i in range(5):
            row = gimli_permute_batch(states[i], 6)
            assert (full[i] == row).all()

    def test_input_not_mutated(self, rng):
        states = rng.integers(0, 2**32, size=(3, 12), dtype=np.uint64).astype(
            np.uint32
        )
        copy = states.copy()
        gimli_permute_batch(states, 24)
        assert (states == copy).all()

    def test_bad_shape_raises(self):
        with pytest.raises(CipherError):
            gimli_permute_batch(np.zeros((2, 11), dtype=np.uint32), 8)


class TestPermutationBijectivity:
    def test_distinct_inputs_distinct_outputs(self, rng):
        states = rng.integers(0, 2**32, size=(256, 12), dtype=np.uint64).astype(
            np.uint32
        )
        out = gimli_permute_batch(states, 24)
        seen = {row.tobytes() for row in out}
        assert len(seen) == 256


class TestGimliPermutationClass:
    def test_call_matches_function(self, rng):
        perm = GimliPermutation(rounds=8)
        states = rng.integers(0, 2**32, size=(4, 12), dtype=np.uint64).astype(
            np.uint32
        )
        assert (perm(states) == gimli_permute_batch(states, 8)).all()

    def test_state_bits(self):
        assert GimliPermutation().state_bits == 384

    def test_shape_validation(self):
        with pytest.raises(ShapeError):
            GimliPermutation(8)(np.zeros((2, 5), dtype=np.uint32))

    def test_invalid_rounds(self):
        with pytest.raises(CipherError):
            GimliPermutation(rounds=25)


class TestDiffusion:
    def test_single_bit_difference_avalanche(self, rng):
        """After the full permutation, a 1-bit input difference flips
        roughly half the state bits."""
        states = rng.integers(0, 2**32, size=(64, 12), dtype=np.uint64).astype(
            np.uint32
        )
        flipped = states.copy()
        flipped[:, 0] ^= 1
        diff = gimli_permute_batch(states, 24) ^ gimli_permute_batch(flipped, 24)
        bits = np.unpackbits(diff.view(np.uint8), bitorder="little")
        density = bits.mean()
        assert 0.45 < density < 0.55


class TestCompiledKernel:
    """The compiled permutation equals :func:`gimli_permute_numpy` bitwise."""

    def test_kernel_loads_where_a_compiler_is_available(self):
        if compiled_kernels_expected():
            assert gimli._GIMLI_KERNEL.get() is not None

    @pytest.mark.parametrize("n", [0, 1, 15, 16, 17, 8193])
    @pytest.mark.parametrize("start", [24, 23, 22, 21])
    def test_every_window_matches_numpy(self, n, start):
        states = np.random.default_rng(n + start).integers(
            0, 2**32, size=(n, 12), dtype=np.uint32
        )
        frozen = states.copy()
        # The numpy reference for ``rounds`` rounds is the one for
        # ``rounds - 1`` plus round ``start - rounds + 1``.
        reference = states.copy()
        for rounds in range(start + 1):
            got = gimli_permute_batch(states, rounds, start_round=start)
            assert got.dtype == np.uint32 and got.shape == (n, 12)
            assert got.tobytes() == reference.tobytes(), rounds
            gimli_permute_numpy(reference, 1, start - rounds)
        np.testing.assert_array_equal(states, frozen)

    def test_one_state(self, rng):
        state = rng.integers(0, 2**32, size=12, dtype=np.uint32)
        frozen = state.copy()
        got = gimli_permute_batch(state, 7, start_round=22)
        expected = gimli_permute_numpy(state[np.newaxis].copy(), 7, 22)[0]
        assert got.shape == (12,)
        assert got.tobytes() == expected.tobytes()
        np.testing.assert_array_equal(state, frozen)

    @pytest.mark.parametrize("layout", ["fortran", "strided", "int64"])
    def test_any_input_layout(self, rng, layout):
        base = rng.integers(0, 2**32, size=(37, 24), dtype=np.uint32)
        states = {
            "fortran": np.asfortranarray(base[:, :12]),
            "strided": base[::2, ::2],
            "int64": base[:, 12:].astype(np.int64),
        }[layout]
        frozen = states.copy()
        got = gimli_permute_batch(states, 6)
        expected = gimli_permute_numpy(
            np.array(states, dtype=np.uint32, order="C"), 6, GIMLI_ROUNDS
        )
        assert got.flags.c_contiguous
        assert got.tobytes() == expected.tobytes()
        np.testing.assert_array_equal(states, frozen)

    def test_numpy_fallback_gives_the_same_bits(self, rng, monkeypatch):
        states = rng.integers(0, 2**32, size=(33, 12), dtype=np.uint32)
        compiled = gimli_permute_batch(states, 9, start_round=23)
        monkeypatch.setattr(gimli._GIMLI_KERNEL, "get", lambda: None)
        assert gimli_permute_batch(states, 9, start_round=23).tobytes() == (
            compiled.tobytes()
        )
