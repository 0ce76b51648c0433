"""Tests for the oracle abstraction."""

import numpy as np
import pytest

from repro.core.oracle import CipherOracle, RandomOracle
from repro.errors import DistinguisherError


class TestCipherOracle:
    def test_delegates(self):
        oracle = CipherOracle(lambda inputs, context: inputs + 1)
        out = oracle.query(np.array([[1, 2]]), None)
        assert (out == [[2, 3]]).all()

    def test_callable(self):
        oracle = CipherOracle(lambda inputs, context: inputs)
        assert (oracle(np.array([[7]])) == [[7]]).all()


class TestRandomOracle:
    def test_output_geometry(self, rng):
        oracle = RandomOracle(output_words=4, word_width=32, rng=rng)
        out = oracle.query(np.zeros((5, 2), dtype=np.uint32), None)
        assert out.shape == (5, 4)
        assert out.dtype == np.uint32

    def test_memoized_consistency(self, rng):
        """Same input twice must give the same answer — a random
        *function*, not a random process."""
        oracle = RandomOracle(output_words=2, rng=rng)
        inputs = np.array([[1, 2], [1, 2], [3, 4]], dtype=np.uint32)
        out = oracle.query(inputs, None)
        assert (out[0] == out[1]).all()

    def test_memoization_respects_context(self, rng):
        oracle = RandomOracle(output_words=2, rng=rng)
        inputs = np.array([[1, 2], [1, 2]], dtype=np.uint32)
        context = np.array([[10], [20]], dtype=np.uint32)
        out = oracle.query(inputs, context)
        assert (out[0] != out[1]).any()

    def test_outputs_look_uniform(self, rng):
        oracle = RandomOracle(output_words=1, word_width=8, rng=rng)
        inputs = np.arange(4096, dtype=np.uint16).reshape(-1, 1)
        out = oracle.query(inputs, None)
        counts = np.bincount(out.ravel(), minlength=256)
        assert counts.min() > 0  # every byte value appears

    def test_word_width_8(self, rng):
        oracle = RandomOracle(output_words=2, word_width=8, rng=rng)
        out = oracle.query(np.zeros((3, 1), dtype=np.uint8), None)
        assert out.dtype == np.uint8

    def test_invalid_construction(self):
        with pytest.raises(DistinguisherError):
            RandomOracle(output_words=0)
        with pytest.raises(DistinguisherError):
            RandomOracle(output_words=2, word_width=12)


def _loop_query(oracle, inputs, context=None):
    """The row-at-a-time memoised query the batched one replaced."""
    inputs = np.asarray(inputs)
    n = inputs.shape[0]
    out = np.empty((n, oracle.output_words), dtype=oracle._draw(1).dtype)
    for row in range(n):
        key = inputs[row].tobytes()
        if context is not None:
            key += np.asarray(context)[row].tobytes()
        cached = oracle._memo.get(key)
        if cached is None:
            cached = oracle._draw(1)[0]
            oracle._memo[key] = cached
        out[row] = cached
    return out


class TestBatchedMemo:
    """The batched memo answers, and leaves the generator, exactly as
    the per-row loop does."""

    @pytest.mark.parametrize("word_width", [8, 16, 32, 64])
    @pytest.mark.parametrize("with_context", [False, True])
    def test_matches_row_loop(self, word_width, with_context):
        data = np.random.default_rng(word_width)
        batched = RandomOracle(output_words=3, word_width=word_width, rng=41)
        looped = RandomOracle(output_words=3, word_width=word_width, rng=41)
        # Few distinct values, so rows repeat within a call and across
        # calls; 1001 rows is odd.
        for _ in range(3):
            inputs = data.integers(0, 3, (1001, 2), dtype=np.uint16)
            context = (data.integers(0, 2, (1001, 1), dtype=np.uint32)
                       if with_context else None)
            got = batched.query(inputs, context)
            want = _loop_query(looped, inputs, context)
            assert got.dtype == want.dtype
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()
            assert got.flags.writeable
        assert np.array_equal(batched._draw(5), looped._draw(5))

    @pytest.mark.parametrize("word_width", [8, 16, 32, 64])
    def test_block_draw_is_single_draws(self, word_width):
        block = RandomOracle(output_words=3, word_width=word_width, rng=9)
        single = RandomOracle(output_words=3, word_width=word_width, rng=9)
        rows = np.concatenate([single._draw(1) for _ in range(7)])
        assert np.array_equal(block._draw(7), rows)
        assert np.array_equal(block._draw(2), single._draw(2))

    def test_empty_and_zero_width_inputs(self):
        batched = RandomOracle(output_words=2, rng=3)
        looped = RandomOracle(output_words=2, rng=3)
        for inputs in (np.zeros((0, 2), np.uint32), np.zeros((4, 0), np.uint32)):
            got = batched.query(inputs)
            assert got.tobytes() == _loop_query(looped, inputs).tobytes()
            assert got.shape == (inputs.shape[0], 2)
