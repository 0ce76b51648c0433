"""Tests for the cipher registry and base-class validation."""

import numpy as np
import pytest

import repro.ciphers  # noqa: F401 - triggers registration
from repro.ciphers.base import (
    BlockCipher,
    Permutation,
    get_cipher,
    register_cipher,
    registered_ciphers,
)
from repro.ciphers.gimli import GimliPermutation
from repro.errors import CipherError, ShapeError


class TestRegistry:
    def test_known_ciphers_present(self):
        names = registered_ciphers()
        for expected in ("gimli", "speck32-64", "toyspeck", "gift64"):
            assert expected in names

    def test_get_cipher_constructs(self):
        perm = get_cipher("gimli", rounds=8)
        assert isinstance(perm, GimliPermutation)
        assert perm.rounds == 8

    def test_lookup_case_insensitive(self):
        assert isinstance(get_cipher("GIMLI"), GimliPermutation)

    def test_unknown_name_raises(self):
        with pytest.raises(CipherError):
            get_cipher("nonexistent")

    def test_duplicate_registration_raises(self):
        with pytest.raises(CipherError):
            register_cipher("gimli", GimliPermutation)


class TestPermutationBase:
    def test_negative_rounds(self):
        class Dummy(Permutation):
            state_words = 2
            word_width = 32

            def __call__(self, states):
                return self._check_batch(states)

        with pytest.raises(CipherError):
            Dummy(rounds=-1)

    def test_check_batch_promotes_1d(self):
        class Dummy(Permutation):
            state_words = 3
            word_width = 32

            def __call__(self, states):
                return self._check_batch(states)

        out = Dummy(1)(np.zeros(3, dtype=np.uint32))
        assert out.shape == (1, 3)

    def test_check_batch_rejects_bad_width(self):
        class Dummy(Permutation):
            state_words = 3
            word_width = 32

            def __call__(self, states):
                return self._check_batch(states)

        with pytest.raises(ShapeError):
            Dummy(1)(np.zeros((2, 4), dtype=np.uint32))


class TestBlockCipherBase:
    def test_zero_rounds_rejected(self):
        class Dummy(BlockCipher):
            block_words = 1
            key_words = 1
            word_width = 16

            def encrypt(self, plaintexts, keys):
                return plaintexts

        with pytest.raises(CipherError):
            Dummy(rounds=0)

    def test_block_bits(self):
        class Dummy(BlockCipher):
            block_words = 2
            key_words = 4
            word_width = 16

            def encrypt(self, plaintexts, keys):
                return plaintexts

        assert Dummy(1).block_bits == 32
