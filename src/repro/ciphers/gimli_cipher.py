"""Gimli-Cipher: the Monkey-Duplex AEAD over Gimli (paper Fig. 3).

Parameters follow the NIST LWC submission: 32-byte key, 16-byte nonce,
16-byte tag.  The state is initialised to ``nonce || key`` and permuted;
associated data and message are absorbed in 16-byte blocks with the same
``0x01`` / ``0x01`` padding as Gimli-Hash; each message block's
ciphertext is the rate *after* XORing the plaintext in.

For the paper's distinguisher (§4) the relevant computation is the
pipeline from nonce injection to the first ciphertext block ``c0`` with
one (empty, padded) associated-data block and ``m0 = 0``.  The paper
reduces "the 48 rounds [of the two permutation calls] to 8 rounds"; we
read that as a *total* round budget split ``ceil(R/2)`` / ``floor(R/2)``
over the two calls (documented in DESIGN.md), implemented by
:func:`gimli_aead_reduced_c0_batch`.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.ciphers.gimli import GIMLI_ROUNDS, gimli_permute_batch
from repro.ciphers.gimli_hash import (
    RATE_BYTES,
    STATE_BYTES,
    _extract_state_bytes,
    _xor_bytes_into_state,
)
from repro.errors import CipherError

KEY_BYTES = 32
NONCE_BYTES = 16
TAG_BYTES = 16


def _init_state(key: bytes, nonce: bytes) -> np.ndarray:
    if len(key) != KEY_BYTES:
        raise CipherError(f"Gimli-Cipher key must be {KEY_BYTES} bytes, got {len(key)}")
    if len(nonce) != NONCE_BYTES:
        raise CipherError(
            f"Gimli-Cipher nonce must be {NONCE_BYTES} bytes, got {len(nonce)}"
        )
    state = np.zeros(12, dtype=np.uint32)
    _xor_bytes_into_state(state, nonce, offset=0)
    _xor_bytes_into_state(state, key, offset=NONCE_BYTES)
    return state


def _absorb(state: np.ndarray, data: bytes, rounds: int) -> np.ndarray:
    """Absorb ``data`` (with final-block padding) into the duplex state."""
    remaining = data
    while len(remaining) >= RATE_BYTES:
        _xor_bytes_into_state(state, remaining[:RATE_BYTES])
        state = gimli_permute_batch(state, rounds)
        remaining = remaining[RATE_BYTES:]
    _xor_bytes_into_state(state, remaining)
    _xor_bytes_into_state(state, b"\x01", offset=len(remaining))
    _xor_bytes_into_state(state, b"\x01", offset=STATE_BYTES - 1)
    return gimli_permute_batch(state, rounds)


def gimli_aead_encrypt(
    message: bytes,
    associated_data: bytes,
    nonce: bytes,
    key: bytes,
    rounds: int = GIMLI_ROUNDS,
) -> Tuple[bytes, bytes]:
    """Encrypt; returns ``(ciphertext, tag)``.

    ``rounds`` reduces every permutation call (full Gimli by default).
    """
    state = _init_state(key, nonce)
    state = gimli_permute_batch(state, rounds)
    state = _absorb(state, associated_data, rounds)

    ciphertext = b""
    remaining = message
    while len(remaining) >= RATE_BYTES:
        _xor_bytes_into_state(state, remaining[:RATE_BYTES])
        ciphertext += _extract_state_bytes(state, RATE_BYTES)
        state = gimli_permute_batch(state, rounds)
        remaining = remaining[RATE_BYTES:]
    _xor_bytes_into_state(state, remaining)
    ciphertext += _extract_state_bytes(state, len(remaining))
    _xor_bytes_into_state(state, b"\x01", offset=len(remaining))
    _xor_bytes_into_state(state, b"\x01", offset=STATE_BYTES - 1)
    state = gimli_permute_batch(state, rounds)
    tag = _extract_state_bytes(state, TAG_BYTES)
    return ciphertext, tag


def gimli_aead_decrypt(
    ciphertext: bytes,
    tag: bytes,
    associated_data: bytes,
    nonce: bytes,
    key: bytes,
    rounds: int = GIMLI_ROUNDS,
) -> Optional[bytes]:
    """Decrypt and verify; returns the plaintext or ``None`` on a bad tag."""
    state = _init_state(key, nonce)
    state = gimli_permute_batch(state, rounds)
    state = _absorb(state, associated_data, rounds)

    message = b""
    remaining = ciphertext
    while len(remaining) >= RATE_BYTES:
        block = remaining[:RATE_BYTES]
        rate = _extract_state_bytes(state, RATE_BYTES)
        message += bytes(a ^ b for a, b in zip(block, rate))
        # Overwrite the rate with the ciphertext block.
        _xor_bytes_into_state(state, rate)
        _xor_bytes_into_state(state, block)
        state = gimli_permute_batch(state, rounds)
        remaining = remaining[RATE_BYTES:]
    rate = _extract_state_bytes(state, len(remaining))
    final = bytes(a ^ b for a, b in zip(remaining, rate))
    message += final
    _xor_bytes_into_state(state, final)
    _xor_bytes_into_state(state, b"\x01", offset=len(remaining))
    _xor_bytes_into_state(state, b"\x01", offset=STATE_BYTES - 1)
    state = gimli_permute_batch(state, rounds)
    expected = _extract_state_bytes(state, TAG_BYTES)
    if not _constant_time_equal(expected, tag):
        return None
    return message


def _constant_time_equal(a: bytes, b: bytes) -> bool:
    if len(a) != len(b):
        return False
    diff = 0
    for x, y in zip(a, b):
        diff |= x ^ y
    return diff == 0


def split_round_budget(total_rounds: int) -> Tuple[int, int]:
    """Split a total round budget over the two pre-``c0`` permutations.

    Returns ``(ceil(R/2), floor(R/2))`` — the initialisation call gets
    the extra round when ``R`` is odd.
    """
    if total_rounds < 0:
        raise CipherError(f"round budget must be non-negative, got {total_rounds}")
    first = (total_rounds + 1) // 2
    return first, total_rounds - first


def gimli_aead_reduced_c0_batch(
    nonces: np.ndarray, keys: np.ndarray, total_rounds: int
) -> np.ndarray:
    """Batched first-ciphertext-block pipeline of round-reduced Gimli-Cipher.

    Implements the paper's §4 target: ``state = nonce || key``,
    permutation #1, empty padded associated-data block, permutation #2,
    then ``c0 = rate`` (the first message block is zero).  The two
    permutation calls share ``total_rounds`` rounds via
    :func:`split_round_budget`.

    ``nonces`` is ``(n, 4)`` uint32, ``keys`` is ``(n, 8)`` uint32;
    returns ``c0`` as ``(n, 4)`` uint32.
    """
    nonce_arr = np.asarray(nonces, dtype=np.uint32)
    key_arr = np.asarray(keys, dtype=np.uint32)
    if nonce_arr.ndim != 2 or nonce_arr.shape[1] != 4:
        raise CipherError(f"expected (n, 4) nonces, got shape {nonce_arr.shape}")
    if key_arr.shape != (nonce_arr.shape[0], 8):
        raise CipherError(
            f"expected ({nonce_arr.shape[0]}, 8) keys, got shape {key_arr.shape}"
        )
    rounds_init, rounds_ad = split_round_budget(total_rounds)
    states = gimli_permute_batch(
        np.concatenate([nonce_arr, key_arr], axis=1), rounds_init
    )
    # Empty associated-data block: padding byte at offset 0, domain byte 47.
    # The permutation returns a fresh array, so it is safe to write.
    states[:, 0] ^= np.uint32(1)
    states[:, 11] ^= np.uint32(1) << np.uint32(24)
    states = gimli_permute_batch(states, rounds_ad)
    return states[:, 0:4]


class GimliAead:
    """Object wrapper for Gimli-Cipher with a fixed key and round count."""

    def __init__(self, key: bytes, rounds: int = GIMLI_ROUNDS):
        if len(key) != KEY_BYTES:
            raise CipherError(f"key must be {KEY_BYTES} bytes, got {len(key)}")
        if not 0 <= rounds <= GIMLI_ROUNDS:
            raise CipherError(f"rounds must be in [0, {GIMLI_ROUNDS}], got {rounds}")
        self._key = key
        self.rounds = rounds

    def encrypt(
        self, message: bytes, nonce: bytes, associated_data: bytes = b""
    ) -> Tuple[bytes, bytes]:
        """Encrypt ``message``; returns ``(ciphertext, tag)``."""
        return gimli_aead_encrypt(
            message, associated_data, nonce, self._key, self.rounds
        )

    def decrypt(
        self, ciphertext: bytes, tag: bytes, nonce: bytes, associated_data: bytes = b""
    ) -> Optional[bytes]:
        """Decrypt and verify; ``None`` signals an authentication failure."""
        return gimli_aead_decrypt(
            ciphertext, tag, associated_data, nonce, self._key, self.rounds
        )
