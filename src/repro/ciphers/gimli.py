"""The Gimli permutation (Bernstein et al., CHES 2017).

Implements Algorithm 1 of the paper exactly: a 384-bit state viewed as a
3x4 matrix of 32-bit words, 24 rounds counted *downward* from 24 to 1.
Each round applies the 96-bit SP-box to every column, then

* ``r mod 4 == 0``: Small-Swap on the top row and constant addition
  ``s[0,0] ^= 0x9e377900 ^ r``;
* ``r mod 4 == 2``: Big-Swap on the top row.

State layout: a flat vector of 12 words with ``s[row, col]`` stored at
index ``4 * row + col`` — so words 0-3 are the top row (the sponge
*rate* together with row 1 in byte order; see :mod:`repro.ciphers.gimli_hash`).

Round reduction follows the common convention of running the *first*
``R`` rounds of the full permutation, i.e. rounds ``24, 23, ...,
24 - R + 1``; the starting round is configurable for experiments that
want a different window.
"""

from __future__ import annotations

import ctypes
from typing import List, Sequence

import numpy as np

from repro.ciphers.base import Permutation
from repro.errors import CipherError
from repro.utils import cbuild

#: Number of rounds of the full permutation.
GIMLI_ROUNDS = 24

#: Round-constant base, from the spec (first 32 bits of the golden ratio,
#: low byte zeroed so the round counter can be XORed in).
GIMLI_CONSTANT = 0x9E377900

_MASK32 = 0xFFFFFFFF


def _rotl32(value: int, amount: int) -> int:
    return ((value << amount) | (value >> (32 - amount))) & _MASK32


def spbox_column(x: int, y: int, z: int) -> tuple:
    """Apply the Gimli SP-box to one column *after* the input rotations.

    Inputs are the already-rotated words ``x = s0 <<< 24``,
    ``y = s1 <<< 9``, ``z = s2``; returns the new ``(s0, s1, s2)``.
    Shifts are non-circular, as in the spec.
    """
    new_z = (x ^ ((z << 1) & _MASK32) ^ (((y & z) << 2) & _MASK32)) & _MASK32
    new_y = (y ^ x ^ (((x | z) << 1) & _MASK32)) & _MASK32
    new_x = (z ^ y ^ (((x & y) << 3) & _MASK32)) & _MASK32
    return new_x, new_y, new_z


def gimli_round(state: List[int], r: int) -> List[int]:
    """One full Gimli round (SP-boxes + swaps + constant) at round index ``r``.

    ``state`` is a list of 12 ints; a new list is returned.
    """
    s = list(state)
    for j in range(4):
        x = _rotl32(s[j], 24)
        y = _rotl32(s[4 + j], 9)
        z = s[8 + j]
        s[j], s[4 + j], s[8 + j] = spbox_column(x, y, z)
    if r % 4 == 0:
        s[0], s[1], s[2], s[3] = s[1], s[0], s[3], s[2]  # Small-Swap
    elif r % 4 == 2:
        s[0], s[1], s[2], s[3] = s[2], s[3], s[0], s[1]  # Big-Swap
    if r % 4 == 0:
        s[0] ^= GIMLI_CONSTANT ^ r
    return s


def gimli_permute(
    state: Sequence[int], rounds: int = GIMLI_ROUNDS, start_round: int = GIMLI_ROUNDS
) -> List[int]:
    """Scalar reference Gimli, rounds ``start_round`` down to
    ``start_round - rounds + 1``.

    Written to mirror Algorithm 1 of the paper line by line; use
    :func:`gimli_permute_batch` for anything performance-sensitive.
    """
    _check_round_window(rounds, start_round)
    s = [int(w) & _MASK32 for w in state]
    if len(s) != 12:
        raise CipherError(f"Gimli state must have 12 words, got {len(s)}")
    for r in range(start_round, start_round - rounds, -1):
        s = gimli_round(s, r)
    return s


def gimli_permute_numpy(
    arr: np.ndarray, rounds: int, start_round: int
) -> np.ndarray:
    """Gimli over a C-contiguous ``(n, 12)`` uint32 batch, in place.

    The numpy spelling of the compiled kernel: its fallback and its
    self-test reference.  It allocates once up front (three ``(n, 4)``
    row buffers and three scratch buffers) and runs every round
    entirely in place — no per-round ``copy``/fancy-index/
    ``concatenate`` temporaries.
    """
    # Split into three contiguous (n, 4) row buffers once: every round
    # then runs on contiguous memory (strided column views of ``arr``
    # would defeat vectorisation) with three scratch buffers and zero
    # per-round allocations.
    top = np.ascontiguousarray(arr[:, 0:4])
    mid = np.ascontiguousarray(arr[:, 4:8])
    bot = np.ascontiguousarray(arr[:, 8:12])
    x = np.empty_like(top)
    y = np.empty_like(top)
    t = np.empty_like(top)
    for r in range(start_round, start_round - rounds, -1):
        # x = top <<< 24, y = mid <<< 9, z = bot (in place).
        np.left_shift(top, np.uint32(24), out=x)
        np.right_shift(top, np.uint32(8), out=t)
        np.bitwise_or(x, t, out=x)
        np.left_shift(mid, np.uint32(9), out=y)
        np.right_shift(mid, np.uint32(23), out=t)
        np.bitwise_or(y, t, out=y)
        # top/mid are consumed into x/y, so they are free to receive the
        # new rows; bot (= z) must be overwritten last.
        # new top = z ^ y ^ ((x & y) << 3)
        np.bitwise_and(x, y, out=t)
        np.left_shift(t, np.uint32(3), out=t)
        np.bitwise_xor(bot, y, out=top)
        np.bitwise_xor(top, t, out=top)
        # new mid = y ^ x ^ ((x | z) << 1)
        np.bitwise_or(x, bot, out=t)
        np.left_shift(t, np.uint32(1), out=t)
        np.bitwise_xor(y, x, out=mid)
        np.bitwise_xor(mid, t, out=mid)
        # new bot = x ^ (z << 1) ^ ((y & z) << 2)
        np.bitwise_and(y, bot, out=t)
        np.left_shift(t, np.uint32(2), out=t)
        np.left_shift(bot, np.uint32(1), out=y)  # y is free now
        np.bitwise_xor(x, y, out=bot)
        np.bitwise_xor(bot, t, out=bot)
        if r % 4 == 0:
            # Small-Swap: columns 0<->1, 2<->3 (via one scratch column).
            col = t[:, 0]
            col[...] = top[:, 0]
            top[:, 0] = top[:, 1]
            top[:, 1] = col
            col[...] = top[:, 2]
            top[:, 2] = top[:, 3]
            top[:, 3] = col
            top[:, 0] ^= np.uint32(GIMLI_CONSTANT ^ r)
        elif r % 4 == 2:
            # Big-Swap: columns 0<->2, 1<->3.
            col = t[:, 0]
            col[...] = top[:, 0]
            top[:, 0] = top[:, 2]
            top[:, 2] = col
            col[...] = top[:, 1]
            top[:, 1] = top[:, 3]
            top[:, 3] = col
    arr[:, 0:4] = top
    arr[:, 4:8] = mid
    arr[:, 8:12] = bot
    return arr


_GIMLI_SOURCE = r"""
/* Gimli rounds start_round down to start_round - rounds + 1 over n
   row-major 12-word states, in place.  The states go through in blocks
   of LANES held as structure-of-arrays (w[word][lane]), so every step
   of a round is one loop over lanes that GCC vectorises; the lanes of
   a short last block are zero and never stored. */
#include <stdint.h>
#include <string.h>

#define LANES 16

void repro_gimli(uint32_t* restrict s, long n, int rounds, int start_round)
{
    uint32_t w[12][LANES];
    for (long base = 0; base < n; base += LANES) {
        long m = n - base < LANES ? n - base : LANES;
        uint32_t* restrict block = s + base * 12;
        if (m < LANES)
            memset(w, 0, sizeof w);
        for (long i = 0; i < m; i++)
            for (int k = 0; k < 12; k++)
                w[k][i] = block[i * 12 + k];
        for (int r = start_round; r > start_round - rounds; r--) {
            for (int j = 0; j < 4; j++) {
                for (int i = 0; i < LANES; i++) {
                    uint32_t x = w[j][i] << 24 | w[j][i] >> 8;
                    uint32_t y = w[4 + j][i] << 9 | w[4 + j][i] >> 23;
                    uint32_t z = w[8 + j][i];
                    w[8 + j][i] = x ^ (z << 1) ^ ((y & z) << 2);
                    w[4 + j][i] = y ^ x ^ ((x | z) << 1);
                    w[j][i] = z ^ y ^ ((x & y) << 3);
                }
            }
            if (r % 4 == 0) {           /* Small-Swap, then the constant */
                for (int i = 0; i < LANES; i++) {
                    uint32_t t0 = w[0][i], t2 = w[2][i];
                    w[0][i] = w[1][i] ^ (0x9e377900u ^ (uint32_t)r);
                    w[1][i] = t0;
                    w[2][i] = w[3][i];
                    w[3][i] = t2;
                }
            } else if (r % 4 == 2) {    /* Big-Swap */
                for (int i = 0; i < LANES; i++) {
                    uint32_t t0 = w[0][i], t1 = w[1][i];
                    w[0][i] = w[2][i];
                    w[1][i] = w[3][i];
                    w[2][i] = t0;
                    w[3][i] = t1;
                }
            }
        }
        for (long i = 0; i < m; i++)
            for (int k = 0; k < 12; k++)
                block[i * 12 + k] = w[k][i];
    }
}
"""


def _bind_gimli(lib):
    fn = lib.repro_gimli
    fn.argtypes = [ctypes.c_void_p, ctypes.c_long, ctypes.c_int, ctypes.c_int]
    fn.restype = None
    return fn


def _gimli_self_test(fn) -> bool:
    """Compiled vs :func:`gimli_permute_numpy` on every window shape,
    compared bitwise: zero rounds, one round from each residue of
    ``start_round`` mod 4, and full-width windows, over batches that
    end in a short block, fill exactly one and straddle two."""
    rng = np.random.default_rng(1618)
    for n in (0, 1, 15, 16, 33):
        states = rng.integers(0, 2**32, size=(n, 12), dtype=np.uint32)
        for rounds, start in ((0, 24), (1, 24), (1, 23), (1, 22), (1, 21),
                              (8, 24), (7, 23), (24, 24), (3, 5)):
            got = states.copy()
            fn(got.ctypes.data, n, rounds, start)
            if got.tobytes() != gimli_permute_numpy(
                states.copy(), rounds, start
            ).tobytes():
                return False
    return True


_GIMLI_KERNEL = cbuild.CompiledKernel(
    "gimli", _GIMLI_SOURCE, _bind_gimli, _gimli_self_test
)


def gimli_permute_batch(
    states: np.ndarray, rounds: int = GIMLI_ROUNDS, start_round: int = GIMLI_ROUNDS
) -> np.ndarray:
    """Batched Gimli over states of shape ``(n, 12)`` (or one ``(12,)``).

    Bit-identical to :func:`gimli_permute` (cross-checked by property
    tests).  The input is never written: it is copied once into a fresh
    C-contiguous uint32 array, which the compiled kernel permutes in
    place; :func:`gimli_permute_numpy` takes over when the kernel is
    unavailable, with the same bits.
    """
    _check_round_window(rounds, start_round)
    arr = np.array(states, dtype=np.uint32, order="C")
    squeeze = arr.ndim == 1
    if squeeze:
        arr = arr[np.newaxis, :]
    if arr.ndim != 2 or arr.shape[1] != 12:
        raise CipherError(f"Gimli batch must have shape (n, 12), got {arr.shape}")
    fn = _GIMLI_KERNEL.get()
    if fn is None:
        gimli_permute_numpy(arr, rounds, start_round)
    else:
        fn(arr.ctypes.data, arr.shape[0], rounds, start_round)
    return arr[0] if squeeze else arr


def _check_round_window(rounds: int, start_round: int) -> None:
    if not 0 <= rounds <= start_round:
        raise CipherError(
            f"invalid Gimli round window: {rounds} rounds starting at "
            f"{start_round} (rounds run {start_round} down to 1)"
        )
    if start_round > GIMLI_ROUNDS:
        raise CipherError(
            f"start round {start_round} exceeds the full {GIMLI_ROUNDS} rounds"
        )


class GimliPermutation(Permutation):
    """Batched, optionally round-reduced Gimli as a :class:`Permutation`."""

    state_words = 12
    word_width = 32

    def __init__(self, rounds: int = GIMLI_ROUNDS, start_round: int = GIMLI_ROUNDS):
        _check_round_window(rounds, start_round)
        super().__init__(rounds)
        self.start_round = start_round

    def __call__(self, states: np.ndarray) -> np.ndarray:
        batch = self._check_batch(np.asarray(states, dtype=np.uint32))
        return gimli_permute_batch(batch, self.rounds, self.start_round)
