"""Bit-level primitives shared by every cipher implementation.

All routines work both on plain Python integers and on numpy unsigned
integer arrays, because each cipher in :mod:`repro.ciphers` ships a
scalar reference implementation (read it next to the spec) and a
vectorised batch implementation (used to generate millions of
differential samples).  Keeping the two code paths on the same helpers
is what makes the cross-checking property tests meaningful.
"""

from __future__ import annotations

from typing import Union

import numpy as np

IntOrArray = Union[int, np.ndarray]

_WORD_DTYPES = {8: np.uint8, 16: np.uint16, 32: np.uint32, 64: np.uint64}


def mask(width: int) -> int:
    """Return the all-ones mask for a ``width``-bit word."""
    if width <= 0:
        raise ValueError(f"word width must be positive, got {width}")
    return (1 << width) - 1


def word_dtype(width: int) -> type:
    """Return the numpy dtype used for ``width``-bit cipher words."""
    try:
        return _WORD_DTYPES[width]
    except KeyError:
        raise ValueError(
            f"unsupported word width {width}; expected one of "
            f"{sorted(_WORD_DTYPES)}"
        ) from None


def rotl(value: IntOrArray, amount: int, width: int) -> IntOrArray:
    """Rotate ``value`` left by ``amount`` bits within a ``width``-bit word.

    Works on scalars and numpy arrays alike.  ``amount`` is reduced
    modulo ``width`` so callers may pass the spec's raw constants.
    """
    amount %= width
    if amount == 0:
        return value if isinstance(value, int) else value.copy()
    if isinstance(value, (int, np.integer)):
        value = int(value)
        m = mask(width)
        return ((value << amount) | (value >> (width - amount))) & m
    dtype = word_dtype(width)
    value = value.astype(dtype, copy=False)
    left = np.left_shift(value, dtype(amount))
    right = np.right_shift(value, dtype(width - amount))
    return (left | right).astype(dtype)


def rotr(value: IntOrArray, amount: int, width: int) -> IntOrArray:
    """Rotate ``value`` right by ``amount`` bits within a ``width``-bit word."""
    return rotl(value, width - (amount % width), width)


def rotl32(value: IntOrArray, amount: int) -> IntOrArray:
    """32-bit left rotation (the Gimli word size)."""
    return rotl(value, amount, 32)


def rotr32(value: IntOrArray, amount: int) -> IntOrArray:
    """32-bit right rotation."""
    return rotr(value, amount, 32)


def shl(value: IntOrArray, amount: int, width: int) -> IntOrArray:
    """Non-circular left shift within a ``width``-bit word (bits fall off)."""
    if amount < 0:
        raise ValueError(f"shift amount must be non-negative, got {amount}")
    if amount >= width:
        return 0 if isinstance(value, (int, np.integer)) else np.zeros_like(value)
    if isinstance(value, (int, np.integer)):
        return (int(value) << amount) & mask(width)
    dtype = word_dtype(width)
    return np.left_shift(value.astype(dtype, copy=False), dtype(amount)).astype(dtype)


def shr(value: IntOrArray, amount: int, width: int) -> IntOrArray:
    """Non-circular right shift within a ``width``-bit word."""
    if amount < 0:
        raise ValueError(f"shift amount must be non-negative, got {amount}")
    if amount >= width:
        return 0 if isinstance(value, (int, np.integer)) else np.zeros_like(value)
    if isinstance(value, (int, np.integer)):
        return int(value) >> amount
    dtype = word_dtype(width)
    return np.right_shift(value.astype(dtype, copy=False), dtype(amount)).astype(dtype)


def hamming_weight(value: IntOrArray) -> IntOrArray:
    """Number of set bits of a scalar or of each element of an array."""
    if isinstance(value, (int, np.integer)):
        return bin(int(value)).count("1")
    # numpy has no popcount until 2.0's bitwise_count; emulate portably.
    if hasattr(np, "bitwise_count"):
        return np.bitwise_count(value).astype(np.int64)
    flat = value.astype(np.uint64).ravel()
    counts = np.zeros(flat.shape, dtype=np.int64)
    work = flat.copy()
    while work.any():
        counts += (work & np.uint64(1)).astype(np.int64)
        work >>= np.uint64(1)
    return counts.reshape(value.shape)


def parity(value: IntOrArray) -> IntOrArray:
    """XOR of all bits (1 if the Hamming weight is odd)."""
    weight = hamming_weight(value)
    if isinstance(weight, (int, np.integer)):
        return int(weight) & 1
    return weight & 1


def bit(value: int, index: int) -> int:
    """Return bit ``index`` (LSB = 0) of a scalar integer."""
    return (int(value) >> index) & 1


def set_bit(value: int, index: int, bit_value: int = 1) -> int:
    """Return ``value`` with bit ``index`` forced to ``bit_value``."""
    if bit_value not in (0, 1):
        raise ValueError(f"bit value must be 0 or 1, got {bit_value}")
    cleared = int(value) & ~(1 << index)
    return cleared | (bit_value << index)


def flip_bit(value: int, index: int) -> int:
    """Return ``value`` with bit ``index`` toggled."""
    return int(value) ^ (1 << index)
