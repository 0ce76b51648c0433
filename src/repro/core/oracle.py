"""The distinguisher game's oracle abstraction.

The attacker is handed ``ORACLE <- {CIPHER, RANDOM}`` and must decide
which it is (paper §1, "Our Contributions").  An oracle here is a
batched map from scenario inputs to outputs:

* :class:`CipherOracle` wraps the scenario's real pipeline;
* :class:`RandomOracle` returns uniform outputs and memoises them, so
  it behaves as a consistent random *function* (repeated inputs get
  repeated answers), matching the formal game.
"""

from __future__ import annotations

import abc
from typing import Callable, Optional

import numpy as np

from repro.errors import DistinguisherError
from repro.utils.rng import make_rng


class Oracle(abc.ABC):
    """A batched query interface: ``(n, input_words) -> (n, output_words)``."""

    @abc.abstractmethod
    def query(self, inputs: np.ndarray, context: Optional[np.ndarray]) -> np.ndarray:
        """Answer a batch of queries.

        ``context`` carries per-sample material that is part of the
        experiment but not of the chosen difference (e.g. the AEAD keys
        in the nonce-respecting Gimli-Cipher scenario).
        """

    def __call__(self, inputs, context=None):
        return self.query(inputs, context)


class CipherOracle(Oracle):
    """The real primitive: delegates to the scenario's pipeline function."""

    def __init__(self, pipeline: Callable[[np.ndarray, Optional[np.ndarray]], np.ndarray]):
        self._pipeline = pipeline

    def query(self, inputs, context=None):
        return self._pipeline(inputs, context)


class RandomOracle(Oracle):
    """A uniformly random function with the same output geometry.

    Repeated queries on identical ``(input, context)`` pairs return
    identical answers, making this a true random function.  For the
    sample sizes of the paper (< 2^20) the memo table is small.
    """

    def __init__(self, output_words: int, word_width: int = 32, rng=None):
        if output_words <= 0:
            raise DistinguisherError(
                f"output_words must be positive, got {output_words}"
            )
        if word_width not in (8, 16, 32, 64):
            raise DistinguisherError(f"unsupported word width {word_width}")
        self.output_words = int(output_words)
        self.word_width = int(word_width)
        self._rng = make_rng(rng)
        self._memo = {}

    def _draw(self, n: int) -> np.ndarray:
        dtype = {8: np.uint8, 16: np.uint16, 32: np.uint32, 64: np.uint64}[
            self.word_width
        ]
        high = 1 << self.word_width
        if self.word_width == 64:
            return self._rng.integers(
                0, high, size=(n, self.output_words), dtype=np.uint64
            )
        return self._rng.integers(
            0, high, size=(n, self.output_words), dtype=np.uint64
        ).astype(dtype)

    def query(self, inputs, context=None):
        inputs = np.asarray(inputs)
        n = inputs.shape[0]
        # This probe row is never used, but it is part of the seeded
        # stream: dropping it would change every later answer.
        dtype = self._draw(1).dtype
        keys = _row_bytes(inputs)
        if context is not None:
            keys = [key + extra for key, extra in
                    zip(keys, _row_bytes(np.asarray(context)[:n]))]
        memo = self._memo
        fresh = [key for key in dict.fromkeys(keys) if key not in memo]
        if fresh:
            # One block draw of k rows is the same stream as k one-row
            # draws, so answers do not depend on how queries are batched.
            block = self._draw(len(fresh))
            memo.update(zip(fresh, _row_bytes(block)))
        out = np.frombuffer(
            bytearray(b"".join([memo[key] for key in keys])), dtype=dtype
        )
        return out.reshape(n, self.output_words)


def _row_bytes(array: np.ndarray) -> list:
    """The bytes of each row of ``array`` (its C-order ``tobytes``)."""
    raw = np.ascontiguousarray(array).tobytes()
    rows = array.shape[0]
    width = len(raw) // rows if rows else 0
    return [raw[i * width:(i + 1) * width] for i in range(rows)]
