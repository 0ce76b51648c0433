"""Extension scenarios: the paper's future-work targets.

§6 proposes experimenting with "other non-Markov ciphers and Markov
ciphers like GIFT".  These scenarios wire the framework to the GIFT
family in :mod:`repro.ciphers`:

* :class:`Gift64Scenario` — round-reduced GIFT-64 with per-sample keys;
* :class:`Gift16Scenario` — the scaled GIFT-like SPN, whose exact
  all-in-one distribution (:func:`repro.diffcrypt.allinone.gift16_markov_distribution`)
  provides the Bayes ceiling for the ML accuracy;
* :class:`ToyGiftScenario` — the 8-bit toy SPN of Figure 1.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.ciphers.gift import (
    GIFT16_ROUNDS,
    GIFT64_ROUNDS,
    Gift16,
    encrypt_batch as gift64_encrypt_batch,
)
from repro.ciphers.toygift import ToyGift
from repro.core.scenario import DifferentialScenario
from repro.errors import DistinguisherError


class Gift64Scenario(DifferentialScenario):
    """Chosen-difference game on round-reduced GIFT-64.

    The paper's conclusion names GIFT as the next (Markov) target for
    the method.  Fresh 128-bit keys per sample (eight 16-bit words as
    context); differences default to single bits in nibbles 0 and 8.
    Blocks travel as pairs of 32-bit words for the feature encoding.
    """

    input_words = 2
    output_words = 2
    word_width = 32

    def __init__(self, rounds: int = 4, deltas: Sequence[int] = (0x1, 0x1 << 32)):
        if not 1 <= rounds <= GIFT64_ROUNDS:
            raise DistinguisherError(
                f"rounds must be in [1, {GIFT64_ROUNDS}], got {rounds}"
            )
        masks = np.zeros((len(deltas), 2), dtype=np.uint32)
        for row, delta in enumerate(deltas):
            if not 0 < delta < 1 << 64:
                raise DistinguisherError(
                    f"difference must be a non-zero 64-bit value, got {delta:#x}"
                )
            masks[row, 0] = delta & 0xFFFFFFFF
            masks[row, 1] = delta >> 32
        super().__init__(masks)
        self.rounds = int(rounds)
        self.deltas = tuple(int(d) for d in deltas)

    def sample_base_inputs(self, n, rng):
        blocks = rng.integers(0, 1 << 63, size=n, dtype=np.uint64)
        blocks |= rng.integers(0, 2, size=n, dtype=np.uint64) << np.uint64(63)
        return np.stack(
            [
                (blocks & np.uint64(0xFFFFFFFF)).astype(np.uint32),
                (blocks >> np.uint64(32)).astype(np.uint32),
            ],
            axis=1,
        )

    def sample_context(self, n, rng):
        return rng.integers(0, 1 << 16, size=(n, 8), dtype=np.uint16)

    def pipeline(self, inputs, context=None):
        if context is None:
            raise DistinguisherError("Gift64Scenario needs per-sample keys")
        arr = np.asarray(inputs, dtype=np.uint32)
        blocks = arr[:, 0].astype(np.uint64) | (
            arr[:, 1].astype(np.uint64) << np.uint64(32)
        )
        out = gift64_encrypt_batch(blocks, context, self.rounds)
        return np.stack(
            [
                (out & np.uint64(0xFFFFFFFF)).astype(np.uint32),
                (out >> np.uint64(32)).astype(np.uint32),
            ],
            axis=1,
        )


class Gift16Scenario(DifferentialScenario):
    """Chosen-difference game on the scaled GIFT-like SPN.

    A Markov cipher with an exactly computable all-in-one distribution —
    the extension experiment the paper's conclusion suggests for GIFT,
    at a scale where ML and exact baselines can be compared directly.
    """

    input_words = 1
    output_words = 1
    word_width = 16

    def __init__(self, rounds: int = 4, deltas: Sequence[int] = (0x0001, 0x0010)):
        if not 1 <= rounds <= GIFT16_ROUNDS:
            raise DistinguisherError(
                f"rounds must be in [1, {GIFT16_ROUNDS}], got {rounds}"
            )
        masks = np.zeros((len(deltas), 1), dtype=np.uint16)
        for row, delta in enumerate(deltas):
            if not 0 < delta < 1 << 16:
                raise DistinguisherError(
                    f"difference must be a non-zero 16-bit value, got {delta:#x}"
                )
            masks[row, 0] = delta
        super().__init__(masks)
        self.cipher = Gift16(rounds)
        self.rounds = int(rounds)
        self.deltas = tuple(int(d) for d in deltas)

    def sample_base_inputs(self, n, rng):
        return rng.integers(0, 1 << 16, size=(n, 1), dtype=np.uint16)

    def sample_context(self, n, rng):
        return rng.integers(0, 1 << 16, size=(n, self.rounds), dtype=np.uint16)

    def pipeline(self, inputs, context=None):
        if context is None:
            raise DistinguisherError("Gift16Scenario needs per-sample round keys")
        return self.cipher.encrypt(inputs, context)


class ToyGiftScenario(DifferentialScenario):
    """Chosen-difference game on the Figure 1 toy cipher (§2.1).

    The 8-bit, 2-round, *unkeyed* ToyGift is the paper's didactic
    non-Markov example; as a scenario it is the smallest possible
    search target — 255 candidate differences, exhaustively coverable —
    which makes it the canonical smoke-test family for the search
    pipeline.  Being unkeyed, the cipher is a fixed 8-bit permutation:
    the whole pipeline is one 256-entry lookup table, so dataset
    generation is a single vectorised gather.
    """

    input_words = 1
    output_words = 1
    word_width = 8

    def __init__(
        self,
        deltas: Sequence[int] = (0x23, 0x01),
        masks: Optional[np.ndarray] = None,
        wiring: Optional[Sequence[int]] = None,
    ):
        if masks is not None:
            masks = np.asarray(masks, dtype=np.uint8)
            if masks.ndim != 2 or masks.shape[1] != 1:
                raise DistinguisherError(
                    f"ToyGift masks must have shape (t, 1), got {masks.shape}"
                )
        else:
            masks = np.zeros((len(deltas), 1), dtype=np.uint8)
            for row, delta in enumerate(deltas):
                if not 0 < delta < 256:
                    raise DistinguisherError(
                        f"ToyGift difference must be a non-zero 8-bit value, "
                        f"got {delta:#x}"
                    )
                masks[row, 0] = delta
        super().__init__(masks)
        toy = ToyGift(wiring)
        self._table = np.array(
            [toy.encrypt(value) for value in range(256)], dtype=np.uint8
        )

    def sample_base_inputs(self, n, rng):
        return rng.integers(0, 256, size=(n, 1), dtype=np.uint8)

    def pipeline(self, inputs, context=None):
        del context  # unkeyed: the permutation is public and fixed
        return self._table[np.asarray(inputs, dtype=np.uint8)]
