"""Chosen-difference experiments ("scenarios") for the distinguisher.

A scenario fixes everything Algorithm 2 leaves abstract: the primitive
and its round reduction, the ``t`` input differences
``δ0, ..., δ(t-1)``, how fresh base inputs (and per-sample context such
as AEAD keys) are drawn, and which output words the attacker observes.

The two headline scenarios reproduce §4 of the paper:

* :class:`GimliHashScenario` — a single padded message block absorbed by
  a round-reduced permutation, observed through the first 128-bit
  squeeze; differences flip the LSB of message bytes 4 and 12.
* :class:`GimliCipherScenario` — the nonce-respecting Gimli-Cipher
  pipeline up to the first ciphertext block with a *total* round budget
  split over the two permutation calls; differences flip nonce bytes 4
  and 12.

Additional scenarios cover the raw permutation, ToySpeck (where the
exact all-in-one baseline exists) and Gohr's real-vs-random SPECK game
(§2.3 background).
"""

from __future__ import annotations

import abc
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.ciphers.gimli import GIMLI_ROUNDS, GimliPermutation
from repro.ciphers.gimli_cipher import gimli_aead_reduced_c0_batch
from repro.ciphers.gimli_hash import RATE_BYTES, absorb_final_block_batch
from repro.ciphers.speck import encrypt_batch as speck_encrypt_batch
from repro.ciphers.toyspeck import FULL_ROUNDS as TOYSPECK_ROUNDS
from repro.ciphers.toyspeck import encrypt_batch as toyspeck_encrypt_batch
from repro.core.oracle import CipherOracle, Oracle, RandomOracle
from repro.errors import DistinguisherError
from repro.utils.encoding import state_to_bits
from repro.utils.rng import make_rng, random_words


def _byte_flip_mask(byte_index: int, bit: int = 0) -> Tuple[int, int]:
    """Word index and XOR mask flipping ``bit`` of state byte ``byte_index``."""
    word, offset = divmod(byte_index, 4)
    return word, 1 << (8 * offset + bit)


def _canonical(value):
    """A deterministic, picklable projection of ``value`` for hashing."""
    if value is None or isinstance(value, (bool, int, float, str, bytes)):
        return value
    if isinstance(value, np.ndarray):
        return ("ndarray", str(value.dtype), value.shape, value.tobytes())
    if isinstance(value, np.generic):
        return ("npscalar", str(value.dtype), value.item())
    if isinstance(value, (list, tuple)):
        return (type(value).__name__, tuple(_canonical(v) for v in value))
    if isinstance(value, dict):
        return (
            "dict",
            tuple(
                (str(k), _canonical(v)) for k, v in sorted(value.items())
            ),
        )
    if hasattr(value, "__dict__"):
        return (
            "object",
            type(value).__module__,
            type(value).__qualname__,
            _canonical(vars(value)),
        )
    return ("repr", repr(value))


def scenario_fingerprint(scenario) -> tuple:
    """Structural fingerprint of a scenario (class + all attributes).

    The model registry hashes it into a manifest's
    ``fingerprint_sha256``, so a saved model names the exact game it was
    trained on.  The chosen difference set is folded in *explicitly*
    (byte-for-byte, on top of whatever ``__dict__`` carries): two
    scenarios that agree on every constructor parameter except one
    difference bit must fingerprint apart, or a search-discovered model
    could be mistaken for one trained on a paper scenario.
    """
    masks = getattr(scenario, "difference_masks", None)
    return (
        type(scenario).__module__,
        type(scenario).__qualname__,
        _canonical(getattr(scenario, "__dict__", {})),
        ("difference_masks", _canonical(np.asarray(masks)) if masks is not None else None),
    )


class DifferentialScenario(abc.ABC):
    """Base class for ``t``-class chosen-difference experiments."""

    #: number of words in a query input
    input_words: int
    #: number of words in an observed output
    output_words: int
    #: bits per word
    word_width: int = 32

    def __init__(self, difference_masks: np.ndarray):
        masks = np.asarray(difference_masks)
        if masks.ndim != 2 or masks.shape[0] < 2:
            raise DistinguisherError(
                "need at least t=2 input differences (paper §3.1); got shape "
                f"{masks.shape}"
            )
        if masks.shape[1] != self.input_words:
            raise DistinguisherError(
                f"difference masks must have {self.input_words} words, "
                f"got {masks.shape[1]}"
            )
        if any((row == 0).all() for row in masks):
            raise DistinguisherError("input differences must be non-zero")
        self.difference_masks = masks

    @property
    def num_classes(self) -> int:
        """The paper's ``t``."""
        return self.difference_masks.shape[0]

    @property
    def feature_bits(self) -> int:
        """Width of one training sample (bits of the output difference)."""
        return self.output_words * self.word_width

    @abc.abstractmethod
    def sample_base_inputs(self, n: int, rng) -> np.ndarray:
        """Draw ``n`` fresh base inputs ``P``."""

    def sample_context(self, n: int, rng) -> Optional[np.ndarray]:
        """Draw per-sample context (e.g. keys); ``None`` if stateless."""
        del n, rng
        return None

    @abc.abstractmethod
    def pipeline(self, inputs: np.ndarray, context: Optional[np.ndarray]) -> np.ndarray:
        """The real (round-reduced) primitive, batched.

        Contract: row-independent.  Output row ``i`` depends only on
        ``inputs[i]`` and ``context[i]``, never on the batch size or on
        other rows, so stacking batches (as the bias oracle of
        :mod:`repro.search.oracle` does) gives the same rows as calling
        on each batch alone.
        """

    def apply_difference(self, inputs: np.ndarray, class_index: int) -> np.ndarray:
        """``P ⊕ δ_i`` for every row of ``inputs``."""
        mask = self.difference_masks[class_index].astype(inputs.dtype)
        return inputs ^ mask

    def cipher_oracle(self) -> CipherOracle:
        """The CIPHER side of the game."""
        return CipherOracle(self.pipeline)

    def random_oracle(self, rng=None) -> RandomOracle:
        """The RANDOM side of the game, geometry-matched to this scenario."""
        return RandomOracle(self.output_words, self.word_width, rng=rng)

    def generate_dataset(
        self,
        n_per_class: int,
        rng=None,
        oracle: Optional[Oracle] = None,
        workers: int = 1,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Labelled output-difference samples (Algorithm 2's data step).

        For each of ``n_per_class`` base inputs ``P`` the oracle is
        queried on ``P`` and on every ``P ⊕ δ_i``; sample ``i`` is the
        bit vector of ``C ⊕ C_i`` labelled ``i``.  Returns
        ``(features, labels)`` shuffled, with ``features`` float32 of
        shape ``(n_per_class * t, feature_bits)``.

        The samples come from the sharded generator of
        :mod:`repro.core.parallel`: they are a function of ``rng``
        alone, and ``workers`` only decides how many processes compute
        the shards.  A custom ``oracle`` (e.g. a memoised
        :class:`RandomOracle`) is queried shard by shard in this
        process, since its state cannot be shared across processes.
        """
        from repro.core.parallel import generate_dataset_sharded

        return generate_dataset_sharded(
            self, n_per_class, rng=rng, workers=workers, oracle=oracle
        )

    def _generate_block(
        self, n_per_class: int, generator, oracle: Optional[Oracle] = None
    ) -> np.ndarray:
        """One shard of :meth:`generate_dataset`, as output-difference words.

        Row ``i * n_per_class + j`` is ``C ⊕ C_i`` for base input ``j``:
        unshuffled and class-major (``t`` runs of ``n_per_class`` rows,
        class ``i`` in run ``i``), shape ``(t * n_per_class,
        output_words)``.  The sharded generator labels, shuffles and
        expands them to float32 bits.
        """
        if oracle is None:
            oracle = self.cipher_oracle()
        inputs = self.sample_base_inputs(n_per_class, generator)
        context = self.sample_context(n_per_class, generator)
        base_out = oracle.query(inputs, context)
        return np.concatenate([
            base_out ^ oracle.query(self.apply_difference(inputs, i), context)
            for i in range(self.num_classes)
        ])


class GimliHashScenario(DifferentialScenario):
    """§4's Gimli-Hash experiment.

    A single-block message of ``block_len`` random bytes is absorbed
    (with padding and domain separation) by an ``rounds``-round Gimli
    permutation; the observable is the first 128-bit squeeze ``h`` and
    the classes flip the LSB of the message bytes in ``diff_bytes``.

    ``masks`` overrides ``diff_bytes`` with explicit ``(t, 4)`` uint32
    message differences (any bits, not just byte LSBs) — the form the
    automated difference search of :mod:`repro.search` produces.  Masks
    must stay inside the ``block_len``-byte message: a difference in the
    padding bytes would encode a different message length, not a chosen
    message difference.
    """

    input_words = 4
    output_words = 4

    def __init__(
        self,
        rounds: int = 8,
        diff_bytes: Sequence[int] = (4, 12),
        block_len: int = 15,
        masks: Optional[np.ndarray] = None,
    ):
        if not 0 <= rounds <= GIMLI_ROUNDS:
            raise DistinguisherError(
                f"rounds must be in [0, {GIMLI_ROUNDS}], got {rounds}"
            )
        if not 0 < block_len < RATE_BYTES:
            raise DistinguisherError(
                f"block_len must be in (0, {RATE_BYTES}), got {block_len}"
            )
        if masks is None:
            for byte in diff_bytes:
                if not 0 <= byte < block_len:
                    raise DistinguisherError(
                        f"difference byte {byte} outside the {block_len}-byte block"
                    )
            masks = np.zeros((len(diff_bytes), 4), dtype=np.uint32)
            for row, byte in enumerate(diff_bytes):
                word, mask = _byte_flip_mask(byte)
                masks[row, word] = mask
        else:
            masks = np.asarray(masks, dtype=np.uint32)
            allowed = np.zeros(4, dtype=np.uint64)
            for byte in range(block_len):
                word, offset = divmod(byte, 4)
                allowed[word] |= np.uint64(0xFF) << np.uint64(8 * offset)
            if masks.ndim != 2 or (
                masks.astype(np.uint64) & ~allowed
            ).any():
                raise DistinguisherError(
                    f"masks must be (t, 4) differences inside the first "
                    f"{block_len} message bytes"
                )
        super().__init__(masks)
        self.rounds = int(rounds)
        self.block_len = int(block_len)

    def sample_base_inputs(self, n, rng):
        raw = rng.integers(0, 256, size=(n, RATE_BYTES), dtype=np.uint8)
        raw[:, self.block_len:] = 0
        return np.frombuffer(raw.tobytes(), dtype="<u4").reshape(n, 4).astype(
            np.uint32
        )

    def pipeline(self, inputs, context=None):
        del context
        return absorb_final_block_batch(inputs, self.block_len, self.rounds)


class GimliCipherScenario(DifferentialScenario):
    """§4's Gimli-Cipher experiment (nonce-respecting).

    Fresh 256-bit keys per sample, nonce differences at ``diff_bytes``,
    one empty padded associated-data block, zero first message block.
    ``total_rounds`` is the combined round budget of the two
    permutation calls before ``c0`` (split ceil/floor — see DESIGN.md).

    ``masks`` hands the ``(t, 4)`` nonce-difference words directly
    (mutually exclusive with ``diff_bytes``) — the whole 16-byte nonce
    is attacker-controlled, so any bit pattern is a legal difference.
    This is the hook the search layer's declarative builders use.
    """

    input_words = 4
    output_words = 4

    def __init__(
        self,
        total_rounds: int = 8,
        diff_bytes: Sequence[int] = (4, 12),
        masks: Optional[np.ndarray] = None,
    ):
        # split over two permutation calls of at most GIMLI_ROUNDS each
        if not 0 <= total_rounds <= 2 * GIMLI_ROUNDS:
            raise DistinguisherError(
                f"total_rounds must be in [0, {2 * GIMLI_ROUNDS}], got "
                f"{total_rounds}"
            )
        if masks is not None:
            masks = np.asarray(masks, dtype=np.uint32)
            if masks.ndim != 2 or masks.shape[1] != 4:
                raise DistinguisherError(
                    f"Gimli-Cipher masks must have shape (t, 4), got "
                    f"{masks.shape}"
                )
        else:
            masks = np.zeros((len(diff_bytes), 4), dtype=np.uint32)
            for row, byte in enumerate(diff_bytes):
                if not 0 <= byte < 16:
                    raise DistinguisherError(
                        f"nonce difference byte {byte} outside the 16-byte nonce"
                    )
                word, mask = _byte_flip_mask(byte)
                masks[row, word] = mask
        super().__init__(masks)
        self.total_rounds = int(total_rounds)

    def sample_base_inputs(self, n, rng):
        return random_words(rng, (n, 4))

    def sample_context(self, n, rng):
        return random_words(rng, (n, 8))

    def pipeline(self, inputs, context=None):
        if context is None:
            raise DistinguisherError(
                "GimliCipherScenario needs per-sample keys as context"
            )
        return gimli_aead_reduced_c0_batch(inputs, context, self.total_rounds)


class GimliPermutationScenario(DifferentialScenario):
    """Distinguisher directly on the (round-reduced) 384-bit permutation.

    ``differences`` is a ``(t, 12)`` array of state differences; the
    observable is the full output state.  ``observe_words`` restricts
    the observation (e.g. ``range(4)`` for the rate row only).
    """

    input_words = 12
    word_width = 32

    def __init__(
        self,
        rounds: int = 8,
        differences: Optional[np.ndarray] = None,
        observe_words: Optional[Sequence[int]] = None,
    ):
        if differences is None:
            differences = np.zeros((2, 12), dtype=np.uint32)
            differences[0, 1] = 1  # bit 0 of word 1 (byte 4)
            differences[1, 3] = 1  # bit 0 of word 3 (byte 12)
        self._observe = tuple(observe_words) if observe_words is not None else tuple(
            range(12)
        )
        if not self._observe or any(not 0 <= w < 12 for w in self._observe):
            raise DistinguisherError(
                f"observe_words must be a non-empty subset of 0..11, got "
                f"{self._observe}"
            )
        self.output_words = len(self._observe)
        super().__init__(np.asarray(differences, dtype=np.uint32))
        self.permutation = GimliPermutation(rounds)
        self.rounds = int(rounds)

    def sample_base_inputs(self, n, rng):
        return random_words(rng, (n, 12))

    def pipeline(self, inputs, context=None):
        del context
        out = self.permutation(inputs)
        return out[:, list(self._observe)]


class ToySpeckScenario(DifferentialScenario):
    """``t``-difference experiment on ToySpeck with fresh keys per sample.

    Small enough that the ML accuracy can be compared against the exact
    all-in-one Bayes ceiling from :mod:`repro.diffcrypt.allinone`.
    """

    input_words = 2
    output_words = 2
    word_width = 8

    def __init__(self, rounds: int = 4, deltas: Sequence[int] = (0x0040, 0x2000)):
        if not 1 <= rounds <= TOYSPECK_ROUNDS:
            raise DistinguisherError(
                f"rounds must be in [1, {TOYSPECK_ROUNDS}], got {rounds}"
            )
        masks = np.zeros((len(deltas), 2), dtype=np.uint8)
        for row, delta in enumerate(deltas):
            if not 0 < delta < 1 << 16:
                raise DistinguisherError(
                    f"ToySpeck difference must be a non-zero 16-bit value, "
                    f"got {delta:#x}"
                )
            masks[row, 0] = (delta >> 8) & 0xFF
            masks[row, 1] = delta & 0xFF
        super().__init__(masks)
        self.rounds = int(rounds)
        self.deltas = tuple(int(d) for d in deltas)

    def sample_base_inputs(self, n, rng):
        return rng.integers(0, 256, size=(n, 2), dtype=np.uint8)

    def sample_context(self, n, rng):
        return rng.integers(0, 256, size=(n, 4), dtype=np.uint8)

    def pipeline(self, inputs, context=None):
        if context is None:
            raise DistinguisherError("ToySpeckScenario needs per-sample keys")
        return toyspeck_encrypt_batch(inputs, context, self.rounds)


class SpeckRealOrRandomScenario:
    """Gohr's CRYPTO'19 binary game on SPECK-32/64 (paper §2.3).

    Unlike the ``t``-difference scenarios, the two classes here are
    *real* ciphertext pairs (encryptions of ``P`` and ``P ⊕ δ`` under a
    fresh key) versus *random* pairs, and the model sees the full pair,
    not its difference.  Provided as the background baseline the paper
    builds on.
    """

    feature_bits = 64  # two 32-bit ciphertexts
    num_classes = 2

    def __init__(self, rounds: int = 5, delta: int = 0x0040_0000):
        if not 0 < delta < 1 << 32:
            raise DistinguisherError(
                f"delta must be a non-zero 32-bit block difference, got {delta:#x}"
            )
        self.rounds = int(rounds)
        self.delta = int(delta)

    def generate_dataset(
        self, n_per_class: int, rng=None, shuffle: bool = True
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Balanced real/random ciphertext-pair dataset, Gohr-style."""
        if n_per_class <= 0:
            raise DistinguisherError(
                f"n_per_class must be positive, got {n_per_class}"
            )
        generator = make_rng(rng)
        n = n_per_class
        plaintexts = generator.integers(0, 1 << 16, size=(2 * n, 2), dtype=np.uint16)
        keys = generator.integers(0, 1 << 16, size=(2 * n, 4), dtype=np.uint16)
        dx = np.uint16((self.delta >> 16) & 0xFFFF)
        dy = np.uint16(self.delta & 0xFFFF)
        partners = plaintexts.copy()
        partners[:, 0] ^= dx
        partners[:, 1] ^= dy
        c0 = speck_encrypt_batch(plaintexts, keys, self.rounds)
        c1 = speck_encrypt_batch(partners, keys, self.rounds)
        # Replace the second half with uniformly random pairs (label 0).
        c0[n:] = generator.integers(0, 1 << 16, size=(n, 2), dtype=np.uint16)
        c1[n:] = generator.integers(0, 1 << 16, size=(n, 2), dtype=np.uint16)
        pairs = np.concatenate([c0, c1], axis=1)  # (2n, 4) uint16
        labels = np.concatenate(
            [np.ones(n, dtype=np.int64), np.zeros(n, dtype=np.int64)]
        )
        if shuffle:
            # Shuffle the 8-byte pairs, not their 256-byte float rows.
            order = generator.permutation(2 * n)
            pairs, labels = pairs[order], labels[order]
        return state_to_bits(pairs, 16), labels
