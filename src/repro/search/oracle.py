"""The bias-scoring oracle: a milliseconds-cheap fitness for differences.

Training a distinguisher to evaluate one candidate difference (AutoND's
observation, and ours) is thousands of times more expensive than
necessary at the search stage: at the rounds where a difference is
*selectable* at all, most of the neural network's accuracy is explained
by per-bit marginals of the output difference — exactly what the
:class:`~repro.core.bias_baseline.BitBiasClassifier` reads off.  The
search therefore scores a candidate ``δ`` by the mean absolute bias of
the output-difference bits::

    score(δ) = mean_j | 2 · P[bit_j(C ⊕ C_δ) = 1] − 1 |

estimated over a small fixed sample bank.  A random function scores at
the sampling noise floor (≈ ``sqrt(2 / (π n))`` per bit); a useful
difference at low rounds scores an order of magnitude above it.

Determinism and worker-invariance
---------------------------------

The oracle draws one *sample bank* per instance — base inputs and
per-sample context, derived from the constructor seed alone, cut into
fixed-size shards exactly like :mod:`repro.core.parallel` cuts dataset
generation.  A candidate's score is a pure function of ``(seed,
n_samples, shard_size, δ)``:

* every shard's inputs come from its own spawned
  :class:`~numpy.random.SeedSequence` child, so the bank does not
  depend on how many workers computed it;
* per-shard bit counts are exact integer sums, reduced in shard
  order — addition of integers is associative, so the total (and the
  score) is bit-identical for every ``workers`` value;
* scores are memoised per candidate, so re-scoring survivors across
  evolutionary generations is a dictionary hit.

Blocked scoring
---------------

A shard holds only :data:`DEFAULT_SHARD_SIZE` rows, below the batch
size at which the cipher pipelines run efficiently: per row, at 1024
rows against 8192, the Gimli-Hash pipeline costs 1.3 times as much
(51 against 38 ns with the compiled Gimli kernel, on a 2-vCPU Xeon
VM), Gimli-Cipher's 1.5 times and GIFT-64's numpy kernel twice.  So
a shard scores its candidates in blocks of ``block = BLOCK_ROWS //
shard_n``: the block's inputs ``P ⊕ δ`` are stacked into one
``(block · shard_n, input_words)`` array, the per-sample context is
tiled to match, and one pipeline call and one bit count serve the
whole block.  The count is one compiled pass that XORs each output
with its base output and adds every bit into its column (see
:func:`diff_bit_counts_numpy` for its numpy spelling).  Scoring ``k``
candidates therefore costs
``ceil(k / block) + 1`` pipeline calls per shard (the ``+ 1`` is the
base ciphertexts, computed once and shared).  This relies on the
row-independence contract of
:meth:`~repro.core.scenario.DifferentialScenario.pipeline`: a stacked
row is computed exactly as it would be alone, so the counts — and every
score — are the same as one call per candidate.
"""

from __future__ import annotations

import ctypes
from typing import Dict, List

import numpy as np

from repro.core.parallel import run_grid, seed_sequence_from, shard_sizes
from repro.errors import SearchError
from repro.obs import log as obs_log
from repro.obs.metrics import REGISTRY
from repro.obs.trace import span
from repro.utils import cbuild
from repro.utils.bitops import word_dtype
from repro.utils.encoding import words_to_bits

_log = obs_log.get_logger("repro.search")

#: Default evaluation budget per candidate (samples in the bank).
DEFAULT_SAMPLES = 2048

#: Samples per shard of the bank.  Part of the determinism contract,
#: like :data:`repro.core.parallel.DEFAULT_SHARD_SIZE`: changing it
#: changes every score.
DEFAULT_SHARD_SIZE = 1024


def as_difference_words(values, word_width: int) -> np.ndarray:
    """``values`` as an array of unsigned ``word_width``-bit words.

    A plain cast would silently turn some values into other differences
    (``2**32 + 1`` into ``1`` for 32-bit words, ``1.9`` into ``1``), so
    every value must be a finite, integral number in
    ``[0, 2**word_width)``; anything else raises :class:`SearchError`.
    """
    try:
        arr = np.asarray(values)
    except (TypeError, ValueError):
        arr = None
    if arr is None or arr.dtype.kind not in "iufO":
        raise SearchError("differences must be a rectangular array of numbers")
    limit = 1 << word_width
    if arr.dtype.kind == "O":
        # Python ints too large for int64, or non-numbers: check each.
        fits = all(
            isinstance(value, (int, float, np.integer, np.floating))
            and not isinstance(value, bool)
            and 0 <= value < limit
            and value == int(value)
            for value in arr.flat
        )
    else:
        fits = bool(np.all((arr >= 0) & (arr < limit)))
        if fits and arr.dtype.kind == "f":
            fits = bool(np.all(arr == np.floor(arr)))
    if not fits:
        raise SearchError(
            f"differences must be integers in [0, 2**{word_width}) for "
            f"{word_width}-bit words"
        )
    return arr.astype(word_dtype(word_width))


#: Rows per stacked pipeline call: a shard scores ``BLOCK_ROWS //
#: shard_n`` candidates at a time (at least one).  About the batch size
#: where the cipher pipelines stop gaining per row while a block's
#: outputs still fit in cache.  Not part of the determinism
#: contract: any value gives the same counts.
BLOCK_ROWS = 8192


def diff_bit_counts_numpy(out: np.ndarray, base_out: np.ndarray,
                          width: int) -> np.ndarray:
    """Ones-counts of the bits of ``out ^ base_out``, per candidate.

    ``out`` is ``(m, n, w)`` words (``m`` candidates over the same ``n``
    samples), ``base_out`` is ``(n, w)``; returns ``(m, w * width)``
    counts in :func:`words_to_bits` column order.  They are summed in
    the narrowest unsigned type that holds ``n`` — a count never
    exceeds it, so the narrow sum is exact.  The numpy spelling of the
    compiled kernel: its fallback and its self-test reference.
    """
    m, n, w = out.shape
    bits = words_to_bits((out ^ base_out).reshape(m * n, w), width)
    return bits.reshape(m, n, -1).sum(axis=1, dtype=np.min_scalar_type(n))


_COUNT_SOURCE = r"""
/* counts[c, 8k + j] = the number of samples s whose byte k of
   out[c, s] ^ base[s] has bit j set, for m candidates over n samples
   of row_bytes bytes each: the column order of words_to_bits for
   little-endian words of any width.  Each candidate's n * row_bytes
   bytes are read as one stream in periods of lcm(row_bytes, 64) bytes,
   so lane t of a period always holds column t % row_bytes; a byte
   counter per lane and bit takes up to 255 periods before it is folded
   into counts.  Returns -1 when the counters cannot be allocated. */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

int repro_diff_bit_counts(const uint8_t* restrict out,
                          const uint8_t* restrict base, long m, long n,
                          long row_bytes, int64_t* restrict counts)
{
    long period = row_bytes, total = n * row_bytes;
    while (period % 64)
        period += row_bytes;
    uint8_t* restrict acc = malloc(8 * period);
    if (!acc)
        return -1;
    for (long c = 0; c < m; c++) {
        int64_t* restrict row = counts + c * 8 * row_bytes;
        const uint8_t* restrict o = out + c * total;
        memset(row, 0, 8 * row_bytes * sizeof *row);
        for (long i0 = 0; i0 < total; i0 += 255 * period) {
            long end = total - i0 < 255 * period ? total : i0 + 255 * period;
            long i = i0;
            memset(acc, 0, 8 * period);
            for (; i + period <= end; i += period)
                for (int j = 0; j < 8; j++)
                    for (long t = 0; t < period; t++)
                        acc[j * period + t] += ((o[i + t] ^ base[i + t]) >> j) & 1;
            for (int j = 0; j < 8; j++)
                for (long t = 0; t < end - i; t++)
                    acc[j * period + t] += ((o[i + t] ^ base[i + t]) >> j) & 1;
            for (long t = 0; t < period; t++)
                for (int j = 0; j < 8; j++)
                    row[8 * (t % row_bytes) + j] += acc[j * period + t];
        }
    }
    free(acc);
    return 0;
}
"""


def _bind_counts(lib):
    fn = lib.repro_diff_bit_counts
    fn.argtypes = [ctypes.c_void_p] * 2 + [ctypes.c_long] * 3 + [ctypes.c_void_p]
    fn.restype = ctypes.c_int
    return fn


def _kernel_counts(fn, out: np.ndarray, base_out: np.ndarray,
                   counts: np.ndarray) -> None:
    """Fill ``counts`` (``(m, w * width)`` int64) as
    :func:`diff_bit_counts_numpy` would.  The kernel gets raw pointers,
    so shapes, dtypes and contiguity are checked here first."""
    m, n, w = out.shape
    arrays = (out, base_out, counts)
    if (base_out.shape != (n, w) or base_out.dtype != out.dtype
            or counts.shape != (m, 8 * w * out.itemsize)
            or counts.dtype != np.int64
            or not all(a.flags.c_contiguous for a in arrays)):
        raise SearchError(
            f"bit counts of {out.dtype} {out.shape} against {base_out.dtype} "
            f"{base_out.shape} do not fit {counts.dtype} {counts.shape}"
        )
    if fn(out.ctypes.data, base_out.ctypes.data, m, n, w * out.itemsize,
          counts.ctypes.data):
        raise MemoryError("no memory for the bit-count kernel's counters")


def _counts_self_test(fn) -> bool:
    """Compiled vs :func:`diff_bit_counts_numpy` for every word width,
    compared exactly: blocks of one and of several candidates, rows
    whose length does not divide 64 bytes, sample counts that are not a
    multiple of any vector width, and a stream long enough that the
    byte counters are folded more than once."""
    rng = np.random.default_rng(4669)
    for width in (8, 16, 32, 64):
        dtype = word_dtype(width)
        for m, n, w in ((1, 1, 1), (3, 37, 2), (2, 300, 5), (1, 16400, 1)):
            base = rng.integers(0, np.iinfo(dtype).max, size=(n, w),
                                dtype=dtype, endpoint=True)
            out = rng.integers(0, np.iinfo(dtype).max, size=(m, n, w),
                               dtype=dtype, endpoint=True)
            out[0, :n // 2] = base[:n // 2]
            counts = np.empty((m, w * width), dtype=np.int64)
            _kernel_counts(fn, out, base, counts)
            if not np.array_equal(counts,
                                  diff_bit_counts_numpy(out, base, width)):
                return False
    return True


_COUNT_KERNEL = cbuild.CompiledKernel(
    "diff_bit_counts", _COUNT_SOURCE, _bind_counts, _counts_self_test
)


def _count_shard(job):
    """Per-shard bit counts for a batch of candidates.

    ``job`` is ``(prototype, shard_n, seed_child, candidates)``;
    returns an ``(k, feature_bits)`` int64 matrix of ones-counts of the
    output-difference bits over the shard's ``shard_n`` samples.
    Candidates are scored in stacked blocks (see the module docstring),
    and each block is counted in one compiled pass, or by
    :func:`diff_bit_counts_numpy` when the kernel is unavailable.
    Module-level so the grid runner can pickle it into pool workers.
    """
    prototype, shard_n, seed_child, candidates = job
    rng = np.random.Generator(np.random.PCG64(seed_child))
    inputs = prototype.sample_base_inputs(shard_n, rng)
    context = prototype.sample_context(shard_n, rng)
    word = word_dtype(prototype.word_width)
    base_out = np.ascontiguousarray(prototype.pipeline(inputs, context),
                                    dtype=word)
    deltas = candidates.astype(inputs.dtype)
    block = max(1, BLOCK_ROWS // shard_n)
    fn = _COUNT_KERNEL.get()
    counts = np.empty((deltas.shape[0], prototype.feature_bits), dtype=np.int64)
    for start in range(0, deltas.shape[0], block):
        chunk = deltas[start:start + block]
        m = chunk.shape[0]
        stacked = (inputs ^ chunk[:, np.newaxis]).reshape(m * shard_n, -1)
        tiled = None if context is None else np.concatenate([context] * m)
        out = prototype.pipeline(stacked, tiled).reshape(m, shard_n, -1)
        if fn is None:
            counts[start:start + m] = diff_bit_counts_numpy(
                out, base_out, prototype.word_width
            )
        else:
            _kernel_counts(fn, np.ascontiguousarray(out, dtype=word),
                           base_out, counts[start:start + m])
    return counts


class BiasScoringOracle:
    """Scores candidate input differences against one scenario family.

    ``prototype`` is any :class:`~repro.core.scenario.DifferentialScenario`
    of the target family — only its sampling (``sample_base_inputs`` /
    ``sample_context``), its ``pipeline`` and its geometry are used; its
    own difference masks are irrelevant.  ``rng`` must be a fixed seed
    (int or :class:`~numpy.random.SeedSequence`) for reproducible
    scores; ``workers`` shards the sample bank across processes without
    changing any score.
    """

    def __init__(
        self,
        prototype,
        n_samples: int = DEFAULT_SAMPLES,
        rng=0,
        workers: int = 1,
        shard_size: int = DEFAULT_SHARD_SIZE,
    ):
        if n_samples <= 0:
            raise SearchError(f"n_samples must be positive, got {n_samples}")
        if isinstance(rng, np.random.Generator):
            raise SearchError(
                "pass a fixed seed (int or SeedSequence), not a live "
                "generator: oracle scores must be reproducible"
            )
        self.prototype = prototype
        self.n_samples = int(n_samples)
        self.shard_size = int(shard_size)
        self.workers = workers
        self._sizes = shard_sizes(self.n_samples, self.shard_size)
        self._children = seed_sequence_from(rng).spawn(len(self._sizes))
        self._cache: Dict[bytes, float] = {}
        self._count_cache: Dict[bytes, np.ndarray] = {}
        self.evaluations = 0

    # -- scoring -------------------------------------------------------------

    @property
    def input_words(self) -> int:
        return self.prototype.input_words

    @property
    def word_width(self) -> int:
        return self.prototype.word_width

    def _as_candidates(self, candidates) -> np.ndarray:
        arr = as_difference_words(candidates, self.prototype.word_width)
        if arr.ndim == 1:
            arr = arr[np.newaxis, :]
        if arr.ndim != 2 or arr.shape[1] != self.prototype.input_words:
            raise SearchError(
                f"candidates must have shape (k, {self.prototype.input_words}), "
                f"got {arr.shape}"
            )
        if any((row == 0).all() for row in arr):
            raise SearchError("candidate differences must be non-zero")
        return arr

    def _counts_for(self, fresh: np.ndarray) -> None:
        """Fill the memo tables for every row of ``fresh``."""
        jobs = [
            (self.prototype, shard_n, child, fresh)
            for shard_n, child in zip(self._sizes, self._children)
        ]
        with span(
            "search.score", candidates=fresh.shape[0], shards=len(jobs)
        ):
            shard_counts = run_grid(
                _count_shard, jobs, workers=self.workers, label="search.score"
            )
        totals = np.zeros(
            (fresh.shape[0], self.prototype.feature_bits), dtype=np.int64
        )
        for counts in shard_counts:
            totals += counts
        probabilities = totals / float(self.n_samples)
        biases = np.abs(2.0 * probabilities - 1.0)
        REGISTRY.counter("repro_search_scored_total").inc(fresh.shape[0])
        self.evaluations += fresh.shape[0]
        for row, delta in enumerate(fresh):
            key = delta.tobytes()
            self._count_cache[key] = totals[row]
            self._cache[key] = float(biases[row].mean())

    def score_batch(self, candidates) -> np.ndarray:
        """Scores for a ``(k, input_words)`` candidate batch (memoised)."""
        arr = self._as_candidates(candidates)
        missing: List[int] = []
        seen: Dict[bytes, int] = {}
        for row in range(arr.shape[0]):
            key = arr[row].tobytes()
            if key not in self._cache and key not in seen:
                seen[key] = row
                missing.append(row)
        if missing:
            self._counts_for(arr[missing])
        return np.array(
            [self._cache[arr[row].tobytes()] for row in range(arr.shape[0])]
        )

    def score(self, candidate) -> float:
        """The bias score of a single difference."""
        return float(self.score_batch(candidate)[0])

    def bias_profile(self, candidate) -> np.ndarray:
        """Per-bit ``P[bit_j = 1]`` estimates for one difference."""
        arr = self._as_candidates(candidate)
        self.score_batch(arr)
        return self._count_cache[arr[0].tobytes()] / float(self.n_samples)

    def noise_floor(self) -> float:
        """Expected score of a useless difference (pure sampling noise).

        For ``n`` samples the per-bit bias estimate ``|2p̂ − 1|`` of a
        fair bit has mean ``sqrt(2 / (π n))``; the mean over bits
        concentrates tightly around it.  Scores within ~2x of this floor
        carry no usable signal.
        """
        return float(np.sqrt(2.0 / (np.pi * self.n_samples)))
