"""Tests for the bias-scoring oracle of :mod:`repro.search`."""

from __future__ import annotations

import numpy as np
import pytest

from nn_helpers import compiled_kernels_expected
from repro.errors import SearchError
from repro.search import oracle as oracle_module
from repro.search.config import get_scenario_builder
from repro.search.oracle import (
    BLOCK_ROWS,
    DEFAULT_SHARD_SIZE,
    BiasScoringOracle,
    _count_shard,
)
from repro.utils.encoding import words_to_bits


def _toyspeck_oracle(rounds=3, n_samples=1024, workers=1, rng=0):
    builder = get_scenario_builder("toyspeck")
    return BiasScoringOracle(
        builder.prototype(rounds=rounds),
        n_samples=n_samples,
        rng=rng,
        workers=workers,
    )


class TestScoring:
    def test_score_in_unit_interval(self):
        oracle = _toyspeck_oracle()
        score = oracle.score(np.array([0x00, 0x40], dtype=np.uint8))
        assert 0.0 <= score <= 1.0

    def test_deterministic_under_fixed_seed(self):
        delta = np.array([0x20, 0x00], dtype=np.uint8)
        a = _toyspeck_oracle(rng=7).score(delta)
        b = _toyspeck_oracle(rng=7).score(delta)
        assert a == b

    def test_seed_changes_samples(self):
        delta = np.array([0x20, 0x00], dtype=np.uint8)
        a = _toyspeck_oracle(rng=1, n_samples=256).score(delta)
        b = _toyspeck_oracle(rng=2, n_samples=256).score(delta)
        assert a != b

    def test_worker_invariant(self):
        delta = np.array([0x00, 0x40], dtype=np.uint8)
        serial = _toyspeck_oracle(workers=1, n_samples=2048).score(delta)
        sharded = _toyspeck_oracle(workers=4, n_samples=2048).score(delta)
        assert serial == sharded

    def test_memoised(self):
        oracle = _toyspeck_oracle()
        delta = np.array([0x00, 0x40], dtype=np.uint8)
        first = oracle.score(delta)
        evaluations = oracle.evaluations
        second = oracle.score(delta)
        assert first == second
        assert oracle.evaluations == evaluations  # cache hit, no new work

    def test_batch_matches_single(self):
        oracle = _toyspeck_oracle()
        batch = np.array([[0x00, 0x40], [0x20, 0x00]], dtype=np.uint8)
        scores = oracle.score_batch(batch)
        assert scores.shape == (2,)
        assert scores[0] == oracle.score(batch[0])
        assert scores[1] == oracle.score(batch[1])

    def test_bias_profile_shape(self):
        oracle = _toyspeck_oracle()
        profile = oracle.bias_profile(np.array([0x00, 0x40], dtype=np.uint8))
        assert profile.shape == (oracle.prototype.feature_bits,)
        assert np.all((profile >= 0.0) & (profile <= 1.0))

    def test_noise_floor(self):
        oracle = _toyspeck_oracle(n_samples=1024)
        assert oracle.noise_floor() == pytest.approx(
            np.sqrt(2.0 / (np.pi * 1024))
        )


class TestValidation:
    def test_rejects_zero_difference(self):
        oracle = _toyspeck_oracle()
        with pytest.raises(SearchError):
            oracle.score(np.zeros(2, dtype=np.uint8))

    def test_rejects_wrong_width(self):
        oracle = _toyspeck_oracle()
        with pytest.raises(SearchError):
            oracle.score(np.array([1, 2, 3], dtype=np.uint8))

    @pytest.mark.parametrize(
        "candidates",
        [[[300, 0]], [[0, 256]], [[1.5, 0]], [[float("nan"), 0]],
         [[-1, 0]], [[2**70, 0]], [["a", 0]]],
        ids=["300", "256", "fraction", "nan", "negative", "huge", "string"],
    )
    def test_rejects_values_that_are_not_words(self, candidates):
        # A plain cast raised OverflowError/ValueError for some of these
        # and silently scored [[1.5, 0]] as [[1, 0]].
        oracle = _toyspeck_oracle()
        with pytest.raises(SearchError):
            oracle.score_batch(candidates)

    def test_accepts_integral_floats(self):
        oracle = _toyspeck_oracle()
        assert oracle.score_batch([[0.0, 64.0]])[0] == oracle.score([0, 64])

    def test_rejects_live_generator_seed(self):
        builder = get_scenario_builder("toyspeck")
        with pytest.raises(SearchError):
            BiasScoringOracle(
                builder.prototype(rounds=3), rng=np.random.default_rng(0)
            )


class TestPaperDifferencesRank:
    """Satellite: the paper's hand-picked deltas score in the top-k."""

    def test_toyspeck_paper_delta_beats_random_pool(self):
        # delta1 = 0x0040 (Table: ToySpeck) must rank in the top 25% of
        # a pool of random same-weight candidates at a low round count.
        oracle = _toyspeck_oracle(rounds=2, n_samples=2048)
        paper = np.array([0x00, 0x40], dtype=np.uint8)
        paper_score = oracle.score(paper)
        rng = np.random.default_rng(99)
        pool = []
        while len(pool) < 32:
            candidate = np.zeros(2, dtype=np.uint8)
            word, bit = rng.integers(0, 2), rng.integers(0, 8)
            candidate[word] = np.uint8(1 << bit)
            if candidate.tobytes() != paper.tobytes():
                pool.append(oracle.score(candidate))
        better = sum(1 for s in pool if s > paper_score)
        assert paper_score > oracle.noise_floor()
        assert better <= len(pool) // 4

    def test_gimli_hash_paper_delta_above_noise(self):
        # The paper flips the LSBs of message bytes 4 and 12; at a low
        # round count both must produce bias the oracle can see.
        builder = get_scenario_builder("gimli-hash")
        oracle = BiasScoringOracle(
            builder.prototype(rounds=2), n_samples=512, rng=0, workers=1
        )
        byte4 = np.array([0, 1, 0, 0], dtype=np.uint32)
        byte12 = np.array([0, 0, 0, 1], dtype=np.uint32)
        floor = oracle.noise_floor()
        assert oracle.score(byte4) > floor
        assert oracle.score(byte12) > floor


def _count_shard_per_candidate(job):
    """The historical shard counter: one pipeline call per candidate."""
    prototype, shard_n, seed_child, candidates = job
    rng = np.random.Generator(np.random.PCG64(seed_child))
    inputs = prototype.sample_base_inputs(shard_n, rng)
    context = prototype.sample_context(shard_n, rng)
    base_out = prototype.pipeline(inputs, context)
    counts = np.empty((candidates.shape[0], prototype.feature_bits), dtype=np.int64)
    for row, delta in enumerate(candidates):
        out = prototype.pipeline(inputs ^ delta.astype(inputs.dtype), context)
        bits = words_to_bits(base_out ^ out, prototype.word_width)
        counts[row] = bits.sum(axis=0, dtype=np.int64)
    return counts


BLOCK = BLOCK_ROWS // DEFAULT_SHARD_SIZE
#: One full shard plus a short last one.
SHORT_TAIL_SAMPLES = DEFAULT_SHARD_SIZE + 300

EQUIVALENCE_FAMILIES = [
    ("gimli-hash", {"rounds": 3}),
    ("gimli-cipher", {"total_rounds": 3}),
    ("gift64", {"rounds": 2}),
    ("toyspeck", {"rounds": 2}),
]


def _random_candidates(builder, params, k, seed=0):
    prototype = builder.prototype(**params)
    dtype = prototype.difference_masks.dtype
    allowed = builder.allowed_bits(**params)
    if allowed is None:
        allowed = np.full(prototype.input_words, np.iinfo(dtype).max, dtype)
    rng = np.random.default_rng(seed)
    rows = []
    while len(rows) < k:
        row = rng.integers(
            0, np.iinfo(dtype).max, size=prototype.input_words,
            dtype=dtype, endpoint=True,
        ) & allowed.astype(dtype)
        if row.any():
            rows.append(row)
    return np.stack(rows)


class TestBlockedScoring:
    """Stacked-block scoring counts exactly what one call per candidate did."""

    @pytest.mark.parametrize(
        "k", [1, BLOCK - 1, BLOCK + 1, 3 * BLOCK],
        ids=["one", "below-block", "above-block", "three-blocks"],
    )
    @pytest.mark.parametrize(
        "family,params", EQUIVALENCE_FAMILIES,
        ids=[name for name, _ in EQUIVALENCE_FAMILIES],
    )
    def test_counts_match_per_candidate_loop(self, family, params, k):
        builder = get_scenario_builder(family)
        oracle = BiasScoringOracle(
            builder.prototype(**params), n_samples=SHORT_TAIL_SAMPLES, rng=5
        )
        assert oracle._sizes[-1] < DEFAULT_SHARD_SIZE
        candidates = _random_candidates(builder, params, k)
        totals = 0
        for shard_n, child in zip(oracle._sizes, oracle._children):
            job = (oracle.prototype, shard_n, child, candidates)
            blocked = _count_shard(job)
            np.testing.assert_array_equal(
                blocked, _count_shard_per_candidate(job)
            )
            assert blocked.dtype == np.int64
            totals = totals + blocked
        profiles = np.stack([oracle.bias_profile(row) for row in candidates])
        np.testing.assert_array_equal(profiles, totals / SHORT_TAIL_SAMPLES)

    @pytest.mark.parametrize(
        "family,params", EQUIVALENCE_FAMILIES,
        ids=[name for name, _ in EQUIVALENCE_FAMILIES],
    )
    def test_worker_invariant(self, family, params):
        builder = get_scenario_builder(family)
        candidates = _random_candidates(builder, params, 3 * BLOCK, seed=1)
        scores = [
            BiasScoringOracle(
                builder.prototype(**params), n_samples=SHORT_TAIL_SAMPLES,
                rng=5, workers=workers,
            ).score_batch(candidates)
            for workers in (1, 2)
        ]
        np.testing.assert_array_equal(scores[0], scores[1])

    def test_shard_larger_than_block(self):
        # A shard above BLOCK_ROWS still scores one candidate per call.
        builder = get_scenario_builder("toyspeck")
        oracle = BiasScoringOracle(
            builder.prototype(rounds=2), n_samples=BLOCK_ROWS + 100,
            shard_size=BLOCK_ROWS + 100, rng=5,
        )
        candidates = _random_candidates(builder, {"rounds": 2}, 3)
        job = (oracle.prototype, oracle._sizes[0], oracle._children[0],
               candidates)
        np.testing.assert_array_equal(
            _count_shard(job), _count_shard_per_candidate(job)
        )


KERNEL_FAMILIES = [
    ("toyspeck", {"rounds": 2}),
    ("gift16", {"rounds": 2}),
    ("gimli-hash", {"rounds": 3}),
    ("gift64", {"rounds": 2}),
]


class TestCountKernel:
    """The compiled bit count equals the numpy counting exactly."""

    def test_kernel_loads_where_a_compiler_is_available(self):
        if compiled_kernels_expected():
            assert oracle_module._COUNT_KERNEL.get() is not None

    def test_mismatched_buffers_never_reach_the_kernel(self):
        out = np.zeros((2, 5, 3), dtype=np.uint16)
        base = np.zeros((5, 3), dtype=np.uint16)
        calls = []
        for bad in (
            (out, base, np.zeros((2, 40), dtype=np.int64)),
            (out, base.astype(np.uint32), np.zeros((2, 48), dtype=np.int64)),
            (out, base[:4], np.zeros((2, 48), dtype=np.int64)),
            (out, base, np.zeros((2, 96), dtype=np.int64)[:, ::2]),
        ):
            with pytest.raises(SearchError):
                oracle_module._kernel_counts(
                    lambda *args: calls.append(args), *bad
                )
        assert not calls

    @pytest.mark.parametrize(
        "family,params", KERNEL_FAMILIES,
        ids=[name for name, _ in KERNEL_FAMILIES],
    )
    def test_counts_match_numpy(self, family, params, monkeypatch):
        builder = get_scenario_builder(family)
        oracle = BiasScoringOracle(
            builder.prototype(**params), n_samples=SHORT_TAIL_SAMPLES, rng=9
        )
        # Three full blocks and a one-candidate last block, over a full
        # shard and a short one.
        candidates = _random_candidates(builder, params, 3 * BLOCK + 1, seed=2)
        jobs = [
            (oracle.prototype, shard_n, child, candidates)
            for shard_n, child in zip(oracle._sizes, oracle._children)
        ]
        compiled = [_count_shard(job) for job in jobs]
        monkeypatch.setattr(oracle_module._COUNT_KERNEL, "get", lambda: None)
        for job, counts in zip(jobs, compiled):
            expected = _count_shard(job)
            assert counts.dtype == expected.dtype == np.int64
            np.testing.assert_array_equal(counts, expected)


class TestPinnedScores:
    """Exact scores recorded with the per-candidate loop (cross-commit pins)."""

    @pytest.mark.parametrize(
        "family,params,candidate,expected",
        [
            ("gimli-hash", {"rounds": 4}, [0, 1, 0, 0], 0.835575),
            ("gimli-cipher", {"total_rounds": 4}, [0, 0, 0, 0x80000000],
             0.7996687499999999),
            ("gift64", {"rounds": 3}, [0x1, 0], 0.5678000000000001),
        ],
        ids=["gimli-hash", "gimli-cipher", "gift64"],
    )
    def test_score_is_pinned(self, family, params, candidate, expected):
        oracle = BiasScoringOracle(
            get_scenario_builder(family).prototype(**params),
            n_samples=2500, rng=2021, workers=1,
        )
        assert oracle.score(np.array(candidate, dtype=np.uint32)) == expected
