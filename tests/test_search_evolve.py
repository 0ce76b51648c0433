"""Tests for the evolutionary difference optimizer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import SearchError
from repro.search.config import get_scenario_builder
from repro.search.evolve import SearchConfig, evolve_differences
from repro.search.oracle import BiasScoringOracle


def _oracle(rounds=3, n_samples=1024, workers=1, rng=0):
    builder = get_scenario_builder("toyspeck")
    return BiasScoringOracle(
        builder.prototype(rounds=rounds),
        n_samples=n_samples,
        rng=rng,
        workers=workers,
    )


SMALL = SearchConfig(
    population_size=16, generations=3, elite=4, top_k=4, n_samples=1024, seed=0
)


class TestSearchConfig:
    def test_defaults_valid(self):
        config = SearchConfig()
        assert config.population_size >= config.elite
        assert config.top_k >= 1

    def test_rejects_elite_above_population(self):
        with pytest.raises(SearchError):
            SearchConfig(population_size=4, elite=8)

    def test_rejects_nonpositive(self):
        with pytest.raises(SearchError):
            SearchConfig(generations=0)


class TestEvolve:
    def test_returns_ranked_top_k(self):
        result = evolve_differences(_oracle(), SMALL)
        assert result.ranked_masks.shape == (4, 2)
        assert list(result.ranked_scores) == sorted(
            result.ranked_scores, reverse=True
        )
        assert result.best_score == result.ranked_scores[0]

    def test_deterministic_under_fixed_seed(self):
        a = evolve_differences(_oracle(), SMALL)
        b = evolve_differences(_oracle(), SMALL)
        assert np.array_equal(a.ranked_masks, b.ranked_masks)
        assert np.array_equal(a.ranked_scores, b.ranked_scores)

    def test_worker_invariant(self):
        serial = evolve_differences(_oracle(workers=1, n_samples=2048), SMALL)
        sharded = evolve_differences(_oracle(workers=3, n_samples=2048), SMALL)
        assert np.array_equal(serial.ranked_masks, sharded.ranked_masks)
        assert np.array_equal(serial.ranked_scores, sharded.ranked_scores)

    def test_rediscovers_at_least_paper_bias(self):
        # Acceptance criterion: a seeded search on ToySpeck finds a
        # difference at least as biased as the paper's delta = 0x0040.
        oracle = _oracle(rounds=3, n_samples=2048)
        result = evolve_differences(oracle, SMALL)
        paper = oracle.score(np.array([0x00, 0x40], dtype=np.uint8))
        assert result.best_score >= paper

    def test_seeds_are_injected(self):
        oracle = _oracle()
        seeds = np.array([[0x00, 0x40]], dtype=np.uint8)
        result = evolve_differences(oracle, SMALL, seeds=seeds)
        paper = oracle.score(seeds[0])
        # the injected seed was scored, so the winner can't be worse
        assert result.best_score >= paper

    def test_allowed_bits_confine_search(self):
        # restrict the search to the low nibble of word 1
        allowed = np.array([0x00, 0x0F], dtype=np.uint8)
        result = evolve_differences(_oracle(), SMALL, allowed=allowed)
        assert np.all(result.ranked_masks[:, 0] == 0)
        assert np.all(result.ranked_masks[:, 1] & ~allowed[1] == 0)

    def test_history_tracks_generations(self):
        result = evolve_differences(_oracle(), SMALL)
        assert len(result.history) == SMALL.generations
        assert all("best" in row and "mean" in row for row in result.history)

    def test_summary_is_json_ready(self):
        import json

        result = evolve_differences(_oracle(), SMALL)
        blob = json.dumps(result.summary())
        assert "ranked_differences" in blob
        assert "evolutionary-bias" in blob
