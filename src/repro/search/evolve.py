"""Evolutionary search over input differences (AutoND-style).

The search space is the non-zero bit-difference space of a scenario's
input — ``2^16`` for ToySpeck, ``2^64`` for GIFT-64, ``2^120`` for a
Gimli-Hash message block — far too large to sweep but highly
structured: good differences are low-weight, and the bias score
of a difference varies smoothly-ish under single-bit edits.  A small
evolutionary loop exploits that:

* the population starts from single-bit candidates plus a few random
  low-weight ones (good trails start narrow);
* each generation keeps the ``elite`` best, breeds the rest by uniform
  bitwise crossover of elite parents, and mutates offspring by flipping
  1..``mutation_bits`` random bits;
* selection is elitist over *all evaluations ever made* (the oracle
  memoises, so re-ranking history is free) and the final answer is the
  global top-``k``.

Determinism: every random draw comes from one
:class:`~numpy.random.Generator` seeded by ``config.seed``, and oracle
scores are worker-invariant by construction, so a seeded search returns
bit-identical ranked results for any ``REPRO_WORKERS``.

An optional ``allowed`` bit mask restricts the search to a subspace —
e.g. the message bytes of a Gimli-Hash block (flipping padding bytes
would change the message length, not the message).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import SearchError
from repro.obs import log as obs_log
from repro.obs.metrics import REGISTRY
from repro.obs.trace import span
from repro.search.oracle import BiasScoringOracle, DEFAULT_SAMPLES
from repro.utils.rng import random_words

_log = obs_log.get_logger("repro.search")


@dataclass(frozen=True)
class SearchConfig:
    """Budget and reproducibility knobs of one evolutionary search."""

    population_size: int = 32
    generations: int = 8
    elite: int = 8
    mutation_bits: int = 2
    top_k: int = 4
    n_samples: int = DEFAULT_SAMPLES
    seed: int = 0
    workers: int = 1

    def __post_init__(self):
        if self.population_size < 2:
            raise SearchError(
                f"population_size must be >= 2, got {self.population_size}"
            )
        if self.generations < 1:
            raise SearchError(f"generations must be >= 1, got {self.generations}")
        if not 1 <= self.elite <= self.population_size:
            raise SearchError(
                f"elite must be in [1, population_size], got {self.elite}"
            )
        if self.mutation_bits < 1:
            raise SearchError(
                f"mutation_bits must be >= 1, got {self.mutation_bits}"
            )
        if self.top_k < 1:
            raise SearchError(f"top_k must be >= 1, got {self.top_k}")
        if self.n_samples < 2:
            raise SearchError(f"n_samples must be >= 2, got {self.n_samples}")


@dataclass
class SearchResult:
    """Ranked outcome of one evolutionary search."""

    #: ``(top_k, input_words)`` difference masks, best first
    ranked_masks: np.ndarray
    #: matching bias scores, best first
    ranked_scores: np.ndarray
    #: distinct candidates evaluated over the whole run
    evaluations: int
    #: oracle noise floor (scores near it are indistinguishable from noise)
    noise_floor: float
    #: per-generation ``{"generation", "best", "mean"}`` rows
    history: List[dict] = field(default_factory=list)
    config: Optional[SearchConfig] = None

    @property
    def best_mask(self) -> np.ndarray:
        return self.ranked_masks[0]

    @property
    def best_score(self) -> float:
        return float(self.ranked_scores[0])

    def top(self, k: int) -> np.ndarray:
        """The best ``k`` masks as a difference set for a scenario."""
        if not 1 <= k <= self.ranked_masks.shape[0]:
            raise SearchError(
                f"asked for top {k} of {self.ranked_masks.shape[0]} ranked masks"
            )
        return self.ranked_masks[:k].copy()

    def summary(self) -> dict:
        """JSON-ready digest (registry manifests, CLI output)."""
        return {
            "algorithm": "evolutionary-bias",
            "ranked_differences": self.ranked_masks.tolist(),
            "ranked_scores": [float(s) for s in self.ranked_scores],
            "evaluations": int(self.evaluations),
            "noise_floor": float(self.noise_floor),
            "generations": len(self.history),
            "config": {
                "population_size": self.config.population_size,
                "generations": self.config.generations,
                "elite": self.config.elite,
                "mutation_bits": self.config.mutation_bits,
                "top_k": self.config.top_k,
                "n_samples": self.config.n_samples,
                "seed": self.config.seed,
            }
            if self.config is not None
            else None,
        }


def _bit_positions(words: int, width: int, allowed: Optional[np.ndarray]) -> np.ndarray:
    """Flat indices (``word * width + bit``) the search may flip."""
    if allowed is None:
        return np.arange(words * width, dtype=np.int64)
    allowed = np.asarray(allowed)
    if allowed.shape != (words,):
        raise SearchError(
            f"allowed mask must have shape ({words},), got {allowed.shape}"
        )
    positions = [
        word * width + bit
        for word in range(words)
        for bit in range(width)
        if (int(allowed[word]) >> bit) & 1
    ]
    if not positions:
        raise SearchError("allowed mask permits no bits")
    return np.asarray(positions, dtype=np.int64)


def _flip(mask: np.ndarray, flat_bit: int, width: int) -> None:
    word, bit = divmod(int(flat_bit), width)
    mask[word] ^= mask.dtype.type(1 << bit)


def _random_mask(
    rng, words: int, width: int, dtype, positions: np.ndarray, weight: int
) -> np.ndarray:
    mask = np.zeros(words, dtype=dtype)
    for flat in rng.choice(positions, size=weight, replace=False):
        _flip(mask, flat, width)
    return mask


def evolve_differences(
    oracle: BiasScoringOracle,
    config: Optional[SearchConfig] = None,
    allowed: Optional[np.ndarray] = None,
    seeds: Optional[Sequence] = None,
) -> SearchResult:
    """Run the evolutionary search and return the global top-``k``.

    ``oracle`` supplies geometry and fitness; ``allowed`` optionally
    restricts the searchable bits; ``seeds`` are extra masks injected
    into the initial population (e.g. the paper's hand-picked
    differences, so the search can only match or beat them).
    """
    config = config or SearchConfig()
    words = oracle.input_words
    width = oracle.word_width
    dtype = oracle.prototype.difference_masks.dtype
    positions = _bit_positions(words, width, allowed)
    allowed_words = np.zeros(words, dtype=dtype)
    for flat in positions:
        _flip(allowed_words, flat, width)
    rng = np.random.default_rng(config.seed)

    # -- initial population: every (or a sample of) single-bit masks,
    # injected seeds, then random 2-3 bit candidates up to size.
    population: List[np.ndarray] = []
    seen = set()

    def admit(mask: np.ndarray) -> bool:
        if not mask.any():
            return False
        key = mask.tobytes()
        if key in seen:
            return False
        seen.add(key)
        population.append(mask)
        return True

    if seeds is not None:
        for seed_mask in seeds:
            arr = np.asarray(seed_mask, dtype=dtype)
            if arr.shape != (words,):
                raise SearchError(
                    f"seed mask must have shape ({words},), got {arr.shape}"
                )
            admit(arr.copy())
    single_bits = (
        positions
        if len(positions) <= config.population_size
        else rng.choice(positions, size=config.population_size, replace=False)
    )
    for flat in single_bits:
        if len(population) >= config.population_size:
            break
        mask = np.zeros(words, dtype=dtype)
        _flip(mask, flat, width)
        admit(mask)
    guard = 0
    while len(population) < config.population_size and guard < 10_000:
        guard += 1
        max_weight = min(4, len(positions))
        weight = 1 if max_weight < 2 else int(rng.integers(2, max_weight + 1))
        admit(_random_mask(rng, words, width, dtype, positions, weight))

    scores: dict = {}
    history: List[dict] = []
    with span(
        "search.evolve",
        generations=config.generations,
        population=config.population_size,
    ):
        for generation in range(config.generations):
            batch = np.stack(population)
            with span("search.generation", generation=generation,
                      candidates=batch.shape[0]):
                batch_scores = oracle.score_batch(batch)
            for mask, score in zip(population, batch_scores):
                scores[mask.tobytes()] = (float(score), mask)
            ranked_now = sorted(
                scores.values(), key=lambda item: (-item[0], item[1].tobytes())
            )
            best, mean = ranked_now[0][0], float(np.mean(batch_scores))
            history.append(
                {"generation": generation, "best": best, "mean": mean}
            )
            REGISTRY.gauge("repro_search_best_score").set(best)
            _log.info(
                "search.generation",
                generation=generation,
                best=round(best, 5),
                mean=round(mean, 5),
                evaluated=len(scores),
            )
            if generation == config.generations - 1:
                break

            # -- next generation: global elite plus crossover+mutation
            # offspring (dedup against everything ever evaluated, so no
            # oracle call is wasted re-scoring a known candidate).
            elite = [item[1] for item in ranked_now[: config.elite]]
            population = [mask.copy() for mask in elite]
            seen = {mask.tobytes() for mask in population}
            attempts = 0
            while (
                len(population) < config.population_size
                and attempts < 50 * config.population_size
            ):
                attempts += 1
                a, b = (
                    elite[int(rng.integers(0, len(elite)))],
                    elite[int(rng.integers(0, len(elite)))],
                )
                # Uniform bitwise crossover inside the allowed subspace
                # (the parents live there, so b & ~selector does too).
                selector = random_words(rng, (words,), width) & allowed_words
                child = (a & selector) | (b & ~selector)
                flips = min(
                    int(rng.integers(1, config.mutation_bits + 1)),
                    len(positions),
                )
                for flat in rng.choice(positions, size=flips, replace=False):
                    _flip(child, flat, width)
                key = child.tobytes()
                if child.any() and key not in seen and key not in scores:
                    seen.add(key)
                    population.append(child)
            while len(population) < config.population_size:
                # Degenerate corner (tiny spaces exhaust themselves):
                # refill with random already-scored masks; they cost
                # nothing to re-rank.
                population.append(
                    _random_mask(rng, words, width, dtype, positions, 1)
                )

    ranked = sorted(
        scores.values(), key=lambda item: (-item[0], item[1].tobytes())
    )
    top_k = min(config.top_k, len(ranked))
    result = SearchResult(
        ranked_masks=np.stack([item[1] for item in ranked[:top_k]]),
        ranked_scores=np.array([item[0] for item in ranked[:top_k]]),
        evaluations=len(scores),
        noise_floor=oracle.noise_floor(),
        history=history,
        config=config,
    )
    _log.info(
        "search.done",
        best=round(result.best_score, 5),
        evaluations=result.evaluations,
    )
    return result
