"""Engineering benchmarks of the cipher substrate: writes ``BENCH_ciphers.json``.

The paper's data pipeline evaluates hundreds of thousands of
round-reduced permutations; these rows time the batched primitives
(states per second) that bound experiment wall-clock, one shard of the
search's bias oracle, and one scenario dataset build.  Entry names keep
the ``test_<case>[<id>]`` form the committed baseline was first
recorded under.

Usage::

    PYTHONPATH=src python benchmarks/bench_ciphers.py [--quick] [--output-dir DIR]
"""

import numpy as np

import timing
from repro.ciphers.gimli import gimli_permute_batch
from repro.ciphers.gimli_cipher import gimli_aead_reduced_c0_batch
from repro.ciphers.speck import encrypt_batch as speck_encrypt
from repro.ciphers.toyspeck import encrypt_batch as toyspeck_encrypt
from repro.core.scenario import GimliHashScenario
from repro.search.config import get_scenario_builder
from repro.search.oracle import DEFAULT_SHARD_SIZE, BiasScoringOracle, _count_shard

BATCH = 1 << 14


def _words(rng, shape, bits):
    dtype = {32: np.uint32, 16: np.uint16, 8: np.uint8}[bits]
    return rng.integers(0, 1 << bits, size=shape, dtype=np.uint64).astype(dtype)


def _oracle_shard():
    """One 1024-sample shard of the bias oracle scoring a population of
    48 candidates: six stacked blocks of pipeline and bit count."""
    builder = get_scenario_builder("gimli-hash")
    oracle = BiasScoringOracle(builder.prototype(rounds=5), rng=6)
    candidates = np.zeros((48, 4), dtype=np.uint32)
    candidates[:, 0] = np.uint32(1) << np.arange(48, dtype=np.uint32) % 32
    candidates[:, 1] = np.arange(48, dtype=np.uint32)
    job = (oracle.prototype, DEFAULT_SHARD_SIZE, oracle._children[0], candidates)
    return lambda: _count_shard(job)


def run(quick):
    rng = np.random.default_rng(2)
    states = _words(rng, (BATCH, 12), 32)
    nonces, keys = _words(rng, (BATCH, 4), 32), _words(rng, (BATCH, 8), 32)
    speck_pts, speck_keys = _words(rng, (BATCH, 2), 16), _words(rng, (BATCH, 4), 16)
    toy_pts, toy_keys = _words(rng, (BATCH, 2), 8), _words(rng, (BATCH, 4), 8)
    search_block = states[:8192]  # the search sweep's stacked oracle block
    scenario = GimliHashScenario(rounds=8)
    # (name, full-mode rounds: about a second of timed calls, thunk)
    cases = [
        ("test_gimli_full_rounds", 2000, lambda: gimli_permute_batch(states, 24)),
        ("test_gimli_8_rounds", 3000, lambda: gimli_permute_batch(states, 8)),
        ("test_gimli_permute_batch[8192x3]", 10000,
         lambda: gimli_permute_batch(search_block, 3)),
        ("test_oracle_count_shard[gimli-hash-r5]", 300, _oracle_shard()),
        ("test_gimli_aead_c0_pipeline", 1500,
         lambda: gimli_aead_reduced_c0_batch(nonces, keys, 8)),
        ("test_speck_encrypt", 400, lambda: speck_encrypt(speck_pts, speck_keys, 22)),
        ("test_toyspeck_encrypt", 1200, lambda: toyspeck_encrypt(toy_pts, toy_keys, 8)),
        ("test_scenario_dataset_generation", 300,
         lambda: scenario.generate_dataset(2048, 9)),
    ]
    rows = [
        timing.entry(
            name, timing.sample(thunk, max(1, rounds // 10) if quick else rounds)
        )
        for name, rounds, thunk in cases
    ]
    return {"benchmarks": rows}


if __name__ == "__main__":
    raise SystemExit(timing.main("ciphers", run))
