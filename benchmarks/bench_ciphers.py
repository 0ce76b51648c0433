"""Engineering benchmarks: cipher substrate throughput.

The paper's data pipeline evaluates hundreds of thousands of
round-reduced permutations; these benches time the batched primitives
(states per second) that bound experiment wall-clock.
"""

import numpy as np
import pytest

from repro.ciphers.gimli import gimli_permute_batch
from repro.ciphers.gimli_cipher import gimli_aead_reduced_c0_batch
from repro.ciphers.speck import encrypt_batch as speck_encrypt
from repro.ciphers.toyspeck import encrypt_batch as toyspeck_encrypt
from repro.core.scenario import GimliHashScenario
from repro.search.config import get_scenario_builder
from repro.search.oracle import DEFAULT_SHARD_SIZE, BiasScoringOracle, _count_shard

BATCH = 1 << 14


@pytest.fixture(scope="module")
def gimli_states():
    rng = np.random.default_rng(2)
    return rng.integers(0, 1 << 32, size=(BATCH, 12), dtype=np.uint64).astype(
        np.uint32
    )


def test_gimli_full_rounds(benchmark, gimli_states):
    out = benchmark(gimli_permute_batch, gimli_states, 24)
    assert out.shape == gimli_states.shape


def test_gimli_8_rounds(benchmark, gimli_states):
    out = benchmark(gimli_permute_batch, gimli_states, 8)
    assert out.shape == gimli_states.shape


@pytest.mark.parametrize("shape", ["8192x3"])
def test_gimli_permute_batch(benchmark, gimli_states, shape):
    """The search sweep's batch: a stacked oracle block of 8192 rows."""
    states = gimli_states[:8192]
    out = benchmark(gimli_permute_batch, states, 3)
    assert out.shape == states.shape


@pytest.mark.parametrize("spec", ["gimli-hash-r5"])
def test_oracle_count_shard(benchmark, spec):
    """One 1024-sample shard of the bias oracle scoring a population of
    48 candidates: six stacked blocks of pipeline and bit count."""
    builder = get_scenario_builder("gimli-hash")
    oracle = BiasScoringOracle(builder.prototype(rounds=5), rng=6)
    candidates = np.zeros((48, 4), dtype=np.uint32)
    candidates[:, 0] = np.uint32(1) << np.arange(48, dtype=np.uint32) % 32
    candidates[:, 1] = np.arange(48, dtype=np.uint32)
    job = (oracle.prototype, DEFAULT_SHARD_SIZE, oracle._children[0],
           candidates)
    counts = benchmark(_count_shard, job)
    assert counts.shape == (48, oracle.prototype.feature_bits)


def test_gimli_aead_c0_pipeline(benchmark):
    rng = np.random.default_rng(3)
    nonces = rng.integers(0, 1 << 32, size=(BATCH, 4), dtype=np.uint64).astype(
        np.uint32
    )
    keys = rng.integers(0, 1 << 32, size=(BATCH, 8), dtype=np.uint64).astype(
        np.uint32
    )
    out = benchmark(gimli_aead_reduced_c0_batch, nonces, keys, 8)
    assert out.shape == (BATCH, 4)


def test_speck_encrypt(benchmark):
    rng = np.random.default_rng(4)
    pts = rng.integers(0, 1 << 16, size=(BATCH, 2), dtype=np.uint16)
    keys = rng.integers(0, 1 << 16, size=(BATCH, 4), dtype=np.uint16)
    out = benchmark(speck_encrypt, pts, keys, 22)
    assert out.shape == (BATCH, 2)


def test_toyspeck_encrypt(benchmark):
    rng = np.random.default_rng(5)
    pts = rng.integers(0, 256, size=(BATCH, 2), dtype=np.uint8)
    keys = rng.integers(0, 256, size=(BATCH, 4), dtype=np.uint8)
    out = benchmark(toyspeck_encrypt, pts, keys, 8)
    assert out.shape == (BATCH, 2)


def test_scenario_dataset_generation(benchmark):
    scenario = GimliHashScenario(rounds=8)
    x, y = benchmark(scenario.generate_dataset, 2048, 9)
    assert x.shape == (4096, 128)
