"""Parallel, shard-deterministic dataset generation.

Generating the paper's ``2^17.6``-sample training sets is embarrassingly
parallel — every base input is independent — but a naive fork-join over
one RNG stream would make the dataset depend on the worker count.  This
module shards the work instead, and
:meth:`~repro.core.scenario.DifferentialScenario.generate_dataset` is a
thin wrapper over it, so every dataset a scenario builds is sharded:

* ``n_per_class`` is cut into fixed-size shards (:data:`DEFAULT_SHARD_SIZE`
  base inputs each) **independent of the worker count**;
* a root :class:`numpy.random.SeedSequence` derived from the caller's
  ``rng`` spec is ``spawn``-ed into one child per shard plus one reserved
  child for the final shuffle;
* each shard draws an unshuffled, class-major block of output-difference
  *words* on its own child stream (16 bytes per 128-bit sample, which is
  all a pool worker sends back);
* the words are regrouped by class in shard order, the labels follow
  from the shard plan, and both are shuffled once with the reserved
  stream;
* the float32 features are expanded once, chunk by chunk, into one
  preallocated array.  Bit expansion is row-wise, so expanding the
  shuffled words gives exactly the rows of shuffling expanded ones.

Because the shard plan and every stream are functions of the seed alone,
``workers=1`` and ``workers=N`` produce bit-identical ``(x, y)`` arrays;
the worker count only decides how many shards run concurrently.  The
scenario object must be picklable (all built-in scenarios are); shards
are dispatched over a :mod:`multiprocessing` pool when ``workers > 1``
and run in-process otherwise.
"""

from __future__ import annotations

import multiprocessing
import statistics
import time
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core import scenario as scenario_module
from repro.core.oracle import Oracle
from repro.errors import DistinguisherError
from repro.obs import context as obs_context
from repro.obs import events as obs_events
from repro.obs import log as obs_log
from repro.obs.trace import span
from repro.utils.rng import RngLike

_log = obs_log.get_logger("repro.parallel")

#: Warn when a cell has been in flight longer than this multiple of the
#: median completed-cell duration.
STALL_FACTOR = 4.0

#: How often the parent polls the pool while waiting for the next cell;
#: also the stall-warning granularity.
STALL_POLL_S = 1.0

#: Completed-cell durations needed before the median is trusted.
MIN_STALL_SAMPLES = 3


def _context_task(fn: Callable) -> Callable:
    """Wrap ``fn`` for pool dispatch when a run context is ambient.

    The wrapper propagates the run id into the worker and flushes the
    worker's spans + metrics into the run directory after every task
    (see :class:`repro.obs.context.ContextTask`).  Without an ambient
    context the function passes through untouched — the historical
    pickling surface.
    """
    ctx = obs_context.current()
    if ctx is None:
        return fn
    return obs_context.ContextTask(fn, ctx)

#: Base inputs per shard.  Chosen so one shard is large enough to keep
#: the vectorised cipher kernels efficient but small enough that a
#: typical worker pool stays busy; part of the determinism contract —
#: changing it changes the generated dataset.
DEFAULT_SHARD_SIZE = 4096

#: Rows per ``state_to_bits`` call when the features are expanded.  It
#: bounds the expansion's temporaries; the rows do not depend on it.
EXPAND_CHUNK_ROWS = 4096


def seed_sequence_from(rng: RngLike) -> np.random.SeedSequence:
    """A :class:`~numpy.random.SeedSequence` for any accepted seed form.

    Integers and seed sequences map deterministically; a generator
    contributes entropy drawn from its stream (so repeated calls
    differ, matching :func:`repro.utils.rng.derive_rng`); ``None``
    pulls OS entropy.
    """
    if isinstance(rng, np.random.SeedSequence):
        return rng
    if isinstance(rng, np.random.Generator):
        entropy = [int(s) for s in rng.integers(0, 2**63 - 1, size=4)]
        return np.random.SeedSequence(entropy)
    return np.random.SeedSequence(rng)


def shard_sizes(n: int, shard_size: int = DEFAULT_SHARD_SIZE) -> List[int]:
    """Split ``n`` base inputs into full shards plus one remainder shard."""
    if n <= 0:
        raise DistinguisherError(f"n must be positive, got {n}")
    if shard_size <= 0:
        raise DistinguisherError(f"shard_size must be positive, got {shard_size}")
    full, remainder = divmod(n, shard_size)
    sizes = [shard_size] * full
    if remainder:
        sizes.append(remainder)
    return sizes


def _run_shard(job) -> np.ndarray:
    scenario, shard_n, seed_seq, oracle = job
    shard_rng = np.random.Generator(np.random.PCG64(seed_seq))
    return scenario._generate_block(shard_n, shard_rng, oracle)


def generate_dataset_sharded(
    scenario,
    n_per_class: int,
    rng: RngLike = None,
    shuffle: bool = True,
    workers: int = 1,
    shard_size: int = DEFAULT_SHARD_SIZE,
    oracle: Optional[Oracle] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Shard-deterministic ``(features, labels)`` for ``scenario``.

    Bit-identical for every ``workers`` value given the same seed and
    ``shard_size``; see the module docstring for the construction.

    ``oracle`` replaces the scenario's cipher oracle (the online phase
    queries the oracle under test).  An oracle may carry state — a
    memoised :class:`~repro.core.oracle.RandomOracle` answers by query
    order — that does not cross processes, so with one the shards run
    in this process, in shard order.
    """
    workers = int(workers)
    if workers < 1:
        raise DistinguisherError(f"workers must be >= 1, got {workers}")
    sizes = shard_sizes(n_per_class, shard_size)
    root = seed_sequence_from(rng)
    children = root.spawn(len(sizes) + 1)
    jobs = [
        (scenario, size, child, oracle)
        for size, child in zip(sizes, children)
    ]
    with span("data.generate", shards=len(jobs), n_per_class=n_per_class,
              workers=workers):
        blocks = []
        if workers == 1 or len(jobs) == 1 or oracle is not None:
            for index, job in enumerate(jobs):
                blocks.append(_run_shard(job))
                _log.debug("data.shard", done=index + 1, total=len(jobs))
        else:
            # ``imap`` (order-preserving, like ``map``) so each shard's
            # completion surfaces as a liveness heartbeat as it lands.
            with multiprocessing.get_context().Pool(
                processes=min(workers, len(jobs))
            ) as pool:
                shard_fn = _context_task(_run_shard)
                for index, block in enumerate(pool.imap(shard_fn, jobs)):
                    blocks.append(block)
                    _log.debug("data.shard", done=index + 1, total=len(jobs))
    # Each shard block is class-major (t runs of shard_n rows); regroup
    # so the dataset has one class-major layout whatever the schedule.
    words = np.concatenate([
        block[c * shard_n:(c + 1) * shard_n]
        for c in range(scenario.num_classes)
        for block, shard_n in zip(blocks, sizes)
    ])
    y = np.repeat(np.arange(scenario.num_classes, dtype=np.int64), n_per_class)
    if shuffle:
        shuffler = np.random.Generator(np.random.PCG64(children[-1]))
        order = shuffler.permutation(y.shape[0])
        words, y = words[order], y[order]
    x = np.empty((y.shape[0], scenario.feature_bits), dtype=np.float32)
    for start in range(0, y.shape[0], EXPAND_CHUNK_ROWS):
        rows = slice(start, start + EXPAND_CHUNK_ROWS)
        x[rows] = scenario_module.state_to_bits(words[rows], scenario.word_width)
    return x, y


def run_grid(
    fn: Callable,
    payloads: Sequence,
    workers: int = 1,
    label: str = "grid",
    on_result: Optional[Callable] = None,
    duration_of: Optional[Callable] = None,
) -> List:
    """Map ``fn`` over independent grid cells, optionally in worker
    processes.

    The experiment tables train one model per (cipher, rounds, network)
    cell; every cell is handed its own pre-derived seed material, so the
    cells are independent and their results order-preserving —
    ``run_grid`` is then an order-preserving ``pool.imap`` (with an
    in-process fallback) that logs a heartbeat as each cell completes.
    ``fn`` and each payload must be picklable (module-level functions
    and plain tuples).  Unlike dataset sharding, the worker count is not
    clamped to the CPU count: cells spend much of their wall-clock in
    BLAS and cipher kernels, so modest oversubscription is harmless and
    keeps ``workers=N`` semantics identical across machines.

    ``on_result(index, result)`` is invoked in the parent, in cell
    order, as each result lands — the job runner uses it to persist
    cell outcomes immediately instead of after the whole grid.

    When an observability run context is ambient
    (:func:`repro.obs.context.current`), the dispatched function is
    wrapped so each pool worker flushes its spans and metrics into the
    run directory, and the parent watches for stalls while it waits: a
    cell in flight longer than :data:`STALL_FACTOR` times the
    median completed-cell duration (``duration_of(result)`` when the
    caller can extract one, inter-completion gaps otherwise) raises a
    warn-level log line plus a ``cell.stall`` run event — instead of
    silence until the cell completes.

    Cells run inside pool workers must not spawn pools of their own
    (``multiprocessing`` daemonic children cannot fork grandchildren),
    so grid-parallel table runners generate their datasets with
    ``workers=1``.
    """
    payloads = list(payloads)
    workers = int(workers)
    if workers < 1:
        raise DistinguisherError(f"workers must be >= 1, got {workers}")
    # Per-cell completion heartbeats (``label`` names the grid in the
    # event stream) give long table runs visible liveness; ``imap`` is
    # order-preserving like ``map``, so results are unchanged.
    results: List = []
    with span(f"{label}.run", cells=len(payloads), workers=workers):
        if workers == 1 or len(payloads) <= 1:
            for index, payload in enumerate(payloads):
                results.append(fn(payload))
                if on_result is not None:
                    on_result(index, results[-1])
                _log.info(
                    f"{label}.cell", done=index + 1, total=len(payloads)
                )
        else:
            task = _context_task(fn)
            durations: List[float] = []
            with multiprocessing.get_context().Pool(
                processes=min(workers, len(payloads))
            ) as pool:
                iterator = pool.imap(task, payloads)
                last_done = time.perf_counter()
                for index in range(len(payloads)):
                    result = _next_with_stall_watch(
                        iterator, label, index, len(payloads), durations,
                        last_done,
                    )
                    now = time.perf_counter()
                    measured = None
                    if duration_of is not None:
                        measured = duration_of(result)
                    durations.append(
                        float(measured) if measured is not None
                        else now - last_done
                    )
                    last_done = now
                    results.append(result)
                    if on_result is not None:
                        on_result(index, result)
                    _log.info(
                        f"{label}.cell", done=index + 1, total=len(payloads)
                    )
    return results


def _next_with_stall_watch(
    iterator,
    label: str,
    index: int,
    total: int,
    durations: List[float],
    waiting_since: float,
):
    """``iterator.next()`` with a stall warning while the parent waits.

    Polls the pool's order-preserving iterator; once the wait for the
    next cell exceeds :data:`STALL_FACTOR` times the median
    completed-cell duration (given ``MIN_STALL_SAMPLES`` completions),
    emits one warn-level log line and one ``cell.stall`` run event, then
    keeps waiting.  Both constants are read at call time.
    """
    warned = False
    while True:
        try:
            return iterator.next(timeout=STALL_POLL_S)
        except multiprocessing.TimeoutError:
            if warned or len(durations) < MIN_STALL_SAMPLES:
                continue
            waited = time.perf_counter() - waiting_since
            median_s = statistics.median(durations)
            if waited <= STALL_FACTOR * median_s:
                continue
            warned = True
            _log.warning(
                f"{label}.stall",
                waiting_s=round(waited, 3),
                median_cell_s=round(median_s, 3),
                factor=STALL_FACTOR,
                done=index,
                total=total,
            )
            obs_events.emit(
                "cell.stall",
                label=label,
                waiting_s=round(waited, 3),
                median_cell_s=round(median_s, 3),
                factor=STALL_FACTOR,
                done=index,
                total=total,
            )


def resolve_workers(workers: int = 1) -> int:
    """Clamp a requested worker count to the machine."""
    workers = int(workers)
    if workers < 1:
        raise DistinguisherError(f"workers must be >= 1, got {workers}")
    return min(workers, multiprocessing.cpu_count())
