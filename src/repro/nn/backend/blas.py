"""Per-call BLAS thread-domain control (train vs serve).

numpy's OpenBLAS owns one process-wide thread pool; the right size
differs by workload.  Training wants every core on its large GEMMs,
while a serving process running the micro-batching engine next to
request threads usually wants BLAS pinned to fewer cores so matmul
worker threads don't fight the HTTP handlers.

Two environment knobs set per-domain thread counts:

* ``REPRO_BLAS_THREADS_TRAIN`` — applied around ``Sequential.fit``;
* ``REPRO_BLAS_THREADS_SERVE`` — applied around each fused engine
  predict (:class:`~repro.serve.engine.MicroBatchEngine`).

Unset knobs make :func:`thread_domain` a shared no-op context manager
(zero overhead on the hot path).  :func:`pinned_threads` pins the pool
for one block without a knob (the search pipeline trains on one
thread); a domain knob set inside that block still wins.  Thread-count
changes never alter results — OpenBLAS GEMM output is identical for
any pool size — so these knobs, like every other ``REPRO_*`` knob,
only move wall-clock.

The control handle is resolved lazily by scanning the loaded shared
objects for an OpenBLAS with a ``*set_num_threads*`` entry point
(stock ``openblas_set_num_threads`` and the suffixed scipy-openblas
builds).  No OpenBLAS (or a static/MKL numpy) degrades to the no-op.
"""

from __future__ import annotations

import contextlib
import ctypes
import re
import threading
from typing import Optional, Tuple

from repro.errors import TrainingError
from repro.utils.env import env_number

TRAIN_THREADS_ENV_VAR = "REPRO_BLAS_THREADS_TRAIN"
SERVE_THREADS_ENV_VAR = "REPRO_BLAS_THREADS_SERVE"

_DOMAIN_ENV_VARS = {
    "train": TRAIN_THREADS_ENV_VAR,
    "serve": SERVE_THREADS_ENV_VAR,
}

#: Candidate (set, get) symbol pairs, stock OpenBLAS first, then the
#: suffixed scipy-openblas wheels numpy/scipy bundle.
_SYMBOL_PAIRS = (
    ("openblas_set_num_threads", "openblas_get_num_threads"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads_64_", "scipy_openblas_get_num_threads_64_"),
)

_lock = threading.Lock()
_resolved = False
_set_fn = None
_get_fn = None


def _candidate_libraries():
    """Paths of loaded shared objects that look like an OpenBLAS."""
    paths = []
    try:
        with open("/proc/self/maps", "r", encoding="utf-8") as maps:
            seen = set()
            for line in maps:
                match = re.search(r"(/\S+openblas\S*\.so[^\s]*)", line, re.I)
                if match and match.group(1) not in seen:
                    seen.add(match.group(1))
                    paths.append(match.group(1))
    except OSError:
        pass
    return paths


def _resolve() -> Tuple[Optional[object], Optional[object]]:
    """Find (set_num_threads, get_num_threads) in the loaded BLAS."""
    global _resolved, _set_fn, _get_fn
    with _lock:
        if _resolved:
            return _set_fn, _get_fn
        _resolved = True
        # numpy must be imported for its BLAS to be mapped; every caller
        # of this module already did so transitively.
        for path in _candidate_libraries():
            try:
                lib = ctypes.CDLL(path)
            except OSError:
                continue
            for set_name, get_name in _SYMBOL_PAIRS:
                set_fn = getattr(lib, set_name, None)
                get_fn = getattr(lib, get_name, None)
                if set_fn is None or get_fn is None:
                    continue
                set_fn.argtypes = [ctypes.c_int]
                set_fn.restype = None
                get_fn.argtypes = []
                get_fn.restype = ctypes.c_int
                _set_fn, _get_fn = set_fn, get_fn
                return _set_fn, _get_fn
    return None, None


def controllable() -> bool:
    """True when the loaded BLAS exposes a thread-count control."""
    set_fn, _ = _resolve()
    return set_fn is not None


def get_blas_threads() -> Optional[int]:
    """The current BLAS pool size, or ``None`` when uncontrollable."""
    _, get_fn = _resolve()
    return int(get_fn()) if get_fn is not None else None


def set_blas_threads(count: int) -> bool:
    """Set the BLAS pool size; returns False when uncontrollable."""
    if count < 1:
        raise TrainingError(f"BLAS thread count must be >= 1, got {count}")
    set_fn, _ = _resolve()
    if set_fn is None:
        return False
    set_fn(int(count))
    return True


def domain_threads(domain: str) -> Optional[int]:
    """The configured thread count for ``domain``, or ``None`` if unset."""
    try:
        env_var = _DOMAIN_ENV_VARS[domain]
    except KeyError:
        known = ", ".join(sorted(_DOMAIN_ENV_VARS))
        raise TrainingError(
            f"unknown BLAS thread domain {domain!r}; known: {known}"
        ) from None
    return env_number(env_var, None, error=TrainingError, minimum=1)


@contextlib.contextmanager
def pinned_threads(count: int):
    """Run the block with a BLAS pool of ``count`` threads, then restore
    the previous size; a no-op when the BLAS is uncontrollable."""
    previous = get_blas_threads()
    if previous is None or not set_blas_threads(count):
        yield
        return
    try:
        yield
    finally:
        set_blas_threads(previous)


class _NoopContext:
    """Shared reentrant no-op for unset domains (no allocation per call)."""

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False


_NOOP = _NoopContext()


def thread_domain(domain: str):
    """Context manager applying the domain's configured pool size.

    With the domain's knob unset (the default) this is a shared no-op
    object; otherwise the BLAS pool is resized on entry and restored to
    its previous size on exit.
    """
    count = domain_threads(domain)
    if count is None:
        return _NOOP
    return pinned_threads(count)
