"""Content-addressed on-disk cache for generated datasets.

Repeated table/figure runs regenerate identical datasets from scratch —
for the paper's full-scale ``2^17.6``-sample grids that is minutes of
cipher kernels per cell.  This module caches the output of the sharded
generator (:func:`repro.core.parallel.generate_dataset_sharded`, behind
every oracle-less ``generate_dataset`` call) on disk, keyed by a hash
of everything that determines the result:

* a structural fingerprint of the scenario (class name plus every
  constructor-reachable attribute, arrays included byte-for-byte);
* the generation parameters (``n_per_class``, ``shard_size``,
  ``shuffle``) and the sharded-generator protocol version;
* the root :class:`~numpy.random.SeedSequence` entropy and spawn key.

Because the key covers the seed material itself, a cache hit returns
bit-identical arrays to what the generator would have produced, and two
configs that differ in any input hash to different keys.  Entries are
``.npz`` files written atomically (temp file + :func:`os.replace`), so
concurrent workers racing on the same key at worst both compute it.

The cache is off unless the ``REPRO_DATASET_CACHE`` environment
variable names a directory (created on demand) or a
:class:`DatasetCache` is passed explicitly.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from typing import Optional, Tuple
from zipfile import BadZipFile

import numpy as np

from repro.errors import DistinguisherError
from repro.utils.atomic import atomic_savez

#: Bump when the sharded-generation protocol changes (shard layout,
#: regroup order, ...) so stale entries can never be returned.
#: 2: the scenario fingerprint carries the difference set explicitly
#: (not only via ``__dict__``), so scenarios that compute their masks
#: lazily or hold them behind properties can never alias.
CACHE_PROTOCOL = 2

#: Environment variable naming the cache directory; unset/empty disables
#: caching.
CACHE_ENV_VAR = "REPRO_DATASET_CACHE"


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

    The chosen difference set is folded in *explicitly* (byte-for-byte,
    on top of whatever ``__dict__`` carries): two scenarios that agree
    on every constructor parameter except one difference bit must hash
    apart, or a search-discovered scenario could collide with a paper
    scenario in ``REPRO_DATASET_CACHE`` and silently return the wrong
    dataset.
    """
    masks = getattr(scenario, "difference_masks", None)
    return (
        type(scenario).__module__,
        type(scenario).__qualname__,
        _canonical(getattr(scenario, "__dict__", {})),
        ("difference_masks", _canonical(np.asarray(masks)) if masks is not None else None),
    )


def dataset_cache_key(
    scenario,
    n_per_class: int,
    shard_size: int,
    shuffle: bool,
    seed_seq: np.random.SeedSequence,
) -> str:
    """Hex digest addressing one sharded-generation result."""
    payload = (
        CACHE_PROTOCOL,
        scenario_fingerprint(scenario),
        int(n_per_class),
        int(shard_size),
        bool(shuffle),
        tuple(int(e) for e in np.atleast_1d(seed_seq.entropy)),
        tuple(int(k) for k in seed_seq.spawn_key),
    )
    return hashlib.sha256(pickle.dumps(payload, protocol=4)).hexdigest()


class DatasetCache:
    """A directory of content-addressed ``(features, labels)`` entries."""

    def __init__(self, root: str):
        if not root:
            raise DistinguisherError("dataset cache root must be a path")
        self.root = os.path.abspath(root)

    @classmethod
    def from_env(cls) -> Optional["DatasetCache"]:
        """The cache named by ``REPRO_DATASET_CACHE``, or ``None``."""
        root = os.environ.get(CACHE_ENV_VAR, "")
        return cls(root) if root else None

    def _path(self, key: str) -> str:
        return os.path.join(self.root, f"{key}.npz")

    def load(self, key: str) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """The cached ``(x, y)`` for ``key``, or ``None`` on a miss.

        A corrupt entry (e.g. a torn write from a crashed process, which
        the atomic rename makes all but impossible) is treated as a miss
        and removed.
        """
        path = self._path(key)
        try:
            with np.load(path) as archive:
                return archive["x"], archive["y"]
        except FileNotFoundError:
            return None
        except (OSError, KeyError, ValueError, BadZipFile):
            try:
                os.unlink(path)
            except OSError:
                pass
            return None

    def store(self, key: str, x: np.ndarray, y: np.ndarray) -> None:
        """Atomically persist ``(x, y)`` under ``key``."""
        os.makedirs(self.root, exist_ok=True)
        atomic_savez(self._path(key), x=x, y=y)
