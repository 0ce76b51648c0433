"""Experiment scaling and hot-path knobs.

The paper trained on ``2^17.6 ≈ 199,000`` samples for 20 epochs on an
RTX 8000; the same numbers on CPU numpy take minutes per table row.  All
experiments therefore take explicit sizes, with defaults derived from
the paper's sizes times ``REPRO_SCALE`` (``0.0 < scale <= 1.0``).
``REPRO_SCALE=1.0`` reproduces the paper's data budget exactly.

Further environment knobs tune the engine without changing any
experiment's semantics:

* ``REPRO_WORKERS`` — worker process count (unset: 1).  Datasets come
  from the sharded generator of :mod:`repro.core.parallel`, which is
  bit-identical across worker counts.
* ``REPRO_DTYPE`` — compute dtype for the neural networks (``float32``
  or ``float64``; unset keeps the float64 default).

``REPRO_WORKERS`` also controls experiment-grid parallelism: the table
runners train independent (cipher, rounds, network) cells in that many
worker processes, with per-cell seed material derived up front so the
results are identical for every worker count.

The automated input-difference search takes its budget from a
:class:`~repro.search.evolve.SearchConfig`: a scenario spec's
``search`` section or the ``python -m repro.search`` flags, never the
environment.  Run manifests capture every ``REPRO_*`` variable
automatically.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional

from repro.errors import ExperimentError
from repro.utils.env import env_number

#: The paper's offline sample count (§4: "we generate 2^17.6 samples").
PAPER_OFFLINE_SAMPLES = int(round(2.0**17.6))
#: The paper's online sample count (§4: "2^14.3 valid samples").
PAPER_ONLINE_SAMPLES = int(round(2.0**14.3))
#: Table 2 epochs ("training was run for 20 epochs").
PAPER_TABLE2_EPOCHS = 20
#: Table 3 epochs ("number of epochs was set to 5").
PAPER_TABLE3_EPOCHS = 5
#: Table 3 offline samples ("2^17 of training data samples").
PAPER_TABLE3_SAMPLES = 1 << 17

DEFAULT_SCALE = 0.05


def get_scale() -> float:
    """Read ``REPRO_SCALE`` from the environment (default 0.05)."""
    return env_number("REPRO_SCALE", DEFAULT_SCALE, float,
                      error=ExperimentError, above=0, maximum=1)


def get_workers() -> int:
    """Read ``REPRO_WORKERS`` (unset -> 1)."""
    return env_number("REPRO_WORKERS", 1, error=ExperimentError, minimum=1)


def get_dtype() -> Optional[str]:
    """Read ``REPRO_DTYPE`` (unset -> ``None``: keep the float64 default)."""
    raw = os.environ.get("REPRO_DTYPE", "")
    if not raw:
        return None
    if raw not in ("float32", "float64"):
        raise ExperimentError(
            f"REPRO_DTYPE must be 'float32' or 'float64', got {raw!r}"
        )
    return raw


@dataclass(frozen=True)
class ExperimentScale:
    """Concrete sample/epoch budget derived from a scale factor."""

    scale: float

    def __post_init__(self):
        if not 0.0 < self.scale <= 1.0:
            raise ExperimentError(f"scale must be in (0, 1], got {self.scale}")

    @property
    def offline_samples(self) -> int:
        """Scaled Table 2 offline sample count (min 2,000)."""
        return max(2_000, int(PAPER_OFFLINE_SAMPLES * self.scale))

    @property
    def online_samples(self) -> int:
        """Scaled online sample count (min 500)."""
        return max(500, int(PAPER_ONLINE_SAMPLES * self.scale))

    @property
    def table2_epochs(self) -> int:
        """Scaled Table 2 epochs (min 3)."""
        return max(3, int(round(PAPER_TABLE2_EPOCHS * self.scale * 4)))

    @property
    def table3_samples(self) -> int:
        """Scaled Table 3 sample count (min 2,000)."""
        return max(2_000, int(PAPER_TABLE3_SAMPLES * self.scale))

    @property
    def table3_epochs(self) -> int:
        """Table 3 epochs (the paper's 5; never scaled below 2)."""
        return max(2, int(round(PAPER_TABLE3_EPOCHS * max(self.scale * 4, 0.4))))


def default_scale() -> ExperimentScale:
    """The :class:`ExperimentScale` from the environment."""
    return ExperimentScale(get_scale())
