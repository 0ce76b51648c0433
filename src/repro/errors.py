"""Exception hierarchy for the :mod:`repro` library.

All library-specific errors derive from :class:`ReproError` so callers
can catch a single base class.  Errors are raised eagerly with precise
messages; silent failure is never an acceptable outcome for a
cryptanalytic toolkit, where a wrong answer looks exactly like a result.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class CipherError(ReproError):
    """Invalid cipher parameters (state size, round window, key size...)."""


class ShapeError(ReproError):
    """A numpy array argument has the wrong shape or dtype."""


class LayerError(ReproError):
    """Invalid neural-network layer configuration or wiring."""


class TrainingError(ReproError):
    """The training loop was asked to do something impossible."""


class DistinguisherError(ReproError):
    """Misuse of the distinguisher protocol (e.g. testing before training)."""


class DistinguisherAborted(DistinguisherError):
    """Offline phase found no signal (training accuracy at the random level).

    Algorithm 2 of the paper prescribes aborting when the training
    accuracy ``a`` is not significantly above ``1/t``; this exception is
    that abort.
    """


class SearchError(ReproError):
    """A trail-search routine was configured inconsistently."""


class ServeError(ReproError):
    """Base class for the online serving subsystem (:mod:`repro.serve`)."""


class RegistryError(ServeError):
    """Model registry misuse: unknown id, malformed manifest, bad pin."""


class EngineOverloaded(ServeError):
    """The inference engine's request queue is full (backpressure signal).

    Callers should shed load or retry with backoff; the engine never
    silently drops a request it has accepted.
    """


class ServeTimeout(ServeError):
    """A serving request exceeded its deadline before being answered."""


class ExperimentError(ReproError):
    """Unknown experiment id or invalid experiment configuration."""


class JobError(ReproError):
    """Job-queue misuse or failure (:mod:`repro.jobs`).

    Raised when a queue directory is bound to different run arguments
    than the caller's, when a job record is malformed, or when a run
    finishes with cells that failed terminally or were never processed
    (an interrupted run) — the message says which, and resuming with the
    same queue directory picks up exactly the unfinished cells.
    """
