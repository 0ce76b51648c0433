"""The paper's online phase as an incremental, service-shaped API.

Algorithm 2's online loop queries the unknown oracle, measures the
classifier's accuracy ``a'`` over a sample budget (the paper's
``2^14.3``-style online complexity), and decides CIPHER when ``a'``
clears the midpoint threshold ``(a + 1/t) / 2``.  Batch code runs that
loop in one call (:meth:`MLDistinguisher.test`); a service instead
receives the queries in *increments*, so :class:`OnlineSession` keeps
the running tally: feed ``(predicted, labels)`` batches as they arrive,
read the running accuracy at any time, and get the verdict once the
budget is met.

The verdict is deliberately withheld until ``target_samples`` have been
seen — deciding early on a lucky prefix is exactly the error the
paper's online complexity bound exists to prevent.
"""

from __future__ import annotations

import itertools
import threading
from typing import Dict, Optional

import numpy as np

from repro.core.distinguisher import OnlineResult
from repro.core.statistics import decision_threshold, required_online_samples
from repro.errors import ServeError


class OnlineSession:
    """Running CIPHER/RANDOM decision state for one oracle under test.

    ``training_accuracy`` is the offline phase's ``a`` (the manifest's
    ``validation_accuracy``); ``num_classes`` is ``t``.  The decision
    threshold defaults to the paper's midpoint and the sample budget to
    the two-hypothesis sizing of
    :func:`~repro.core.statistics.required_online_samples` at 1% error.
    """

    def __init__(
        self,
        training_accuracy: float,
        num_classes: int,
        target_samples: Optional[int] = None,
        error_probability: float = 0.01,
        threshold: Optional[float] = None,
        session_id: Optional[str] = None,
    ):
        if num_classes < 2:
            raise ServeError(f"the game needs t >= 2 classes, got {num_classes}")
        self.training_accuracy = float(training_accuracy)
        self.num_classes = int(num_classes)
        self.threshold = (
            float(threshold)
            if threshold is not None
            else decision_threshold(self.training_accuracy, self.num_classes)
        )
        self.target_samples = int(
            target_samples
            if target_samples is not None
            else required_online_samples(
                self.training_accuracy, self.num_classes, error_probability
            )
        )
        if self.target_samples <= 0:
            raise ServeError(
                f"target_samples must be positive, got {self.target_samples}"
            )
        self.session_id = session_id
        self._lock = threading.Lock()
        self._correct = 0
        self._seen = 0

    # -- feeding -----------------------------------------------------------

    def update(self, predicted: np.ndarray, labels) -> dict:
        """Fold one batch of ``(predicted class, true class)`` pairs in.

        Returns the state dict of :meth:`state` after the update.  The
        "true" labels are the attacker's own bookkeeping — they know
        which input difference ``δ_i`` each query used.  They must be a
        flat sequence of integer class indices in ``[0, num_classes)``,
        one per prediction; anything else raises :class:`ServeError`
        rather than being folded in as a miss.
        """
        predicted = np.asarray(predicted).ravel()
        try:
            labels = np.asarray(labels)
        except (TypeError, ValueError) as exc:  # ragged nesting
            raise ServeError(f"malformed labels: {exc}") from None
        if labels.ndim != 1 or labels.dtype.kind not in "iuf":
            raise ServeError(
                "labels must be a flat list of class indices, got a "
                f"{labels.ndim}-D array of {labels.dtype}"
            )
        if predicted.shape != labels.shape:
            raise ServeError(
                f"predicted has {predicted.shape[0]} entries but labels has "
                f"{labels.shape[0]}"
            )
        if predicted.size == 0:
            raise ServeError("cannot update a session with an empty batch")
        # NaN fails the first test, ±inf the second.
        if (labels != np.trunc(labels)).any() or (
            (labels < 0) | (labels >= self.num_classes)
        ).any():
            raise ServeError(
                f"labels must be integers in [0, {self.num_classes})"
            )
        correct = int((predicted == labels).sum())
        with self._lock:
            self._correct += correct
            self._seen += int(predicted.size)
            return self._state_locked()

    # -- reading -----------------------------------------------------------

    @property
    def samples_seen(self) -> int:
        with self._lock:
            return self._seen

    @property
    def accuracy(self) -> Optional[float]:
        """Running online accuracy ``a'``; ``None`` before any sample."""
        with self._lock:
            return self._correct / self._seen if self._seen else None

    @property
    def done(self) -> bool:
        """Whether the configured sample budget has been met."""
        with self._lock:
            return self._seen >= self.target_samples

    @property
    def verdict(self) -> Optional[str]:
        """``"CIPHER"``/``"RANDOM"`` once the budget is met, else ``None``."""
        with self._lock:
            return self._state_locked()["verdict"]

    def _state_locked(self) -> dict:
        accuracy = self._correct / self._seen if self._seen else None
        done = self._seen >= self.target_samples
        verdict = None
        if done:
            verdict = "CIPHER" if accuracy > self.threshold else "RANDOM"
        return {
            "session": self.session_id,
            "samples": self._seen,
            "correct": self._correct,
            "target_samples": self.target_samples,
            "progress": min(1.0, self._seen / self.target_samples),
            "accuracy": accuracy,
            "threshold": self.threshold,
            "training_accuracy": self.training_accuracy,
            "num_classes": self.num_classes,
            "done": done,
            "verdict": verdict,
        }

    def state(self) -> dict:
        """A JSON-ready snapshot of the running decision."""
        with self._lock:
            return self._state_locked()

    def result(self) -> OnlineResult:
        """The finished online phase as a core ``OnlineResult``.

        Raises until the sample budget is met; Algorithm 2's verdict is
        undefined before then.
        """
        with self._lock:
            if self._seen < self.target_samples:
                raise ServeError(
                    f"online phase incomplete: {self._seen} of "
                    f"{self.target_samples} samples seen"
                )
            return OnlineResult.from_counts(
                self._correct,
                self._seen,
                self.num_classes,
                self.training_accuracy,
                self.threshold,
            )


class SessionStore:
    """Bounded id -> :class:`OnlineSession` table for the HTTP layer."""

    def __init__(self, max_sessions: int = 4096):
        if max_sessions <= 0:
            raise ServeError(f"max_sessions must be positive, got {max_sessions}")
        self.max_sessions = int(max_sessions)
        self._lock = threading.Lock()
        self._sessions: Dict[str, OnlineSession] = {}
        self._counter = itertools.count(1)

    def create(self, **kwargs) -> OnlineSession:
        """Mint a new session with a unique id (kwargs as OnlineSession)."""
        with self._lock:
            if len(self._sessions) >= self.max_sessions:
                raise ServeError(
                    f"session table is full ({self.max_sessions}); finish or "
                    "drop existing sessions first"
                )
            session_id = f"s{next(self._counter):08d}"
            session = OnlineSession(session_id=session_id, **kwargs)
            self._sessions[session_id] = session
            return session

    def get(self, session_id: str) -> OnlineSession:
        with self._lock:
            try:
                return self._sessions[session_id]
            except KeyError:
                raise ServeError(f"unknown session {session_id!r}") from None

    def drop(self, session_id: str) -> None:
        with self._lock:
            if self._sessions.pop(session_id, None) is None:
                raise ServeError(f"unknown session {session_id!r}")

    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)
