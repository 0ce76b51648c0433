"""Algorithm 2 of the paper: the ML-assisted differential distinguisher.

Offline phase: generate labelled output-difference samples from the
(round-reduced) cipher, train the classifier, and *abort* if the
training accuracy does not exceed the random baseline ``1/t``
significantly.  Online phase: query the unknown oracle the same way,
measure the class-prediction accuracy ``a'``, and decide CIPHER when
``a'`` is closer to the training accuracy ``a`` than to ``1/t``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.core.oracle import Oracle
from repro.core.scenario import DifferentialScenario
from repro.core.statistics import (
    advantage,
    binomial_pvalue,
    decision_threshold,
)
from repro.errors import DistinguisherAborted, DistinguisherError
from repro.nn.architectures import minimal_three_layer
from repro.nn.callbacks import History
from repro.nn.model import Sequential
from repro.utils.rng import derive_rng, make_rng


@dataclass
class TrainingReport:
    """Outcome of the offline phase."""

    training_accuracy: float
    validation_accuracy: float
    num_samples: int
    num_classes: int
    history: History = field(repr=False)
    aborted: bool = False

    @property
    def baseline(self) -> float:
        """The random-guessing accuracy ``1/t``."""
        return 1.0 / self.num_classes

    @property
    def advantage(self) -> float:
        """Validation accuracy over the baseline."""
        return self.validation_accuracy - self.baseline

    @property
    def offline_log2(self) -> float:
        """``log2`` of the offline data complexity."""
        return float(np.log2(self.num_samples))


@dataclass
class OnlineResult:
    """Outcome of the online phase against one oracle."""

    accuracy: float
    num_samples: int
    num_classes: int
    training_accuracy: float
    threshold: float
    p_value: float
    is_cipher: bool

    @classmethod
    def from_counts(
        cls,
        correct: int,
        n: int,
        num_classes: int,
        training_accuracy: float,
        threshold: float,
    ) -> "OnlineResult":
        """Decide from ``correct`` right predictions out of ``n`` queries.

        The one verdict rule of the online phase: CIPHER when the online
        accuracy ``a'`` clears ``threshold``; the p-value tests ``a'``
        against the random baseline ``1/t``.
        """
        accuracy = correct / n
        return cls(
            accuracy=accuracy,
            num_samples=n,
            num_classes=num_classes,
            training_accuracy=training_accuracy,
            threshold=threshold,
            p_value=binomial_pvalue(correct, n, 1.0 / num_classes),
            is_cipher=accuracy > threshold,
        )

    @property
    def verdict(self) -> str:
        """``"CIPHER"`` or ``"RANDOM"``."""
        return "CIPHER" if self.is_cipher else "RANDOM"

    @property
    def online_log2(self) -> float:
        """``log2`` of the online data complexity."""
        return float(np.log2(self.num_samples))


class MLDistinguisher:
    """The paper's distinguisher, bound to a scenario and a classifier.

    ``model`` defaults to the paper's "three layer neural network"
    conclusion (Dense 128 - Dense 1024 - softmax); any
    :class:`~repro.nn.model.Sequential` with a ``t``-way softmax output
    works.

    ``workers`` is the process count for offline dataset generation
    (see :mod:`repro.core.parallel`); it changes wall clock, never the
    samples.  ``dtype`` selects the network compute precision
    (``"float32"`` or ``"float64"``; ``None`` keeps the model's own
    default).
    """

    def __init__(
        self,
        scenario: DifferentialScenario,
        model: Optional[Sequential] = None,
        epochs: int = 5,
        batch_size: int = 128,
        rng=None,
        workers: int = 1,
        dtype=None,
    ):
        if epochs <= 0:
            raise DistinguisherError(f"epochs must be positive, got {epochs}")
        self.scenario = scenario
        self.epochs = int(epochs)
        self.batch_size = int(batch_size)
        self.workers = workers
        self.dtype = dtype
        self._rng = make_rng(rng)
        if model is None:
            model = minimal_three_layer(num_classes=scenario.num_classes)
        self.model = model
        self.report: Optional[TrainingReport] = None

    # -- offline phase -------------------------------------------------------

    def train(
        self,
        num_samples: int,
        validation_split: float = 0.1,
        significance: float = 1e-3,
        verbose: bool = False,
    ) -> TrainingReport:
        """Run the offline phase on ``num_samples`` total samples.

        Aborts (raising :class:`DistinguisherAborted`) when the
        validation accuracy is not significantly above ``1/t`` at the
        ``significance`` level — the paper's "if a = 1/t: abort" step,
        made statistical.
        """
        t = self.scenario.num_classes
        n_per_class = max(1, num_samples // t)
        data_rng = derive_rng(self._rng, "offline-data")
        x, y = self.scenario.generate_dataset(
            n_per_class, rng=data_rng, workers=self.workers
        )
        if not self.model.layers or self.model.input_shape is None:
            self.model.build(x.shape[1:], derive_rng(self._rng, "weights"))
        if self.model.loss is None:
            self.model.compile(dtype=self.dtype)
        elif self.dtype is not None:
            self.model.set_dtype(self.dtype)
        cut = int(round(x.shape[0] * (1.0 - validation_split)))
        if cut <= 0 or cut >= x.shape[0]:
            raise DistinguisherError(
                "validation split leaves an empty train or validation set"
            )
        history = self.model.fit(
            x[:cut],
            y[:cut],
            epochs=self.epochs,
            batch_size=self.batch_size,
            rng=derive_rng(self._rng, "batches"),
            verbose=verbose,
        )
        _, metrics = self.model.evaluate(x[cut:], y[cut:])
        val_accuracy = metrics["accuracy"]
        val_n = x.shape[0] - cut
        p_value = binomial_pvalue(
            int(round(val_accuracy * val_n)), val_n, 1.0 / t
        )
        aborted = p_value >= significance
        self.report = TrainingReport(
            training_accuracy=history.last("accuracy"),
            validation_accuracy=val_accuracy,
            num_samples=x.shape[0],
            num_classes=t,
            history=history,
            aborted=aborted,
        )
        if aborted:
            raise DistinguisherAborted(
                f"training accuracy {val_accuracy:.4f} is not significantly "
                f"above 1/t = {1.0 / t:.4f} (p = {p_value:.3f}); "
                "Algorithm 2 aborts"
            )
        return self.report

    # -- online phase --------------------------------------------------------

    def test(
        self, oracle: Oracle, num_samples: int, rng=None
    ) -> OnlineResult:
        """Run the online phase against ``oracle`` and decide its identity."""
        if self.report is None or self.report.aborted:
            raise DistinguisherError(
                "run a successful offline phase before testing an oracle"
            )
        t = self.scenario.num_classes
        n_per_class = max(1, num_samples // t)
        data_rng = make_rng(rng) if rng is not None else derive_rng(
            self._rng, "online-data"
        )
        x, y = self.scenario.generate_dataset(
            n_per_class, rng=data_rng, oracle=oracle
        )
        predictions = self.model.predict_classes(x)
        reference = self.report.validation_accuracy
        return OnlineResult.from_counts(
            int((predictions == y).sum()),
            x.shape[0],
            t,
            reference,
            decision_threshold(reference, t),
        )

    def distinguish(self, oracle: Oracle, num_samples: int, rng=None) -> str:
        """Convenience wrapper returning ``"CIPHER"`` or ``"RANDOM"``."""
        return self.test(oracle, num_samples, rng).verdict

    @property
    def training_advantage(self) -> float:
        """Validation advantage over ``1/t`` from the offline phase."""
        if self.report is None:
            raise DistinguisherError("no offline phase has been run")
        return advantage(
            self.report.validation_accuracy, self.scenario.num_classes
        )
