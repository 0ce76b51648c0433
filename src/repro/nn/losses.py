"""Loss functions.

The paper's classifiers end in a softmax layer and train on categorical
cross-entropy (Keras defaults); the losses here therefore consume
*probabilities* by default, with a ``from_logits`` switch that fuses the
softmax for numerical stability when no explicit softmax layer is used.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.errors import ShapeError, TrainingError

_EPS = 1e-12


class Loss:
    """Base class: ``__call__`` returns ``(loss_value, grad_wrt_predictions)``."""

    def __call__(self, y_true: np.ndarray, y_pred: np.ndarray) -> Tuple[float, np.ndarray]:
        raise NotImplementedError


def one_hot(labels: np.ndarray, num_classes: int, dtype=np.float64) -> np.ndarray:
    """Encode integer labels as one-hot rows (``dtype`` columns)."""
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ShapeError(f"labels must be 1-D, got shape {labels.shape}")
    if labels.min() < 0 or labels.max() >= num_classes:
        raise ShapeError(
            f"labels must lie in [0, {num_classes}), got range "
            f"[{labels.min()}, {labels.max()}]"
        )
    encoded = np.zeros((labels.shape[0], num_classes), dtype=dtype)
    encoded[np.arange(labels.shape[0]), labels] = 1.0
    return encoded


class CategoricalCrossentropy(Loss):
    """Multi-class cross-entropy.

    With ``from_logits=True`` the softmax is applied internally and the
    gradient simplifies to ``(softmax(x) - y) / n``.
    """

    def __init__(self, from_logits: bool = False):
        super().__init__()
        self.from_logits = bool(from_logits)

    def __call__(self, y_true, y_pred):
        if y_true.shape != y_pred.shape:
            raise ShapeError(
                f"label shape {y_true.shape} != prediction shape {y_pred.shape}"
            )
        n = y_true.shape[0]
        if n == 0:
            raise TrainingError("cannot evaluate a loss on an empty batch")
        if self.from_logits:
            shifted = y_pred - y_pred.max(axis=-1, keepdims=True)
            log_probs = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
            loss = -(y_true * log_probs).sum() / n
            grad = (np.exp(log_probs) - y_true) / n
            return float(loss), grad
        clipped = np.clip(y_pred, _EPS, 1.0)
        loss = -(y_true * np.log(clipped)).sum() / n
        grad = -(y_true / clipped) / n
        return float(loss), grad

    def value(self, y_true: np.ndarray, y_pred: np.ndarray) -> float:
        """Loss value only — used by the fused softmax+CCE training path,
        where the gradient ``(p - y) / n`` is formed directly and the
        Jacobian-product gradient above would be wasted work."""
        if y_true.shape != y_pred.shape:
            raise ShapeError(
                f"label shape {y_true.shape} != prediction shape {y_pred.shape}"
            )
        n = y_true.shape[0]
        if n == 0:
            raise TrainingError("cannot evaluate a loss on an empty batch")
        if self.from_logits:
            shifted = y_pred - y_pred.max(axis=-1, keepdims=True)
            log_probs = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
            return float(-(y_true * log_probs).sum() / n)
        clipped = np.clip(y_pred, _EPS, 1.0)
        return float(-(y_true * np.log(clipped)).sum() / n)


class BinaryCrossentropy(Loss):
    """Two-class cross-entropy on a single probability column."""

    def __call__(self, y_true, y_pred):
        if y_true.shape != y_pred.shape:
            raise ShapeError(
                f"label shape {y_true.shape} != prediction shape {y_pred.shape}"
            )
        n = y_true.shape[0]
        if n == 0:
            raise TrainingError("cannot evaluate a loss on an empty batch")
        clipped = np.clip(y_pred, _EPS, 1.0 - _EPS)
        loss = -(
            y_true * np.log(clipped) + (1.0 - y_true) * np.log(1.0 - clipped)
        ).sum() / n
        grad = (clipped - y_true) / (clipped * (1.0 - clipped)) / n
        return float(loss), grad


class MeanSquaredError(Loss):
    """Mean squared error (used by Gohr's residual networks)."""

    def __call__(self, y_true, y_pred):
        if y_true.shape != y_pred.shape:
            raise ShapeError(
                f"label shape {y_true.shape} != prediction shape {y_pred.shape}"
            )
        n = y_true.size
        if n == 0:
            raise TrainingError("cannot evaluate a loss on an empty batch")
        diff = y_pred - y_true
        loss = float((diff**2).sum() / n)
        grad = 2.0 * diff / n
        return loss, grad


LOSSES = {
    "categorical_crossentropy": CategoricalCrossentropy,
    "binary_crossentropy": BinaryCrossentropy,
    "mse": MeanSquaredError,
}


def get_loss(spec) -> Loss:
    """Resolve a loss from an instance or a Keras-style string name."""
    if isinstance(spec, Loss):
        return spec
    try:
        return LOSSES[spec]()
    except KeyError:
        known = ", ".join(sorted(LOSSES))
        raise TrainingError(f"unknown loss {spec!r}; known: {known}") from None
