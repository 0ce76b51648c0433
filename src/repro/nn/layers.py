"""Core layers: Dense, activations, Dropout, shape utilities.

Every layer implements the same small contract:

* ``build(input_shape, rng)`` — allocate parameters; ``input_shape``
  excludes the batch axis;
* ``forward(x, training)`` — compute outputs, caching whatever the
  backward pass needs;
* ``backward(grad)`` — given ``dL/d(output)`` return ``dL/d(input)``
  and fill ``self.grads`` (aligned with ``self.params``);
* ``output_shape(input_shape)`` and ``get_config()`` for model
  persistence.

Gradients are exact (validated against numerical differentiation in the
tests).  Compute precision is a per-layer ``dtype`` policy (default
float64 for exact-gradient tests; float32 opt-in via
``Sequential.compile(..., dtype="float32")`` roughly halves both memory
traffic and matmul wall-clock on the training hot path).

``tests/test_nn_backend.py`` pins every layer's forward and backward
bitwise against independently spelled numpy references.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import LayerError
from repro.nn.initializers import get_initializer


def scratch_buffer(store: dict, name: str, shape, dtype) -> np.ndarray:
    """A persistent uninitialised scratch array, re-allocated only when
    the requested shape or dtype changes (one slot per name)."""
    shape = tuple(shape)
    buf = store.get(name)
    if buf is None or buf.shape != shape or buf.dtype != dtype:
        buf = np.empty(shape, dtype=dtype)
        store[name] = buf
    return buf


def scratch_zeros(store: dict, name: str, shape, dtype) -> np.ndarray:
    """Like :func:`scratch_buffer` but zero-filled on allocation.

    Callers must treat the returned array as read-only — it is zeroed
    only when (re)allocated.
    """
    shape = tuple(shape)
    buf = store.get(name)
    if buf is None or buf.shape != shape or buf.dtype != dtype:
        buf = np.zeros(shape, dtype=dtype)
        store[name] = buf
    return buf


def _sigmoid(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Logistic function of ``x`` computed in place in ``out``.

    The clip bounds keep the exponent finite in float32 and float64, so
    the in-place chain rounds exactly like
    ``1.0 / (1.0 + np.exp(-np.clip(x, -500, 500)))``.  Shared by
    :class:`Sigmoid` and the LSTM gate block.
    """
    np.clip(x, -500, 500, out=out)
    np.negative(out, out=out)
    np.exp(out, out=out)
    out += 1.0
    np.reciprocal(out, out=out)
    return out


class Layer:
    """Base class for all layers."""

    #: Layers that draw randomness during ``forward`` (e.g. Dropout) set
    #: this so the model can route the fit-time generator through them.
    stochastic = False

    #: Set by ``Sequential.build`` on the bottom-most parameterised layer
    #: when nothing below it has parameters: the input gradient would be
    #: discarded, so ``backward`` may return ``None`` instead of
    #: computing it.  Honoured by Dense, LSTM and Conv1D.
    skip_input_grad = False

    def __init__(self):
        self.params: List[np.ndarray] = []
        self.grads: List[np.ndarray] = []
        self.built = False
        self.trainable = True
        self.dtype: np.dtype = np.dtype(np.float64)

    def set_dtype(self, dtype) -> None:
        """Switch the compute dtype, casting any existing parameters."""
        dtype = np.dtype(dtype)
        if dtype.kind != "f":
            raise LayerError(f"layer dtype must be a float type, got {dtype}")
        self.dtype = dtype
        self.params = [p.astype(dtype, copy=False) for p in self.params]
        self.grads = [g.astype(dtype, copy=False) for g in self.grads]

    def build(self, input_shape: Tuple[int, ...], rng: np.random.Generator) -> None:
        """Allocate parameters for the given input shape (sans batch axis)."""
        del input_shape, rng
        self.built = True

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        """Compute the layer output for a batch ``x``."""
        raise NotImplementedError

    def backward(self, grad: np.ndarray) -> np.ndarray:
        """Propagate ``dL/d(output)`` to ``dL/d(input)``; fill ``self.grads``."""
        raise NotImplementedError

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        """Shape of the output (sans batch axis) for a given input shape."""
        return input_shape

    def count_params(self) -> int:
        """Total number of trainable scalars in this layer."""
        return int(sum(p.size for p in self.params))

    def get_config(self) -> dict:
        """JSON-serialisable constructor arguments (for persistence)."""
        return {}

    @property
    def name(self) -> str:
        """Class name, used in summaries and persistence."""
        return type(self).__name__


class Dense(Layer):
    """Fully connected layer: ``y = x @ W + b``."""

    def __init__(
        self,
        units: int,
        use_bias: bool = True,
        kernel_initializer: str = "glorot_uniform",
    ):
        super().__init__()
        if units <= 0:
            raise LayerError(f"Dense units must be positive, got {units}")
        self.units = int(units)
        self.use_bias = bool(use_bias)
        self.kernel_initializer = kernel_initializer
        self._x: Optional[np.ndarray] = None

    def build(self, input_shape, rng):
        if len(input_shape) != 1:
            raise LayerError(
                f"Dense expects flat inputs, got shape {input_shape}; "
                "add a Flatten layer first"
            )
        init = get_initializer(self.kernel_initializer)
        weight = init((input_shape[0], self.units), rng).astype(self.dtype, copy=False)
        self.params = [weight]
        if self.use_bias:
            self.params.append(np.zeros(self.units, dtype=self.dtype))
        self.grads = [np.zeros_like(p) for p in self.params]
        self.built = True

    def forward(self, x, training=False):
        self._x = x if training else None
        out = x @ self.params[0]
        if self.use_bias:
            out += self.params[1]
        return out

    def backward(self, grad):
        if self._x is None:
            raise LayerError("backward called without a training forward pass")
        # Write straight into the persistent gradient buffers instead of
        # allocating fresh arrays every step.
        np.matmul(self._x.T, grad, out=self.grads[0])
        if self.use_bias:
            grad.sum(axis=0, out=self.grads[1])
        if self.skip_input_grad:
            return None
        return grad @ self.params[0].T

    def output_shape(self, input_shape):
        return (self.units,)

    def get_config(self):
        return {
            "units": self.units,
            "use_bias": self.use_bias,
            "kernel_initializer": self.kernel_initializer,
        }


class ReLU(Layer):
    """Rectified linear activation."""

    def __init__(self):
        super().__init__()
        self._mask: Optional[np.ndarray] = None
        self._scratch: dict = {}

    def forward(self, x, training=False):
        mask = scratch_buffer(self._scratch, "mask", x.shape, np.bool_)
        np.greater(x, 0, out=mask)
        out = x * mask
        self._mask = mask if training else None
        return out

    def backward(self, grad):
        if self._mask is None:
            raise LayerError("backward called without a training forward pass")
        return grad * self._mask


class LeakyReLU(Layer):
    """Leaky ReLU with slope ``alpha`` on the negative side (paper §5.1)."""

    def __init__(self, alpha: float = 0.3):
        super().__init__()
        if alpha < 0:
            raise LayerError(f"LeakyReLU alpha must be non-negative, got {alpha}")
        self.alpha = float(alpha)
        self._mask: Optional[np.ndarray] = None

    def forward(self, x, training=False):
        mask = x > 0
        out = np.where(mask, x, self.alpha * x)
        self._mask = mask if training else None
        return out

    def backward(self, grad):
        if self._mask is None:
            raise LayerError("backward called without a training forward pass")
        return np.where(self._mask, grad, self.alpha * grad)

    def get_config(self):
        return {"alpha": self.alpha}


class Sigmoid(Layer):
    """Logistic activation."""

    def __init__(self):
        super().__init__()
        self._out: Optional[np.ndarray] = None

    def forward(self, x, training=False):
        out = _sigmoid(x, np.empty_like(x))
        self._out = out if training else None
        return out

    def backward(self, grad):
        if self._out is None:
            raise LayerError("backward called without a training forward pass")
        return grad * self._out * (1.0 - self._out)


class Tanh(Layer):
    """Hyperbolic tangent activation."""

    def __init__(self):
        super().__init__()
        self._out: Optional[np.ndarray] = None

    def forward(self, x, training=False):
        out = np.tanh(x)
        self._out = out if training else None
        return out

    def backward(self, grad):
        if self._out is None:
            raise LayerError("backward called without a training forward pass")
        return grad * (1.0 - self._out**2)


class Softmax(Layer):
    """Softmax over the last axis (the paper's output layer)."""

    def __init__(self):
        super().__init__()
        self._out: Optional[np.ndarray] = None

    def forward(self, x, training=False):
        exp = np.exp(x - x.max(axis=-1, keepdims=True))
        out = exp / exp.sum(axis=-1, keepdims=True)
        self._out = out if training else None
        return out

    def backward(self, grad):
        if self._out is None:
            raise LayerError("backward called without a training forward pass")
        out = self._out
        inner = (grad * out).sum(axis=-1, keepdims=True)
        return out * (grad - inner)


class Dropout(Layer):
    """Inverted dropout; identity at inference time.

    Randomness comes from the generator passed to ``forward`` (routed
    from ``Sequential.fit``'s ``rng`` so one seed reproduces a whole
    run).  An explicit ``seed`` overrides that routing with a private
    stream, and is also the fallback when no generator is supplied.
    """

    stochastic = True

    def __init__(self, rate: float, seed: Optional[int] = None):
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise LayerError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = float(rate)
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        self._mask: Optional[np.ndarray] = None

    def forward(self, x, training=False, rng=None):
        if not training or self.rate == 0.0:
            self._mask = None
            return x
        generator = self._rng if (rng is None or self.seed is not None) else rng
        keep = 1.0 - self.rate
        mask = (generator.random(x.shape) < keep).astype(x.dtype)
        mask /= np.asarray(keep, dtype=x.dtype)
        self._mask = mask
        return x * mask

    def backward(self, grad):
        if self._mask is None:
            return grad
        return grad * self._mask

    def get_config(self):
        return {"rate": self.rate, "seed": self.seed}


class Flatten(Layer):
    """Collapse all non-batch axes into one."""

    def __init__(self):
        super().__init__()
        self._shape: Optional[Tuple[int, ...]] = None

    def forward(self, x, training=False):
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad):
        if self._shape is None:
            raise LayerError("backward called without a forward pass")
        return grad.reshape(self._shape)

    def output_shape(self, input_shape):
        return (int(np.prod(input_shape)),)


class Reshape(Layer):
    """Reshape the non-batch axes (e.g. 128 bits to ``(16, 8)`` for Conv/LSTM)."""

    def __init__(self, target_shape: Sequence[int]):
        super().__init__()
        self.target_shape = tuple(int(s) for s in target_shape)
        self._shape: Optional[Tuple[int, ...]] = None

    def forward(self, x, training=False):
        self._shape = x.shape
        return x.reshape((x.shape[0],) + self.target_shape)

    def backward(self, grad):
        if self._shape is None:
            raise LayerError("backward called without a forward pass")
        return grad.reshape(self._shape)

    def output_shape(self, input_shape):
        if int(np.prod(input_shape)) != int(np.prod(self.target_shape)):
            raise LayerError(
                f"cannot reshape {input_shape} into {self.target_shape}"
            )
        return self.target_shape

    def get_config(self):
        return {"target_shape": list(self.target_shape)}
