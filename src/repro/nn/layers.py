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

Ownership: a layer may overwrite an array only when a layer of the same
``Sequential`` produced it in the same pass.  The caller's arrays (the
``x`` given to ``forward``/``predict``/``fit``/``train_on_batch`` and
the ``grad`` given to ``Sequential.backward``) are never written.  The
one layer pair that writes in place, a biased ``Dense`` directly below
a ``ReLU``, rectifies its own fresh GEMM output and masks a gradient
that ``Sequential`` guarantees it owns (see :class:`ReLU`).

Gradients are exact (validated against numerical differentiation in the
tests).  Compute precision is a per-layer ``dtype`` policy (default
float64 for exact-gradient tests; float32 opt-in via
``Sequential.compile(..., dtype="float32")`` roughly halves both memory
traffic and matmul wall-clock on the training hot path).

``tests/test_nn_backend.py`` pins every layer's forward and backward
bitwise against independently spelled numpy references, and the
compiled Dense+ReLU epilogue against the numpy path.
"""

from __future__ import annotations

import ctypes
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import LayerError
from repro.utils import cbuild
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


_EPILOGUE_SOURCE = r"""
/* The Dense+ReLU epilogue around the GEMM, over a row-major (n, k)
   block, with numpy's ops in numpy's order (-ffp-contract=off).
   Forward, in place: out = out + b, on = out > 0, out = out * on; the
   mask is written only when it is not NULL (training).  Backward, in
   place: grad = grad * on, and bias_grad = the column sums of the
   masked grad, added row by row from +0.0 as numpy's sum(axis=0) does
   when k >= 2. */
#define EPILOGUE(SUFFIX, T)                                             \
void repro_dense_relu_forward_##SUFFIX(                                 \
    T* restrict out, const T* restrict b, unsigned char* restrict mask, \
    long n, long k)                                                     \
{                                                                       \
    for (long i = 0; i < n; i++) {                                      \
        T* restrict row = out + i * k;                                  \
        if (mask) {                                                     \
            unsigned char* restrict on = mask + i * k;                  \
            for (long j = 0; j < k; j++) {                              \
                T y = row[j] + b[j];                                    \
                on[j] = y > 0;                                          \
                row[j] = y * (T)(y > 0);                                \
            }                                                           \
        } else {                                                        \
            for (long j = 0; j < k; j++) {                              \
                T y = row[j] + b[j];                                    \
                row[j] = y * (T)(y > 0);                                \
            }                                                           \
        }                                                               \
    }                                                                   \
}                                                                       \
                                                                        \
void repro_dense_relu_backward_##SUFFIX(                                \
    T* restrict grad, const unsigned char* restrict mask,               \
    T* restrict bias_grad, long n, long k)                              \
{                                                                       \
    for (long j = 0; j < k; j++)                                        \
        bias_grad[j] = 0;                                               \
    for (long i = 0; i < n; i++) {                                      \
        T* restrict row = grad + i * k;                                 \
        const unsigned char* restrict on = mask + i * k;                \
        for (long j = 0; j < k; j++) {                                  \
            T g = row[j] * (T)on[j];                                    \
            row[j] = g;                                                 \
            bias_grad[j] += g;                                          \
        }                                                               \
    }                                                                   \
}

EPILOGUE(f32, float)
EPILOGUE(f64, double)
"""


def _bind_epilogue(lib):
    entries = {}
    for dtype, suffix in ((np.float32, "f32"), (np.float64, "f64")):
        forward = getattr(lib, f"repro_dense_relu_forward_{suffix}")
        backward = getattr(lib, f"repro_dense_relu_backward_{suffix}")
        for fn in (forward, backward):
            fn.argtypes = [ctypes.c_void_p] * 3 + [ctypes.c_long] * 2
            fn.restype = None
        entries[np.dtype(dtype)] = (forward, backward)
    return entries


def dense_relu_numpy(pre, bias, grad):
    """The numpy spelling of the epilogue: the unfused Dense + ReLU ops.

    Returns ``(out, mask, masked_grad, bias_grad)`` for the GEMM output
    ``pre``; the compiled epilogue must give the same bits.
    """
    out = pre.copy()
    out += bias
    mask = np.greater(out, 0)
    masked = grad * mask
    return out * mask, mask, masked, masked.sum(axis=0)


def _epilogue_self_test(entries) -> bool:
    """Compiled epilogue vs :func:`dense_relu_numpy`, compared bitwise.

    Widths from 2 (the narrowest the kernel takes) to odd sizes past any
    vector width, and a row count past numpy's pairwise-summation block.
    Pre-activations and biases include zeros of both signs, so some
    outputs are exactly +0.0 or -0.0, and one column is dead with
    all-negative gradients, so its masked gradients are all -0.0 and
    its bias gradient must come out +0.0.
    """
    rng = np.random.default_rng(31415)
    for dtype, (forward, backward) in entries.items():
        for n, k in ((1, 2), (7, 3), (33, 67), (300, 5)):
            pre = rng.standard_normal((n, k)).astype(dtype)
            pre.flat[::5] = 0.0
            pre.flat[1::7] = -0.0
            pre[:, -1] = -np.abs(pre[:, -1]) - 1.0
            bias = rng.standard_normal(k).astype(dtype)
            bias[::4], bias[2::4] = 0.0, -0.0
            bias[-1] = 0.0
            grad = rng.standard_normal((n, k)).astype(dtype)
            grad[:, -1] = -np.abs(grad[:, -1])
            expected = dense_relu_numpy(pre, bias, grad)
            out, bare = pre.copy(), pre.copy()
            mask = np.empty((n, k), np.bool_)
            masked = grad.copy()
            bias_grad = np.empty(k, dtype)
            forward(out.ctypes.data, bias.ctypes.data, mask.ctypes.data, n, k)
            forward(bare.ctypes.data, bias.ctypes.data, None, n, k)
            backward(masked.ctypes.data, mask.ctypes.data,
                     bias_grad.ctypes.data, n, k)
            got = (out, mask, masked, bias_grad)
            if bare.tobytes() != out.tobytes() or any(
                a.tobytes() != b.tobytes() for a, b in zip(got, expected)
            ):
                return False
    return True


_EPILOGUE_KERNEL = cbuild.CompiledKernel(
    "dense_relu", _EPILOGUE_SOURCE, _bind_epilogue, _epilogue_self_test
)


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

    #: The ReLU directly above this layer, set by ``Sequential.build`` on
    #: a biased Dense.  The pair then runs as one compiled epilogue after
    #: the GEMM (see :class:`ReLU`).
    relu: Optional["ReLU"] = None

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
        if self.relu is not None and self.relu.rectify(
            out, self.params[1], training
        ):
            return out
        if self.use_bias:
            out += self.params[1]
        return out

    def backward(self, grad):
        if self._x is None:
            raise LayerError("backward called without a training forward pass")
        # Write straight into the persistent gradient buffers instead of
        # allocating fresh arrays every step.
        if self.relu is not None and grad is self.relu.deferred_grad:
            # The ReLU above left its mask to this pass, which applies it
            # in place and sums the bias gradient.
            self.relu.mask_deferred(self.grads[1])
        elif self.use_bias:
            grad.sum(axis=0, out=self.grads[1])
        np.matmul(self._x.T, grad, out=self.grads[0])
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
    """Rectified linear activation.

    Paired with the biased :class:`Dense` below it (``Dense.relu``), the
    numpy passes around that layer's GEMM run as one compiled epilogue,
    with the same bits.  In the forward pass the Dense calls
    :meth:`rectify`: bias add, mask and ReLU in place on its fresh GEMM
    output, and this layer's ``forward`` passes that array through.  In
    the backward pass this layer hands its input gradient down unmasked
    and the Dense calls :meth:`mask_deferred`, which masks it in place
    and sums the bias gradient.  Both hand-overs are checked by array
    identity: ``forward`` on any other array rectifies it as usual, and
    the Dense masks only the array this layer handed down.  So after a
    fused training pass, the gradient this ``backward`` returns must go
    to the paired Dense's ``backward``, as ``Sequential`` does.
    """

    def __init__(self):
        super().__init__()
        self._mask: Optional[np.ndarray] = None
        self._scratch: dict = {}
        # The paired Dense's output, already rectified in this pass.
        self._rectified: Optional[np.ndarray] = None
        # The dtype of a training pass whose mask the paired Dense
        # applies; None when this layer applies its own mask.
        self._deferred_dtype: Optional[np.dtype] = None
        #: The gradient handed down unmasked to the paired Dense.
        self.deferred_grad: Optional[np.ndarray] = None

    def rectify(self, out, bias, training) -> bool:
        """Add ``bias`` to ``out`` and rectify it in place, recording the
        mask when training; False when the compiled epilogue cannot."""
        entry = (_EPILOGUE_KERNEL.get() or {}).get(out.dtype)
        if (entry is None or bias.dtype != out.dtype or out.ndim != 2
                or out.shape[1] < 2 or not out.flags.c_contiguous
                or not bias.flags.c_contiguous):
            return False
        mask = (scratch_buffer(self._scratch, "mask", out.shape, np.bool_)
                if training else None)
        entry[0](out.ctypes.data, bias.ctypes.data,
                 None if mask is None else mask.ctypes.data, *out.shape)
        self._mask = mask
        self._deferred_dtype = out.dtype if training else None
        self._rectified = out
        return True

    def mask_deferred(self, bias_grad) -> None:
        """Mask the deferred gradient in place; write its column sums."""
        grad, self.deferred_grad = self.deferred_grad, None
        _EPILOGUE_KERNEL.get()[grad.dtype][1](
            grad.ctypes.data, self._mask.ctypes.data, bias_grad.ctypes.data,
            *grad.shape,
        )

    def forward(self, x, training=False):
        self.deferred_grad = None
        if x is self._rectified:
            self._rectified = None
            return x
        self._deferred_dtype = None
        mask = scratch_buffer(self._scratch, "mask", x.shape, np.bool_)
        np.greater(x, 0, out=mask)
        out = x * mask
        self._mask = mask if training else None
        return out

    def backward(self, grad):
        if self._mask is None:
            raise LayerError("backward called without a training forward pass")
        if (self._deferred_dtype is not None
                and grad.dtype == self._deferred_dtype
                and grad.shape == self._mask.shape
                and grad.flags.c_contiguous):
            self.deferred_grad = grad
            return grad
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
