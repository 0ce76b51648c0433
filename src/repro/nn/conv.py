"""1-D convolution and pooling layers (the paper's CNN comparison points).

Inputs are ``(batch, steps, channels)``.  The convolution is implemented
as im2col: a stride-tricks sliding-window view of the (padded) input is
copied once into a persistent ``(batch*out_steps, kernel*channels)``
scratch buffer, after which the forward pass, the kernel gradient and
the column gradient are each one large matmul.  The column buffer built
in the forward pass is reused by the backward pass, and all scratch
(including the padded input) persists across steps, so a steady-state
train step allocates only its output arrays.

The single-matmul reduction sums ``kernel*channels`` terms in one sweep
where the previous offset-sum kernel added per-offset partial products,
so float64 results match the reference formulation to float tolerance
rather than bit-exactly (``tests/test_nn_seq_kernels.py`` pins the
equivalence).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.errors import LayerError
from repro.nn.initializers import get_initializer
from repro.nn.layers import Layer, scratch_buffer


class Conv1D(Layer):
    """1-D convolution, stride 1, ``valid`` or ``same`` padding."""

    def __init__(
        self,
        filters: int,
        kernel_size: int,
        padding: str = "valid",
        use_bias: bool = True,
        kernel_initializer: str = "glorot_uniform",
    ):
        super().__init__()
        if filters <= 0 or kernel_size <= 0:
            raise LayerError("filters and kernel_size must be positive")
        if padding not in ("valid", "same"):
            raise LayerError(f"padding must be 'valid' or 'same', got {padding!r}")
        self.filters = int(filters)
        self.kernel_size = int(kernel_size)
        self.padding = padding
        self.use_bias = bool(use_bias)
        self.kernel_initializer = kernel_initializer
        self._cache: Optional[Tuple] = None
        self._scratch: Dict[str, np.ndarray] = {}

    def _pad_amounts(self) -> Tuple[int, int]:
        if self.padding == "valid":
            return 0, 0
        total = self.kernel_size - 1
        return total // 2, total - total // 2

    def build(self, input_shape, rng):
        if len(input_shape) != 2:
            raise LayerError(
                f"Conv1D expects (steps, channels) inputs, got {input_shape}"
            )
        steps, channels = input_shape
        if self.padding == "valid" and steps < self.kernel_size:
            raise LayerError(
                f"kernel size {self.kernel_size} exceeds {steps} input steps"
            )
        init = get_initializer(self.kernel_initializer)
        kernel = init((self.kernel_size, channels, self.filters), rng).astype(
            self.dtype, copy=False
        )
        self.params = [kernel]
        if self.use_bias:
            self.params.append(np.zeros(self.filters, dtype=self.dtype))
        self.grads = [np.zeros_like(p) for p in self.params]
        self.built = True

    def _im2col(self, x):
        """Copy sliding windows of ``x`` into the persistent column buffer.

        Returns ``(cols, padded_steps)`` where ``cols`` has shape
        ``(batch * out_steps, kernel_size * channels)`` laid out to match
        ``kernel.reshape(kernel_size * channels, filters)``.
        """
        left, right = self._pad_amounts()
        n, steps, channels = x.shape
        if left or right:
            padded = scratch_buffer(
                self._scratch, "padded", (n, steps + left + right, channels), x.dtype
            )
            padded[:, :left, :] = 0.0
            padded[:, left + steps:, :] = 0.0
            padded[:, left:left + steps, :] = x
            x = padded
        k = self.kernel_size
        out_steps = x.shape[1] - k + 1
        cols = scratch_buffer(
            self._scratch, "cols", (n * out_steps, k * channels), x.dtype
        )
        # sliding_window_view yields (n, out_steps, channels, k); transpose
        # to offset-major / channel-minor to match the kernel layout.
        windows = sliding_window_view(x, k, axis=1)
        np.copyto(
            cols.reshape(n, out_steps, k, channels),
            windows.transpose(0, 1, 3, 2),
        )
        return cols, x.shape[1]

    def forward(self, x, training=False):
        kernel = self.params[0]
        n, steps, channels = x.shape
        k = self.kernel_size
        cols, padded_steps = self._im2col(x)
        out_steps = padded_steps - k + 1
        out = np.empty((n, out_steps, self.filters), dtype=x.dtype)
        np.matmul(
            cols,
            kernel.reshape(k * channels, self.filters),
            out=out.reshape(n * out_steps, self.filters),
        )
        if self.use_bias:
            out += self.params[1]
        self._cache = (x.shape, cols, out_steps) if training else None
        return out

    def backward(self, grad):
        if self._cache is None:
            raise LayerError("backward called without a training forward pass")
        (n, steps, channels), cols, out_steps = self._cache
        kernel = self.params[0]
        k = self.kernel_size
        grad2 = np.ascontiguousarray(grad).reshape(n * out_steps, self.filters)
        np.matmul(
            cols.T, grad2, out=self.grads[0].reshape(k * channels, self.filters)
        )
        if self.use_bias:
            grad2.sum(axis=0, out=self.grads[1])
        if self.skip_input_grad:
            return None
        col_grad = scratch_buffer(
            self._scratch, "col_grad", (n * out_steps, k * channels), grad2.dtype
        )
        np.matmul(
            grad2, kernel.reshape(k * channels, self.filters).T, out=col_grad
        )
        left, right = self._pad_amounts()
        x_grad = np.empty((n, steps + left + right, channels), dtype=grad2.dtype)
        col_grad4 = col_grad.reshape(n, out_steps, k, channels)
        # Offset 0 covers positions [0, out_steps); assign it outright and
        # zero only the short uncovered tail instead of memsetting the
        # whole buffer, then accumulate the remaining offsets.
        x_grad[:, :out_steps, :] = col_grad4[:, :, 0, :]
        x_grad[:, out_steps:, :] = 0.0
        for offset in range(1, k):
            x_grad[:, offset:offset + out_steps, :] += col_grad4[:, :, offset, :]
        if left or right:
            return x_grad[:, left:x_grad.shape[1] - right, :]
        return x_grad

    def output_shape(self, input_shape):
        steps, _channels = input_shape
        if self.padding == "same":
            return (steps, self.filters)
        return (steps - self.kernel_size + 1, self.filters)

    def get_config(self):
        return {
            "filters": self.filters,
            "kernel_size": self.kernel_size,
            "padding": self.padding,
            "use_bias": self.use_bias,
            "kernel_initializer": self.kernel_initializer,
        }


class MaxPool1D(Layer):
    """Max pooling with non-overlapping windows (stride == pool size)."""

    def __init__(self, pool_size: int = 2):
        super().__init__()
        if pool_size <= 0:
            raise LayerError(f"pool_size must be positive, got {pool_size}")
        self.pool_size = int(pool_size)
        self._cache: Optional[Tuple] = None

    def forward(self, x, training=False):
        n, steps, channels = x.shape
        usable = (steps // self.pool_size) * self.pool_size
        trimmed = x[:, :usable, :]
        windows = trimmed.reshape(
            n, usable // self.pool_size, self.pool_size, channels
        )
        out = windows.max(axis=2)
        if training:
            argmax = windows.argmax(axis=2)
            self._cache = (x.shape, usable, argmax)
        else:
            self._cache = None
        return out

    def backward(self, grad):
        if self._cache is None:
            raise LayerError("backward called without a training forward pass")
        shape, usable, argmax = self._cache
        n, steps, channels = shape
        pooled = usable // self.pool_size
        x_grad = np.zeros(shape, dtype=grad.dtype)
        windows = np.zeros((n, pooled, self.pool_size, channels), dtype=grad.dtype)
        n_idx, p_idx, c_idx = np.meshgrid(
            np.arange(n), np.arange(pooled), np.arange(channels), indexing="ij"
        )
        windows[n_idx, p_idx, argmax, c_idx] = grad
        x_grad[:, :usable, :] = windows.reshape(n, usable, channels)
        return x_grad

    def output_shape(self, input_shape):
        steps, channels = input_shape
        return (steps // self.pool_size, channels)

    def get_config(self):
        return {"pool_size": self.pool_size}


class GlobalAveragePool1D(Layer):
    """Average over the step axis, producing ``(batch, channels)``."""

    def __init__(self):
        super().__init__()
        self._steps: Optional[int] = None

    def forward(self, x, training=False):
        self._steps = x.shape[1]
        return x.mean(axis=1)

    def backward(self, grad):
        if self._steps is None:
            raise LayerError("backward called without a forward pass")
        # Broadcast a read-only (batch, 1, channels) view over the step
        # axis instead of materialising the repeat; downstream consumers
        # only read it (or copy it to contiguous storage themselves).
        scaled = grad / self._steps
        return np.broadcast_to(
            scaled[:, np.newaxis, :], (grad.shape[0], self._steps, grad.shape[1])
        )

    def output_shape(self, input_shape):
        _steps, channels = input_shape
        return (channels,)
