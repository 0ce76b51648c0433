"""LSTM layer with full backpropagation through time.

The paper's §5.1 compares LSTM networks against MLPs and CNNs for the
distinguisher task (they learn, but train roughly 10x slower than the
MLPs — a ratio this numpy implementation reproduces for free).

Gate layout follows Keras: one kernel ``W (features, 4*units)``, one
recurrent kernel ``U (units, 4*units)`` and one bias ``b (4*units,)``,
with gate order ``[input, forget, cell, output]``.  The forget-gate bias
is initialised to one (the Keras ``unit_forget_bias`` default).

Hot-path layout (see DESIGN.md §6):

* the input projection ``x @ W`` is hoisted out of the timestep loop
  into one ``(batch*steps, features) @ W`` matmul up front;
* all internal caches are **time-major** (``(steps, batch, ...)``) and
  the gate activations are stored gate-major (``(steps, 4, batch,
  units)``), so every per-timestep slice the loops touch is contiguous
  — elementwise ufuncs on strided column views run ~2x slower on this
  substrate, and the step loops are pure elementwise work plus one
  GEMM;
* ``tanh(c)`` is cached by the forward pass so backward never
  recomputes it, and the ``t == 0`` recurrent GEMMs are skipped
  entirely (``h_-1`` is zero, so they contribute nothing);
* the backward timestep loop performs only the unavoidable recurrence
  work (``dz_t`` and ``dh_next = dz_t @ U.T``); the kernel, recurrent
  and bias gradients are accumulated *after* the loop as single stacked
  matmuls written into the persistent ``self.grads`` buffers.

Scratch buffers persist across steps (re-allocated only when the batch
shape or dtype changes), so a steady-state training step allocates only
its output array.  The per-element arithmetic order matches the
pre-vectorised implementation exactly, so forward activations are
bit-identical in float64; the stacked weight-gradient reductions sum in
a different order and match to float tolerance
(``tests/test_nn_seq_kernels.py`` pins both).

When ``return_sequences`` is true the output is a ``(batch, steps,
units)`` transposed view of a freshly allocated time-major array; a
stacked LSTM therefore hands its successor (and, on the way down, the
successor hands its ``x`` gradient back) in a layout whose per-step
slices are already contiguous.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.errors import LayerError
from repro.nn.initializers import get_initializer
from repro.nn.layers import Layer, _sigmoid, scratch_buffer, scratch_zeros


class LSTM(Layer):
    """Long Short-Term Memory layer over ``(batch, steps, features)`` input."""

    def __init__(
        self,
        units: int,
        return_sequences: bool = False,
        kernel_initializer: str = "glorot_uniform",
    ):
        super().__init__()
        if units <= 0:
            raise LayerError(f"LSTM units must be positive, got {units}")
        self.units = int(units)
        self.return_sequences = bool(return_sequences)
        self.kernel_initializer = kernel_initializer
        self._cache: Optional[dict] = None
        self._scratch: Dict[str, np.ndarray] = {}

    def build(self, input_shape, rng):
        if len(input_shape) != 2:
            raise LayerError(
                f"LSTM expects (steps, features) inputs, got {input_shape}; "
                "use Reshape to shape flat bit vectors into sequences"
            )
        _steps, features = input_shape
        init = get_initializer(self.kernel_initializer)
        kernel = init((features, 4 * self.units), rng).astype(self.dtype, copy=False)
        recurrent = init((self.units, 4 * self.units), rng).astype(
            self.dtype, copy=False
        )
        bias = np.zeros(4 * self.units, dtype=self.dtype)
        bias[self.units:2 * self.units] = 1.0  # forget-gate bias
        self.params = [kernel, recurrent, bias]
        self.grads = [np.zeros_like(p) for p in self.params]
        self.built = True

    def _project_inputs(self, x, n, steps, features):
        """Time-major input copy and the hoisted ``x @ W`` projection.

        Returns ``(xT, xp)`` — both ``(steps, batch, ...)`` scratch.
        When ``x`` is the transposed view handed over by a lower LSTM,
        its backing array is reused without copying.
        """
        kernel = self.params[0]
        xv = x.transpose(1, 0, 2)
        if xv.flags.c_contiguous:
            # x is the transposed view handed over by a lower LSTM: its
            # backing array is already time-major, use it as-is.
            xT = xv
        else:
            xT = scratch_buffer(
                self._scratch, "xT", (steps, n, features), x.dtype
            )
            np.copyto(xT, xv)
        xp = scratch_buffer(self._scratch, "xp", (steps, n, 4 * self.units), x.dtype)
        np.matmul(
            xT.reshape(steps * n, features),
            kernel,
            out=xp.reshape(steps * n, 4 * self.units),
        )
        return xT, xp

    def forward(self, x, training=False):
        _kernel, recurrent, bias = self.params
        n, steps, features = x.shape
        u = self.units
        dtype = x.dtype
        buf = self._scratch
        xT, xp = self._project_inputs(x, n, steps, features)
        z = scratch_buffer(buf, "z", (n, 4 * u), dtype)
        ig = scratch_buffer(buf, "ig", (n, u), dtype)
        zeros_u = scratch_zeros(buf, "zeros_u", (n, u), dtype)
        # When the sequence itself is the output it must be freshly
        # allocated (callers may hold onto it); otherwise the time-major
        # state history is persistent scratch and only the final step is
        # copied out.
        if self.return_sequences:
            hs = np.empty((steps, n, u), dtype=dtype)
        else:
            hs = scratch_buffer(buf, "hs", (steps, n, u), dtype)
        if training:
            gates = scratch_buffer(buf, "gates", (steps, 4, n, u), dtype)
            c_all = scratch_buffer(buf, "c", (steps, n, u), dtype)
            tanh_c = scratch_buffer(buf, "tanh_c", (steps, n, u), dtype)
        else:
            gates = scratch_buffer(buf, "g_step", (1, 4, n, u), dtype)
            c_all = scratch_buffer(buf, "c_step", (1, n, u), dtype)
            tanh_c = scratch_buffer(buf, "tanh_step", (1, n, u), dtype)
        c_prev = zeros_u
        for t in range(steps):
            s = t if training else 0
            g_t = gates[s]
            c_t = c_all[s]
            tanh_t = tanh_c[s]
            # z = (x_t @ W) + (h @ U) + b in the reference operand order.
            # h_-1 is exactly zero, so the t == 0 recurrent GEMM (and the
            # add of its all-zero result) is skipped outright.
            if t == 0:
                np.add(xp[0], bias, out=z)
            else:
                np.matmul(hs[t - 1], recurrent, out=z)
                np.add(xp[t], z, out=z)
                np.add(z, bias, out=z)
            # Gate activations, strided column reads but contiguous
            # gate-major writes (and in-place from there on).
            _sigmoid(z[:, :u], g_t[0])
            _sigmoid(z[:, u:2 * u], g_t[1])
            np.tanh(z[:, 2 * u:3 * u], out=g_t[2])
            _sigmoid(z[:, 3 * u:], g_t[3])
            # c = f * c_prev + i * g
            np.multiply(g_t[1], c_prev, out=c_t)
            np.multiply(g_t[0], g_t[2], out=ig)
            np.add(c_t, ig, out=c_t)
            # h = o * tanh(c)
            np.tanh(c_t, out=tanh_t)
            np.multiply(g_t[3], tanh_t, out=hs[t])
            c_prev = c_t
        if training:
            self._cache = {
                "shape": (n, steps, features),
                "xT": xT,
                "gates": gates,
                "c": c_all,
                "tanh_c": tanh_c,
                "hs": hs,
                "zeros_u": zeros_u,
            }
        else:
            self._cache = None
        if self.return_sequences:
            return hs.transpose(1, 0, 2)
        return np.array(hs[steps - 1])

    def backward(self, grad):
        if self._cache is None:
            raise LayerError("backward called without a training forward pass")
        kernel, recurrent, _bias = self.params
        cache = self._cache
        n, steps, features = cache["shape"]
        xT = cache["xT"]
        gates = cache["gates"]
        c_all = cache["c"]
        tanh_c = cache["tanh_c"]
        hs = cache["hs"]
        zeros_u = cache["zeros_u"]
        u = self.units
        dtype = hs.dtype
        buf = self._scratch

        rec_T = recurrent.T
        dz_all = scratch_buffer(buf, "dz", (steps, n, 4 * u), dtype)
        dh = scratch_buffer(buf, "dh", (n, u), dtype)
        dh_next = scratch_buffer(buf, "dh_next", (n, u), dtype)
        dc = scratch_buffer(buf, "dc", (n, u), dtype)
        dc_next = scratch_buffer(buf, "dc_next", (n, u), dtype)
        s1 = scratch_buffer(buf, "s1", (n, u), dtype)
        s2 = scratch_buffer(buf, "s2", (n, u), dtype)
        do = scratch_buffer(buf, "do", (n, u), dtype)
        dh_next[...] = 0.0
        dc_next[...] = 0.0

        for t in range(steps - 1, -1, -1):
            g_t = gates[t]
            i = g_t[0]
            f = g_t[1]
            g = g_t[2]
            o = g_t[3]
            tanh_t = tanh_c[t]
            c_prev = c_all[t - 1] if t > 0 else zeros_u

            if self.return_sequences:
                # When the upstream gradient arrived as a transposed view
                # of a time-major array (a stacked LSTM's x gradient),
                # this slice is contiguous for free.
                np.add(grad[:, t, :], dh_next, out=dh)
            elif t == steps - 1:
                np.add(grad, dh_next, out=dh)
            else:
                dh, dh_next = dh_next, dh
            # do = dh * tanh(c); dc = dh * o * (1 - tanh(c)^2) + dc_next
            np.multiply(dh, tanh_t, out=do)
            np.multiply(dh, o, out=s1)
            np.multiply(tanh_t, tanh_t, out=s2)
            np.subtract(1.0, s2, out=s2)
            np.multiply(s1, s2, out=s1)
            np.add(s1, dc_next, out=dc)
            # Gate pre-activation gradients, written straight into the
            # stacked dz buffer: dz_i = (dc*g) * i * (1-i), etc.
            dz_t = dz_all[t]
            np.multiply(dc, g, out=s1)
            np.multiply(s1, i, out=s1)
            np.subtract(1.0, i, out=s2)
            np.multiply(s1, s2, out=dz_t[:, :u])
            np.multiply(dc, c_prev, out=s1)
            np.multiply(s1, f, out=s1)
            np.subtract(1.0, f, out=s2)
            np.multiply(s1, s2, out=dz_t[:, u:2 * u])
            np.multiply(dc, i, out=s1)
            np.multiply(g, g, out=s2)
            np.subtract(1.0, s2, out=s2)
            np.multiply(s1, s2, out=dz_t[:, 2 * u:3 * u])
            np.multiply(do, o, out=s1)
            np.subtract(1.0, o, out=s2)
            np.multiply(s1, s2, out=dz_t[:, 3 * u:])
            if t > 0:
                # dc_next = dc * f; dh_next = dz_t @ U.T — not needed on
                # the last (t == 0) iteration.
                np.multiply(dc, f, out=dc_next)
                np.matmul(dz_t, rec_T, out=dh_next)

        # Weight gradients as single stacked matmuls over all timesteps,
        # written into the persistent self.grads buffers.  h_-1 is zero,
        # so the recurrent-kernel gradient needs only steps 1..T-1.
        dz2 = dz_all.reshape(steps * n, 4 * u)
        np.matmul(xT.reshape(steps * n, features).T, dz2, out=self.grads[0])
        if steps > 1:
            np.matmul(
                hs[:-1].reshape((steps - 1) * n, u).T,
                dz_all[1:].reshape((steps - 1) * n, 4 * u),
                out=self.grads[1],
            )
        else:
            self.grads[1][...] = 0.0
        dz2.sum(axis=0, out=self.grads[2])
        if self.skip_input_grad:
            return None
        x_grad = np.empty((steps, n, features), dtype=dtype)
        np.matmul(dz2, kernel.T, out=x_grad.reshape(steps * n, features))
        return x_grad.transpose(1, 0, 2)

    def output_shape(self, input_shape):
        steps, _features = input_shape
        if self.return_sequences:
            return (steps, self.units)
        return (self.units,)

    def get_config(self):
        return {
            "units": self.units,
            "return_sequences": self.return_sequences,
            "kernel_initializer": self.kernel_initializer,
        }
