"""Optimizers: SGD with momentum and Adam (the paper's choice, §1).

Both optimizers keep persistent per-parameter state buffers (SGD's
velocity and one scratch array, Adam's two moments) and update them
strictly in place.  Their arithmetic is ordered to be bit-identical to
the textbook out-of-place formulation (asserted by the
kernel-equivalence tests).

Adam's step is memory-bound: as numpy ufuncs it makes 14 full-array
passes per parameter.  It therefore runs as one compiled C loop
(:mod:`repro.nn.backend.cbuild`) that reads ``p``, ``g``, ``m`` and
``v`` once and writes ``p``, ``m`` and ``v`` once, with the numpy
ops' order and one IEEE rounding per op, so it gives the same bits as
:func:`adam_step_numpy`.  That numpy spelling is the kernel's load-time
self-test reference and the path taken when there is no compiler, the
build or self-test fails, or a parameter is not float32/float64.  The
kernel is loaded on the first ``update``, never at import.
"""

from __future__ import annotations

import ctypes
from typing import Dict, List

import numpy as np

from repro.errors import TrainingError
from repro.nn.backend import cbuild


class Optimizer:
    """Base class: stateful parameter updates keyed by parameter identity."""

    def update(self, params: List[np.ndarray], grads: List[np.ndarray]) -> None:
        """Apply one in-place update step to every parameter."""
        raise NotImplementedError


class SGD(Optimizer):
    """Stochastic gradient descent with optional classical momentum."""

    def __init__(self, learning_rate: float = 0.01, momentum: float = 0.0):
        if learning_rate <= 0:
            raise TrainingError(f"learning rate must be positive, got {learning_rate}")
        if not 0.0 <= momentum < 1.0:
            raise TrainingError(f"momentum must be in [0, 1), got {momentum}")
        self.learning_rate = float(learning_rate)
        self.momentum = float(momentum)
        self._velocity: Dict[int, np.ndarray] = {}
        self._scratch: Dict[int, np.ndarray] = {}

    def update(self, params, grads):
        if len(params) != len(grads):
            raise TrainingError("parameter and gradient lists differ in length")
        for index, (param, grad) in enumerate(zip(params, grads)):
            scratch = self._scratch.get(index)
            if scratch is None or scratch.shape != param.shape:
                scratch = np.empty_like(param)
                self._scratch[index] = scratch
            if self.momentum:
                velocity = self._velocity.get(index)
                if velocity is None:
                    velocity = np.zeros_like(param)
                    self._velocity[index] = velocity
                # velocity = momentum * velocity - lr * grad, in place.
                np.multiply(velocity, self.momentum, out=velocity)
                np.multiply(grad, self.learning_rate, out=scratch)
                np.subtract(velocity, scratch, out=velocity)
                param += velocity
            else:
                np.multiply(grad, self.learning_rate, out=scratch)
                param -= scratch


_ADAM_SOURCE = r"""
#include <math.h>

/* One Adam step over n elements: each element of p, g, m and v is read
   once and p, m, v are written once.  The op order and the rounding of
   every step are those of the numpy spelling in adam_step_numpy; the
   build has -ffp-contract=off, so no mul+add is fused. */
#define ADAM_STEP(NAME, T, SQRT)                                        \
void NAME(T* restrict p, const T* restrict g, T* restrict m,            \
          T* restrict v, long n, T b1, T c1, T b2, T c2,                \
          T bias1, T bias2, T lr, T eps)                                \
{                                                                       \
    for (long i = 0; i < n; i++) {                                      \
        T gi = g[i];                                                    \
        T mi = m[i] * b1 + gi * c1;                                     \
        T vi = v[i] * b2 + (gi * gi) * c2;                              \
        T den = SQRT(vi / bias2) + eps;                                 \
        m[i] = mi;                                                      \
        v[i] = vi;                                                      \
        p[i] = p[i] - (mi / bias1) * lr / den;                          \
    }                                                                   \
}

ADAM_STEP(repro_adam_f32, float, sqrtf)
ADAM_STEP(repro_adam_f64, double, sqrt)
"""


def adam_step_numpy(param, grad, m, v, beta_1, beta_2, bias_1, bias_2,
                    learning_rate, epsilon):
    """One in-place Adam step for one parameter, as numpy ufuncs.

    The reference the compiled step must match bitwise, and the path
    for every case the compiled step does not take.
    """
    num = np.empty_like(param)
    den = np.empty_like(param)
    # m = beta_1 * m + (1 - beta_1) * grad
    np.multiply(m, beta_1, out=m)
    np.multiply(grad, 1.0 - beta_1, out=num)
    np.add(m, num, out=m)
    # v = beta_2 * v + (1 - beta_2) * grad**2
    np.multiply(v, beta_2, out=v)
    np.multiply(grad, grad, out=num)
    np.multiply(num, 1.0 - beta_2, out=num)
    np.add(v, num, out=v)
    # param -= lr * (m / bias_1) / (sqrt(v / bias_2) + eps)
    np.divide(v, bias_2, out=den)
    np.sqrt(den, out=den)
    np.add(den, epsilon, out=den)
    np.divide(m, bias_1, out=num)
    np.multiply(num, learning_rate, out=num)
    np.divide(num, den, out=num)
    param -= num


def _bind_adam(lib):
    entries = {}
    for dtype, symbol, scalar in (
        (np.float32, "repro_adam_f32", ctypes.c_float),
        (np.float64, "repro_adam_f64", ctypes.c_double),
    ):
        fn = getattr(lib, symbol)
        fn.argtypes = [ctypes.c_void_p] * 4 + [ctypes.c_long] + [scalar] * 8
        fn.restype = None
        entries[np.dtype(dtype)] = fn
    return entries


def _kernel_scalars(dtype, beta_1, beta_2, bias_1, bias_2, learning_rate,
                    epsilon):
    """The kernel's scalar arguments, each rounded to ``dtype`` once.

    numpy rounds a Python float operand to the array dtype (NEP 50 weak
    scalars); the rounded values go to ctypes as Python floats, which
    convert to ``float``/``double`` exactly.
    """
    t = np.dtype(dtype).type
    return [float(t(x)) for x in (
        beta_1, 1.0 - beta_1, beta_2, 1.0 - beta_2, bias_1, bias_2,
        learning_rate, epsilon,
    )]


def _adam_call(fn, param, grad, m, v, scalars):
    fn(param.ctypes.data, grad.ctypes.data, m.ctypes.data, v.ctypes.data,
       param.size, *scalars)


def _adam_self_test(entries) -> bool:
    """200 steps per dtype, compiled vs numpy, compared bitwise.

    The size is not a multiple of any vector width.  Each element keeps
    one gradient scale: unit, zero, subnormal, 1e-8 or 1e30.  (An
    element that ever saw a 1e30 gradient barely moves afterwards, so
    the scales must not be mixed within an element.)
    """
    rng = np.random.default_rng(2718)
    for dtype, fn in entries.items():
        size = 67
        states = [rng.standard_normal(size).astype(dtype)] + [
            np.zeros(size, dtype) for _ in range(2)
        ]
        twin = [a.copy() for a in states]
        scales = np.resize(
            [1.0, 1.0, 1.0, 0.0, np.finfo(dtype).tiny / 4, 1e-8, 1e30], size
        )
        for step in range(1, 201):
            grad = (rng.standard_normal(size) * scales).astype(dtype)
            bias_1, bias_2 = 1.0 - 0.9 ** step, 1.0 - 0.999 ** step
            args = (0.9, 0.999, bias_1, bias_2, 1e-3, 1e-7)
            _adam_call(fn, states[0], grad, states[1], states[2],
                       _kernel_scalars(dtype, *args))
            with np.errstate(over="ignore"):
                adam_step_numpy(twin[0], grad, twin[1], twin[2], *args)
        if any(a.tobytes() != b.tobytes() for a, b in zip(states, twin)):
            return False
    return True


_ADAM_KERNEL = cbuild.CompiledKernel(
    "adam", _ADAM_SOURCE, _bind_adam, _adam_self_test,
    # Lets GCC vectorise sqrt; sqrt is exact, so results do not change.
    extra_flags=("-fno-math-errno",),
)


def adam_kernel_in_use() -> bool:
    """True when Adam steps run through the compiled kernel."""
    return _ADAM_KERNEL.get() is not None


class Adam(Optimizer):
    """Adam (Kingma & Ba, 2014) with Keras default hyper-parameters.

    A float32 or float64 parameter whose gradient has the same dtype
    and both are C-contiguous is stepped by the compiled kernel in one
    pass; anything else, or a host where the kernel is unavailable,
    takes :func:`adam_step_numpy`.  Both give the same bits.
    """

    def __init__(
        self,
        learning_rate: float = 0.001,
        beta_1: float = 0.9,
        beta_2: float = 0.999,
        epsilon: float = 1e-7,
    ):
        if learning_rate <= 0:
            raise TrainingError(f"learning rate must be positive, got {learning_rate}")
        if not 0.0 <= beta_1 < 1.0 or not 0.0 <= beta_2 < 1.0:
            raise TrainingError("beta parameters must lie in [0, 1)")
        self.learning_rate = float(learning_rate)
        self.beta_1 = float(beta_1)
        self.beta_2 = float(beta_2)
        self.epsilon = float(epsilon)
        self._m: Dict[int, np.ndarray] = {}
        self._v: Dict[int, np.ndarray] = {}
        self._step = 0

    def update(self, params, grads):
        if len(params) != len(grads):
            raise TrainingError("parameter and gradient lists differ in length")
        self._step += 1
        args = (
            self.beta_1, self.beta_2,
            1.0 - self.beta_1**self._step, 1.0 - self.beta_2**self._step,
            self.learning_rate, self.epsilon,
        )
        entries = _ADAM_KERNEL.get() or {}
        scalars = {}
        for index, (param, grad) in enumerate(zip(params, grads)):
            m = self._m.get(index)
            if m is None:
                m = self._m[index] = np.zeros_like(param)
                self._v[index] = np.zeros_like(param)
            v = self._v[index]
            fn = entries.get(param.dtype)
            if (fn is not None and grad.dtype == param.dtype == m.dtype
                    and grad.shape == param.shape == m.shape
                    and param.flags.c_contiguous and grad.flags.c_contiguous
                    and m.flags.c_contiguous and v.flags.c_contiguous):
                if param.dtype not in scalars:
                    scalars[param.dtype] = _kernel_scalars(param.dtype, *args)
                _adam_call(fn, param, grad, m, v, scalars[param.dtype])
            else:
                adam_step_numpy(param, grad, m, v, *args)


OPTIMIZERS = {"sgd": SGD, "adam": Adam}


def get_optimizer(spec) -> Optimizer:
    """Resolve an optimizer from an instance or a Keras-style string name."""
    if isinstance(spec, Optimizer):
        return spec
    try:
        return OPTIMIZERS[spec]()
    except KeyError:
        known = ", ".join(sorted(OPTIMIZERS))
        raise TrainingError(f"unknown optimizer {spec!r}; known: {known}") from None
