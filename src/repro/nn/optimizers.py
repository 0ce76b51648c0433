"""Optimizers: SGD with momentum and Adam (the paper's choice, §1).

Both optimizers keep persistent per-parameter state buffers (SGD's
velocity and one scratch array, Adam's two moments) and update them
strictly in place.  Their arithmetic is ordered to be bit-identical to
the textbook out-of-place formulation (asserted by the
kernel-equivalence tests).

Adam's step is memory-bound: as numpy ufuncs it makes 14 full-array
passes per parameter.  It therefore runs as one compiled C loop
(:mod:`repro.utils.cbuild`) that reads ``p``, ``g``, ``m`` and
``v`` once and writes ``p``, ``m`` and ``v`` once, with the numpy
ops' order and one IEEE rounding per op, so it gives the same bits as
:func:`adam_step_numpy`.  Its float32 entry steps the lanes where an op
could make or read a subnormal (the first moments of dead ReLU units
decay into the subnormals and stick there) in double with software
rounding, off the hardware's subnormal slow path.  That numpy spelling
is the kernel's load-time self-test reference and the path taken when
there is no compiler, the build or self-test fails, or a parameter is
not float32/float64.  The kernel is loaded on the first ``update``,
never at import.
"""

from __future__ import annotations

import ctypes
from typing import Dict, List

import numpy as np

from repro.errors import TrainingError
from repro.utils import cbuild


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
#include <stdint.h>
#include <string.h>

/* One Adam step over n elements: each element of p, g, m and v is read
   once and p, m, v are written once.  The op order and the rounding of
   every step are those of the numpy spelling in adam_step_numpy; the
   build has -ffp-contract=off, so no mul+add is fused. */
#define ADAM_OPS(T, SQRT, p0, g0, m0, v0, mi, vi, pi)                   \
    T mi = m0 * b1 + g0 * c1;                                           \
    T vi = v0 * b2 + (g0 * g0) * c2;                                    \
    T pi = p0 - (mi / bias1) * lr / (SQRT(vi / bias2) + eps);

void repro_adam_f64(double* restrict p, const double* restrict g,
                    double* restrict m, double* restrict v, long n,
                    double b1, double c1, double b2, double c2,
                    double bias1, double bias2, double lr, double eps)
{
    for (long i = 0; i < n; i++) {
        ADAM_OPS(double, sqrt, p[i], g[i], m[i], v[i], mi, vi, pi)
        m[i] = mi;
        v[i] = vi;
        p[i] = pi;
    }
}

/* float32 has a subnormal slow path: a float op that makes or reads a
   subnormal costs a microcode assist.  Dead ReLU units get g = 0, so
   their m decays until it sticks at k * 2^-149 (round(0.9 k) = k for
   k <= 4) and pays assists on every step from then on.

   So the vector loop flags "risky" lanes: a non-zero input below a
   threshold derived from the scalars, under which some op of the step
   could make or read a subnormal.  A risky lane computes on zeros and
   keeps its stored values (integer masks, so no float op sees its
   inputs).  Each block then steps its risky lanes in double,
   rounding every op to float by hand (adam_f32_soft).  Both paths give
   numpy's bits for every input, so the thresholds only steer speed; a
   lane whose step underflows only in the division by a very large
   denominator is not flagged and stays exact, just slow. */

static inline uint32_t f32_bits(float x)
{
    uint32_t u;
    memcpy(&u, &x, 4);
    return u;
}

static inline float f32_from(uint32_t u)
{
    float f;
    memcpy(&f, &u, 4);
    return f;
}

static inline uint64_t f64_bits(double x)
{
    uint64_t u;
    memcpy(&u, &x, 8);
    return u;
}

#define MIN_NORMAL_F64_BITS 0x3810000000000000ull /* 2^-126 as a double */

/* The float with bits u, as a double; a subnormal is scaled in integer
   arithmetic, never converted by a float op. */
static inline double f32_value(uint32_t u)
{
    uint32_t a = u & 0x7fffffffu;
    int sub = a < 0x00800000u;
    double d = sub ? (double)(int32_t)a * 0x1p-149
                   : (double)f32_from(sub ? 0x00800000u : a);
    return (int32_t)u < 0 ? -d : d;
}

/* x rounded to float (nearest, ties to even), as a double.  A double
   has more than 2 * 24 + 2 bits, so rounding an op done in double
   gives the float op's result.  Below 2^-126 the result is rounded on
   the 2^-149 grid in double; no float conversion ever sees it. */
static inline double f32_round(double x)
{
    double a = fabs(x);
    int sub = f64_bits(a) < MIN_NORMAL_F64_BITS;
    double on_grid = copysign(nearbyint(a * 0x1p149) * 0x1p-149, x);
    return sub ? on_grid : (double)(float)(sub ? 0x1p-126 : x);
}

/* The bits of the float value x. */
static inline uint32_t f32_encode(double x)
{
    double a = fabs(x);
    int sub = f64_bits(a) < MIN_NORMAL_F64_BITS;
    uint32_t bits = sub ? (uint32_t)(int32_t)((sub ? a : 0.0) * 0x1p149)
                        : f32_bits((float)(sub ? 0x1p-126 : a));
    return bits | (uint32_t)(f64_bits(x) >> 32 & 0x80000000u);
}

#define BLOCK 1024
#define VECTOR 16

/* The risky lanes of one block: their offsets and input bits. */
struct soft_lanes {
    int count;
    int at[BLOCK];
    uint32_t p[BLOCK + VECTOR], g[BLOCK + VECTOR];
    uint32_t m[BLOCK + VECTOR], v[BLOCK + VECTOR];
};

static void adam_f32_soft(struct soft_lanes* s, float* p, float* m,
                          float* v, const double* k)
{
    const double b1 = k[0], c1 = k[1], b2 = k[2], c2 = k[3];
    const double bias1 = k[4], bias2 = k[5], lr = k[6], eps = k[7];
    /* Zero lanes pad the loop to whole vectors. */
    int padded = (s->count + VECTOR - 1) / VECTOR * VECTOR;
    for (int c = s->count; c < padded; c++)
        s->p[c] = s->g[c] = s->m[c] = s->v[c] = 0;
    for (int c = 0; c < padded; c++) {
        double g0 = f32_value(s->g[c]), m0 = f32_value(s->m[c]);
        double v0 = f32_value(s->v[c]), p0 = f32_value(s->p[c]);
        double mi = f32_round(f32_round(m0 * b1) + f32_round(g0 * c1));
        double vi = f32_round(
            f32_round(v0 * b2) + f32_round(f32_round(g0 * g0) * c2));
        double den = f32_round(
            f32_round(sqrt(f32_round(vi / bias2))) + eps);
        double step = f32_round(
            f32_round(f32_round(mi / bias1) * lr) / den);
        s->m[c] = f32_encode(mi);
        s->v[c] = f32_encode(vi);
        s->p[c] = f32_encode(f32_round(p0 - step));
    }
    for (int c = 0; c < s->count; c++) {
        memcpy(p + s->at[c], s->p + c, 4);
        memcpy(m + s->at[c], s->m + c, 4);
        memcpy(v + s->at[c], s->v + c, 4);
    }
}

void repro_adam_f32(float* restrict p, const float* restrict g,
                    float* restrict m, float* restrict v, long n,
                    float b1, float c1, float b2, float c2,
                    float bias1, float bias2, float lr, float eps)
{
    const double k[8] = {b1, c1, b2, c2, bias1, bias2, lr, eps};
    /* Two floats of at least 2^-101 sum to 0 or to at least 2^-125, so
       above these bounds m * b1 + g * c1 cancels to 0 or to at least
       2^-125 / lr, and every op of the step stays normal. */
    const double tiny = 0x1p-101;
    const uint32_t tm = f32_bits((float)(tiny / ((double)lr * b1)));
    const uint32_t tg = f32_bits((float)fmax(
        tiny / ((double)lr * c1), sqrt(0x1p-125 / (double)c2)));
    const uint32_t tv = f32_bits((float)(0x1p-125 / (double)b2));
    const uint32_t tp = f32_bits((float)(2.0 * tiny));
    unsigned char risky[BLOCK];
    struct soft_lanes soft;
    for (long lo = 0; lo < n; lo += BLOCK) {
        long len = n - lo < BLOCK ? n - lo : BLOCK;
        float* restrict pb = p + lo;
        const float* restrict gb = g + lo;
        float* restrict mb = m + lo;
        float* restrict vb = v + lo;
        int any = 0;
        for (long i = 0; i < len; i++) {
            uint32_t pu = f32_bits(pb[i]), gu = f32_bits(gb[i]);
            uint32_t mu = f32_bits(mb[i]), vu = f32_bits(vb[i]);
            /* |x| - 1 < t - 1 as unsigned: x is non-zero and |x| < t. */
            int r = ((mu & 0x7fffffffu) - 1u < tm - 1u)
                  | ((gu & 0x7fffffffu) - 1u < tg - 1u)
                  | ((vu & 0x7fffffffu) - 1u < tv - 1u)
                  | ((pu & 0x7fffffffu) - 1u < tp - 1u);
            uint32_t keep = (uint32_t)r - 1u;
            float p0 = f32_from(pu & keep), g0 = f32_from(gu & keep);
            float m0 = f32_from(mu & keep), v0 = f32_from(vu & keep);
            ADAM_OPS(float, sqrtf, p0, g0, m0, v0, mi, vi, pi)
            uint32_t mo = (f32_bits(mi) & keep) | (mu & ~keep);
            uint32_t vo = (f32_bits(vi) & keep) | (vu & ~keep);
            uint32_t po = (f32_bits(pi) & keep) | (pu & ~keep);
            memcpy(mb + i, &mo, 4);
            memcpy(vb + i, &vo, 4);
            memcpy(pb + i, &po, 4);
            risky[i] = (unsigned char)r;
            any |= r;
        }
        if (!any)
            continue;
        /* Gather the risky lanes, eight flags per word. */
        soft.count = 0;
        for (long w = 0; w < len; w += 8) {
            uint64_t word = 0;
            memcpy(&word, risky + w, len - w < 8 ? len - w : 8);
            for (; word; word &= word - 1) {
                int i = (int)w + __builtin_ctzll(word) / 8;
                int c = soft.count++;
                soft.at[c] = i;
                soft.p[c] = f32_bits(pb[i]);
                soft.g[c] = f32_bits(gb[i]);
                soft.m[c] = f32_bits(mb[i]);
                soft.v[c] = f32_bits(vb[i]);
            }
        }
        adam_f32_soft(&soft, pb, mb, vb, k);
    }
}
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
    """220 steps per dtype, compiled vs numpy, compared bitwise.

    The parameter's two halves are not multiples of any vector width.
    In the first, each element keeps one gradient scale for every step:
    unit, zero, subnormal, 1e-8 or 1e30.  (An element that ever saw a
    1e30 gradient barely moves afterwards, so the scales must not be
    mixed within an element.)  The second is dead ReLU units: 20 live
    steps at scales from 1e-3 down to subnormal, then 200 steps of
    exactly zero gradient, so ``m`` decays through the subnormals and
    sticks at k * 2^-149 (k * 2^-1074 in float64) while ``v`` stays
    normal.  Some of its parameters start near the smallest normal,
    where a subnormal step still moves them.
    """
    rng = np.random.default_rng(2718)
    steps, dead_after = 220, 20
    for dtype, fn in entries.items():
        tiny = np.finfo(dtype).tiny
        scales = np.concatenate([
            np.resize([1.0, 1.0, 1.0, 0.0, tiny / 4, 1e-8, 1e30], 67),
            np.resize([1e-3, tiny * 2**40, tiny * 2**20, tiny * 2**10, tiny,
                       tiny * 2**-20, tiny * 2**-40], 71),
        ])
        dead = np.arange(scales.size) >= 67
        start = np.where(
            dead, np.resize([1.0, 1.0, tiny * 16, 1.0, tiny * 2**8], 138), 1.0
        )
        states = [(rng.standard_normal(scales.size) * start).astype(dtype)]
        states += [np.zeros(scales.size, dtype) for _ in range(2)]
        twin = [a.copy() for a in states]
        for step in range(1, steps + 1):
            grad = (rng.standard_normal(scales.size) * scales).astype(dtype)
            if step > dead_after:
                grad[dead] = 0
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
    # Let GCC vectorise sqrt and the selects of the software rounding
    # path.  Neither flag reorders or contracts an op, so no result changes.
    extra_flags=("-fno-math-errno", "-fno-trapping-math"),
)


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
