"""Compiled fused quantize + u8·s8 GEMM + dequantize for the int8 path.

The quantized affine transform is, per input row ``i``:

    lo_i = min(min(x[i]), 0)         hi_i = max(max(x[i]), 0)
    s_i  = (hi_i - lo_i) / 255       inv_i = s_i > 0 ? 1/s_i : 0
    z_i  = rint(-lo_i * inv_i)
    q[i, :]   = clip(rint(x[i, :] * inv_i) + z_i, 0, 255)      (uint8)
    acc[i, j] = sum_k q[i, k] * w_s8[k, j]                     (int32)
    y[i, j]   = (acc[i, j] - z_i * colsum[j]) * (s_i * s_w) + bias[j]

and has no fast numpy spelling: numpy integer matmul bypasses BLAS and
runs ~300x slower than sgemm at MLP III sizes, and the quantize /
dequantize steps cost several full passes over the activations when
expressed as separate ufuncs.  This module therefore compiles a small C
kernel at first use and loads it through ctypes
(:mod:`repro.utils.cbuild`, shared with the fused Adam step):

* on AVX-512 VNNI hardware the kernel quantizes four rows at a time
  into an L1-resident scratch block and feeds them straight into a
  row-blocked ``vpdpbusd`` GEMM (4 rows x 64 columns per pass over the
  packed weights) with the dequantization fused into the store
  epilogue — int8 MACs are 4-per-lane-per-instruction, the weight
  stream is a quarter the bytes, and the whole transform is one
  library call with no intermediate arrays;
* elsewhere the same C file compiles to a portable widening-MAC loop
  (autovectorized, ``-ffp-contract=off`` so the float steps round
  one-by-one exactly like the vector and numpy paths), still exact;
* no compiler or a failed build falls back to
  :func:`repro.nn.quant.int8_affine_numpy` — the same quantization
  ufuncs plus a float64 GEMM on the integer-valued operands (exact for
  any practical depth: products ≤ 2^15, sums far below 2^53), which is
  bit-identical to the kernel.

Bit-identity with numpy holds because every float step is a single
correctly-rounded IEEE op in both worlds: ``rint``/``roundscale`` both
round to nearest-even, the epilogue is deliberately mul-then-add (no
FMA — numpy rounds after the multiply and after the add, so the kernel
must too), ``z * colsum`` stays exact in int32 (≤ 255 * 127 * k) and
``int32 -> float32`` conversion rounds to nearest in both worlds.  The
load-time self-test pins the equivalence bitwise against that numpy
fallback and the kernel is rejected if it ever disagrees.

Weights are packed once at quantization time into the VNNI layout
``(k/4, m, 4)`` — four consecutive ``k`` values of one output column
in one 32-bit lane — with ``k`` padded to a multiple of 4 and ``m`` to
a multiple of 16 (zero padding contributes nothing, and the padded
``colsum``/``bias`` entries are zero).  The kernel is stateless and
row-independent, so concurrent calls from the serving engine are safe
and results never depend on how rows are grouped into batches.

``REPRO_QUANT_KERNEL_DIR`` overrides where the shared object is cached
(see :func:`repro.utils.cbuild.cache_dir`).
"""

from __future__ import annotations

import ctypes
from typing import Tuple

import numpy as np

from repro.errors import TrainingError
from repro.utils import cbuild

_C_SOURCE = r"""
#include <stdint.h>
#include <stdlib.h>
#include <math.h>

#if defined(__AVX512VNNI__) && defined(__AVX512F__)
#include <immintrin.h>

/* Per-row dynamic uint8 quantization, the exact op sequence of the
   numpy reference (repro.nn.quant.quantize_rows).  Every step is a
   single-rounded float32 op and rint/roundscale both round to
   nearest-even, so the outputs are bitwise identical.  The row is
   padded to kp with zeros (padded weights are zero too, so the pad
   value never matters -- zeroing it just keeps runs reproducible). */
static void quantize_row(const float* row, long k, long kp,
                         uint8_t* qrow, float* scale_out, int32_t* zp_out)
{
    __m512 vlo = _mm512_set1_ps(0.0f);
    __m512 vhi = _mm512_set1_ps(0.0f);
    long j = 0;
    for (; j + 16 <= k; j += 16) {
        __m512 v = _mm512_loadu_ps(row + j);
        vlo = _mm512_min_ps(vlo, v);
        vhi = _mm512_max_ps(vhi, v);
    }
    float lo = _mm512_reduce_min_ps(vlo);
    float hi = _mm512_reduce_max_ps(vhi);
    for (; j < k; j++) {
        float v = row[j];
        lo = v < lo ? v : lo;
        hi = v > hi ? v : hi;
    }
    float s = (hi - lo) / 255.0f;
    float inv = s > 0.0f ? 1.0f / s : 0.0f;
    float zf = rintf(-lo * inv);
    *scale_out = s;
    *zp_out = (int32_t)zf;
    __m512 vinv = _mm512_set1_ps(inv);
    __m512 vzf = _mm512_set1_ps(zf);
    __m512 vzero = _mm512_setzero_ps();
    __m512 vmax = _mm512_set1_ps(255.0f);
    j = 0;
    for (; j + 16 <= k; j += 16) {
        __m512 v = _mm512_loadu_ps(row + j);
        v = _mm512_roundscale_ps(_mm512_mul_ps(v, vinv),
                                 _MM_FROUND_TO_NEAREST_INT |
                                 _MM_FROUND_NO_EXC);
        v = _mm512_add_ps(v, vzf);
        v = _mm512_min_ps(_mm512_max_ps(v, vzero), vmax);
        _mm512_mask_cvtepi32_storeu_epi8(
            qrow + j, (__mmask16)0xffff, _mm512_cvttps_epi32(v));
    }
    for (; j < k; j++) {
        float v = rintf(row[j] * inv) + zf;
        v = v < 0.0f ? 0.0f : (v > 255.0f ? 255.0f : v);
        qrow[j] = (uint8_t)v;
    }
    for (j = k; j < kp; j++)
        qrow[j] = 0;
}

/* Dequantizing store: y = (float)(acc - zp * colsum) * rs + bias.
   mul-then-add on purpose -- numpy's fallback rounds between the two,
   so an FMA here would diverge in the last bit. */
static inline void store_deq(float* dst, __m512i acc, __m512i colsum_v,
                             __m512i zp_v, __m512 rs_v, __m512 bias_v)
{
    __m512i corr = _mm512_sub_epi32(acc, _mm512_mullo_epi32(zp_v, colsum_v));
    __m512 f = _mm512_cvtepi32_ps(corr);
    f = _mm512_mul_ps(f, rs_v);
    f = _mm512_add_ps(f, bias_v);
    _mm512_storeu_ps(dst, f);
}

/* 4-row x 64-column VNNI accumulation block: one pass over the packed
   weights serves 16 accumulators, so the weight stream (the dominant
   memory traffic) is shared across all four rows. */
static void tile_4x64(const int32_t* x0, const int32_t* x1,
                      const int32_t* x2, const int32_t* x3,
                      const int8_t* wcol, long kb_count, long mp,
                      __m512i acc[4][4])
{
    for (long kb = 0; kb < kb_count; kb++) {
        const int8_t* wrow = wcol + kb * mp * 4;
        __m512i w0 = _mm512_loadu_si512((const void*)(wrow));
        __m512i w1 = _mm512_loadu_si512((const void*)(wrow + 64));
        __m512i w2 = _mm512_loadu_si512((const void*)(wrow + 128));
        __m512i w3 = _mm512_loadu_si512((const void*)(wrow + 192));
        __m512i xv;
        xv = _mm512_set1_epi32(x0[kb]);
        acc[0][0] = _mm512_dpbusd_epi32(acc[0][0], xv, w0);
        acc[0][1] = _mm512_dpbusd_epi32(acc[0][1], xv, w1);
        acc[0][2] = _mm512_dpbusd_epi32(acc[0][2], xv, w2);
        acc[0][3] = _mm512_dpbusd_epi32(acc[0][3], xv, w3);
        xv = _mm512_set1_epi32(x1[kb]);
        acc[1][0] = _mm512_dpbusd_epi32(acc[1][0], xv, w0);
        acc[1][1] = _mm512_dpbusd_epi32(acc[1][1], xv, w1);
        acc[1][2] = _mm512_dpbusd_epi32(acc[1][2], xv, w2);
        acc[1][3] = _mm512_dpbusd_epi32(acc[1][3], xv, w3);
        xv = _mm512_set1_epi32(x2[kb]);
        acc[2][0] = _mm512_dpbusd_epi32(acc[2][0], xv, w0);
        acc[2][1] = _mm512_dpbusd_epi32(acc[2][1], xv, w1);
        acc[2][2] = _mm512_dpbusd_epi32(acc[2][2], xv, w2);
        acc[2][3] = _mm512_dpbusd_epi32(acc[2][3], xv, w3);
        xv = _mm512_set1_epi32(x3[kb]);
        acc[3][0] = _mm512_dpbusd_epi32(acc[3][0], xv, w0);
        acc[3][1] = _mm512_dpbusd_epi32(acc[3][1], xv, w1);
        acc[3][2] = _mm512_dpbusd_epi32(acc[3][2], xv, w2);
        acc[3][3] = _mm512_dpbusd_epi32(acc[3][3], xv, w3);
    }
}

/* Fused quantize + GEMM + dequantize.
   x: (n, k) float32 row-major.  wp: packed weights (kp/4, mp, 4) int8
   where wp[kb, j, b] holds w[4*kb + b, j]; kp % 4 == 0, mp % 16 == 0.
   colsum/bias: length mp (zero beyond the real column count).
   y: (n, mp) float32 out.  Four rows are quantized into an L1-resident
   scratch block and consumed immediately. */
void repro_qaffine(const float* x, const int8_t* wp, float wscale,
                   const int32_t* colsum, const float* bias,
                   float* y, long n, long k, long kp, long mp)
{
    uint8_t stack_buf[4 * 4096];
    uint8_t* qbuf = stack_buf;
    uint8_t* heap_buf = 0;
    if (4 * kp > (long)sizeof stack_buf) {
        heap_buf = (uint8_t*)malloc((size_t)(4 * kp));
        if (!heap_buf) return;
        qbuf = heap_buf;
    }
    long kb_count = kp / 4;
    long i = 0;
    for (; i + 4 <= n; i += 4) {
        const int32_t* xr[4];
        __m512i zp_v[4];
        __m512 rs_v[4];
        for (int r = 0; r < 4; r++) {
            float s;
            int32_t z;
            quantize_row(x + (i + r) * k, k, kp, qbuf + r * kp, &s, &z);
            xr[r] = (const int32_t*)(qbuf + r * kp);
            zp_v[r] = _mm512_set1_epi32(z);
            rs_v[r] = _mm512_set1_ps(s * wscale);
        }
        long j = 0;
        for (; j + 64 <= mp; j += 64) {
            __m512i acc[4][4];
            for (int r = 0; r < 4; r++)
                for (int c = 0; c < 4; c++)
                    acc[r][c] = _mm512_setzero_si512();
            tile_4x64(xr[0], xr[1], xr[2], xr[3], wp + j * 4,
                      kb_count, mp, acc);
            for (int c = 0; c < 4; c++) {
                __m512i cs_v = _mm512_loadu_si512(
                    (const void*)(colsum + j + c * 16));
                __m512 b_v = _mm512_loadu_ps(bias + j + c * 16);
                for (int r = 0; r < 4; r++)
                    store_deq(y + (i + r) * mp + j + c * 16, acc[r][c],
                              cs_v, zp_v[r], rs_v[r], b_v);
            }
        }
        for (; j < mp; j += 16) {
            const int8_t* wcol = wp + j * 4;
            __m512i a[4];
            for (int r = 0; r < 4; r++)
                a[r] = _mm512_setzero_si512();
            for (long kb = 0; kb < kb_count; kb++) {
                __m512i w0 = _mm512_loadu_si512(
                    (const void*)(wcol + kb * mp * 4));
                for (int r = 0; r < 4; r++)
                    a[r] = _mm512_dpbusd_epi32(
                        a[r], _mm512_set1_epi32(xr[r][kb]), w0);
            }
            __m512i cs_v = _mm512_loadu_si512((const void*)(colsum + j));
            __m512 b_v = _mm512_loadu_ps(bias + j);
            for (int r = 0; r < 4; r++)
                store_deq(y + (i + r) * mp + j, a[r],
                          cs_v, zp_v[r], rs_v[r], b_v);
        }
    }
    for (; i < n; i++) {
        float s;
        int32_t z;
        quantize_row(x + i * k, k, kp, qbuf, &s, &z);
        const int32_t* xrow = (const int32_t*)qbuf;
        __m512i zp_v = _mm512_set1_epi32(z);
        __m512 rs_v = _mm512_set1_ps(s * wscale);
        float* yrow = y + i * mp;
        for (long j = 0; j < mp; j += 16) {
            __m512i a0 = _mm512_setzero_si512();
            const int8_t* wcol = wp + j * 4;
            for (long kb = 0; kb < kb_count; kb++)
                a0 = _mm512_dpbusd_epi32(
                    a0, _mm512_set1_epi32(xrow[kb]),
                    _mm512_loadu_si512((const void*)(wcol + kb * mp * 4)));
            store_deq(yrow + j, a0,
                      _mm512_loadu_si512((const void*)(colsum + j)),
                      zp_v, rs_v, _mm512_loadu_ps(bias + j));
        }
    }
    free(heap_buf);
}

#else  /* portable fallback: same layout, scalar ops, same rounding */

static void quantize_row(const float* row, long k, long kp,
                         uint8_t* qrow, float* scale_out, int32_t* zp_out)
{
    float lo = 0.0f, hi = 0.0f;
    for (long j = 0; j < k; j++) {
        float v = row[j];
        lo = v < lo ? v : lo;
        hi = v > hi ? v : hi;
    }
    float s = (hi - lo) / 255.0f;
    float inv = s > 0.0f ? 1.0f / s : 0.0f;
    float zf = rintf(-lo * inv);
    *scale_out = s;
    *zp_out = (int32_t)zf;
    for (long j = 0; j < k; j++) {
        float v = rintf(row[j] * inv) + zf;
        v = v < 0.0f ? 0.0f : (v > 255.0f ? 255.0f : v);
        qrow[j] = (uint8_t)v;
    }
    for (long j = k; j < kp; j++)
        qrow[j] = 0;
}

void repro_qaffine(const float* x, const int8_t* wp, float wscale,
                   const int32_t* colsum, const float* bias,
                   float* y, long n, long k, long kp, long mp)
{
    uint8_t* qbuf = (uint8_t*)malloc((size_t)kp);
    if (!qbuf) return;
    long kb_count = kp / 4;
    for (long i = 0; i < n; i++) {
        float s;
        int32_t z;
        quantize_row(x + i * k, k, kp, qbuf, &s, &z);
        float rs = s * wscale;
        float* yrow = y + i * mp;
        for (long j = 0; j < mp; j++) {
            int32_t acc = 0;
            for (long kb = 0; kb < kb_count; kb++) {
                const uint8_t* x4 = qbuf + kb * 4;
                const int8_t* w4 = wp + (kb * mp + j) * 4;
                acc += (int32_t)x4[0] * (int32_t)w4[0]
                     + (int32_t)x4[1] * (int32_t)w4[1]
                     + (int32_t)x4[2] * (int32_t)w4[2]
                     + (int32_t)x4[3] * (int32_t)w4[3];
            }
            /* step-by-step rounding; built with -ffp-contract=off so
               the compiler cannot fuse the mul+add into an FMA. */
            float f = (float)(acc - z * colsum[j]);
            f = f * rs;
            f = f + bias[j];
            yrow[j] = f;
        }
    }
    free(qbuf);
}

#endif
"""

def _self_test(qaffine_fn) -> bool:
    """Validate the loaded kernel bitwise against the numpy fallback.

    Exercises negative, positive, all-zero and constant rows, widths
    that are not multiples of the vector/pack granularity, and both the
    4-row blocked path and the single-row remainder.
    """
    from repro.nn.quant import _Int8Linear, int8_affine_numpy

    rng = np.random.default_rng(12345)
    k, m, n = 37, 23, 7
    w = rng.integers(-127, 128, (k, m), dtype=np.int8)
    x = (rng.standard_normal((n, k)) * 3).astype(np.float32)
    x[2] = 0.0
    x[3] = 1.5
    x[4] = -2.25
    linear = _Int8Linear(w, 0.037, rng.standard_normal(m).astype(np.float32))
    wp, kp, mp, colsum, bias = linear.kernel_data()
    got = np.empty((n, mp), dtype=np.float32)
    qaffine_fn(
        x.ctypes.data, wp.ctypes.data, ctypes.c_float(linear.scale),
        colsum.ctypes.data, bias.ctypes.data, got.ctypes.data,
        n, k, kp, mp,
    )
    return bool((got[:, :m] == int8_affine_numpy(x, linear)).all())


def _bind(lib):
    qaffine_fn = lib.repro_qaffine
    qaffine_fn.argtypes = (
        [ctypes.c_void_p, ctypes.c_void_p, ctypes.c_float]
        + [ctypes.c_void_p] * 3
        + [ctypes.c_long] * 4
    )
    qaffine_fn.restype = None
    return qaffine_fn


_KERNEL = cbuild.CompiledKernel("qkernel", _C_SOURCE, _bind, _self_test)


def kernel_in_use() -> bool:
    """True when int8 matmuls will run through the compiled kernel."""
    return _KERNEL.get() is not None


def pack_weights(w: np.ndarray) -> Tuple[np.ndarray, int, int]:
    """Pack ``(k, m)`` int8 weights into the kernel's VNNI layout.

    Returns ``(packed, kp, mp)`` where ``packed`` has shape
    ``(kp // 4, mp, 4)`` with zero padding (padding never contributes:
    padded weights are zero, and padded ``x`` bytes multiply them).
    """
    if w.dtype != np.int8 or w.ndim != 2:
        raise TrainingError(
            f"pack_weights expects a 2-D int8 array, got {w.dtype} "
            f"{w.shape}"
        )
    k, m = w.shape
    kp = -(-k // 4) * 4
    mp = -(-m // 16) * 16
    padded = np.zeros((kp, mp), dtype=np.int8)
    padded[:k, :m] = w
    packed = np.empty((kp // 4, mp, 4), dtype=np.int8)
    for byte in range(4):
        packed[:, :, byte] = padded[byte::4, :]
    return np.ascontiguousarray(packed), kp, mp


def qaffine(
    x: np.ndarray,
    packed: np.ndarray,
    wscale: float,
    kp: int,
    mp: int,
    colsum_padded: np.ndarray,
    bias_padded: np.ndarray,
) -> np.ndarray:
    """Fused quantize-GEMM-dequantize via the compiled kernel.

    ``x`` must be C-contiguous ``(n, k)`` float32; ``packed`` comes
    from :func:`pack_weights`; ``colsum_padded`` (int32) and
    ``bias_padded`` (float32) are length ``mp``.  Returns ``(n, mp)``
    float32 (callers slice off the column padding) — bitwise identical
    to :func:`repro.nn.quant.int8_affine_numpy` (pinned by the
    load-time self-test).
    """
    fn = _KERNEL.get()
    if fn is None:
        raise TrainingError(
            "compiled int8 kernel unavailable; guard calls with "
            "kernel_in_use()"
        )
    if x.dtype != np.float32 or not x.flags.c_contiguous:
        raise TrainingError("x must be C-contiguous float32")
    n, k = x.shape
    out = np.empty((n, mp), dtype=np.float32)
    fn(
        x.ctypes.data, packed.ctypes.data, ctypes.c_float(wscale),
        colsum_padded.ctypes.data, bias_padded.ctypes.data,
        out.ctypes.data, n, k, kp, mp,
    )
    return out
