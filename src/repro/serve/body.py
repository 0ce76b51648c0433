"""Decode a serve request body: stdlib JSON, with the feature matrix compiled.

:func:`decode_body` returns what ``json.loads(raw)`` returns, with one
difference in form: a top-level ``"features"`` value that is a
non-empty array of equal-length arrays of exactly convertible numbers
arrives as the float64 ndarray ``np.asarray(value, dtype=np.float64)``
would build, parsed in one compiled pass (:data:`_MATRIX_KERNEL`)
instead of as a list of Python numbers.  ctypes releases the GIL for
that pass.

The walk over the top-level object uses only the stdlib's own pieces:
keys go through ``json.decoder.scanstring`` and every other value
through the scanner ``json.loads`` itself runs.  A ``features`` value
the kernel refuses (exponents, non-zero fractions, integers over 15
digits, ``NaN``, 1-D, empty, ragged or deeper arrays, anything that is
not a number, any syntax error) goes to that scanner too.  A body that
is not ASCII, a walk that meets anything unexpected, or a missing
kernel hands the whole body to ``json.loads``, so every value and every
error is the stdlib's.
"""

from __future__ import annotations

import ctypes
import json
from json.decoder import WHITESPACE, scanstring

import numpy as np

from repro.utils import cbuild

_MATRIX_SOURCE = r"""
/* Parse the JSON array of equal-length arrays of numbers at s[i] == '['
   into out (row-major float64, at most cap values) and its shape.
   Only number tokens with an exact float64 value are taken: integers of
   at most 15 digits, optionally with an all-zero fraction ("1.00").
   "-0" is +0.0 (json makes it the int 0), "-0.0" is -0.0.  Returns the
   index just past the closing ']', or -1 for anything else: exponents,
   non-zero fractions, longer integers, NaN or Infinity, a 1-D, empty,
   ragged or deeper array, a non-number token or a syntax error. */
#include <stdint.h>

static long skip_ws(const char* s, long i, long n)
{
    while (i < n && (s[i] == ' ' || s[i] == '\t' || s[i] == '\n' || s[i] == '\r'))
        i++;
    return i;
}

static long number(const char* s, long i, long n, double* out)
{
    int neg = 0, frac = 0;
    int64_t v = 0;
    if (i < n && s[i] == '-') {
        neg = 1;
        i++;
    }
    if (i >= n || s[i] < '0' || s[i] > '9')
        return -1;
    if (s[i] == '0') {
        i++;
    } else {
        for (int digits = 0; i < n && s[i] >= '0' && s[i] <= '9'; i++) {
            if (++digits > 15)
                return -1;
            v = 10 * v + (s[i] - '0');
        }
    }
    if (i < n && s[i] == '.') {
        if (++i >= n || s[i] != '0')
            return -1;
        while (i < n && s[i] == '0')
            i++;
        if (i < n && s[i] >= '1' && s[i] <= '9')
            return -1;
        frac = 1;
    }
    if (i < n && (s[i] == 'e' || s[i] == 'E'))
        return -1;
    double d = (double)v;
    *out = neg && (v || frac) ? -d : d;
    return i;
}

long repro_json_matrix(const char* s, long n, long i, double* out, long cap,
                       long* shape)
{
    long rows = 0, cols = -1, count = 0;
    i = skip_ws(s, i + 1, n);
    for (;;) {
        if (i >= n || s[i] != '[')
            return -1;
        i = skip_ws(s, i + 1, n);
        long c = 0;
        for (;;) {
            if (count >= cap || (i = number(s, i, n, out + count)) < 0)
                return -1;
            count++;
            c++;
            i = skip_ws(s, i, n);
            if (i < n && s[i] == ',') {
                i = skip_ws(s, i + 1, n);
                continue;
            }
            if (i < n && s[i] == ']')
                break;
            return -1;
        }
        if (cols >= 0 && c != cols)
            return -1;
        cols = c;
        rows++;
        i = skip_ws(s, i + 1, n);
        if (i < n && s[i] == ',') {
            i = skip_ws(s, i + 1, n);
            continue;
        }
        if (i < n && s[i] == ']')
            break;
        return -1;
    }
    shape[0] = rows;
    shape[1] = cols;
    return i + 1;
}
"""


def _bind_matrix(lib):
    fn = lib.repro_json_matrix
    fn.argtypes = [ctypes.c_char_p, ctypes.c_long, ctypes.c_long,
                   ctypes.c_void_p, ctypes.c_long,
                   ctypes.POINTER(ctypes.c_long)]
    fn.restype = ctypes.c_long
    return fn


def _matrix(fn, raw: bytes, start: int):
    """``(array, end)`` for the matrix at ``raw[start] == b"["``, or None
    when the kernel refuses it.  Every number takes at least two bytes
    (itself and a ``,`` or ``]``), so the buffer is always big enough."""
    out = np.empty((len(raw) - start) // 2, dtype=np.float64)
    shape = (ctypes.c_long * 2)()
    end = fn(raw, len(raw), start, out.ctypes.data, out.size, shape)
    if end < 0:
        return None
    rows, cols = shape
    return out[:rows * cols].reshape(rows, cols), end


#: Matrices the kernel must take, each followed by text it must stop at.
_TAKEN = (
    "[[0, 1, -0, -0.0, 1.0, -1.000, 999999999999999, -999999999999999]]",
    " [ [1 ,2] ,\n\t[ 3,4 ]\r]",
    "[[-0.00],[0.0],[10],[-7]]",
)
#: Values the kernel must refuse.
_REFUSED = (
    "[[1e3]]", "[[1E3]]", "[[1.5]]", "[[1.05]]", "[[1234567890123456]]",
    "[[NaN]]", "[[Infinity]]", "[[-Infinity]]", "[1, 2]", "[]", "[[]]",
    "[[1], [1, 2]]", "[[1, 2], [1]]", "[[[1]]]", "[[01]]", "[[-01]]",
    "[[1,]]", "[[1],]", "[[1.]]", "[[.5]]", "[[-]]", "[[1 2]]",
    '[["1"]]', "[[true]]", "[[null]]", "[[1]", "[[1],", "[",
)


def _matrix_self_test(fn) -> bool:
    """Kernel vs ``np.asarray(json.loads(text), dtype=np.float64)``, bit
    patterns compared so -0.0 counts, on whitespace, signed zeros, zero
    fractions, 15-digit integers and a random matrix; and a refusal for
    every token or shape outside its domain."""
    rng = np.random.default_rng(2405)
    wide = rng.integers(-10 ** 15 + 1, 10 ** 15, size=(9, 17))
    for text in _TAKEN + (json.dumps(wide.tolist()),):
        raw = (text + ' , "x"').encode()
        got = _matrix(fn, raw, text.index("["))
        want = np.asarray(json.loads(text), dtype=np.float64)
        if (got is None or got[1] != len(text) or got[0].shape != want.shape
                or not np.array_equal(got[0].view(np.uint64),
                                      want.view(np.uint64))):
            return False
    return all(_matrix(fn, text.encode(), 0) is None for text in _REFUSED)


_MATRIX_KERNEL = cbuild.CompiledKernel(
    "json_matrix", _MATRIX_SOURCE, _bind_matrix, _matrix_self_test
)


_scan_once = json.JSONDecoder().scan_once
_ws = WHITESPACE.match


def _walk(fn, raw: bytes):
    """The top-level object of ``raw``, or None when it is not a plain
    well-formed object.  Raises what the stdlib pieces raise."""
    text = raw.decode("ascii")
    idx = _ws(text, 0).end()
    if not text.startswith("{", idx):
        return None
    body = {}
    idx = _ws(text, idx + 1).end()
    more = not text.startswith("}", idx)
    while more:
        if not text.startswith('"', idx):
            return None
        key, idx = scanstring(text, idx + 1)
        idx = _ws(text, idx).end()
        if not text.startswith(":", idx):
            return None
        idx = _ws(text, idx + 1).end()
        parsed = None
        if key == "features" and text.startswith("[", idx):
            parsed = _matrix(fn, raw, idx)
        body[key], idx = parsed or _scan_once(text, idx)
        idx = _ws(text, idx).end()
        more = text.startswith(",", idx)
        if more:
            idx = _ws(text, idx + 1).end()
    if not text.startswith("}", idx):
        return None
    return body if _ws(text, idx + 1).end() == len(text) else None


def decode_body(raw: bytes):
    """``json.loads(raw)``, with a top-level ``features`` matrix parsed
    by the compiled kernel when it can be (see the module docstring).

    Raises exactly what ``json.loads(raw)`` raises.
    """
    fn = _MATRIX_KERNEL.get()
    # UTF-16 and UTF-32 bodies of ASCII text are ASCII bytes too, but
    # their NULs are never whitespace, a token or string content, so the
    # walk refuses them and they reach json.loads whole.
    if fn is not None and raw.isascii():
        try:
            body = _walk(fn, raw)
        except (ValueError, RecursionError, StopIteration):
            body = None
        if body is not None:
            return body
    return json.loads(raw)
