"""Post-training int8 quantized inference.

The distinguisher decides CIPHER vs RANDOM by thresholding an
*accuracy*, so inference precision only matters when it moves verdicts
— which leaves a lot of headroom.  :func:`quantize_model` converts a
trained float :class:`~repro.nn.model.Sequential` into a
:class:`QuantizedSequential` whose Dense and Conv1D weight matrices are
quantized per-tensor symmetric (``scale = max|W| / 127``) to int8 and
whose matmuls run on integers: activations are quantized **per row**
(dynamic asymmetric uint8), the product accumulates exactly in int32,
and one fused dequantization step maps back to float32::

    q_x[i, :] = clip(rint(x[i, :] / s_i) + z_i, 0, 255)     (uint8)
    acc       = q_x @ q_w                                    (int32)
    y[i, :]   = (acc[i, :] - z_i * colsum(q_w)) * (s_i * s_w) + b

Per-row (not per-batch) activation scales are what make batched and
unbatched predictions *bitwise identical* — each row's ``(s_i, z_i)``
depends only on that row, and the integer matmul is exact no matter how
rows are grouped — so the micro-batching engine's coalescing guarantee
survives quantization unchanged.  Every other parameter (biases, LSTM
weights, small matrices) stays float32.

The integer matmul runs through the compiled VNNI kernel when
:mod:`repro.nn.backend.qkernel` builds and passes its self-test, and
falls back to :func:`int8_affine_numpy` otherwise — a float64 GEMM on
the integer-valued operands (every u8×s8 product is ≤ 2^15 and
practical reductions stay far below 2^53), exact and **bit-identical**
to the kernel; it is also the reference the kernel's self-test checks.

Distinguisher inputs are bit vectors (values in {0, 1}), so the first
quantized layer introduces *zero* input error; accumulated weight
rounding is re-measured on a held-out set at registration time and the
accuracy delta is recorded in the registry manifest
(:meth:`~repro.serve.registry.ModelRegistry.register_quantized`).
"""

from __future__ import annotations

import hashlib
import json
import zipfile
from typing import Dict, Optional, Tuple

import numpy as np

from repro.errors import LayerError, TrainingError
from repro.nn.backend import qkernel
from repro.nn.conv import Conv1D
from repro.nn.layers import Dense
from repro.nn.model import Sequential, _layer_class
from repro.utils.atomic import atomic_savez

#: Bump when the quantized artifact layout changes incompatibly.
QUANT_FORMAT_VERSION = 1

#: Weight matrices smaller than this stay float32: per-row activation
#: quantization costs a full pass over the input, which only pays for
#: itself when it shrinks a large weight stream (the int8 win is
#: bandwidth, and tiny GEMMs are not bandwidth-bound).  2^15 elements
#: ≈ a 128x256 Dense kernel.
INT8_MIN_WEIGHT_ELEMS = 1 << 15


# -- weight/activation quantization primitives -----------------------------


def quantize_weight(w: np.ndarray) -> Tuple[np.ndarray, float]:
    """Per-tensor symmetric int8: ``(q, scale)`` with ``q*scale ~ w``."""
    w = np.asarray(w, dtype=np.float64)
    peak = float(np.abs(w).max()) if w.size else 0.0
    scale = peak / 127.0 if peak > 0.0 else 1.0
    q = np.clip(np.rint(w / scale), -127, 127).astype(np.int8)
    return q, scale


def quantize_rows(x: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dynamic asymmetric uint8 quantization, one ``(scale, zp)`` per row.

    Returns ``(q_u8, scales_f32, zero_points_i32)``.  The range always
    includes zero so exact zeros stay exact, and every quantity depends
    only on its own row — the property that keeps batched and unbatched
    inference bitwise identical.  All-zero rows get ``scale = 0`` and
    quantize to the zero point exactly.
    """
    x = np.ascontiguousarray(x, dtype=np.float32)
    lo = np.minimum(x.min(axis=1), np.float32(0.0))
    hi = np.maximum(x.max(axis=1), np.float32(0.0))
    scale = (hi - lo) / np.float32(255.0)
    inv = np.zeros_like(scale)
    np.divide(np.float32(1.0), scale, out=inv, where=scale > 0)
    zp = np.rint(-lo * inv).astype(np.int32)
    # Stay in float32 end to end (zp fits exactly) and reuse one
    # buffer: the intermediate passes are a large share of quantized
    # inference time.
    buf = x * inv[:, None]
    np.rint(buf, out=buf)
    buf += zp.astype(np.float32)[:, None]
    np.clip(buf, 0, 255, out=buf)
    return buf.astype(np.uint8), scale, zp


class _Int8Linear:
    """An int8 weight matrix + bias and the constants its matmuls need.

    A missing bias is stored as a zero vector so the numpy fallback and
    the fused kernel (which always adds its bias operand) perform the
    identical float op sequence.
    """

    def __init__(self, q: np.ndarray, scale: float, bias: Optional[np.ndarray]):
        self.q = np.ascontiguousarray(q, dtype=np.int8)
        self.scale = np.float32(scale)
        # colsum(q_w) is the zero-point correction term; |colsum| ≤
        # 127 * k so int32 holds it (and z_i * colsum ≤ 255 * 127 * k
        # stays in int32 for any practical k).
        self.colsum = self.q.astype(np.int32).sum(axis=0)
        self.bias = (
            np.zeros(self.m, dtype=np.float32)
            if bias is None
            else np.ascontiguousarray(bias, dtype=np.float32)
        )
        self._kernel_data: Optional[Tuple] = None

    @property
    def k(self) -> int:
        return self.q.shape[0]

    @property
    def m(self) -> int:
        return self.q.shape[1]

    def kernel_data(self) -> Tuple:
        """``(packed, kp, mp, colsum_padded, bias_padded)`` for the
        compiled kernel, built once on first use."""
        if self._kernel_data is None:
            packed, kp, mp = qkernel.pack_weights(self.q)
            colsum_padded = np.zeros(mp, dtype=np.int32)
            colsum_padded[: self.m] = self.colsum
            bias_padded = np.zeros(mp, dtype=np.float32)
            bias_padded[: self.m] = self.bias
            self._kernel_data = (packed, kp, mp, colsum_padded, bias_padded)
        return self._kernel_data


def int8_affine(x: np.ndarray, linear: _Int8Linear) -> np.ndarray:
    """Quantize-matmul-dequantize in one step: float32 in, float32 out.

    Kernel and numpy paths compute the identical float op sequence
    (int32-exact accumulation and correction, then ``f32(corr) * rs +
    bias`` with mul-then-add rounding), so they are bit-identical.
    """
    if not qkernel.kernel_in_use():
        return int8_affine_numpy(x, linear)
    packed, kp, mp, colsum_padded, bias_padded = linear.kernel_data()
    x = np.ascontiguousarray(x, dtype=np.float32)
    out = qkernel.qaffine(
        x, packed, linear.scale, kp, mp, colsum_padded, bias_padded
    )
    if mp != linear.m:
        out = np.ascontiguousarray(out[:, : linear.m])
    return out


def int8_affine_numpy(x: np.ndarray, linear: _Int8Linear) -> np.ndarray:
    """The numpy spelling of :func:`int8_affine`: the fallback when the
    compiled kernel is unavailable, and the reference its load-time
    self-test must match bitwise."""
    q, scale, zp = quantize_rows(x)
    rowscale = scale * linear.scale
    acc = (q.astype(np.float64) @ linear.q.astype(np.float64)).astype(np.int32)
    corrected = acc - zp[:, None] * linear.colsum[None, :]
    out = corrected.astype(np.float32)
    out *= rowscale[:, None]
    out += linear.bias
    return out


# -- quantized execution layers --------------------------------------------


class _Int8Dense(Dense):
    """Inference-only Dense whose matmul runs on int8 weights."""

    def __init__(self, units, use_bias, linear: _Int8Linear):
        super().__init__(units, use_bias=use_bias)
        self._linear = linear
        self.built = True

    def forward(self, x, training=False):
        if training:
            raise TrainingError("quantized layers are inference-only")
        return int8_affine(x, self._linear)


class _Int8Conv1D(Conv1D):
    """Inference-only Conv1D: float im2col, quantized column matmul."""

    def __init__(
        self, filters, kernel_size, padding, use_bias, linear: _Int8Linear
    ):
        super().__init__(
            filters, kernel_size, padding=padding, use_bias=use_bias
        )
        self._linear = linear
        self.built = True

    def forward(self, x, training=False):
        if training:
            raise TrainingError("quantized layers are inference-only")
        n = x.shape[0]
        cols, padded_steps = self._im2col(x)
        out_steps = padded_steps - self.kernel_size + 1
        out = int8_affine(cols, self._linear)
        return out.reshape(n, out_steps, self.filters)


# -- the quantized model ---------------------------------------------------


class QuantizedSequential:
    """An int8-quantized, inference-only variant of a :class:`Sequential`.

    Holds the parent's architecture config plus the quantized parameter
    arrays, and materialises an executable float32 stack on
    construction.  Exposes the inference subset of the ``Sequential``
    API (``predict`` / ``predict_proba`` / ``predict_classes``,
    ``input_shape``, ``dtype``), which is all the serving engine needs,
    plus ``save`` / ``load`` / ``digest`` for registry storage.
    """

    #: The scheme name written into every artifact's config and digest
    #: and recorded in the registry manifest.
    scheme = "int8"

    def __init__(self, config: dict, arrays: Dict[str, np.ndarray]):
        self.config = config
        self.arrays = dict(arrays)
        self.input_shape: Tuple[int, ...] = tuple(
            int(s) for s in config["input_shape"]
        )
        #: Compute dtype of the executable stack (all arithmetic
        #: outside the integer matmuls is float32).
        self.dtype = np.dtype(np.float32)
        self._exec = self._build_exec()

    # -- execution stack ---------------------------------------------------

    def _layer_arrays(self, index: int):
        """Yield ``(plain, q, scale)`` per param of layer ``index``."""
        slot = 0
        while True:
            base = f"layer{index}_param{slot}"
            if base in self.arrays:
                yield self.arrays[base], None, None
            elif f"{base}_q" in self.arrays:
                yield (
                    None,
                    self.arrays[f"{base}_q"],
                    float(self.arrays[f"{base}_scale"]),
                )
            else:
                return
            slot += 1

    def _check_arrays(self) -> None:
        """Raise :class:`LayerError` unless every parameter the
        architecture needs is stored, with its shape."""
        reference = Sequential(
            [
                _layer_class(entry["class"])(**entry["config"])
                for entry in self.config["layers"]
            ]
        ).build(self.input_shape, rng=0)
        for index, layer in enumerate(reference.layers):
            stored = [
                (plain if plain is not None else q).shape
                for plain, q, _scale in self._layer_arrays(index)
            ]
            expected = [param.shape for param in layer.params]
            if stored != expected:
                raise LayerError(
                    f"layer {index} ({layer.name}) stores parameters of "
                    f"shapes {stored}; the architecture needs {expected}"
                )

    def _build_exec(self) -> Sequential:
        layers = []
        for index, entry in enumerate(self.config["layers"]):
            cls = _layer_class(entry["class"])
            cfg = entry["config"]
            stored = list(self._layer_arrays(index))
            quantized = next(
                ((q, scale) for plain, q, scale in stored if q is not None),
                None,
            )
            if quantized is not None and cls not in (Dense, Conv1D):
                raise LayerError(
                    f"layer {index} ({entry['class']}) stores int8 "
                    f"parameters; only Dense and Conv1D run int8 matmuls"
                )
            if quantized is not None:
                use_bias = cfg.get("use_bias", True)
                bias = (
                    self.arrays[f"layer{index}_param1"].astype(np.float32)
                    if use_bias
                    else None
                )
                # The matmul operand is 2-D: the Dense kernel as stored,
                # or the (k*channels, filters) reshape the conv's im2col
                # columns multiply against.
                q2 = quantized[0].reshape(-1, quantized[0].shape[-1])
                linear = _Int8Linear(q2, quantized[1], bias)
                if cls is Dense:
                    layers.append(_Int8Dense(cfg["units"], use_bias, linear))
                else:
                    layers.append(
                        _Int8Conv1D(
                            cfg["filters"], cfg["kernel_size"],
                            cfg.get("padding", "valid"), use_bias, linear,
                        )
                    )
                continue
            layer = cls(**cfg)
            params = [plain.astype(np.float32) for plain, _q, _s in stored]
            if params:
                layer.params = params
                layer.grads = [np.zeros_like(p) for p in params]
                layer.built = True
            layers.append(layer)
        model = Sequential(layers)
        model.dtype = self.dtype
        model.build(self.input_shape, rng=0)
        return model

    # -- inference ---------------------------------------------------------

    def predict(self, x: np.ndarray, batch_size: int = 4096) -> np.ndarray:
        return self._exec.predict(x, batch_size)

    def predict_proba(self, x: np.ndarray, batch_size: int = 4096) -> np.ndarray:
        return self._exec.predict_proba(x, batch_size)

    def predict_classes(self, x: np.ndarray, batch_size: int = 4096) -> np.ndarray:
        return self._exec.predict_classes(x, batch_size)

    def accuracy(self, x: np.ndarray, labels: np.ndarray) -> float:
        """Classification accuracy against integer ``labels``."""
        labels = np.asarray(labels)
        return float((self.predict_classes(x) == labels).mean())

    def count_params(self) -> int:
        """Parameter count of the parent architecture."""
        total = 0
        for index in range(len(self.config["layers"])):
            for plain, q, _scale in self._layer_arrays(index):
                total += int((plain if plain is not None else q).size)
        return total

    # -- persistence -------------------------------------------------------

    def save(self, path: str) -> None:
        """Persist scheme + architecture + quantized arrays to ``.npz``."""
        config = dict(self.config)
        config["quant_scheme"] = self.scheme
        config["quant_format_version"] = QUANT_FORMAT_VERSION
        arrays = {
            "config": np.frombuffer(
                json.dumps(config).encode(), dtype=np.uint8
            )
        }
        arrays.update(self.arrays)
        atomic_savez(path, **arrays)

    @classmethod
    def load(cls, path: str) -> "QuantizedSequential":
        """Rebuild a variant saved with :meth:`save`.

        The contract of :meth:`Sequential.load`: a torn archive, an
        unparsable config, a scheme other than int8, int8 parameters on
        a layer other than Dense/Conv1D, or a missing or misshapen array
        raises :class:`LayerError`; a missing file stays
        ``FileNotFoundError``, and a float model file is a
        :class:`TrainingError`.
        """
        try:
            with np.load(path) as data:
                config = json.loads(bytes(data["config"]).decode())
                arrays = {
                    key: np.array(data[key])
                    for key in data.files
                    if key != "config"
                }
            if not isinstance(config, dict):
                raise ValueError("config is not a JSON object")
            scheme = config.pop("quant_scheme", None)
            config.pop("quant_format_version", None)
            if scheme is None:
                raise TrainingError(
                    f"{path!r} is not a quantized model artifact"
                )
            if scheme != cls.scheme:
                raise LayerError(
                    f"{path!r} uses quantization scheme {scheme!r}; only "
                    f"{cls.scheme!r} is supported"
                )
            model = cls(config, arrays)
            model._check_arrays()
        except (zipfile.BadZipFile, EOFError, KeyError, TypeError,
                ValueError) as exc:
            raise LayerError(
                f"corrupt quantized model file {path!r}: {exc!r}"
            ) from None
        return model

    def digest(self) -> str:
        """SHA-256 content address over scheme, config, and array bytes."""
        config = dict(self.config)
        config["quant_scheme"] = self.scheme
        digest = hashlib.sha256()
        digest.update(json.dumps(config, sort_keys=True).encode())
        for key in sorted(self.arrays):
            array = self.arrays[key]
            digest.update(key.encode())
            digest.update(str(array.dtype).encode())
            digest.update(str(array.shape).encode())
            digest.update(np.ascontiguousarray(array).tobytes())
        return digest.hexdigest()


def quantize_model(
    model: Sequential, min_weight_elems: int = INT8_MIN_WEIGHT_ELEMS
) -> QuantizedSequential:
    """Produce the int8 variant of a built ``model``.

    Dense and Conv1D weight matrices with at least ``min_weight_elems``
    elements are quantized to int8; smaller ones stay float32 — the
    per-row activation quantization pass costs more than such a small
    GEMM saves (pass ``0`` to quantize every Dense/Conv1D matrix).
    Biases and every other layer's parameters stay float32.  The parent
    model is not modified.
    """
    if model.input_shape is None:
        raise TrainingError("build the model before quantizing it")
    config = {
        "input_shape": list(model.input_shape),
        "dtype": "float32",
        "layers": [
            {"class": layer.name, "config": layer.get_config()}
            for layer in model.layers
        ],
    }
    arrays: Dict[str, np.ndarray] = {}
    for index, layer in enumerate(model.layers):
        matmul = type(layer) in (Dense, Conv1D)
        for slot, param in enumerate(layer.params):
            base = f"layer{index}_param{slot}"
            if matmul and param.ndim >= 2 and param.size >= min_weight_elems:
                q, scale = quantize_weight(param)
                arrays[f"{base}_q"] = q
                arrays[f"{base}_scale"] = np.float32(scale)
            else:
                arrays[base] = param.astype(np.float32)
    return QuantizedSequential(config, arrays)
