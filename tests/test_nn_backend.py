"""Bit-identity pins for the numpy layer and loss kernels.

Every elementwise layer, Dense and both cross-entropies are compared
*bitwise*, in float32 and float64, against test-local reference
functions.  The references are spelled independently of the library
(explicit ufunc calls where the layers use operators, and vice versa)
but round identically, so any divergence means a kernel's arithmetic
changed.  Whole models, among them Table 3's MLP I–VI, are pinned three
ways: a forward/backward walk that swaps every referenced layer for its
reference must reproduce the model bit for bit, two ``fit`` runs from
one seed must train bit-identical parameters, and a fit through the
compiled Dense+ReLU epilogue must train the same bytes as one with the
epilogue forced off.  LSTM and Conv1D keep their own seed pins in
``tests/test_nn_seq_kernels.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import (
    LSTM,
    BinaryCrossentropy,
    CategoricalCrossentropy,
    Conv1D,
    Dense,
    Flatten,
    LeakyReLU,
    ReLU,
    Reshape,
    Sequential,
    Sigmoid,
    Softmax,
    Tanh,
)
from nn_helpers import compiled_kernels_expected
from repro.nn import layers as layers_mod
from repro.nn.architectures import TABLE3_NETWORKS
from repro.nn.layers import _sigmoid

DTYPES = ["float32", "float64"]

# -- reference kernels -------------------------------------------------------


def ref_affine(x, w, b):
    out = np.matmul(x, w)
    np.add(out, b, out=out)
    return out


def ref_dense_backward(x, w, grad):
    """``(input_grad, [kernel_grad, bias_grad])``."""
    return np.matmul(grad, w.T), [np.matmul(x.T, grad), np.sum(grad, axis=0)]


def ref_relu(x):
    mask = np.greater(x, 0)
    return np.multiply(x, mask), mask


def ref_leaky_relu(x, alpha):
    mask = np.greater(x, 0)
    return np.where(mask, x, np.multiply(alpha, x)), mask


def ref_sigmoid(x):
    return np.reciprocal(np.add(np.exp(np.negative(np.clip(x, -500, 500))), 1.0))


def ref_softmax(x):
    exp = np.exp(np.subtract(x, np.max(x, axis=-1, keepdims=True)))
    return np.divide(exp, np.sum(exp, axis=-1, keepdims=True))


#: Layers with a reference kernel below; the rest run their own code.
REFERENCED = (Dense, ReLU, LeakyReLU, Sigmoid, Tanh, Softmax)


def ref_forward(layer, x):
    """``(output, context)`` of ``layer`` on ``x`` via the references."""
    if isinstance(layer, Dense):
        return ref_affine(x, layer.params[0], layer.params[1]), x
    if isinstance(layer, ReLU):
        return ref_relu(x)
    if isinstance(layer, LeakyReLU):
        return ref_leaky_relu(x, layer.alpha)
    if isinstance(layer, Sigmoid):
        out = ref_sigmoid(x)
        return out, out
    if isinstance(layer, Tanh):
        out = np.tanh(x)
        return out, out
    if isinstance(layer, Softmax):
        out = ref_softmax(x)
        return out, out
    raise TypeError(type(layer).__name__)


def ref_backward(layer, ctx, grad):
    """``(input_grad, param_grads)`` of ``layer`` via the references."""
    if isinstance(layer, Dense):
        return ref_dense_backward(ctx, layer.params[0], grad)
    if isinstance(layer, ReLU):
        return np.multiply(grad, ctx), []
    if isinstance(layer, LeakyReLU):
        return np.where(ctx, grad, np.multiply(layer.alpha, grad)), []
    if isinstance(layer, Sigmoid):
        return np.multiply(np.multiply(grad, ctx), np.subtract(1.0, ctx)), []
    if isinstance(layer, Tanh):
        return np.multiply(grad, np.subtract(1.0, np.square(ctx))), []
    if isinstance(layer, Softmax):
        inner = np.sum(np.multiply(grad, ctx), axis=-1, keepdims=True)
        return np.multiply(ctx, np.subtract(grad, inner)), []
    raise TypeError(type(layer).__name__)


def ref_cce(y, p):
    n = y.shape[0]
    clipped = np.clip(p, 1e-12, 1.0)
    loss = np.divide(np.negative(np.sum(np.multiply(y, np.log(clipped)))), n)
    return float(loss), np.divide(np.negative(np.divide(y, clipped)), n)


def ref_cce_logits(y, z):
    n = y.shape[0]
    shifted = np.subtract(z, np.max(z, axis=-1, keepdims=True))
    log_probs = np.subtract(
        shifted, np.log(np.sum(np.exp(shifted), axis=-1, keepdims=True))
    )
    loss = np.divide(np.negative(np.sum(np.multiply(y, log_probs))), n)
    return float(loss), np.divide(np.subtract(np.exp(log_probs), y), n)


def ref_bce(y, p):
    n = y.shape[0]
    eps = 1e-12
    clipped = np.clip(p, eps, 1.0 - eps)
    terms = np.add(
        np.multiply(y, np.log(clipped)),
        np.multiply(np.subtract(1.0, y), np.log(np.subtract(1.0, clipped))),
    )
    loss = np.divide(np.negative(np.sum(terms)), n)
    grad = np.divide(
        np.divide(
            np.subtract(clipped, y),
            np.multiply(clipped, np.subtract(1.0, clipped)),
        ),
        n,
    )
    return float(loss), grad


def _bits(array):
    return np.ascontiguousarray(array).tobytes()


# -- per-layer pins ----------------------------------------------------------

LAYERS = {
    "dense": lambda: Dense(5),
    "relu": ReLU,
    "leaky_relu": lambda: LeakyReLU(0.1),
    "sigmoid": Sigmoid,
    "tanh": Tanh,
    "softmax": Softmax,
}


def _built_layer(name, dtype, rng_factory, features=7):
    layer = LAYERS[name]()
    layer.set_dtype(dtype)
    layer.build((features,), rng_factory(3))
    if layer.params:
        # A non-zero bias so the add is exercised.
        layer.params[1][...] = rng_factory(4).normal(size=layer.params[1].shape)
    return layer


@pytest.mark.parametrize("name", sorted(LAYERS))
@pytest.mark.parametrize("dtype", DTYPES)
class TestLayerKernels:
    def test_forward_matches_reference(self, name, dtype, rng_factory):
        layer = _built_layer(name, dtype, rng_factory)
        # Wide inputs reach the sigmoid clip and the ReLU zero side.
        x = (rng_factory(5).normal(size=(9, 7)) * 40.0).astype(dtype)
        expected, _ = ref_forward(layer, x)
        out = layer.forward(x, training=False)
        assert out.dtype == np.dtype(dtype)
        assert _bits(out) == _bits(expected)

    def test_backward_matches_reference(self, name, dtype, rng_factory):
        layer = _built_layer(name, dtype, rng_factory)
        x = rng_factory(6).normal(size=(9, 7)).astype(dtype)
        out = layer.forward(x, training=True)
        grad = rng_factory(7).normal(size=out.shape).astype(dtype)
        _, ctx = ref_forward(layer, x)
        expected_input, expected_params = ref_backward(layer, ctx, grad)
        assert _bits(layer.backward(grad)) == _bits(expected_input)
        for got, expected in zip(layer.grads, expected_params):
            assert _bits(got) == _bits(expected)


@pytest.mark.parametrize("dtype", DTYPES)
class TestLossKernels:
    def _targets(self, rng_factory, dtype, shape=(12, 3)):
        labels = rng_factory(8).integers(0, shape[1], size=shape[0])
        return np.eye(shape[1], dtype=dtype)[labels]

    def test_categorical_crossentropy(self, dtype, rng_factory):
        y = self._targets(rng_factory, dtype)
        # Sharp rows put tiny probabilities under the 1e-12 clip.
        p = ref_softmax(rng_factory(9).normal(size=y.shape) * 30.0).astype(dtype)
        loss = CategoricalCrossentropy()
        value, grad = loss(y, p)
        expected_value, expected_grad = ref_cce(y, p)
        assert value == expected_value
        assert _bits(grad) == _bits(expected_grad)
        assert loss.value(y, p) == expected_value

    def test_categorical_crossentropy_from_logits(self, dtype, rng_factory):
        y = self._targets(rng_factory, dtype)
        z = (rng_factory(10).normal(size=y.shape) * 5.0).astype(dtype)
        loss = CategoricalCrossentropy(from_logits=True)
        value, grad = loss(y, z)
        expected_value, expected_grad = ref_cce_logits(y, z)
        assert value == expected_value
        assert _bits(grad) == _bits(expected_grad)
        assert loss.value(y, z) == expected_value

    def test_binary_crossentropy(self, dtype, rng_factory):
        y = rng_factory(11).integers(0, 2, size=(12, 1)).astype(dtype)
        p = ref_sigmoid(rng_factory(12).normal(size=y.shape) * 4.0).astype(dtype)
        value, grad = BinaryCrossentropy()(y, p)
        expected_value, expected_grad = ref_bce(y, p)
        assert value == expected_value
        assert _bits(grad) == _bits(expected_grad)


# -- whole-model pins --------------------------------------------------------


def _mlp(classes=3):
    return [Dense(16), ReLU(), Dense(8), Sigmoid(), Dense(classes), Softmax()]


def _cnn(classes=3):
    return [
        Reshape((8, 2)),
        Conv1D(6, 3, padding="same"),
        Tanh(),
        Conv1D(4, 3),
        LeakyReLU(0.1),
        Flatten(),
        Dense(classes),
        Softmax(),
    ]


def _lstm(classes=3):
    return [Reshape((4, 4)), LSTM(7), Dense(classes), Softmax()]


def _table3_mlp(name):
    """Table 3's MLP ``name`` with a ``classes``-way head."""

    def layers(classes=3):
        hidden = TABLE3_NETWORKS[name]["factory"]().layers[:-2]
        return hidden + [Dense(classes), Softmax()]

    return layers


ARCHES = {"mlp": _mlp, "cnn": _cnn, "lstm": _lstm}
ARCHES.update(
    (name, _table3_mlp(name))
    for name in ("MLP I", "MLP II", "MLP III", "MLP IV", "MLP V", "MLP VI")
)


def _model(arch, dtype, rng_factory):
    model = Sequential(ARCHES[arch]())
    model.build((16,), rng_factory(7))
    model.compile(dtype=dtype)
    return model


def _walk_forward(model, x):
    """Forward through ``model`` with every referenced layer swapped for
    its reference; other layers (Reshape, Flatten, Conv1D, LSTM) run
    their own training forward.  Returns the output and per-layer
    contexts."""
    contexts = []
    for layer in model.layers:
        if isinstance(layer, REFERENCED):
            x, ctx = ref_forward(layer, x)
        else:
            x, ctx = layer.forward(x, training=True), None
        contexts.append(ctx)
    return x, contexts


def _fit_bits(arch, dtype, rng_factory):
    """Parameters and probe predictions after a seeded two-epoch fit."""
    model = _model(arch, dtype, rng_factory)
    x = rng_factory(14).random((48, 16)).astype(dtype)
    labels = rng_factory(15).integers(0, 3, size=48)
    model.fit(x, labels, epochs=2, batch_size=16, shuffle=True, rng=5)
    probe = rng_factory(16).random((8, 16)).astype(dtype)
    return [_bits(model.predict_proba(probe))] + [
        _bits(param) for layer in model.layers for param in layer.params
    ]


@pytest.mark.parametrize("arch", sorted(ARCHES))
@pytest.mark.parametrize("dtype", DTYPES)
class TestBitIdentity:
    def test_forward_bitwise(self, arch, dtype, rng_factory):
        model = _model(arch, dtype, rng_factory)
        x = rng_factory(11).random((32, 16)).astype(dtype)
        expected, _ = _walk_forward(model, x)
        out = model.predict_proba(x, batch_size=32)
        assert out.dtype == expected.dtype
        assert _bits(out) == _bits(expected)

    def test_backward_bitwise(self, arch, dtype, rng_factory):
        model = _model(arch, dtype, rng_factory)
        walked = _model(arch, dtype, rng_factory)
        x = rng_factory(12).random((16, 16)).astype(dtype)
        y = np.eye(3, dtype=dtype)[rng_factory(13).integers(0, 3, size=16)]

        out = model.forward(x, training=True)
        loss_value, grad = model.loss(y, out)
        model.backward(grad)

        ref_out, contexts = _walk_forward(walked, x)
        expected_loss, grad = ref_cce(y, ref_out)
        assert loss_value == expected_loss
        for layer, walked_layer, ctx in zip(
            reversed(model.layers), reversed(walked.layers), reversed(contexts)
        ):
            if isinstance(walked_layer, REFERENCED):
                grad, expected_params = ref_backward(walked_layer, ctx, grad)
            else:
                grad = walked_layer.backward(grad)
                expected_params = walked_layer.grads
            for got, expected in zip(layer.grads, expected_params):
                assert _bits(got) == _bits(expected)
            if grad is None:
                break

    def test_full_fit_bitwise(self, arch, dtype, rng_factory):
        """Two fits from one seed train bit-identical models."""
        assert _fit_bits(arch, dtype, rng_factory) == _fit_bits(
            arch, dtype, rng_factory
        )

    def test_fit_bitwise_without_epilogue(
        self, arch, dtype, rng_factory, monkeypatch
    ):
        """A fit through the compiled Dense+ReLU epilogue and one on the
        numpy path train the same bytes."""
        if compiled_kernels_expected():
            assert layers_mod._EPILOGUE_KERNEL.get() is not None
        fused = _fit_bits(arch, dtype, rng_factory)
        monkeypatch.setattr(layers_mod._EPILOGUE_KERNEL, "get", lambda: None)
        assert _fit_bits(arch, dtype, rng_factory) == fused


class TestOpContracts:
    """Spot checks of the kernels the layers share."""

    def test_affine_matches_matmul_plus_bias(self, rng):
        layer = Dense(3)
        layer.set_dtype(np.float32)
        layer.build((7,), rng)
        layer.params[1][...] = rng.random(3)
        x = rng.random((5, 7)).astype(np.float32)
        expected = x @ layer.params[0]
        expected += layer.params[1]
        assert _bits(layer.forward(x)) == _bits(expected)

    def test_sigmoid_into_matches_sigmoid(self, rng):
        for dtype in DTYPES:
            x = rng.normal(scale=200.0, size=(4, 9)).astype(dtype)
            out = np.empty_like(x)
            # float32 exp overflows to inf past ~88; 1 / inf is exactly 0.
            with np.errstate(over="ignore"):
                assert _sigmoid(x, out) is out
                expected = 1.0 / (1.0 + np.exp(-np.clip(x, -500, 500)))
            assert _bits(out) == _bits(expected)

    def test_softmax_rows_sum_to_one(self, rng):
        out = Softmax().forward(rng.normal(size=(6, 4)))
        assert np.allclose(out.sum(axis=-1), 1.0)

    def test_lstm_gates_layout(self, rng):
        units = 3
        layer = LSTM(units)
        layer.build((2, 4), rng)
        x = rng.normal(size=(5, 2, 4))
        layer.forward(x, training=True)
        # z at t == 0 is the hoisted input projection plus the bias.
        z = layer._scratch["xp"][0] + layer.params[2]
        gates = layer._cache["gates"][0]
        for index in (0, 1, 3):
            block = z[:, index * units:(index + 1) * units]
            assert _bits(gates[index]) == _bits(ref_sigmoid(block))
        assert _bits(gates[2]) == _bits(np.tanh(z[:, 2 * units:3 * units]))
