"""Engineering benchmarks: throughput of the numpy NN substrate.

Not a paper artefact — these time the building blocks that dominate the
table reproductions (Dense forward/backward at the paper's layer sizes,
one LSTM step stack, one Conv1D stack) so regressions in the substrate
are visible independently of the experiments.
"""

import numpy as np
import pytest

from repro.nn import Adam, CategoricalCrossentropy
from repro.nn.architectures import cnn_i, lstm_i, mlp_ii, mlp_iii
from repro.nn.losses import one_hot

BATCH = 256
INPUT_BITS = 128


@pytest.fixture(scope="module")
def batch():
    rng = np.random.default_rng(1)
    x = (rng.random((BATCH, INPUT_BITS)) > 0.5).astype(np.float64)
    y = one_hot(rng.integers(0, 2, BATCH), 2)
    return x, y


def _train_step(model, x, y, loss, optimizer):
    pred = model.forward(x, training=True)
    _, grad = loss(y, pred)
    model.backward(grad)
    params, grads = model._gather()
    optimizer.update(params, grads)


@pytest.mark.parametrize(
    "factory", [mlp_iii, lstm_i, cnn_i], ids=["MLP III", "LSTM I", "CNN I"]
)
def test_train_step_throughput(benchmark, factory, batch):
    x, y = batch
    model = factory()
    model.build((INPUT_BITS,), rng=0)
    loss = CategoricalCrossentropy()
    optimizer = Adam()
    benchmark(_train_step, model, x, y, loss, optimizer)


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_mlp_iii_train_step_dtype(benchmark, batch, dtype):
    """The compiled hot path (fused softmax+CCE, in-place Adam) per dtype.

    The float32 row is the headline number: it should beat the float64
    row by well over 1.5x on the paper's MLP III at batch 256.
    """
    x, y = batch
    model = mlp_iii()
    model.build((INPUT_BITS,), rng=0)
    model.compile(
        loss=CategoricalCrossentropy(), optimizer=Adam(), dtype=dtype
    )
    x = x.astype(dtype)
    y = y.astype(dtype)
    benchmark(model.train_on_batch, x, y)


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("factory", [lstm_i, cnn_i], ids=["LSTM I", "CNN I"])
def test_seq_train_step_dtype(benchmark, batch, factory, dtype):
    """The sequence models on the compiled hot path, per dtype.

    The float64 rows time the time-major LSTM / im2col Conv1D kernels
    at full precision; the float32 rows are the fast path (the LSTM I
    float64 step is pinned near its BLAS GEMM floor, so float32 is
    where the remaining headroom lives).
    """
    x, y = batch
    model = factory()
    model.build((INPUT_BITS,), rng=0)
    model.compile(
        loss=CategoricalCrossentropy(), optimizer=Adam(), dtype=dtype
    )
    x = x.astype(dtype)
    y = y.astype(dtype)
    benchmark(model.train_on_batch, x, y)


@pytest.mark.parametrize(
    "factory", [mlp_ii, mlp_iii], ids=["MLP II", "MLP III"]
)
def test_adam_update(benchmark, factory):
    """One float32 Adam step over every parameter of the model.

    The step is memory-bound (no GEMM), so this row isolates the
    compiled one-pass update from the rest of the train step.
    """
    model = factory()
    model.build((INPUT_BITS,), rng=0)
    model.compile(optimizer=Adam(), dtype="float32")
    params, _ = model._gather()
    rng = np.random.default_rng(2)
    grads = [
        rng.standard_normal(p.shape).astype(np.float32) * np.float32(1e-3)
        for p in params
    ]
    optimizer = Adam()
    optimizer.update(params, grads)
    benchmark(optimizer.update, params, grads)


def _pair_step(dense, relu, x, grad):
    relu.forward(dense.forward(x, training=True), training=True)
    dense.backward(relu.backward(grad))


@pytest.mark.parametrize(
    "factory", [mlp_ii, mlp_iii], ids=["MLP II", "MLP III"]
)
def test_dense_relu_step(benchmark, factory):
    """Forward and backward of the model's last Dense+ReLU pair (the
    1024-wide one), float32 at batch 256: three GEMMs and the compiled
    epilogue around them.

    The pair masks its incoming gradient in place; masking the same
    array again gives the same array, so one gradient serves every
    round.
    """
    model = factory()
    model.build((INPUT_BITS,), rng=0)
    model.compile(dtype="float32")
    dense, relu = model.layers[-4], model.layers[-3]
    assert dense.relu is relu
    rng = np.random.default_rng(3)
    x = rng.standard_normal(
        (BATCH, dense.params[0].shape[0])
    ).astype(np.float32)
    grad = rng.standard_normal((BATCH, dense.units)).astype(np.float32)
    benchmark(_pair_step, dense, relu, x, grad)


@pytest.mark.parametrize("factory", [mlp_ii], ids=["MLP II"])
def test_adam_update_dead_units(benchmark, factory):
    """One float32 Adam step with 2.5% of the hidden units dead.

    Their kernel columns and biases get exactly zero gradient and their
    first moments sit at 4 * 2^-149, the subnormal fixed point that
    real Table 2 training reaches, so every step takes the kernel's
    subnormal path for them.
    """
    model = factory()
    model.build((INPUT_BITS,), rng=0)
    model.compile(optimizer=Adam(), dtype="float32")
    params, _ = model._gather()
    rng = np.random.default_rng(2)
    hidden = model.layers[-4].units
    dead = rng.random(hidden) < 0.025
    grads = [
        rng.standard_normal(p.shape).astype(np.float32) * np.float32(1e-3)
        for p in params
    ]
    optimizer = Adam()
    optimizer.update(params, grads)
    stuck = np.float32(4 * 2.0**-149)
    for index, param in enumerate(params):
        if param.shape[-1] == hidden:
            grads[index][..., dead] = 0
            optimizer._m[index][..., dead] = stuck
    benchmark(optimizer.update, params, grads)


def test_inference_throughput(benchmark, batch):
    x, _ = batch
    model = mlp_iii()
    model.build((INPUT_BITS,), rng=0)
    result = benchmark(model.predict, x)
    assert result.shape == (BATCH, 2)
