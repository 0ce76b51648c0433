"""Engineering benchmarks of the numpy NN substrate: writes ``BENCH_nn_ops.json``.

Not a paper artefact -- these time the building blocks that dominate the
table reproductions (Table 3's MLP III, LSTM I and CNN I train steps,
per dtype, the compiled Adam update and Dense+ReLU pair at the paper's
layer sizes, and a forward-only predict) so regressions in the
substrate are visible independently of the experiments.  Entry names
keep the ``test_<case>[<id>]`` form the committed baseline was first
recorded under.

Usage::

    PYTHONPATH=src python benchmarks/bench_nn_ops.py [--quick] [--output-dir DIR]
"""

import numpy as np

import timing
from repro.nn import Adam, CategoricalCrossentropy
from repro.nn.architectures import cnn_i, lstm_i, mlp_ii, mlp_iii
from repro.nn.losses import one_hot

BATCH = 256
INPUT_BITS = 128

def _built(factory, **compile_args):
    model = factory()
    model.build((INPUT_BITS,), rng=0)
    if compile_args:
        model.compile(**compile_args)
    return model


def _train_step_case(factory, x, y):
    """An uncompiled float64 train step: forward, loss, backward, Adam."""
    model = _built(factory)
    loss, optimizer = CategoricalCrossentropy(), Adam()

    def step():
        _, grad = loss(y, model.forward(x, training=True))
        model.backward(grad)
        optimizer.update(*model._gather())

    return step


def _adam_case(factory, dead_share=0.0):
    """One float32 Adam step over every parameter of the model.

    The step is memory-bound (no GEMM), so it isolates the compiled
    one-pass update from the rest of the train step.  With
    ``dead_share`` that share of the last hidden layer's units gets
    exactly zero gradient, their first moments at 4 * 2^-149: the
    subnormal fixed point real Table 2 training reaches, so every step
    takes the kernel's subnormal path for them.
    """
    model = _built(factory, optimizer=Adam(), dtype="float32")
    params, _ = model._gather()
    rng = np.random.default_rng(2)
    hidden = model.layers[-4].units
    if dead_share:
        dead = rng.random(hidden) < dead_share
    grads = [
        rng.standard_normal(p.shape).astype(np.float32) * np.float32(1e-3)
        for p in params
    ]
    optimizer = Adam()
    optimizer.update(params, grads)
    if dead_share:
        stuck = np.float32(4 * 2.0**-149)
        for index, param in enumerate(params):
            if param.shape[-1] == hidden:
                grads[index][..., dead] = 0
                optimizer._m[index][..., dead] = stuck
    return lambda: optimizer.update(params, grads)


def _dense_relu_case(factory):
    """Forward and backward of the model's last Dense+ReLU pair (the
    1024-wide one), float32 at batch 256: three GEMMs and the compiled
    epilogue around them.  The pair masks its incoming gradient in
    place; masking the same array again gives the same array, so one
    gradient serves every call."""
    model = _built(factory, dtype="float32")
    dense, relu = model.layers[-4], model.layers[-3]
    assert dense.relu is relu
    rng = np.random.default_rng(3)
    x = rng.standard_normal((BATCH, dense.params[0].shape[0])).astype(np.float32)
    grad = rng.standard_normal((BATCH, dense.units)).astype(np.float32)

    def step():
        relu.forward(dense.forward(x, training=True), training=True)
        dense.backward(relu.backward(grad))

    return step


def _compiled_step_case(factory, x, y, dtype):
    """The compiled hot path (fused softmax+CCE, in-place Adam)."""
    model = _built(
        factory, loss=CategoricalCrossentropy(), optimizer=Adam(), dtype=dtype
    )
    x, y = x.astype(dtype), y.astype(dtype)
    return lambda: model.train_on_batch(x, y)


def run(quick):
    rng = np.random.default_rng(1)
    x = (rng.random((BATCH, INPUT_BITS)) > 0.5).astype(np.float64)
    y = one_hot(rng.integers(0, 2, BATCH), 2)
    predictor = _built(mlp_iii)
    # (name, full-mode rounds: about a second of timed calls, thunk).
    # The float32 MLP III step is the headline: it should beat float64
    # by well over 1.5x at batch 256.
    cases = [
        ("test_train_step_throughput[MLP III]", 40, _train_step_case(mlp_iii, x, y)),
        ("test_train_step_throughput[LSTM I]", 5, _train_step_case(lstm_i, x, y)),
        ("test_train_step_throughput[CNN I]", 16, _train_step_case(cnn_i, x, y)),
        ("test_mlp_iii_train_step_dtype[float64]", 30,
         _compiled_step_case(mlp_iii, x, y, "float64")),
        ("test_mlp_iii_train_step_dtype[float32]", 70,
         _compiled_step_case(mlp_iii, x, y, "float32")),
        ("test_seq_train_step_dtype[LSTM I-float64]", 5,
         _compiled_step_case(lstm_i, x, y, "float64")),
        ("test_seq_train_step_dtype[LSTM I-float32]", 8,
         _compiled_step_case(lstm_i, x, y, "float32")),
        ("test_seq_train_step_dtype[CNN I-float64]", 16,
         _compiled_step_case(cnn_i, x, y, "float64")),
        ("test_seq_train_step_dtype[CNN I-float32]", 40,
         _compiled_step_case(cnn_i, x, y, "float32")),
        ("test_adam_update[MLP II]", 3000, _adam_case(mlp_ii)),
        ("test_adam_update[MLP III]", 500, _adam_case(mlp_iii)),
        ("test_dense_relu_step[MLP II]", 500, _dense_relu_case(mlp_ii)),
        ("test_dense_relu_step[MLP III]", 100, _dense_relu_case(mlp_iii)),
        ("test_adam_update_dead_units[MLP II]", 2000,
         _adam_case(mlp_ii, dead_share=0.025)),
        ("test_inference_throughput", 100, lambda: predictor.predict(x)),
    ]
    rows = [
        timing.entry(
            name, timing.sample(thunk, max(1, rounds // 10) if quick else rounds)
        )
        for name, rounds, thunk in cases
    ]
    return {"benchmarks": rows}


if __name__ == "__main__":
    raise SystemExit(timing.main("nn_ops", run))
