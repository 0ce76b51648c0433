"""Kernel-equivalence tests for the hot-path rewrites.

The fused softmax+CCE backward, the in-place optimizers, the compiled
Adam step, the compiled Dense+ReLU epilogue and the Dense ``out=``
backward are pure performance work: each must match its reference
formulation — the optimizers and the epilogue bit-for-bit (their
arithmetic order is preserved), the fused gradient to float tolerance
(it is algebraically identical but rounds differently).  The compiled
kernels' on-disk cache must survive corruption without changing a
number, and no layer may write an array the caller passed in.
"""

import os
import pickle
import shutil
import tracemalloc

import numpy as np
import pytest

from nn_helpers import compiled_kernels_expected, registered_kernels
from repro.ciphers.gimli import gimli_permute_batch
from repro.nn import layers, optimizers
from repro.nn.conv import Conv1D
from repro.nn.layers import (
    Dense,
    Dropout,
    Flatten,
    LeakyReLU,
    ReLU,
    Reshape,
    Softmax,
    dense_relu_numpy,
)
from repro.nn.losses import CategoricalCrossentropy, one_hot
from repro.nn.model import Sequential
from repro.nn.optimizers import SGD, Adam, adam_step_numpy
from repro.nn.quant import _Int8Linear, int8_affine, quantize_weight
from repro.search import oracle as search_oracle
from repro.search.config import get_scenario_builder
from repro.serve import body as serve_body
from repro.utils import cbuild


def _toy_batch(seed=0, n=32, features=16, classes=3):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, features))
    y = one_hot(rng.integers(0, classes, n), classes)
    return x, y


def _toy_model(classes=3, seed=7):
    model = Sequential([Dense(24), ReLU(), Dense(classes), Softmax()])
    model.build((16,), rng=seed)
    return model


class TestFusedSoftmaxCCE:
    def test_fused_flag_detection(self):
        model = _toy_model()
        model.compile()
        assert model._fused_softmax_cce()
        model.compile(loss=CategoricalCrossentropy(from_logits=True))
        assert not model._fused_softmax_cce()
        no_softmax = Sequential([Dense(3)])
        no_softmax.build((16,), rng=0)
        no_softmax.compile()
        assert not no_softmax._fused_softmax_cce()

    def test_fused_gradient_matches_jacobian_path(self):
        x, y = _toy_batch()
        loss = CategoricalCrossentropy()
        fused = _toy_model()
        unfused = _toy_model()
        pred_f = fused.forward(x, training=True)
        pred_u = unfused.forward(x, training=True)
        assert np.array_equal(pred_f, pred_u)
        # Fused: (p - y) / n straight into the layer below the softmax.
        grad = (pred_f - y) / y.shape[0]
        for layer in reversed(fused.layers[:-1]):
            grad = layer.backward(grad)
        # Reference: CCE gradient through the softmax Jacobian.
        _, grad_u = loss(y, pred_u)
        unfused.backward(grad_u)
        for pf, pu in zip(fused._gather()[1], unfused._gather()[1]):
            np.testing.assert_allclose(pf, pu, rtol=1e-9, atol=1e-12)

    def test_fused_loss_value_matches_unfused(self):
        x, y = _toy_batch(seed=3)
        model = _toy_model()
        pred = model.forward(x)
        loss = CategoricalCrossentropy()
        reference, _ = loss(y, pred)
        assert loss.value(y, pred) == pytest.approx(reference, rel=1e-12)

    def test_fit_trains_identically_to_manual_unfused_loop(self):
        """End to end: `fit` (fused) reaches the same weights, to float
        tolerance, as the explicit unfused loop with the same streams."""
        x, y = _toy_batch(seed=5, n=64)
        fused = _toy_model()
        fused.compile(optimizer=Adam())
        fused.fit(x, y, epochs=3, batch_size=16, shuffle=False, rng=0)
        manual = _toy_model()
        loss = CategoricalCrossentropy()
        optimizer = Adam()
        for _ in range(3):
            for begin in range(0, 64, 16):
                xb, yb = x[begin:begin + 16], y[begin:begin + 16]
                pred = manual.forward(xb, training=True)
                _, grad = loss(yb, pred)
                manual.backward(grad)
                params, grads = manual._gather()
                optimizer.update(params, grads)
        for pf, pm in zip(fused._gather()[0], manual._gather()[0]):
            np.testing.assert_allclose(pf, pm, rtol=1e-8, atol=1e-10)


def _reference_sgd_step(params, grads, velocities, lr, momentum):
    out = []
    for i, (param, grad) in enumerate(zip(params, grads)):
        if momentum:
            velocities[i] = momentum * velocities[i] - lr * grad
            out.append(param + velocities[i])
        else:
            out.append(param - lr * grad)
    return out


class TestInPlaceOptimizers:
    @pytest.mark.parametrize("momentum", [0.0, 0.9])
    def test_sgd_bit_identical_to_reference(self, momentum):
        rng = np.random.default_rng(1)
        shapes = [(5, 4), (4,), (4, 2)]
        params = [rng.normal(size=s) for s in shapes]
        reference = [p.copy() for p in params]
        velocities = [np.zeros_like(p) for p in reference]
        sgd = SGD(learning_rate=0.05, momentum=momentum)
        for step in range(25):
            grads = [rng.normal(size=s) for s in shapes]
            sgd.update(params, grads)
            reference = _reference_sgd_step(
                reference, grads, velocities, 0.05, momentum
            )
            for p, r in zip(params, reference):
                assert np.array_equal(p, r), f"diverged at step {step}"

    def test_adam_bit_identical_to_reference(self):
        rng = np.random.default_rng(2)
        shapes = [(6, 3), (3,)]
        params = [rng.normal(size=s) for s in shapes]
        reference = [p.copy() for p in params]
        adam = Adam(learning_rate=0.01)
        ms = [np.zeros_like(p) for p in reference]
        vs = [np.zeros_like(p) for p in reference]
        for step in range(1, 31):
            grads = [rng.normal(size=s) for s in shapes]
            adam.update(params, grads)
            bias_1 = 1.0 - adam.beta_1**step
            bias_2 = 1.0 - adam.beta_2**step
            for i, grad in enumerate(grads):
                ms[i] = adam.beta_1 * ms[i] + (1.0 - adam.beta_1) * grad
                vs[i] = adam.beta_2 * vs[i] + (1.0 - adam.beta_2) * grad * grad
                denom = np.sqrt(vs[i] / bias_2) + adam.epsilon
                reference[i] = reference[i] - adam.learning_rate * (
                    ms[i] / bias_1
                ) / denom
            for p, r in zip(params, reference):
                assert np.array_equal(p, r), f"diverged at step {step}"

    def test_adam_step_allocates_no_new_state_after_first(self):
        rng = np.random.default_rng(3)
        params = [rng.normal(size=(64, 64))]
        adam = Adam()
        adam.update(params, [rng.normal(size=(64, 64))])
        buffers = [adam._m[0], adam._v[0]]
        grads = [rng.normal(size=(64, 64))]
        tracemalloc.start()
        try:
            adam.update(params, grads)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert adam._m[0] is buffers[0]
        assert adam._v[0] is buffers[1]
        if optimizers._ADAM_KERNEL.get() is not None:
            # The compiled step writes into p, m and v only: the step's
            # peak stays far below one 32 KiB parameter-sized array.
            assert peak < params[0].nbytes // 4


def _gradient_scales(dtype, shape):
    """One fixed gradient scale per element: unit, zero, subnormal,
    1e-8 or 1e30.  Mixing scales within an element would hide rounding
    differences: after one 1e30 gradient an element barely moves."""
    tiny = np.finfo(dtype).tiny
    return np.resize([1.0, 1.0, 0.0, tiny / 8, 1e-8, 1e30], shape)


def _adam_run(dtype, steps, shapes):
    """Train ``Adam`` on seeded gradients; return its p, m, v bytes."""
    rng = np.random.default_rng(17)
    params = [rng.standard_normal(shape).astype(dtype) for shape in shapes]
    adam = Adam(learning_rate=0.01)
    with np.errstate(over="ignore"):
        for _ in range(steps):
            grads = [
                (rng.standard_normal(p.shape)
                 * _gradient_scales(dtype, p.shape)).astype(dtype)
                for p in params
            ]
            adam.update(params, grads)
    return [a.tobytes() for a in params + list(adam._m.values())
            + list(adam._v.values())]


def _numpy_adam_run(dtype, steps, shapes):
    """The same run stepped by ``adam_step_numpy`` directly."""
    rng = np.random.default_rng(17)
    params = [rng.standard_normal(shape).astype(dtype) for shape in shapes]
    ms = [np.zeros_like(p) for p in params]
    vs = [np.zeros_like(p) for p in params]
    with np.errstate(over="ignore"):
        for step in range(1, steps + 1):
            grads = [
                (rng.standard_normal(p.shape)
                 * _gradient_scales(dtype, p.shape)).astype(dtype)
                for p in params
            ]
            for p, g, m, v in zip(params, grads, ms, vs):
                adam_step_numpy(p, g, m, v, 0.9, 0.999, 1.0 - 0.9**step,
                                1.0 - 0.999**step, 0.01, 1e-7)
    return [a.tobytes() for a in params + ms + vs]


# Sizes that are not multiples of any vector width.
ODD_SHAPES = [(37, 5), (19,), (3, 7, 3)]


def _dead_unit_run(dtype, step_fn=None):
    """One (37, 7) parameter whose columns get gradients of scale 1e-3
    down to subnormal for 10 steps, then exactly 0 for 250 steps, some
    columns starting near the smallest normal.  Stepped by ``Adam`` or
    by ``step_fn`` (``adam_step_numpy``); returns p, m, v bytes."""
    rng = np.random.default_rng(23)
    tiny = np.finfo(dtype).tiny
    scales = np.array([1e-3, tiny * 2**40, tiny * 2**20, tiny * 2**10,
                       tiny, tiny * 2**-20, tiny * 2**-40])
    start = np.array([1.0, tiny * 16, 1.0, 1.0, tiny * 2**8, 1.0, 1.0])
    param = (rng.standard_normal((37, 7)) * start).astype(dtype)
    m, v = np.zeros_like(param), np.zeros_like(param)
    adam = Adam()
    for step in range(1, 261):
        grad = (rng.standard_normal(param.shape) * scales).astype(dtype)
        if step > 10:
            grad[:] = 0
        if step_fn is None:
            adam.update([param], [grad])
        else:
            step_fn(param, grad, m, v, 0.9, 0.999, 1.0 - 0.9**step,
                    1.0 - 0.999**step, 0.001, 1e-7)
    if step_fn is None:
        m, v = adam._m[0], adam._v[0]
    return [param.tobytes(), m.tobytes(), v.tobytes()]


class TestFusedAdam:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_kernel_bit_identical_to_numpy(self, dtype):
        if not compiled_kernels_expected():
            pytest.skip("no C compiler or kernel cache directory")
        # With a compiler the kernel must build and pass its self-test:
        # a silent fallback would pass every bit-identity check.
        assert optimizers._ADAM_KERNEL.get() is not None
        assert _adam_run(dtype, 200, ODD_SHAPES) == _numpy_adam_run(
            dtype, 200, ODD_SHAPES
        )

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_forced_fallback_gives_same_bits(self, dtype, monkeypatch):
        with_kernel = _adam_run(dtype, 50, ODD_SHAPES)
        monkeypatch.setattr(optimizers._ADAM_KERNEL, "get", lambda: None)
        assert _adam_run(dtype, 50, ODD_SHAPES) == with_kernel

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_dead_unit_state_bit_identical(self, dtype):
        """Gradients live for 10 steps, then exactly 0 for 250: ``m``
        decays through the subnormals and sticks at k * 2^-149 (k * 2^-1074
        in float64), the state dead ReLU units reach in real training.
        The kernel's software-rounded lanes must match numpy there."""
        if compiled_kernels_expected():
            assert optimizers._ADAM_KERNEL.get() is not None
        reference = _dead_unit_run(dtype, adam_step_numpy)
        assert _dead_unit_run(dtype) == reference
        m = np.frombuffer(reference[1], dtype)
        # Non-zero entries at a fixed point of m * beta_1: stuck for good.
        stuck = (m != 0) & (m * np.dtype(dtype).type(0.9) == m)
        assert stuck.sum() >= 10

    def test_mixed_dtypes_take_numpy_path(self):
        """A float64 gradient on a float32 parameter is not the
        kernel's case; the numpy spelling handles it unchanged."""
        rng = np.random.default_rng(4)
        param = rng.standard_normal((9, 3)).astype(np.float32)
        twin = param.copy()
        grad = rng.standard_normal((9, 3))
        Adam().update([param], [grad])
        m, v = np.zeros_like(twin), np.zeros_like(twin)
        adam_step_numpy(twin, grad, m, v, 0.9, 0.999, 1.0 - 0.9, 1.0 - 0.999,
                        0.001, 1e-7)
        assert param.tobytes() == twin.tobytes()

    def test_adam_stays_picklable(self):
        adam = Adam()
        adam.update([np.ones(5, np.float32)], [np.ones(5, np.float32)])
        clone = pickle.loads(pickle.dumps(adam))
        assert clone._step == 1
        assert np.array_equal(clone._m[0], adam._m[0])


def _int8_bits():
    rng = np.random.default_rng(8)
    q, scale = quantize_weight(rng.normal(size=(96, 33)).astype(np.float32))
    linear = _Int8Linear(q, scale, rng.normal(size=33).astype(np.float32))
    x = rng.normal(size=(17, 96)).astype(np.float32)
    return int8_affine(x, linear).tobytes()


def _mlp_fit_bytes():
    """Parameters and predictions of a small float32 Dense+ReLU MLP after
    a seeded two-epoch fit, as bytes."""
    rng = np.random.default_rng(12)
    x = rng.standard_normal((48, 16)).astype(np.float32)
    labels = rng.integers(0, 3, 48)
    model = _toy_model()
    model.compile(dtype="float32")
    model.fit(x, labels, epochs=2, batch_size=16, rng=3)
    return [p.tobytes() for p in model._gather()[0]] + [
        model.predict(x).tobytes()
    ]


def _cipher_search_bytes():
    """A Gimli batch over a round window not starting at 24, and the
    bias oracle's Gimli-Hash counts over two blocks of candidates."""
    states = np.random.default_rng(13).integers(
        0, 2**32, size=(40, 12), dtype=np.uint32
    )
    oracle = search_oracle.BiasScoringOracle(
        get_scenario_builder("gimli-hash").prototype(rounds=3),
        n_samples=600, rng=14,
    )
    candidates = np.zeros((search_oracle.BLOCK_ROWS // 600 + 1, 4), np.uint32)
    candidates[:, 1] = 1 << np.arange(candidates.shape[0], dtype=np.uint32)
    job = (oracle.prototype, 600, oracle._children[0], candidates)
    return [
        gimli_permute_batch(states, 7, start_round=23).tobytes(),
        search_oracle._count_shard(job).tobytes(),
    ]


def _body_bytes():
    """A request body's feature matrix, as the server hands it on."""
    body = serve_body.decode_body(
        b'{"model": "m", "features": [[0, 1, -0, -0.0, 1.0], [7, 0, 1, 0, -3]],'
        b' "labels": [0, 1]}'
    )
    return np.asarray(body["features"], dtype=np.float64).tobytes()


def _truncate(path):
    with open(path, "r+b") as handle:
        handle.truncate(os.path.getsize(path) // 3)


def _garble(path):
    with open(path, "r+b") as handle:
        handle.write(b"\x00garbage\xff" * 8)


#: Every compiled kernel, by registered name, with a workload through
#: it whose bytes must not change when the kernel falls back.
FALLBACK_WORKLOADS = {
    "adam": lambda: [_adam_run(dtype, 20, ODD_SHAPES)
                     for dtype in (np.float32, np.float64)],
    "qkernel": _int8_bits,
    "dense_relu": _mlp_fit_bytes,
    "gimli": _cipher_search_bytes,
    "diff_bit_counts": _cipher_search_bytes,
    "json_matrix": _body_bytes,
}


def test_every_registered_kernel_has_a_fallback_workload():
    assert registered_kernels() == sorted(FALLBACK_WORKLOADS)


def test_duplicate_kernel_name_is_rejected():
    with pytest.raises(ValueError, match="'adam' already exists"):
        cbuild.CompiledKernel("adam", "", lambda lib: None, lambda entry: True)
    assert cbuild._KERNELS["adam"] is optimizers._ADAM_KERNEL


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
class TestKernelCacheFaults:
    """A torn or garbled cached ``.so`` is deleted and rebuilt once;
    if the rebuild fails too, the numpy spelling takes over.  Either
    way the numbers do not change."""

    @pytest.fixture
    def kernels(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cbuild.KERNEL_DIR_ENV_VAR, str(tmp_path))
        for kernel in cbuild._KERNELS.values():
            monkeypatch.setattr(kernel, "_loaded", False)
            monkeypatch.setattr(kernel, "_entry", None)
            # A cached library this process has never loaded.
            assert cbuild._build(kernel.source, kernel.flags, kernel.so_path())
        return list(cbuild._KERNELS.values())

    def _assert_results_unchanged(self, monkeypatch):
        for name, workload in FALLBACK_WORKLOADS.items():
            resolved = workload()
            with monkeypatch.context() as patch:
                patch.setattr(cbuild._KERNELS[name], "get", lambda: None)
                assert workload() == resolved, name

    @pytest.mark.parametrize("corrupt", [_truncate, _garble])
    def test_corrupt_cache_is_rebuilt(self, kernels, corrupt, monkeypatch):
        for kernel in kernels:
            corrupt(kernel.so_path())
        for kernel in kernels:
            assert kernel.get() is not None
            assert os.path.exists(kernel.so_path())
        self._assert_results_unchanged(monkeypatch)

    def test_self_test_failure_rebuilds_once(self, kernels, monkeypatch):
        kernel = kernels[0]
        verdicts = iter([False, True])
        calls = []

        def flaky(entry):
            calls.append(entry)
            return next(verdicts)

        monkeypatch.setattr(kernel, "_self_test", flaky)
        assert kernel.get() is not None
        assert len(calls) == 2

    @pytest.mark.parametrize("corrupt", [_truncate, _garble])
    def test_unrebuildable_cache_falls_back(self, kernels, corrupt, monkeypatch):
        monkeypatch.setattr(cbuild, "_build", lambda *args: False)
        for kernel in kernels:
            corrupt(kernel.so_path())
            assert kernel.get() is None
            assert not os.path.exists(kernel.so_path())
        assert not any(cbuild.kernels_in_use().values())
        self._assert_results_unchanged(monkeypatch)


class TestDenseOutBackward:
    def test_grads_written_into_persistent_buffers(self):
        dense = Dense(4)
        dense.build((6,), np.random.default_rng(0))
        x = np.random.default_rng(1).normal(size=(10, 6))
        dense.forward(x, training=True)
        before = (dense.grads[0], dense.grads[1])
        dense.backward(np.random.default_rng(2).normal(size=(10, 4)))
        assert dense.grads[0] is before[0]
        assert dense.grads[1] is before[1]

    def test_backward_matches_reference_matmuls(self):
        dense = Dense(4)
        dense.build((6,), np.random.default_rng(0))
        x = np.random.default_rng(1).normal(size=(10, 6))
        grad = np.random.default_rng(2).normal(size=(10, 4))
        dense.forward(x, training=True)
        out = dense.backward(grad)
        assert np.array_equal(dense.grads[0], x.T @ grad)
        assert np.array_equal(dense.grads[1], grad.sum(axis=0))
        assert np.array_equal(out, grad @ dense.params[0].T)


class TestDropoutRngRouting:
    def test_fit_rng_reaches_dropout(self):
        """Two fits from the same seed must agree *through* Dropout —
        the masks now come from fit's generator, not hidden state."""
        x, y = _toy_batch(seed=9, n=48)

        def train():
            model = Sequential(
                [Dense(24), ReLU(), Dropout(0.5), Dense(3), Softmax()]
            )
            model.build((16,), rng=4)
            model.compile()
            model.fit(x, y, epochs=2, batch_size=16, rng=11)
            return model._gather()[0]

        for a, b in zip(train(), train()):
            assert np.array_equal(a, b)

    def test_explicit_seed_overrides_fit_rng(self):
        drop = Dropout(0.5, seed=13)
        x = np.ones((4, 50))
        a = drop.forward(x, training=True, rng=np.random.default_rng(1))
        drop_again = Dropout(0.5, seed=13)
        b = drop_again.forward(x, training=True, rng=np.random.default_rng(2))
        assert np.array_equal(a, b)

    def test_fit_rng_used_when_no_seed(self):
        x = np.ones((4, 200))
        drop = Dropout(0.5)
        a = drop.forward(x, training=True, rng=np.random.default_rng(21))
        b = drop.forward(x, training=True, rng=np.random.default_rng(21))
        assert np.array_equal(a, b)
        c = drop.forward(x, training=True, rng=np.random.default_rng(22))
        assert not np.array_equal(a, c)


class TestDenseReluEpilogue:
    def test_build_pairs_each_biased_dense_below_a_relu(self):
        model = Sequential([
            Dense(8), ReLU(), Dense(8, use_bias=False), ReLU(),
            Dense(8), LeakyReLU(), Dense(3), Softmax(),
        ])
        model.build((5,), rng=0)
        assert model.layers[0].relu is model.layers[1]
        assert [model.layers[i].relu for i in (2, 4, 6)] == [None] * 3

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("units", [1, 2, 67])
    def test_pair_matches_numpy_spelling(self, dtype, units):
        """A paired Dense+ReLU gives the bits of ``dense_relu_numpy``.

        Every unit is live (bias 100) and each gradient column is
        1e8, 1, ..., 1, -1e8, whose sum depends on the order of the
        adds: numpy sums a single column pairwise, so ``units=1`` stays
        on numpy, and from two columns on it adds rows in order.
        """
        if compiled_kernels_expected():
            assert layers._EPILOGUE_KERNEL.get() is not None
        rng = np.random.default_rng(3)
        model = Sequential([Dense(units), ReLU()])
        model.build((9,), rng=0)
        model.compile(dtype=dtype)
        dense = model.layers[0]
        dense.params[1][:] = 100
        x = rng.standard_normal((300, 9)).astype(dtype)
        grad = np.ones((300, units), dtype)
        grad[0], grad[-1] = 1e8, -1e8
        out = model.forward(x, training=True)
        model.backward(grad)
        expected, _, masked, bias_grad = dense_relu_numpy(
            x @ dense.params[0], dense.params[1], grad
        )
        assert out.tobytes() == expected.tobytes()
        assert dense.grads[1].tobytes() == bias_grad.tobytes()
        assert dense.grads[0].tobytes() == (x.T @ masked).tobytes()

    def test_relu_called_on_its_own_rectifies(self):
        """After a fused pass the ReLU still rectifies any other array."""
        rng = np.random.default_rng(4)
        model = _toy_model()
        model.forward(rng.standard_normal((5, 16)), training=True)
        z = rng.standard_normal((5, 24))
        relu = model.layers[1]
        assert relu.forward(z, training=True).tobytes() == (
            z * (z > 0)
        ).tobytes()
        grad = rng.standard_normal((5, 24))
        assert relu.backward(grad).tobytes() == (grad * (z > 0)).tobytes()


OWNERSHIP_STACKS = {
    "relu-first": lambda: [ReLU(), Dense(8), ReLU(), Dense(3), Softmax()],
    "reshape-relu": lambda: [
        Reshape((4, 4)), ReLU(), Flatten(), Dense(3), Softmax(),
    ],
    "conv1d-relu": lambda: [
        Reshape((8, 2)), Conv1D(4, 3), ReLU(), Flatten(), Dense(3), Softmax(),
    ],
    "ends-dense-relu": lambda: [Dense(8), ReLU(), Dense(3), ReLU()],
    "ends-dense": lambda: [Dense(8), ReLU(), Dense(3)],
}


@pytest.mark.parametrize("stack", sorted(OWNERSHIP_STACKS))
@pytest.mark.parametrize("dtype", ["float32", "float64"])
class TestBufferOwnership:
    """A layer may overwrite only an array its own model produced in the
    same pass: the caller's inputs and gradients come back unchanged."""

    def _setup(self, stack, dtype):
        layers_ = OWNERSHIP_STACKS[stack]()
        loss = "categorical_crossentropy" if isinstance(
            layers_[-1], Softmax) else "mse"
        model = Sequential(layers_)
        model.build((16,), rng=0)
        model.compile(loss=loss, dtype=dtype)
        rng = np.random.default_rng(6)
        x = rng.standard_normal((32, 16)).astype(dtype)
        y = np.eye(3, dtype=dtype)[rng.integers(0, 3, 32)]
        return model, x, y

    def test_inputs_are_never_written(self, stack, dtype):
        model, x, y = self._setup(stack, dtype)
        x_before, y_before = x.tobytes(), y.tobytes()
        model.forward(x)
        model.forward(x, training=True)
        model.predict(x, batch_size=8)
        model.train_on_batch(x, y)
        model.fit(x, y, epochs=1, batch_size=8, rng=0)
        assert x.tobytes() == x_before
        assert y.tobytes() == y_before

    def test_backward_never_writes_the_callers_gradient(self, stack, dtype):
        model, x, _ = self._setup(stack, dtype)
        out = model.forward(x, training=True)
        grad = np.random.default_rng(7).standard_normal(out.shape).astype(dtype)
        before = grad.tobytes()
        model.backward(grad)
        assert grad.tobytes() == before

    def test_successive_predicts_do_not_alias(self, stack, dtype):
        model, x, _ = self._setup(stack, dtype)
        first = model.predict(x)
        second = model.predict(x)
        assert not np.shares_memory(first, second)
        assert first.tobytes() == second.tobytes()
