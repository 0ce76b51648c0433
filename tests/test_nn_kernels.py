"""Kernel-equivalence tests for the hot-path rewrites.

The fused softmax+CCE backward, the in-place optimizers, the compiled
Adam step and the Dense ``out=`` backward are pure performance work:
each must match its reference formulation — the optimizers bit-for-bit
(their arithmetic order is preserved), the fused gradient to float
tolerance (it is algebraically identical but rounds differently).  The
compiled kernels' on-disk cache must survive corruption without
changing a number.
"""

import os
import pickle
import shutil
import tracemalloc

import numpy as np
import pytest

from repro.nn import optimizers
from repro.nn.backend import cbuild, qkernel
from repro.nn.layers import Dense, Dropout, ReLU, Softmax
from repro.nn.losses import CategoricalCrossentropy, one_hot
from repro.nn.model import Sequential
from repro.nn.optimizers import SGD, Adam, adam_kernel_in_use, adam_step_numpy
from repro.nn.quant import _Int8Linear, int8_affine, quantize_weight


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
        if adam_kernel_in_use():
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


class TestFusedAdam:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_kernel_bit_identical_to_numpy(self, dtype):
        if shutil.which("cc") is None:
            pytest.skip("no C compiler")
        # With a compiler the kernel must build and pass its self-test:
        # a silent fallback would pass every bit-identity check.
        assert adam_kernel_in_use()
        assert _adam_run(dtype, 200, ODD_SHAPES) == _numpy_adam_run(
            dtype, 200, ODD_SHAPES
        )

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_forced_fallback_gives_same_bits(self, dtype, monkeypatch):
        with_kernel = _adam_run(dtype, 50, ODD_SHAPES)
        monkeypatch.setattr(optimizers._ADAM_KERNEL, "get", lambda: None)
        assert not adam_kernel_in_use()
        assert _adam_run(dtype, 50, ODD_SHAPES) == with_kernel

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


def _int8_bits(mode, monkeypatch):
    rng = np.random.default_rng(8)
    q, scale = quantize_weight(rng.normal(size=(96, 33)).astype(np.float32))
    linear = _Int8Linear(q, scale, rng.normal(size=33).astype(np.float32))
    x = rng.normal(size=(17, 96)).astype(np.float32)
    monkeypatch.setenv("REPRO_QUANT", mode)
    return int8_affine(x, linear).tobytes()


def _truncate(path):
    with open(path, "r+b") as handle:
        handle.truncate(os.path.getsize(path) // 3)


def _garble(path):
    with open(path, "r+b") as handle:
        handle.write(b"\x00garbage\xff" * 8)


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
class TestKernelCacheFaults:
    """A torn or garbled cached ``.so`` is deleted and rebuilt once;
    if the rebuild fails too, the numpy spelling takes over.  Either
    way the numbers do not change."""

    @pytest.fixture
    def kernels(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cbuild.KERNEL_DIR_ENV_VAR, str(tmp_path))
        monkeypatch.delenv("REPRO_QUANT", raising=False)
        pair = (optimizers._ADAM_KERNEL, qkernel._KERNEL)
        for kernel in pair:
            monkeypatch.setattr(kernel, "_loaded", False)
            monkeypatch.setattr(kernel, "_entry", None)
            # A cached library this process has never loaded.
            assert cbuild._build(kernel.source, kernel.flags, kernel.so_path())
        return pair

    def _assert_results_unchanged(self, monkeypatch):
        for dtype in (np.float32, np.float64):
            assert _adam_run(dtype, 20, ODD_SHAPES) == _numpy_adam_run(
                dtype, 20, ODD_SHAPES
            )
        assert _int8_bits("auto", monkeypatch) == _int8_bits("numpy", monkeypatch)

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
        assert not adam_kernel_in_use()
        assert not qkernel.available()
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
