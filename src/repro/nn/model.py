"""The ``Sequential`` model: Keras-shaped training on numpy layers.

Supports ``compile`` / ``fit`` / ``evaluate`` / ``predict``, shuffled
mini-batches, validation splits, per-epoch history, parameter counting
(the Table 3 column), and ``.npz`` persistence standing in for the
paper's ``.h5`` model files.

Two hot-path features live here:

* **Dtype policy.**  ``compile(..., dtype="float32")`` switches the
  whole stack (parameters, activations, targets, optimizer state) to
  float32, roughly halving matmul time and memory traffic.  The default
  stays float64 so the exact-gradient tests are unaffected.
* **Fused softmax + cross-entropy.**  When the last layer is ``Softmax``
  and the loss is probability-space ``CategoricalCrossentropy``, the
  training step backpropagates ``(p - y) / n`` directly into the layer
  below the softmax, skipping the softmax Jacobian product (the two are
  algebraically identical; the kernel-equivalence tests check it).

``fit`` is instrumented through :mod:`repro.obs`: per-epoch
loss/metric events go to the structured logger (``verbose=True`` just
raises them to ``info`` so the default text sink renders them),
``train.fit``/``train.epoch`` spans feed the tracer, epoch counters and
durations the process metrics registry, and ``REPRO_PROFILE=1``
aggregates per-layer forward/backward time (see
:mod:`repro.obs.profile`).  None of it touches an RNG stream, so an
instrumented run is bit-identical to a bare one.
"""

from __future__ import annotations

import json
import time
import zipfile
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import LayerError, TrainingError
from repro.obs import events as obs_events
from repro.obs import log as obs_log
from repro.obs import metrics as obs_metrics
from repro.obs import profile as obs_profile
from repro.obs.trace import span
from repro.nn import conv as conv_mod
from repro.nn import layers as layers_mod
from repro.nn import recurrent as recurrent_mod
from repro.nn.backend import blas
from repro.nn.callbacks import Callback, History
from repro.nn.layers import Dense, Layer, ReLU, Softmax
from repro.nn.losses import (
    LOSSES,
    CategoricalCrossentropy,
    Loss,
    get_loss,
    one_hot,
)
from repro.nn.metrics import get_metric
from repro.nn.optimizers import OPTIMIZERS, Optimizer, get_optimizer
from repro.utils.atomic import atomic_savez
from repro.utils.rng import make_rng

_LAYER_MODULES = (layers_mod, conv_mod, recurrent_mod)

_log = obs_log.get_logger("repro.nn")


def _layer_class(name: str):
    for module in _LAYER_MODULES:
        cls = getattr(module, name, None)
        if isinstance(cls, type) and issubclass(cls, Layer):
            return cls
    raise LayerError(f"unknown layer class {name!r} in saved model")


def _registry_name(instance, registry: dict) -> Optional[str]:
    """The Keras-style string key for ``instance``, or ``None`` if custom."""
    for key, cls in registry.items():
        if type(instance) is cls:
            return key
    return None


class Sequential:
    """A linear stack of layers."""

    def __init__(self, layers: Optional[Sequence[Layer]] = None):
        self.layers: List[Layer] = list(layers) if layers else []
        self.input_shape: Optional[Tuple[int, ...]] = None
        self.loss: Optional[Loss] = None
        self.optimizer: Optional[Optimizer] = None
        self.metric_names: List[str] = []
        self.dtype: np.dtype = np.dtype(np.float64)
        self._output_units: Optional[int] = None
        # Set when the model came from a saved file that carried no
        # compile metadata, so misuse errors can say *why* it is not
        # compiled ("compile the loaded model before ...").
        self._loaded_uncompiled = False
        # Per-layer timing sink; non-None only inside a profiled fit
        # (REPRO_PROFILE=1).  The last run's numbers stay readable here.
        self._profiler = None
        self.last_profile: Optional[List[dict]] = None

    def add(self, layer: Layer) -> "Sequential":
        """Append a layer; returns self for chaining."""
        if self.input_shape is not None:
            raise TrainingError("cannot add layers after the model is built")
        self.layers.append(layer)
        return self

    # -- construction ------------------------------------------------------

    def build(self, input_shape: Sequence[int], rng=None) -> "Sequential":
        """Allocate all parameters for inputs of ``input_shape`` (sans batch)."""
        if not self.layers:
            raise TrainingError("cannot build an empty model")
        generator = make_rng(rng)
        shape = tuple(int(s) for s in input_shape)
        self.input_shape = shape
        for layer in self.layers:
            layer.set_dtype(self.dtype)
            if not layer.built:
                layer.build(shape, generator)
            shape = layer.output_shape(shape)
        # Cache the output width so target encoding does not re-walk the
        # whole stack's output_shape chain on every fit/evaluate call.
        self._output_units = int(shape[-1])
        # The bottom-most parameterised layer's input gradient is never
        # consumed (nothing below it has parameters to update), so flag
        # it to skip that compute on the training hot path.
        for index, layer in enumerate(self.layers):
            if layer.params:
                layer.skip_input_grad = True
                break
        # A biased Dense directly below a ReLU runs the pair as one
        # compiled epilogue (see ``layers.ReLU``).
        for below, above in zip(self.layers, self.layers[1:]):
            if type(below) is Dense and below.use_bias and type(above) is ReLU:
                below.relu = above
        return self

    def compile(
        self,
        loss="categorical_crossentropy",
        optimizer="adam",
        metrics: Sequence[str] = ("accuracy",),
        dtype=None,
    ) -> "Sequential":
        """Attach loss, optimizer and metrics (Keras-style).

        ``dtype`` selects the compute precision (``"float32"`` or
        ``"float64"``); ``None`` keeps the current policy (float64 by
        default).  Already-built parameters are cast in place.
        """
        self.loss = get_loss(loss)
        self.optimizer = get_optimizer(optimizer)
        self.metric_names = list(metrics)
        self._loaded_uncompiled = False
        if dtype is not None:
            self.set_dtype(dtype)
        return self

    def _require_compiled(self, action: str, optimizer: bool = True) -> None:
        """Raise a precise error when ``action`` needs a compiled model."""
        if self.loss is not None and (self.optimizer is not None or not optimizer):
            return
        what = "loaded model" if self._loaded_uncompiled else "model"
        raise TrainingError(f"compile the {what} before {action}")

    def set_dtype(self, dtype) -> "Sequential":
        """Switch the model's compute dtype, casting built parameters."""
        dtype = np.dtype(dtype)
        if dtype.kind != "f":
            raise TrainingError(f"model dtype must be a float type, got {dtype}")
        self.dtype = dtype
        for layer in self.layers:
            layer.set_dtype(dtype)
        return self

    def count_params(self) -> int:
        """Total trainable parameters (the paper's Table 3 column)."""
        if self.input_shape is None:
            raise TrainingError("build the model before counting parameters")
        return sum(layer.count_params() for layer in self.layers)

    def summary(self) -> str:
        """A textual per-layer summary, returned (not printed)."""
        if self.input_shape is None:
            raise TrainingError("build the model before summarising it")
        lines = [f"{'Layer':<24}{'Output shape':<20}{'Params':>10}"]
        shape = self.input_shape
        for layer in self.layers:
            shape = layer.output_shape(shape)
            lines.append(f"{layer.name:<24}{str(shape):<20}{layer.count_params():>10}")
        lines.append(f"Total params: {self.count_params()}")
        return "\n".join(lines)

    # -- forward / backward ------------------------------------------------

    def forward(self, x: np.ndarray, training: bool = False, rng=None) -> np.ndarray:
        """Run the full stack.

        ``rng`` is routed to stochastic layers (Dropout) so a whole
        training run is reproducible from ``fit``'s single generator.
        """
        out = np.asarray(x, dtype=self.dtype)
        if rng is not None:
            rng = make_rng(rng)
        prof = self._profiler
        for index, layer in enumerate(self.layers):
            if prof is not None:
                tick = time.perf_counter()
            if layer.stochastic:
                out = layer.forward(out, training=training, rng=rng)
            else:
                out = layer.forward(out, training=training)
            if prof is not None:
                prof.record(
                    index, layer.name, "forward", time.perf_counter() - tick
                )
        return out

    def backward(self, grad: np.ndarray) -> Optional[np.ndarray]:
        """Backpropagate through the full stack.

        Returns the gradient with respect to the model input, or ``None``
        when the bottom parameterised layer skipped it (nothing below it
        has parameters, so the input gradient is never consumed).
        """
        if any(isinstance(layer, Dense) and layer.relu is not None
               for layer in self.layers):
            # A fused Dense+ReLU pair masks the gradient it receives in
            # place; the caller's array is never written.
            grad = np.array(grad, copy=True)
        return self._backward_from(len(self.layers) - 1, grad)

    def _backward_from(self, top: int, grad: np.ndarray) -> Optional[np.ndarray]:
        """Backpropagate ``grad`` from layer ``top`` down; see :meth:`backward`.

        ``grad`` must be an array this model may overwrite.
        """
        prof = self._profiler
        for index in range(top, -1, -1):
            layer = self.layers[index]
            if prof is not None:
                tick = time.perf_counter()
            grad = layer.backward(grad)
            if prof is not None:
                prof.record(
                    index, layer.name, "backward", time.perf_counter() - tick
                )
            if grad is None:
                return None
        return grad

    def _gather(self) -> Tuple[List[np.ndarray], List[np.ndarray]]:
        params: List[np.ndarray] = []
        grads: List[np.ndarray] = []
        for layer in self.layers:
            if layer.trainable:
                params.extend(layer.params)
                grads.extend(layer.grads)
        return params, grads

    def _fused_softmax_cce(self) -> bool:
        """True when the fused softmax+CCE backward rule applies."""
        return (
            bool(self.layers)
            and isinstance(self.layers[-1], Softmax)
            and isinstance(self.loss, CategoricalCrossentropy)
            and not self.loss.from_logits
        )

    def _train_step(
        self, xb: np.ndarray, yb: np.ndarray, fused: bool, rng=None
    ) -> Tuple[float, np.ndarray]:
        """One forward/backward/update step; returns ``(loss, pred)``."""
        pred = self.forward(xb, training=True, rng=rng)
        if fused:
            loss_value = self.loss.value(yb, pred)
            # d(loss)/d(logits) = (p - y) / n: feed it straight into the
            # layer below the softmax, skipping the Jacobian product.
            self._backward_from(len(self.layers) - 2,
                                (pred - yb) / yb.shape[0])
        else:
            loss_value, grad = self.loss(yb, pred)
            self.backward(grad)
        params, grads = self._gather()
        self.optimizer.update(params, grads)
        return loss_value, pred

    def train_on_batch(self, x: np.ndarray, y: np.ndarray, rng=None) -> float:
        """Run a single gradient step on one batch; returns the loss."""
        self._require_compiled("training")
        x = np.asarray(x, dtype=self.dtype)
        if self.input_shape is None:
            self.build(x.shape[1:], rng)
        y = self._encode_targets(x, y)
        loss_value, _ = self._train_step(x, y, self._fused_softmax_cce(), rng=rng)
        return loss_value

    # -- training ----------------------------------------------------------

    def fit(
        self,
        x: np.ndarray,
        y: np.ndarray,
        epochs: int = 1,
        batch_size: int = 128,
        validation_data: Optional[Tuple[np.ndarray, np.ndarray]] = None,
        validation_split: float = 0.0,
        shuffle: bool = True,
        rng=None,
        callbacks: Sequence[Callback] = (),
        verbose: bool = False,
    ) -> History:
        """Train with shuffled mini-batches; returns the epoch history.

        ``y`` may be integer class labels (converted to one-hot against
        the model's output width) or an already-encoded target matrix.
        """
        self._require_compiled("fitting")
        if epochs <= 0:
            raise TrainingError(f"epochs must be positive, got {epochs}")
        if batch_size <= 0:
            raise TrainingError(f"batch size must be positive, got {batch_size}")
        x = np.asarray(x, dtype=self.dtype)
        if self.input_shape is None:
            self.build(x.shape[1:], rng)
        y = self._encode_targets(x, y)
        if validation_split and validation_data is not None:
            raise TrainingError(
                "pass either validation_split or validation_data, not both"
            )
        generator = make_rng(rng)
        if validation_split:
            if not 0.0 < validation_split < 1.0:
                raise TrainingError(
                    f"validation_split must be in (0, 1), got {validation_split}"
                )
            cut = int(round(x.shape[0] * (1.0 - validation_split)))
            if cut == 0 or cut == x.shape[0]:
                raise TrainingError("validation split leaves an empty partition")
            validation_data = (x[cut:], y[cut:])
            x, y = x[:cut], y[:cut]

        fused = self._fused_softmax_cce()
        history = History()
        n = x.shape[0]
        # Epoch telemetry flows through the structured logger: with
        # ``verbose`` the events are ``info`` (rendered by the default
        # text sink — the old ``print`` is now just a log consumer),
        # otherwise ``debug`` so REPRO_LOG_LEVEL=debug captures the same
        # machine-parsable loss/metric trajectory without the chatter.
        level = "info" if verbose else "debug"
        epoch_seconds = obs_metrics.REGISTRY.histogram(
            "repro_train_epoch_seconds"
        )
        epochs_total = obs_metrics.REGISTRY.counter("repro_train_epochs_total")
        if obs_profile.enabled():
            self._profiler = obs_profile.LayerProfiler()
        try:
            with blas.thread_domain("train"), \
                    span("train.fit", epochs=epochs, batch_size=batch_size,
                         samples=n):
                for epoch in range(epochs):
                    start = time.perf_counter()
                    with span("train.epoch", epoch=epoch):
                        order = (
                            generator.permutation(n) if shuffle
                            else np.arange(n)
                        )
                        epoch_loss = 0.0
                        correct = 0.0
                        for begin in range(0, n, batch_size):
                            idx = order[begin:begin + batch_size]
                            xb, yb = x[idx], y[idx]
                            loss_value, pred = self._train_step(
                                xb, yb, fused, rng=generator
                            )
                            epoch_loss += loss_value * len(idx)
                            correct += (
                                pred.argmax(axis=1) == yb.argmax(axis=1)
                            ).sum()
                    values: Dict[str, float] = {
                        "loss": epoch_loss / n,
                        "accuracy": correct / n,
                        "time": time.perf_counter() - start,
                    }
                    if validation_data is not None:
                        val_loss, val_metrics = self.evaluate(
                            validation_data[0],
                            validation_data[1],
                            batch_size=batch_size,
                        )
                        values["val_loss"] = val_loss
                        for key, metric_value in val_metrics.items():
                            values[f"val_{key}"] = metric_value
                    history.append(epoch, values)
                    epochs_total.inc()
                    epoch_seconds.observe(values["time"])
                    _log.log(
                        level, "train.epoch",
                        epoch=epoch + 1, epochs=epochs, **values,
                    )
                    # One liveness tick per epoch on the run event bus
                    # (no-op outside a --run-dir run): the dashboard's
                    # only signal that a long in-flight cell is alive.
                    obs_events.emit(
                        "fit.epoch",
                        epoch=epoch + 1,
                        epochs=epochs,
                        **{key: float(val) for key, val in values.items()},
                    )
                    stop = False
                    for callback in callbacks:
                        callback.on_epoch_end(epoch, values)
                        stop = stop or callback.stop_training
                    if stop:
                        break
        finally:
            profiler, self._profiler = self._profiler, None
        if profiler is not None:
            self.last_profile = profiler.stats()
            # REPRO_PROFILE is an explicit debugging opt-in, so the
            # table goes straight to stdout regardless of log mode.
            print(profiler.format_table())
        return history

    def _output_width(self) -> int:
        """The model's output width, cached at build time."""
        if self._output_units is None:
            if self.input_shape is None:
                raise TrainingError("build the model before encoding labels")
            shape = self.input_shape
            for layer in self.layers:
                shape = layer.output_shape(shape)
            self._output_units = int(shape[-1])
        return self._output_units

    def _encode_targets(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y)
        if y.ndim == 1:
            y = one_hot(y.astype(np.int64), self._output_width(), dtype=self.dtype)
        if y.shape[0] != x.shape[0]:
            raise TrainingError(
                f"x has {x.shape[0]} samples but y has {y.shape[0]}"
            )
        return y.astype(self.dtype, copy=False)

    # -- inference ---------------------------------------------------------

    def predict(self, x: np.ndarray, batch_size: int = 4096) -> np.ndarray:
        """Forward pass in inference mode, batched to bound memory.

        Chunk outputs are written straight into one preallocated result
        array, so no per-chunk list or final ``np.concatenate`` copy.
        """
        if batch_size <= 0:
            raise TrainingError(f"batch size must be positive, got {batch_size}")
        x = np.asarray(x, dtype=self.dtype)
        shape = x.shape[1:]
        for layer in self.layers:
            shape = layer.output_shape(shape)
        out = np.empty((x.shape[0],) + tuple(int(s) for s in shape), dtype=self.dtype)
        for begin in range(0, x.shape[0], batch_size):
            out[begin:begin + batch_size] = self.forward(
                x[begin:begin + batch_size], training=False
            )
        return out

    def predict_proba(self, x: np.ndarray, batch_size: int = 4096) -> np.ndarray:
        """Per-class probability predictions, shape ``(n, classes)``.

        When the model ends in a :class:`Softmax` layer the forward
        output already *is* the probability vector and is returned
        unchanged (bit-identical to :meth:`predict`); otherwise a
        numerically stable softmax is applied to the raw outputs.
        """
        out = self.predict(x, batch_size)
        if out.ndim != 2:
            raise TrainingError(
                "predict_proba needs a (n, classes) output, got shape "
                f"{out.shape}; add a classification head"
            )
        if self.layers and isinstance(self.layers[-1], Softmax):
            return out
        out = out - out.max(axis=1, keepdims=True)
        np.exp(out, out=out)
        out /= out.sum(axis=1, keepdims=True)
        return out

    def predict_classes(self, x: np.ndarray, batch_size: int = 4096) -> np.ndarray:
        """Class predictions as argmax over :meth:`predict_proba`.

        Ties break deterministically to the *lowest* class index
        (numpy's first-occurrence argmax), so identical inputs always
        yield identical labels regardless of batch composition.
        """
        return self.predict_proba(x, batch_size).argmax(axis=1)

    def evaluate(
        self, x: np.ndarray, y: np.ndarray, batch_size: int = 4096
    ) -> Tuple[float, Dict[str, float]]:
        """Return ``(loss, {metric: value})`` on a dataset."""
        self._require_compiled("evaluating", optimizer=False)
        x = np.asarray(x, dtype=self.dtype)
        y = self._encode_targets(x, y)
        pred = self.predict(x, batch_size)
        loss_value, _ = self.loss(y, pred)
        metrics = {
            name: get_metric(name)(y, pred) for name in self.metric_names
        }
        return loss_value, metrics

    # -- persistence ---------------------------------------------------------

    def save(self, path: str) -> None:
        """Persist architecture + weights to a ``.npz`` file."""
        if self.input_shape is None:
            raise TrainingError("build the model before saving it")
        config = {
            "input_shape": list(self.input_shape),
            "dtype": self.dtype.name,
            "layers": [
                {"class": layer.name, "config": layer.get_config()}
                for layer in self.layers
            ],
        }
        # Persist the compile state so a loaded model can evaluate/fit
        # without the caller re-deriving loss/optimizer/metric choices.
        # Custom (non-registry) loss or optimizer instances cannot be
        # named, so those models load uncompiled with a clear error.
        loss_name = _registry_name(self.loss, LOSSES) if self.loss else None
        optimizer_name = (
            _registry_name(self.optimizer, OPTIMIZERS) if self.optimizer else None
        )
        if loss_name is not None and optimizer_name is not None:
            config["compile"] = {
                "loss": loss_name,
                "optimizer": optimizer_name,
                "metrics": list(self.metric_names),
                "dtype": self.dtype.name,
            }
        arrays = {"config": np.frombuffer(json.dumps(config).encode(), dtype=np.uint8)}
        for i, layer in enumerate(self.layers):
            for j, param in enumerate(layer.params):
                arrays[f"layer{i}_param{j}"] = param
        atomic_savez(path, **arrays)

    @classmethod
    def load(cls, path: str) -> "Sequential":
        """Rebuild a model saved with :meth:`save`.

        A torn archive, unparsable config or missing parameter array
        raises :class:`LayerError`; a missing file stays
        ``FileNotFoundError``.
        """
        try:
            with np.load(path) as data:
                config = json.loads(bytes(data["config"]).decode())
                model = cls(
                    [
                        _layer_class(entry["class"])(**entry["config"])
                        for entry in config["layers"]
                    ]
                )
                model.dtype = np.dtype(config.get("dtype", "float64"))
                model.build(config["input_shape"], rng=0)
                for i, layer in enumerate(model.layers):
                    for j in range(len(layer.params)):
                        layer.params[j][...] = data[f"layer{i}_param{j}"]
        except (zipfile.BadZipFile, EOFError, KeyError, TypeError,
                ValueError) as exc:
            raise LayerError(f"corrupt model file {path!r}: {exc!r}") from None
        compile_config = config.get("compile")
        if compile_config is not None:
            model.compile(
                loss=compile_config["loss"],
                optimizer=compile_config["optimizer"],
                metrics=tuple(compile_config.get("metrics", ("accuracy",))),
            )
        else:
            model._loaded_uncompiled = True
        return model


def load_model(path: str) -> Sequential:
    """Convenience alias for :meth:`Sequential.load`."""
    return Sequential.load(path)
