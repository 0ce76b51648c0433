"""Content-addressed, versioned store for trained distinguishers.

The offline phase produces a trained :class:`~repro.nn.model.Sequential`
plus the numbers the online phase needs (the training accuracy ``a``,
the class count ``t``, the decision threshold ``(a + 1/t) / 2``).  The
registry persists all of it as two sibling files per model under one
directory::

    <root>/<model_id>.npz    # Sequential.save weights+architecture
    <root>/<model_id>.json   # manifest (scenario fingerprint, accuracy, ...)
    <root>/pins.json         # name -> model_id overrides

``model_id`` is the SHA-256 over the model's architecture config and
raw parameter bytes, so registering the same trained model twice is
idempotent, two different trainings never collide, and an artifact can
be verified against its id.  Within a human-readable ``name`` (e.g.
``"gimli-hash-r8"``) versions count up monotonically; ``latest(name)``
returns the newest and ``pin(name, model_id)`` freezes resolution to a
known-good version until ``unpin``.

All writes are atomic (temp file + ``os.replace``), so a crashed or
concurrent registration never leaves a half-written artifact visible.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.scenario import scenario_fingerprint
from repro.core.statistics import decision_threshold
from repro.errors import LayerError, RegistryError, TrainingError
from repro.nn.model import Sequential
from repro.nn.quant import QUANT_FORMAT_VERSION, QuantizedSequential
from repro.utils.atomic import atomic_write

#: Bump when the manifest layout changes incompatibly.
MANIFEST_VERSION = 1


def model_digest(model: Sequential) -> str:
    """SHA-256 content address of a built model (architecture + weights)."""
    if model.input_shape is None:
        raise RegistryError("build the model before registering it")
    config = {
        "input_shape": list(model.input_shape),
        "dtype": model.dtype.name,
        "layers": [
            {"class": layer.name, "config": layer.get_config()}
            for layer in model.layers
        ],
    }
    digest = hashlib.sha256()
    digest.update(json.dumps(config, sort_keys=True).encode())
    for layer in model.layers:
        for param in layer.params:
            digest.update(str(param.dtype).encode())
            digest.update(str(param.shape).encode())
            digest.update(np.ascontiguousarray(param).tobytes())
    return digest.hexdigest()


def _scenario_manifest(scenario) -> dict:
    """The scenario facts the online phase needs, JSON-ready."""
    fingerprint = hashlib.sha256(
        repr(scenario_fingerprint(scenario)).encode()
    ).hexdigest()
    manifest = {
        "class": type(scenario).__qualname__,
        "fingerprint_sha256": fingerprint,
        "num_classes": int(scenario.num_classes),
        "feature_bits": int(scenario.feature_bits),
    }
    masks = getattr(scenario, "difference_masks", None)
    if masks is not None:
        manifest["input_differences"] = np.asarray(masks).tolist()
        manifest["word_width"] = int(scenario.word_width)
    return manifest


def _training_manifest(report) -> dict:
    """Accept a ``TrainingReport`` or a plain dict with the same keys."""
    if isinstance(report, dict):
        required = ("validation_accuracy", "num_classes")
        for key in required:
            if key not in report:
                raise RegistryError(f"training report dict is missing {key!r}")
        return {
            "training_accuracy": float(
                report.get("training_accuracy", report["validation_accuracy"])
            ),
            "validation_accuracy": float(report["validation_accuracy"]),
            "num_samples": int(report.get("num_samples", 0)),
            "num_classes": int(report["num_classes"]),
        }
    return {
        "training_accuracy": float(report.training_accuracy),
        "validation_accuracy": float(report.validation_accuracy),
        "num_samples": int(report.num_samples),
        "num_classes": int(report.num_classes),
    }


@dataclass(frozen=True)
class ModelRecord:
    """One registered model: its id, manifest, and on-disk paths."""

    model_id: str
    manifest: dict
    model_path: str
    manifest_path: str

    @property
    def name(self) -> str:
        return self.manifest["name"]

    @property
    def version(self) -> int:
        return int(self.manifest["version"])

    @property
    def threshold(self) -> Optional[float]:
        """The paper's decision threshold ``(a + 1/t) / 2``, if trained."""
        return self.manifest.get("threshold")

    @property
    def num_classes(self) -> Optional[int]:
        training = self.manifest.get("training")
        if training:
            return int(training["num_classes"])
        scenario = self.manifest.get("scenario")
        return int(scenario["num_classes"]) if scenario else None

    def summary(self) -> dict:
        """The manifest subset listed by ``GET /v1/models``."""
        training = self.manifest.get("training") or {}
        scenario = self.manifest.get("scenario") or {}
        quantization = self.manifest.get("quantization") or {}
        return {
            "model_id": self.model_id,
            "name": self.name,
            "version": self.version,
            "scenario": scenario.get("class"),
            "num_classes": self.num_classes,
            "validation_accuracy": training.get("validation_accuracy"),
            "threshold": self.threshold,
            "input_shape": self.manifest.get("input_shape"),
            "quantization": quantization.get("scheme"),
            "searched": bool(self.manifest.get("search")),
        }


class ModelRegistry:
    """A directory of content-addressed, versioned model artifacts."""

    def __init__(self, root: str):
        if not root:
            raise RegistryError("registry root must be a directory path")
        self.root = os.path.abspath(root)
        os.makedirs(self.root, exist_ok=True)

    # -- paths -------------------------------------------------------------

    def _model_path(self, model_id: str) -> str:
        return os.path.join(self.root, f"{model_id}.npz")

    def _manifest_path(self, model_id: str) -> str:
        return os.path.join(self.root, f"{model_id}.json")

    @property
    def _pins_path(self) -> str:
        return os.path.join(self.root, "pins.json")

    # -- registration ------------------------------------------------------

    def register(
        self,
        model: Sequential,
        name: str,
        scenario=None,
        report=None,
        search: Optional[dict] = None,
        extra: Optional[dict] = None,
    ) -> ModelRecord:
        """Persist ``model`` under ``name`` and return its record.

        ``scenario`` (a :class:`DifferentialScenario`) and ``report``
        (a :class:`TrainingReport` or equivalent dict) enrich the
        manifest with the online-phase parameters; both are optional so
        untrained or externally-trained models can still be served.
        ``search`` (a JSON-ready dict, e.g.
        :meth:`repro.search.SearchResult.summary`) records how the
        model's input differences were *discovered* — the
        ``repro.search`` pipeline passes it so a served model is
        auditable back to its difference search.  Registering a model
        whose content digest already exists is idempotent and returns
        the existing record unchanged.
        """
        if not name or "/" in name or name != name.strip():
            raise RegistryError(f"invalid model name {name!r}")
        model_id = model_digest(model)
        existing = self._read_manifest(model_id)
        if existing is not None:
            return ModelRecord(
                model_id,
                existing,
                self._model_path(model_id),
                self._manifest_path(model_id),
            )
        manifest: dict = {
            "manifest_version": MANIFEST_VERSION,
            "model_id": model_id,
            "name": name,
            "version": self._next_version(name),
            "created_unix": time.time(),
            "input_shape": list(model.input_shape or ()),
            "dtype": model.dtype.name,
            "loss": None,
            "optimizer": None,
            "metrics": list(model.metric_names),
            "param_count": model.count_params(),
            "scenario": _scenario_manifest(scenario) if scenario is not None else None,
            "training": _training_manifest(report) if report is not None else None,
        }
        if model.loss is not None and model.optimizer is not None:
            manifest["loss"] = type(model.loss).__name__
            manifest["optimizer"] = type(model.optimizer).__name__
        if manifest["training"] is not None:
            training = manifest["training"]
            manifest["threshold"] = decision_threshold(
                training["validation_accuracy"], training["num_classes"]
            )
        else:
            manifest["threshold"] = None
        if search:
            manifest["search"] = dict(search)
        if extra:
            manifest["extra"] = dict(extra)

        # Weights first, manifest last: a manifest is the commit record,
        # so a visible manifest always points at complete weights.
        model.save(self._model_path(model_id))
        atomic_write(
            self._manifest_path(model_id),
            (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode(),
        )
        return ModelRecord(
            model_id,
            manifest,
            self._model_path(model_id),
            self._manifest_path(model_id),
        )

    def register_quantized(
        self,
        quantized: QuantizedSequential,
        parent_ref: str,
        holdout=None,
        name: Optional[str] = None,
        extra: Optional[dict] = None,
    ) -> ModelRecord:
        """Persist a quantized variant next to its float parent.

        ``parent_ref`` is the registered parent's id or name; the
        variant's manifest inherits the parent's scenario, training
        report and decision threshold (the online phase thresholds the
        same statistic either way) and adds a ``quantization`` section
        recording the scheme, the parent id, and — when ``holdout`` is
        a ``(features, labels)`` pair — the held-out accuracies of both
        models and their delta in percentage points, so the cost of the
        quantization is pinned in the artifact itself.  ``name``
        defaults to ``"<parent name>-<scheme>"``.  Idempotent on the
        variant's content digest, like :meth:`register`.
        """
        parent_model, parent = self.load(parent_ref)
        model_id = quantized.digest()
        existing = self._read_manifest(model_id)
        if existing is not None:
            return ModelRecord(
                model_id,
                existing,
                self._model_path(model_id),
                self._manifest_path(model_id),
            )
        name = name or f"{parent.name}-{quantized.scheme}"
        if "/" in name or name != name.strip():
            raise RegistryError(f"invalid model name {name!r}")
        quantization = {
            "scheme": quantized.scheme,
            "format_version": QUANT_FORMAT_VERSION,
            "parent_id": parent.model_id,
        }
        if holdout is not None:
            features, labels = holdout
            quantized_accuracy = quantized.accuracy(features, labels)
            labels = np.asarray(labels)
            parent_accuracy = float(
                (parent_model.predict_classes(features) == labels).mean()
            )
            quantization["holdout_accuracy"] = quantized_accuracy
            quantization["parent_holdout_accuracy"] = parent_accuracy
            quantization["accuracy_delta_pp"] = (
                (quantized_accuracy - parent_accuracy) * 100.0
            )
        manifest: dict = {
            "manifest_version": MANIFEST_VERSION,
            "model_id": model_id,
            "name": name,
            "version": self._next_version(name),
            "created_unix": time.time(),
            "input_shape": list(quantized.input_shape),
            "dtype": "float32",
            "loss": parent.manifest.get("loss"),
            "optimizer": parent.manifest.get("optimizer"),
            "metrics": list(parent.manifest.get("metrics", [])),
            "param_count": quantized.count_params(),
            "scenario": parent.manifest.get("scenario"),
            "training": parent.manifest.get("training"),
            "threshold": parent.manifest.get("threshold"),
            "quantization": quantization,
        }
        if extra:
            manifest["extra"] = dict(extra)
        quantized.save(self._model_path(model_id))
        atomic_write(
            self._manifest_path(model_id),
            (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode(),
        )
        return ModelRecord(
            model_id,
            manifest,
            self._model_path(model_id),
            self._manifest_path(model_id),
        )

    def _next_version(self, name: str) -> int:
        versions = [
            record.version for record in self.list() if record.name == name
        ]
        return max(versions, default=0) + 1

    # -- lookup ------------------------------------------------------------

    def _read_manifest(self, model_id: str) -> Optional[dict]:
        try:
            with open(self._manifest_path(model_id), "r", encoding="utf-8") as fh:
                return json.load(fh)
        except FileNotFoundError:
            return None
        except (OSError, json.JSONDecodeError) as exc:
            raise RegistryError(
                f"corrupt manifest for model {model_id!r}: {exc}"
            ) from None

    def list(self) -> List[ModelRecord]:
        """All registered models, sorted by ``(name, version)``."""
        records = []
        for entry in os.listdir(self.root):
            if not entry.endswith(".json") or entry == "pins.json":
                continue
            model_id = entry[: -len(".json")]
            manifest = self._read_manifest(model_id)
            if manifest is None:
                continue
            records.append(
                ModelRecord(
                    model_id,
                    manifest,
                    self._model_path(model_id),
                    self._manifest_path(model_id),
                )
            )
        records.sort(key=lambda record: (record.name, record.version))
        return records

    def get(self, model_id: str) -> ModelRecord:
        """The record for an exact content-address id."""
        manifest = self._read_manifest(model_id)
        if manifest is None:
            raise RegistryError(f"no model with id {model_id!r}")
        return ModelRecord(
            model_id,
            manifest,
            self._model_path(model_id),
            self._manifest_path(model_id),
        )

    def latest(self, name: str) -> ModelRecord:
        """The highest-version model registered under ``name``."""
        named = [record for record in self.list() if record.name == name]
        if not named:
            raise RegistryError(f"no model registered under name {name!r}")
        return named[-1]

    def resolve(self, ref: str) -> ModelRecord:
        """Resolve a model id, or a name via its pin, or the latest version."""
        if os.path.exists(self._manifest_path(ref)):
            return self.get(ref)
        pins = self._read_pins()
        if ref in pins:
            return self.get(pins[ref])
        return self.latest(ref)

    def load(self, ref: str) -> Tuple[Sequential, ModelRecord]:
        """Load ``(model, record)`` for an id or name.

        Quantized variants (manifest carries a ``quantization``
        section) come back as :class:`QuantizedSequential`, which
        exposes the same inference surface the engine and HTTP service
        consume, so callers route to either transparently.
        """
        record = self.resolve(ref)
        loader = (
            QuantizedSequential.load
            if record.manifest.get("quantization")
            else Sequential.load
        )
        try:
            model = loader(record.model_path)
        except FileNotFoundError:
            raise RegistryError(
                f"manifest for {record.model_id!r} exists but its weights "
                f"file is missing"
            ) from None
        except (LayerError, TrainingError) as exc:
            raise RegistryError(
                f"weights file for {record.model_id!r} is unreadable: {exc}"
            ) from None
        return model, record

    # -- pins --------------------------------------------------------------

    def _read_pins(self) -> Dict[str, str]:
        try:
            with open(self._pins_path, "r", encoding="utf-8") as fh:
                return dict(json.load(fh))
        except FileNotFoundError:
            return {}
        except (OSError, json.JSONDecodeError) as exc:
            raise RegistryError(f"corrupt pins file: {exc}") from None

    def pin(self, name: str, model_id: str) -> None:
        """Freeze ``name`` to resolve to ``model_id`` until unpinned."""
        self.get(model_id)  # must exist
        pins = self._read_pins()
        pins[name] = model_id
        atomic_write(
            self._pins_path, (json.dumps(pins, indent=2, sort_keys=True) + "\n").encode()
        )

    def unpin(self, name: str) -> None:
        """Remove a pin; resolution falls back to ``latest(name)``."""
        pins = self._read_pins()
        if name not in pins:
            raise RegistryError(f"no pin for name {name!r}")
        del pins[name]
        atomic_write(
            self._pins_path, (json.dumps(pins, indent=2, sort_keys=True) + "\n").encode()
        )

    def pins(self) -> Dict[str, str]:
        """The current ``name -> model_id`` pin table."""
        return self._read_pins()
