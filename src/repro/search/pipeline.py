"""End-to-end pipeline: search → train → register.

One declarative :class:`~repro.search.config.ScenarioSpec` drives the
whole chain the paper performs by hand:

1. **Search** (optional): run the evolutionary bias search over the
   spec's scenario family and take the global top-``num_differences``
   masks as the class differences.  Hand-given ``differences`` skip the
   search — or seed it, when both are present.
2. **Train**: the standard offline phase of
   :class:`~repro.core.distinguisher.MLDistinguisher` on the built
   scenario (sharded generation applies unchanged).
3. **Register** (optional): persist the trained model in a
   :class:`~repro.serve.ModelRegistry`; the manifest's ``search``
   section records the discovered differences, their bias scores and
   the search budget, so a served model is auditable back to the
   difference set it was trained on.

Every stage reports through :mod:`repro.obs` spans and the process
metrics registry.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.distinguisher import MLDistinguisher
from repro.errors import SearchError
from repro.jobs import bind_run, run_cells
from repro.nn.architectures import build_mlp
from repro.nn.backend import blas
from repro.obs import log as obs_log
from repro.obs.trace import span
from repro.search.config import ScenarioSpec
from repro.search.evolve import SearchConfig, SearchResult, evolve_differences
from repro.search.oracle import BiasScoringOracle

_log = obs_log.get_logger("repro.search")

#: Default offline budget of the pipeline's training stage (small: the
#: CLI is a scenario generator, not a paper-scale table run).
DEFAULT_TRAIN_SAMPLES = 12_000
DEFAULT_TRAIN_EPOCHS = 3
DEFAULT_HIDDEN = (64, 128)

#: OpenBLAS pool size for the training stage.  Its GEMMs are tens of
#: microseconds at the default widths and batch, so a second thread
#: saves little, and it stalls every GEMM whenever the other core is
#: busy or waking from idle: with one core loaded by another process a
#: 5-spec sweep's Dense time went from 0.13 to 0.5-0.8 s on a 2-vCPU
#: VM.  ``REPRO_BLAS_THREADS_TRAIN`` still overrides it inside ``fit``.
#: The thread count never changes results.
TRAIN_BLAS_THREADS = 1


def run_search(
    spec: ScenarioSpec, workers: int = 1
) -> SearchResult:
    """The search stage alone: ranked differences for ``spec``."""
    if spec.search is None:
        raise SearchError(f"spec {spec.name!r} has no 'search' section")
    config = SearchConfig(workers=workers, **spec.search)
    prototype = spec.prototype()
    oracle = BiasScoringOracle(
        prototype,
        n_samples=config.n_samples,
        rng=config.seed,
        workers=config.workers,
    )
    seeds = None
    if spec.differences is not None:
        seeds = np.asarray(
            spec.differences, dtype=prototype.difference_masks.dtype
        )
    allowed = spec.builder.allowed_bits(**spec.params)
    config = dataclasses.replace(
        config, top_k=max(config.top_k, spec.num_differences)
    )
    return evolve_differences(oracle, config, allowed=allowed, seeds=seeds)


def run_search_pipeline(
    spec: ScenarioSpec,
    registry=None,
    workers: int = 1,
    verbose: bool = False,
) -> dict:
    """Run the full search → train → register chain for one spec.

    ``registry`` is a :class:`~repro.serve.ModelRegistry` (or ``None``
    to skip registration).  Returns a JSON-ready summary with the
    difference set actually used, the search digest (when a search
    ran), the training report, and the registered model id (when a
    registry was given).
    """
    result = None
    with span("search.pipeline", scenario=spec.scenario, spec=spec.name):
        if spec.search is not None:
            result = run_search(spec, workers=workers)
            masks = result.top(min(spec.num_differences,
                                   result.ranked_masks.shape[0]))
            if masks.shape[0] < 2:
                raise SearchError(
                    f"search returned {masks.shape[0]} usable difference(s); "
                    "a scenario needs at least 2"
                )
        else:
            masks = spec.differences
        scenario = spec.build_scenario(masks)

        train = dict(spec.train)
        num_samples = int(train.get("num_samples", DEFAULT_TRAIN_SAMPLES))
        epochs = int(train.get("epochs", DEFAULT_TRAIN_EPOCHS))
        hidden = list(train.get("hidden", DEFAULT_HIDDEN))
        seed = train.get("seed", 0)
        distinguisher = MLDistinguisher(
            scenario,
            model=build_mlp(hidden, "relu", num_classes=scenario.num_classes),
            epochs=epochs,
            batch_size=int(train.get("batch_size", 128)),
            rng=seed,
            workers=workers,
        )
        with span("search.train", samples=num_samples), \
                blas.pinned_threads(TRAIN_BLAS_THREADS):
            report = distinguisher.train(
                num_samples,
                significance=float(train.get("significance", 1e-3)),
                verbose=verbose,
            )

        summary = {
            "name": spec.name,
            "scenario": spec.scenario,
            "params": dict(spec.params),
            "differences": np.asarray(scenario.difference_masks).tolist(),
            "search": result.summary() if result is not None else None,
            "training": {
                "validation_accuracy": report.validation_accuracy,
                "training_accuracy": report.training_accuracy,
                "num_samples": report.num_samples,
                "num_classes": report.num_classes,
            },
        }
        if registry is not None:
            record = registry.register(
                distinguisher.model,
                spec.register.get("name", spec.name),
                scenario=scenario,
                report=report,
                search=result.summary() if result is not None else None,
            )
            summary["model_id"] = record.model_id
            summary["version"] = record.version
            _log.info(
                "search.registered",
                name=record.name,
                model_id=record.model_id[:12],
            )
    return summary


# -- sweeps ------------------------------------------------------------------


def load_sweep(paths: Sequence[str]) -> List[dict]:
    """Read sweep scenarios from JSON config files.

    Each file holds either one scenario dict or a list of them; the
    concatenation (in argument order) is the sweep.  Every raw dict is
    validated through :meth:`ScenarioSpec.from_dict` here — a typo in
    scenario 7 of 9 should fail the sweep up front, not after six
    trainings — but the *raw* dicts are returned: they are the
    JSON-able job specs the queue fingerprints.
    """
    raws: List[dict] = []
    for path in paths:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                loaded = json.load(handle)
        except FileNotFoundError:
            raise SearchError(f"no scenario config at {path!r}") from None
        except json.JSONDecodeError as exc:
            raise SearchError(f"invalid JSON in {path!r}: {exc}") from None
        entries = loaded if isinstance(loaded, list) else [loaded]
        for raw in entries:
            ScenarioSpec.from_dict(raw)  # validate eagerly
            raws.append(raw)
    if not raws:
        raise SearchError("sweep config files name no scenarios")
    names = [str(raw.get("name") or raw["scenario"]) for raw in raws]
    if len(set(names)) != len(names):
        raise SearchError(
            f"sweep scenario names must be unique, got {names}"
        )
    return raws


def _run_sweep_job(payload: Dict) -> dict:
    """One sweep scenario end-to-end (module-level: pickles into pools).

    The payload carries only JSON-able state (the raw spec dict and the
    registry path), so the job reruns identically on resume; scenario
    and registry objects are constructed inside the worker.  Oracle and
    dataset generation run with one in-cell worker — pool children
    cannot fork grandchildren — which is result-invariant.
    """
    spec = ScenarioSpec.from_dict(payload["raw"])
    registry = None
    if payload["registry_dir"] is not None:
        from repro.serve import ModelRegistry

        registry = ModelRegistry(payload["registry_dir"])
    with span("search.sweep.cell", spec=spec.name):
        return run_search_pipeline(
            spec,
            registry=registry,
            workers=payload["cell_workers"],
            verbose=payload["verbose"],
        )


def run_sweep(
    raws: Sequence[dict],
    registry_dir: Optional[str] = None,
    workers: int = 1,
    queue_dir=None,
    verbose: bool = False,
) -> List[dict]:
    """Run a sweep of scenario configs, optionally resumable.

    Each scenario is an independent cell: with ``workers`` they run in
    that many processes, and with ``queue_dir`` each becomes a
    persistent job keyed by the fingerprint of its raw config dict —
    ``python -m repro.search cfg1.json cfg2.json --resume DIR`` after an
    interruption re-runs only the scenarios that never finished (every
    spec carries its own seeds, so replayed summaries are bit-identical
    to a straight-through sweep).  Returns the summaries in config
    order.
    """
    raws = list(raws)
    if queue_dir is not None:
        bind_run(
            queue_dir,
            "search-sweep",
            {"registry": registry_dir is not None},
            0,
        )
    # Every cell samples with one worker: daemonic pool children
    # cannot fork grandchildren.
    payloads = [
        {
            "raw": raw,
            "registry_dir": registry_dir,
            "cell_workers": 1,
            "verbose": verbose and workers == 1,
        }
        for raw in raws
    ]
    return run_cells(
        _run_sweep_job,
        payloads,
        specs=raws,
        workers=workers,
        label="search.sweep",
        queue_dir=queue_dir,
    )
