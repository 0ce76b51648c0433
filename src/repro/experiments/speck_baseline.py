"""§2.3 background: Gohr-style SPECK distinguisher + exact all-in-one.

Two experiments:

* :func:`run_speck_baseline` — the real-vs-random neural distinguisher
  on round-reduced SPECK-32/64 with Gohr's input difference
  ``0x0040/0000``, showing the accuracy decay with rounds.
* :func:`run_toyspeck_allinone` — on ToySpeck the exact all-in-one
  (Markov) distribution is computable, so the ML accuracy can be placed
  against its Bayes-optimal ceiling — the comparison Gohr could only
  make with 34 GB of precomputation on SPECK-32/64.

Both run their per-round cells as payload-complete grid jobs (seed
material derived up front in serial order), so they parallelise across
``workers`` processes and resume through :mod:`repro.jobs` with rows
identical for every worker count.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.core.distinguisher import MLDistinguisher
from repro.core.scenario import SpeckRealOrRandomScenario, ToySpeckScenario
from repro.diffcrypt.allinone import toyspeck_allinone
from repro.errors import DistinguisherAborted
from repro.experiments.config import default_scale, get_workers
from repro.jobs import bind_run, run_cells
from repro.nn.architectures import build_mlp
from repro.obs.trace import span
from repro.utils.rng import derive_rng, make_rng


def _run_speck_cell(payload: Dict) -> Dict:
    """Train and evaluate one SPECK round count (payload-complete)."""
    r = payload["rounds"]
    with span("speck-baseline.cell", rounds=r):
        scenario = SpeckRealOrRandomScenario(rounds=r, delta=payload["delta"])
        x, y = scenario.generate_dataset(
            max(1, payload["num_samples"] // 2), rng=payload["data_rng"]
        )
        model = build_mlp([64, 256, 256], "relu")
        model.build((x.shape[1],), rng=payload["weights_rng"])
        model.compile()
        cut = int(round(x.shape[0] * 0.9))
        model.fit(
            x[:cut],
            y[:cut],
            epochs=payload["epochs"],
            batch_size=256,
            rng=payload["batches_rng"],
        )
        _, metrics = model.evaluate(x[cut:], y[cut:])
        return {
            "rounds": r,
            "measured": metrics["accuracy"],
            "num_samples": x.shape[0],
        }


def run_speck_baseline(
    rounds: Sequence[int] = (3, 4, 5, 6),
    num_samples: Optional[int] = None,
    epochs: int = 5,
    delta: int = 0x0040_0000,
    rng=None,
    workers: Optional[int] = None,
    queue_dir=None,
) -> Dict:
    """Train real-vs-random MLP distinguishers on round-reduced SPECK.

    Each round count is an independent grid cell with pre-derived seed
    material, so rows are identical for every ``workers`` count and to
    the historical serial loop.  ``queue_dir`` makes the grid resumable
    (``rng`` must then be an integer seed or ``None``).
    """
    scale = default_scale()
    n_samples = num_samples if num_samples is not None else scale.offline_samples
    workers = workers if workers is not None else get_workers()
    if queue_dir is not None:
        rng = bind_run(
            queue_dir,
            "speck-baseline",
            {
                "rounds": list(rounds),
                "num_samples": num_samples,
                "epochs": epochs,
                "delta": delta,
            },
            rng,
        )
    generator = make_rng(rng)
    payloads = []
    specs = []
    for r in rounds:
        payloads.append(
            {
                "rounds": r,
                "delta": delta,
                "num_samples": n_samples,
                "epochs": epochs,
                "data_rng": derive_rng(generator, "data", r),
                "weights_rng": derive_rng(generator, "weights", r),
                "batches_rng": derive_rng(generator, "batches", r),
            }
        )
        specs.append(
            {
                "experiment": "speck-baseline",
                "rounds": r,
                "delta": delta,
                "num_samples": n_samples,
                "epochs": epochs,
                "seed": rng if queue_dir is not None else None,
            }
        )
    rows = run_cells(
        _run_speck_cell, payloads, specs=specs, workers=workers,
        label="speck-baseline", queue_dir=queue_dir,
    )
    return {"experiment": "speck-baseline", "delta": delta, "rows": rows}


def _run_toyspeck_cell(payload: Dict) -> Dict:
    """One ToySpeck round count: exact all-in-one + ML accuracy."""
    r = payload["rounds"]
    deltas = list(payload["deltas"])
    with span("toyspeck-allinone.cell", rounds=r):
        exact = toyspeck_allinone(deltas, r, max_active=payload["max_active"])
        scenario = ToySpeckScenario(rounds=r, deltas=deltas)
        distinguisher = MLDistinguisher(
            scenario,
            model=build_mlp([64, 256], "relu", num_classes=len(deltas)),
            epochs=payload["epochs"],
            batch_size=256,
            rng=payload["cell_rng"],
        )
        row = {
            "rounds": r,
            "bayes_accuracy": exact.bayes_accuracy(),
            "advantage_vs_random": exact.advantage_vs_random(),
        }
        try:
            report = distinguisher.train(num_samples=payload["num_samples"])
            row["measured"] = report.validation_accuracy
            row["aborted"] = False
        except DistinguisherAborted:
            row["measured"] = 1.0 / len(deltas)
            row["aborted"] = True
        return row


def run_toyspeck_allinone(
    rounds: Sequence[int] = (2, 3, 4),
    deltas: Sequence[int] = (0x0040, 0x2000),
    num_samples: Optional[int] = None,
    epochs: int = 8,
    max_active: int = 4096,
    rng=None,
    workers: Optional[int] = None,
    queue_dir=None,
) -> Dict:
    """ML accuracy vs the exact all-in-one Bayes ceiling on ToySpeck.

    Per-round cells run as a grid (see :func:`run_speck_baseline` for
    the determinism and resume contract).
    """
    scale = default_scale()
    n_samples = num_samples if num_samples is not None else scale.offline_samples
    workers = workers if workers is not None else get_workers()
    if queue_dir is not None:
        rng = bind_run(
            queue_dir,
            "toyspeck-allinone",
            {
                "rounds": list(rounds),
                "deltas": list(deltas),
                "num_samples": num_samples,
                "epochs": epochs,
                "max_active": max_active,
            },
            rng,
        )
    generator = make_rng(rng)
    payloads = []
    specs = []
    for r in rounds:
        payloads.append(
            {
                "rounds": r,
                "deltas": list(deltas),
                "num_samples": n_samples,
                "epochs": epochs,
                "max_active": max_active,
                "cell_rng": derive_rng(generator, "toyspeck", r),
            }
        )
        specs.append(
            {
                "experiment": "toyspeck-allinone",
                "rounds": r,
                "deltas": list(deltas),
                "num_samples": n_samples,
                "epochs": epochs,
                "max_active": max_active,
                "seed": rng if queue_dir is not None else None,
            }
        )
    rows = run_cells(
        _run_toyspeck_cell, payloads, specs=specs, workers=workers,
        label="toyspeck-allinone", queue_dir=queue_dir,
    )
    return {
        "experiment": "toyspeck-allinone",
        "deltas": list(deltas),
        "rows": rows,
    }
