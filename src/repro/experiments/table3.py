"""Table 3: manual architecture search on 8-round Gimli-Cipher.

Ten networks (MLP I-VI, LSTM I-II, CNN I-II) trained on the same
distinguisher data; the paper reports parameter counts, training time
(on an RTX 8000) and accuracy.  Absolute seconds are hardware-bound —
what reproduces is the ordering: MLPs fastest and most accurate, LSTMs
roughly an order of magnitude slower, CNNs stuck at accuracy 0.5.
"""

from __future__ import annotations

import time
from typing import Dict, Optional, Sequence

from repro.core.scenario import GimliCipherScenario
from repro.experiments.config import default_scale, get_dtype, get_workers
from repro.jobs import bind_run, run_cells
from repro.nn.architectures import (
    TABLE3_NETWORKS,
    TABLE3_PAPER_ACCURACY,
    TABLE3_PAPER_PARAMS,
    get_table3_network,
)
from repro.obs.trace import span
from repro.utils.rng import derive_rng, make_rng


def _run_table3_cell(payload: Dict) -> Dict:
    """Build, train and evaluate one network on the shared dataset.

    Module-level and payload-complete so it can run in a
    :func:`~repro.core.parallel.run_grid` worker process; the training
    data and both seed-derived generators travel in the payload, making
    the row independent of which process computes it (``training_time_s``
    is wall-clock and machine-dependent, everything else deterministic).
    """
    name = payload["network"]
    with span("table3.cell", network=name):
        return _table3_cell_body(payload, name)


def _table3_cell_body(payload: Dict, name: str) -> Dict:
    x_train, y_train = payload["x_train"], payload["y_train"]
    model = get_table3_network(name)
    model.build((x_train.shape[1],), rng=payload["weights_rng"])
    model.compile(dtype=payload["dtype"])
    start = time.perf_counter()
    model.fit(
        x_train,
        y_train,
        epochs=payload["epochs"],
        batch_size=payload["batch_size"],
        rng=payload["batches_rng"],
    )
    elapsed = time.perf_counter() - start
    _, metrics = model.evaluate(payload["x_val"], payload["y_val"])
    return {
        "network": name,
        "activation": TABLE3_NETWORKS[name]["activation"],
        "parameters": model.count_params(),
        "paper_parameters": TABLE3_PAPER_PARAMS[name],
        "training_time_s": elapsed,
        "measured": metrics["accuracy"],
        "paper": TABLE3_PAPER_ACCURACY[name],
    }


def run_table3(
    networks: Optional[Sequence[str]] = None,
    total_rounds: int = 8,
    num_samples: Optional[int] = None,
    epochs: Optional[int] = None,
    batch_size: int = 256,
    rng=None,
    workers: Optional[int] = None,
    dtype: Optional[str] = None,
    queue_dir=None,
) -> Dict:
    """Regenerate Table 3: per-network parameters, training time, accuracy.

    All networks see the *same* dataset (fresh per invocation), as in a
    manual architecture search.  ``networks`` defaults to all ten;
    ``workers``/``dtype`` default to ``REPRO_WORKERS``/``REPRO_DTYPE``.

    The shared dataset is generated once in the parent (sharded across
    ``workers`` processes); each network then trains as an independent
    grid cell, in ``workers`` processes via
    :func:`~repro.core.parallel.run_grid`.  Per-network seed material
    is derived up front in list order, so every worker count produces
    identical rows (modulo the wall-clock ``training_time_s``).

    ``queue_dir`` makes the grid resumable through :mod:`repro.jobs`:
    the shared dataset is regenerated from the pinned seed on every
    invocation (a small share of one cell's training), completed
    networks replay from disk, and only the missing cells train.  ``rng`` must then be
    an integer seed or ``None``.
    """
    scale = default_scale()
    n_samples = num_samples if num_samples is not None else scale.table3_samples
    n_epochs = epochs if epochs is not None else scale.table3_epochs
    names = list(networks) if networks is not None else list(TABLE3_NETWORKS)
    workers = workers if workers is not None else get_workers()
    dtype = dtype if dtype is not None else get_dtype()
    if queue_dir is not None:
        rng = bind_run(
            queue_dir,
            "table3",
            {
                "networks": names,
                "total_rounds": total_rounds,
                "num_samples": num_samples,
                "epochs": epochs,
                "batch_size": batch_size,
                "dtype": dtype,
            },
            rng,
        )
    generator = make_rng(rng)

    scenario = GimliCipherScenario(total_rounds=total_rounds)
    n_per_class = max(1, n_samples // scenario.num_classes)
    x, y = scenario.generate_dataset(
        n_per_class, rng=derive_rng(generator, "data"), workers=workers
    )
    cut = int(round(x.shape[0] * 0.9))
    x_train, y_train = x[:cut], y[:cut]
    x_val, y_val = x[cut:], y[cut:]

    payloads = [
        {
            "network": name,
            "x_train": x_train,
            "y_train": y_train,
            "x_val": x_val,
            "y_val": y_val,
            "epochs": n_epochs,
            "batch_size": batch_size,
            "dtype": dtype,
            "weights_rng": derive_rng(generator, "weights", name),
            "batches_rng": derive_rng(generator, "batches", name),
        }
        for name in names
    ]
    specs = [
        {
            "experiment": "table3",
            "network": name,
            "total_rounds": total_rounds,
            "num_samples": x.shape[0],
            "epochs": n_epochs,
            "batch_size": batch_size,
            "dtype": dtype,
            "seed": rng if queue_dir is not None else None,
        }
        for name in names
    ]
    rows = run_cells(
        _run_table3_cell, payloads, specs=specs, workers=workers,
        label="table3", queue_dir=queue_dir,
    )
    return {
        "experiment": "table3",
        "num_samples": x.shape[0],
        "epochs": n_epochs,
        "rounds": total_rounds,
        "rows": rows,
    }
