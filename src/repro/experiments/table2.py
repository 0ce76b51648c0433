"""Table 2: neural distinguisher accuracy on round-reduced Gimli.

The paper reports, for ``2^17.6`` offline samples and 20 epochs:

=======  ==========  ============
Rounds   Gimli-Hash  Gimli-Cipher
=======  ==========  ============
6        0.9689      0.9528
7        0.7229      0.6340
8        0.5219      0.5099
=======  ==========  ============

This experiment retrains both scenario families for the same round
counts and additionally runs the *online* phase against both a cipher
and a random oracle (the part of Algorithm 2 Table 2 doesn't show),
reporting the verdicts.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.core.distinguisher import MLDistinguisher
from repro.core.scenario import GimliCipherScenario, GimliHashScenario
from repro.errors import DistinguisherAborted
from repro.experiments.config import default_scale, get_dtype, get_workers
from repro.jobs import bind_run, run_cells
from repro.nn.architectures import mlp_ii
from repro.obs.trace import span
from repro.utils.rng import derive_rng, make_rng

#: Accuracies printed in the paper's Table 2.
PAPER_TABLE2 = {
    ("hash", 6): 0.9689,
    ("hash", 7): 0.7229,
    ("hash", 8): 0.5219,
    ("cipher", 6): 0.9528,
    ("cipher", 7): 0.6340,
    ("cipher", 8): 0.5099,
}

#: Minimum offline samples per round count.  The 8-round signal is a
#: ~1% accuracy edge; certifying it needs close to the paper's own
#: 2^17.6 budget, so scaled-down runs are floored here (an 8-round run
#: with 10k samples would not be the paper's experiment at all).
#: An explicit ``offline_samples`` argument overrides the floor.
ROUND_MIN_SAMPLES = {8: 180_000}

#: Minimum online samples and epochs per round count, same rationale
#: (the paper's own online budget is 2^14.3 ≈ 20k).
ROUND_MIN_ONLINE = {8: 1 << 14}
ROUND_MIN_EPOCHS = {8: 5}


def _make_scenario(target: str, rounds: int):
    if target == "hash":
        return GimliHashScenario(rounds=rounds)
    if target == "cipher":
        return GimliCipherScenario(total_rounds=rounds)
    raise ValueError(f"unknown target {target!r}; expected 'hash' or 'cipher'")


def _run_table2_cell(payload: Dict) -> Dict:
    """Train and test one ``(target, rounds)`` cell.

    Module-level (so it pickles into :func:`~repro.core.parallel.run_grid`
    worker processes) and fully self-contained: every size and
    seed-derived generator arrives pre-resolved in ``payload``, so the
    cell computes the same row no matter which process runs it.
    """
    target, r = payload["target"], payload["rounds"]
    with span("table2.cell", target=target, rounds=r):
        return _table2_cell_body(payload, target, r)


def _table2_cell_body(payload: Dict, target: str, r: int) -> Dict:
    scenario = _make_scenario(target, r)
    distinguisher = MLDistinguisher(
        scenario,
        model=mlp_ii(),
        epochs=payload["epochs"],
        batch_size=256,
        rng=payload["cell_rng"],
        dtype=payload["dtype"],
    )
    row = {
        "target": target,
        "rounds": r,
        "paper": PAPER_TABLE2.get((target, r)),
        "offline_samples": payload["offline_samples"],
    }
    try:
        report = distinguisher.train(
            num_samples=payload["offline_samples"], significance=0.05
        )
    except DistinguisherAborted:
        row.update({"measured": 0.5, "aborted": True})
        return row
    row.update({"measured": report.validation_accuracy, "aborted": False})
    if payload["run_online"]:
        row_online = payload["online_samples"]
        cipher_result = distinguisher.test(scenario.cipher_oracle(), row_online)
        random_result = distinguisher.test(
            scenario.random_oracle(rng=payload["ro_rng"]), row_online
        )
        row.update(
            {
                "online_samples": row_online,
                "cipher_accuracy": cipher_result.accuracy,
                "cipher_verdict": cipher_result.verdict,
                "random_accuracy": random_result.accuracy,
                "random_verdict": random_result.verdict,
            }
        )
    return row


def run_table2(
    rounds: Sequence[int] = (6, 7, 8),
    targets: Sequence[str] = ("hash", "cipher"),
    offline_samples: Optional[int] = None,
    online_samples: Optional[int] = None,
    epochs: Optional[int] = None,
    run_online: bool = True,
    rng=None,
    workers: Optional[int] = None,
    dtype: Optional[str] = None,
    queue_dir=None,
) -> Dict:
    """Regenerate Table 2 (accuracy per round count and target).

    Defaults come from ``REPRO_SCALE``; pass explicit sizes to override.
    ``workers``/``dtype`` default to ``REPRO_WORKERS``/``REPRO_DTYPE``.
    Each row reports the offline validation accuracy plus — when
    ``run_online`` — the online accuracies and verdicts against the
    cipher and a random oracle.

    Cells of the (target, rounds) grid are independent models, trained
    in ``workers`` processes.  All seed material is derived up front, in
    the grid's serial iteration order and whatever any cell's outcome,
    and every dataset comes from the worker-count-invariant sharded
    generator, so the rows are identical for every worker count.
    Cells generate their datasets with one worker (daemonic pool
    processes cannot fork grandchildren).

    ``queue_dir`` makes the grid resumable: every cell becomes a
    persistent job (see :mod:`repro.jobs`), completed cells are skipped
    on re-runs, and the seed is pinned in the queue so an interrupted +
    resumed grid returns rows bit-identical to an uninterrupted one.
    ``rng`` must then be an integer seed or ``None``.
    """
    scale = default_scale()
    offline = offline_samples if offline_samples is not None else scale.offline_samples
    online = online_samples if online_samples is not None else scale.online_samples
    n_epochs = epochs if epochs is not None else scale.table2_epochs
    workers = workers if workers is not None else get_workers()
    dtype = dtype if dtype is not None else get_dtype()
    if queue_dir is not None:
        rng = bind_run(
            queue_dir,
            "table2",
            {
                "rounds": list(rounds),
                "targets": list(targets),
                "offline_samples": offline_samples,
                "online_samples": online_samples,
                "epochs": epochs,
                "run_online": run_online,
                "dtype": dtype,
            },
            rng,
        )
    generator = make_rng(rng)
    payloads = []
    specs = []
    for target in targets:
        if target not in ("hash", "cipher"):
            raise ValueError(
                f"unknown target {target!r}; expected 'hash' or 'cipher'"
            )
        for r in rounds:
            cell_rng = derive_rng(generator, target, r)
            row_offline = offline
            row_online = online
            row_epochs = n_epochs
            if offline_samples is None:
                row_offline = max(offline, ROUND_MIN_SAMPLES.get(r, 0))
            if online_samples is None:
                row_online = max(online, ROUND_MIN_ONLINE.get(r, 0))
            if epochs is None:
                row_epochs = max(n_epochs, ROUND_MIN_EPOCHS.get(r, 0))
            ro_rng = (
                derive_rng(generator, "ro", target, r) if run_online else None
            )
            payloads.append(
                {
                    "target": target,
                    "rounds": r,
                    "offline_samples": row_offline,
                    "online_samples": row_online,
                    "epochs": row_epochs,
                    "run_online": run_online,
                    "cell_rng": cell_rng,
                    "ro_rng": ro_rng,
                    "dtype": dtype,
                }
            )
            specs.append(
                {
                    "experiment": "table2",
                    "target": target,
                    "rounds": r,
                    "offline_samples": row_offline,
                    "online_samples": row_online if run_online else None,
                    "epochs": row_epochs,
                    "run_online": run_online,
                    "dtype": dtype,
                    "seed": rng if queue_dir is not None else None,
                }
            )
    rows = run_cells(
        _run_table2_cell, payloads, specs=specs, workers=workers,
        label="table2", queue_dir=queue_dir,
    )
    return {
        "experiment": "table2",
        "offline_samples": offline,
        "epochs": n_epochs,
        "rows": rows,
    }
