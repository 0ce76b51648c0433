"""Worker-count invariance of the grid-parallel table runners.

The tentpole contract: every table runner derives per-cell seed material
up front and dispatches cells through
:func:`repro.core.parallel.run_grid`, so ``workers=1`` (in-process) and
``workers=N`` (process pool) produce identical rows.  These tests run
each table twice at tiny scale and diff the results, stripping only the
wall-clock ``training_time_s`` field where present.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.parallel import run_grid
from repro.errors import DistinguisherError
from repro.experiments.table1 import run_table1
from repro.experiments.table2 import run_table2
from repro.experiments.table3 import run_table3


def _strip_timing(result):
    return {
        key: (
            [
                {k: v for k, v in row.items() if k != "training_time_s"}
                for row in value
            ]
            if key == "rows"
            else value
        )
        for key, value in result.items()
    }


class TestRunGrid:
    def test_preserves_order_in_process(self):
        assert run_grid(lambda p: p * 2, [3, 1, 2], workers=1) == [6, 2, 4]

    def test_preserves_order_across_processes(self):
        assert run_grid(_double, list(range(7)), workers=3) == [
            0, 2, 4, 6, 8, 10, 12
        ]

    def test_rejects_bad_worker_count(self):
        with pytest.raises(DistinguisherError):
            run_grid(_double, [1], workers=0)

    def test_none_means_serial(self):
        # No worker count given: in-process (a lambda cannot pickle).
        assert run_grid(lambda p: p + 1, [1, 2]) == [2, 3]


def _double(payload):
    return payload * 2


class TestTable1Invariance:
    def test_workers_do_not_change_rows(self):
        kwargs = dict(max_search_rounds=2, verify_samples=1 << 9, rng=11)
        serial = run_table1(workers=1, **kwargs)
        pooled = run_table1(workers=4, **kwargs)
        assert serial == pooled

    def test_monte_carlo_rng_is_per_round(self):
        # Same seed, different max_search_rounds: the round-2 verification
        # stream must not depend on how many other rounds were searched.
        few = run_table1(max_search_rounds=2, verify_samples=1 << 9, rng=11)
        more = run_table1(max_search_rounds=3, verify_samples=1 << 9, rng=11)
        row2_few = next(r for r in few["rows"] if r["rounds"] == 2)
        row2_more = next(r for r in more["rows"] if r["rounds"] == 2)
        assert row2_few == row2_more


class TestTable2Invariance:
    def test_workers_do_not_change_rows(self, monkeypatch):
        # workers=None reads REPRO_WORKERS, here unset.
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        monkeypatch.delenv("REPRO_DTYPE", raising=False)
        # At 5 rounds the accuracies are below 1, so a change to the
        # dataset stream moves the pinned values below.
        kwargs = dict(
            rounds=(5,),
            targets=("hash", "cipher"),
            offline_samples=1200,
            online_samples=300,
            epochs=1,
            rng=13,
        )
        serial = run_table2(workers=1, **kwargs)
        for workers in (2, None):
            assert run_table2(workers=workers, **kwargs) == serial
        assert [row["target"] for row in serial["rows"]] == ["hash", "cipher"]
        assert [
            (row["measured"], row["cipher_accuracy"], row["random_accuracy"])
            for row in serial["rows"]
        ] == [(280 / 300, 274 / 300, 154 / 300), (280 / 300, 283 / 300, 157 / 300)]

    def test_env_workers_match_explicit(self, monkeypatch):
        kwargs = dict(
            rounds=(3,),
            targets=("hash",),
            offline_samples=1000,
            online_samples=300,
            epochs=1,
            rng=13,
        )
        explicit = run_table2(workers=1, **kwargs)
        monkeypatch.setenv("REPRO_WORKERS", "2")
        from_env = run_table2(**kwargs)
        assert explicit == from_env


class TestTable3Invariance:
    def test_workers_do_not_change_rows(self, monkeypatch):
        # workers=None reads REPRO_WORKERS, here unset.
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        monkeypatch.delenv("REPRO_DTYPE", raising=False)
        # At 5 rounds the accuracies are below 1, so a change to the
        # dataset stream moves the pinned values below.
        kwargs = dict(
            networks=("MLP II", "MLP IV"),
            total_rounds=5,
            num_samples=1000,
            epochs=1,
            rng=17,
        )
        serial = _strip_timing(run_table3(workers=1, **kwargs))
        for workers in (2, None):
            rows = _strip_timing(run_table3(workers=workers, **kwargs))
            assert rows == serial
        assert [row["network"] for row in serial["rows"]] == ["MLP II", "MLP IV"]
        assert [row["measured"] for row in serial["rows"]] == [0.86, 0.91]
