"""Tests for the committed benchmark artefacts and their validator.

``make bench`` regenerates ``benchmarks/BENCH_*.json``; these tests keep
the committed baselines well-formed and the validator honest about
rejecting garbage.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"
sys.path.insert(0, str(BENCH_DIR))  # the scripts import ``timing``

import timing  # noqa: E402


def _load_module(name):
    spec = importlib.util.spec_from_file_location(name, BENCH_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


checker = _load_module("check_regression")


def _report(**means):
    return {
        "suite": "x",
        "quick": False,
        "benchmarks": [
            {"name": name, "mean_s": mean, "stddev_s": 0.0, "rounds": 3}
            for name, mean in means.items()
        ],
    }


@pytest.mark.parametrize(
    "suite", ["nn_ops", "ciphers", "serve", "obs", "quant", "jobs", "search"]
)
class TestCommittedBaselines:
    def test_baseline_exists_and_validates(self, suite):
        path = BENCH_DIR / f"BENCH_{suite}.json"
        assert path.exists(), f"missing committed baseline {path.name}"
        timing.validate_bench_file(path)

    def test_baseline_names_cover_suite(self, suite):
        report = json.loads((BENCH_DIR / f"BENCH_{suite}.json").read_text())
        names = {entry["name"] for entry in report["benchmarks"]}
        expected = {
            "nn_ops": {
                "test_mlp_iii_train_step_dtype[float32]",
                "test_mlp_iii_train_step_dtype[float64]",
                "test_inference_throughput",
                "test_adam_update[MLP II]",
                "test_adam_update[MLP III]",
                "test_dense_relu_step[MLP II]",
                "test_dense_relu_step[MLP III]",
                "test_adam_update_dead_units[MLP II]",
            },
            "ciphers": {
                "test_gimli_full_rounds",
                "test_gimli_8_rounds",
                "test_gimli_permute_batch[8192x3]",
                "test_oracle_count_shard[gimli-hash-r5]",
            },
            "serve": {
                "serve_engine_classify[rows=8,threads=8]",
                "serve_http_classify[rows=8,threads=8]",
                "serve_http_distinguish[rows=8,threads=8]",
                "serve_decode_body[rows=512]",
            },
            "obs": {
                "obs_off_mlp_iii_train_step[batch=256,float32]",
                "obs_on_mlp_iii_train_step[batch=256,float32]",
                "obs_span_disabled",
                "obs_span_enabled",
                "obs_log_json_line",
                "obs_counter_inc",
                "obs_histogram_observe",
            },
            "quant": {
                "predict_mlp_iii_f32_rows1",
                "predict_mlp_iii_int8_rows1",
                "predict_mlp_iii_f32_rows512",
                "predict_mlp_iii_int8_rows512",
                "predict_cnn_ii_int8_rows512",
                "serve_mlp_iii_int8_rows32",
                "serve_mlp_iii_int8_rows256",
            },
            "jobs": {
                "grid_bare_16cells",
                "queue_run_16cells",
                "queue_replay_16cells",
            },
            "search": {
                "oracle_score_single",
                "oracle_score_batch64",
                "search_toyspeck_full",
            },
        }[suite]
        assert expected <= names


class TestQuantBaseline:
    """The committed BENCH_quant.json is also the acceptance record."""

    def test_int8_mlp_iii_speedup_at_least_2x(self):
        report = json.loads((BENCH_DIR / "BENCH_quant.json").read_text())
        means = {
            entry["name"]: entry["mean_s"] for entry in report["benchmarks"]
        }
        for rows in (1, 512):
            f32 = means[f"predict_mlp_iii_f32_rows{rows}"]
            int8 = means[f"predict_mlp_iii_int8_rows{rows}"]
            assert f32 / int8 >= 2.0, (
                f"int8 MLP III at rows={rows}: {f32 / int8:.2f}x < 2x"
            )

    def test_speedup_extras_match_means(self):
        report = json.loads((BENCH_DIR / "BENCH_quant.json").read_text())
        means = {
            entry["name"]: entry["mean_s"] for entry in report["benchmarks"]
        }
        for entry in report["benchmarks"]:
            speedup = entry.get("speedup_vs_f32")
            if speedup is None:
                continue
            scheme = entry["scheme"]
            f32_name = entry["name"].replace(f"_{scheme}_", "_f32_")
            assert speedup == pytest.approx(
                means[f32_name] / entry["mean_s"], rel=1e-6
            )


class TestValidator:
    def _reject(self, tmp_path, payload, match):
        path = tmp_path / "BENCH_bad.json"
        path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
        with pytest.raises(ValueError, match=match):
            timing.validate_bench_file(path)

    def test_rejects_invalid_json(self, tmp_path):
        self._reject(tmp_path, "{not json", "invalid JSON")

    def test_rejects_missing_keys(self, tmp_path):
        self._reject(tmp_path, {"suite": "x", "quick": False}, "missing key")

    def test_rejects_empty_benchmarks(self, tmp_path):
        self._reject(
            tmp_path,
            {"suite": "x", "quick": False, "benchmarks": []},
            "non-empty",
        )

    def test_rejects_nonpositive_mean(self, tmp_path):
        self._reject(
            tmp_path,
            {
                "suite": "x",
                "quick": False,
                "benchmarks": [
                    {"name": "a", "mean_s": 0.0, "stddev_s": 0.0, "rounds": 1}
                ],
            },
            "non-positive mean_s",
        )

    def test_rejects_missing_entry_field(self, tmp_path):
        self._reject(
            tmp_path,
            {
                "suite": "x",
                "quick": False,
                "benchmarks": [{"name": "a", "mean_s": 1.0}],
            },
            "missing",
        )

    def test_compare_flags_only_real_regressions(self):
        rows, unmatched = checker.compare_reports(
            _report(a=0.10, b=0.10, c=0.10),
            _report(a=0.15, b=0.25, c=0.05),
            threshold=2.0,
        )
        by_name = {row["name"]: row for row in rows}
        assert not by_name["a"]["regressed"]  # 1.5x: inside the budget
        assert by_name["b"]["regressed"]  # 2.5x: fails
        assert not by_name["c"]["regressed"]  # speedup: fine
        assert unmatched == []

    def test_compare_reports_percentage_deltas(self):
        rows, _ = checker.compare_reports(
            _report(a=0.10, b=0.20), _report(a=0.15, b=0.10)
        )
        by_name = {row["name"]: row for row in rows}
        assert by_name["a"]["delta_pct"] == pytest.approx(50.0)
        assert by_name["b"]["delta_pct"] == pytest.approx(-50.0)

    def test_compare_reports_unmatched_names(self):
        rows, unmatched = checker.compare_reports(
            _report(old=0.1, shared=0.1), _report(new=0.1, shared=0.1)
        )
        assert [row["name"] for row in rows] == ["shared"]
        assert unmatched == ["new", "old"]

    def test_compare_rejects_silly_threshold(self):
        with pytest.raises(ValueError):
            checker.compare_reports(_report(a=1.0), _report(a=1.0), threshold=0.5)

    def test_accepts_wellformed(self, tmp_path):
        path = tmp_path / "BENCH_ok.json"
        path.write_text(
            json.dumps(
                {
                    "suite": "ok",
                    "quick": True,
                    "benchmarks": [
                        {
                            "name": "a",
                            "mean_s": 0.01,
                            "stddev_s": 0.001,
                            "rounds": 3,
                        }
                    ],
                }
            )
        )
        timing.validate_bench_file(path)
