"""The serve load harness emits a schema-valid ``BENCH_serve.json``."""

import importlib.util
import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"
sys.path.insert(0, str(BENCH_DIR))  # the scripts import ``timing``

import timing  # noqa: E402


def _load_module(name):
    spec = importlib.util.spec_from_file_location(name, BENCH_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


runner = _load_module("run_benchmarks")
bench_serve = _load_module("bench_serve")


class TestBenchServe:
    def test_quick_run_emits_schema_valid_artifact(self, tmp_path):
        out_path = timing.write_report(
            "serve", True, bench_serve.run(quick=True), tmp_path
        )
        assert out_path.name == "BENCH_serve.json"
        timing.validate_bench_file(out_path)  # the shared schema gate
        report = json.loads(out_path.read_text())
        assert report["suite"] == "serve"
        assert report["quick"] is True
        names = {entry["name"] for entry in report["benchmarks"]}
        assert any(name.startswith("serve_engine_classify") for name in names)
        assert any(name.startswith("serve_http_classify") for name in names)
        assert any(name.startswith("serve_http_distinguish") for name in names)
        for entry in report["benchmarks"]:
            # Serving extras ride along on the standard schema.
            assert entry["p50_s"] <= entry["p95_s"] <= entry["p99_s"]
            assert entry["throughput_rps"] > 0
        engine_entry = next(
            entry
            for entry in report["benchmarks"]
            if entry["name"].startswith("serve_engine")
        )
        assert engine_entry["batch_size_histogram"]
        assert sum(engine_entry["batch_size_histogram"].values()) > 0

    def test_suite_is_wired_into_the_regression_gate(self):
        assert "serve" in runner.SUITES
        assert runner.SUITES["serve"] == BENCH_DIR / "bench_serve.py"
        assert runner.SUITES["serve"].exists()
