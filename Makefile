# Convenience targets; everything assumes the repo root as CWD.

PYTHON ?= python

.PHONY: test bench bench-full bench-check serve check

REGISTRY ?= registry

# Tier-1 test suite.
test:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q

# Quick-mode engineering benchmarks: one round each, writes and
# validates benchmarks/BENCH_nn_ops.json and benchmarks/BENCH_ciphers.json
# (fails if either artefact is malformed).
bench:
	PYTHONPATH=src $(PYTHON) benchmarks/run_benchmarks.py --quick

# Full benchmarks (slower, stable timings) — use this to refresh the
# committed baselines.
bench-full:
	PYTHONPATH=src $(PYTHON) benchmarks/run_benchmarks.py

# Re-measure and fail if any benchmark regressed by more than 2x against
# the committed BENCH_*.json baselines.
bench-check:
	PYTHONPATH=src $(PYTHON) benchmarks/check_regression.py

# Start the online-phase serving endpoint over the on-disk registry
# (REGISTRY=dir to point elsewhere; the --max-batch / --max-wait-ms
# flags of `python -m repro.serve` tune micro-batching).
serve:
	PYTHONPATH=src $(PYTHON) -m repro.serve --registry $(REGISTRY)

# Everything a PR must pass: the tier-1 suite plus the benchmark
# regression gate.
check: test bench-check
