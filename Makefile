# Convenience targets; everything assumes the repo root as CWD.

PYTHON ?= python

.PHONY: test bench bench-full bench-check serve check

REGISTRY ?= registry

# Tier-1 test suite.
test:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q

# Quick-mode engineering benchmarks: few rounds per row; runs all seven
# suites and writes and validates every benchmarks/BENCH_<suite>.json
# (fails if any artefact is malformed).  This overwrites the committed
# baselines with noisy numbers; to look without touching them, run
# benchmarks/run_benchmarks.py --quick --output-dir DIR.
bench:
	PYTHONPATH=src $(PYTHON) benchmarks/run_benchmarks.py --quick

# Full benchmarks (slower, stable timings) — use this to refresh the
# committed baselines.
bench-full:
	PYTHONPATH=src $(PYTHON) benchmarks/run_benchmarks.py

# Measure every suite into a temporary directory, then fail if any
# benchmark regressed by more than 2x against the committed
# BENCH_*.json baselines.
bench-check:
	@out=$$(mktemp -d) && \
	PYTHONPATH=src $(PYTHON) benchmarks/run_benchmarks.py --output-dir $$out && \
	PYTHONPATH=src $(PYTHON) benchmarks/check_regression.py $$out; \
	status=$$?; rm -rf $$out; exit $$status

# Start the online-phase serving endpoint over the on-disk registry
# (REGISTRY=dir to point elsewhere; the --max-batch / --max-wait-ms
# flags of `python -m repro.serve` tune micro-batching).
serve:
	PYTHONPATH=src $(PYTHON) -m repro.serve --registry $(REGISTRY)

# Everything a PR must pass: the tier-1 suite plus the benchmark
# regression gate.
check: test bench-check
