"""Quantized-inference latency harness: writes ``BENCH_quant.json``.

Times ``predict_proba`` for the float32 parent and its int8 variant
for the two Table 3 model families whose matmuls int8 quantizes (MLP
III, CNN II) at single-row and batched shapes, plus the serving path
(:class:`MicroBatchEngine.classify`) at typical coalesced batch sizes.
Entries follow the shared ``BENCH_<suite>.json`` schema (``name`` /
``mean_s`` / ``stddev_s`` / ``rounds``) with quantization extras
(``scheme``, ``rows``, and ``speedup_vs_f32`` on the int8 entries),
so ``check_regression.py`` gates on the means exactly as it
does for the other suites.

The committed full-mode artefact is also the acceptance record for the
int8 path: ``predict_mlp_iii_int8_*`` must run at least twice as fast
as the matching ``predict_mlp_iii_f32_*`` at both shapes.

Usage::

    PYTHONPATH=src python benchmarks/bench_quant.py [--quick] [--output-dir DIR]
"""

from __future__ import annotations

import statistics

import numpy as np

import timing
from repro.nn import quantize_model
from repro.nn.architectures import cnn_ii, mlp_iii
from repro.nn.backend import qkernel
from repro.serve import MicroBatchEngine

INPUT_BITS = 128

#: name -> Table 3 factory.  MLP III is the paper's best distinguisher
#: (two 1024-wide GEMMs — the int8 showcase); CNN II's 3072-column
#: im2col matmul quantizes too.  The LSTMs keep every parameter float32
#: under int8, so an LSTM row would time f32 against itself.
MODELS = {
    "mlp_iii": mlp_iii,
    "cnn_ii": cnn_ii,
}

SCHEMES = ("f32", "int8")


def _bits(rng, rows):
    return (rng.random((rows, INPUT_BITS)) < 0.5).astype(np.float32)


def _variants(name):
    model = MODELS[name]().build((INPUT_BITS,), np.random.default_rng(7))
    model.compile(dtype="float32")
    return {"f32": model, "int8": quantize_model(model)}


def _cell_entries(prefix, rows, samples):
    """One entry per scheme of a timed cell; int8 carries its speedup."""
    f32_mean = statistics.fmean(samples["f32"])
    entries = []
    for scheme in SCHEMES:
        extras = {"scheme": scheme, "rows": rows}
        if scheme != "f32":
            extras["speedup_vs_f32"] = f32_mean / statistics.fmean(
                samples[scheme]
            )
        entries.append(
            timing.entry(f"{prefix}_{scheme}_rows{rows}", samples[scheme], **extras)
        )
    return entries


def run(quick: bool) -> dict:
    rng = np.random.default_rng(0xBE9C)
    # Quick mode cuts rounds, never shapes: entry names must match the
    # committed full-mode baseline so check_regression compares them.
    single_rounds = 8 if quick else 60
    batch_rounds = 4 if quick else 14
    batch_rows = 512
    serve_rows = (32, 256)

    entries = []
    for model_name in MODELS:
        variants = _variants(model_name)
        for rows, rounds in ((1, single_rounds), (batch_rows, batch_rounds)):
            x = _bits(rng, rows)
            fns = {
                scheme: (
                    lambda model=variants[scheme]: model.predict_proba(
                        x, batch_size=rows
                    )
                )
                for scheme in SCHEMES
            }
            samples = timing.sample_interleaved(fns, rounds)
            entries += _cell_entries(f"predict_{model_name}", rows, samples)

    # The serving path: engine submit -> coalesce -> fused predict, the
    # latency a /v1/classify caller actually sees (minus HTTP framing).
    serve_variants = _variants("mlp_iii")
    for rows in serve_rows:
        x = _bits(rng, rows)
        engines = {
            scheme: MicroBatchEngine(
                serve_variants[scheme], max_batch=max(rows, 1), max_wait_ms=0.1
            )
            for scheme in SCHEMES
        }
        try:
            fns = {
                scheme: (lambda engine=engine: engine.classify(x))
                for scheme, engine in engines.items()
            }
            samples = timing.sample_interleaved(fns, batch_rounds)
        finally:
            for engine in engines.values():
                engine.stop()
        entries += _cell_entries("serve_mlp_iii", rows, samples)

    return {
        "quant_kernel": qkernel.kernel_in_use(),
        "benchmarks": entries,
    }


if __name__ == "__main__":
    raise SystemExit(timing.main("quant", run))
