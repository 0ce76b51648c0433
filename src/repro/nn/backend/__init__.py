"""Low-level compute support for the NN substrate.

* :mod:`repro.nn.backend.blas` — BLAS thread domains: per-domain
  OpenBLAS pool sizes around ``Sequential.fit`` (``"train"``) and the
  serving engine's fused predicts (``"serve"``);
* :mod:`repro.nn.backend.qkernel` — the compiled int8 inference kernel
  behind :mod:`repro.nn.quant`;
* :mod:`repro.nn.backend.cbuild` — the one build/cache/load/self-test
  path for runtime-compiled C kernels, used by ``qkernel``, by the
  one-pass Adam step in :mod:`repro.nn.optimizers` and by the
  Dense+ReLU epilogue in :mod:`repro.nn.layers`.

Apart from that epilogue, the layers and losses call numpy directly.
"""
