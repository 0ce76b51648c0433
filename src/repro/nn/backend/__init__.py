"""Low-level compute support for the NN substrate.

* :mod:`repro.nn.backend.blas` — BLAS thread domains: per-domain
  OpenBLAS pool sizes around ``Sequential.fit`` (``"train"``) and the
  serving engine's fused predicts (``"serve"``);
* :mod:`repro.nn.backend.qkernel` — the compiled int8 inference kernel
  behind :mod:`repro.nn.quant`, built through
  :mod:`repro.utils.cbuild` like every compiled kernel.

Apart from the compiled Dense+ReLU epilogue in :mod:`repro.nn.layers`,
the layers and losses call numpy directly.
"""
