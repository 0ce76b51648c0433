"""Shared test helpers: numerical gradient checking for the NN layers,
which compiled kernels exist and whether they are expected to load."""

from __future__ import annotations

import importlib
import os
import pkgutil
import shutil
from typing import List

import numpy as np

import repro
from repro.utils import cbuild


def registered_kernels() -> List[str]:
    """The name of every compiled kernel in the package, after importing
    every ``repro`` module so that each kernel has registered."""
    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        if not module.name.endswith("__main__"):
            importlib.import_module(module.name)
    return sorted(cbuild._KERNELS)


def compiled_kernels_expected() -> bool:
    """True when a C compiler is on PATH and the kernel cache directory
    can be created, so every compiled kernel must build and pass its
    self-test rather than fall back to numpy."""
    if shutil.which("cc") is None:
        return False
    try:
        os.makedirs(cbuild.cache_dir(), exist_ok=True)
    except OSError:
        return False
    return os.access(cbuild.cache_dir(), os.W_OK)


def layer_gradient_check(
    layer,
    x: np.ndarray,
    rng: np.random.Generator,
    samples: int = 6,
    eps: float = 1e-6,
) -> float:
    """Worst relative error between analytic and numerical gradients.

    Uses a random linear readout ``L = sum(R * forward(x))`` so the
    upstream gradient is the constant ``R``; checks both input gradients
    and every parameter gradient.
    """
    if not layer.built:
        layer.build(x.shape[1:], rng)
    out = layer.forward(x, training=True)
    readout = rng.normal(size=out.shape)
    grad_in = layer.backward(readout)

    def loss() -> float:
        return float((layer.forward(x, training=True) * readout).sum())

    worst = 0.0

    def check(array: np.ndarray, grads: np.ndarray, perturb) -> None:
        nonlocal worst
        flat_indices = rng.integers(0, array.size, size=min(samples, array.size))
        for flat in flat_indices:
            idx = np.unravel_index(int(flat), array.shape)
            original = array[idx]
            perturb(idx, original + eps)
            plus = loss()
            perturb(idx, original - eps)
            minus = loss()
            perturb(idx, original)
            numerical = (plus - minus) / (2 * eps)
            analytic = grads[idx]
            scale = max(1e-6, abs(numerical) + abs(analytic))
            worst = max(worst, abs(numerical - analytic) / scale)

    # Input gradient.
    check(x, grad_in, lambda idx, v: x.__setitem__(idx, v))
    # Parameter gradients.
    for param, grad in zip(layer.params, layer.grads):
        check(param, grad, lambda idx, v, p=param: p.__setitem__(idx, v))
    return worst
