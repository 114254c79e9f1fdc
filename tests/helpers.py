"""Shared test utilities: finite-difference gradients, synthetic data."""

from __future__ import annotations

import numpy as np

from ftmixer import data as data_mod
from ftmixer.diffarray import DiffArray


def central_diff_grads(loss_fn, params, h: float = 1e-5) -> list[np.ndarray]:
    """Central-difference gradient of a scalar-returning ``loss_fn``.

    ``loss_fn`` must rebuild its computation from the current parameter
    values on every call; parameters are perturbed in place one
    coordinate at a time.
    """
    grads = []
    for p in params:
        flat = p.values.reshape(-1)
        g = np.zeros(flat.size)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            f_plus = float(loss_fn())
            flat[i] = orig - h
            f_minus = float(loss_fn())
            flat[i] = orig
            g[i] = (f_plus - f_minus) / (2.0 * h)
        grads.append(g.reshape(p.values.shape))
    return grads


def max_rel_err(analytic: np.ndarray, numeric: np.ndarray, floor: float = 1e-6) -> float:
    """Worst elementwise |a - n| / max(|a|, |n|, floor)."""
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
    return float(np.max(np.abs(a - n) / denom))


def assert_grads_match(loss_fn, params, tol: float, h: float = 1e-5,
                       floor: float = 1e-6, skip_masks=None) -> None:
    """Backward grads (already populated on params) vs central differences."""
    numeric = central_diff_grads(loss_fn, params, h=h)
    for idx, (p, num) in enumerate(zip(params, numeric)):
        assert p.grad is not None, f"param {idx} has no gradient"
        analytic = p.grad
        if skip_masks is not None and skip_masks[idx] is not None:
            keep = ~skip_masks[idx]
            analytic = analytic[keep]
            num = num[keep]
        err = max_rel_err(analytic, num, floor=floor)
        assert err < tol, f"param {idx}: gradient rel err {err:.3e} >= {tol:g}"


def dft_symmetric_extension_oracle(x) -> np.ndarray:
    """Independent certification route for ``spectral.dct``.

    Mirror-extends ``x`` to length 2L and evaluates a naive O(L^2) DFT of
    the extension on the half-sample-centered grid (sample positions
    n + 1/2), returning the real part of bins 0..L-1.  On that grid the
    extension's symmetry makes every bin purely real and equal to twice
    the cosine-transform coefficient, so the ratio against ``dct`` is one
    bin-independent constant.
    """
    v = np.asarray(x, dtype=np.float64).reshape(-1)
    length = v.size
    y = np.concatenate([v, v[::-1]])
    n = np.arange(2 * length, dtype=np.float64)
    bins = np.arange(length, dtype=np.float64)
    kernel = np.exp(-2j * np.pi * np.outer(bins, n + 0.5) / (2 * length))
    return np.real(kernel @ y)


def tracked(values, rng=None) -> DiffArray:
    return DiffArray(np.asarray(values, dtype=np.float64), requires_grad=True)


def sinusoid_dataset(steps: int = 2000, period: float = 24.0, amplitude: float = 1.0,
                     channels: int = 1, name: str = "sinusoid") -> data_mod.SeriesDataset:
    """Noise-free sinusoid series; exactly predictable from any full period."""
    t = np.arange(steps, dtype=np.float64)
    rows = [amplitude * np.sin(2.0 * np.pi * (t / period + c / max(channels, 1)))
            for c in range(channels)]
    return data_mod.from_values(np.stack(rows), name=name)
