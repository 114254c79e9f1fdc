"""Exact cosine-transform pair and a DFT oracle.

Forward transform (type-II kernel, unnormalized), for k = 0..L-1:

    c_k = sum_{n=0}^{L-1} x_n * cos(pi * (n + 1/2) * k / L)

Inverse (type-III kernel, scaled so the pair is an exact identity):

    x_n = (2/L) * [ c_0 / 2 + sum_{k=1}^{L-1} c_k * cos(pi * k * (n + 1/2) / L) ]

All transforms are plain matrix applications against a cached cosine
basis; lengths stay small enough here that an O(L^2) product beats a
fast-transform code path and keeps gradients trivially exact.

:func:`dct` and :func:`idct` accept either ndarrays or
:class:`~ftmixer.diffarray.DiffArray` values and apply the transform
along the last axis; with a DiffArray input the transform joins the
computation graph as a fixed linear map.  :func:`basis_pair` exposes the
bases themselves, which the model folds into its learned matrices.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import diffarray as da
from .errors import ContractError, NumericError

Array = np.ndarray


@lru_cache(maxsize=16)
def basis_pair(length: int) -> tuple[Array, Array]:
    """(forward, inverse) bases; y = x @ forward, x = y @ inverse."""
    n = np.arange(length, dtype=np.float64)
    k = np.arange(length, dtype=np.float64)
    forward = np.cos(np.pi * np.outer(n + 0.5, k) / length)  # [n, k]
    weights = np.full(length, 2.0 / length)
    weights[0] = 1.0 / length
    inverse = weights[:, None] * np.cos(np.pi * np.outer(k, n + 0.5) / length)  # [k, n]
    forward.setflags(write=False)
    inverse.setflags(write=False)
    return forward, inverse


def _validate(values: Array, op: str) -> None:
    if values.ndim == 0 or values.shape[-1] == 0:
        raise ContractError(f"{op}: input must have at least one sample")
    if not np.all(np.isfinite(values)):
        raise NumericError(f"{op}: input contains non-finite values")


def _apply_basis(x, which: int, op: str):
    if isinstance(x, da.DiffArray):
        _validate(x.values, op)
        basis = basis_pair(x.shape[-1])[which]
        if x.values.ndim == 1:
            flat = da.matmul(da.reshape(x, (1, x.shape[-1])), basis)
            return da.reshape(flat, x.shape)
        return da.matmul(x, basis)
    arr = np.asarray(x, dtype=np.float64)
    _validate(arr, op)
    return arr @ basis_pair(arr.shape[-1])[which]


def dct(x):
    """Cosine-transform coefficients of ``x`` along its last axis."""
    return _apply_basis(x, 0, "dct")


def idct(c):
    """Inverse transform along the last axis; idct(dct(x)) == x."""
    return _apply_basis(c, 1, "idct")


def dft_symmetric_extension_oracle(x) -> Array:
    """Independent certification route for :func:`dct`, used only by tests.

    Mirror-extends ``x`` to length 2L and evaluates a naive O(L^2) DFT of
    the extension on the half-sample-centered grid (sample positions
    n + 1/2), returning the real part of bins 0..L-1.  On that grid the
    extension's symmetry makes every bin purely real and equal to twice
    the cosine-transform coefficient, so the ratio against :func:`dct`
    is one bin-independent constant.
    """
    v = np.asarray(x, dtype=np.float64).reshape(-1)
    _validate(v, "dft_symmetric_extension_oracle")
    length = v.size
    y = np.concatenate([v, v[::-1]])
    n = np.arange(2 * length, dtype=np.float64)
    bins = np.arange(length, dtype=np.float64)
    kernel = np.exp(-2j * np.pi * np.outer(bins, n + 0.5) / (2 * length))
    return np.real(kernel @ y)
