"""Exact cosine-transform pair.

Forward transform (type-II kernel, unnormalized), for k = 0..L-1:

    c_k = sum_{n=0}^{L-1} x_n * cos(pi * (n + 1/2) * k / L)

Inverse (type-III kernel, scaled so the pair is an exact identity):

    x_n = (2/L) * [ c_0 / 2 + sum_{k=1}^{L-1} c_k * cos(pi * k * (n + 1/2) / L) ]

All transforms are plain matrix applications against a cosine basis;
the model's lengths stay small enough that an O(L^2) product beats a
fast-transform code path and keeps gradients trivially exact.

:func:`dct` and :func:`idct` accept ndarrays, or
:class:`~ftmixer.diffarray.DiffArray` values of at least 2 dims, and apply
the transform along the last axis.  A DiffArray input joins the
computation graph as a fixed linear map against the cached basis of
:func:`basis_pair`, which the model also folds into its learned matrices.
An ndarray, which may be a whole series, is transformed in column blocks
of the basis built as they are used, so it needs neither an L x L matrix
nor the cache.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import diffarray as da
from .errors import ContractError, NumericError

Array = np.ndarray


# bytes of one basis block of an ndarray transform: a whole series (17,420
# steps for ETTh1) then needs a few MiB, where one dense basis needs 2.4 GB
BLOCK_BYTES = 1 << 21


def _basis_columns(length: int, which: int, columns: slice) -> Array:
    """Columns ``columns`` of the forward (``which`` 0, [n, k]) or inverse
    (1, [k, n]) basis of ``length``."""
    grid = np.arange(length, dtype=np.float64)
    if which == 0:
        return np.cos(np.pi * np.outer(grid + 0.5, grid[columns]) / length)
    weights = np.full(length, 2.0 / length)
    weights[0] = 1.0 / length
    return weights[:, None] * np.cos(np.pi * np.outer(grid, grid[columns] + 0.5) / length)


@lru_cache(maxsize=16)
def basis_pair(length: int) -> tuple[Array, Array]:
    """(forward, inverse) bases; y = x @ forward, x = y @ inverse."""
    pair = tuple(_basis_columns(length, which, slice(None)) for which in (0, 1))
    for basis in pair:
        basis.setflags(write=False)
    return pair


def _validate(values: Array, op: str) -> None:
    if values.ndim == 0 or values.shape[-1] == 0:
        raise ContractError(f"{op}: input must have at least one sample")
    if not np.all(np.isfinite(values)):
        raise NumericError(f"{op}: input contains non-finite values")


def _apply_basis(x, which: int, op: str):
    if isinstance(x, da.DiffArray):
        _validate(x.values, op)
        return da.matmul(x, basis_pair(x.shape[-1])[which])
    arr = np.asarray(x, dtype=np.float64)
    _validate(arr, op)
    length = arr.shape[-1]
    out = np.empty(arr.shape)
    step = max(1, BLOCK_BYTES // (8 * length))
    for start in range(0, length, step):
        columns = slice(start, start + step)
        out[..., columns] = arr @ _basis_columns(length, which, columns)
    return out


def dct(x):
    """Cosine-transform coefficients of ``x`` along its last axis."""
    return _apply_basis(x, 0, "dct")


def idct(c):
    """Inverse transform along the last axis; idct(dct(x)) == x."""
    return _apply_basis(c, 1, "idct")
