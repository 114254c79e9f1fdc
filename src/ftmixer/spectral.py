"""Exact cosine-transform pair.

Forward transform (type-II kernel, unnormalized), for k = 0..L-1:

    c_k = sum_{n=0}^{L-1} x_n * cos(pi * (n + 1/2) * k / L)

Inverse (type-III kernel, scaled so the pair is an exact identity):

    x_n = (2/L) * [ c_0 / 2 + sum_{k=1}^{L-1} c_k * cos(pi * k * (n + 1/2) / L) ]

:func:`dct` and :func:`idct` transform the last axis of an ndarray or of a
:class:`~ftmixer.diffarray.DiffArray` of at least 2 dims.  A DiffArray
uses the cached dense basis of :func:`basis_pair`, which the model folds
into its learned matrices and runs as a GEMM.  An ndarray, which may be a
whole series, uses one length-L FFT (Makhoul, IEEE TASSP 1980).
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
    grid = np.arange(length, dtype=np.float64)
    weights = np.full(length, 2.0 / length)
    weights[0] = 1.0 / length
    pair = (np.cos(np.pi * np.outer(grid + 0.5, grid) / length),
            weights[:, None] * np.cos(np.pi * np.outer(grid, grid + 0.5) / length))
    for basis in pair:
        basis.setflags(write=False)
    return pair


def _fft_transform(x: Array, inverse: bool) -> Array:
    """Makhoul's form: the samples, evens first and then odds reversed,
    are one FFT and a twiddle away from the coefficients."""
    length = x.shape[-1]
    order = np.concatenate((np.arange(0, length, 2), np.arange(1, length, 2)[::-1]))
    twiddle = np.exp(-0.5j * np.pi * np.arange(length) / length)
    if not inverse:
        return (twiddle * np.fft.fft(x[..., order])).real
    mirrored = np.zeros_like(x)
    mirrored[..., 1:] = x[..., :0:-1]  # c_{L-k}, with c_L = 0
    out = np.empty_like(x)
    out[..., order] = np.fft.ifft(twiddle.conj() * (x - 1j * mirrored)).real
    return out


def _transform(x, inverse: bool, op: str):
    tracked = isinstance(x, da.DiffArray)
    values = x.values if tracked else np.asarray(x, dtype=np.float64)
    if values.ndim == 0 or values.shape[-1] == 0:
        raise ContractError(f"{op}: input must have at least one sample")
    if not np.all(np.isfinite(values)):
        raise NumericError(f"{op}: input contains non-finite values")
    if tracked:
        return da.matmul(x, basis_pair(x.shape[-1])[inverse])
    with np.errstate(over="ignore", invalid="ignore"):
        out = _fft_transform(values, inverse)
    if not np.all(np.isfinite(out)):
        raise NumericError(f"{op}: transform overflows float64")
    return out


def dct(x):
    """Cosine-transform coefficients of ``x`` along its last axis."""
    return _transform(x, False, "dct")


def idct(c):
    """Inverse transform along the last axis; idct(dct(x)) == x."""
    return _transform(c, True, "idct")
