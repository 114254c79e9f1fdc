"""Shared test utilities: finite-difference gradients, synthetic data, a
traced-memory probe, and the op-by-op composition that
``diffarray.separable_conv`` replaces."""

from __future__ import annotations

import string
import tracemalloc

import numpy as np

from ftmixer import data as data_mod
from ftmixer import diffarray as da
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


def traced_growth(build, run) -> int:
    """Traced bytes that ``run(build())`` holds past what ``build()`` left.

    Tracing starts before ``build`` makes the inputs: tracemalloc counts
    the free of a block only if it saw the block allocated, so a ``run``
    that frees arrays of its inputs would otherwise look as if it kept
    them.  Both ``build``'s and ``run``'s results stay alive until the
    figure is read.
    """
    tracemalloc.start()
    try:
        inputs = build()
        base = tracemalloc.get_traced_memory()[0]
        result = run(inputs)  # held while the figure is read
        return tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()


# ---------------------------------------------------------------------------
# the separable conv as four tape nodes, the oracle of ``da.separable_conv``


def conv1d(x, kernels) -> DiffArray:
    """Depthwise same-padded cross-correlation along the last axis of
    ``x`` [..., C, L], one kernel per channel (``kernels`` [C, 1, K]).

    Tap j reads ``x[i + j - (K - 1) // 2]``, with zeros outside ``x``;
    ufuncs keep ``x``'s memory order, so a transposed view is convolved
    in place of a contiguous copy.
    """
    x, k = da._lift(x), da._lift(kernels)
    channels, length = x.shape[-2:]
    ksize = k.shape[-1]
    left = (ksize - 1) // 2
    taps = k.values.reshape(channels, ksize, 1)
    xv = x.values
    shifts = [(j, j - left) for j in range(ksize) if j != left and abs(j - left) < length]
    y = xv * taps[:, left]
    for j, s in shifts:
        out_part, in_part = _shifted(s, length)
        y[..., out_part] += xv[..., in_part] * taps[:, j]

    def backprop(g):
        dx = g * taps[:, left]
        for j, s in shifts:
            out_part, in_part = _shifted(s, length)
            dx[..., in_part] += g[..., out_part] * taps[:, j]
        da._accum(x, dx)
        lead = string.ascii_uppercase[: xv.ndim - 2]
        per_channel = f"{lead}ci,{lead}ci->c"
        dk = np.zeros((channels, ksize))
        dk[:, left] = np.einsum(per_channel, g, xv)
        for j, s in shifts:
            out_part, in_part = _shifted(s, length)
            dk[:, j] = np.einsum(per_channel, g[..., out_part], xv[..., in_part])
        da._accum(k, dk.reshape(k.shape))

    return da._node(y, (x, k), backprop)


def _shifted(shift: int, length: int) -> tuple[slice, slice]:
    """(output, input) slices where ``out[i] += in[i + shift]`` stays in range."""
    if shift > 0:
        return slice(0, length - shift), slice(shift, length)
    return slice(-shift, length), slice(0, length + shift)


def silu(x) -> DiffArray:
    """x * sigmoid(x), with the ufuncs in ``separable_conv``'s order."""
    x = da._lift(x)
    sig = np.negative(x.values)
    with np.errstate(over="ignore"):
        np.exp(sig, out=sig)
    sig += 1.0
    np.reciprocal(sig, out=sig)
    out = x.values * sig

    def backprop(g):
        slope = 1.0 - sig
        slope *= x.values
        slope += 1.0
        dx = g * sig
        dx *= slope
        da._accum(x, dx)

    return da._node(out, (x,), backprop)


def separable_conv_composition(z, dw_k, pw_k, segment: int) -> DiffArray:
    """``da.separable_conv`` as four nodes over whole arrays: the depthwise
    conv over a transposed view of each ``segment``-row sequence, a swap
    back, the pointwise matmul, and ``silu``."""
    z, pw_k = da._lift(z), da._lift(pw_k)
    dim = z.shape[-1]
    rows = da.reshape(z, (-1, segment, dim))
    depthwise = da.swapaxes(conv1d(da.swapaxes(rows, -1, -2), dw_k), -1, -2)
    pointwise = da.swapaxes(da.reshape(pw_k, (dim, dim)), 0, 1)
    return da.reshape(silu(da.matmul(depthwise, pointwise)), z.shape)


def ds_conv_composition(z, params, config) -> DiffArray:
    """``model.ds_conv`` (tracked) with :func:`separable_conv_composition`."""
    n_tot, dp = config.total_patches, config.patch_embed_dim
    mixed = separable_conv_composition(z, params["ds_dw_k"], params["ds_pw_k"],
                                       config.channels * n_tot)
    flat = da.reshape(mixed, mixed.shape[:-2] + (n_tot * dp,))
    return da.matmul(flat, params["ds_proj_w"], params["ds_proj_b"])
