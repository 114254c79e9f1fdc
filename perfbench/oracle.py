"""Reference forward pass in plain numpy, written independently of the
package's autodiff, spectral and conv code.

The benchmark checks every output it times against this function. The
channel and bin convolutions are explicit banded (Toeplitz) matrices, the
depthwise one is a sum of shifted copies, the inverse cosine transform is a
numerical matrix inverse, and no DiffArray is built.
"""

from __future__ import annotations

import numpy as np


def _dct_basis(length: int) -> np.ndarray:
    n = np.arange(length)[:, None] + 0.5
    k = np.arange(length)[None, :]
    return np.cos(np.pi * n * k / length)  # x @ basis = coefficients


def _same_conv_matrix(taps: np.ndarray, length: int) -> np.ndarray:
    """M with (M @ v)[i] = sum_j taps[j] * v[i + j - (K - 1) // 2], zero padded."""
    left = (len(taps) - 1) // 2
    m = np.zeros((length, length))
    for i in range(length):
        for j, tap in enumerate(taps):
            src = i + j - left
            if 0 <= src < length:
                m[i, src] += tap
    return m


def forward(x: np.ndarray, p: dict, cfg) -> np.ndarray:
    """[B, N, L] -> [B, N, tau] for the full (no ablation) model."""
    b, n, length = x.shape
    mean = x.mean(axis=-1, keepdims=True)
    centered = x - mean
    var = np.maximum((centered**2).mean(axis=-1, keepdims=True), cfg.revin_epsilon**2)
    std = np.sqrt(var)
    xn = centered / std

    # global branch: spectrum, embedding, conv across channels, inverse spectrum
    df = cfg.fcc_embed_dim
    embedded = xn @ _dct_basis(length) @ p["fcc_embed_w"] + p["fcc_embed_b"]
    across = _same_conv_matrix(p["fcc_conv_k"].reshape(-1), n)
    z = np.einsum("mn,bnd->bmd", across, embedded) @ np.linalg.inv(_dct_basis(df))

    # local branch per scale: patch spectrum, conv across bins, inverse, residual, embed
    scales = []
    for w in cfg.patch_scales:
        patches = xn.reshape(b, n, length // w, w)
        basis = _dct_basis(w)
        bins = _same_conv_matrix(p[f"wfc_conv_k_{w}"].reshape(-1), w)
        spec = patches @ basis @ bins.T
        branch = spec @ np.linalg.inv(basis) + patches
        scales.append(branch @ p[f"wfc_embed_w_{w}"] + p[f"wfc_embed_b_{w}"])
    local = np.concatenate(scales, axis=-2)  # [B, N, n_tot, D_p]

    # separable conv along the joined (channel, patch) axis, per feature
    n_tot, dp = local.shape[-2:]
    joined = local.reshape(b, n * n_tot, dp)
    taps = p["ds_dw_k"][:, 0, :]  # [D_p, K]
    k = taps.shape[1]
    left = (k - 1) // 2
    padded = np.pad(joined, ((0, 0), (left, k - 1 - left), (0, 0)))
    deep = sum(padded[:, j : j + n * n_tot, :] * taps[:, j] for j in range(k))
    point = deep @ p["ds_pw_k"][:, :, 0].T
    act = point / (1.0 + np.exp(-point))
    z = z + act.reshape(b, n, n_tot * dp) @ p["ds_proj_w"] + p["ds_proj_b"]

    return (z @ p["pred_w"] + p["pred_b"]) * std + mean
