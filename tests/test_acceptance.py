"""Acceptance gate: one test per criterion, one printed verdict line each.

Criteria 5-8 train on the ETTh1 benchmark CSV, which is not shipped with
the repository.  Set ``FTMIXER_ETTH1`` to its path (or place the file at
``data/ETTh1.csv``); without it those tests skip.  Run with::

    pytest tests/test_acceptance.py -v -s
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from ftmixer import data as data_mod
from ftmixer import diffarray as da
from ftmixer.data import load_csv, window_samples
from ftmixer.loss_metrics import dual_domain_loss
from ftmixer.model import (
    FtMixerParams,
    ModelConfig,
    default_patch_scales,
    ds_conv,
    fcc_forward,
    ftmixer_forward,
    load_checkpoint,
    revin_denormalize,
    revin_normalize,
    save_checkpoint,
    wfc_forward,
)
from ftmixer.spectral import dct, idct
from ftmixer.train import TrainConfig, evaluate, train

from helpers import (
    assert_grads_match,
    central_diff_grads,
    dft_symmetric_extension_oracle,
    max_rel_err,
    sinusoid_dataset,
    tracked,
)

ETT_RATIOS = (0.6, 0.2, 0.2)


def verdict(criterion: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def find_etth1() -> Path | None:
    env = os.environ.get("FTMIXER_ETTH1")
    candidates = [Path(env)] if env else []
    here = Path(__file__).resolve().parent.parent
    candidates += [here / "data" / "ETTh1.csv", Path("data/ETTh1.csv")]
    for c in candidates:
        if c.is_file():
            return c
    return None


# ---------------------------------------------------------------------------
# 1. spectral round trip


def test_criterion_1_spectral_round_trip():
    rng = np.random.default_rng(2024)
    lengths = list(range(1, 513))
    lengths += sorted(int(v) for v in rng.integers(1, 513, size=1000 - len(lengths)))
    start = time.perf_counter()
    worst = 0.0
    for length in lengths:
        x = rng.standard_normal(length)
        err = float(np.max(np.abs(idct(dct(x)) - x)))
        worst = max(worst, err)
    elapsed = time.perf_counter() - start
    verdict(
        1,
        worst < 1e-9 and elapsed < 10.0,
        f"round trip of 1000 vectors (L in 1..512): max abs err {worst:.2e} "
        f"(< 1e-9), {elapsed:.1f}s (< 10s)",
    )


# ---------------------------------------------------------------------------
# 2. mirror-extension DFT oracle


def test_criterion_2_dft_oracle_equivalence():
    rng = np.random.default_rng(2025)
    worst = 0.0
    constants = []
    for length in range(1, 65):
        x = rng.standard_normal(length)
        oracle = dft_symmetric_extension_oracle(x)
        coeffs = dct(x)
        c = float(np.dot(oracle, coeffs) / np.dot(coeffs, coeffs))
        constants.append(c)
        scale = float(np.linalg.norm(oracle)) or 1.0
        worst = max(worst, float(np.linalg.norm(oracle - c * coeffs)) / scale)
    spread = float(np.max(np.abs(np.asarray(constants) - constants[0])))
    verdict(
        2,
        worst < 1e-9 and spread < 1e-9 * abs(constants[0]),
        f"oracle proportional to transform for all L in 1..64: rel dev {worst:.2e} "
        f"(< 1e-9), k-independent constant {constants[0]:.12f}",
    )


# ---------------------------------------------------------------------------
# 3. gradient suite


def _grad_case(loss_fn, params, tol):
    """Backward + central differences on a freshly built graph."""
    da.zero_grads(params)
    da.backward(loss_fn())
    numeric = central_diff_grads(lambda: loss_fn().values, params)
    worst = 0.0
    for p, num in zip(params, numeric):
        worst = max(worst, max_rel_err(p.grad, num))
    assert worst < tol, f"gradient rel err {worst:.3e} >= {tol:g}"
    return worst


def test_criterion_3_gradient_suite():
    rng = np.random.default_rng(2026)
    start = time.perf_counter()
    worst_linear = 0.0
    worst_nonlinear = 0.0

    # elementwise and linear ops, and the separable conv, at the tighter tolerance
    a = tracked(rng.standard_normal((3, 4)))
    b = tracked(rng.standard_normal((3, 4)))
    r = rng.standard_normal((3, 4))
    for op in (da.add, da.sub, da.mul):
        worst_linear = max(
            worst_linear,
            _grad_case(lambda op=op: da.reduce_sum(da.mul(op(a, b), r)), [a, b], 1e-6),
        )
    worst_linear = max(
        worst_linear,
        _grad_case(lambda: da.reduce_sum(da.mul(da.mul(a, -1.7), r)), [a], 1e-6),
    )

    m1 = tracked(rng.standard_normal((4, 3)))
    m2 = tracked(rng.standard_normal((3, 5)))
    rm = rng.standard_normal((4, 5))
    worst_linear = max(
        worst_linear,
        _grad_case(lambda: da.reduce_sum(da.mul(da.matmul(m1, m2), rm)), [m1, m2], 1e-6),
    )

    cx = tracked(rng.standard_normal((2, 8, 4)))
    ck = tracked(rng.standard_normal((4, 1, 3)))
    cp = tracked(rng.standard_normal((4, 4, 1)) / 2.0)
    cr = rng.standard_normal((2, 8, 4))
    worst_linear = max(
        worst_linear,
        _grad_case(
            lambda: da.reduce_sum(da.mul(da.separable_conv(cx, ck, cp, segment=8), cr)),
            [cx, ck, cp],
            1e-6,
        ),
    )

    sx = tracked(rng.standard_normal((2, 12)))
    sr = rng.standard_normal((2, 12))
    worst_linear = max(
        worst_linear,
        _grad_case(lambda: da.reduce_sum(da.mul(dct(sx), sr)), [sx], 1e-6),
    )
    worst_linear = max(
        worst_linear,
        _grad_case(lambda: da.reduce_sum(da.mul(idct(sx), sr)), [sx], 1e-6),
    )

    # composite blocks at 1e-4
    config = ModelConfig(
        lookback=24, horizon=4, channels=2, fcc_embed_dim=8,
        patch_scales=(6, 12), patch_embed_dim=4, seed=11,
    )
    params = FtMixerParams.initialize(config)

    rx = tracked(rng.standard_normal((2, 24)))
    rr = rng.standard_normal((2, 24))

    def revin_loss():
        normalized, state = revin_normalize(rx, config.revin_epsilon)
        return da.reduce_sum(da.mul(revin_denormalize(normalized, state), rr))

    worst_nonlinear = max(worst_nonlinear, _grad_case(revin_loss, [rx], 1e-4))

    fx = tracked(rng.standard_normal((2, 24)))
    fr = rng.standard_normal((2, 8))
    fcc_params = [params["fcc_embed_w"], params["fcc_embed_b"], params["fcc_conv_k"]]
    worst_nonlinear = max(
        worst_nonlinear,
        _grad_case(
            lambda: da.reduce_sum(da.mul(fcc_forward(fx, params, config), fr)),
            [fx] + fcc_params,
            1e-4,
        ),
    )

    wx = tracked(rng.standard_normal(24))
    wr = rng.standard_normal((4, 4))
    wfc_params = [params["wfc_conv_k_6"], params["wfc_embed_w_6"], params["wfc_embed_b_6"]]
    worst_nonlinear = max(
        worst_nonlinear,
        _grad_case(
            lambda: da.reduce_sum(da.mul(wfc_forward(wx, params, 6), wr)),
            [wx] + wfc_params,
            1e-4,
        ),
    )

    dz = tracked(rng.standard_normal((2, config.total_patches, config.patch_embed_dim)))
    dr = rng.standard_normal((2, 8))
    ds_params = [params["ds_dw_k"], params["ds_pw_k"], params["ds_proj_w"], params["ds_proj_b"]]
    worst_nonlinear = max(
        worst_nonlinear,
        _grad_case(
            lambda: da.reduce_sum(da.mul(ds_conv(dz, params, config), dr)),
            [dz] + ds_params,
            1e-4,
        ),
    )

    # full forward + dual-domain loss through every parameter and the input
    gx = tracked(rng.standard_normal((2, 24)))
    gy = rng.standard_normal((2, 4))

    def full_loss():
        pred = ftmixer_forward(gx, params, config)
        return dual_domain_loss(gy, pred).total_node

    # confirm the spectral residual is away from absolute-value kinks
    pred0 = ftmixer_forward(gx, params, config).values
    assert np.min(np.abs(dct(pred0) - dct(gy))) > 1e-7
    worst_nonlinear = max(
        worst_nonlinear, _grad_case(full_loss, [gx] + params.all(), 1e-4)
    )

    elapsed = time.perf_counter() - start
    verdict(
        3,
        worst_linear < 1e-6 and worst_nonlinear < 1e-4 and elapsed < 60.0,
        f"all ops vs central differences: linear {worst_linear:.2e} (< 1e-6), "
        f"composite {worst_nonlinear:.2e} (< 1e-4), {elapsed:.1f}s (< 60s)",
    )


# ---------------------------------------------------------------------------
# 4. synthetic convergence


def test_criterion_4_synthetic_convergence():
    start = time.perf_counter()
    raw = sinusoid_dataset(steps=2000, period=24.0, amplitude=1.0, channels=1)
    prepared = data_mod.prepare(raw, ETT_RATIOS, 96, 24)
    config = ModelConfig(
        lookback=96, horizon=24, channels=1, patch_scales=default_patch_scales(96), seed=0
    )
    tc = TrainConfig(epochs=50, batch_size=32, seed=0)
    report, _ = train(config, tc, prepared)
    elapsed = time.perf_counter() - start
    verdict(
        4,
        report.test_mse < 0.01 and len(report.epochs) <= 50 and elapsed < 120.0,
        f"sinusoid (period 24, 2000 steps, L=96, tau=24): test MSE "
        f"{report.test_mse:.2e} (< 0.01) after {len(report.epochs)} epochs, "
        f"{elapsed:.0f}s (< 120s)",
    )


# ---------------------------------------------------------------------------
# 5-8. ETTh1 benchmark regressions (skip when the CSV is not provided)

_ETTH1_CACHE: dict = {}


@pytest.fixture(scope="module")
def etth1_raw():
    path = find_etth1()
    if path is None:
        pytest.skip(
            "ETTh1.csv not available: set FTMIXER_ETTH1 or place it at data/ETTh1.csv"
        )
    raw = load_csv(path, name="ETTh1")
    assert raw.channels == 7, f"expected 7 channels, got {raw.channels}"
    assert raw.length == 17420, f"expected 17420 timesteps, got {raw.length}"
    return raw


def trained_variant(raw, ablation: str = "full", lookback: int = 336):
    """Train (once) and cache a variant; identical seeds across variants."""
    key = (ablation, lookback)
    if key not in _ETTH1_CACHE:
        config = ModelConfig(
            lookback=lookback,
            horizon=96,
            channels=raw.channels,
            patch_scales=default_patch_scales(lookback),
            seed=0,
        )
        prepared = data_mod.prepare(raw, ETT_RATIOS, config.lookback, config.horizon)
        tc = TrainConfig(seed=0, ablation=ablation)
        report, params = train(config, tc, prepared)
        _ETTH1_CACHE[key] = (report, params, config, prepared)
    return _ETTH1_CACHE[key]


def test_criterion_5_etth1_regression(etth1_raw):
    report, _, _, _ = trained_variant(etth1_raw)
    verdict(
        5,
        report.test_mse <= 0.40 and report.test_mae <= 0.42
        and report.wall_seconds < 1800.0,
        f"ETTh1 L=336 tau=96: MSE {report.test_mse:.4f} (<= 0.40), "
        f"MAE {report.test_mae:.4f} (<= 0.42), {report.wall_seconds:.0f}s (< 1800s)",
    )


def test_criterion_6_ablation_direction(etth1_raw):
    full = trained_variant(etth1_raw, "full")[0].test_mse
    no_fcc = trained_variant(etth1_raw, "no_fcc")[0].test_mse
    no_wfc = trained_variant(etth1_raw, "no_wfc")[0].test_mse
    verdict(
        6,
        full < no_fcc < no_wfc,
        f"ETTh1 ablation ordering: full {full:.4f} < no_fcc {no_fcc:.4f} "
        f"< no_wfc {no_wfc:.4f}",
    )


def test_criterion_7_loss_ablation_direction(etth1_raw):
    full = trained_variant(etth1_raw, "full")[0].test_mse
    no_freq = trained_variant(etth1_raw, "no_freq_loss")[0].test_mse
    verdict(
        7,
        no_freq >= full,
        f"ETTh1 loss ablation: dropping the spectral loss does not improve MSE "
        f"({no_freq:.4f} >= {full:.4f})",
    )


def test_criterion_8_length_sweep_direction(etth1_raw):
    short = trained_variant(etth1_raw, "full", lookback=96)[0].test_mse
    long = trained_variant(etth1_raw, "full", lookback=720)[0].test_mse
    verdict(
        8,
        long <= short,
        f"ETTh1 tau=96: MSE(L=720) {long:.4f} <= MSE(L=96) {short:.4f}",
    )


# ---------------------------------------------------------------------------
# 9. exactness suite


def test_criterion_9_exactness_suite(tmp_path):
    rng = np.random.default_rng(2027)
    checks = []

    x = da.DiffArray(rng.standard_normal((5, 7, 32)))
    normalized, state = revin_normalize(x, 1e-5)
    revin_err = float(np.max(np.abs(revin_denormalize(normalized, state).values - x.values)))
    checks.append(("revin round trip", revin_err < 1e-10))

    ds = data_mod.chronological_split(
        data_mod.from_values(rng.standard_normal((3, 200)), name="exact"), ETT_RATIOS
    )
    std_ds = data_mod.standardize(ds)
    std_err = float(
        np.max(np.abs(data_mod.destandardize(std_ds.values, ds.norm_stats) - ds.values))
    )
    checks.append(("standardize round trip", std_err < 1e-10))

    loss = dual_domain_loss(
        da.DiffArray(rng.standard_normal((3, 8))), da.DiffArray(rng.standard_normal((3, 8)))
    )
    checks.append(("loss total exact sum", loss.total == loss.time_loss + loss.freq_loss))

    config = ModelConfig(
        lookback=24, horizon=6, channels=2, fcc_embed_dim=8,
        patch_scales=(6,), patch_embed_dim=4, seed=5,
    )
    prepared = data_mod.prepare(
        data_mod.from_values(rng.standard_normal((2, 160)), name="exact"),
        ETT_RATIOS, config.lookback, config.horizon,
    )
    tc = TrainConfig(epochs=2, batch_size=16, seed=5)
    ckpt = tmp_path / "exact.ftm"
    report, params = train(config, tc, prepared, checkpoint_path=ckpt)
    loaded, _ = load_checkpoint(ckpt)
    bit_exact = all(
        loaded[n].values.tobytes() == params[n].values.tobytes() for n in params.names()
    )
    metrics_direct = evaluate(params, config, prepared, "test", batch_size=13)
    metrics_loaded = evaluate(loaded, loaded.config, prepared, "test", batch_size=13)
    checks.append(("checkpoint save/load/evaluate bit-exact",
                   bit_exact and metrics_direct == metrics_loaded))

    starts = window_samples(prepared, "test", config.lookback, config.horizon)
    lo, hi = prepared.split_bounds("test")
    closed_form = (hi - lo) - config.lookback - config.horizon + 1
    checks.append(
        ("final evaluation batch kept",
         metrics_direct["samples"] == closed_form == len(starts))
    )

    failed = [name for name, ok in checks if not ok]
    verdict(
        9,
        not failed,
        "exactness suite: " + (", ".join(name for name, _ in checks) if not failed
                               else f"FAILED {failed}"),
    )
