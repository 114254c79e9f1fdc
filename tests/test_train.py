"""Training loop: convergence, determinism, early stop, abort, evaluation."""

import numpy as np
import pytest

from ftmixer import data as data_mod
from ftmixer.data import window_samples
from ftmixer.errors import ConfigError, NumericError
from ftmixer.model import ModelConfig, default_patch_scales, load_checkpoint
from ftmixer.train import RunReport, TrainConfig, evaluate, run_length_sweep, train

from helpers import sinusoid_dataset

RATIOS = (0.6, 0.2, 0.2)


def small_problem(steps=500, lookback=48, horizon=12, seed=0, channels=1):
    raw = sinusoid_dataset(steps=steps, period=24.0, channels=channels)
    prepared = data_mod.prepare(raw, RATIOS, lookback, horizon)
    config = ModelConfig(
        lookback=lookback,
        horizon=horizon,
        channels=channels,
        fcc_embed_dim=16,
        patch_scales=default_patch_scales(lookback),
        patch_embed_dim=8,
        seed=seed,
    )
    return prepared, config


def test_loss_decreases_early_for_any_seed():
    for seed in range(5):
        prepared, config = small_problem(seed=seed)
        tc = TrainConfig(epochs=3, batch_size=32, seed=seed, patience=3)
        report, _ = train(config, tc, prepared)
        totals = [e["total"] for e in report.epochs]
        assert totals[2] < totals[0], f"seed {seed}: {totals}"


def test_determinism_same_seed_same_losses():
    prepared, config = small_problem()
    tc = TrainConfig(epochs=2, batch_size=32, seed=7, patience=2)
    report_a, params_a = train(config, tc, prepared)
    report_b, params_b = train(config, tc, prepared)
    assert report_a.epochs[0]["total"] == report_b.epochs[0]["total"]
    assert report_a.epochs == report_b.epochs
    assert report_a.test_mse == report_b.test_mse
    for name in params_a.names():
        assert np.array_equal(params_a[name].values, params_b[name].values)


def test_early_stopping_tracks_best_validation(tmp_path):
    prepared, config = small_problem()
    tc = TrainConfig(epochs=12, batch_size=32, seed=1, patience=2)
    ckpt = tmp_path / "best.ftm"
    report, params = train(config, tc, prepared, checkpoint_path=ckpt)
    val_curve = [e["val_mse"] for e in report.epochs]
    assert report.best_epoch == int(np.argmin(val_curve))
    assert min(val_curve) == val_curve[report.best_epoch]
    # retained parameters are the best ones: checkpoint on disk matches
    loaded, meta = load_checkpoint(ckpt)
    for name in params.names():
        assert np.array_equal(loaded[name].values, params[name].values)
    assert meta["train_config"]["seed"] == 1


def test_report_metrics_come_from_best_checkpoint(tmp_path):
    prepared, config = small_problem()
    tc = TrainConfig(epochs=6, batch_size=32, seed=2, patience=6)
    report, params = train(config, tc, prepared)
    again = evaluate(params, config, prepared, "test", batch_size=tc.eval_batch_size)
    assert again["mse"] == report.test_mse
    assert again["mae"] == report.test_mae


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_nan_loss_aborts_with_diagnostic():
    prepared, config = small_problem()
    tc = TrainConfig(epochs=3, batch_size=32, learning_rate=1e200, seed=0)
    with pytest.raises(NumericError) as exc:
        train(config, tc, prepared)
    assert "epoch" in str(exc.value)


def test_channel_mismatch_rejected():
    prepared, config = small_problem()
    bad = ModelConfig(lookback=48, horizon=12, channels=3, patch_scales=(8, 12))
    with pytest.raises(ConfigError):
        train(bad, TrainConfig(epochs=1), prepared)


def test_evaluate_counts_every_window():
    prepared, config = small_problem()
    tc = TrainConfig(epochs=1, batch_size=32, seed=0)
    _, params = train(config, tc, prepared)
    starts = window_samples(prepared, "test", config.lookback, config.horizon)
    # batch size deliberately not dividing the count: the tail must be kept
    metrics = evaluate(params, config, prepared, "test", batch_size=len(starts) - 3)
    assert metrics["samples"] == len(starts)
    lo, hi = prepared.split_bounds("test")
    assert metrics["samples"] == (hi - lo) - config.lookback - config.horizon + 1


def test_checkpoint_evaluate_bit_exact(tmp_path):
    prepared, config = small_problem()
    tc = TrainConfig(epochs=2, batch_size=32, seed=3, patience=2)
    ckpt = tmp_path / "model.ftm"
    report, params = train(config, tc, prepared, checkpoint_path=ckpt)
    loaded, _ = load_checkpoint(ckpt)
    direct = evaluate(params, config, prepared, "test")
    reloaded = evaluate(loaded, loaded.config, prepared, "test")
    assert direct == reloaded


def test_all_ablations_run():
    prepared, config = small_problem()
    totals = {}
    for ablation in ("full", "no_fcc", "no_wfc", "no_freq_loss", "no_time_loss"):
        tc = TrainConfig(epochs=1, batch_size=64, seed=0, ablation=ablation)
        report, _ = train(config, tc, prepared)
        assert np.isfinite(report.test_mse)
        totals[ablation] = report.epochs[0]["total"]
    assert totals["full"] != totals["no_fcc"] != totals["no_wfc"]


def test_length_sweep_rows_and_scale_validation():
    raw = sinusoid_dataset(steps=700, period=24.0)
    tc = TrainConfig(epochs=1, batch_size=64, seed=0)
    rows = run_length_sweep(raw, RATIOS, lengths=(24, 48), horizon=12, train_config=tc)
    assert [r["lookback"] for r in rows] == [24, 48]
    for row in rows:
        assert np.isfinite(row["mse"]) and np.isfinite(row["mae"])


def test_run_report_serializable():
    report = RunReport()
    d = report.to_dict()
    assert set(d) >= {"epochs", "best_epoch", "test_mse", "wall_seconds"}


@pytest.mark.parametrize("clip_norm,share", [(1e-12, 1.0), (1e12, 0.0)])
def test_epoch_records_pre_clip_gradient_norms(clip_norm, share):
    prepared, config = small_problem()
    tc = TrainConfig(epochs=1, batch_size=64, seed=0, clip_norm=clip_norm)
    report, _ = train(config, tc, prepared)
    record = report.epochs[0]
    assert record["clipped_share"] == share
    assert 0.0 < record["grad_norm_mean"] <= record["grad_norm_max"]
    assert np.isfinite(record["grad_norm_max"])
