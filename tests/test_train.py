"""Training loop: convergence, determinism, early stop, abort, evaluation."""

import importlib
import os
import sys
import threading
import types

import numpy as np
import pytest

from ftmixer import data as data_mod
from ftmixer import diffarray as da
from ftmixer import loss_metrics
from ftmixer.data import gather_batch, window_samples
from ftmixer.errors import ConfigError, NumericError
from ftmixer.model import (
    FtMixerParams,
    ModelConfig,
    default_patch_scales,
    ftmixer_forward,
    load_checkpoint,
)
from ftmixer.train import RunReport, TrainConfig, evaluate, run_length_sweep, train

from helpers import sinusoid_dataset

train_mod = importlib.import_module("ftmixer.train")

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


def test_non_finite_loss_aborts_before_backward(monkeypatch):
    prepared, config = small_problem()

    def forward(x, params, *args, **kwargs):
        prediction = ftmixer_forward(x, params, *args, **kwargs)
        return prediction if params.is_frozen else da.mul(prediction, 1e200)

    monkeypatch.setattr(train_mod, "ftmixer_forward", forward)
    monkeypatch.setattr(da, "backward", lambda *args: pytest.fail("backward ran"))
    with np.errstate(over="ignore"), pytest.raises(
            NumericError, match=r"epoch 0, sample offset 0: non-finite loss"):
        train(config, TrainConfig(epochs=1, batch_size=32, seed=0), prepared)


def test_lookback_without_a_candidate_scale_trains_on_unit_patches():
    prepared, config = small_problem(lookback=7)
    assert config.patch_scales == (1,)
    report, _ = train(config, TrainConfig(epochs=1, batch_size=32, seed=0), prepared)
    assert len(report.epochs) == 1 and np.isfinite(report.test_mse)


def test_channel_mismatch_rejected():
    prepared, config = small_problem()
    bad = ModelConfig(lookback=48, horizon=12, channels=3, patch_scales=(8, 12))
    with pytest.raises(ConfigError):
        train(bad, TrainConfig(epochs=1), prepared)


def test_evaluate_on_a_dataset_with_another_channel_count_is_config_error():
    prepared, _ = small_problem(channels=2)
    _, config = small_problem(channels=1)
    with pytest.raises(ConfigError, match="checkpoint expects 1 channels, dataset has 2"):
        evaluate(FtMixerParams.initialize(config), config, prepared, "test")


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
    base = ModelConfig(lookback=24, horizon=12, channels=raw.channels)
    rows = run_length_sweep(raw, RATIOS, lengths=(24, 48), horizon=12, train_config=tc,
                            base_config=base)
    assert [r["lookback"] for r in rows] == [24, 48]
    for row in rows:
        assert np.isfinite(row["mse"]) and np.isfinite(row["mae"])


def test_length_sweep_keeps_base_config(monkeypatch):
    raw = sinusoid_dataset(steps=700, period=24.0, channels=2)
    seen = []

    def spy(model_config, train_config, dataset, checkpoint_path=None):
        seen.append(model_config)
        return RunReport(), None

    monkeypatch.setattr(train_mod, "train", spy)
    base = ModelConfig(lookback=336, horizon=96, channels=2, fcc_embed_dim=8, fcc_kernel_size=1)
    tc = TrainConfig(epochs=1, seed=7)
    run_length_sweep(raw, RATIOS, lengths=(24, 48), horizon=12, train_config=tc,
                     base_config=base)
    assert [c.lookback for c in seen] == [24, 48]
    for config in seen:
        assert config.fcc_kernel_size == 1 and config.fcc_embed_dim == 8
        assert config.horizon == 12 and config.seed == 7
        assert config.patch_scales == default_patch_scales(config.lookback)


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


@pytest.mark.parametrize("kwargs", [
    {"clip_norm": -1.0}, {"clip_norm": 0.0}, {"eval_batch_size": 0},
    {"clip_norm": np.inf}, {"learning_rate": np.nan}, {"learning_rate": np.inf},
    {"epochs": np.nan}, {"epochs": 2.5}, {"batch_size": np.nan}, {"patience": 1.5},
    {"eval_batch_size": np.nan},
])
def test_train_config_rejects_non_positive_clip_and_eval_batch(kwargs):
    with pytest.raises(ConfigError):
        TrainConfig(**kwargs)


@pytest.mark.parametrize("kwargs, match", [
    ({"epochs": 0}, "epochs must be >= 1"),
    ({"batch_size": 0}, "batch_size must be >= 1"),
    ({"patience": 0}, "patience must be >= 1"),
    ({"ablation": "no_head"}, "unknown ablation 'no_head'"),
], ids=["epochs", "batch_size", "patience", "ablation"])
def test_train_config_rejects_counts_below_one_and_unknown_ablation(kwargs, match):
    with pytest.raises(ConfigError, match=match):
        TrainConfig(**kwargs)


def test_train_config_rejects_negative_seed():
    with pytest.raises(ConfigError, match="seed must be >= 0"):
        TrainConfig(seed=-1)


def test_epoch_records_validation_mae_and_time():
    prepared, config = small_problem()
    report, _ = train(config, TrainConfig(epochs=2, batch_size=64, seed=0), prepared)
    records = report.to_dict()["epochs"]
    assert len(records) == 2
    for record in records:
        assert np.isfinite(record["val_mae"]) and record["val_mae"] > 0.0
        assert np.isfinite(record["eval_s"]) and record["eval_s"] > 0.0


# wide enough that the default block budget splits a batch into several forwards
WIDE = ModelConfig(lookback=48, horizon=12, channels=8, fcc_embed_dim=16,
                   patch_scales=(8, 12), patch_embed_dim=128, seed=4)


def wide_problem():
    raw = sinusoid_dataset(steps=500, period=24.0, channels=WIDE.channels)
    return data_mod.prepare(raw, RATIOS, WIDE.lookback, WIDE.horizon)


def block_rule(config):
    widest = max(config.lookback, config.total_patches * config.patch_embed_dim,
                 config.fcc_embed_dim)
    return max(1, train_mod.EVAL_BLOCK_BUDGET // (8 * config.channels * widest))


@pytest.fixture
def eight_row_blocks(monkeypatch):
    """Size the row blocks at 8 WIDE windows, whatever the default budget,
    so that a batch of 13 and the test split (41 windows) span several."""
    monkeypatch.setattr(train_mod, "EVAL_BLOCK_BUDGET", 8 * train_mod._window_bytes(WIDE))


def tape_metrics(params, config, prepared, split):
    """mse and mae from one tracked forward over every window of a split."""
    starts = window_samples(prepared, split, config.lookback, config.horizon)
    batch = gather_batch(prepared, starts, config.lookback, config.horizon)
    diff = ftmixer_forward(batch.inputs, params, config).values - batch.targets
    return float(np.mean(diff * diff)), float(np.mean(np.abs(diff)))


def assert_metrics_close(metrics, expected):
    mse, mae = expected
    assert abs(metrics["mse"] - mse) <= 1e-12 * mse
    assert abs(metrics["mae"] - mae) <= 1e-12 * mae


def test_evaluate_independent_of_batch_size(eight_row_blocks):
    prepared = wide_problem()
    params = FtMixerParams.initialize(WIDE)
    assert 1 < block_rule(WIDE) < 13
    expected = tape_metrics(params, WIDE, prepared, "test")
    for batch_size in (1, 13, 256):
        metrics = evaluate(params, WIDE, prepared, "test", batch_size=batch_size)
        assert_metrics_close(metrics, expected)


def test_evaluate_forwards_at_most_one_row_block(monkeypatch):
    prepared = wide_problem()
    params = FtMixerParams.initialize(WIDE)
    rows = []

    def spy(x, *args, **kwargs):
        rows.append(np.shape(x)[0])
        return ftmixer_forward(x, *args, **kwargs)

    monkeypatch.setattr(train_mod, "ftmixer_forward", spy)
    metrics = evaluate(params, WIDE, prepared, "test", batch_size=256)
    assert sum(rows) == metrics["samples"]
    assert max(rows) == block_rule(WIDE) and len(rows) > 1


def test_evaluate_after_an_optimizer_step_sees_new_values():
    prepared = wide_problem()
    params = FtMixerParams.initialize(WIDE)
    before = evaluate(params, WIDE, prepared, "test")
    grads = [np.ones_like(p.values) for p in params.all()]
    da.adam_step(params.all(), grads, da.AdamState(learning_rate=1e-2))
    after = evaluate(params, WIDE, prepared, "test")
    assert after["mse"] != before["mse"]
    assert_metrics_close(after, tape_metrics(params, WIDE, prepared, "test"))


def test_train_submodule_is_not_shadowed_by_the_function():
    import ftmixer
    import ftmixer.train as module

    assert isinstance(module, types.ModuleType) and module is train_mod
    assert module.train is train and "train" not in ftmixer.__all__


@pytest.mark.parametrize(
    "cpus, env, workers",
    [
        (2, {"OPENBLAS_NUM_THREADS": "1"}, 2),
        (2, {}, 1),  # BLAS threads default to one per CPU
        (8, {"OMP_NUM_THREADS": "2"}, 4),
        (8, {"MKL_NUM_THREADS": "4", "OMP_NUM_THREADS": "1"}, 2),  # first set wins
        (2, {"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, 2),  # 0 ignored
        (2, {"OPENBLAS_NUM_THREADS": "abc", "MKL_NUM_THREADS": "1"}, 2),  # abc ignored
        (4, {"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "abc"}, 1),
        (1, {"OPENBLAS_NUM_THREADS": "4"}, 1),  # never below one
    ],
)
def test_eval_worker_rule(monkeypatch, cpus, env, workers):
    for name in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(name, raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    assert train_mod._workers() == workers
    monkeypatch.delattr(os, "sched_getaffinity")  # where affinity cannot be read
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    assert train_mod._workers() == workers


def meet_in_forward(monkeypatch, parties):
    """Patch train's forward so the first forward of each thread waits until
    ``parties`` threads are inside one; returns the set of forwarding threads."""
    barrier = threading.Barrier(parties)
    seen = set()

    def forward(x, *args, **kwargs):
        me = threading.get_ident()
        if me not in seen:
            seen.add(me)
            barrier.wait(timeout=10)
        return ftmixer_forward(x, *args, **kwargs)

    monkeypatch.setattr(train_mod, "ftmixer_forward", forward)
    return seen


@pytest.mark.parametrize("ablation", ["full", "no_fcc", "no_wfc"])
def test_evaluate_bit_identical_for_any_worker_count(monkeypatch, eight_row_blocks, ablation):
    prepared = wide_problem()
    params = FtMixerParams.initialize(WIDE)
    samples = len(window_samples(prepared, "test", WIDE.lookback, WIDE.horizon))
    assert samples >= 3 * block_rule(WIDE)  # a batch has a block for every worker
    monkeypatch.setattr(train_mod, "_workers", lambda: 1)
    serial = evaluate(params, WIDE, prepared, "test", ablation=ablation)
    monkeypatch.setattr(train_mod, "_workers", lambda: 3)
    threads = meet_in_forward(monkeypatch, 3)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        pooled = evaluate(params, WIDE, prepared, "test", ablation=ablation)
    finally:
        sys.setswitchinterval(interval)
    assert len(threads) == 3
    assert pooled["mse"] == serial["mse"] and pooled["mae"] == serial["mae"]


def test_evaluate_raises_a_helper_error_as_itself_and_joins_its_threads(monkeypatch):
    prepared = wide_problem()
    params = FtMixerParams.initialize(WIDE)
    monkeypatch.setattr(train_mod, "_workers", lambda: 2)
    before = threading.active_count()
    evaluate(params, WIDE, prepared, "test")
    assert threading.active_count() == before
    caller = threading.get_ident()

    def forward(x, *args, **kwargs):
        if threading.get_ident() != caller:
            raise NumericError("helper block")
        return ftmixer_forward(x, *args, **kwargs)

    monkeypatch.setattr(train_mod, "ftmixer_forward", forward)
    with pytest.raises(NumericError, match="helper block"):
        evaluate(params, WIDE, prepared, "test")
    assert threading.active_count() == before


class ItemError(Exception):
    """Raised by a chosen eval block or training shard; nothing catches it."""


def noise_problem(config):
    """A standardized random series for ``config``: no two windows share a row."""
    raw = data_mod.from_values(np.random.default_rng(24).standard_normal((config.channels, 500)))
    return data_mod.prepare(raw, RATIOS, config.lookback, config.horizon)


def fail_lower_after_higher(monkeypatch, lower_row, higher_row, frozen):
    """Patch train's forward on ``frozen`` (eval) or tracked (training)
    params: the forward whose first input row is ``higher_row`` raises
    at once, and the one whose first row is ``lower_row`` raises once it
    has, so the lower index fails last.  Returns the raised errors."""
    raised = {}
    higher_failed = threading.Event()

    def forward(x, params, *args, **kwargs):
        if params.is_frozen == frozen:
            if np.array_equal(x[0], higher_row):
                raised["higher"] = ItemError("higher")
                higher_failed.set()
                raise raised["higher"]
            if np.array_equal(x[0], lower_row):
                assert higher_failed.wait(timeout=10), "the higher index never failed"
                raised["lower"] = ItemError("lower")
                raise raised["lower"]
        return ftmixer_forward(x, params, *args, **kwargs)

    monkeypatch.setattr(train_mod, "ftmixer_forward", forward)
    return raised


@pytest.mark.parametrize("workers", [2, 3])
def test_evaluate_raises_the_lowest_failing_blocks_error_and_joins_its_threads(
    monkeypatch, eight_row_blocks, workers
):
    prepared = noise_problem(WIDE)
    params = FtMixerParams.initialize(WIDE)
    starts = window_samples(prepared, "test", WIDE.lookback, WIDE.horizon)
    assert len(starts) > 3 * 8  # one batch of at least four blocks
    monkeypatch.setattr(train_mod, "_workers", lambda: workers)
    first_row = [prepared.values[:, s : s + WIDE.lookback] for s in starts[::8]]
    raised = fail_lower_after_higher(monkeypatch, first_row[1], first_row[3], frozen=True)
    before = threading.active_count()
    with pytest.raises(ItemError) as exc:
        evaluate(params, WIDE, prepared, "test")
    assert set(raised) == {"lower", "higher"} and exc.value is raised["lower"]
    assert threading.active_count() == before


@pytest.mark.parametrize("workers", [2, 3])
def test_train_raises_the_lowest_failing_shards_error_and_joins_its_threads(
    monkeypatch, workers
):
    _, config = small_problem(channels=2)
    prepared = noise_problem(config)
    tc = TrainConfig(epochs=1, batch_size=32, seed=0)
    monkeypatch.setattr(train_mod, "TRAIN_SHARD_MIN_BYTES", 1)
    monkeypatch.setattr(train_mod, "_workers", lambda: workers)
    order = np.random.default_rng(tc.seed).permutation(
        window_samples(prepared, "train", config.lookback, config.horizon)
    )
    # the first batch's shards, the last two of which fail
    first_row = [prepared.values[:, s : s + config.lookback]
                 for s in order[[i * 32 // workers for i in range(workers)]]]
    raised = fail_lower_after_higher(monkeypatch, first_row[-2], first_row[-1], frozen=False)
    before = threading.active_count()
    with pytest.raises(ItemError) as exc:
        train(config, tc, prepared)
    assert set(raised) == {"lower", "higher"} and exc.value is raised["lower"]
    assert threading.active_count() == before


def shard_sizes(monkeypatch):
    """Patch train's forward to record the window count of every tracked
    (training) forward; returns that list."""
    sizes = []

    def forward(x, params, *args, **kwargs):
        if not params.is_frozen:
            sizes.append(np.shape(x)[0])
        return ftmixer_forward(x, params, *args, **kwargs)

    monkeypatch.setattr(train_mod, "ftmixer_forward", forward)
    return sizes


@pytest.mark.parametrize("ablation", ["full", "no_fcc", "no_freq_loss", "no_time_loss"])
def test_train_agrees_across_worker_counts(monkeypatch, ablation):
    prepared, config = small_problem(channels=2)
    tc = TrainConfig(epochs=2, batch_size=32, seed=5, patience=2, ablation=ablation)
    monkeypatch.setattr(train_mod, "TRAIN_SHARD_MIN_BYTES", 1)  # shard the small batches
    sizes = shard_sizes(monkeypatch)
    reports = {}
    for workers in (1, 2, 3):
        monkeypatch.setattr(train_mod, "_workers", lambda: workers)
        sizes.clear()
        reports[workers], _ = train(config, tc, prepared)
        first = sizes[:workers]  # the first batch's shards
        assert sum(first) == 32 and max(first) - min(first) <= 1
    serial = reports[1]
    for workers in (2, 3):
        for key in ("val_mse", "total", "time_loss", "freq_loss"):
            for got, want in zip(reports[workers].epochs, serial.epochs):
                assert abs(got[key] - want[key]) <= 1e-12 * abs(want[key])
        assert abs(reports[workers].test_mse - serial.test_mse) <= 1e-12 * serial.test_mse


def test_train_with_one_worker_is_the_serial_loop(monkeypatch):
    prepared, config = small_problem(channels=2)
    tc = TrainConfig(epochs=1, batch_size=24, seed=9)
    monkeypatch.setattr(train_mod, "_workers", lambda: 1)
    report, params = train(config, tc, prepared)

    # the same epoch through the public API, one whole batch at a time
    mine = FtMixerParams.initialize(config)
    adam = da.AdamState(learning_rate=tc.learning_rate)
    order = np.random.default_rng(tc.seed).permutation(
        window_samples(prepared, "train", config.lookback, config.horizon)
    )
    sums, seen, norms = np.zeros(3), 0, []
    for batch in data_mod.iter_batches(prepared, order, config.lookback, config.horizon,
                                       tc.batch_size):
        loss = loss_metrics.dual_domain_loss(
            batch.targets, ftmixer_forward(batch.inputs, mine, config)
        )
        da.zero_grads(mine.all())
        da.backward(loss.total_node)
        grads = [p.grad for p in mine.all()]
        norms.append(da.clip_global_norm(grads, tc.clip_norm))
        da.adam_step(mine.all(), grads, adam)
        n = batch.inputs.shape[0]
        sums += np.array([loss.time_loss, loss.freq_loss, loss.total]) * n
        seen += n
    record = report.epochs[0]
    assert [record["time_loss"], record["freq_loss"], record["total"]] == list(sums / seen)
    assert record["grad_norm_max"] == max(norms)
    for name in params.names():
        assert np.array_equal(params[name].values, mine[name].values)
    assert report.test_mse == evaluate(mine, config, prepared, "test")["mse"]


def test_train_sharded_runs_are_deterministic(monkeypatch):
    prepared, config = small_problem(channels=2)
    tc = TrainConfig(epochs=2, batch_size=32, seed=7, patience=2)
    monkeypatch.setattr(train_mod, "TRAIN_SHARD_MIN_BYTES", 1)
    monkeypatch.setattr(train_mod, "_workers", lambda: 2)
    report_a, params_a = train(config, tc, prepared)
    report_b, params_b = train(config, tc, prepared)
    assert report_a.epochs == report_b.epochs and report_a.test_mse == report_b.test_mse
    for name in params_a.names():
        assert np.array_equal(params_a[name].values, params_b[name].values)


def test_train_shards_only_batches_that_fill_a_shard(monkeypatch):
    prepared, config = small_problem(channels=2)
    window = train_mod._window_bytes(config)
    monkeypatch.setattr(train_mod, "_workers", lambda: 4)
    sizes = shard_sizes(monkeypatch)
    # 30 windows fill three shards of 10, not four
    monkeypatch.setattr(train_mod, "TRAIN_SHARD_MIN_BYTES", 10 * window)
    train(config, TrainConfig(epochs=1, batch_size=30, seed=0), prepared)
    assert sizes[:3] == [10, 10, 10]
    # a batch that cannot fill two shards runs whole
    sizes.clear()
    monkeypatch.setattr(train_mod, "TRAIN_SHARD_MIN_BYTES", 31 * window)
    train(config, TrainConfig(epochs=1, batch_size=30, seed=0), prepared)
    assert sizes[0] == 30 and all(size <= 30 for size in sizes)


def test_train_helper_shard_error_names_epoch_and_offset_and_joins_threads(monkeypatch):
    prepared, config = small_problem(channels=2)
    tc = TrainConfig(epochs=1, batch_size=32, seed=0)
    monkeypatch.setattr(train_mod, "TRAIN_SHARD_MIN_BYTES", 1)
    monkeypatch.setattr(train_mod, "_workers", lambda: 2)
    before = threading.active_count()
    train(config, tc, prepared)
    assert threading.active_count() == before
    caller = threading.get_ident()

    def forward(x, params, *args, **kwargs):
        if not params.is_frozen and threading.get_ident() != caller:
            raise NumericError("helper shard")
        return ftmixer_forward(x, params, *args, **kwargs)

    monkeypatch.setattr(train_mod, "ftmixer_forward", forward)
    with pytest.raises(NumericError, match=r"epoch 0, sample offset 0: helper shard"):
        train(config, tc, prepared)
    assert threading.active_count() == before


@pytest.mark.parametrize("where", ["directory", "missing/checkpoint.ftm"])
def test_train_refuses_an_unwritable_checkpoint_path_before_training(
    monkeypatch, tmp_path, where
):
    prepared, config = small_problem()
    path = tmp_path / where
    if where == "directory":
        path.mkdir()

    def step(*args, **kwargs):
        raise AssertionError("trained before checking the checkpoint path")

    monkeypatch.setattr(train_mod, "_batch_step", step)
    with pytest.raises(ConfigError, match=f"cannot write {path}:"):
        train(config, TrainConfig(epochs=1, batch_size=32, seed=0), prepared, path)
    assert sorted(p.name for p in tmp_path.rglob("*")) == (
        ["directory"] if where == "directory" else []
    )


# glibc's malloc.h: M_ARENA_MAX, M_MMAP_THRESHOLD, M_TRIM_THRESHOLD
MALLOC_POLICY = [(-8, 1), (-3, 32 << 20), (-1, 64 << 20)]


def test_train_and_evaluate_set_the_malloc_policy_before_their_helper_threads(
    monkeypatch, eight_row_blocks
):
    prepared = wide_problem()
    monkeypatch.setattr(train_mod, "TRAIN_SHARD_MIN_BYTES", 1)
    monkeypatch.setattr(train_mod, "_workers", lambda: 2)
    before = threading.active_count()
    caller = threading.get_ident()
    calls, helper_forwards = [], []

    def forward(*args, **kwargs):
        helper_forwards.append(threading.get_ident() != caller)
        return ftmixer_forward(*args, **kwargs)

    monkeypatch.setattr(train_mod, "ftmixer_forward", forward)
    monkeypatch.setattr(
        train_mod, "_MALLOPT",
        lambda param, value: calls.append((param, value, threading.active_count())),
    )
    tc = TrainConfig(epochs=1, batch_size=32, seed=0)
    report, params = train(WIDE, tc, prepared)
    # set first with no helper thread alive, then again by each evaluate()
    assert calls[:3] == [(param, value, before) for param, value in MALLOC_POLICY]
    assert [call[:2] for call in calls] == MALLOC_POLICY * 3
    assert any(helper_forwards)
    calls.clear()
    helper_forwards.clear()
    metrics = evaluate(params, WIDE, prepared, "test")
    assert calls == [(param, value, before) for param, value in MALLOC_POLICY]
    assert any(helper_forwards)
    # a C library without mallopt gives the same outputs
    monkeypatch.setattr(train_mod, "_MALLOPT", None)
    report_b, params_b = train(WIDE, tc, prepared)
    assert report_b.epochs == report.epochs and report_b.test_mse == report.test_mse
    assert all(np.array_equal(a.values, b.values) for a, b in zip(params.all(), params_b.all()))
    assert evaluate(params, WIDE, prepared, "test") == metrics


@pytest.mark.parametrize("step", ["clip_global_norm", "adam_step"])
def test_train_names_epoch_and_offset_of_an_optimizer_abort(monkeypatch, step):
    prepared, config = small_problem()

    def fail(*args, **kwargs):
        raise NumericError("x")

    monkeypatch.setattr(da, step, fail)
    with pytest.raises(NumericError, match=r"epoch 0, sample offset 0: x;"):
        train(config, TrainConfig(epochs=1, batch_size=32, seed=0), prepared)


@pytest.mark.parametrize("workers", [1, 2])
def test_train_leaves_no_gradient_on_the_trained_set(monkeypatch, workers):
    prepared, config = small_problem(channels=2)
    monkeypatch.setattr(train_mod, "TRAIN_SHARD_MIN_BYTES", 1)
    monkeypatch.setattr(train_mod, "_workers", lambda: workers)
    _, params = train(config, TrainConfig(epochs=1, batch_size=32, seed=0), prepared)
    assert all(p.grad is None for p in params.all())
