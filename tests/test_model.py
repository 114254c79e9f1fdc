"""Network blocks: instance norm, both branches, mixer, full forward."""

import threading
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from ftmixer import diffarray as da
from ftmixer import model as model_mod
from ftmixer.data import from_values, gather_batch
from ftmixer.diffarray import DiffArray, backward
from ftmixer.errors import ConfigError, ContractError, DataError, DimensionError, NumericError
from ftmixer.model import (
    ABLATIONS,
    FtMixerParams,
    ModelConfig,
    default_patch_scales,
    ds_conv,
    fcc_forward,
    ftmixer_forward,
    load_checkpoint,
    param_count,
    parameter_shapes,
    revin_denormalize,
    revin_normalize,
    save_checkpoint,
    wfc_forward,
)

from helpers import (
    assert_grads_match,
    ds_conv_composition,
    separable_conv_composition,
    tracked,
)

TINY = ModelConfig(
    lookback=24,
    horizon=4,
    channels=2,
    fcc_embed_dim=8,
    patch_scales=(6, 12),
    patch_embed_dim=4,
    seed=3,
)

FULL = ModelConfig(lookback=336, horizon=96, channels=7, seed=1)

# even kernels everywhere, and a local kernel longer than the shorter patch
EVEN = ModelConfig(
    lookback=24,
    horizon=4,
    channels=3,
    fcc_embed_dim=8,
    patch_scales=(2, 6),
    patch_embed_dim=4,
    fcc_kernel_size=2,
    wfc_kernel_size=4,
    ds_dw_kernel_size=4,
    seed=5,
)


def zeroed_params(config) -> FtMixerParams:
    params = FtMixerParams.initialize(config)
    for p in params.all():
        p.values[...] = 0.0
    return params


# ---------------------------------------------------------------------------
# configuration


def test_config_rejects_indivisible_scale():
    with pytest.raises(ConfigError):
        ModelConfig(lookback=336, horizon=96, channels=7, patch_scales=(25,))


def test_config_rejects_bad_dims():
    with pytest.raises(ConfigError):
        ModelConfig(lookback=24, horizon=0, channels=2, patch_scales=(6,))
    with pytest.raises(ConfigError):
        ModelConfig(lookback=24, horizon=4, channels=2, patch_scales=(6,), revin_epsilon=0.0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ConfigError):
            ModelConfig(lookback=24, horizon=4, channels=2, patch_scales=(6,), revin_epsilon=bad)
    for bad in ({"fcc_embed_dim": float("nan")}, {"wfc_kernel_size": 2.5},
                {"fcc_kernel_size": float("nan")}, {"patch_scales": (6.5,)}):
        with pytest.raises(ConfigError):
            ModelConfig(**{"lookback": 24, "horizon": 4, "channels": 2, "patch_scales": (6,),
                           **bad})


@pytest.mark.parametrize("change, match", [
    ({"lookback": 1, "patch_scales": (1,)}, "lookback must be >= 2"),
    ({"patch_scales": ()}, "must not be empty"),
    ({"patch_scales": (6, 6)}, "duplicate patch scales"),
    ({"wfc_kernel_size": 0}, "wfc_kernel_size must be >= 1"),
    ({"ds_dw_kernel_size": 0}, "ds_dw_kernel_size must be >= 1"),
    ({"fcc_kernel_size": 0}, "fcc_kernel_size must be >= 1"),
], ids=["short_lookback", "no_scales", "duplicate_scales", "wfc_kernel", "ds_kernel",
        "fcc_kernel"])
def test_config_rejects_scales_and_kernels_out_of_range(change, match):
    with pytest.raises(ConfigError, match=match):
        ModelConfig(**{"lookback": 24, "horizon": 4, "channels": 2, "patch_scales": (6,),
                       **change})


def test_config_rejects_negative_seed():
    with pytest.raises(ConfigError, match="seed must be >= 0"):
        ModelConfig(lookback=24, horizon=4, channels=2, patch_scales=(6,), seed=-1)
    assert ModelConfig(lookback=24, horizon=4, channels=2, patch_scales=(6,), seed=0).seed == 0


def test_default_patch_scales():
    assert default_patch_scales(336) == (24, 48)
    assert default_patch_scales(720) == (24, 48)
    assert default_patch_scales(96) == (12, 24)
    assert default_patch_scales(192) == (24, 48)
    assert default_patch_scales(7) == (1,)


def test_config_derives_patch_scales_from_its_own_lookback():
    assert ModelConfig(lookback=100, horizon=8, channels=1).patch_scales == (2, 4)
    assert ModelConfig(lookback=96, horizon=8, channels=1).patch_scales == (12, 24)
    assert ModelConfig(lookback=336, horizon=96, channels=7).patch_scales == (24, 48)
    config = ModelConfig(lookback=96, horizon=8, channels=1, patch_scales=(8, 32))
    assert config.patch_scales == (8, 32)
    assert ModelConfig.from_dict(config.to_dict()) == config


# ---------------------------------------------------------------------------
# reversible instance normalization


def test_revin_constant_channel_clamps_std():
    x = DiffArray([[5.0, 5.0, 5.0]])
    normalized, state = revin_normalize(x, epsilon=1e-5)
    np.testing.assert_allclose(normalized.values, np.zeros((1, 3)), atol=1e-12)
    assert state.std.values[0, 0] == pytest.approx(1e-5)


def test_revin_two_point_channel():
    x = DiffArray([[-1.0, 1.0]])
    normalized, state = revin_normalize(x, epsilon=1e-8)
    assert normalized.values.mean() == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_allclose(normalized.values, [[-1.0, 1.0]], atol=1e-8)


def test_revin_round_trip():
    rng = np.random.default_rng(21)
    x = DiffArray(rng.standard_normal((3, 5, 16)))
    normalized, state = revin_normalize(x, epsilon=1e-5)
    restored = revin_denormalize(normalized, state)
    assert np.max(np.abs(restored.values - x.values)) < 1e-10
    assert np.all(state.std.values >= 1e-5)


def test_revin_identity_state():
    state_x = DiffArray(np.zeros((2, 8)))
    normalized, state = revin_normalize(state_x, epsilon=1e-5)
    y = DiffArray([[1.0, 2.0], [3.0, 4.0]])
    # mean 0, std clamped to epsilon: denormalize scales by epsilon
    out = revin_denormalize(y, state)
    np.testing.assert_allclose(out.values, y.values * 1e-5, atol=1e-18)


def test_revin_zero_prediction_returns_means():
    rng = np.random.default_rng(22)
    x = DiffArray(rng.standard_normal((4, 12)))
    _, state = revin_normalize(x, epsilon=1e-5)
    out = revin_denormalize(DiffArray(np.zeros((4, 3))), state)
    np.testing.assert_allclose(out.values, np.repeat(state.mean.values, 3, axis=-1), atol=1e-14)


@pytest.mark.parametrize("shape", [(8,), (3, 1)])
def test_revin_normalize_rejects_a_shape_without_channels_or_a_one_point_window(shape):
    with pytest.raises(ContractError, match="revin_normalize"):
        revin_normalize(np.zeros(shape), epsilon=1e-5)


def test_revin_denormalize_channel_mismatch():
    x = DiffArray(np.zeros((3, 8)))
    _, state = revin_normalize(x, epsilon=1e-5)
    with pytest.raises(ContractError):
        revin_denormalize(DiffArray(np.zeros((2, 4))), state)


# ---------------------------------------------------------------------------
# global branch


def test_fcc_output_shape_full_size():
    params = FtMixerParams.initialize(FULL)
    x = DiffArray(np.random.default_rng(23).standard_normal((7, 336)))
    out = fcc_forward(x, params, FULL)
    assert out.shape == (7, 128)


def test_fcc_zero_input_zero_bias_gives_zero():
    params = FtMixerParams.initialize(TINY)
    params["fcc_embed_b"].values[...] = 0.0
    out = fcc_forward(DiffArray(np.zeros((2, 24))), params, TINY)
    np.testing.assert_allclose(out.values, 0.0, atol=1e-15)


def test_fcc_additivity_without_bias():
    config = TINY
    params = FtMixerParams.initialize(config)
    params["fcc_embed_b"].values[...] = 0.0
    rng = np.random.default_rng(24)
    for _ in range(5):
        x = rng.standard_normal((2, 24))
        y = rng.standard_normal((2, 24))
        joint = fcc_forward(DiffArray(x + y), params, config).values
        split = fcc_forward(DiffArray(x), params, config).values + fcc_forward(
            DiffArray(y), params, config
        ).values
        assert np.max(np.abs(joint - split)) < 1e-9


@pytest.mark.parametrize("shape", [(24,), (3, 24), (2, 12), (4, 3, 24)])
def test_forward_rejects_a_shape_other_than_channels_by_lookback(shape):
    params = FtMixerParams.initialize(TINY)
    with pytest.raises(DimensionError, match="ftmixer_forward"):
        ftmixer_forward(np.zeros(shape), params, TINY)


def test_fcc_shape_mismatch():
    params = FtMixerParams.initialize(TINY)
    with pytest.raises(DimensionError):
        fcc_forward(DiffArray(np.zeros((3, 24))), params, TINY)


# ---------------------------------------------------------------------------
# local branch


def test_wfc_patch_count_full_size():
    params = FtMixerParams.initialize(FULL)
    x = DiffArray(np.random.default_rng(25).standard_normal(336))
    out = wfc_forward(x, params, scale=24)
    assert out.shape == (14, 64)


def test_wfc_identity_kernel_closed_form():
    config = TINY
    params = FtMixerParams.initialize(config)
    kernel = params["wfc_conv_k_6"]
    kernel.values[...] = 0.0
    kernel.values[0, 0, 1] = 1.0  # centered delta: conv output == input
    params["wfc_embed_b_6"].values[...] = 0.0
    rng = np.random.default_rng(26)
    x = rng.standard_normal(24)
    out = wfc_forward(DiffArray(x), params, scale=6)
    patches = x.reshape(4, 6)
    expected = (2.0 * patches) @ params["wfc_embed_w_6"].values
    np.testing.assert_allclose(out.values, expected, atol=1e-10)


def test_wfc_rejects_indivisible_scale():
    params = FtMixerParams.initialize(TINY)
    with pytest.raises(ConfigError):
        wfc_forward(DiffArray(np.zeros(24)), params, scale=7)
    with pytest.raises(ConfigError):
        wfc_forward(DiffArray(np.zeros(24)), params, scale=48)


def test_wfc_at_a_scale_without_parameters_is_config_error():
    params = FtMixerParams.initialize(TINY)
    with pytest.raises(ConfigError, match="no parameters for scale 4"):
        wfc_forward(DiffArray(np.zeros(24)), params, scale=4)


def test_wfc_gradients():
    config = TINY
    params = FtMixerParams.initialize(config)
    rng = np.random.default_rng(27)
    x = tracked(rng.standard_normal(24))
    names = ["wfc_conv_k_6", "wfc_embed_w_6", "wfc_embed_b_6"]
    weights = rng.standard_normal((4, 4))

    def forward():
        return wfc_forward(x, params, scale=6)

    backward(da.reduce_sum(da.mul(forward(), weights)))

    def loss_fn():
        return float(np.sum(forward().values * weights))

    assert_grads_match(loss_fn, [x] + [params[n] for n in names], tol=1e-4)


# ---------------------------------------------------------------------------
# separable mixer


def test_depthwise_pointwise_identity_composition():
    config = TINY
    params = zeroed_params(config)
    dw = params["ds_dw_k"]
    dw.values[:, 0, 1] = 1.0  # per-feature centered delta
    params["ds_pw_k"].values[:, :, 0] = np.eye(config.patch_embed_dim)
    rng = np.random.default_rng(28)
    z = rng.standard_normal((2, config.total_patches, config.patch_embed_dim))
    out = da.separable_conv(DiffArray(z), dw, params["ds_pw_k"],
                            segment=config.channels * config.total_patches)
    np.testing.assert_allclose(out.values, z / (1.0 + np.exp(-z)), rtol=1e-15, atol=1e-15)


def relative_error(got, want) -> float:
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


# (config, batch shape): the paper's FULL shape (147-row sequences, several
# to a block, the last block shorter), even taps, one tap, sequences a few
# rows longer than a block, and unbatched input
SEPARABLE_CASES = {
    "full": (FULL, (8,)),
    "tiny": (TINY, (3,)),
    "even_k4": (EVEN, (2,)),
    "k1": (replace(TINY, ds_dw_kernel_size=1), (2,)),
    "longer_than_block": (
        replace(FULL, channels=da.SEPARABLE_BLOCK_ROWS // FULL.total_patches + 1), (2,)),
    "unbatched": (TINY, ()),
}


@pytest.mark.parametrize("case", list(SEPARABLE_CASES))
def test_separable_conv_matches_composition(case):
    config, batch = SEPARABLE_CASES[case]
    segment = config.channels * config.total_patches
    rng = np.random.default_rng(40)
    shape = batch + (config.channels, config.total_patches, config.patch_embed_dim)
    z_values = rng.standard_normal(shape)
    weights = rng.standard_normal(shape)
    results = []
    for op in (da.separable_conv, separable_conv_composition):
        params = FtMixerParams.initialize(config)
        z = tracked(z_values)
        out = op(z, params["ds_dw_k"], params["ds_pw_k"], segment)
        backward(da.reduce_sum(da.mul(out, weights)))
        results.append((out.values, z.grad, params["ds_dw_k"].grad, params["ds_pw_k"].grad))
    (out, *grads), (want, *want_grads) = results
    assert relative_error(out, want) <= 1e-12
    for grad, want_grad in zip(grads, want_grads):
        assert relative_error(grad, want_grad) <= 1e-12
    frozen = FtMixerParams.initialize(config).frozen()
    untracked = da.separable_conv(z_values, frozen["ds_dw_k"], frozen["ds_pw_k"], segment)
    assert not untracked.requires_grad
    assert np.array_equal(untracked.values, out)


def test_ds_conv_holds_less_memory_than_the_composition():
    # a train_wide shard: 4 windows of N=321, L=96, 7.5 MiB of local patches
    config = ModelConfig(lookback=96, horizon=96, channels=321,
                         patch_scales=default_patch_scales(96), seed=0)
    params = FtMixerParams.initialize(config)
    rng = np.random.default_rng(41)
    z_values = rng.standard_normal((4, 321, config.total_patches, config.patch_embed_dim))
    weights = rng.standard_normal((4, 321, config.fcc_embed_dim))
    measured = []
    for op in (ds_conv, ds_conv_composition):
        da.zero_grads(params.all())
        z = tracked(z_values)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = op(z, params, config)
            held = tracemalloc.get_traced_memory()[0] - base
            backward(da.reduce_sum(da.mul(out, weights)))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        measured.append((held, peak))
        del out, z
    (held, peak), (composition_held, composition_peak) = measured
    assert held <= 0.6 * composition_held, (held, composition_held)
    assert peak <= 0.8 * composition_peak, (peak, composition_peak)


def test_ds_conv_shape_mismatch():
    params = FtMixerParams.initialize(TINY)
    n_tot, dp = TINY.total_patches, TINY.patch_embed_dim
    for shape in ((3, n_tot, dp), (2, n_tot + 1, dp), (2 * n_tot, dp)):
        with pytest.raises(DimensionError):
            ds_conv(DiffArray(np.zeros(shape)), params, TINY)


def test_ds_conv_output_aligns_with_global_branch():
    config = TINY
    params = FtMixerParams.initialize(config)
    rng = np.random.default_rng(29)
    z = DiffArray(rng.standard_normal((2, config.total_patches, config.patch_embed_dim)))
    out = ds_conv(z, params, config)
    x = DiffArray(rng.standard_normal((2, 24)))
    assert out.shape == fcc_forward(x, params, config).shape == (2, 8)


def test_ds_conv_gradients():
    config = TINY
    params = FtMixerParams.initialize(config)
    rng = np.random.default_rng(30)
    z = tracked(rng.standard_normal((2, config.total_patches, config.patch_embed_dim)))
    names = ["ds_dw_k", "ds_pw_k", "ds_proj_w", "ds_proj_b"]
    weights = rng.standard_normal((2, 8))

    def forward():
        return ds_conv(z, params, config)

    backward(da.reduce_sum(da.mul(forward(), weights)))

    def loss_fn():
        return float(np.sum(forward().values * weights))

    assert_grads_match(loss_fn, [z] + [params[n] for n in names], tol=1e-4)


# ---------------------------------------------------------------------------
# full forward


def test_forward_shape_contract_full_size():
    params = FtMixerParams.initialize(FULL)
    x = DiffArray(np.random.default_rng(31).standard_normal((7, 336)))
    out = ftmixer_forward(x, params, FULL)
    assert out.shape == (7, 96)


def test_forward_batched_matches_single():
    config = TINY
    params = FtMixerParams.initialize(config)
    rng = np.random.default_rng(32)
    batch = rng.standard_normal((3, 2, 24))
    joint = ftmixer_forward(DiffArray(batch), params, config).values
    for i in range(3):
        single = ftmixer_forward(DiffArray(batch[i]), params, config).values
        np.testing.assert_allclose(joint[i], single, atol=1e-12)


def test_zero_parameter_network_outputs_lookback_means():
    config = TINY
    params = zeroed_params(config)
    rng = np.random.default_rng(33)
    x = rng.standard_normal((2, 24))
    out = ftmixer_forward(DiffArray(x), params, config).values
    expected = np.repeat(x.mean(axis=-1, keepdims=True), config.horizon, axis=-1)
    np.testing.assert_allclose(out, expected, atol=1e-12)


def test_shift_covariance():
    config = TINY
    params = FtMixerParams.initialize(config)
    rng = np.random.default_rng(34)
    x = rng.standard_normal((2, 24))
    shift = rng.standard_normal((2, 1))
    base = ftmixer_forward(DiffArray(x), params, config).values
    shifted = ftmixer_forward(DiffArray(x + shift), params, config).values
    assert np.max(np.abs(shifted - (base + shift))) < 1e-8


def test_forward_ablations_split_branches():
    config = TINY
    params = FtMixerParams.initialize(config)
    rng = np.random.default_rng(35)
    x = DiffArray(rng.standard_normal((2, 24)))
    full = ftmixer_forward(x, params, config).values
    no_fcc = ftmixer_forward(x, params, config, ablation="no_fcc").values
    no_wfc = ftmixer_forward(x, params, config, ablation="no_wfc").values
    assert not np.allclose(full, no_fcc)
    assert not np.allclose(full, no_wfc)
    with pytest.raises(ConfigError):
        ftmixer_forward(x, params, config, ablation="bogus")


@pytest.mark.parametrize("ablation", ABLATIONS)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_forward_rejects_non_finite_input(ablation, bad):
    params = FtMixerParams.initialize(TINY)
    x = np.random.default_rng(38).standard_normal((3, 2, 24))
    x[1, 0, 5] = bad
    with pytest.raises(NumericError):
        ftmixer_forward(DiffArray(x), params, TINY, ablation=ablation)


@pytest.mark.parametrize("config", [FULL, TINY, EVEN], ids=["full", "tiny", "even"])
@pytest.mark.parametrize("ablation", ABLATIONS)
def test_frozen_forward_matches_tracked(config, ablation):
    params = FtMixerParams.initialize(config)
    x = np.random.default_rng(39).standard_normal((5, config.channels, config.lookback))
    tracked_out = ftmixer_forward(DiffArray(x), params, config, ablation=ablation)
    frozen = params.frozen()
    for _ in range(2):  # the second forward reads the memoized folds
        out = ftmixer_forward(DiffArray(x), frozen, config, ablation=ablation)
        assert not out.requires_grad and out._parents == ()
        scale = np.max(np.abs(tracked_out.values))
        assert np.max(np.abs(out.values - tracked_out.values)) <= 1e-12 * scale


@pytest.mark.parametrize("config", [FULL, TINY], ids=["full", "tiny"])
def test_forward_on_a_strided_view_is_bitwise_the_contiguous_forward(monkeypatch, config):
    layouts = []  # whether each forward's RevIN input is C-ordered

    def spy(x, *args):
        layouts.append(x.values.flags.c_contiguous)
        return revin_normalize(x, *args)

    monkeypatch.setattr(model_mod, "revin_normalize", spy)
    series = np.random.default_rng(41).standard_normal((config.channels, config.lookback + 9))
    view = gather_batch(from_values(series), np.arange(6), config.lookback, 4).inputs
    assert not view.flags.c_contiguous and not view.flags.writeable
    contiguous = np.ascontiguousarray(view)
    params = FtMixerParams.initialize(config)
    frozen = params.frozen()
    assert (ftmixer_forward(view, frozen, config).values.tobytes()
            == ftmixer_forward(contiguous, frozen, config).values.tobytes())
    runs = []
    for x in (view, contiguous):
        replica = params.replica()
        out = ftmixer_forward(x, replica, config)
        backward(da.reduce_mean(da.mul(out, out)))
        runs.append([out.values.tobytes()] + [p.grad.tobytes() for p in replica.all()])
    assert runs[0] == runs[1]
    assert layouts == [True] * 4  # the view is copied once, at the forward's entry


def test_frozen_set_is_read_only_untracked_and_memoizes():
    params = FtMixerParams.initialize(TINY)
    frozen = params.frozen()
    for name in params.names():
        assert not frozen[name].requires_grad
        assert np.shares_memory(frozen[name].values, params[name].values)
        with pytest.raises(ValueError):
            frozen[name].values[...] = 0.0
    builds = []

    def build():
        builds.append(1)
        return DiffArray(np.zeros(1))

    assert frozen.fold("key", build) is frozen.fold("key", build)
    assert len(builds) == 1
    params.fold("key", build)
    params.fold("key", build)
    assert len(builds) == 3  # a tracked set builds on every call


def test_replica_shares_values_and_keeps_its_own_gradients():
    params = FtMixerParams.initialize(TINY)
    replica = params.replica()
    assert not replica.is_frozen
    for name in params.names():
        assert replica[name].requires_grad and replica[name] is not params[name]
        assert replica[name].values is params[name].values
    x = np.random.default_rng(6).standard_normal((3, TINY.channels, TINY.lookback))
    backward(da.reduce_sum(ftmixer_forward(x, replica, TINY)))
    assert all(p.grad is None for p in params.all())
    assert all(p.grad is not None for p in replica.all())
    # an in-place optimizer step on the set shows in the replica's forward
    da.adam_step(params.all(), [np.ones_like(p.values) for p in params.all()],
                 da.AdamState(learning_rate=1e-2))
    assert np.array_equal(ftmixer_forward(x, replica, TINY).values,
                          ftmixer_forward(x, params, TINY).values)


def test_frozen_fold_is_built_once_under_concurrent_first_use():
    frozen = FtMixerParams.initialize(TINY).frozen()
    barrier = threading.Barrier(4)
    builds = []
    got = [None] * 4

    def slow_build():
        builds.append(1)
        time.sleep(0.05)  # wide enough for the other threads to arrive
        return DiffArray(np.zeros(1))

    def first_use(i):
        barrier.wait(timeout=10)
        got[i] = frozen.fold("key", slow_build)

    threads = [threading.Thread(target=first_use, args=(i,)) for i in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()
    assert len(builds) == 1
    assert all(value is got[0] for value in got)


@pytest.mark.parametrize("config", [FULL, TINY, EVEN], ids=["full", "tiny", "even"])
def test_fcc_head_fold_matches_branch_then_head(config):
    params = FtMixerParams.initialize(config)
    x = np.random.default_rng(40).standard_normal((3, config.channels, config.lookback))
    expected = fcc_forward(DiffArray(x), params, config).values @ params["pred_w"].values
    out = fcc_forward(DiffArray(x), params.frozen(), config)
    assert out.shape == (3, config.channels, config.horizon)
    assert np.max(np.abs(out.values - expected)) <= 1e-12 * np.max(np.abs(expected))


@pytest.mark.parametrize("config", [FULL, TINY, EVEN], ids=["full", "tiny", "even"])
def test_ds_conv_head_fold_matches_branch_then_head(config):
    params = FtMixerParams.initialize(config)
    z = np.random.default_rng(41).standard_normal(
        (3, config.channels, config.total_patches, config.patch_embed_dim))
    expected = ds_conv(DiffArray(z), params, config).values @ params["pred_w"].values
    out = ds_conv(DiffArray(z), params.frozen(), config)
    assert out.shape == (3, config.channels, config.horizon)
    assert np.max(np.abs(out.values - expected)) <= 1e-12 * np.max(np.abs(expected))


def spy_on_folds(monkeypatch) -> list[str]:
    """Patch FtMixerParams.fold to log the key of every fold it builds."""
    built = []
    original = FtMixerParams.fold

    def fold(self, key, build):
        def logged_build():
            built.append(key)
            return build()

        return original(self, key, logged_build)

    monkeypatch.setattr(FtMixerParams, "fold", fold)
    return built


HEAD_FOLDS = ["fcc_head_w", "fcc_head_b", "ds_head_w", "ds_head_b"]


def test_frozen_forward_builds_each_head_fold_once(monkeypatch):
    params = FtMixerParams.initialize(TINY)
    frozen = params.frozen()
    assert frozen.is_frozen and not params.is_frozen
    built = spy_on_folds(monkeypatch)
    x = np.random.default_rng(42).standard_normal((2, TINY.channels, TINY.lookback))
    for _ in range(2):
        ftmixer_forward(DiffArray(x), frozen, TINY)
    assert sorted(k for k in built if "head" in k) == sorted(HEAD_FOLDS)


def test_tracked_forward_requests_no_head_fold(monkeypatch):
    params = FtMixerParams.initialize(TINY)
    built = spy_on_folds(monkeypatch)
    x = np.random.default_rng(43).standard_normal((2, TINY.channels, TINY.lookback))
    ftmixer_forward(DiffArray(x), params, TINY)
    assert built and not [k for k in built if "head" in k]


@pytest.mark.parametrize("frozen", [False, True], ids=["tracked", "frozen"])
def test_forward_concat_holds_the_local_branch_once(monkeypatch, frozen):
    params = FtMixerParams.initialize(EVEN)
    x = np.random.default_rng(44).standard_normal((3, EVEN.channels, EVEN.lookback))
    concat = da.concat
    joined = []

    def spy(parts, axis=-1):
        joined.append((parts, concat(parts, axis)))
        return joined[-1][1]

    def keeping_parts(parts, axis=-1):
        # each part behind a reshape node, which concat re-homes in its place
        return concat([da.reshape(p, p.shape) for p in parts], axis)

    runs = []
    for join in (keeping_parts, spy):
        monkeypatch.setattr(da, "concat", join)
        run_params = params.frozen() if frozen else params.replica()
        out = ftmixer_forward(DiffArray(x), run_params, EVEN)
        if not frozen:
            backward(da.reduce_sum(da.mul(out, out)))
        runs.append((out.values, [p.grad for p in run_params.all()]))
    ((parts, node),) = joined
    assert node._parents == (() if frozen else tuple(parts))
    for part in parts:
        assert np.shares_memory(part.values, node.values) != frozen
    (want, want_grads), (got, got_grads) = runs
    assert np.array_equal(got, want)
    for g, w in zip(got_grads, want_grads):
        assert (g is None and w is None) if frozen else np.array_equal(g, w)


def test_every_parameter_gets_gradient():
    config = TINY
    params = FtMixerParams.initialize(config)
    rng = np.random.default_rng(36)
    x = DiffArray(rng.standard_normal((4, 2, 24)))
    target = rng.standard_normal((4, 2, 4))
    pred = ftmixer_forward(x, params, config)
    residual = da.sub(pred, target)
    backward(da.reduce_mean(da.mul(residual, residual)))
    for name in params.names():
        grad = params[name].grad
        assert grad is not None, name
        assert np.any(grad != 0.0), f"dead parameter {name}"


def test_init_determinism():
    a = FtMixerParams.initialize(TINY)
    b = FtMixerParams.initialize(TINY)
    for name in a.names():
        assert np.array_equal(a[name].values, b[name].values)
    rng = np.random.default_rng(37)
    x = rng.standard_normal((2, 24))
    out_a = ftmixer_forward(DiffArray(x), a, TINY).values
    out_b = ftmixer_forward(DiffArray(x), b, TINY).values
    assert np.array_equal(out_a, out_b)


def test_param_count_matches_hand_count():
    # tiny: embed 24*8+8, kernel 2, scales (3+6*4+4)+(3+12*4+4), depthwise 4*3,
    # pointwise 4*4, projection 6*4*8+8, head 8*4+4
    assert param_count(TINY) == 200 + 2 + 31 + 55 + 12 + 16 + 200 + 36 == 552
    # full: embed 336*128+128, kernel 7, scales (3+24*64+64)+(3+48*64+64),
    # depthwise 64*3, pointwise 64*64, projection 21*64*128+128, head 128*96+96
    assert param_count(FULL) == 43136 + 7 + 1603 + 3139 + 192 + 4096 + 172160 + 12384
    for config in (TINY, FULL):
        actual = sum(p.size for p in FtMixerParams.initialize(config).all())
        assert actual == param_count(config)
        shapes = parameter_shapes(config)
        assert sum(int(np.prod(s)) for s, _ in shapes.values()) == param_count(config)


@pytest.mark.parametrize("drop, add, match", [
    ("pred_b", None, r"missing=\['pred_b'\] extra=\[\]"),
    (None, "pred_c", r"missing=\[\] extra=\['pred_c'\]"),
], ids=["missing", "extra"])
def test_params_with_missing_or_extra_names_are_a_contract_error(drop, add, match):
    entries = {name: da.parameter(np.zeros(shape)) for name, (shape, _) in
               parameter_shapes(TINY).items() if name != drop}
    if add:
        entries[add] = da.parameter(np.zeros(1))
    with pytest.raises(ContractError, match=match):
        FtMixerParams(TINY, entries)


def test_checkpoint_round_trip_bit_exact(tmp_path):
    params = FtMixerParams.initialize(TINY)
    path = tmp_path / "model.ftm"
    save_checkpoint(path, params, {"note": "unit"})
    loaded, meta = load_checkpoint(path)
    assert meta["note"] == "unit"
    assert loaded.config == TINY
    for name in params.names():
        assert loaded[name].values.tobytes() == params[name].values.tobytes()


def test_truncated_or_padded_checkpoint_raises_data_error(tmp_path):
    path = tmp_path / "model.ftm"
    save_checkpoint(path, FtMixerParams.initialize(TINY), {"note": "unit"})
    raw = path.read_bytes()
    cut = tmp_path / "cut.ftm"
    for size in range(len(raw)):
        cut.write_bytes(raw[:size])
        with pytest.raises(DataError):
            load_checkpoint(cut)
    cut.write_bytes(raw + b"junk")
    with pytest.raises(DataError):
        load_checkpoint(cut)


def test_checkpoint_with_any_flipped_bit_raises_data_error(tmp_path):
    path = tmp_path / "model.ftm"
    save_checkpoint(path, FtMixerParams.initialize(TINY), {"note": "unit"})
    raw = path.read_bytes()
    flipped = tmp_path / "flipped.ftm"
    for i in range(len(raw)):
        flipped.write_bytes(raw[:i] + bytes([raw[i] ^ (1 << i % 8)]) + raw[i + 1:])
        with pytest.raises(DataError):
            load_checkpoint(flipped)


@pytest.mark.parametrize("meta", [
    {},
    {"model_config": "lookback=24"},
    {"model_config": {"lookback": 24}},
    {"model_config": dict(TINY.to_dict(), bogus=1)},
    {"model_config": dict(TINY.to_dict(), lookback="x")},
    {"model_config": dict(TINY.to_dict(), patch_scales=[5])},
    {"model_config": dict(TINY.to_dict(), channels=3)},  # arrays no longer fit
])
def test_checkpoint_with_bad_model_config_raises_data_error(tmp_path, meta):
    params = FtMixerParams.initialize(TINY)
    path = tmp_path / "model.ftm"
    da.save_arrays(path, {n: params[n].values for n in params.names()}, meta)
    with pytest.raises(DataError):
        load_checkpoint(path)


def test_checkpoint_with_negative_seed_raises_data_error(tmp_path):
    path = tmp_path / "model.ftm"
    save_checkpoint(path, FtMixerParams.initialize(TINY),
                    {"model_config": dict(TINY.to_dict(), seed=-1)})
    with pytest.raises(DataError, match="seed must be >= 0"):
        load_checkpoint(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_checkpoint_with_non_finite_parameter_raises_data_error(tmp_path, bad):
    params = FtMixerParams.initialize(TINY)
    params["pred_w"].values[0, 1] = bad
    params["ds_pw_k"].values[2, 0, 0] = bad  # the first in parameter order
    path = tmp_path / "model.ftm"
    save_checkpoint(path, params)
    with pytest.raises(DataError, match="parameter ds_pw_k holds a non-finite value"):
        load_checkpoint(path)
