"""Array engine: elementwise ops, matmul, conv, backward, Adam."""

import struct

import numpy as np
import pytest

from ftmixer import diffarray as da
from ftmixer.diffarray import AdamState, DiffArray, adam_step, backward
from ftmixer.errors import ConfigError, ContractError, DataError, DimensionError, NumericError

from helpers import assert_grads_match, central_diff_grads, max_rel_err, tracked


def test_add_elementwise():
    out = da.add(DiffArray([1.0, 2.0]), DiffArray([3.0, 4.0]))
    np.testing.assert_array_equal(out.values, [4.0, 6.0])


def test_scale_by_zero_annihilates():
    out = da.scale(DiffArray([1.0, 2.0, 3.0]), 0.0)
    np.testing.assert_array_equal(out.values, [0.0, 0.0, 0.0])


def test_add_shape_mismatch_names_both_shapes():
    with pytest.raises(DimensionError) as exc:
        da.add(DiffArray(np.zeros((2, 3))), DiffArray(np.zeros((4,))))
    assert "(2, 3)" in str(exc.value) and "(4,)" in str(exc.value)


def test_mul_backward_matches_central_differences():
    x = tracked([0.3, 0.7])
    y = tracked([1.1, -2.0])
    loss = da.reduce_sum(da.mul(x, y))
    backward(loss)
    np.testing.assert_allclose(x.grad, y.values, rtol=1e-12)
    np.testing.assert_allclose(y.grad, x.values, rtol=1e-12)

    def loss_fn():
        return float(np.sum(x.values * y.values))

    assert_grads_match(loss_fn, [x, y], tol=1e-6)


def test_broadcast_add_commutative_associative():
    rng = np.random.default_rng(7)
    a = DiffArray(rng.standard_normal((3, 4)))
    b = DiffArray(rng.standard_normal(4))
    c = DiffArray(rng.standard_normal((3, 1)))
    ab = da.add(a, b).values
    ba = da.add(b, a).values
    assert np.max(np.abs(ab - ba)) < 1e-12
    left = da.add(da.add(a, b), c).values
    right = da.add(a, da.add(b, c)).values
    assert np.max(np.abs(left - right)) < 1e-12


def test_broadcast_gradients_reduce_to_operand_shape():
    x = tracked(np.ones((2, 3)))
    bias = tracked(np.ones(3))
    loss = da.reduce_sum(da.add(x, bias))
    backward(loss)
    np.testing.assert_array_equal(bias.grad, [2.0, 2.0, 2.0])
    np.testing.assert_array_equal(x.grad, np.ones((2, 3)))


def test_matmul_identity_and_selection():
    m = DiffArray([[1.0, 2.0], [3.0, 4.0]])
    out = da.matmul(DiffArray(np.eye(2)), m)
    np.testing.assert_array_equal(out.values, m.values)
    row = da.matmul(DiffArray([[1.0, 0.0]]), DiffArray([[5.0], [7.0]]))
    np.testing.assert_array_equal(row.values, [[5.0]])


def test_matmul_inner_dim_mismatch():
    with pytest.raises(DimensionError):
        da.matmul(DiffArray(np.zeros((4, 3))), DiffArray(np.zeros((5, 2))))


def test_matmul_gradients_random():
    rng = np.random.default_rng(1)
    a = tracked(rng.standard_normal((4, 3)))
    b = tracked(rng.standard_normal((3, 5)))
    weights = rng.standard_normal((4, 5))
    loss = da.reduce_sum(da.mul(da.matmul(a, b), weights))
    backward(loss)

    def loss_fn():
        return float(np.sum((a.values @ b.values) * weights))

    assert_grads_match(loss_fn, [a, b], tol=1e-6)


def test_matmul_batched_gradients():
    rng = np.random.default_rng(2)
    a = tracked(rng.standard_normal((2, 3, 4)))
    b = tracked(rng.standard_normal((4, 5)))
    weights = rng.standard_normal((2, 3, 5))
    loss = da.reduce_sum(da.mul(da.matmul(a, b), weights))
    backward(loss)

    def loss_fn():
        return float(np.sum((a.values @ b.values) * weights))

    assert_grads_match(loss_fn, [a, b], tol=1e-6)


def test_conv1d_identity_kernel():
    x = DiffArray([[1.0, 2.0, 3.0, 4.0]])
    out = da.conv1d(x, DiffArray([[[1.0]]]), padding="same")
    np.testing.assert_allclose(out.values, x.values)


def test_conv1d_centered_delta_same_padding():
    x = DiffArray([[1.0, 2.0, 3.0, 4.0]])
    out = da.conv1d(x, DiffArray([[[0.0, 1.0, 0.0]]]), padding="same")
    np.testing.assert_allclose(out.values, x.values)


def test_conv1d_invalid_groups():
    with pytest.raises(ConfigError):
        da.conv1d(DiffArray(np.zeros((4, 8))), DiffArray(np.zeros((4, 2, 3))), groups=3)


def test_conv1d_rejects_every_mode_but_depthwise_same():
    x = DiffArray(np.zeros((4, 8)))
    with pytest.raises(ConfigError):
        da.conv1d(x, DiffArray(np.zeros((4, 1, 3))), padding="valid", groups=4)
    with pytest.raises(ConfigError):
        da.conv1d(x, DiffArray(np.zeros((4, 4, 1))), groups=1)  # pointwise
    with pytest.raises(ConfigError):
        da.conv1d(x, DiffArray(np.zeros((6, 2, 3))), groups=2)  # grouped


def direct_same_conv_matrix(taps, length):
    """Loop reference: row i holds the taps that reach sample i."""
    left = (len(taps) - 1) // 2
    m = np.zeros((length, length))
    for i in range(length):
        for j, tap in enumerate(taps):
            if 0 <= i + j - left < length:
                m[i, i + j - left] += tap
    return m


@pytest.mark.parametrize("ksize,length", [(3, 7), (4, 7), (1, 5), (6, 3), (9, 4)])
def test_same_conv_matrix_matches_direct_loop(ksize, length):
    taps = np.random.default_rng(ksize * 10 + length).standard_normal(ksize)
    out = da.same_conv_matrix(DiffArray(taps.reshape(1, 1, ksize)), length).values
    np.testing.assert_array_equal(out, direct_same_conv_matrix(taps, length))
    v = np.random.default_rng(1).standard_normal(length)
    conv = da.conv1d(DiffArray(v[None, :]), DiffArray(taps.reshape(1, 1, ksize)), groups=1)
    np.testing.assert_allclose(out @ v, conv.values[0], atol=1e-12)


@pytest.mark.parametrize("ksize,length", [(3, 6), (4, 6), (8, 5)])
def test_same_conv_matrix_gradients(ksize, length):
    rng = np.random.default_rng(ksize + length)
    taps = tracked(rng.standard_normal((1, 1, ksize)))
    v = rng.standard_normal((3, length, 2))
    weights = rng.standard_normal((3, length, 2))

    def forward():
        return da.reduce_sum(da.mul(da.matmul(da.same_conv_matrix(taps, length), v), weights))

    backward(forward())

    def loss_fn():
        return float(forward().values)

    assert_grads_match(loss_fn, [taps], tol=1e-6)


def test_conv1d_depthwise_gradients():
    rng = np.random.default_rng(4)
    x = tracked(rng.standard_normal((4, 16)))
    k = tracked(rng.standard_normal((4, 1, 3)))
    weights = rng.standard_normal((4, 16))

    def forward():
        return da.conv1d(x, k, padding="same", groups=4)

    loss = da.reduce_sum(da.mul(forward(), weights))
    backward(loss)

    def loss_fn():
        return float(np.sum(forward().values * weights))

    assert_grads_match(loss_fn, [x, k], tol=1e-6)


def test_backward_sum_gradient():
    x = tracked([1.0, 2.0, 3.0])
    backward(da.reduce_sum(x))
    np.testing.assert_array_equal(x.grad, [1.0, 1.0, 1.0])


def test_backward_quadratic_gradient():
    x = tracked([1.5, -2.0, 0.25])
    backward(da.scale(da.reduce_sum(da.mul(x, x)), 0.5))
    np.testing.assert_allclose(x.grad, x.values, rtol=1e-12)


def test_backward_rejects_non_scalar():
    x = tracked([1.0, 2.0])
    with pytest.raises(ContractError):
        backward(da.mul(x, x))


def test_backward_accumulates_without_zeroing():
    x = tracked([2.0])
    backward(da.reduce_sum(da.mul(x, x)))
    first = x.grad.copy()
    backward(da.reduce_sum(da.mul(x, x)))
    np.testing.assert_allclose(x.grad, 2.0 * first)


def test_backward_shared_subexpression():
    x = tracked([3.0])
    y = da.mul(x, x)
    loss = da.reduce_sum(da.add(y, y))
    backward(loss)
    np.testing.assert_allclose(x.grad, [12.0])


def test_reductions_and_nonlinearities_gradients():
    rng = np.random.default_rng(6)
    x = tracked(rng.standard_normal((3, 5)) + 2.5)  # positive-ish for sqrt

    def forward():
        s = da.sqrt(da.clamp_min(x, 0.5))
        m = da.reduce_mean(s, axis=-1, keepdims=True)
        return da.reduce_sum(da.silu(da.sub(s, m)))

    loss = forward()
    backward(loss)

    def loss_fn():
        return float(forward().values)

    # clamp boundary coordinates would have one-sided derivatives
    assert not np.any(np.abs(x.values - 0.5) < 1e-4)
    assert_grads_match(loss_fn, [x], tol=1e-4)


def test_absolute_subgradient_zero_at_zero():
    x = tracked([0.0, -1.5, 2.0])
    backward(da.reduce_sum(da.absolute(x)))
    np.testing.assert_array_equal(x.grad, [0.0, -1.0, 1.0])


def test_concat_and_swapaxes_gradients():
    rng = np.random.default_rng(8)
    a = tracked(rng.standard_normal((2, 3)))
    b = tracked(rng.standard_normal((2, 2)))
    weights = rng.standard_normal((5, 2))

    def forward():
        joined = da.concat([a, b], axis=-1)
        return da.reduce_sum(da.mul(da.swapaxes(joined, -1, -2), weights))

    backward(forward())

    def loss_fn():
        joined = np.concatenate([a.values, b.values], axis=-1)
        return float(np.sum(joined.T * weights))

    assert_grads_match(loss_fn, [a, b], tol=1e-6)


def test_graph_determinism():
    rng = np.random.default_rng(9)
    x_values = rng.standard_normal((4, 6))
    w_values = rng.standard_normal((6, 2))

    def run():
        x = tracked(x_values.copy())
        w = tracked(w_values.copy())
        out = da.silu(da.matmul(x, w))
        backward(da.reduce_sum(da.mul(out, out)))
        return out.values.copy(), x.grad.copy(), w.grad.copy()

    first = run()
    second = run()
    for lhs, rhs in zip(first, second):
        assert np.array_equal(lhs, rhs)


# ---------------------------------------------------------------------------
# Adam


def test_adam_zero_gradient_is_fixed_point():
    p = tracked([1.0, -2.0])
    state = AdamState(learning_rate=0.1)
    before = p.values.copy()
    adam_step([p], [np.zeros(2)], state)
    np.testing.assert_array_equal(p.values, before)


def test_adam_first_step_bias_corrected():
    p = tracked([0.0])
    state = AdamState(learning_rate=0.1)
    adam_step([p], [np.ones(1)], state)
    assert abs(p.values[0] + 0.1) < 1e-8
    assert state.step_count == 1


def test_adam_converges_on_quadratic():
    p = tracked([0.0])
    state = AdamState(learning_rate=0.05)
    for _ in range(500):
        grad = 2.0 * (p.values - 3.0)
        adam_step([p], [grad], state)
        if abs(p.values[0] - 3.0) < 1e-3:
            break
    assert abs(p.values[0] - 3.0) < 1e-3


def test_adam_rejects_nan_and_leaves_params_untouched():
    p = tracked([1.0])
    state = AdamState()
    adam_step([p], [np.ones(1)], state)
    snapshot = p.values.copy()
    with pytest.raises(NumericError):
        adam_step([p], [np.array([np.nan])], state)
    np.testing.assert_array_equal(p.values, snapshot)
    assert state.step_count == 1


def test_clip_global_norm():
    g1 = np.array([3.0, 0.0])
    g2 = np.array([0.0, 4.0])
    norm = da.clip_global_norm([g1, g2], max_norm=1.0)
    assert abs(norm - 5.0) < 1e-12
    total = np.sqrt(np.sum(g1**2) + np.sum(g2**2))
    assert abs(total - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# container round trip


def test_container_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(10)
    arrays = {
        "w": rng.standard_normal((3, 4)),
        "b": rng.standard_normal(7),
        "deep": rng.standard_normal((2, 3, 5)),
    }
    meta = {"note": "unit", "version": 3}
    path = tmp_path / "arrays.ftm"
    da.save_arrays(path, arrays, meta)
    loaded, loaded_meta = da.load_arrays(path)
    assert loaded_meta == meta
    assert set(loaded) == set(arrays)
    for name in arrays:
        assert loaded[name].tobytes() == arrays[name].tobytes()


def test_container_rejects_foreign_file(tmp_path):
    path = tmp_path / "bogus.ftm"
    path.write_bytes(b"not a checkpoint at all")
    with pytest.raises(Exception):
        da.load_arrays(path)


@pytest.mark.parametrize("meta,name", [
    (b"{bad json", b"w"),
    (b"[1, 2]", b"w"),
    (b"{}", b"\xff\xfe"),
])
def test_container_malformed_metadata_or_name_raises_data_error(tmp_path, meta, name):
    raw = b"FTMX" + struct.pack("<II", 1, len(meta)) + meta + struct.pack("<I", 1)
    raw += struct.pack("<H", len(name)) + name + struct.pack("<BI", 1, 1) + b"\0" * 8
    path = tmp_path / "bad.ftm"
    path.write_bytes(raw)
    with pytest.raises(DataError):
        da.load_arrays(path)
