"""Array engine: elementwise ops, matmul, the separable conv, backward, Adam."""

import json
import struct
import zlib

import numpy as np
import pytest

from ftmixer import diffarray as da
from ftmixer.diffarray import AdamState, DiffArray, adam_step, backward
from ftmixer.errors import ConfigError, ContractError, DataError, DimensionError, NumericError

from helpers import (
    assert_grads_match,
    central_diff_grads,
    conv1d,
    max_rel_err,
    silu,
    traced_growth,
    tracked,
)


def test_add_elementwise():
    out = da.add(DiffArray([1.0, 2.0]), DiffArray([3.0, 4.0]))
    np.testing.assert_array_equal(out.values, [4.0, 6.0])


def test_scale_by_zero_annihilates():
    out = da.mul(DiffArray([1.0, 2.0, 3.0]), 0.0)
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


@pytest.mark.parametrize("a_shape, b_shape", [((3,), (3, 2)), ((4, 3), (3,))])
def test_matmul_rejects_a_1d_operand(a_shape, b_shape):
    with pytest.raises(DimensionError, match="at least 2 dims"):
        da.matmul(np.zeros(a_shape), np.zeros(b_shape))


def test_concat_of_no_parts_is_a_contract_error():
    with pytest.raises(ContractError, match="at least one array"):
        da.concat([])


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


@pytest.mark.parametrize("a_shape,b_shape", [
    ((2, 2, 3, 4), (4, 5)),  # 4-D left, one GEMM
    ((3, 4), (2, 4, 5)),     # 2-D left broadcast over a stacked right
])
def test_matmul_stacked_and_broadcast_gradients(a_shape, b_shape):
    rng = np.random.default_rng(len(a_shape))
    a = tracked(rng.standard_normal(a_shape))
    b = tracked(rng.standard_normal(b_shape))
    expected = a.values @ b.values
    np.testing.assert_allclose(da.matmul(a, b).values, expected, atol=1e-13)
    weights = rng.standard_normal(expected.shape)

    def forward():
        return da.reduce_sum(da.mul(da.matmul(a, b), weights))

    backward(forward())

    def loss_fn():
        return float(forward().values)

    assert_grads_match(loss_fn, [a, b], tol=1e-6)


def test_matmul_transposed_left_view_gradients():
    rng = np.random.default_rng(11)
    base = tracked(rng.standard_normal((2, 4, 3)))
    b = tracked(rng.standard_normal((4, 5)))
    view = da.swapaxes(base, -1, -2)  # [2, 3, 4], not contiguous
    assert not view.values.flags["C_CONTIGUOUS"]
    np.testing.assert_allclose(da.matmul(view, b).values, view.values @ b.values, atol=1e-13)
    weights = rng.standard_normal((2, 3, 5))

    def forward():
        return da.reduce_sum(da.mul(da.matmul(da.swapaxes(base, -1, -2), b), weights))

    backward(forward())

    def loss_fn():
        return float(forward().values)

    assert_grads_match(loss_fn, [base, b], tol=1e-6)


def separable_leaves(rng, shape, ksize):
    dim = shape[-1]
    return (tracked(rng.standard_normal(shape)), tracked(rng.standard_normal((dim, 1, ksize))),
            tracked(rng.standard_normal((dim, dim, 1)) / np.sqrt(dim)))


def padded_depthwise(z, taps, segment):
    """Same-padded per-feature cross-correlation along each run of
    ``segment`` rows of ``z`` [..., D], by zero padding; taps [D, K]."""
    dim, ksize = taps.shape
    left = (ksize - 1) // 2
    seqs = z.reshape(-1, segment, dim)
    padded = np.pad(seqs, ((0, 0), (left, ksize - 1 - left), (0, 0)))
    return sum(padded[:, j : j + segment] * taps[:, j] for j in range(ksize)).reshape(z.shape)


def silu_values(v):
    return v / (1.0 + np.exp(-v))


@pytest.mark.parametrize("ksize", [1, 3, 4])
def test_separable_conv_identity_kernels_give_silu(ksize):
    z = np.random.default_rng(ksize).standard_normal((2, 9, 3))
    dw = np.zeros((3, 1, ksize))
    dw[:, 0, (ksize - 1) // 2] = 1.0  # per-feature centred delta
    out = da.separable_conv(z, dw, np.eye(3)[:, :, None], segment=9)
    np.testing.assert_allclose(out.values, silu_values(z), rtol=1e-15, atol=1e-15)


@pytest.mark.parametrize("ksize", [3, 4])
def test_separable_conv_depthwise_matches_padded_sum(ksize):
    rng = np.random.default_rng(20 + ksize)
    z, dw, pw = separable_leaves(rng, (2, 6, 5), ksize)
    segment = 4  # three sequences, the middle one split across batch rows
    taps = dw.values[:, 0, :]
    deep = padded_depthwise(z.values, taps, segment)
    out = da.separable_conv(z, dw, pw, segment)
    np.testing.assert_allclose(out.values, silu_values(deep @ pw.values[:, :, 0].T),
                               rtol=1e-13, atol=1e-14)


@pytest.mark.parametrize("ksize", [3, 4])
def test_separable_conv_gradients(ksize):
    rng = np.random.default_rng(4 + ksize)
    z, dw, pw = separable_leaves(rng, (3, 4, 5), ksize)
    weights = rng.standard_normal((3, 4, 5))

    def forward():
        return da.separable_conv(z, dw, pw, segment=6)

    backward(da.reduce_sum(da.mul(forward(), weights)))

    def loss_fn():
        return float(np.sum(forward().values * weights))

    assert_grads_match(loss_fn, [z, dw, pw], tol=1e-6)


@pytest.mark.parametrize("z_shape, dw_shape, pw_shape, segment", [
    ((4, 8), (4, 2, 3), (4, 4, 1), 4),  # grouped kernels
    ((4, 8), (8, 1, 3), (4, 4, 1), 4),  # pointwise kernels as depthwise
    ((4, 8), (8, 1, 3), (8, 8), 4),  # pointwise weights without their kernel axis
    ((8,), (8, 1, 3), (8, 8, 1), 1),  # no row axis
    ((6, 8), (8, 1, 3), (8, 8, 1), 4),  # 6 rows are no whole number of sequences
    ((6, 8), (8, 1, 3), (8, 8, 1), 0),
], ids=["grouped_kernels", "pointwise_kernels_as_depthwise", "pointwise_without_kernel_axis",
        "no_row_axis", "rows_not_whole_sequences", "zero_length_sequences"])
def test_separable_conv_rejects_shapes_it_cannot_apply(z_shape, dw_shape, pw_shape, segment):
    with pytest.raises(DimensionError):
        da.separable_conv(np.zeros(z_shape), np.zeros(dw_shape), np.zeros(pw_shape), segment)


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
    conv = conv1d(DiffArray(v[None, :]), DiffArray(taps.reshape(1, 1, ksize)))
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


def test_backward_sum_gradient():
    x = tracked([1.0, 2.0, 3.0])
    backward(da.reduce_sum(x))
    np.testing.assert_array_equal(x.grad, [1.0, 1.0, 1.0])


def test_backward_quadratic_gradient():
    x = tracked([1.5, -2.0, 0.25])
    backward(da.mul(da.reduce_sum(da.mul(x, x)), 0.5))
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


def test_backward_twice_on_one_graph_doubles_leaf_gradients():
    x = tracked([1.0, 2.0])
    loss = da.reduce_sum(da.mul(da.mul(x, 2.0), 3.0))
    backward(loss)
    backward(loss)  # no interior gradient is left over from the first pass
    np.testing.assert_array_equal(x.grad, [12.0, 12.0])


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
        m = da.reduce_mean(s, axis=-1)
        return da.reduce_sum(silu(da.sub(s, m)))

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


@pytest.mark.parametrize("axis", [0, 1, -1])
def test_concat_rehomes_tracked_interior_parts_into_its_output(axis):
    rng = np.random.default_rng(21)
    shapes = []
    for n in (2, 3):
        shape = [2, 3, 4]
        shape[axis] = n
        shapes.append(tuple(shape))
    leaves = [tracked(rng.standard_normal(shape)) for shape in shapes]
    parts = [da.mul(leaf, 2.0) for leaf in leaves]
    before = [p.values.copy() for p in parts]
    joined = da.concat(parts, axis=axis)
    for p, want in zip(parts, before):
        assert np.shares_memory(p.values, joined.values)
        assert np.array_equal(p.values, want)
    weights = rng.standard_normal(joined.shape)
    backward(da.reduce_sum(da.mul(joined, weights)))
    split = np.split(weights, [shapes[0][axis]], axis=axis)
    for leaf, w in zip(leaves, split):
        assert np.array_equal(leaf.grad, 2.0 * w)


def test_concat_leaves_leaf_and_untracked_parts_their_arrays():
    leaf = tracked(np.ones((2, 3)))
    untracked = da.mul(DiffArray(np.ones((2, 2))), 2.0)
    interior = da.mul(leaf, 3.0)
    arrays = (leaf.values, untracked.values)
    joined = da.concat([leaf, untracked, interior], axis=-1)
    assert leaf.values is arrays[0] and untracked.values is arrays[1]
    assert np.shares_memory(interior.values, joined.values)


def test_concat_of_tracked_parts_holds_their_data_once():
    rng = np.random.default_rng(22)

    def build():
        return [da.mul(tracked(rng.standard_normal((4, 80, 64))), 2.0) for _ in range(2)]

    held = traced_growth(build, lambda parts: da.concat(parts, axis=-2))
    out_bytes = 4 * 160 * 64 * 8
    assert held < out_bytes // 2, (held, out_bytes)


def test_leaf_gradients_are_owned_and_clipped_once():
    rng = np.random.default_rng(13)
    p, p1, p2 = (tracked(rng.standard_normal((3, 4))) for _ in range(3))
    q = tracked(rng.standard_normal(12))
    weights = rng.standard_normal((3, 4))
    doubled = da.add(p, p)
    paired = da.add(p1, p2)
    total = da.add(da.add(doubled, paired), da.reshape(q, (3, 4)))
    backward(da.reduce_sum(da.mul(total, weights)))
    leaves = [p, p1, p2, q]
    expected = [2.0 * weights, weights, weights, weights.reshape(-1)]
    for leaf, want in zip(leaves, expected):
        assert leaf.grad.flags["WRITEABLE"] and leaf.grad.flags["OWNDATA"]
        np.testing.assert_allclose(leaf.grad, want, rtol=1e-15)
    for i, a in enumerate(leaves):
        for b in leaves[i + 1:]:
            assert not np.shares_memory(a.grad, b.grad)

    norm = da.clip_global_norm([leaf.grad for leaf in leaves], max_norm=1.0)
    factor = 1.0 / norm
    for leaf, want in zip(leaves, expected):
        np.testing.assert_allclose(leaf.grad, want * factor, rtol=1e-14)


def test_backward_keeps_gradients_on_leaves_only():
    rng = np.random.default_rng(21)
    x_values, w_values = rng.standard_normal((4, 3)), rng.standard_normal((3, 2))
    x, w, b = tracked(x_values), tracked(w_values), tracked(rng.standard_normal(2))
    product = da.matmul(x, w)
    shifted = da.add(product, b)
    squared = da.mul(shifted, shifted)
    loss = da.reduce_sum(squared)
    backward(loss)
    for node in (product, shifted, squared, loss):
        assert node.grad is None
    dy = 2.0 * (x_values @ w_values + b.values)
    want = {"x": dy @ w_values.T, "w": x_values.T @ dy, "b": dy.sum(axis=0)}
    for name, leaf in (("x", x), ("w", w), ("b", b)):
        assert leaf.grad.flags["WRITEABLE"] and leaf.grad.flags["OWNDATA"]
        np.testing.assert_allclose(leaf.grad, want[name], rtol=1e-13)


@pytest.mark.parametrize("x_shape, b_shape", [((4, 3), (2,)), ((2, 5, 3), (2,)),
                                              ((2, 5, 3), (1, 2)), ((2, 5, 3), (5, 2))])
def test_affine_equals_matmul_then_add_bit_for_bit(x_shape, b_shape):
    rng = np.random.default_rng(22)
    values = [rng.standard_normal(x_shape), rng.standard_normal((3, 2)),
              rng.standard_normal(b_shape)]
    weights = rng.standard_normal(x_shape[:-1] + (2,))
    results = []
    for op in (da.matmul, lambda x, w, b: da.add(da.matmul(x, w), b)):
        leaves = [tracked(v.copy()) for v in values]
        out = op(*leaves)
        backward(da.reduce_sum(da.mul(out, weights)))
        results.append([out.values] + [leaf.grad for leaf in leaves])
    for fused, reference in zip(*results):
        assert np.array_equal(fused, reference)


@pytest.mark.parametrize("x_shape, w_shape, b_shape", [
    ((4, 3), (3, 2), (4, 1, 2)),  # the bias would widen the product
    ((4, 3), (3, 2), (3,)),
    ((4, 3), (4, 2), (2,)),
    ((3,), (3, 2), (2,)),
    ((4, 3), (2, 3, 2), (2,)),
])
def test_affine_rejects_shapes_it_cannot_apply(x_shape, w_shape, b_shape):
    with pytest.raises(DimensionError):
        da.matmul(np.zeros(x_shape), np.zeros(w_shape), np.zeros(b_shape))


def test_graph_determinism():
    rng = np.random.default_rng(9)
    x_values = rng.standard_normal((4, 6))
    w_values = rng.standard_normal((6, 2))

    def run():
        x = tracked(x_values.copy())
        w = tracked(w_values.copy())
        out = silu(da.matmul(x, w))
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


@pytest.mark.parametrize("grads, state, error, match", [
    ([np.ones(2)], AdamState(), ContractError, "2 params but 1 grads"),
    ([np.ones(2), np.ones(2)], AdamState(), DimensionError,
     r"grad shape \(2,\) != param shape \(3,\)"),
    ([np.ones(2), np.ones(3)], AdamState(first_moment=[np.zeros(2)], second_moment=[np.zeros(2)]),
     ContractError, "different parameter set"),
], ids=["grad_count", "grad_shape", "state_of_another_set"])
def test_adam_rejects_grads_or_state_that_do_not_match_the_params(grads, state, error, match):
    params = [tracked(np.ones(2)), tracked(np.ones(3))]
    with pytest.raises(error, match=match):
        adam_step(params, grads, state)
    assert all((p.values == 1.0).all() for p in params)


def test_adam_chunks_match_whole_array_update_bitwise():
    rng = np.random.default_rng(15)
    values = [
        rng.standard_normal(2 * da.ADAM_CHUNK + 5),            # three chunks, last short
        rng.standard_normal((7, 128)),
        rng.standard_normal(3),
        np.asfortranarray(rng.standard_normal((30, 20))),      # one whole-array chunk
        rng.standard_normal((30, 40))[:, ::2],                 # strided view, updated in place
    ]
    params = [tracked(v) for v in values]
    state = AdamState(learning_rate=3e-3)
    want = [v.copy() for v in values]
    m = [np.zeros_like(v) for v in values]
    v2 = [np.zeros_like(v) for v in values]
    for t in range(1, 6):
        grads = [rng.standard_normal(v.shape) * 10.0 ** rng.integers(-8, 2) for v in values]
        adam_step(params, grads, state)
        b1, b2 = state.beta1, state.beta2
        for i, g in enumerate(grads):
            m[i] = b1 * m[i] + (1.0 - b1) * g
            v2[i] = b2 * v2[i] + (1.0 - b2) * g * g
            want[i] -= (state.learning_rate * (m[i] / (1.0 - b1**t))
                        / (np.sqrt(v2[i] / (1.0 - b2**t)) + state.epsilon))
    for p, w in zip(params, want):
        assert p.values.tobytes() == w.tobytes()


def test_clip_global_norm():
    g1 = np.array([3.0, 0.0])
    g2 = np.array([0.0, 4.0])
    norm = da.clip_global_norm([g1, g2], max_norm=1.0)
    assert abs(norm - 5.0) < 1e-12
    total = np.sqrt(np.sum(g1**2) + np.sum(g2**2))
    assert abs(total - 1.0) < 1e-12


def test_clip_global_norm_measures_finite_gradients_whose_squares_overflow():
    grads = [np.array([1e200, 1.0])]
    assert da.clip_global_norm(grads, 5.0) == 1e200
    assert grads[0].tolist() == [5.0, 5e-200]
    # a non-finite gradient gives a non-finite norm and is left as it is
    grads = [np.array([1e200, 1.0]), np.array([np.nan])]
    assert np.isnan(da.clip_global_norm(grads, 5.0))
    assert grads[0].tolist() == [1e200, 1.0] and np.isnan(grads[1][0])


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


def v2_container(meta: bytes, entries, tail: bytes = b"") -> bytes:
    """A version-2 file with a valid checksum: the metadata bytes ``meta``,
    a one-value entry per (name bytes, value) of ``entries``, then ``tail``."""
    raw = b"FTMX" + struct.pack("<II", 2, len(meta)) + meta + struct.pack("<I", len(entries))
    for name, value in entries:
        raw += struct.pack("<H", len(name)) + name + struct.pack("<BId", 1, 1, value)
    raw += tail
    return raw + struct.pack("<I", zlib.crc32(raw))


@pytest.mark.parametrize("meta,name", [
    (b"{bad json", b"w"),
    (b"[1, 2]", b"w"),
    (b"{}", b"\xff\xfe"),
])
def test_container_malformed_metadata_or_name_raises_data_error(tmp_path, meta, name):
    path = tmp_path / "bad.ftm"
    path.write_bytes(v2_container(meta, [(name, 0.0)]))
    match = {b"{bad json": "not valid JSON", b"[1, 2]": "not a JSON object"}.get(meta, "not UTF-8")
    with pytest.raises(DataError, match=match):
        da.load_arrays(path)


def test_container_rejects_an_entry_name_given_twice(tmp_path):
    path = tmp_path / "twice.ftm"
    path.write_bytes(v2_container(b"{}", [(b"w", 1.0), (b"w", 2.0)]))
    with pytest.raises(DataError, match="names entry 'w' twice"):
        da.load_arrays(path)


def test_container_rejects_bytes_after_the_last_entry(tmp_path):
    path = tmp_path / "tail.ftm"
    path.write_bytes(v2_container(b"{}", [(b"w", 1.5)]))
    arrays, meta = da.load_arrays(path)
    assert meta == {} and arrays["w"].tolist() == [1.5]
    path.write_bytes(v2_container(b"{}", [(b"w", 1.5)], tail=b"\0\0\0"))
    with pytest.raises(DataError, match="3 unexpected bytes after the last entry"):
        da.load_arrays(path)


def test_container_load_of_a_directory_raises_data_error(tmp_path):
    with pytest.raises(DataError, match="cannot read checkpoint"):
        da.load_arrays(tmp_path)


@pytest.mark.parametrize("target", ["missing/model.ftm", "taken"])
def test_container_save_to_a_missing_directory_or_onto_a_directory_raises_config_error(
        tmp_path, target):
    (tmp_path / "taken").mkdir()
    with pytest.raises(ConfigError, match="cannot write"):
        da.save_arrays(tmp_path / target, {"w": np.zeros(2)})
    assert [f.name for f in tmp_path.iterdir()] == ["taken"]  # no temp file left
    assert not any((tmp_path / "taken").iterdir())


def test_container_writes_v1_layout_plus_crc_and_refuses_v1(tmp_path):
    arrays = {"w": np.arange(6.0).reshape(2, 3) / 7.0, "s": np.array(-2.5)}
    meta = {"epoch": 3, "note": "unit"}

    def layout(version: int) -> bytes:
        blob = json.dumps(meta, sort_keys=True).encode("utf-8")
        raw = b"FTMX" + struct.pack("<II", version, len(blob)) + blob
        raw += struct.pack("<I", len(arrays))
        for name, a in arrays.items():
            raw += struct.pack("<H", len(name)) + name.encode("utf-8")
            raw += struct.pack(f"<B{a.ndim}I", a.ndim, *a.shape) + a.astype("<f8").tobytes()
        return raw

    old = tmp_path / "v1.ftm"
    old.write_bytes(layout(1))
    with pytest.raises(DataError, match="unsupported checkpoint version 1"):
        da.load_arrays(old)
    new = tmp_path / "v2.ftm"
    da.save_arrays(new, arrays, meta)
    body = layout(2)
    assert new.read_bytes() == body + struct.pack("<I", zlib.crc32(body))


def test_failed_save_keeps_previous_file_and_no_temp(tmp_path):
    good = {"w": np.arange(6.0).reshape(2, 3), "b": np.array([0.5, -1.5])}
    path = tmp_path / "model.ftm"
    da.save_arrays(path, good, {"epoch": 1})
    before = path.read_bytes()
    bad = {"w": np.ones((2, 3)), "name": np.array(["not a number"])}
    with pytest.raises(ValueError):
        da.save_arrays(path, bad, {"epoch": 2})
    assert path.read_bytes() == before
    assert [f.name for f in tmp_path.iterdir()] == ["model.ftm"]
    loaded, meta = da.load_arrays(path)
    assert meta == {"epoch": 1}
    for name in good:
        assert loaded[name].tobytes() == good[name].tobytes()


@pytest.mark.parametrize("max_norm", [-1.0, 0.0, float("nan")])
def test_clip_global_norm_rejects_non_positive_max_norm(max_norm):
    grads = [np.array([3.0, 4.0])]
    with pytest.raises(ContractError):
        da.clip_global_norm(grads, max_norm)
    np.testing.assert_array_equal(grads[0], [3.0, 4.0])
