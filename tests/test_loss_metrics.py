"""Dual-domain loss."""

import numpy as np
import pytest

from ftmixer import diffarray as da
from ftmixer.diffarray import DiffArray, backward
from ftmixer.errors import ContractError
from ftmixer.loss_metrics import dual_domain_loss
from ftmixer.spectral import basis_pair

from helpers import assert_grads_match, tracked


def test_perfect_prediction_is_zero():
    y = DiffArray(np.random.default_rng(40).standard_normal((3, 8)))
    loss = dual_domain_loss(y, DiffArray(y.values.copy()))
    assert loss.time_loss == 0.0
    assert loss.freq_loss == 0.0
    assert loss.total == 0.0


def test_single_element_closed_form():
    # length-1 transform is the identity, so the spectral branch sees the
    # same residual as the time branch
    loss = dual_domain_loss(DiffArray([[2.0]]), DiffArray([[0.0]]))
    assert loss.time_loss == pytest.approx(4.0)
    assert loss.freq_loss == pytest.approx(2.0)
    assert loss.total == pytest.approx(6.0)


def test_total_is_exactly_the_sum():
    rng = np.random.default_rng(41)
    loss = dual_domain_loss(
        DiffArray(rng.standard_normal((2, 5))), DiffArray(rng.standard_normal((2, 5)))
    )
    assert loss.total == loss.time_loss + loss.freq_loss
    assert loss.time_loss >= 0.0 and loss.freq_loss >= 0.0


def test_matches_independent_recomputation():
    rng = np.random.default_rng(42)
    y = rng.standard_normal((3, 8))
    y_hat = rng.standard_normal((3, 8))
    loss = dual_domain_loss(DiffArray(y), DiffArray(y_hat))
    basis = np.cos(np.pi * np.outer(np.arange(8) + 0.5, np.arange(8)) / 8.0)
    expected_time = np.mean((y_hat - y) ** 2)
    expected_freq = np.mean(np.abs(y_hat @ basis - y @ basis))
    assert abs(loss.time_loss - expected_time) < 1e-12
    assert abs(loss.freq_loss - expected_freq) < 1e-12
    assert abs(loss.total - (expected_time + expected_freq)) < 1e-12


def test_shape_mismatch_rejected():
    with pytest.raises(ContractError):
        dual_domain_loss(DiffArray(np.zeros((2, 3))), DiffArray(np.zeros((2, 4))))


def test_loss_gradients_away_from_kinks():
    rng = np.random.default_rng(43)
    y = rng.standard_normal((2, 6))
    y_hat = tracked(rng.standard_normal((2, 6)))

    def forward():
        return dual_domain_loss(DiffArray(y), y_hat)

    loss = forward()
    # no spectral residual is at the absolute-value kink for random data
    spec_residual = (y_hat.values - y) @ basis_pair(6)[0]
    assert np.min(np.abs(spec_residual)) > 1e-6
    backward(loss.total_node)

    def loss_fn():
        return forward().total

    assert_grads_match(loss_fn, [y_hat], tol=1e-4)


def test_gradients_flow_through_both_branches():
    rng = np.random.default_rng(44)
    y = rng.standard_normal((2, 6))
    y_hat = tracked(rng.standard_normal((2, 6)))
    loss = dual_domain_loss(DiffArray(y), y_hat)
    backward(loss.time_node)
    time_grad = y_hat.grad.copy()
    da.zero_grads([y_hat])
    loss = dual_domain_loss(DiffArray(y), y_hat)
    backward(loss.freq_node)
    freq_grad = y_hat.grad.copy()
    assert np.any(time_grad != 0.0)
    assert np.any(freq_grad != 0.0)
    assert not np.allclose(time_grad, freq_grad)
