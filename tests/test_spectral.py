"""Transform pair: exactness, linearity, energy, oracle equivalence."""

import numpy as np
import pytest

from ftmixer import diffarray as da
from ftmixer import spectral
from ftmixer.errors import ContractError, NumericError
from ftmixer.spectral import dct, dft_symmetric_extension_oracle, idct

from helpers import assert_grads_match, tracked


def fit_constant(oracle: np.ndarray, coeffs: np.ndarray) -> float:
    """Least-squares scalar c minimizing ||oracle - c * coeffs||."""
    return float(np.dot(oracle, coeffs) / np.dot(coeffs, coeffs))


def test_constant_input_excites_only_dc():
    c = dct([1.0, 1.0, 1.0, 1.0])
    assert abs(c[0] - 4.0) < 1e-12
    assert np.all(np.abs(c[1:]) < 1e-12)


def test_impulse_samples_cosine_kernel():
    c = dct([1.0, 0.0, 0.0, 0.0])
    expected = np.cos([0.0, np.pi / 8, np.pi / 4, 3 * np.pi / 8])
    np.testing.assert_allclose(c, expected, atol=1e-14)


def test_dc_only_inverse_is_constant():
    np.testing.assert_allclose(idct([4.0, 0.0, 0.0, 0.0]), [1.0, 1.0, 1.0, 1.0], atol=1e-12)


def test_round_trip_small():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    np.testing.assert_allclose(idct(dct(x)), x, atol=1e-12)


def test_round_trip_sweep():
    rng = np.random.default_rng(11)
    worst = 0.0
    for length in list(range(1, 40)) + [64, 128, 256, 512]:
        for _ in range(3):
            x = rng.standard_normal(length)
            err = float(np.max(np.abs(idct(dct(x)) - x)))
            worst = max(worst, err)
    assert worst < 1e-9


def test_rejects_empty_and_non_finite():
    with pytest.raises(ContractError):
        dct([])
    with pytest.raises(NumericError):
        dct([1.0, np.nan])
    with pytest.raises(NumericError):
        idct([np.inf, 0.0])


def test_linearity():
    rng = np.random.default_rng(12)
    x = rng.standard_normal(33)
    y = rng.standard_normal(33)
    alpha, beta = 0.7, -2.3
    lhs = dct(alpha * x + beta * y)
    rhs = alpha * dct(x) + beta * dct(y)
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_energy_identity():
    # ||x||^2 == (2/L) * (c_0^2 / 2 + sum_{k>=1} c_k^2) under this scaling
    rng = np.random.default_rng(13)
    for length in (1, 2, 7, 64, 333):
        x = rng.standard_normal(length)
        c = dct(x)
        spectral_energy = (2.0 / length) * (0.5 * c[0] ** 2 + np.sum(c[1:] ** 2))
        time_energy = float(np.sum(x * x))
        assert abs(spectral_energy - time_energy) < 1e-9 * max(time_energy, 1.0)


def test_transform_applies_along_last_axis():
    rng = np.random.default_rng(14)
    x = rng.standard_normal((3, 5, 8))
    stacked = dct(x)
    for i in range(3):
        for j in range(5):
            np.testing.assert_allclose(stacked[i, j], dct(x[i, j]), atol=1e-12)


def test_diff_gradients_are_transpose_maps():
    rng = np.random.default_rng(15)
    x = tracked(rng.standard_normal(12))
    r = rng.standard_normal(12)
    da.backward(da.reduce_sum(da.mul(dct(x), r)))
    forward_basis = spectral.basis_pair(12)[0]
    np.testing.assert_allclose(x.grad, forward_basis @ r, atol=1e-12)

    def loss_fn():
        return float(np.sum(dct(x.values) * r))

    assert_grads_match(loss_fn, [x], tol=1e-6)

    y = tracked(rng.standard_normal(12))
    da.backward(da.reduce_sum(da.mul(idct(y), r)))
    inverse_basis = spectral.basis_pair(12)[1]
    np.testing.assert_allclose(y.grad, inverse_basis @ r, atol=1e-12)

    def loss_fn_inv():
        return float(np.sum(idct(y.values) * r))

    assert_grads_match(loss_fn_inv, [y], tol=1e-6)


# ---------------------------------------------------------------------------
# mirror-extension DFT oracle


def test_oracle_constant_input_single_bin():
    out = dft_symmetric_extension_oracle([2.5] * 6)
    assert abs(out[0]) > 1.0
    assert np.all(np.abs(out[1:]) < 1e-9)


def test_oracle_impulse_proportional_to_transform():
    x = np.array([1.0, 0.0, 0.0, 0.0])
    oracle = dft_symmetric_extension_oracle(x)
    coeffs = dct(x)
    c = fit_constant(oracle, coeffs)
    assert np.max(np.abs(oracle - c * coeffs)) < 1e-9 * np.max(np.abs(oracle))


def test_oracle_equivalence_all_lengths():
    rng = np.random.default_rng(19)
    for length in range(1, 65):
        x = rng.standard_normal(length)
        oracle = dft_symmetric_extension_oracle(x)
        coeffs = dct(x)
        c = fit_constant(oracle, coeffs)
        scale = float(np.linalg.norm(oracle)) or 1.0
        assert np.linalg.norm(oracle - c * coeffs) < 1e-9 * scale, f"L={length}"


def test_oracle_constant_identical_across_vectors():
    rng = np.random.default_rng(20)
    constants = []
    for _ in range(100):
        x = rng.standard_normal(24)
        constants.append(fit_constant(dft_symmetric_extension_oracle(x), dct(x)))
    constants = np.asarray(constants)
    assert np.max(np.abs(constants - constants[0])) < 1e-9 * abs(constants[0])
