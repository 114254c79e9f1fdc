"""Training loss (time-domain MSE + spectral MAE) and evaluation metrics.

The training objective sums a squared error in the time domain with an
absolute error between the cosine-transform coefficients of target and
prediction, taken per channel along the horizon axis.  The absolute
branch uses subgradient 0 at exact zeros.
"""

from __future__ import annotations

import numpy as np

from . import diffarray as da
from . import spectral
from .diffarray import DiffArray
from .errors import ContractError


class LossBreakdown:
    """Differentiable loss components; ``total`` is exactly their sum."""

    def __init__(self, time_node: DiffArray, freq_node: DiffArray):
        self.time_node = time_node
        self.freq_node = freq_node
        self.total_node = da.add(time_node, freq_node)

    @property
    def time_loss(self) -> float:
        return self.time_node.item()

    @property
    def freq_loss(self) -> float:
        return self.freq_node.item()

    @property
    def total(self) -> float:
        return self.total_node.item()


def dual_domain_loss(target, prediction) -> LossBreakdown:
    """Mean squared error plus spectral mean absolute error.

    Both inputs have shape [..., N, tau]; the spectral branch transforms
    each channel along the horizon axis before the absolute residual, and
    both components average over every element.
    """
    target = da._lift(target)
    prediction = da._lift(prediction)
    if target.shape != prediction.shape:
        raise ContractError(
            f"dual_domain_loss: target {target.shape} != prediction {prediction.shape}"
        )
    residual = da.sub(prediction, target)
    time_node = da.reduce_mean(da.mul(residual, residual))
    freq_node = da.reduce_mean(da.absolute(spectral.dct(residual)))
    return LossBreakdown(time_node, freq_node)


def _check_pair(y, y_hat) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(y, dtype=np.float64)
    b = np.asarray(y_hat, dtype=np.float64)
    if a.shape != b.shape:
        raise ContractError(f"metric: shapes differ, {a.shape} vs {b.shape}")
    return a, b


def mse(y, y_hat) -> float:
    a, b = _check_pair(y, y_hat)
    return float(np.mean((a - b) ** 2))


def mae(y, y_hat) -> float:
    a, b = _check_pair(y, y_hat)
    return float(np.mean(np.abs(a - b)))
