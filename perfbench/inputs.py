"""Seeded benchmark inputs: ETTh1- and Electricity-shaped CSV series.

Channel levels and amplitudes are fixed tables, so every seed has the same
statistics; the seed draws the phases and the noise.
That keeps quality metrics (MSE) comparable across seeds while the values
themselves differ.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

ETTH1_CHANNELS = ("HUFL", "HULL", "MUFL", "MULL", "LUFL", "LULL", "OT")
_DAY, _WEEK = 24, 168


def _series(rng: np.random.Generator, levels, daily, weekly, slopes, rows: int) -> np.ndarray:
    """[N, rows] hourly series: level + trend + daily/weekly cycles + AR(1) noise.

    The seed draws the phases and the noise; the trend direction comes with
    the channel table, because a random sign moved test MSE between seeds
    by more than the timing noise.
    """
    n = len(levels)
    t = np.arange(rows, dtype=np.float64)
    phase_d = rng.uniform(0.0, 2 * np.pi, size=(n, 1))
    phase_w = rng.uniform(0.0, 2 * np.pi, size=(n, 1))
    trend = slopes[:, None] * levels[:, None] * t / rows
    shocks = rng.standard_normal((n, rows)) * 0.3 * daily[:, None]
    noise = np.empty_like(shocks)
    noise[:, 0] = shocks[:, 0]
    for i in range(1, rows):
        noise[:, i] = 0.7 * noise[:, i - 1] + shocks[:, i]
    return (
        levels[:, None]
        + trend
        + daily[:, None] * np.sin(2 * np.pi * t / _DAY + phase_d)
        + weekly[:, None] * np.sin(2 * np.pi * t / _WEEK + phase_w)
        + noise
    )


def etth1_values(seed: int, rows: int, channels: int = 7) -> np.ndarray:
    """ETTh1-shaped values: a few load channels plus an oil-temperature channel."""
    table = np.random.default_rng(7)  # fixed channel statistics
    levels = table.uniform(2.0, 15.0, size=channels)
    daily = table.uniform(0.8, 2.5, size=channels)
    weekly = table.uniform(0.3, 1.2, size=channels)
    slopes = table.uniform(-0.2, 0.2, size=channels)
    return _series(np.random.default_rng(seed), levels, daily, weekly, slopes, rows)


def wide_values(seed: int, rows: int, channels: int = 321) -> np.ndarray:
    """Electricity-shaped values: many consumer load channels."""
    table = np.random.default_rng(321)
    levels = table.uniform(50.0, 500.0, size=channels)
    daily = levels * table.uniform(0.1, 0.4, size=channels)
    weekly = levels * table.uniform(0.05, 0.15, size=channels)
    slopes = table.uniform(-0.2, 0.2, size=channels)
    return _series(np.random.default_rng(seed), levels, daily, weekly, slopes, rows)


def write_csv(path: Path, values: np.ndarray) -> None:
    """Write [N, T] values as a ``date`` + channels CSV with hourly stamps."""
    n, rows = values.shape
    names = ETTH1_CHANNELS if n == len(ETTH1_CHANNELS) else [f"c{i}" for i in range(n)]
    stamps = np.datetime64("2016-07-01T00:00") + np.arange(rows).astype("timedelta64[h]")
    lines = ["date," + ",".join(names)]
    for stamp, row in zip(stamps, values.T):
        lines.append(str(stamp).replace("T", " ") + ":00," + ",".join(f"{v:.4f}" for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
