"""CSV ingestion, chronological splitting, standardization, windowing.

Expected file layout: UTF-8 comma-separated values, header row whose
first cell is ``date``, remaining columns one numeric channel each.
Values are stored channel-major (N x T).  Splits are chronological;
standardization statistics come from the training rows only.

:func:`load_csv` has two paths to one result.  A plain file (no quote
character, one comma per channel on every line, finite numbers) is
parsed in one vectorized ``np.loadtxt`` pass.  Every other file goes
through the row reader (``csv`` plus ``float()`` per cell), which is the
reference: it takes quoted cells and every number ``float()`` takes, and
raises the :class:`ParseError` that names the first bad line.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, ContractError, DataError, ParseError

log = logging.getLogger(__name__)

SPLITS = ("train", "val", "test")
_STD_FLOOR = 1e-8


@dataclass(frozen=True)
class NormStats:
    """Per-channel mean/std taken over the training split."""

    mean: np.ndarray  # [N]
    std: np.ndarray   # [N]


@dataclass(frozen=True)
class SeriesDataset:
    name: str
    values: np.ndarray          # [N, T]
    timestamps: tuple[str, ...]
    channel_names: tuple[str, ...]
    train_end: int | None = None
    val_end: int | None = None
    norm_stats: NormStats | None = None

    @property
    def channels(self) -> int:
        return self.values.shape[0]

    @property
    def length(self) -> int:
        return self.values.shape[1]

    def split_bounds(self, split: str) -> tuple[int, int]:
        if self.train_end is None or self.val_end is None:
            raise ContractError("dataset has no split; call chronological_split first")
        if split == "train":
            return 0, self.train_end
        if split == "val":
            return self.train_end, self.val_end
        if split == "test":
            return self.val_end, self.length
        raise ConfigError(f"unknown split {split!r}; expected one of {SPLITS}")


def load_csv(path, name: str | None = None) -> SeriesDataset:
    """Read a timestamp + channels CSV into a channel-major dataset.

    Rejects missing files, text that is not UTF-8, empty or duplicate
    channel names, ragged rows, non-numeric cells, and non-finite values,
    reporting the offending line number.  A leading UTF-8 byte order mark
    is skipped.  Plain files take :func:`_parse_plain`; every other file
    is read again, as a stream, by the row reader :func:`_parse_rows`.
    """
    try:
        with open(path, "rb") as f:
            raw = f.read()
    except OSError as exc:
        raise DataError(f"cannot open dataset {path}: {exc}") from None
    try:
        text = raw.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"not UTF-8 text: {exc.reason}", line=line) from None
    del raw
    parsed = _parse_plain(text)
    if parsed is None:
        del text  # the row reader streams the file instead
        try:
            with open(path, encoding="utf-8-sig", newline="") as f:
                parsed = _parse_rows(f)
        except OSError as exc:  # the file changed since the first read
            raise DataError(f"cannot open dataset {path}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise ParseError(f"not UTF-8 text: {exc.reason}") from None
    channel_names, timestamps, values = parsed
    if name is None:
        name = str(path).rsplit("/", 1)[-1].rsplit(".", 1)[0]
    return SeriesDataset(
        name=name,
        values=values,
        timestamps=tuple(timestamps),
        channel_names=channel_names,
    )


def _channel_names(header: list[str]) -> tuple[str, ...]:
    """Check the header row's cells and return the channel names."""
    if len(header) < 2:
        raise ParseError("need a timestamp column plus at least one channel", line=1)
    if header[0].strip().lower() != "date":
        raise ParseError(f"first header cell must be 'date', got {header[0]!r}", line=1)
    channel_names = tuple(h.strip() for h in header[1:])
    seen: set[str] = set()
    for column, channel in enumerate(channel_names, start=2):
        if not channel:
            raise ParseError(f"empty channel name in column {column}", line=1)
        if channel in seen:
            raise ParseError(f"duplicate channel name {channel!r}", line=1)
        seen.add(channel)
    return channel_names


def _parse_plain(text: str):
    """Names, timestamps and [N, T] values of a plain file, or None.

    One vectorized pass: ``np.loadtxt`` parses the channel columns of
    every non-blank line and each line's first field is its timestamp.
    Its result stands only if the text has no quote character, no
    U+001C-U+001F (numpy skips those around a number, ``float()`` does
    not) and no line over ``csv.field_size_limit()``, every line has one
    comma per channel, and every value is finite.  Both parsers end in
    ``PyOS_string_to_double``, so the values are bitwise what
    :func:`_parse_rows` gives.  Without quotes the header cells are the
    same on both paths, so a bad header raises here the error the row
    reader would raise.  Anything else returns None, and the row reader
    decides.
    """
    if not text or any(c in text for c in '"\x1c\x1d\x1e\x1f'):
        return None
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    if max(map(len, lines)) > csv.field_size_limit():
        return None
    channel_names = _channel_names(lines[0].split(","))
    rows = [line for line in lines[1:] if line]
    if not rows:
        return None
    n = len(channel_names)
    try:
        values = np.loadtxt(
            rows, dtype=np.float64, delimiter=",", comments=None, quotechar=None,
            usecols=range(1, n + 1), ndmin=2,
        )
    except ValueError:
        return None
    # loadtxt found column n on every row, so each row has at least n
    # commas; with the header's n, the total says none has more.
    if (len(values) != len(rows) or text.count(",") != n * (len(rows) + 1)
            or not np.isfinite(values).all()):
        return None
    return channel_names, [row[: row.index(",")] for row in rows], values.T


def _parse_rows(lines):
    """Names, timestamps and [N, T] values, read row by row from ``lines``,
    the file opened with ``newline=""``.

    The reference reader: ``csv.reader`` splits each row (quoted cells,
    any line end) and ``float()`` parses each cell, so it also takes
    digit underscores and non-ASCII digits.  Raises the
    :class:`ParseError` of the first bad row, naming its last physical line.
    """
    reader = csv.reader(lines)
    rows: list[list[float]] = []
    timestamps: list[str] = []
    try:
        header = next(reader, None)
        if header is None:
            raise ParseError("empty file", line=1)
        channel_names = _channel_names(header)
        for row in reader:
            if not row:
                continue
            line = reader.line_num
            if len(row) != len(header):
                raise ParseError(f"expected {len(header)} cells, got {len(row)}", line=line)
            try:
                parsed = [float(cell) for cell in row[1:]]
            except ValueError:
                raise ParseError(f"non-numeric cell in {row[1:]!r}", line=line) from None
            if not all(np.isfinite(parsed)):
                raise ParseError("non-finite value", line=line)
            timestamps.append(row[0])
            rows.append(parsed)
    except csv.Error as exc:  # e.g. a cell over csv.field_size_limit()
        raise ParseError(str(exc), line=reader.line_num) from None
    if not rows:
        raise ParseError("no data rows", line=2)
    return channel_names, timestamps, np.asarray(rows, dtype=np.float64).T


def from_values(values: np.ndarray, name: str = "series") -> SeriesDataset:
    """Wrap an in-memory [N, T] array (synthetic benchmarks, tests)."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise ContractError(f"from_values: expected [N, T], got {values.shape}")
    if not np.all(np.isfinite(values)):
        raise ContractError("from_values: non-finite values")
    return SeriesDataset(
        name=name,
        values=values,
        timestamps=tuple(str(i) for i in range(values.shape[1])),
        channel_names=tuple(f"ch{i}" for i in range(values.shape[0])),
    )


def chronological_split(
    ds: SeriesDataset,
    ratios: tuple[float, float, float],
    min_segment: int | None = None,
) -> SeriesDataset:
    """Attach floor-based split boundaries and train-split statistics.

    The remainder after flooring train/val goes to test.  When
    ``min_segment`` is given (normally L + tau), every segment must be at
    least that long.
    """
    if (len(ratios) != 3 or not np.all(np.isfinite(ratios))
            or abs(sum(ratios) - 1.0) > 1e-9 or min(ratios) < 0):
        raise ConfigError(f"ratios must be three finite values >= 0 summing to 1, got {ratios}")
    total = ds.length
    train_end = int(total * ratios[0])
    val_end = train_end + int(total * ratios[1])
    if not (0 < train_end < val_end < total):
        raise ConfigError(
            f"degenerate split: T={total}, ratios={ratios} give boundaries "
            f"({train_end}, {val_end})"
        )
    if min_segment is not None:
        for split, lo, hi in (
            ("train", 0, train_end),
            ("val", train_end, val_end),
            ("test", val_end, total),
        ):
            if hi - lo < min_segment:
                raise ConfigError(
                    f"{split} segment has {hi - lo} steps, need >= {min_segment}"
                )
    train = ds.values[:, :train_end]
    mean = train.mean(axis=1)
    std = train.std(axis=1)
    flat = std <= 0.0
    if np.any(flat):
        names = [ds.channel_names[i] for i in np.flatnonzero(flat)]
        log.warning("constant training channels %s; std clamped to %g", names, _STD_FLOOR)
        std = np.where(flat, _STD_FLOOR, std)
    return replace(
        ds, train_end=train_end, val_end=val_end, norm_stats=NormStats(mean=mean, std=std)
    )


def standardize(ds: SeriesDataset) -> SeriesDataset:
    """Standardize every timestep with the train-split statistics."""
    if ds.norm_stats is None:
        raise ContractError("standardize: dataset has no training statistics")
    stats = ds.norm_stats
    values = (ds.values - stats.mean[:, None]) / stats.std[:, None]
    return replace(ds, values=values)


def destandardize(values: np.ndarray, stats: NormStats) -> np.ndarray:
    """Exact inverse of :func:`standardize` for [..., N, t] arrays."""
    return values * stats.std[:, None] + stats.mean[:, None]


def window_samples(ds: SeriesDataset, split: str, lookback: int, horizon: int) -> np.ndarray:
    """Start indices of all (input, target) windows fully inside a split."""
    lo, hi = ds.split_bounds(split)
    span = lookback + horizon
    if hi - lo < span:
        raise ConfigError(
            f"{split} split has {hi - lo} steps, need >= {span} for "
            f"lookback {lookback} + horizon {horizon}"
        )
    return np.arange(lo, hi - span + 1)


@dataclass(frozen=True)
class ForecastBatch:
    inputs: np.ndarray   # [B, N, L]
    targets: np.ndarray  # [B, N, tau]
    starts: np.ndarray   # [B]


def gather_batch(
    ds: SeriesDataset, starts: np.ndarray, lookback: int, horizon: int
) -> ForecastBatch:
    """Materialize windows at the given start indices; targets follow inputs."""
    starts = np.asarray(starts, dtype=np.int64)
    offsets = np.arange(lookback + horizon)
    windows = ds.values[:, starts[:, None] + offsets[None, :]]  # [N, B, L+tau]
    windows = np.moveaxis(windows, 0, 1)                        # [B, N, L+tau]
    return ForecastBatch(
        inputs=np.ascontiguousarray(windows[:, :, :lookback]),
        targets=np.ascontiguousarray(windows[:, :, lookback:]),
        starts=starts,
    )


def iter_batches(
    ds: SeriesDataset,
    starts: np.ndarray,
    lookback: int,
    horizon: int,
    batch_size: int,
):
    """Yield consecutive batches covering every start index (tail included)."""
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    for i in range(0, len(starts), batch_size):
        yield gather_batch(ds, starts[i : i + batch_size], lookback, horizon)


def prepare(
    ds: SeriesDataset,
    ratios: tuple[float, float, float],
    lookback: int,
    horizon: int,
) -> SeriesDataset:
    """Split, validate segment lengths, and standardize in one step."""
    return standardize(chronological_split(ds, ratios, min_segment=lookback + horizon))
