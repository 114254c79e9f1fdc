"""CSV ingestion, chronological splitting, standardization, windowing.

Expected file layout: UTF-8 comma-separated values, header row whose
first cell is ``date``, remaining columns one numeric channel each.
Values are stored channel-major (N x T).  Splits are chronological;
standardization statistics come from the training rows only.

:func:`load_csv` reads the file once, as one stream: ``csv`` reads the
header, and the lines after it come in blocks of :data:`CSV_BLOCK_CHARS`
characters.  A plain block (no quote character, one comma per channel on
every line, finite numbers) is parsed by one ``np.loadtxt`` call.  Any
other block, with the rest of a quoted record that runs on past it, goes
through the row reader (``csv`` plus ``float()`` per cell), and the
block after it is tried plain again.  The row reader is the reference:
it takes quoted cells and every number ``float()`` takes, and raises the
:class:`ParseError` that names the first bad line.  Text is decoded as
it is read, so in a file over one block a parse error in an earlier
block is raised before a byte that is not UTF-8 in a later one.
"""

from __future__ import annotations

import csv
import itertools
import logging
from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, ContractError, DataError, ParseError

log = logging.getLogger(__name__)

SPLITS = ("train", "val", "test")
_STD_FLOOR = 1e-8
# Characters per block of lines that load_csv hands to one np.loadtxt call.
# An ETTh1-sized file (1.26 MB) stays one block, so small files pay for no
# concatenation; a 75.6 MB Electricity-sized file is read in ~19 blocks, so
# its text is never held whole (peak 252 -> 178 MB beside 67.5 MB of values).
CSV_BLOCK_CHARS = 4 * 1024 * 1024


@dataclass(frozen=True)
class NormStats:
    """Per-channel mean/std taken over the training split."""

    mean: np.ndarray  # [N]
    std: np.ndarray   # [N]


@dataclass(frozen=True)
class SeriesDataset:
    name: str
    values: np.ndarray          # [N, T]
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
    """Read a timestamp + channels CSV into a channel-major dataset; the
    timestamps are not kept.

    Rejects missing files, text that is not UTF-8, empty or duplicate
    channel names, ragged rows, non-numeric cells, and non-finite values,
    reporting the offending line number.  A leading UTF-8 byte order mark
    is skipped.  Reads the file as the module docstring says.
    """
    try:
        with open(path, encoding="utf-8-sig", newline="") as f:
            reader = csv.reader(f)
            try:
                header = next(reader, None)
                if header is None:
                    raise ParseError("empty file", line=1)
                channel_names = _channel_names(header)
                offset = reader.line_num  # physical lines read so far
                parts: list[np.ndarray] = []  # [rows, N] per block
                while block := f.readlines(CSV_BLOCK_CHARS):
                    part = _parse_plain(block, len(channel_names))
                    read = len(block)
                    if part is None:  # a quoted record may run on past the block
                        part, read = _parse_rows(itertools.chain(block, f),
                                                 len(channel_names), offset, read)
                    parts.append(part)
                    offset += read
            except csv.Error as exc:  # the header's, e.g. a cell over csv.field_size_limit()
                raise ParseError(str(exc), line=reader.line_num) from None
            except UnicodeDecodeError as exc:
                f.buffer.seek(0)  # read again, as bytes, to name the first bad byte's line
                raw, line = f.buffer.read(), None
                try:
                    raw.decode("utf-8-sig")
                except UnicodeDecodeError as first:  # else the file changed in between
                    exc, line = first, raw.count(b"\n", 0, first.start) + 1
                raise ParseError(f"not UTF-8 text: {exc.reason}", line=line) from None
    except OSError as exc:
        raise DataError(f"cannot open dataset {path}: {exc}") from None
    if not sum(map(len, parts)):
        raise ParseError("no data rows", line=2)
    values = parts[0] if len(parts) == 1 else np.concatenate(parts)
    if name is None:
        name = str(path).rsplit("/", 1)[-1].rsplit(".", 1)[0]
    return SeriesDataset(name=name, values=values.T, channel_names=channel_names)


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


def _parse_plain(block: list[str], n: int):
    """The [rows, n] values of a plain block of lines, or None.

    One vectorized pass: ``np.loadtxt`` parses the channel columns of
    every non-blank line.  Its result stands only if the block has no
    quote character, no U+001C-U+001F (numpy skips those around a number,
    ``float()`` does not) and no line over ``csv.field_size_limit()``,
    every non-blank line has n commas, and every value is finite.  Both
    parsers end in ``PyOS_string_to_double``, so the values are bitwise
    what :func:`_parse_rows` gives.  Anything else returns None, and the
    row reader decides.
    """
    # loadtxt skips blank lines; the lines keep their endings
    rows = len(block) - block.count("\n") - block.count("\r\n") - block.count("\r")
    text = "".join(block)
    if (not rows or any(c in text for c in '"\x1c\x1d\x1e\x1f')
            or max(map(len, block)) > csv.field_size_limit()):
        return None
    try:
        values = np.loadtxt(block, dtype=np.float64, delimiter=",", comments=None,
                            quotechar=None, usecols=range(1, n + 1), ndmin=2)
    except ValueError:
        return None
    # loadtxt found column n on every row, so each row has at least n
    # commas; the total says none has more.
    if len(values) != rows or text.count(",") != n * rows or not np.isfinite(values).all():
        return None
    return values


def _parse_rows(lines, n: int, offset: int, stop: int):
    """The [rows, n] values and the number of lines read, row by row from
    ``lines``: the file opened with ``newline=""``, from physical line
    ``offset + 1`` on, up to the first record that ends at or after its
    line ``stop``.

    The reference reader: ``csv.reader`` splits each row (quoted cells,
    any line end) and ``float()`` parses each cell, so it also takes
    digit underscores and non-ASCII digits.  Raises the
    :class:`ParseError` of the first bad row, naming its last physical line.
    """
    reader = csv.reader(lines)
    rows: list[list[float]] = []
    try:
        for row in reader:
            line = offset + reader.line_num
            if row:
                if len(row) != n + 1:
                    raise ParseError(f"expected {n + 1} cells, got {len(row)}", line=line)
                try:
                    parsed = [float(cell) for cell in row[1:]]
                except ValueError:
                    raise ParseError(f"non-numeric cell in {row[1:]!r}", line=line) from None
                if not all(np.isfinite(parsed)):
                    raise ParseError("non-finite value", line=line)
                rows.append(parsed)
            if reader.line_num >= stop:
                break
    except csv.Error as exc:  # e.g. a cell over csv.field_size_limit()
        raise ParseError(str(exc), line=offset + reader.line_num) from None
    return np.asarray(rows, dtype=np.float64).reshape(-1, n), reader.line_num


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
    """Windows of a batch.  From a run of consecutive starts, ``inputs``
    and ``targets`` are read-only views of the series, not contiguous."""

    inputs: np.ndarray   # [B, N, L]
    targets: np.ndarray  # [B, N, tau]


def gather_batch(
    ds: SeriesDataset, starts: np.ndarray, lookback: int, horizon: int
) -> ForecastBatch:
    """The windows at the given start indices; targets follow inputs.

    A run of consecutive starts (every :func:`iter_batches` batch of a
    sorted start list) gives read-only strided views of ``ds.values``,
    with no copy; any other start list gives fresh C-contiguous arrays.
    Raises :class:`ContractError` for a start whose window does not lie
    inside the series.
    """
    starts = np.asarray(starts, dtype=np.int64)
    span = lookback + horizon
    last = ds.length - span
    outside = (starts < 0) | (starts > last)
    if outside.any():
        raise ContractError(
            f"gather_batch: window start {starts[outside][0]} outside 0..{last} "
            f"({span}-step windows in a {ds.length}-step series)"
        )
    run = len(starts) > 0 and np.all(np.diff(starts) == 1)
    if run:
        windows = sliding_window_view(ds.values, span, axis=1)[:, starts[0] : starts[-1] + 1]
    else:
        windows = ds.values[:, starts[:, None] + np.arange(span)]
    windows = np.moveaxis(windows, 0, 1)  # [B, N, L+tau]
    inputs, targets = windows[:, :, :lookback], windows[:, :, lookback:]
    if not run:
        inputs, targets = np.ascontiguousarray(inputs), np.ascontiguousarray(targets)
    return ForecastBatch(inputs=inputs, targets=targets)


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
