"""CSV ingestion, splitting, standardization, and windowing."""

import numpy as np
import pytest

from ftmixer import data as data_mod
from ftmixer.data import (
    chronological_split,
    destandardize,
    from_values,
    gather_batch,
    iter_batches,
    load_csv,
    standardize,
    window_samples,
)
from ftmixer.errors import ConfigError, ContractError, DataError, ParseError


def write_csv(path, header, rows):
    lines = [",".join(header)] + [",".join(str(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def toy_dataset(total=40, channels=2, seed=50):
    rng = np.random.default_rng(seed)
    return from_values(rng.standard_normal((channels, total)), name="toy")


def test_load_csv_toy(tmp_path):
    path = tmp_path / "toy.csv"
    write_csv(path, ["date", "a", "b"], [["t0", 1, 4.5], ["t1", 2, 5.5], ["t2", 3, 6.5]])
    ds = load_csv(path)
    assert ds.channels == 2 and ds.length == 3
    assert ds.channel_names == ("a", "b")
    np.testing.assert_array_equal(ds.values, [[1.0, 2.0, 3.0], [4.5, 5.5, 6.5]])
    assert ds.timestamps == ("t0", "t1", "t2")
    assert ds.name == "toy"


def test_load_csv_rejects_nan_with_line(tmp_path):
    path = tmp_path / "bad.csv"
    write_csv(path, ["date", "a"], [["t0", 1.0], ["t1", "NaN"], ["t2", 3.0]])
    with pytest.raises(ParseError) as exc:
        load_csv(path)
    assert exc.value.line == 3


def test_load_csv_rejects_non_numeric_with_line(tmp_path):
    path = tmp_path / "bad.csv"
    write_csv(path, ["date", "a"], [["t0", 1.0], ["t1", "oops"]])
    with pytest.raises(ParseError) as exc:
        load_csv(path)
    assert exc.value.line == 3


def test_load_csv_rejects_ragged_row(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("date,a,b\nt0,1,2\nt1,3\n", encoding="utf-8")
    with pytest.raises(ParseError) as exc:
        load_csv(path)
    assert exc.value.line == 3


def test_load_csv_requires_date_header(tmp_path):
    path = tmp_path / "bad.csv"
    write_csv(path, ["time", "a"], [["t0", 1.0]])
    with pytest.raises(ParseError):
        load_csv(path)


def test_load_csv_skips_utf8_bom(tmp_path):
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbfdate,a\nt0,1\nt1,2\n")
    ds = load_csv(path)
    assert ds.channel_names == ("a",)
    np.testing.assert_array_equal(ds.values, [[1.0, 2.0]])


def test_load_csv_rejects_duplicate_channel_names(tmp_path):
    path = tmp_path / "dup.csv"
    write_csv(path, ["date", "a", "b", "a"], [["t0", 1, 2, 3]])
    with pytest.raises(ParseError) as exc:
        load_csv(path)
    assert exc.value.line == 1
    assert "'a'" in str(exc.value)


@pytest.mark.parametrize("text", [
    "date,a,b\r\nt0,1,4\r\nt1,2,5\r\n",     # CRLF line endings
    "date,a,b\nt0,1,4\nt1,2,5\n\n\n",        # blank trailing lines
])
def test_load_csv_line_ending_variants(tmp_path, text):
    path = tmp_path / "variant.csv"
    path.write_bytes(text.encode("utf-8"))
    ds = load_csv(path)
    assert ds.channel_names == ("a", "b") and ds.timestamps == ("t0", "t1")
    np.testing.assert_array_equal(ds.values, [[1.0, 2.0], [4.0, 5.0]])


def test_load_csv_missing_file():
    with pytest.raises(DataError):
        load_csv("/nonexistent/nowhere.csv")


def test_split_622_arithmetic():
    ds = from_values(np.zeros((1, 17420)), name="tall")
    out = chronological_split(ds, (0.6, 0.2, 0.2))
    assert out.train_end == 10452
    assert out.val_end == 10452 + 3484
    assert out.length - out.val_end == 3484


def test_split_712_toy_boundaries():
    ds = from_values(np.arange(10, dtype=float).reshape(1, 10))
    out = chronological_split(ds, (0.7, 0.1, 0.2))
    assert (out.train_end, out.val_end) == (7, 8)


def test_split_rejects_degenerate_ratios():
    ds = toy_dataset()
    with pytest.raises(ConfigError):
        chronological_split(ds, (1.0, 0.0, 0.0))
    with pytest.raises(ConfigError):
        chronological_split(ds, (0.5, 0.3, 0.3))


@pytest.mark.parametrize("ratios", [
    (float("nan"), 0.5, 0.5), (0.5, 0.5, float("nan")),
    (float("inf"), 0.5, 0.5), (0.6, float("-inf"), 0.2),
])
def test_split_rejects_non_finite_ratios(ratios):
    with pytest.raises(ConfigError, match="finite"):
        chronological_split(toy_dataset(), ratios)


def test_split_rejects_short_segments():
    ds = toy_dataset(total=40)
    with pytest.raises(ConfigError):
        chronological_split(ds, (0.6, 0.2, 0.2), min_segment=10)


def test_no_leakage_into_norm_stats():
    ds = toy_dataset(total=50)
    split = chronological_split(ds, (0.6, 0.2, 0.2))
    poked = ds.values.copy()
    poked[:, split.train_end :] += 100.0
    split_poked = chronological_split(from_values(poked, name="toy"), (0.6, 0.2, 0.2))
    np.testing.assert_array_equal(split.norm_stats.mean, split_poked.norm_stats.mean)
    np.testing.assert_array_equal(split.norm_stats.std, split_poked.norm_stats.std)


def test_standardize_round_trip_and_train_stats():
    ds = chronological_split(toy_dataset(total=60), (0.6, 0.2, 0.2))
    std_ds = standardize(ds)
    train = std_ds.values[:, : ds.train_end]
    np.testing.assert_allclose(train.mean(axis=1), 0.0, atol=1e-12)
    np.testing.assert_allclose(train.std(axis=1), 1.0, atol=1e-12)
    restored = destandardize(std_ds.values, ds.norm_stats)
    assert np.max(np.abs(restored - ds.values)) < 1e-10


def test_constant_channel_standardizes_to_zero(caplog):
    values = np.vstack([np.ones(30), np.arange(30, dtype=float)])
    ds = from_values(values, name="flat")
    with caplog.at_level("WARNING"):
        split = chronological_split(ds, (0.6, 0.2, 0.2))
    assert any("clamped" in rec.message for rec in caplog.records)
    std_ds = standardize(split)
    np.testing.assert_allclose(std_ds.values[0, : split.train_end], 0.0, atol=1e-12)


def test_window_counts():
    ds = chronological_split(toy_dataset(total=200), (0.6, 0.2, 0.2))
    starts = window_samples(ds, "train", lookback=10, horizon=5)
    assert len(starts) == 120 - 10 - 5 + 1
    # boundary: split length exactly L + tau gives one sample
    ds2 = chronological_split(toy_dataset(total=30), (0.5, 0.2, 0.3))
    starts2 = window_samples(ds2, "val", lookback=4, horizon=2)
    assert len(starts2) == 1


def test_window_insufficient_length():
    ds = chronological_split(toy_dataset(total=30), (0.6, 0.2, 0.2))
    with pytest.raises(ConfigError):
        window_samples(ds, "val", lookback=5, horizon=3)


def test_windows_stay_inside_split_and_targets_adjacent():
    ds = chronological_split(toy_dataset(total=100), (0.6, 0.2, 0.2))
    for split in ("train", "val", "test"):
        lo, hi = ds.split_bounds(split)
        starts = window_samples(ds, split, lookback=6, horizon=3)
        assert starts.min() >= lo and starts.max() + 6 + 3 <= hi
        batch = gather_batch(ds, starts[:4], lookback=6, horizon=3)
        for i, s in enumerate(batch.starts):
            np.testing.assert_array_equal(batch.inputs[i], ds.values[:, s : s + 6])
            np.testing.assert_array_equal(batch.targets[i], ds.values[:, s + 6 : s + 9])


def test_iter_batches_includes_tail():
    ds = chronological_split(toy_dataset(total=100), (0.6, 0.2, 0.2))
    starts = window_samples(ds, "train", lookback=6, horizon=3)
    batches = list(iter_batches(ds, starts, 6, 3, batch_size=16))
    assert sum(b.inputs.shape[0] for b in batches) == len(starts)
    assert batches[-1].inputs.shape[0] == len(starts) % 16 or 16


def test_from_values_rejects_bad_input():
    with pytest.raises(ContractError):
        from_values(np.zeros(5))
    with pytest.raises(ContractError):
        from_values(np.array([[1.0, np.nan]]))
