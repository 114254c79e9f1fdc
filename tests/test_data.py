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


@pytest.mark.parametrize("header", ["date,,b", "date,a, ", "date,a,\t"])
def test_load_csv_rejects_empty_channel_names(tmp_path, header):
    path = tmp_path / "empty_name.csv"
    path.write_text(header + "\nt0,1,2\n", encoding="utf-8")
    with pytest.raises(ParseError, match="empty channel name") as exc:
        load_csv(path)
    assert exc.value.line == 1


def test_load_csv_rejects_text_that_is_not_utf8(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"date,a\nt0,1\nt1,\xff2\n")
    with pytest.raises(ParseError, match="not UTF-8") as exc:
        load_csv(path)
    assert exc.value.line == 3


def test_load_csv_maps_errors_of_the_row_readers_second_read(tmp_path, monkeypatch):
    path = tmp_path / "quoted.csv"
    path.write_text('date,a\n"t0",1\n', encoding="utf-8")
    parse_plain = data_mod._parse_plain

    def then(change):
        def parse(text):
            change()  # the file changes between the two reads
            return parse_plain(text)
        return parse

    not_utf8 = then(lambda: path.write_bytes(b"date,a\nt0,\xff\n"))
    monkeypatch.setattr(data_mod, "_parse_plain", not_utf8)
    with pytest.raises(ParseError, match="not UTF-8"):
        load_csv(path)
    path.write_text('date,a\n"t0",1\n', encoding="utf-8")
    monkeypatch.setattr(data_mod, "_parse_plain", then(path.unlink))
    with pytest.raises(DataError, match="cannot open"):
        load_csv(path)


def test_load_csv_cell_over_csv_field_limit_is_parse_error(tmp_path):
    path = tmp_path / "long.csv"
    path.write_text("date,a\nt0,1\n" + "t" * 200_000 + ",2\n", encoding="utf-8")
    with pytest.raises(ParseError, match="field larger than field limit") as exc:
        load_csv(path)
    assert exc.value.line == 3


def load_outcome(path):
    """What load_csv gives: the dataset, bit for bit, or its ParseError."""
    try:
        ds = load_csv(path)
    except ParseError as exc:
        return "error", str(exc), exc.line
    return "ok", ds.channel_names, ds.timestamps, ds.values.shape, ds.values.tobytes()


# (id, file bytes, None if it loads, else the ParseError's line)
LOADER_CASES = [
    ("plain", b"date,a,b\nt0,1.5,-2\nt1,3,4e-3\n", None),
    ("blank_line", b"date,a,b\nt0,1,2\n\nt1,3,4\n", None),
    ("whitespace_only_line", b"date,a,b\nt0,1,2\n  \nt1,3,4\n", 3),
    ("hash_led_timestamp", b"date,a,b\n#t0,1,2\nt1,3,4\n", None),
    ("quoted_number", b'date,a,b\nt0,"1.5",2\nt1,3,4\n', None),
    ("quoted_timestamp_with_comma", b'date,a,b\n"2016-07-01, 00:00",1,2\nt1,3,4\n', None),
    ("quoted_timestamp", b'date,a,b\n"t0",1,2\nt1,3,4\n', None),
    ("quoted_header", b'"date","a","b"\nt0,1,2\n', None),
    ("spaces_around_numbers", b"date,a,b\nt0, 1 ,2 \nt1,  3,4\n", None),
    ("tab_around_numbers", b"date,a,b\nt0,\t1,2\t\nt1,3,4\n", None),
    ("non_ascii_space_around_number", "date,a,b\nt0,\xa01,2 \n".encode(), None),
    ("digit_underscore", b"date,a,b\nt0,1_000,2\n", None),
    ("arabic_indic_digit", "date,a,b\nt0,١,2\n".encode(), None),
    ("hex_literal", b"date,a,b\nt0,1,2\nt1,0x10,2\n", 3),
    ("empty_cell", b"date,a,b\nt0,1,2\nt1,,2\n", 3),
    ("trailing_comma", b"date,a,b\nt0,1,2\nt1,3,4,\n", 3),
    ("short_row", b"date,a,b\nt0,1,2\nt1,3\n", 3),
    ("nan", b"date,a,b\nt0,1,2\nt1,nan,2\n", 3),
    ("minus_infinity", b"date,a,b\nt0,1,2\nt1,2,-Infinity\n", 3),
    ("overflow_1e400", b"date,a,b\nt0,1,2\nt1,1e400,2\n", 3),
    ("exponent_forms", b"date,a,b\nt0,1e5,-2.5E-3\nt1,+.5e+2,7E0\nt2,5.,-0e-0\n", None),
    ("subnormal", b"date,a\nt0,4.9e-324\nt1,2.2250738585072011e-308\n", None),
    ("cr_only_line_ends", b"date,a,b\rt0,1,2\rt1,3,4\r", None),
    ("crlf_line_ends", b"date,a,b\r\nt0,1,2\r\nt1,3,4", None),
    ("form_feed_around_number", b"date,a,b\nt0,\x0c1,2\x0c\n", None),
    ("form_feed_in_timestamp", b"date,a,b\n\x0ct0,1,2\n", None),
    ("file_separator_led_number", b"date,a,b\nt0,1,2\nt1,\x1c3,4\n", 3),
    ("nul_in_timestamp", b"date,a,b\nt\x000,1,2\n", None),
    ("bom", b"\xef\xbb\xbfdate,a,b\nt0,1,2\n", None),
    ("bom_in_number", "date,a,b\nt0,1,2\nt1,﻿3,4\n".encode(), 3),
    ("bad_row_after_multiline_cell", b'date,a\n"t\n0",1\nt1,x\n', 4),
    ("bad_multiline_row", b'date,a\nt0,1\n"t\n1",x\n', 4),
    ("bad_row_late", b"date,a\n" + b"".join(b"t%d,%d\n" % (i, i) for i in range(50)) + b"t50,x\n", 52),
    ("header_only", b"date,a,b\n", 2),
    ("empty_file", b"", 1),
    ("bad_header", b"time,a\nt0,1\n", 1),
]


@pytest.mark.parametrize("content,error_line", [c[1:] for c in LOADER_CASES],
                         ids=[c[0] for c in LOADER_CASES])
def test_load_csv_matches_row_reader(tmp_path, monkeypatch, content, error_line):
    path = tmp_path / "case.csv"
    path.write_bytes(content)
    got = load_outcome(path)

    def no_vectorized_pass(*args, **kwargs):
        raise ValueError("vectorized pass switched off")

    monkeypatch.setattr(np, "loadtxt", no_vectorized_pass)
    assert got == load_outcome(path)
    if error_line is None:
        assert got[0] == "ok"
    else:
        assert got[0] == "error" and got[2] == error_line


def random_decimals(rng, count):
    """Decimal strings: 1-20 digits, a point anywhere, signs, exponents."""
    out = []
    for _ in range(count):
        digits = "".join(rng.choice(list("0123456789"), size=int(rng.integers(1, 21))))
        point = int(rng.integers(0, len(digits) + 1))
        text = digits[:point] + "." + digits[point:] if rng.random() < 0.8 else digits
        if rng.random() < 0.4:
            text += f"{rng.choice(['e', 'E'])}{int(rng.integers(-330, 280)):+d}"
        out.append(str(rng.choice(["", "-", "+"])) + text)
    return out


def decimal_csv(rng):
    """A three-channel CSV text of random decimals, and their float() values."""
    cells = random_decimals(rng, 3000)
    rows = [f"t{i}," + ",".join(cells[i : i + 3]) for i in range(0, len(cells), 3)]
    want = np.array([float(c) for c in cells]).reshape(-1, 3).T
    return "date,a,b,c\n" + "\n".join(rows) + "\n", want


def test_load_csv_parses_decimals_bitwise_like_float(tmp_path):
    text, want = decimal_csv(np.random.default_rng(1515))
    path = tmp_path / "decimals.csv"
    path.write_text(text, encoding="utf-8")
    assert load_csv(path).values.tobytes() == want.tobytes()


def test_load_csv_takes_vectorized_pass_only_for_plain_files():
    text, want = decimal_csv(np.random.default_rng(1515))
    assert data_mod._parse_plain(text)[2].tobytes() == want.tobytes()
    assert data_mod._parse_plain("date,a,b\r\nt0,1,2\r\n\r\nt1,3,4\r\n") is not None
    for text in ['date,a\n"t0",1\n', "date,a\nt0,1_0\n", "date,a\nt0,1,2\n",
                 "date,a\nt0,\x1f1\n", "date,a\nt0,inf\n", "date,a\n", ""]:
        assert data_mod._parse_plain(text) is None, text


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
