"""CSV ingestion, splitting, standardization, and windowing."""

import csv
import io
import random

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
from ftmixer.errors import ConfigError, ContractError, DataError, NumericError, ParseError


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
    assert ds.channel_names == ("a", "b")
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


def test_load_csv_cell_over_csv_field_limit_is_parse_error(tmp_path):
    path = tmp_path / "long.csv"
    path.write_text("date,a\nt0,1\n" + "t" * 200_000 + ",2\n", encoding="utf-8")
    with pytest.raises(ParseError, match="field larger than field limit") as exc:
        load_csv(path)
    assert exc.value.line == 3


def test_load_csv_header_cell_over_csv_field_limit_is_parse_error(tmp_path):
    path = tmp_path / "long_header.csv"
    path.write_text("date," + "a" * (csv.field_size_limit() + 1) + "\nt0,1\n", encoding="utf-8")
    with pytest.raises(ParseError, match="field larger than field limit") as exc:
        load_csv(path)
    assert exc.value.line == 1


def test_load_csv_rejects_a_one_cell_header(tmp_path):
    path = tmp_path / "one_cell.csv"
    path.write_text("date\nt0\n", encoding="utf-8")
    with pytest.raises(ParseError, match="at least one channel") as exc:
        load_csv(path)
    assert exc.value.line == 1


def load_outcome(path):
    """What load_csv gives: the dataset, bit for bit, or its ParseError."""
    try:
        ds = load_csv(path)
    except ParseError as exc:
        return "error", str(exc), exc.line
    return "ok", ds.channel_names, ds.values.shape, ds.values.tobytes()


ROWS_50 = b"".join(b"t%d,%d\n" % (i, i) for i in range(50))  # lines 2-51
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
    ("bad_row_late", b"date,a\n" + ROWS_50 + b"t50,x\n", 52),
    ("bad_byte_late", b"date,a\n" + ROWS_50 + b"t50,\xff\n", 52),
    ("late_quote_then_bad_row", b"date,a\n" + ROWS_50[: ROWS_50.index(b"t40,")]
     + b'"t40",1\nt41,2\nt42,x\n', 44),
    ("multiline_cell_across_blocks", b'date,a\nt0,1\n"t\n1",2\nt2,3\n', None),
    ("early_quote_then_bad_row_late", b'date,a\n"t",1\n' + ROWS_50 + b"t50,x\n", 53),
    ("early_multiline_cell_then_bad_row_late",
     b'date,a\n"t\n",1\n' + ROWS_50 + b"t50,x\n", 54),
    ("multiline_header_then_bad_row", b'date,"a\nb"\nt0,1\nt1,x\n', 4),
    ("header_only", b"date,a,b\n", 2),
    ("empty_file", b"", 1),
    ("bad_header", b"time,a\nt0,1\n", 1),
]


# the default, then sizes that put every line or two in a block of its own
BLOCK_CHARS = (data_mod.CSV_BLOCK_CHARS, 1, 7, 16)


def no_vectorized_pass(*args, **kwargs):
    raise ValueError("vectorized pass switched off")


@pytest.mark.parametrize("content,error_line", [c[1:] for c in LOADER_CASES],
                         ids=[c[0] for c in LOADER_CASES])
def test_load_csv_matches_row_reader(tmp_path, monkeypatch, content, error_line):
    path = tmp_path / "case.csv"
    path.write_bytes(content)
    got = []
    for chars in BLOCK_CHARS:
        monkeypatch.setattr(data_mod, "CSV_BLOCK_CHARS", chars)
        got.append(load_outcome(path))
    monkeypatch.setattr(np, "loadtxt", no_vectorized_pass)
    want = load_outcome(path)
    assert got == [want] * len(BLOCK_CHARS)
    if error_line is None:
        assert want[0] == "ok"
    else:
        assert want[0] == "error" and want[2] == error_line


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


def test_load_csv_reads_decimals_in_blocks_bitwise_like_one_block(tmp_path, monkeypatch):
    text, want = decimal_csv(np.random.default_rng(1515))
    path = tmp_path / "decimals.csv"
    path.write_text(text, encoding="utf-8")
    whole = load_csv(path)
    monkeypatch.setattr(data_mod, "CSV_BLOCK_CHARS", 1000)
    blocks = load_csv(path)
    assert blocks.values.tobytes() == whole.values.tobytes() == want.tobytes()


def plain_pass(text):
    """_parse_plain on the lines after ``text``'s header, split as load_csv reads them."""
    header, *block = io.StringIO(text, newline="").readlines() or [""]
    return data_mod._parse_plain(block, header.count(","))


def test_load_csv_takes_vectorized_pass_only_for_plain_files():
    text, want = decimal_csv(np.random.default_rng(1515))
    assert plain_pass(text).T.tobytes() == want.tobytes()
    assert plain_pass("date,a,b\r\nt0,1,2\r\n\r\nt1,3,4\r\n") is not None
    for text in ['date,a\n"t0",1\n', "date,a\nt0,1_0\n", "date,a\nt0,1,2\n",
                 "date,a\nt0,\x1f1\n", "date,a\nt0,inf\n", "date,a\n", ""]:
        assert plain_pass(text) is None, text


def test_load_csv_returns_to_the_vectorized_pass_after_a_quoted_row(tmp_path, monkeypatch):
    path = tmp_path / "one_quote.csv"
    path.write_bytes(b'date,a\n"t",1\n' + ROWS_50)
    calls = []  # (parser, lines it parsed)
    parse_plain, parse_rows = data_mod._parse_plain, data_mod._parse_rows

    def plain(block, n):
        parsed = parse_plain(block, n)
        calls.append(("plain", 0 if parsed is None else len(block)))
        return parsed

    def rows(lines, *args):
        parsed = parse_rows(lines, *args)
        calls.append(("rows", parsed[1]))
        return parsed

    monkeypatch.setattr(data_mod, "_parse_plain", plain)
    monkeypatch.setattr(data_mod, "_parse_rows", rows)
    monkeypatch.setattr(data_mod, "CSV_BLOCK_CHARS", 64)
    ds = load_csv(path)
    np.testing.assert_array_equal(ds.values, [[1, *range(50)]])
    # the quoted row's block goes to the row reader, and every later block is plain
    assert calls[0] == ("plain", 0) and calls[1][0] == "rows" and len(calls) > 4
    assert all(parser == "plain" and lines for parser, lines in calls[2:])
    assert sum(lines for _, lines in calls) == 51


@pytest.mark.parametrize("content", [
    b"date,a\nt0,1\nt1,2\n",
    b'date,a\n"t0",1\nt1,2\n',
    b"date,a\nt0,1\nt1,x\n",
    b"date,a\nt0,1\nt1,\xff\n",  # read again, as bytes, through the same handle
], ids=["plain", "row_reader", "parse_error", "not_utf8"])
def test_load_csv_opens_the_file_once(tmp_path, monkeypatch, content):
    path = tmp_path / "once.csv"
    path.write_bytes(content)
    calls = []

    def counting_open(*args, **kwargs):
        calls.append(args[0])
        return open(*args, **kwargs)

    monkeypatch.setattr(data_mod, "open", counting_open, raising=False)
    for chars in (data_mod.CSV_BLOCK_CHARS, 1):
        monkeypatch.setattr(data_mod, "CSV_BLOCK_CHARS", chars)
        calls.clear()
        try:
            load_csv(path)
        except ParseError:
            pass
        assert calls == [path]


def test_load_csv_raises_earlier_parse_error_before_later_bad_byte(tmp_path, monkeypatch):
    # text is decoded as it is read, so only a block that is read can fail
    rows = b"".join(b"t%d,%d\n" % (i, i) for i in range(4000))
    path = tmp_path / "late_bad_byte.csv"
    path.write_bytes(b"date,a\nt0,x\n" + rows + b"t,\xff\n")
    with pytest.raises(ParseError, match="not UTF-8") as exc:
        load_csv(path)  # one block: the whole file is decoded first
    assert exc.value.line == 4003
    monkeypatch.setattr(data_mod, "CSV_BLOCK_CHARS", 64)
    with pytest.raises(ParseError, match="non-numeric") as exc:
        load_csv(path)
    assert exc.value.line == 2


def mutate_csv(rng: random.Random, content: bytes) -> bytes:
    """One to three seeded edits: a flipped byte, an inserted quote, CR,
    comma or byte order mark, or a duplicated line."""
    for _ in range(rng.randint(1, 3)):
        edit = rng.randrange(3)
        at = rng.randrange(len(content) + 1)
        if edit == 0 and content:
            at = min(at, len(content) - 1)
            flipped = content[at] ^ (1 << rng.randrange(8))
            content = content[:at] + bytes([flipped]) + content[at + 1:]
        elif edit == 1:
            insert = rng.choice([b'"', b"\r", b",", "\ufeff".encode()])
            content = content[:at] + insert + content[at:]
        else:
            lines = content.splitlines(keepends=True) or [b""]
            i = rng.randrange(len(lines))
            content = b"".join(lines[: i + 1] + lines[i:])
    return content


def test_load_csv_fuzzed_files_match_row_reader(tmp_path, monkeypatch):
    rng = random.Random(1919)
    base = b"date,a,b\n" + b"".join(b"t%d,%d.5,-%de-3\n" % (i, i, i) for i in range(30))
    path = tmp_path / "fuzz.csv"
    outcomes = set()
    for _ in range(300):
        path.write_bytes(mutate_csv(rng, base))
        got = []
        for chars in (data_mod.CSV_BLOCK_CHARS, 16):
            monkeypatch.setattr(data_mod, "CSV_BLOCK_CHARS", chars)
            got.append(load_outcome(path))
        with monkeypatch.context() as m:
            m.setattr(np, "loadtxt", no_vectorized_pass)
            want = load_outcome(path)  # any other error escapes and fails here
        assert got == [want, want], path.read_bytes()
        outcomes.add(want[0] if want[0] == "ok" else want[1].split(": ", 1)[-1].split()[0])
    assert len(outcomes) >= 4, outcomes  # the mutations reach several outcomes


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


@pytest.mark.parametrize("call, error, match", [
    (lambda ds: ds.split_bounds("train"), ContractError, "no split"),
    (lambda ds: chronological_split(ds, (0.6, 0.2, 0.2)).split_bounds("holdout"), ConfigError,
     "unknown split 'holdout'"),
    (standardize, ContractError, "no training statistics"),
    (lambda ds: next(iter_batches(ds, np.arange(4), 8, 2, batch_size=0)), ConfigError,
     "batch_size must be >= 1"),
], ids=["split_bounds_before_split", "unknown_split", "standardize_without_stats",
        "zero_batch_size"])
def test_dataset_steps_out_of_order_or_out_of_range_raise(call, error, match):
    with pytest.raises(error, match=match):
        call(toy_dataset())


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


def test_statistics_or_standardized_values_that_overflow_raise_numeric_error():
    t = np.arange(200, dtype=float)
    # finite values whose training mean and std overflow float64
    huge = np.vstack([np.sin(t), 1.5e308 * (0.5 + 0.5 * np.sin(t))])
    with pytest.raises(NumericError, match=r"training mean or std of channels \['ch1'\]"):
        chronological_split(from_values(huge), (0.6, 0.2, 0.2))
    # finite statistics, but test rows far outside the training range
    far = np.vstack([np.where(t < 160, 1e-3 * np.sin(t), 1e308), np.sin(t)])
    split = chronological_split(from_values(far), (0.6, 0.2, 0.2))
    with pytest.raises(NumericError, match=r"standardized values of channels \['ch0'\]"):
        standardize(split)


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
        for i, s in enumerate(starts[:4]):
            np.testing.assert_array_equal(batch.inputs[i], ds.values[:, s : s + 6])
            np.testing.assert_array_equal(batch.targets[i], ds.values[:, s + 6 : s + 9])


def fancy_gather(ds, starts, lookback, horizon):
    """Inputs and targets by one fancy index, as gather_batch copies them."""
    windows = np.moveaxis(ds.values[:, starts[:, None] + np.arange(lookback + horizon)], 0, 1)
    return windows[:, :, :lookback], windows[:, :, lookback:]


def test_gather_batch_views_a_run_of_starts():
    ds = toy_dataset(total=40, channels=3)
    for starts in (np.arange(5, 17), np.array([31]), np.arange(32)):
        batch = gather_batch(ds, starts, lookback=6, horizon=3)
        for got, want in zip((batch.inputs, batch.targets), fancy_gather(ds, starts, 6, 3)):
            assert np.shares_memory(got, ds.values) and not got.flags.writeable
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("starts", [[7, 3, 12, 4], [3, 4, 6, 7], [5, 5, 6], [9, 8, 7]],
                         ids=["shuffled", "gapped", "repeated", "descending"])
def test_gather_batch_copies_any_other_start_list(starts):
    ds = toy_dataset(total=40, channels=3)
    starts = np.array(starts)
    batch = gather_batch(ds, starts, lookback=6, horizon=3)
    for got, want in zip((batch.inputs, batch.targets), fancy_gather(ds, starts, 6, 3)):
        assert got.flags.c_contiguous and got.flags.writeable
        assert not np.shares_memory(got, ds.values)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("starts, bad", [([-3], -3), ([0, 1, -1], -1), ([16], 16),
                                         ([14, 15, 16], 16), ([2, 40, 5], 40)],
                         ids=["negative", "negative_in_gather", "past_end", "run_past_end",
                              "past_end_in_gather"])
def test_gather_batch_rejects_windows_outside_the_series(starts, bad):
    ds = from_values(np.arange(20.0)[None, :])  # 5-step windows start at 0..15
    with pytest.raises(ContractError, match=rf"start {bad} outside 0\.\.15"):
        gather_batch(ds, starts, lookback=3, horizon=2)
    for ends in ([0], [15], [0, 15]):
        assert gather_batch(ds, ends, lookback=3, horizon=2).inputs.shape == (len(ends), 1, 3)


def test_gather_batch_rejects_a_series_shorter_than_a_window():
    ds = from_values(np.arange(4.0)[None, :])
    with pytest.raises(ContractError, match="outside 0..-1"):
        gather_batch(ds, [0], lookback=3, horizon=2)
    assert gather_batch(ds, [], lookback=3, horizon=2).inputs.shape == (0, 1, 3)


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
