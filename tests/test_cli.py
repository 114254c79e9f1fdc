"""Command-line interface: exit codes, artifacts, config merging."""

import csv
import json

import numpy as np
import pytest

from ftmixer.cli import main
from ftmixer.model import FtMixerParams, ModelConfig, save_checkpoint

from helpers import sinusoid_dataset


@pytest.fixture()
def series_csv(tmp_path):
    ds = sinusoid_dataset(steps=400, period=24.0, channels=2)
    path = tmp_path / "series.csv"
    with open(path, "w", encoding="utf-8") as f:
        f.write("date," + ",".join(ds.channel_names) + "\n")
        for t in range(ds.length):
            cells = ",".join(repr(float(v)) for v in ds.values[:, t])
            f.write(f"{ds.timestamps[t]},{cells}\n")
    return path


def read_artifact_csv(path):
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    rows = list(csv.reader(ln for ln in lines if not ln.startswith("#")))
    return comments, rows[0], rows[1:]


def train_args(series_csv, out_dir, extra=()):
    return [
        "train",
        "--data", str(series_csv),
        "--output", str(out_dir),
        "--lookback", "48",
        "--horizon", "12",
        "--epochs", "2",
        "--seed", "5",
        *extra,
    ]


def test_train_writes_artifacts(series_csv, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(train_args(series_csv, out)) == 0
    assert (out / "checkpoint.ftm").exists()
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["train"]["seed"] == 5
    assert len(report["report"]["epochs"]) == 2
    comments, header, rows = read_artifact_csv(out / "losses.csv")
    assert comments and comments[0].startswith("# config:")
    assert '"seed": 5' in comments[0]
    assert header == ["epoch", "time_loss", "freq_loss", "total", "val_mse"]
    assert len(rows) == 2
    assert "test mse" in capsys.readouterr().out


def test_missing_data_file_exits_2(tmp_path, capsys):
    code = main(train_args(tmp_path / "nope.csv", tmp_path / "out"))
    assert code == 2
    assert "ftmixer: error: data:" in capsys.readouterr().err


def test_indivisible_patch_scale_exits_1(series_csv, tmp_path, capsys):
    code = main(train_args(series_csv, tmp_path / "out", extra=["--patch-scales", "25"]))
    assert code == 1
    assert "ftmixer: error: config:" in capsys.readouterr().err


def test_unknown_flag_exits_1(series_csv, tmp_path, capsys):
    code = main(train_args(series_csv, tmp_path / "out", extra=["--bogus"]))
    assert code == 1


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_numeric_abort_exits_3(series_csv, tmp_path, capsys):
    code = main(train_args(series_csv, tmp_path / "out", extra=["--lr", "1e200"]))
    assert code == 3
    assert "ftmixer: error: numeric:" in capsys.readouterr().err


def test_eval_emits_metrics_json(series_csv, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(train_args(series_csv, out)) == 0
    capsys.readouterr()
    code = main([
        "eval",
        "--data", str(series_csv),
        "--output", str(out),
        "--checkpoint", str(out / "checkpoint.ftm"),
        "--split", "test",
    ])
    assert code == 0
    printed = json.loads(capsys.readouterr().out)
    assert set(printed) >= {"mse", "mae", "horizon", "dataset"}
    assert printed["horizon"] == 12
    stored = json.loads((out / "metrics.json").read_text())
    assert stored["mse"] == printed["mse"]
    assert "config" in stored


def test_eval_on_cut_checkpoint_exits_2(series_csv, tmp_path, capsys):
    path = tmp_path / "checkpoint.ftm"
    config = ModelConfig(lookback=48, horizon=12, channels=2, patch_scales=(12, 24))
    save_checkpoint(path, FtMixerParams.initialize(config))
    raw = path.read_bytes()
    for size in (2, 20, len(raw) // 2, len(raw) - 1):
        path.write_bytes(raw[:size])
        code = main([
            "eval",
            "--data", str(series_csv),
            "--output", str(tmp_path / "run"),
            "--checkpoint", str(path),
        ])
        assert code == 2
        assert "ftmixer: error: data:" in capsys.readouterr().err


def test_predict_row_count(series_csv, tmp_path):
    out = tmp_path / "run"
    assert main(train_args(series_csv, out)) == 0
    code = main([
        "predict",
        "--data", str(series_csv),
        "--output", str(out),
        "--checkpoint", str(out / "checkpoint.ftm"),
    ])
    assert code == 0
    comments, header, rows = read_artifact_csv(out / "forecast.csv")
    assert header == ["channel", "step", "predicted", "actual"]
    assert len(rows) == 2 * 12  # channels * horizon
    assert comments


def test_spectrum_row_count(series_csv, tmp_path):
    out = tmp_path / "spec"
    code = main([
        "spectrum",
        "--data", str(series_csv),
        "--output", str(out),
        "--channel", "0",
        "--start", "0",
        "--len", "48",
    ])
    assert code == 0
    comments, header, rows = read_artifact_csv(out / "spectrum.csv")
    assert header == ["k", "coefficient"]
    assert len(rows) == 48
    assert [int(r[0]) for r in rows] == list(range(48))
    # emitted coefficients must reconstruct the raw window
    from ftmixer.spectral import idct

    coefficients = np.array([float(r[1]) for r in rows])
    window = sinusoid_dataset(steps=400, period=24.0, channels=2).values[0, :48]
    assert np.max(np.abs(idct(coefficients) - window)) < 1e-9


def test_spectrum_out_of_range_exits_1(series_csv, tmp_path):
    assert main([
        "spectrum", "--data", str(series_csv), "--output", str(tmp_path / "s"),
        "--channel", "9", "--len", "48",
    ]) == 1


def test_sweep_table(series_csv, tmp_path, capsys):
    out = tmp_path / "sweep"
    code = main([
        "sweep",
        "--data", str(series_csv),
        "--output", str(out),
        "--lengths", "24,48",
        "--horizon", "12",
        "--epochs", "1",
        "--seed", "0",
    ])
    assert code == 0
    comments, header, rows = read_artifact_csv(out / "sweep.csv")
    assert header == ["lookback", "mse", "mae"]
    assert [r[0] for r in rows] == ["24", "48"]


def test_config_file_merging_and_flag_override(series_csv, tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text(
        "[model]\nlookback = 48\nhorizon = 12\n\n[train]\nepochs = 1\nseed = 9\n",
        encoding="utf-8",
    )
    out = tmp_path / "out"
    code = main([
        "train", "--config", str(cfg), "--data", str(series_csv),
        "--output", str(out), "--seed", "11",
    ])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["model"]["lookback"] == 48
    assert report["config"]["train"]["seed"] == 11  # flag beats file


def test_config_file_unknown_key_exits_1(series_csv, tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[model]\nwavelets = 3\n", encoding="utf-8")
    code = main(["train", "--config", str(cfg), "--data", str(series_csv)])
    assert code == 1
    assert "unknown config key" in capsys.readouterr().err
