"""Command-line interface: exit codes, artifacts, config merging."""

import csv
import importlib
import json
import logging
from dataclasses import fields

import numpy as np
import pytest

from ftmixer import cli
from ftmixer.cli import main
from ftmixer.model import FtMixerParams, ModelConfig, save_checkpoint
from ftmixer.spectral import basis_pair
from ftmixer.train import TrainConfig

from helpers import sinusoid_dataset


@pytest.fixture()
def series_csv(tmp_path):
    ds = sinusoid_dataset(steps=400, period=24.0, channels=2)
    path = tmp_path / "series.csv"
    with open(path, "w", encoding="utf-8") as f:
        f.write("date," + ",".join(ds.channel_names) + "\n")
        for t in range(ds.length):
            cells = ",".join(repr(float(v)) for v in ds.values[:, t])
            f.write(f"{t},{cells}\n")
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


def test_duplicate_channel_names_exit_2(tmp_path, capsys):
    path = tmp_path / "dup.csv"
    path.write_text("date,a,a\nt0,1,2\n", encoding="utf-8")
    assert main(train_args(path, tmp_path / "out")) == 2
    assert "duplicate channel name 'a'" in capsys.readouterr().err


def test_empty_channel_name_exits_2(tmp_path, capsys):
    path = tmp_path / "empty_name.csv"
    path.write_text("date,,b\nt0,1,2\n", encoding="utf-8")
    assert main(train_args(path, tmp_path / "out")) == 2
    assert "line 1: empty channel name in column 2" in capsys.readouterr().err


@pytest.mark.parametrize("output", ["afile", "afile/sub"])
@pytest.mark.parametrize("command", ["train", "sweep"])
def test_output_that_cannot_be_a_directory_exits_1_before_training(
        series_csv, tmp_path, capsys, monkeypatch, command, output):
    (tmp_path / "afile").write_text("a regular file\n", encoding="utf-8")

    def no_training(*args, **kwargs):
        raise AssertionError("trained before the output directory was checked")

    monkeypatch.setattr(cli, "train", no_training)
    monkeypatch.setattr(importlib.import_module("ftmixer.train"), "train", no_training)
    out = tmp_path / output
    if command == "train":
        args = train_args(series_csv, out)
    else:
        args = ["sweep", "--data", str(series_csv), "--output", str(out),
                "--lengths", "24,48", "--horizon", "12", "--epochs", "1"]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"ftmixer: error: config: cannot use output directory {out}:")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize(
    "artifact", ["report.json", "losses.csv", "checkpoint.ftm", "sweep.csv"]
)
def test_artifact_path_that_is_a_directory_exits_1(
    series_csv, tmp_path, capsys, caplog, artifact
):
    caplog.set_level(logging.INFO)
    out = tmp_path / "run"
    (out / artifact).mkdir(parents=True)
    if artifact == "sweep.csv":
        args = ["sweep", "--data", str(series_csv), "--output", str(out),
                "--lengths", "24,48", "--horizon", "12", "--epochs", "1"]
    else:
        args = train_args(series_csv, out, extra=["--epochs", "1"])
    assert main(args) == 1
    err = capsys.readouterr().err
    assert f"ftmixer: error: config: cannot write {out / artifact}:" in err
    assert "Traceback" not in err
    assert list(out.rglob("*.tmp")) == []
    assert "epoch 0" not in caplog.text  # refused before any training


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


def test_eval_on_checkpoint_with_a_flipped_bit_exits_2(series_csv, tmp_path, capsys):
    path = tmp_path / "checkpoint.ftm"
    config = ModelConfig(lookback=48, horizon=12, channels=2, patch_scales=(12, 24))
    save_checkpoint(path, FtMixerParams.initialize(config))
    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] ^= 0x10  # inside a parameter's payload
    path.write_bytes(bytes(raw))
    code = main([
        "eval",
        "--data", str(series_csv),
        "--output", str(tmp_path / "run"),
        "--checkpoint", str(path),
    ])
    assert code == 2
    _single_error_line(capsys.readouterr().err, "data")


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


@pytest.mark.parametrize("length", [1, 47], ids=["one_sample", "odd_length"])
def test_spectrum_of_one_sample_or_an_odd_window(series_csv, tmp_path, length):
    out = tmp_path / "spec"
    assert main(["spectrum", "--data", str(series_csv), "--output", str(out),
                 "--channel", "1", "--start", "5", "--len", str(length)]) == 0
    _, _, rows = read_artifact_csv(out / "spectrum.csv")
    coefficients = np.array([float(r[1]) for r in rows])
    window = sinusoid_dataset(steps=400, period=24.0, channels=2).values[1, 5 : 5 + length]
    want = window @ basis_pair(length)[0]
    assert np.max(np.abs(coefficients - want)) <= 1e-13 * np.max(np.abs(want))


def test_spectrum_whose_transform_overflows_exits_3(tmp_path, capsys):
    path = tmp_path / "huge.csv"
    values = [1.5e308, 1.7e308] * 8  # finite, but their sums are not
    path.write_text("date,a\n" + "".join(f"{t},{v!r}\n" for t, v in enumerate(values)),
                    encoding="utf-8")
    out = tmp_path / "spec"
    assert main(["spectrum", "--data", str(path), "--output", str(out), "--len", "16"]) == 3
    _single_error_line(capsys.readouterr().err, "numeric")
    assert not list(out.iterdir())


@pytest.mark.parametrize("command", ["train", "eval", "predict", "sweep"])
def test_finite_data_whose_statistics_overflow_exits_3(tmp_path, capsys, command):
    t = np.arange(200)
    a = 1.5e308 * (0.5 + 0.5 * np.sin(t))
    path = tmp_path / "huge.csv"
    path.write_text("date,a,b\n" + "".join(
        f"{i},{float(a[i])!r},{float(np.cos(i))!r}\n" for i in t), encoding="utf-8")
    checkpoint = tmp_path / "checkpoint.ftm"
    config = ModelConfig(lookback=24, horizon=6, channels=2, patch_scales=(6, 12))
    save_checkpoint(checkpoint, FtMixerParams.initialize(config))
    argv = {
        "train": ["--lookback", "24", "--horizon", "6", "--epochs", "1"],
        "eval": ["--checkpoint", str(checkpoint)],
        "predict": ["--checkpoint", str(checkpoint)],
        "sweep": ["--lengths", "24", "--horizon", "6", "--epochs", "1"],
    }[command]
    out = tmp_path / "out"
    assert main([command, "--data", str(path), "--output", str(out), *argv]) == 3
    err = capsys.readouterr().err
    _single_error_line(err, "numeric")
    assert "training mean or std of channels ['a']" in err
    assert not out.exists() or not list(out.iterdir())


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


def test_config_file_that_is_not_utf8_exits_1(series_csv, tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_bytes(b"\xff\xfe")
    code = main(["train", "--config", str(cfg), "--data", str(series_csv)])
    assert code == 1
    _single_error_line(capsys.readouterr().err, "config")


@pytest.mark.parametrize("section,key,value", [
    ("model", "lookback", "abc"),
    ("train", "learning_rate", "fast"),
])
def test_config_file_value_that_does_not_parse_exits_1(series_csv, tmp_path, capsys,
                                                       section, key, value):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(f"[{section}]\n{key} = {value}\n", encoding="utf-8")
    code = main(["train", "--config", str(cfg), "--data", str(series_csv)])
    assert code == 1
    err = capsys.readouterr().err
    assert "ftmixer: error: config:" in err
    assert f"[{section}] {key} = {value!r}" in err


def test_config_file_value_with_percent_is_read_as_written(series_csv, tmp_path):
    out = tmp_path / "x%y"
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[io]\noutput = {out}\n[train]\nepochs = 1\n", encoding="utf-8")
    assert cli._read_config_file(cfg) == {"io": {"output": str(out)}, "train": {"epochs": 1}}
    code = main(["train", "--config", str(cfg), "--data", str(series_csv),
                 "--lookback", "48", "--horizon", "12"])
    assert code == 0
    assert (out / "report.json").exists()


def _single_error_line(err: str, kind: str) -> None:
    assert err.startswith(f"ftmixer: error: {kind}:")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("config,code,kind", [
    ("missing.ini", 2, "data"),
    ("a_directory", 2, "data"),
    ("unknown_section.ini", 1, "config"),
])
def test_config_file_that_cannot_be_read_or_names_an_unknown_section(
        series_csv, tmp_path, capsys, config, code, kind):
    (tmp_path / "a_directory").mkdir()
    (tmp_path / "unknown_section.ini").write_text("[optimizer]\nmomentum = 0.9\n",
                                                  encoding="utf-8")
    extra = ["--config", str(tmp_path / config)]
    assert main(train_args(series_csv, tmp_path / "out", extra=extra)) == code
    _single_error_line(capsys.readouterr().err, kind)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["train", "eval"],
                         ids=["train_without_data", "eval_without_checkpoint"])
def test_command_without_its_input_exits_1(tmp_path, capsys, command):
    assert main([command, "--output", str(tmp_path / "out")]) == 1
    _single_error_line(capsys.readouterr().err, "config")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["predict", "--start", "-1"],
    ["predict", "--start", "341"],  # 400 rows, a window of 48 + 12
    ["spectrum", "--start", "-1", "--len", "48"],
    ["spectrum", "--start", "353", "--len", "48"],
    ["spectrum", "--len", "0"],
], ids=["predict_before", "predict_past", "spectrum_before", "spectrum_past", "spectrum_empty"])
def test_window_out_of_range_exits_1(series_csv, tmp_path, capsys, argv):
    path = tmp_path / "checkpoint.ftm"
    config = ModelConfig(lookback=48, horizon=12, channels=2, patch_scales=(12, 24))
    save_checkpoint(path, FtMixerParams.initialize(config))
    if argv[0] == "predict":
        argv = [*argv, "--checkpoint", str(path)]
    assert main([*argv, "--data", str(series_csv), "--output", str(tmp_path / "out")]) == 1
    _single_error_line(capsys.readouterr().err, "config")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("extra,ini", [
    (["--ratios", "nan,0.5,0.5"], ""),
    ([], "[io]\nratios = nan,0.5,0.5\n"),
    (["--seed", "-1"], ""),
], ids=["flag_ratios", "ini_ratios", "flag_seed"])
def test_non_finite_ratios_and_negative_seed_exit_1(series_csv, tmp_path, capsys, extra, ini):
    cfg = tmp_path / "run.ini"
    cfg.write_text(ini, encoding="utf-8")
    code = main(train_args(series_csv, tmp_path / "out", extra=["--config", str(cfg), *extra]))
    assert code == 1
    _single_error_line(capsys.readouterr().err, "config")


def test_eval_on_checkpoint_with_negative_seed_exits_2(series_csv, tmp_path, capsys):
    path = tmp_path / "checkpoint.ftm"
    config = ModelConfig(lookback=48, horizon=12, channels=2, patch_scales=(12, 24))
    save_checkpoint(path, FtMixerParams.initialize(config),
                    {"model_config": dict(config.to_dict(), seed=-1)})
    code = main([
        "eval",
        "--data", str(series_csv),
        "--output", str(tmp_path / "run"),
        "--checkpoint", str(path),
    ])
    assert code == 2
    err = capsys.readouterr().err
    _single_error_line(err, "data")
    assert "seed must be >= 0" in err


@pytest.mark.parametrize("ablation", ["no_fcc", "no_wfc"])
def test_eval_reproduces_report_for_ablated_checkpoint(series_csv, tmp_path, capsys, ablation):
    out = tmp_path / "run"
    assert main(train_args(series_csv, out, extra=["--ablation", ablation])) == 0
    report = json.loads((out / "report.json").read_text())
    capsys.readouterr()
    code = main([
        "eval",
        "--data", str(series_csv),
        "--output", str(out),
        "--checkpoint", str(out / "checkpoint.ftm"),
        "--split", "test",
    ])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["mse"] == report["report"]["test_mse"]


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_eval_on_non_finite_checkpoint_exits_2(series_csv, tmp_path, capsys, bad):
    path = tmp_path / "checkpoint.ftm"
    params = FtMixerParams.initialize(
        ModelConfig(lookback=48, horizon=12, channels=2, patch_scales=(12, 24))
    )
    params["fcc_embed_b"].values[3] = bad
    save_checkpoint(path, params)
    code = main([
        "eval",
        "--data", str(series_csv),
        "--output", str(tmp_path / "run"),
        "--checkpoint", str(path),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert "ftmixer: error: data:" in err and "fcc_embed_b" in err


def test_eval_on_checkpoint_whose_prediction_overflows_exits_3(series_csv, tmp_path, capsys):
    path = tmp_path / "checkpoint.ftm"
    params = FtMixerParams.initialize(
        ModelConfig(lookback=48, horizon=12, channels=2, patch_scales=(12, 24))
    )
    params["pred_w"].values[...] *= 1e200
    save_checkpoint(path, params)
    out = tmp_path / "run"
    code = main(["eval", "--data", str(series_csv), "--output", str(out),
                 "--checkpoint", str(path)])
    assert code == 3
    _single_error_line(capsys.readouterr().err, "numeric")
    assert not (out / "metrics.json").exists()


def test_model_too_large_to_allocate_exits_1(series_csv, tmp_path, capsys):
    cfg = tmp_path / "huge.ini"
    cfg.write_text(f"[model]\nfcc_embed_dim = {10**30}\n", encoding="utf-8")
    code = main(train_args(series_csv, tmp_path / "run", ["--config", str(cfg)]))
    assert code == 1
    _single_error_line(capsys.readouterr().err, "config")


@pytest.mark.parametrize("train_config", ["full", {"ablation": "bogus"}])
def test_eval_on_malformed_train_config_exits_2(series_csv, tmp_path, capsys, train_config):
    path = tmp_path / "checkpoint.ftm"
    config = ModelConfig(lookback=48, horizon=12, channels=2, patch_scales=(12, 24))
    save_checkpoint(path, FtMixerParams.initialize(config), {"train_config": train_config})
    code = main([
        "eval",
        "--data", str(series_csv),
        "--output", str(tmp_path / "run"),
        "--checkpoint", str(path),
    ])
    assert code == 2
    assert "malformed train_config" in capsys.readouterr().err


def test_sweep_honours_config_file_model_keys(series_csv, tmp_path, monkeypatch):
    # the package exports the function train() under the module's name
    train_mod = importlib.import_module("ftmixer.train")
    real_train = train_mod.train
    seen = []

    def spy(model_config, *args, **kwargs):
        seen.append(model_config)
        return real_train(model_config, *args, **kwargs)

    monkeypatch.setattr(train_mod, "train", spy)
    cfg = tmp_path / "run.ini"
    cfg.write_text("[model]\nfcc_embed_dim = 8\n", encoding="utf-8")
    code = main([
        "sweep", "--config", str(cfg), "--data", str(series_csv),
        "--output", str(tmp_path / "sweep"), "--lengths", "24,48",
        "--horizon", "12", "--epochs", "1",
    ])
    assert code == 0
    assert [c.lookback for c in seen] == [24, 48]
    assert all(c.fcc_embed_dim == 8 for c in seen)


def test_sweep_ignores_model_patch_scales_it_replaces(series_csv, tmp_path, monkeypatch):
    train_mod = importlib.import_module("ftmixer.train")
    real_train = train_mod.train
    seen = []

    def spy(model_config, *args, **kwargs):
        seen.append(model_config)
        return real_train(model_config, *args, **kwargs)

    monkeypatch.setattr(train_mod, "train", spy)
    cfg = tmp_path / "run.ini"
    cfg.write_text("[model]\npatch_scales = 5\n", encoding="utf-8")
    code = main([
        "sweep", "--config", str(cfg), "--data", str(series_csv),
        "--output", str(tmp_path / "sweep"), "--lengths", "24,48",
        "--horizon", "12", "--epochs", "1",
    ])
    assert code == 0
    assert [c.lookback for c in seen] == [24, 48]
    assert 5 not in {w for c in seen for w in c.patch_scales}


def test_sweep_without_lengths_is_config_error(series_csv, tmp_path, capsys):
    code = main(["sweep", "--data", str(series_csv), "--output", str(tmp_path / "sweep"),
                 "--lengths", ","])
    assert code == 1
    assert "--lengths names no lookback" in capsys.readouterr().err


@pytest.mark.parametrize("write", [
    lambda path: cli._write_json(path, {"a": 1, "b": object()}),
    lambda path: cli._write_csv(path, {}, ["x"], ([i] if i < 3 else 1 / 0 for i in range(5))),
], ids=["json", "csv"])
def test_artifact_writers_leave_old_file_on_failure(tmp_path, write):
    path = tmp_path / "artifact"
    path.write_bytes(b"previous run\n")
    with pytest.raises((TypeError, ZeroDivisionError)):
        write(path)
    assert path.read_bytes() == b"previous run\n"
    assert list(tmp_path.iterdir()) == [path]


# One non-default value for every config field the INI file can set.
FILE_SETTINGS = {
    "model": {
        "lookback": ("48", 48),
        "horizon": ("12", 12),
        "fcc_embed_dim": ("8", 8),
        "patch_scales": ("6,16", (6, 16)),
        "patch_embed_dim": ("4", 4),
        "fcc_kernel_size": ("1", 1),
        "wfc_kernel_size": ("2", 2),
        "ds_dw_kernel_size": ("5", 5),
        "revin_epsilon": ("0.001", 0.001),
    },
    "train": {
        "epochs": ("1", 1),
        "batch_size": ("7", 7),
        "learning_rate": ("0.002", 0.002),
        "patience": ("2", 2),
        "seed": ("4", 4),
        "ablation": ("no_time_loss", "no_time_loss"),
        "clip_norm": ("3.0", 3.0),
        "eval_batch_size": ("9", 9),
    },
}


def test_every_config_field_is_settable_from_the_config_file(series_csv, tmp_path,
                                                             monkeypatch):
    model_fields = {f.name: f.default for f in fields(ModelConfig)}
    train_fields = {f.name: f.default for f in fields(TrainConfig)}
    assert set(FILE_SETTINGS["model"]) == set(model_fields) - {"channels", "seed"}
    assert set(FILE_SETTINGS["train"]) == set(train_fields)
    built = []
    real_train = cli.train

    def spy(model_config, train_config, dataset, checkpoint_path=None):
        built.append((model_config, train_config))
        return real_train(model_config, train_config, dataset, checkpoint_path)

    monkeypatch.setattr(cli, "train", spy)
    cfg = tmp_path / "all.ini"
    cfg.write_text(
        "".join(
            f"[{section}]\n" + "".join(f"{k} = {text}\n" for k, (text, _) in keys.items())
            for section, keys in FILE_SETTINGS.items()
        ),
        encoding="utf-8",
    )
    out = tmp_path / "out"
    assert main(["train", "--config", str(cfg), "--data", str(series_csv),
                 "--output", str(out)]) == 0
    (model_config, train_config), = built
    for config, section, defaults in (
        (model_config, "model", model_fields),
        (train_config, "train", train_fields),
    ):
        for key, (_, value) in FILE_SETTINGS[section].items():
            assert value != defaults[key], key
            assert getattr(config, key) == value, key
    assert model_config.channels == 2 and model_config.seed == 4
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["train"]["learning_rate"] == 0.002
