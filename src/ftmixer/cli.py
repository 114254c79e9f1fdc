"""Command line interface: train / eval / predict / spectrum / sweep.

Settings come from built-in defaults, overridden by an INI-style
``key = value`` config file, overridden by command-line flags.  The
[model] keys are the ModelConfig field names but ``channels`` (from the
data) and ``seed`` (from [train]), the [train] keys are the TrainConfig
field names (so the learning rate is ``learning_rate``, formerly ``lr``;
the flag stays ``--lr``), and [io] holds data, output, checkpoint and
ratios.  Config values are read as written: a ``%`` is not interpolated.
Every artifact embeds the effective settings and seed, and is written
under a temporary name, then renamed into place.  Exit codes: 0 ok,
1 configuration error (an output file that cannot be written included),
2 data error, 3 numeric abort.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import sys
from dataclasses import fields
from pathlib import Path

from . import data as data_mod
from . import diffarray as da
from . import spectral
from .errors import ConfigError, DataError, FtMixerError, NumericError
from .model import (
    ABLATIONS,
    ModelConfig,
    ftmixer_forward,
    load_checkpoint,
)
from .train import TrainConfig, evaluate, run_length_sweep, train


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(",") if part.strip())


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(part) for part in text.split(",") if part.strip())


# keyed by annotation text: the config modules postpone annotations
_PARSE_BY_ANNOTATION = {
    "int": int,
    "int | None": int,
    "float": float,
    "str": str,
    "tuple[int, ...] | None": _int_list,
}


def _field_settings(cls, skip=(), defaults=None) -> dict:
    """key -> (default, parser) for each field of a config dataclass."""
    defaults = defaults or {}
    return {
        f.name: (defaults.get(f.name, f.default), _PARSE_BY_ANNOTATION[f.type])
        for f in fields(cls)
        if f.name not in skip
    }


_SETTINGS = {
    # lookback and horizon have no field default
    "model": _field_settings(
        ModelConfig,
        skip=("channels", "seed"),
        defaults={"lookback": 336, "horizon": 96},
    ),
    "train": _field_settings(TrainConfig),
    "io": {
        "data": (None, str),
        "output": ("ftmixer_out", str),
        "checkpoint": (None, str),
        "ratios": ((0.6, 0.2, 0.2), _float_list),
    },
}


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors map to our config exit code."""

    def error(self, message):
        raise ConfigError(message)


def _read_config_file(path) -> dict:
    import configparser

    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as f:
            parser.read_file(f)
    except OSError as exc:
        raise DataError(f"cannot read config file {path}: {exc}") from None
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"malformed config file {path}: {exc}") from None
    merged: dict = {}
    for section in parser.sections():
        if section not in _SETTINGS:
            raise ConfigError(f"unknown config section [{section}]")
        merged[section] = {}
        for key, text in parser.items(section):
            if key not in _SETTINGS[section]:
                raise ConfigError(f"unknown config key {key!r} in section [{section}]")
            try:
                merged[section][key] = _SETTINGS[section][key][1](text)
            except ValueError as exc:
                raise ConfigError(f"[{section}] {key} = {text!r}: {exc}") from None
    return merged


def _effective_settings(args) -> dict:
    """defaults <- config file <- flags; a flag's dest is its key."""
    effective = {
        section: {key: default for key, (default, _) in keys.items()}
        for section, keys in _SETTINGS.items()
    }
    if args.config:
        for section, values in _read_config_file(args.config).items():
            effective[section].update(values)
    for values in effective.values():
        for key in values:
            flag = getattr(args, key, None)
            if flag is not None:
                values[key] = flag
    return effective


def _model_config(settings: dict, channels: int, **overrides) -> ModelConfig:
    model = dict(settings["model"], **overrides)
    return ModelConfig(channels=channels, seed=settings["train"]["seed"], **model)


def _train_config(settings: dict) -> TrainConfig:
    return TrainConfig(**settings["train"])


def _require_data(settings: dict) -> data_mod.SeriesDataset:
    path = settings["io"]["data"]
    if not path:
        raise ConfigError("no dataset given; pass --data or set io.data in the config file")
    return data_mod.load_csv(path)


def _out_dir(settings: dict) -> Path:
    """The artifact directory, made if missing; called before any work."""
    out = Path(settings["io"]["output"])
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot use output directory {out}: {exc.strerror or exc}") from None
    return out


def _write_csv(path: Path, settings: dict, header: list[str], rows) -> None:
    with da._atomic_file(path, text=True) as f:
        f.write("# config: " + json.dumps(settings, sort_keys=True, default=str) + "\n")
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(path: Path, payload: dict) -> None:
    with da._atomic_file(path, text=True) as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


# ---------------------------------------------------------------------------
# subcommands


def cmd_train(args, settings: dict) -> int:
    raw = _require_data(settings)
    model_config = _model_config(settings, raw.channels)
    train_config = _train_config(settings)
    prepared = data_mod.prepare(
        raw, settings["io"]["ratios"], model_config.lookback, model_config.horizon
    )
    out = _out_dir(settings)
    for artifact in ("report.json", "losses.csv"):
        da.require_writable(out / artifact)
    checkpoint = out / "checkpoint.ftm"
    report, _ = train(model_config, train_config, prepared, checkpoint_path=checkpoint)
    _write_json(out / "report.json", {"config": settings, "report": report.to_dict()})
    _write_csv(
        out / "losses.csv",
        settings,
        ["epoch", "time_loss", "freq_loss", "total", "val_mse"],
        [
            [e["epoch"], e["time_loss"], e["freq_loss"], e["total"], e["val_mse"]]
            for e in report.epochs
        ],
    )
    print(
        f"trained {raw.name}: best epoch {report.best_epoch}, "
        f"test mse {report.test_mse:.6f}, mae {report.test_mae:.6f} "
        f"({report.wall_seconds:.1f}s); artifacts in {out}"
    )
    return 0


def _load_for_eval(settings):
    """Checkpoint parameters, the prepared dataset, and the ablation the
    checkpoint was trained with ("full" when it records none)."""
    path = settings["io"]["checkpoint"]
    if not path:
        raise ConfigError("no checkpoint given; pass --checkpoint")
    params, meta = load_checkpoint(path)
    trained_with = meta.get("train_config", {})
    ablation = trained_with.get("ablation", "full") if isinstance(trained_with, dict) else None
    if ablation not in ABLATIONS:
        raise DataError(f"{path}: malformed train_config: {trained_with!r}")
    raw = _require_data(settings)
    prepared = data_mod.prepare(
        raw, settings["io"]["ratios"], params.config.lookback, params.config.horizon
    )
    return params, prepared, ablation


def cmd_eval(args, settings: dict) -> int:
    params, prepared, ablation = _load_for_eval(settings)
    out = _out_dir(settings)
    metrics = evaluate(
        params,
        params.config,
        prepared,
        args.split,
        batch_size=_train_config(settings).eval_batch_size,
        ablation=ablation,
    )
    _write_json(out / "metrics.json", dict(metrics, config=settings))
    print(json.dumps(metrics, sort_keys=True))
    return 0


def cmd_predict(args, settings: dict) -> int:
    params, prepared, ablation = _load_for_eval(settings)
    config = params.config
    span = config.lookback + config.horizon
    start = args.start if args.start is not None else prepared.val_end
    if start is None or start < 0 or start + span > prepared.length:
        raise ConfigError(
            f"window start {start} out of range; need 0 <= start <= "
            f"{prepared.length - span}"
        )
    out = _out_dir(settings)
    window = prepared.values[:, start : start + span]
    pred_std = ftmixer_forward(
        window[None, :, : config.lookback], params.frozen(), config, ablation=ablation
    ).values[0]
    stats = prepared.norm_stats
    predicted = data_mod.destandardize(pred_std, stats)
    actual = data_mod.destandardize(window[:, config.lookback :], stats)
    rows = []
    for c, name in enumerate(prepared.channel_names):
        for step in range(config.horizon):
            rows.append(
                [name, step, repr(float(predicted[c, step])), repr(float(actual[c, step]))]
            )
    _write_csv(out / "forecast.csv", settings, ["channel", "step", "predicted", "actual"], rows)
    print(f"wrote {len(rows)} forecast rows to {out / 'forecast.csv'}")
    return 0


def cmd_spectrum(args, settings: dict) -> int:
    raw = _require_data(settings)
    if not 0 <= args.channel < raw.channels:
        raise ConfigError(f"channel {args.channel} out of range (dataset has {raw.channels})")
    if args.len < 1 or args.start < 0 or args.start + args.len > raw.length:
        raise ConfigError(
            f"window [{args.start}, {args.start + args.len}) out of range for "
            f"length {raw.length}"
        )
    out = _out_dir(settings)
    segment = raw.values[args.channel, args.start : args.start + args.len]
    coefficients = spectral.dct(segment)
    _write_csv(
        out / "spectrum.csv",
        settings,
        ["k", "coefficient"],
        [[k, repr(float(c))] for k, c in enumerate(coefficients)],
    )
    print(f"wrote {len(coefficients)} coefficients to {out / 'spectrum.csv'}")
    return 0


def cmd_sweep(args, settings: dict) -> int:
    if not args.lengths:
        raise ConfigError("--lengths names no lookback")
    raw = _require_data(settings)
    # every length replaces the lookback and patch scales, so [model]'s
    # own are never used: check the rest at the first length
    first = args.lengths[0]
    base_config = _model_config(settings, raw.channels, lookback=first, patch_scales=None)
    train_config = _train_config(settings)
    out = _out_dir(settings)
    da.require_writable(out / "sweep.csv")
    rows = run_length_sweep(
        raw,
        settings["io"]["ratios"],
        args.lengths,
        settings["model"]["horizon"],
        train_config,
        base_config=base_config,
    )
    _write_csv(
        out / "sweep.csv",
        settings,
        ["lookback", "mse", "mae"],
        [[r["lookback"], r["mse"], r["mae"]] for r in rows],
    )
    for r in rows:
        print(f"lookback {r['lookback']}: mse {r['mse']:.6f}, mae {r['mae']:.6f}")
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ftmixer", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def shared(p):
        p.add_argument("--config", help="INI config file ([model]/[train]/[io] sections)")
        p.add_argument("--data", help="dataset CSV (first column 'date')")
        p.add_argument("--output", help="artifact directory")
        p.add_argument("--seed", type=int, help="seed for init and shuffling")
        p.add_argument("--ratios", type=_float_list,
                       help="train,val,test fractions (default 0.6,0.2,0.2)")

    def model_flags(p):
        p.add_argument("--lookback", type=int)
        p.add_argument("--horizon", type=int)
        p.add_argument("--patch-scales", dest="patch_scales", type=_int_list)

    def train_flags(p):
        p.add_argument("--epochs", type=int)
        p.add_argument("--batch-size", dest="batch_size", type=int)
        p.add_argument("--lr", dest="learning_rate", type=float)
        p.add_argument("--patience", type=int)
        p.add_argument("--ablation", choices=ABLATIONS)

    p_train = sub.add_parser("train", help="train a model and write checkpoint + report")
    shared(p_train)
    model_flags(p_train)
    train_flags(p_train)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on one split")
    shared(p_eval)
    p_eval.add_argument("--checkpoint")
    p_eval.add_argument("--split", default="test", choices=data_mod.SPLITS)
    p_eval.set_defaults(func=cmd_eval)

    p_pred = sub.add_parser("predict", help="forecast one window to CSV")
    shared(p_pred)
    p_pred.add_argument("--checkpoint")
    p_pred.add_argument("--start", type=int, help="input-window start index (default: first test window)")
    p_pred.set_defaults(func=cmd_predict)

    p_spec = sub.add_parser("spectrum", help="emit transform coefficients of a raw window")
    shared(p_spec)
    p_spec.add_argument("--channel", type=int, default=0)
    p_spec.add_argument("--start", type=int, default=0)
    p_spec.add_argument("--len", type=int, required=True)
    p_spec.set_defaults(func=cmd_spectrum)

    p_sweep = sub.add_parser("sweep", help="train across lookback lengths")
    shared(p_sweep)
    train_flags(p_sweep)
    p_sweep.add_argument("--lengths", type=_int_list, default=(96, 192, 336, 720),
                         help="comma-separated lookbacks (default 96,192,336,720)")
    p_sweep.add_argument("--horizon", type=int)
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(message)s", stream=sys.stderr)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args, _effective_settings(args))
    except DataError as exc:
        print(f"ftmixer: error: data: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"ftmixer: error: numeric: {exc}", file=sys.stderr)
        return 3
    except FtMixerError as exc:
        print(f"ftmixer: error: config: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
