"""Seeded fuzz of the command line.

Mutated checkpoints go through ``eval``, mutated config files through
``train``, mutated flag values through every subcommand, and mutated
series bytes through ``train`` and ``spectrum``, all on a tiny series.
Every case must end in an exit code of 0-3 with at most one
``ftmixer: error:`` line and no escaped exception, and must leave no
temporary file in the output directory.

Tier-1 runs 300 cases of each.  Run more, of all four, with::

    PYTHONPATH=src python tests/test_cli_fuzz.py --cases 3000 --seed 1
"""

import argparse
import contextlib
import io
import random
import struct
import warnings
import zlib
from dataclasses import fields
from pathlib import Path

from ftmixer.cli import main
from ftmixer.model import FtMixerParams, ModelConfig, save_checkpoint
from ftmixer.train import TrainConfig

from helpers import sinusoid_dataset

TIER1_CASES = 300

MODEL = {"lookback": "24", "horizon": "6", "patch_scales": "6,12",
         "fcc_embed_dim": "8", "patch_embed_dim": "4"}
TRAIN = {"epochs": "1", "batch_size": "16", "patience": "1", "eval_batch_size": "32"}
BOUNDED = ["nan", "inf", "-inf", "", "0", "-1", "2.5", "٣", "３", "١٢",
           "6,,12", "a,b", ",", "6;12", "6, 1e3", "0.6,0.2", "1,1,-1", "12,6", " ", "x"]
VALUES = BOUNDED + ["9" * 30, "1e308", str(2**63)]
# signed, hex and underscored integers, as argv might carry them; 1_000
# parses, and as an epoch count it would run for ever
SIGNED = ["-5", "-0", "+3", "0x10"]
ARGV_VALUES = VALUES + SIGNED + ["1_000"]
# quotes, separators, line ends, bytes that are not text or are line
# breaks to str.splitlines, non-finite and finite extreme numbers
CSV_TOKENS = [b'"', b",", b"\r", b"\n", b"\r\n", b"\x00", b"\xff", "\ufeff".encode(),
              "\u2028".encode(), "\x85".encode(), b"\x1c", b"nan", b"1e999",
              b"1.5e308", b"-1.7e308", b"5e-324"]


def write_series(path: Path, steps: int = 200) -> None:
    ds = sinusoid_dataset(steps=steps, period=12.0, channels=2)
    rows = (f"{t}," + ",".join(repr(float(v)) for v in ds.values[:, t]) for t in range(steps))
    path.write_text("date,a,b\n" + "\n".join(rows) + "\n", encoding="utf-8")


def run_cli(argv) -> tuple[int, str]:
    """``main(argv)``'s exit code and stderr; an escaped exception fails."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue()


def check_outcome(code: int, err: str, out_dir: Path, case) -> None:
    assert code in (0, 1, 2, 3), (case, code, err)
    assert "Traceback" not in err, (case, err)
    assert err.count("ftmixer: error:") <= 1, (case, err)
    assert (code == 0) == ("ftmixer: error:" not in err), (case, code, err)
    assert not list(out_dir.rglob("*.tmp")), case


def write_tiny_model(root: Path) -> tuple[Path, Path]:
    """An INI file with the tiny run's [model] and [train] sections, and a
    checkpoint of that model for a 2-channel series."""
    ini = root / "tiny.ini"
    ini.write_text("[model]\nfcc_embed_dim = 8\npatch_embed_dim = 4\n"
                   "[train]\neval_batch_size = 32\n", encoding="utf-8")
    config = ModelConfig(lookback=24, horizon=6, channels=2, patch_scales=(6, 12),
                         fcc_embed_dim=8, patch_embed_dim=4)
    checkpoint = root / "base.ftm"
    save_checkpoint(checkpoint, FtMixerParams.initialize(config),
                    {"train_config": TrainConfig().to_dict()})
    return ini, checkpoint


def mutate_checkpoint(rng: random.Random, raw: bytes) -> bytes:
    """One to three seeded edits (a flipped bit, a cut, an insert or an
    overwrite), then, half the time, a fresh checksum so the edit reaches
    the parser behind it."""
    for _ in range(rng.randint(1, 3)):
        edit = rng.randrange(4)
        at = rng.randrange(len(raw) + 1)
        junk = bytes(rng.randrange(256) for _ in range(rng.randint(1, 8)))
        if edit == 0 and at < len(raw):
            raw = raw[:at] + bytes([raw[at] ^ (1 << rng.randrange(8))]) + raw[at + 1:]
        elif edit == 1:
            raw = raw[:at]
        elif edit == 2:
            raw = raw[:at] + junk + raw[at:]
        else:
            raw = raw[:at] + junk + raw[at + len(junk):]
    if rng.random() < 0.5 and len(raw) >= 4:
        body = raw[:-4]
        raw = body + struct.pack("<I", zlib.crc32(body))
    return raw


def fuzz_checkpoints(root: Path, cases: int, seed: int = 2705) -> set[int]:
    series = root / "series.csv"
    write_series(series)
    _, base = write_tiny_model(root)
    raw = base.read_bytes()
    rng = random.Random(seed)
    path, out = root / "checkpoint.ftm", root / "eval"
    codes = set()
    for case in range(cases):
        mutated = mutate_checkpoint(rng, raw)
        path.write_bytes(mutated)
        code, err = run_cli(["eval", "--data", str(series), "--output", str(out),
                             "--checkpoint", str(path)])
        check_outcome(code, err, root, (case, mutated))
        codes.add(code)
    return codes


def mutate_config(rng: random.Random) -> dict:
    """The tiny run's settings with one to three values replaced."""
    settings = {"model": dict(MODEL), "train": dict(TRAIN), "io": {}}
    keys = [("model", f.name) for f in fields(ModelConfig) if f.name not in ("channels", "seed")]
    keys += [("train", f.name) for f in fields(TrainConfig)] + [("io", "ratios")]
    for _ in range(rng.randint(1, 3)):
        section, key = rng.choice(keys)
        # a huge epoch count is valid and would run for ever
        settings[section][key] = rng.choice(BOUNDED if key == "epochs" else VALUES)
    return settings


def fuzz_configs(root: Path, cases: int, seed: int = 2706) -> set[int]:
    series = root / "series.csv"
    write_series(series)
    rng = random.Random(seed)
    ini = root / "run.ini"
    codes = set()
    for case in range(cases):
        settings = mutate_config(rng)
        ini.write_text("".join(
            f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in values.items())
            for section, values in settings.items()), encoding="utf-8")
        code, err = run_cli(["train", "--config", str(ini), "--data", str(series),
                             "--output", str(root / "out")])
        check_outcome(code, err, root, (case, settings))
        codes.add(code)
    return codes


def valid_argv(series: Path, ini: Path, checkpoint: Path) -> dict[str, dict[str, str]]:
    """A tiny valid run of each subcommand: every flag that takes a value
    but ``--output``, which stays inside the fuzz's own directory."""
    shared = {"--config": str(ini), "--data": str(series), "--seed": "1",
              "--ratios": "0.6,0.2,0.2"}
    training = {"--epochs": "1", "--batch-size": "16", "--lr": "0.001",
                "--patience": "1", "--ablation": "full"}
    return {
        "train": {**shared, **training, "--lookback": "24", "--horizon": "6",
                  "--patch-scales": "6,12"},
        "eval": {**shared, "--checkpoint": str(checkpoint), "--split": "val"},
        "predict": {**shared, "--checkpoint": str(checkpoint), "--start": "150"},
        "spectrum": {**shared, "--channel": "1", "--start": "10", "--len": "32"},
        "sweep": {**shared, **training, "--lengths": "12", "--horizon": "6"},
    }


def command_line(command: str, flags: dict[str, str], out: Path) -> list[str]:
    return [command, "--output", str(out), *(part for flag in flags.items() for part in flag)]


def fuzz_argv(root: Path, cases: int, seed: int = 2707) -> set[int]:
    series = root / "series.csv"
    write_series(series)
    commands = valid_argv(series, *write_tiny_model(root))
    rng = random.Random(seed)
    codes = set()
    for case in range(cases):
        command = rng.choice(sorted(commands))
        flags = dict(commands[command])
        for _ in range(rng.randint(1, 3)):
            flag = rng.choice(sorted(flags))
            flags[flag] = rng.choice(BOUNDED + SIGNED if flag == "--epochs" else ARGV_VALUES)
        argv = command_line(command, flags, root / "out")
        code, err = run_cli(argv)
        check_outcome(code, err, root, (case, argv))
        codes.add(code)
    return codes


def mutate_series(rng: random.Random, raw: bytes) -> bytes:
    """One to three seeded edits, each inserting a token, overwriting as
    many bytes with it, or putting it in place of a whole cell."""
    for _ in range(rng.randint(1, 3)):
        token = rng.choice(CSV_TOKENS)
        at = rng.randrange(len(raw) + 1)
        edit = rng.randrange(3)
        if edit == 0:
            start = end = at
        elif edit == 1:
            start, end = at, at + len(token)
        else:
            start = max(raw.rfind(b",", 0, at), raw.rfind(b"\n", 0, at)) + 1
            stops = [i for i in (raw.find(b",", at), raw.find(b"\n", at)) if i >= 0]
            end = min(stops, default=len(raw))
        raw = raw[:start] + token + raw[end:]
    return raw


def fuzz_csv(root: Path, cases: int, seed: int = 2708) -> set[int]:
    series = root / "series.csv"
    write_series(series)
    raw = series.read_bytes()
    path = root / "mutated.csv"
    commands = valid_argv(path, *write_tiny_model(root))
    rng = random.Random(seed)
    codes = set()
    for case in range(cases):
        mutated = mutate_series(rng, raw)
        path.write_bytes(mutated)
        for command in ("train", "spectrum"):
            code, err = run_cli(command_line(command, commands[command], root / "out"))
            check_outcome(code, err, root, (case, command, mutated))
            codes.add(code)
            if code == 2:  # spectrum would stop at the same load_csv error
                break
    return codes


def test_fuzzed_checkpoints_through_eval(tmp_path):
    codes = fuzz_checkpoints(tmp_path, TIER1_CASES)
    assert 2 in codes and len(codes) >= 2, codes  # some edits get past the checksum


def test_fuzzed_config_files_through_train(tmp_path):
    codes = fuzz_configs(tmp_path, TIER1_CASES)
    assert {0, 1} <= codes, codes


def test_fuzzed_argv_through_every_command(tmp_path):
    codes = fuzz_argv(tmp_path, TIER1_CASES)
    assert {0, 1, 2} <= codes, codes


def test_fuzzed_csv_bytes_through_train_and_spectrum(tmp_path):
    codes = fuzz_csv(tmp_path, TIER1_CASES)
    assert {0, 2, 3} <= codes, codes  # the finite extremes reach the numeric checks


if __name__ == "__main__":
    import tempfile

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cases", type=int, default=TIER1_CASES)
    parser.add_argument("--seed", type=int, default=0, help="offset added to every seed")
    args = parser.parse_args()
    warnings.simplefilter("error", RuntimeWarning)  # as tier-1 treats them
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for offset, (name, fuzz) in enumerate((("eval", fuzz_checkpoints),
                                               ("train", fuzz_configs),
                                               ("argv", fuzz_argv),
                                               ("csv", fuzz_csv))):
            (root / name).mkdir()
            codes = fuzz(root / name, args.cases, 2705 + offset + args.seed)
            print(name, "exit codes", sorted(codes))
