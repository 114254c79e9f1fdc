"""Seeded fuzz of the command line.

Mutated checkpoints go through ``eval`` and mutated config files through
``train`` on a tiny series.  Every case must end in an exit code of 0-3
with at most one ``ftmixer: error:`` line and no escaped exception, and
must leave no temporary file in the output directory.

Tier-1 runs a few dozen cases of each.  Run more by hand with::

    PYTHONPATH=src python tests/test_cli_fuzz.py --cases 3000
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
    config = ModelConfig(lookback=24, horizon=6, channels=2, patch_scales=(6, 12),
                         fcc_embed_dim=8, patch_embed_dim=4)
    base = root / "base.ftm"
    save_checkpoint(base, FtMixerParams.initialize(config),
                    {"train_config": TrainConfig().to_dict()})
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
        out = root / f"run{case}"
        code, err = run_cli(["train", "--config", str(ini), "--data", str(series),
                             "--output", str(out)])
        check_outcome(code, err, root, (case, settings))
        codes.add(code)
    return codes


def test_fuzzed_checkpoints_through_eval(tmp_path):
    codes = fuzz_checkpoints(tmp_path, TIER1_CASES)
    assert 2 in codes and len(codes) >= 2, codes  # some edits get past the checksum


def test_fuzzed_config_files_through_train(tmp_path):
    codes = fuzz_configs(tmp_path, TIER1_CASES)
    assert {0, 1} <= codes, codes


if __name__ == "__main__":
    import tempfile

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cases", type=int, default=TIER1_CASES)
    parser.add_argument("--seed", type=int, default=0, help="offset added to both seeds")
    args = parser.parse_args()
    warnings.simplefilter("error", RuntimeWarning)  # as tier-1 treats them
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "ckpt").mkdir()
        (root / "ini").mkdir()
        print("eval exit codes", sorted(fuzz_checkpoints(root / "ckpt", args.cases,
                                                         2705 + args.seed)))
        print("train exit codes", sorted(fuzz_configs(root / "ini", args.cases,
                                                      2706 + args.seed)))
