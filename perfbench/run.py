"""FTMixer benchmark: one workload per run, one JSON result line at the end.

    python3 perfbench/run.py --workload train_etth1 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selfcheck               # tiny sizes, no timing checks
    python3 perfbench/run.py --record-reference        # rewrite reference.json, seeds 0-15

Run it from the repository root: it imports ``ftmixer`` from ``src/`` next
to this directory and writes its generated inputs under ``.bench_work/``.
With ``--trace 0`` the result holds the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run. See README.md.
"""

from __future__ import annotations

import os
import sys

# One BLAS thread, pinned before numpy loads: on a shared 2-core x86-64 host a
# second thread bought under 5% at these sizes while adding spread.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import importlib
import json
import math
import platform
import shutil
import subprocess
from pathlib import Path

import numpy as np

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = ("data", "model", "train", "loss_metrics", "spectral", "diffarray", "errors")


def import_package() -> dict:
    """The ftmixer modules from this checkout's ``src/``, by short name."""
    sys.path.insert(0, str(SRC))
    try:
        mods = {name: importlib.import_module(f"ftmixer.{name}") for name in MODULES}
    except ModuleNotFoundError as exc:
        raise SystemExit(f"cannot import ftmixer from {SRC}: {exc}") from None
    where = Path(mods["model"].__file__).resolve()
    if SRC not in where.parents:
        raise SystemExit(f"ftmixer imported from {where}, not from {SRC}")
    return mods


def environment(seed: int) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                "MKL_NUM_THREADS")},
        "commit": commit,
        "seed": seed,
    }


def run_one(spec, seed: int, seconds: float, trace: bool, mods: dict, reference=None):
    workdir = ROOT / ".bench_work" / f"{spec.name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return workloads.run(spec, seed, seconds, trace, workdir, mods, reference)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def result_line(work, metrics: dict, names) -> dict:
    missing = set(names) - set(metrics)
    if missing:
        raise SystemExit(f"metrics not measured: {sorted(missing)}")
    finite = all(isinstance(v, (int, float)) and math.isfinite(v) for v, _ in metrics.values())
    return {
        "correct": bool(finite and work.failed == 0 and not work.problems),
        "attempted": work.attempted,
        "failed": work.failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]} for name in names},
    }


def selfcheck(mods: dict) -> int:
    """Every workload at a tiny size, untraced and traced; checks shape only."""
    bad = []
    for spec in workloads.TINY_SPECS.values():
        for trace, names in ((False, workloads.END_TO_END), (True, workloads.PER_LAYER)):
            work, metrics = run_one(spec, 3, 0.0, trace, mods)
            result = result_line(work, metrics, names)
            if not result["correct"] or result["attempted"] < 1:
                bad.append((spec.name, trace, work.problems, result))
            print(f"selfcheck {spec.name} trace={int(trace)}: attempted "
                  f"{result['attempted']}, failed {result['failed']}, correct {result['correct']}")
    for item in bad:
        print("FAILED", item)
    return 1 if bad else 0


def record_reference(mods: dict) -> int:
    """Write the outputs of this commit for ``REFERENCE_SEEDS`` to reference.json."""
    table = {}
    for spec in workloads.SPECS.values():
        table[spec.name] = {}
        for seed in workloads.REFERENCE_SEEDS:
            work, _ = run_one(spec, seed, 0.0, False, mods)
            if work.failed or work.problems:
                print(f"{spec.name} seed {seed} failed: {work.problems}")
                return 1
            entry = {"quality_mse": work.quality}
            if spec.kind == "predict":
                entry["digest"] = workloads.digest(work.first_pass)
            table[spec.name][str(seed)] = entry
            print(f"recorded {spec.name} seed {seed}: {entry}")
    workloads.REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)

    mods = import_package()
    if args.selfcheck:
        return selfcheck(mods)
    if args.record_reference:
        return record_reference(mods)
    if args.workload not in workloads.SPECS:
        parser.error(f"--workload must be one of {sorted(workloads.SPECS)}")

    print("env", json.dumps(environment(args.seed), sort_keys=True))
    spec = workloads.SPECS[args.workload]
    reference = workloads.load_reference(spec.name, args.seed)
    work, metrics = run_one(spec, args.seed, args.seconds, bool(args.trace), mods, reference)
    print("samples", json.dumps(work.samples()), "reference", reference is not None)
    for problem in work.problems:
        print("problem:", problem)
    names = workloads.PER_LAYER if args.trace else workloads.END_TO_END
    print(json.dumps(result_line(work, metrics, names)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
