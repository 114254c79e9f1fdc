"""Run one workload over several seeds and summarize each metric.

    python3 perfbench/summarize.py eval_etth1 1-10 [--seconds 30] [--trace 1] [--out FILE]
                                   [--label "set A"]

Prints, per metric, the median, the quartiles from
``statistics.quantiles(values, n=4)`` and their distance as a share of the
median. With ``--out``, the summary is merged into that JSON file under the
workload's name, prefixed with ``--label`` if given (``baseline.json`` holds
this commit's figures, as two separate sets).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

RUN = Path(__file__).with_name("run.py")


def seeds_from(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload")
    parser.add_argument("seeds", type=seeds_from, help="e.g. 1-10")
    parser.add_argument("--seconds", default="30")
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    parser.add_argument("--out", type=Path)
    parser.add_argument("--label", help="prefix of the key under --out, e.g. 'set A'")
    args = parser.parse_args()

    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    failures = []
    for seed in args.seeds:
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
             "--seconds", args.seconds, "--trace", args.trace],
            cwd=RUN.parent.parent, capture_output=True, text=True, timeout=900,
        )
        if proc.returncode:
            print(proc.stdout[-2000:], proc.stderr[-2000:])
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            failures.append(seed)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        print(f"seed {seed}: {time.perf_counter() - start:.1f}s wall, correct {result['correct']}",
              flush=True)

    summary = {}
    for name, vals in values.items():
        q1, median, q3 = statistics.quantiles(vals, n=4)
        median = statistics.median(vals)
        spread = (q3 - q1) / abs(median) if median else float("nan")
        summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                         "unit": units[name], "values": vals}
        print(f"  {name:40s} median {median:12.6g} {units[name]:6s} spread {spread:.4f}")
    if failures:
        print("incorrect results for seeds", failures)
    if args.out:
        table = json.loads(args.out.read_text()) if args.out.exists() else {}
        key = args.workload + (" traced" if args.trace == "1" else "")
        if args.label:
            key = f"{args.label} {key}"
        table[key] = {"seeds": args.seeds, "seconds": float(args.seconds), "metrics": summary}
        args.out.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
