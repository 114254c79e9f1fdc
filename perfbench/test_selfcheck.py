"""Keeps the benchmark from rotting: every workload, untraced and traced, at a
tiny size. It checks that each run completes, passes its output checks and
reports every metric; it makes no timing assertions.

    python3 -m pytest perfbench
"""

import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).with_name("run.py")


def test_selfcheck_runs_every_workload_at_tiny_size():
    proc = subprocess.run(
        [sys.executable, str(RUN), "--selfcheck"],
        cwd=RUN.parent.parent, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.count("correct True") == 8, proc.stdout
