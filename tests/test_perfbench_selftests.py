"""The benchmark's own checks, run against this checkout's program.

`perfbench/check_tests.py` shows each correctness check failing on a
corrupted input and checks that `checks.regenerate` rebuilds the cases
`gen_thm_hypothesis_instance` generates, so a change to the program that
breaks the benchmark's checks fails here as well.
"""
from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_self_tests_pass():
    proc = subprocess.run([sys.executable, "perfbench/check_tests.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
