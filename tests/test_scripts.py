"""Smoke runs of the timing scripts, which import parts of perfbench/."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("argv", [
    ["scripts/run_timing.py", "--pairs", "1", "--workloads", "ablate-spiral-global"],
    ["scripts/extension_timing.py", "--repeats", "1", "--inputs", "ablate-spiral-global"],
])
def test_timing_script_prints_the_workload_row(argv):
    child = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, capture_output=True, text=True, timeout=300
    )
    assert child.returncode == 0, child.stderr
    rows = [line.split() for line in child.stdout.splitlines()]
    assert ["ablate-spiral-global", "0"] in [row[:2] for row in rows]
