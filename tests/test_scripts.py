"""Smoke runs of the timing scripts, which import parts of perfbench/."""

import importlib.util
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


def test_a_claimed_gain_needs_nine_of_ten_pairs_and_a_median_gain_beyond_the_spread():
    spec = importlib.util.spec_from_file_location("run_timing", ROOT / "scripts" / "run_timing.py")
    run_timing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run_timing)
    first = [1.0 + 0.01 * i for i in range(10)]  # Q3 - Q1 = 0.055
    assert run_timing.claim_verdict(first, [x - 0.1 for x in first]).endswith("claim holds")
    # Faster in 8 of 10 pairs.
    eight = first[:2] + [x - 0.1 for x in first[2:]]
    assert run_timing.claim_verdict(first, eight).endswith("claim fails")
    # Faster in every pair, by less than the spread.
    assert run_timing.claim_verdict(first, [x - 0.05 for x in first]).endswith("claim fails")
