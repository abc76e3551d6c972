"""Smoke runs of the timing and memory scripts, which import parts of
perfbench/, and the CSV writer that the benchmark inputs and data/ are
written with."""

import compileall
import importlib.util
import platform
import re
import shutil
import subprocess
import sys
from itertools import zip_longest
from pathlib import Path

import numpy as np
import pytest

from ecac import load_csv

ROOT = Path(__file__).resolve().parents[1]


def load_script(name: str):
    """scripts/<name>.py by path: scripts/ is not a package."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("argv", [
    ["scripts/run_timing.py", "--pairs", "1", "--workloads", "ablate-spiral-global"],
    ["scripts/extension_timing.py", "--repeats", "1", "--inputs", "ablate-spiral-global",
     "--src", "src", "--src", "src"],
])
def test_timing_script_prints_the_workload_row(argv):
    child = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, capture_output=True, text=True, timeout=300
    )
    assert child.returncode == 0, child.stderr
    rows = [line.split() for line in child.stdout.splitlines()]
    assert ["ablate-spiral-global", "0"] in [row[:2] for row in rows]
    if argv[0] == "scripts/extension_timing.py":
        # The paired columns close each row: the first checkout's read
        # "-", the second's hold its median CPU-time ratio to the first
        # and the repeats in which it was faster.
        assert rows[0][-2:] == ["cpu/src0", "faster"]
        (row,) = [row for row in rows if row[:2] == ["ablate-spiral-global", "0"]]
        (second,) = [row for row in rows if row[:2] == ["ablate-spiral-global", "1"]]
        assert row[-2:] == ["-", "-"]
        assert 0 < float(second[-2]) and second[-1] in ("0/1", "1/1")
        # The traced peaks of the grid passes come before them; the input
        # has no DPC call, so its dpc columns read "-".
        assert rows[0][-6:-2] == ["prepare", "MB", "dpc", "MB"]
        assert 0 < float(row[-4]) < 50 and row[-3] == row[-5] == "-"
        # The median wall and CPU times of the calls come first; on one
        # busy core the CPU time is at most the wall time, within the
        # three decimals printed.
        assert rows[0][2:6] == ["median", "s", "cpu", "s"]
        assert 0 < float(row[3]) <= float(row[2]) + 0.001
        # Both uncapped extensions read every block of runs they gather.
        assert rows[0][6:9] == ["gathered", "MB", "blocks"]
        read, blocks = map(int, row[5].split("/"))
        assert float(row[4]) > 0 and read == blocks > 0
    if argv[0] == "scripts/run_timing.py":
        # The import footprint of the one checkout: the run path draws its
        # seeded samples without numpy.random, so neither it nor hashlib
        # is loaded.
        (footprint,) = [line for line in child.stdout.splitlines() if line.startswith("import ")]
        assert re.fullmatch(
            r"import ecac\.cli +0  VmRSS \d+\.\d MB, "
            r"numpy\.random not loaded, hashlib not loaded", footprint
        ), footprint


def test_stage_memory_prints_each_stage_of_the_calling_process():
    child = subprocess.run(
        [sys.executable, "scripts/stage_memory.py", "ablate-spiral-global"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert child.returncode == 0, child.stderr
    title, header, *lines = child.stdout.splitlines()
    assert title == "ablate-spiral-global: n = 1200, seed 0"
    assert header.split() == ["stage", "RSS", "before", "after", "HWM", "before", "after"]
    rows = {line[:28].strip(): [float(cell) for cell in line[28:].split()] for line in lines}
    # This process runs the first variant; the second runs here too, or
    # on a forked worker, unseen.
    assert list(rows)[:4] == ["load", "centers", "delta", "prepare"]
    assert list(rows)[4:-2] in (["ablate local"], ["ablate local", "ablate global"])
    assert list(rows)[-2:] == ["write", "exit"]
    for rss, rss_after, hwm, hwm_after in (rows[name] for name in list(rows)[:-1]):
        assert 0 < rss <= hwm <= hwm_after and rss_after <= hwm_after
    assert rows["exit"][1] >= max(row[3] for row in list(rows.values())[:-1])


def test_stage_memory_rescales_the_workload_input(monkeypatch, capsys):
    # --n writes the workload's input at that size, and the command runs
    # on it stage by stage.
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))  # its imports of run_timing and workloads
    stage_memory = load_script("stage_memory")
    workload_type = type(stage_memory.WORKLOADS["sweep-spiral-kmeans"])
    write_input = workload_type.write_input
    sizes = []

    def counted(workload, root, seed, path):
        write_input(workload, root, seed, path)
        sizes.append(len(path.read_text().splitlines()))

    monkeypatch.setattr(workload_type, "write_input", counted)
    assert stage_memory.main(["sweep-spiral-kmeans", "--n", "303"]) == 0
    assert sizes == [303]
    title, header, *rows = capsys.readouterr().out.splitlines()
    assert title == "sweep-spiral-kmeans: n = 303, seed 0"
    assert [row.split()[0] for row in rows][:4] == ["load", "centers", "baseline", "delta"]
    child = subprocess.run(
        [sys.executable, "scripts/stage_memory.py", "sweep-spiral-kmeans", "--n", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert child.returncode == 2 and "--n must be positive" in child.stderr


def test_timing_children_compile_ecac_from_the_source(tmp_path, monkeypatch):
    # A tree holding bytecode, as one that ran its tests does: a child
    # reads a copy without it and writes none, so every child compiles
    # ecac from the source, as a fresh checkout of the benchmark does.
    run_timing = load_script("run_timing")
    src = tmp_path / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    assert compileall.compile_dir(src, quiet=1)
    monkeypatch.setenv("PYTHONPYCACHEPREFIX", str(tmp_path / "prefix"))
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    copy = run_timing.fresh_copy(src, tmp_path / "fresh")
    env = run_timing.child_env(copy)
    assert env["PYTHONPATH"] == str(copy) and "PYTHONPYCACHEPREFIX" not in env
    child = subprocess.run(
        [sys.executable, "-c", "import ecac.cli; print(ecac.cli.__file__)"],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=300, check=True,
    )
    assert Path(child.stdout.strip()).is_relative_to(copy)
    assert any(src.rglob("*.pyc")) and not any(copy.rglob("*.pyc"))
    assert not (tmp_path / "prefix").exists()


def test_a_claimed_gain_needs_nine_of_ten_pairs_and_a_median_gain_beyond_the_spread():
    run_timing = load_script("run_timing")
    first = [1.0 + 0.01 * i for i in range(10)]  # Q3 - Q1 = 0.055
    assert run_timing.claim_verdict(first, [x - 0.1 for x in first]).endswith("claim holds")
    # Faster in 8 of 10 pairs.
    eight = first[:2] + [x - 0.1 for x in first[2:]]
    assert run_timing.claim_verdict(first, eight).endswith("claim fails")
    # Faster in every pair, by less than the spread.
    assert run_timing.claim_verdict(first, [x - 0.05 for x in first]).endswith("claim fails")


def test_write_csv_keeps_the_2d_bytes(tmp_path):
    # The benchmark inputs and the committed shapes are 2-D files written
    # as "x,y,label" with 6 decimals; they must not change by a byte.
    make_benchmarks = load_script("make_benchmarks")
    rng = np.random.default_rng(3)
    points = rng.normal(size=(500, 2)) * 10.0 ** rng.integers(-3, 4, size=(500, 1))
    labels = rng.integers(0, 4, size=500)
    make_benchmarks.write_csv(tmp_path / "seeded.csv", points, labels)
    want = "".join(f"{x:.6f},{y:.6f},{int(label)}\n" for (x, y), label in zip(points, labels))
    assert (tmp_path / "seeded.csv").read_bytes() == want.encode()
    for name in ("spiral", "jain", "pathbased"):
        make_benchmarks.write_csv(tmp_path / f"{name}.csv", *getattr(make_benchmarks, name)())
        assert (tmp_path / f"{name}.csv").read_bytes() == (ROOT / "data" / f"{name}.csv").read_bytes()


def test_write_csv_writes_every_coordinate(tmp_path):
    make_benchmarks = load_script("make_benchmarks")
    points = np.array([[1.5, -2.25, 3.0], [0.125, 4.0, -0.5]])
    make_benchmarks.write_csv(tmp_path / "3d.csv", points, np.array([7, 2]))
    dataset, truth = load_csv(tmp_path / "3d.csv", label_column=-1)
    assert np.array_equal(dataset.points, points)
    assert truth.labels.tolist() == [0, 1]


def test_results_match_the_committed_digests(tmp_path, child_env):
    # Result identity: the 47 lines of scripts/result_digests.py (30 ecac
    # commands, paths blanked, and 17 library runs) equal the committed
    # ones. A change meant to change results writes the file again:
    #   (python3 -c "import platform, numpy; print(f'# numpy {numpy.__version__}, python {platform.python_version()}')";
    #    PYTHONPATH=src python3 scripts/result_digests.py /tmp/grid) > tests/result_digests.txt
    header, *want = (ROOT / "tests" / "result_digests.txt").read_text(encoding="utf-8").splitlines()
    child = subprocess.run(
        [sys.executable, "scripts/result_digests.py", str(tmp_path / "grid")],
        cwd=ROOT, env=child_env, capture_output=True, text=True, timeout=300,
    )
    assert child.returncode == 0, child.stderr
    got = child.stdout.splitlines()
    differ = [
        f"  committed: {w}\n  now:       {g}"
        for w, g in zip_longest(want, got, fillvalue="")
        if w != g
    ]
    assert not differ, (
        f"{len(differ)} of {len(want)} digest lines differ "
        f"(committed with {header.removeprefix('# ')}; "
        f"now numpy {np.__version__}, python {platform.python_version()}):\n" + "\n".join(differ)
    )
