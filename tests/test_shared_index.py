"""One spatial index, one neighbour count per radius, one kept grid and
one kept set of candidate runs per dataset.

The whole-dataset index is ``Dataset.index``. An index keeps no results:
the counts per radius and the most recently built grid and candidate
runs live in ``Dataset.derived``, so every index over a dataset, the
benchmark replay's own included, shares them. A run counts each radius
once and builds each grid side and each radius's runs once, however many
layers (DPC's ρ, the extension's densities, several ablation variants)
ask for them, and every strategy's extension reads candidate runs at 2δ.
Forked workers (the δ sweep's, the ablation's variants) inherit what the
calling process built before the fork.
"""

import gc
import importlib
import json
import os
import subprocess
import sys
import weakref
from collections.abc import Mapping, Sequence
from pathlib import Path

import numpy as np
import pytest

import ecac
from ecac.cli import main
from ecac.data import (
    _CELLS_PER_RADIUS, CandidateRuns, Dataset, SpatialIndex, _Grid, generate_gaussian_mixture,
)
from ecac import optimizer
from ecac.optimizer import STRATEGY_KINDS, SelectionStrategy, identify_extended_centers
from test_cli import use_cores

ROOT = Path(__file__).resolve().parents[1]

BLOB_MEANS = [[0, 0], [12, 0], [0, 12], [12, 12]]


def write_blobs_csv(path: Path, per_blob: int) -> Path:
    """The 4-blob mixture, one row per object, its label last."""
    dataset, truth = generate_gaussian_mixture(4, per_blob, BLOB_MEANS, 2.0, 0)
    np.savetxt(path, np.column_stack([dataset.points, truth.labels]), delimiter=",", fmt="%.17g")
    return path


class CallLog(Sequence):
    """Values recorded one JSON line each, appended (``O_APPEND``) to a
    file, so the calls of forked sweep workers are recorded too. Every
    read reads the file, so read it after the command returns."""

    def __init__(self, path: Path):
        self.path = path
        path.touch()

    def clear(self):
        self.path.write_text("")

    def append(self, value):
        with self.path.open("a", encoding="utf-8") as fh:  # O_APPEND: one write per line
            fh.write(json.dumps(value, default=lambda scalar: scalar.item()) + "\n")

    def _values(self) -> list:
        values = map(json.loads, self.path.read_text().splitlines())
        return [tuple(v) if isinstance(v, list) else v for v in values]

    def __getitem__(self, i):
        return self._values()[i]

    def __iter__(self):
        return iter(self._values())

    def __len__(self):
        return len(self._values())

    def __repr__(self):
        return repr(self._values())


class Tally(Mapping):
    """How many times a ``CallLog`` holds each of the given keys."""

    def __init__(self, log: CallLog, keys):
        self.log = log
        self.names = tuple(keys)

    def __getitem__(self, key):
        if key not in self.names:
            raise KeyError(key)
        return self.log.count(key)

    def __iter__(self):
        return iter(self.names)

    def __len__(self):
        return len(self.names)

    def __repr__(self):
        return repr(dict(self))


@pytest.fixture
def neighbour_work(tmp_path, monkeypatch):
    """Counts whole-dataset index builds and exact counting passes.

    A count of one radius is one ``SpatialIndex._count`` pass.
    """
    log = CallLog(tmp_path / "neighbour_work.log")
    work = Tally(log, ["indexes", "count_calls"])
    init = SpatialIndex.__init__
    count = SpatialIndex._count

    def counting_init(self, dataset):
        log.append("indexes")
        init(self, dataset)

    def counting_count(self, radius):
        log.append("count_calls")
        return count(self, radius)

    monkeypatch.setattr(SpatialIndex, "__init__", counting_init)
    monkeypatch.setattr(SpatialIndex, "_count", counting_count)
    return work


@pytest.fixture
def runs_builds(tmp_path, monkeypatch):
    """The (cell side, reach) of every set of candidate runs built."""
    built = CallLog(tmp_path / "runs.log")
    build_runs = _Grid.runs

    def counting(self, reach):
        built.append((self.side, reach))
        return build_runs(self, reach)

    monkeypatch.setattr(_Grid, "runs", counting)
    return built


@pytest.fixture
def block_gathers(tmp_path, monkeypatch):
    """The (process, cell side, block) of every block of candidate runs
    gathered, in this process and in forked ones."""
    gathered = CallLog(tmp_path / "gathers.log")
    build_runs = _Grid.runs
    gather = CandidateRuns._gather

    def tagging(self, reach):
        runs = build_runs(self, reach)
        runs.side = self.side
        return runs

    def counting(self, b):
        gathered.append((os.getpid(), self.side, b))
        return gather(self, b)

    monkeypatch.setattr(_Grid, "runs", tagging)
    monkeypatch.setattr(CandidateRuns, "_gather", counting)
    return gathered


def test_dpc_run_builds_one_index_and_counts_its_radius_once(tmp_path, neighbour_work):
    # d_c and δ both default to the 2% percentile: one radius.
    csv = write_blobs_csv(tmp_path / "blobs.csv", 40)
    code = main([
        "run", "--data", str(csv), "--label-col", "-1", "--algo", "dpc", "--k", "4",
        "--delta-percentile", "0.02", "--out", str(tmp_path / "o"),
    ])
    assert code == 0
    assert neighbour_work == {"indexes": 1, "count_calls": 1}


def test_ablate_counts_delta_once(tmp_path, monkeypatch, neighbour_work):
    # On one core the variants run in turn; on two in two processes, which
    # read the count made before the fork.
    csv = write_blobs_csv(tmp_path / "blobs.csv", 40)
    for cores in (1, 2):
        use_cores(monkeypatch, cores)
        neighbour_work.log.clear()
        code = main([
            "ablate", "--data", str(csv), "--label-col", "-1", "--algo", "kmeans", "--k", "4",
            "--variants", "local,global", "--out", str(tmp_path / "o"),
        ])
        assert code == 0
        assert neighbour_work == {"indexes": 1, "count_calls": 1}


@pytest.fixture
def grid_builds(tmp_path, monkeypatch):
    """The cell side of every grid built."""
    sides = CallLog(tmp_path / "grid_builds.log")
    init = _Grid.__init__

    def counting(self, points, axes, side):
        sides.append(side)
        init(self, points, axes, side)

    monkeypatch.setattr(_Grid, "__init__", counting)
    return sides


@pytest.fixture
def counted_radii(tmp_path, monkeypatch):
    """The radius of every exact counting pass."""
    radii = CallLog(tmp_path / "counted_radii.log")
    count = SpatialIndex._count

    def counting(self, radius):
        radii.append(radius)
        return count(self, radius)

    monkeypatch.setattr(SpatialIndex, "_count", counting)
    return radii


@pytest.fixture
def perfbench(monkeypatch):
    """perfbench's ``tracing`` and ``workloads`` modules, by the names
    ``perfbench/run.py`` imports them under."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    return [importlib.import_module(name) for name in ("tracing", "workloads")]


@pytest.mark.parametrize("command", ["run", "ablate"])
def test_default_sweep_builds_each_grid_once(tmp_path, monkeypatch, grid_builds, command):
    # Five δ, each counted on one grid and queried on the 2δ one, with
    # one grid kept; ablate's one δ likewise, on one core or forked on two.
    csv = write_blobs_csv(tmp_path / "blobs.csv", 40)
    for cores in (1, 2):
        use_cores(monkeypatch, cores)
        grid_builds.clear()
        code = main([
            command, "--data", str(csv), "--label-col", "-1", "--algo", "kmeans", "--k", "4",
            "--out", str(tmp_path / "o"),
        ])
        assert code == 0
        assert grid_builds and len(grid_builds) == len(set(grid_builds))


@pytest.mark.parametrize("command,radii,extensions", [
    (["run"], len(ecac.config.DEFAULT_SWEEP), len(ecac.config.DEFAULT_SWEEP)),
    (["ablate", "--variants", "local,global"], 1, 2),
    (["ablate", "--variants", "local,nodensity"], 1, 3),
])
def test_candidate_runs_are_built_once_per_extension(
    tmp_path, monkeypatch, runs_builds, block_gathers, command, radii, extensions
):
    # The sweep's five local extensions read runs at five radii (2δ each)
    # and build each radius's runs once. The ablation's local and global
    # extensions, and a count-matched ablation's probe, local and
    # nodensity extensions, all read the one set of runs at 2δ that the
    # command builds before its variants run, on one core or forked on two.
    # A process gathers each block of runs at most once: a forked worker
    # shares the blocks gathered before the fork and gathers the others.
    # Each extension is one call of the loop; ``prepare_extension`` is not
    # counted, as the ablation also calls it before its fork.
    made = CallLog(tmp_path / "extensions.log")
    extend = optimizer._extend

    def counting(*args):
        made.append("extension")
        return extend(*args)

    monkeypatch.setattr(optimizer, "_extend", counting)
    csv = write_blobs_csv(tmp_path / "blobs.csv", 40)
    for cores in (1, 2):
        use_cores(monkeypatch, cores)
        runs_builds.clear()
        block_gathers.clear()
        made.clear()
        code = main([
            *command, "--data", str(csv), "--label-col", "-1", "--algo", "kmeans", "--k", "4",
            "--out", str(tmp_path / "o"),
        ])
        assert code == 0
        assert len(set(runs_builds)) == radii and len(runs_builds) == radii
        assert len(made) == extensions
        assert block_gathers and len(set(block_gathers)) == len(block_gathers)


def test_every_strategy_reads_candidate_runs_at_twice_delta(monkeypatch):
    radii = []
    candidate_runs = SpatialIndex.candidate_runs

    def recording(self, radius):
        radii.append(radius)
        return candidate_runs(self, radius)

    monkeypatch.setattr(SpatialIndex, "candidate_runs", recording)
    dataset, _ = generate_gaussian_mixture(2, 40, [[0, 0], [6, 0]], 1.0, 0)
    for kind in STRATEGY_KINDS:
        identify_extended_centers(dataset, [0, 40], 0.8, SelectionStrategy(kind, seed=0))
    assert radii == [1.6] * len(STRATEGY_KINDS)


@pytest.mark.parametrize("name", ["sweep-spiral-kmeans", "blobs-dpc-capped", "ablate-spiral-global"])
def test_workload_command_builds_each_grid_and_counts_each_radius_once(
    tmp_path, perfbench, grid_builds, counted_radii, name
):
    _, workloads = perfbench
    workload = workloads.WORKLOADS[name]
    csv_path = tmp_path / "input.csv"
    workload.write_input(ROOT, 0, csv_path)
    assert main(workload.argv(csv_path, tmp_path / "out")) == 0
    assert grid_builds and len(grid_builds) == len(set(grid_builds))
    assert counted_radii and len(counted_radii) == len(set(counted_radii))


def test_ablate_workload_on_two_cores_builds_everything_once(
    tmp_path, monkeypatch, perfbench, neighbour_work, grid_builds, runs_builds
):
    # The variants run in two processes; the index, the δ count, the δ and
    # 2δ grids and the 2δ runs are built once, before the fork.
    _, workloads = perfbench
    workload = workloads.WORKLOADS["ablate-spiral-global"]
    csv_path = tmp_path / "input.csv"
    workload.write_input(ROOT, 0, csv_path)
    use_cores(monkeypatch, 2)
    assert main(workload.argv(csv_path, tmp_path / "out")) == 0
    assert neighbour_work == {"indexes": 1, "count_calls": 1}
    assert grid_builds and len(grid_builds) == len(set(grid_builds))
    assert len(runs_builds) == 1


def test_dpc_replay_counts_its_radius_once(tmp_path, perfbench, counted_radii):
    # The replay builds an index of its own; DPC's ρ and the extension's
    # densities still read one count of the one radius.
    tracing, workloads = perfbench
    workload = workloads.WORKLOADS["blobs-dpc-capped"]
    csv_path = tmp_path / "input.csv"
    workload.write_input(ROOT, 0, csv_path)
    workloads.traced_run(workload, csv_path, tracing.Tracer(workload.name))
    assert len(counted_radii) == 1


def test_many_radii_keep_a_bounded_number_of_grids(grid_builds):
    # Many radii keep one grid, shared by every index over the dataset.
    rng = np.random.default_rng(5)
    points = rng.normal(size=(300, 2))
    dataset = Dataset(points)
    index = SpatialIndex(dataset)
    radii = np.linspace(0.05, 2.0, 40)
    for radius in radii:
        index.range_query_many(points[:3], radius)
        index.density(radius)
        assert dataset.derived["grid"].side == radius / _CELLS_PER_RADIUS
    assert len(grid_builds) == radii.size
    # A second index over the dataset reads the kept grid and counts.
    other = SpatialIndex(dataset)
    other.range_query_many(points[:3], radii[-1])
    assert other.density(radii[0]) is index.density(radii[0])
    assert len(grid_builds) == radii.size
    # Two radii in turn rebuild each time: one grid is kept.
    for _ in range(2):
        for radius in (0.3, 0.7):
            index.range_query_many(points[:3], radius)
    assert len(grid_builds) == radii.size + 4


def test_a_second_radius_replaces_the_kept_runs(monkeypatch, runs_builds, block_gathers):
    # One set of runs is kept per dataset, read-only and shared by every
    # index over it, each block gathered once; another radius frees it,
    # with its blocks, before its own are built. Blocks of at most 64 ids
    # spread the runs over several.
    monkeypatch.setattr("ecac.data._RUN_BLOCK", 64)
    dataset, _ = generate_gaussian_mixture(2, 30, [[0, 0], [5, 0]], 1.0, 0)
    runs = dataset.index.candidate_runs(1.0)
    assert SpatialIndex(dataset).candidate_runs(1.0) is runs
    assert len(runs.blocks) > 3
    cells = range(runs.bounds.size - 1)
    read = [runs.run(c) for c in cells] + [SpatialIndex(dataset).candidate_runs(1.0).run(c) for c in cells]
    assert len(block_gathers) == len(runs.blocks)
    arrays = [runs.cell, runs.bounds, *runs.blocks]
    assert not any(array.flags.writeable for array in arrays + read)
    assert len(runs_builds) == 1
    freed = [weakref.ref(array) for array in arrays]
    del runs, read, arrays
    build_runs = _Grid.runs

    def checking(self, reach):
        assert [ref() for ref in freed] == [None] * len(freed)
        return build_runs(self, reach)

    monkeypatch.setattr(_Grid, "runs", checking)
    other = dataset.index.candidate_runs(2.0)
    assert len(runs_builds) == 2
    assert dataset.derived["runs"][1] is other
    assert dataset.index.candidate_runs(2.0) is other
    assert len(runs_builds) == 2


def test_index_and_density_are_kept():
    dataset, _ = generate_gaussian_mixture(2, 30, [[0, 0], [5, 0]], 1.0, 0)
    index = dataset.index
    assert dataset.index is index
    assert index.dataset is dataset
    rho = index.density(1.0)
    assert index.density(1.0) is rho
    assert not rho.flags.writeable
    with pytest.raises(ValueError):
        rho[0] = 0
    # Another radius is another count, not the kept one.
    assert index.density(2.0) is not rho
    # Another index over the dataset reads the same count.
    assert SpatialIndex(dataset).density(1.0) is rho


def test_dataset_with_index_is_collectable():
    # dataset -> index -> dataset is a reference cycle; the collector frees it.
    dataset, _ = generate_gaussian_mixture(2, 30, [[0, 0], [5, 0]], 1.0, 0)
    dataset.index.density(1.0)
    ref = weakref.ref(dataset)
    del dataset
    gc.collect()
    assert ref() is None


# Peak resident memory allowed to a fresh ``ecac run`` with DPC, one δ and
# a cap on the 4-blob mixture at n = 50,000, read from a CSV. Measured on a
# 2-core Linux host: 110 MB.
RUN_PEAK_RSS_BUDGET_MB = 200

_RUN_PEAK_SCRIPT = """
import sys
from ecac.cli import main
code = main(sys.argv[1:])
with open("/proc/self/status") as fh:
    print(next(line.split()[1] for line in fh if line.startswith("VmHWM:")))
sys.exit(code)
"""


def test_capped_dpc_run_peak_memory_at_50k(tmp_path, child_env):
    if not Path("/proc/self/status").exists():
        pytest.skip("VmHWM is read from /proc/self/status (Linux only)")
    csv = write_blobs_csv(tmp_path / "blobs-50k.csv", 12500)
    child = subprocess.run(
        [sys.executable, "-c", _RUN_PEAK_SCRIPT,
         "run", "--data", str(csv), "--label-col", "-1", "--algo", "dpc", "--k", "4",
         "--cap", "50", "--delta-percentile", "0.02", "--out", str(tmp_path / "o")],
        capture_output=True, text=True, env=child_env, timeout=300,
    )
    assert child.returncode == 0, child.stderr
    peak_mb = int(child.stdout.split()[-1]) / 1024
    assert peak_mb < RUN_PEAK_RSS_BUDGET_MB
