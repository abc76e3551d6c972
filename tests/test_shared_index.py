"""One spatial index, one neighbour count per radius and one kept grid
per dataset.

The whole-dataset index is ``Dataset.index``. An index keeps no results:
the counts per radius and the most recently built grid live in
``Dataset.derived``, so every index over a dataset, the benchmark
replay's own included, shares them. A run counts each radius once and
builds each grid side once, however many layers (DPC's ρ, the
extension's densities, several ablation variants) ask for them, and
every strategy's extension reads candidate runs at 2δ.
"""

import gc
import importlib
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

import ecac
from ecac.cli import main
from ecac.data import _CELLS_PER_RADIUS, Dataset, SpatialIndex, _Grid, generate_gaussian_mixture
from ecac.optimizer import STRATEGY_KINDS, SelectionStrategy, identify_extended_centers

ROOT = Path(__file__).resolve().parents[1]

BLOB_MEANS = [[0, 0], [12, 0], [0, 12], [12, 12]]


def write_blobs_csv(path: Path, per_blob: int) -> Path:
    """The 4-blob mixture, one row per object, its label last."""
    dataset, truth = generate_gaussian_mixture(4, per_blob, BLOB_MEANS, 2.0, 0)
    np.savetxt(path, np.column_stack([dataset.points, truth.labels]), delimiter=",", fmt="%.17g")
    return path


@pytest.fixture
def neighbour_work(monkeypatch):
    """Counts whole-dataset index builds and exact counting passes.

    A count of one radius is one ``SpatialIndex._count`` pass.
    """
    work = {"indexes": 0, "count_calls": 0}
    init = SpatialIndex.__init__
    count = SpatialIndex._count

    def counting_init(self, dataset):
        work["indexes"] += 1
        init(self, dataset)

    def counting_count(self, radius):
        work["count_calls"] += 1
        return count(self, radius)

    monkeypatch.setattr(SpatialIndex, "__init__", counting_init)
    monkeypatch.setattr(SpatialIndex, "_count", counting_count)
    return work


def test_dpc_run_builds_one_index_and_counts_its_radius_once(tmp_path, neighbour_work):
    # d_c and δ both default to the 2% percentile: one radius.
    csv = write_blobs_csv(tmp_path / "blobs.csv", 40)
    code = main([
        "run", "--data", str(csv), "--label-col", "-1", "--algo", "dpc", "--k", "4",
        "--delta-percentile", "0.02", "--out", str(tmp_path / "o"),
    ])
    assert code == 0
    assert neighbour_work == {"indexes": 1, "count_calls": 1}


def test_ablate_counts_delta_once(tmp_path, neighbour_work):
    csv = write_blobs_csv(tmp_path / "blobs.csv", 40)
    code = main([
        "ablate", "--data", str(csv), "--label-col", "-1", "--algo", "kmeans", "--k", "4",
        "--variants", "local,global", "--out", str(tmp_path / "o"),
    ])
    assert code == 0
    assert neighbour_work == {"indexes": 1, "count_calls": 1}


@pytest.fixture
def grid_builds(monkeypatch):
    """The cell side of every grid built."""
    sides = []
    init = _Grid.__init__

    def counting(self, points, axes, side):
        sides.append(side)
        init(self, points, axes, side)

    monkeypatch.setattr(_Grid, "__init__", counting)
    return sides


@pytest.fixture
def counted_radii(monkeypatch):
    """The radius of every exact counting pass."""
    radii = []
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
def test_default_sweep_builds_each_grid_once(tmp_path, grid_builds, command):
    # Five δ, each counted on one grid and queried on the 2δ one, with
    # one grid kept.
    csv = write_blobs_csv(tmp_path / "blobs.csv", 40)
    code = main([
        command, "--data", str(csv), "--label-col", "-1", "--algo", "kmeans", "--k", "4",
        "--out", str(tmp_path / "o"),
    ])
    assert code == 0
    assert grid_builds and len(grid_builds) == len(set(grid_builds))


@pytest.mark.parametrize("command,radii,runs", [
    (["run"], len(ecac.config.DEFAULT_SWEEP), len(ecac.config.DEFAULT_SWEEP)),
    (["ablate", "--variants", "local,global"], 1, 2),
    (["ablate", "--variants", "local,nodensity"], 1, 3),
])
def test_candidate_runs_are_built_once_per_extension(tmp_path, monkeypatch, command, radii, runs):
    # The sweep's five local extensions read runs at five radii (2δ each);
    # the ablation's local and global extensions both at 2δ; and a
    # count-matched ablation's probe, local and nodensity extensions all
    # at 2δ. Each extension builds its runs once, for each member's query,
    # and drops them when it ends.
    built = []
    build_runs = _Grid.runs

    def counting(self, reach):
        built.append((self.side, reach))
        return build_runs(self, reach)

    monkeypatch.setattr(_Grid, "runs", counting)
    csv = write_blobs_csv(tmp_path / "blobs.csv", 40)
    code = main([
        *command, "--data", str(csv), "--label-col", "-1", "--algo", "kmeans", "--k", "4",
        "--out", str(tmp_path / "o"),
    ])
    assert code == 0
    assert len(set(built)) == radii and len(built) == runs


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


def test_capped_dpc_run_peak_memory_at_50k(tmp_path):
    if not Path("/proc/self/status").exists():
        pytest.skip("VmHWM is read from /proc/self/status (Linux only)")
    csv = write_blobs_csv(tmp_path / "blobs-50k.csv", 12500)
    env = dict(os.environ, PYTHONPATH=str(Path(ecac.__file__).resolve().parents[1]))
    child = subprocess.run(
        [sys.executable, "-c", _RUN_PEAK_SCRIPT,
         "run", "--data", str(csv), "--label-col", "-1", "--algo", "dpc", "--k", "4",
         "--cap", "50", "--delta-percentile", "0.02", "--out", str(tmp_path / "o")],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert child.returncode == 0, child.stderr
    peak_mb = int(child.stdout.split()[-1]) / 1024
    assert peak_mb < RUN_PEAK_RSS_BUDGET_MB
