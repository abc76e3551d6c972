"""One spatial index and one neighbour count per dataset and radius.

The whole-dataset index is ``Dataset.index`` and every count of a radius
goes through its ``density``, so a run builds that index once and counts
each radius once, however many layers (DPC's ρ, the extension's
densities, several ablation variants) ask for it.
"""

import gc
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

import ecac
from ecac.cli import main
from ecac.data import _GRIDS_KEPT, Dataset, SpatialIndex, _Grid, generate_gaussian_mixture

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


@pytest.mark.parametrize("command", ["run", "ablate"])
def test_default_sweep_builds_each_grid_once(tmp_path, grid_builds, command):
    # Five δ, each counted on one grid and queried on another (2δ for the
    # local pool, δ for the global one), with at most two grids kept.
    csv = write_blobs_csv(tmp_path / "blobs.csv", 40)
    code = main([
        command, "--data", str(csv), "--label-col", "-1", "--algo", "kmeans", "--k", "4",
        "--out", str(tmp_path / "o"),
    ])
    assert code == 0
    assert grid_builds and len(grid_builds) == len(set(grid_builds))


@pytest.mark.parametrize("command,radii,runs", [
    (["run"], len(ecac.config.DEFAULT_SWEEP), len(ecac.config.DEFAULT_SWEEP)),
    (["ablate", "--variants", "local,global"], 2, 2),
    (["ablate", "--variants", "local,nodensity"], 1, 3),
])
def test_candidate_runs_are_built_once_per_extension(tmp_path, monkeypatch, command, radii, runs):
    # The sweep's five local extensions read runs at five radii (2δ each);
    # the ablation's local and global extensions at 2δ and δ; and a
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


def test_many_radii_keep_a_bounded_number_of_grids(grid_builds):
    rng = np.random.default_rng(5)
    points = rng.normal(size=(300, 2))
    index = SpatialIndex(Dataset(points))
    radii = np.linspace(0.05, 2.0, 40)
    for radius in radii:
        index.range_query_many(points[:3], radius)
        index.density(radius)
        assert len(index._grids) <= _GRIDS_KEPT
    assert len(grid_builds) == radii.size
    # Two radii in turn share the two kept grids.
    for _ in range(5):
        for radius in (0.3, 0.7):
            index.range_query_many(points[:3], radius)
    assert len(grid_builds) == radii.size + 2


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
