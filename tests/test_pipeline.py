from pathlib import Path

import numpy as np
import pytest

from ecac import density
from ecac.algorithms import build_algorithm
from ecac.data import generate_gaussian_mixture, load_csv, pairwise_distances
from ecac.errors import InvalidK
from ecac.optimizer import SelectionStrategy
from ecac.pipeline import ClusteringResult, compute_centers, run_baseline, run_optimized


@pytest.fixture(scope="module")
def blobs():
    return generate_gaussian_mixture(3, 40, [[0, 0], [30, 0], [0, 30]], 1.0, seed=9)


def test_zero_cap_degenerates_to_baseline(blobs):
    ds, gt = blobs
    alg = build_algorithm("kmeans", seed=1)
    centers, _ = compute_centers(ds, alg, 3)
    base = run_baseline(ds, alg, 3, centers=centers)
    degenerate = run_optimized(
        ds, alg, 3, centers=centers, strategy=SelectionStrategy("local", cap=0)
    )
    assert degenerate.s == 3
    assert degenerate.trace == []
    assert degenerate.labels.tolist() == base.labels.tolist()


def test_optimized_records_bookkeeping(blobs):
    ds, gt = blobs
    alg = build_algorithm("kmeans", seed=0)
    result = run_optimized(ds, alg, 3).attach_metrics(gt)
    assert result.s == sum(len(g) for g in result.extended_sets)
    assert len(result.trace) == result.s - 3
    assert result.delta > 0
    assert set(result.timings) == {"total_ms", "density_ms", "extend_ms", "assign_ms"}
    assert result.extras["coverage_complete"] is True
    assert "max_center_snap_distance" in result.extras
    assert result.nmi_score == pytest.approx(1.0)


def test_baseline_has_no_metrics_without_truth(blobs):
    ds, _ = blobs
    alg = build_algorithm("kmeans", seed=1)
    base = run_baseline(ds, alg, 3).attach_metrics(None)
    assert base.nmi_score is None and base.ri_score is None
    assert base.strategy == "baseline"


def test_dpc_pipeline_shares_quantities(blobs):
    ds, gt = blobs
    alg = build_algorithm("dpc")
    result = run_optimized(ds, alg, 3).attach_metrics(gt)
    assert result.nmi_score == pytest.approx(1.0)


def test_invalid_k(blobs):
    ds, _ = blobs
    alg = build_algorithm("kmeans")
    with pytest.raises(InvalidK):
        compute_centers(ds, alg, 0)
    with pytest.raises(InvalidK):
        compute_centers(ds, alg, ds.n + 1)


def test_result_dict_roundtrip(blobs):
    ds, gt = blobs
    alg = build_algorithm("kmeans", seed=2)
    result = run_optimized(ds, alg, 3).attach_metrics(gt)
    record = result.to_dict()
    restored = ClusteringResult.from_dict(record)
    assert restored.to_dict() == record
    assert np.array_equal(restored.labels, result.labels)
    # Older result files also carry an "iterations" count; they still load.
    legacy = dict(record, iterations=len(result.trace))
    assert ClusteringResult.from_dict(legacy).to_dict() == record


def test_default_delta_runs_sample_once(monkeypatch):
    # The default delta, resolved on the first run, is kept with the
    # dataset, so later runs on it do not sample the distances again.
    ds, _ = load_csv(Path(__file__).resolve().parent.parent / "data" / "spiral.csv", -1)
    calls = []

    def counted(points):
        calls.append(points.shape[0])
        return pairwise_distances(points)

    monkeypatch.setattr(density, "pairwise_distances", counted)
    runs = [run_optimized(ds, build_algorithm("kmeans"), 3) for _ in range(3)]
    assert len(calls) == 1
    assert len({r.delta for r in runs}) == 1
