import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ecac import density
from ecac.algorithms import build_algorithm
from ecac.data import Dataset, generate_gaussian_mixture, load_csv, smallest_pairwise_distances
from ecac.errors import InvalidK
from ecac.optimizer import SelectionStrategy, identify_extended_centers, trace_records
from ecac.pipeline import ClusteringResult, compute_centers, run_baseline, run_optimized

from test_scripts import load_script


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
    assert trace_records(degenerate.steps) == []
    assert degenerate.labels.tolist() == base.labels.tolist()


def test_optimized_records_bookkeeping(blobs):
    ds, gt = blobs
    alg = build_algorithm("kmeans", seed=0)
    result = run_optimized(ds, alg, 3).attach_metrics(gt)
    assert result.s == sum(len(g) for g in result.extended_sets)
    assert len(result.steps[0]) == result.s - 3
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
    legacy = dict(record, iterations=len(result.steps[0]))
    assert ClusteringResult.from_dict(legacy).to_dict() == record


def test_default_delta_runs_sample_once(monkeypatch):
    # The default delta, resolved on the first run, is kept with the
    # dataset, so later runs on it do not sample the distances again.
    ds, _ = load_csv(Path(__file__).resolve().parent.parent / "data" / "spiral.csv", -1)
    calls = []

    def counted(points, count):
        calls.append(points.shape[0])
        return smallest_pairwise_distances(points, count)

    monkeypatch.setattr(density, "smallest_pairwise_distances", counted)
    runs = [run_optimized(ds, build_algorithm("kmeans"), 3) for _ in range(3)]
    assert len(calls) == 1
    assert len({r.delta for r in runs}) == 1


STEP_TYPES = [np.int64, np.int64, np.float64, np.int64]


def assert_array_record(result: ClusteringResult):
    """The record holds one int64 array per extended-set and the trace's
    four columns as arrays of their types."""
    assert all(type(g) is np.ndarray and g.dtype == np.int64 for g in result.extended_sets)
    assert all(type(c) is np.ndarray for c in result.steps)
    assert [c.dtype for c in result.steps] == STEP_TYPES


@pytest.mark.parametrize("kind", ["local", "global", "random"])
def test_records_hold_arrays(blobs, kind):
    ds, gt = blobs
    alg = build_algorithm("kmeans", seed=2)
    centers, _ = compute_centers(ds, alg, 3)
    strategy = SelectionStrategy(kind, seed=0 if kind == "random" else None)
    result = run_optimized(ds, alg, 3, centers=centers, strategy=strategy).attach_metrics(gt)
    base = run_baseline(ds, alg, 3, centers=centers)
    restored = ClusteringResult.from_dict(result.to_dict())
    for record in (result, base, restored):
        assert_array_record(record)
    assert [g.tolist() for g in base.extended_sets] == [[c] for c in centers]
    assert [g.tolist() for g in restored.extended_sets] == [g.tolist() for g in result.extended_sets]
    assert len(result.steps[0]) == result.s - 3 > 0
    assert trace_records(restored.steps) == trace_records(base.steps) == []
    # Every trace record holds Python numbers, which json encodes.
    for step in trace_records(result.steps):
        assert json.loads(json.dumps(step)) == step
        assert [type(step[key]) for key in ("object", "set", "dis", "covered")] == [int, int, float, int]


def test_a_record_retains_little_more_than_its_arrays():
    # A 3,000-point spiral, s close to n: once the dataset's count and
    # runs are built (an extension has read every block of runs), a run
    # retains its record, whose arrays hold 8 bytes per value; Python
    # lists of ints and floats would hold about 36.
    points, _ = load_script("make_benchmarks").spiral(n_per_arm=1000, seed=0)
    ds = Dataset(points)
    alg = build_algorithm("kmeans")
    centers, _ = compute_centers(ds, alg, 3)
    delta = density.default_delta(ds)
    identify_extended_centers(ds, centers, delta)
    tracemalloc.start()
    try:
        result = run_optimized(ds, alg, 3, delta=delta, centers=centers)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    own = sum(np.asarray(a).nbytes for a in (result.labels, *result.extended_sets, *result.steps))
    assert result.s > 0.9 * ds.n
    assert held <= 1.5 * own
