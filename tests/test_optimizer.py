import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ecac
from ecac import optimizer
from ecac.data import Dataset, SpatialIndex, generate_gaussian_mixture, nearest
from ecac.density import compute_densities
from ecac.errors import EmptyCenters, InvalidRadius, InvalidSpec, LabelOutOfRange
from ecac.optimizer import (
    ExtendedSets,
    SelectionStrategy,
    identify_extended_centers,
    merge_clusters,
)

from oracles import naive_identify


def identify(points, centers, delta, **kw):
    return identify_extended_centers(Dataset(np.asarray(points, float)), centers, delta, **kw)


class TestIdentify:
    def test_immediate_coverage(self):
        ds, _ = generate_gaussian_mixture(2, 10, [[0, 0], [3, 0]], 0.5, seed=0)
        ext = identify_extended_centers(ds, [0, 10], delta=100.0)
        assert ext.s == 2
        assert ext.sets == [[0], [10]]
        assert ext.trace == []
        assert ext.fully_covered

    def test_hand_simulated_line(self):
        # Points 0,1,2,3 on a line, one center at 0, delta 1.5.
        # Densities: rho = [2,3,3,2]. Initially covered {0,1}.
        # Pool = 2delta-ball of 0 = {1,2}; dis(1)=1/3 beats dis(2)=2/3.
        # Then pool = {2,3}; dis(2)=1/3 beats dis(3)=2/2; covering {2}
        # also covers 3, so the loop stops.
        ext = identify([[0.0], [1.0], [2.0], [3.0]], [0], 1.5)
        assert ext.all == [0, 1, 2]
        assert ext.sets == [[0, 1, 2]]
        assert ext.fully_covered
        assert [(t["object"], t["set"]) for t in ext.trace] == [(1, 0), (2, 0)]
        assert ext.trace[0]["dis"] == pytest.approx(1 / 3)
        assert ext.trace[1]["dis"] == pytest.approx(1 / 3)
        assert [t["covered"] for t in ext.trace] == [3, 4]

    def test_fallback_reaches_disconnected_region(self):
        # Second clump far beyond 2*delta of the first: local search must
        # fall back once to jump the gap, then resume.
        pts = [[0.0], [1.0], [50.0], [51.0]]
        ext = identify(pts, [0], 1.2)
        assert ext.fully_covered
        assert ext.fallback_count >= 1
        assert ext.sets[0][0] == 0

    def test_validation_errors(self):
        ds = Dataset(np.zeros((3, 1)))
        with pytest.raises(InvalidRadius):
            identify_extended_centers(ds, [0], 0.0)
        with pytest.raises(EmptyCenters):
            identify_extended_centers(ds, [], 1.0)
        with pytest.raises(InvalidSpec):
            identify_extended_centers(ds, [0, 0], 1.0)
        with pytest.raises(InvalidSpec):
            SelectionStrategy("random")  # no seed
        with pytest.raises(InvalidSpec):
            SelectionStrategy("local", cap=-1)

    @pytest.mark.parametrize("bad", [-1, 4, 1.7, 0.5])
    def test_center_id_out_of_range(self, bad):
        ds = Dataset(np.arange(4.0).reshape(4, 1))
        with pytest.raises(InvalidSpec, match=f"center id {bad} "):
            identify_extended_centers(ds, [bad, 3], 1.0)

    def test_densities_delta_mismatch_rejected(self):
        ds = Dataset(np.arange(4.0).reshape(4, 1))
        index = SpatialIndex(ds)
        dens = compute_densities(ds, index, 0.5)
        with pytest.raises(InvalidRadius):
            identify_extended_centers(ds, [0], 1.0, densities=dens)


def random_instance(seed, n=40, d=2, clumps=False):
    rng = np.random.default_rng(seed)
    if clumps:
        a = rng.normal([0, 0], 0.8, (n // 2, d))
        b = rng.normal([8, 0], 0.8, (n - n // 2, d))
        return np.vstack([a, b])
    return rng.uniform(0, 10, size=(n, d))


@pytest.mark.parametrize("kind", ["local", "global", "nodensity", "random"])
@pytest.mark.parametrize("seed,clumps,delta,cap", [
    (0, False, 1.0, None),
    (1, False, 0.6, None),
    (2, True, 0.9, None),
    (3, False, 1.4, 3),
    (4, True, 0.5, 2),
])
def test_matches_naive_reference(kind, seed, clumps, delta, cap):
    pts = random_instance(seed, clumps=clumps)
    centers = [0, len(pts) // 2]
    strategy = SelectionStrategy(kind, seed=99 if kind == "random" else None, cap=cap)
    ext = identify(pts, centers, delta, strategy=strategy)
    sets, order, order_sets, covered, fallbacks, trace = naive_identify(
        pts, centers, delta, kind=kind, seed=99, cap=cap
    )
    assert ext.all == order
    assert ext.all_sets == order_sets
    assert ext.sets == sets
    assert set(np.flatnonzero(ext.coverage).tolist()) == covered
    assert ext.fallback_count == fallbacks
    got_trace = [(t["object"], t["set"], t["covered"]) for t in ext.trace]
    want_trace = [(o, j, c) for (o, j, _, c) in trace]
    assert got_trace == want_trace
    for got, want in zip(ext.trace, trace):
        assert got["dis"] == pytest.approx(want[2], rel=1e-9)


GRID = 0.25  # dyadic spacing: squared distances are exact, so ties are exact


@st.composite
def grid_instances(draw):
    """Clumps of points on a small grid (duplicates and exact distance
    ties), centers, a radius on the same grid, and a strategy."""
    d = draw(st.integers(1, 3))
    offsets = st.lists(st.lists(st.integers(0, 2), min_size=d, max_size=d),
                       min_size=1, max_size=8)
    clumps = draw(st.lists(st.tuples(st.lists(st.integers(0, 12), min_size=d, max_size=d),
                                     offsets), min_size=1, max_size=4))
    base = [np.add(anchor, off) for anchor, offs in clumps for off in offs][:24]
    copies = draw(st.lists(st.integers(0, len(base) - 1), max_size=6))
    pts = np.array(base + [base[i] for i in copies], dtype=float) * GRID
    centers = draw(st.lists(st.integers(0, len(pts) - 1), min_size=1,
                            max_size=min(4, len(pts)), unique=True))
    delta = GRID * draw(st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0]))
    kind = draw(st.sampled_from(["local", "global", "nodensity", "random"]))
    cap = draw(st.sampled_from([None, 1, 2, 4]))
    return pts, centers, delta, kind, cap


@settings(max_examples=300, deadline=None)
@given(grid_instances())
# A set closes while a pooled object's only member within 2*delta is in it.
@example((np.array([[0, 0], [0, 0], [0, 2], [1, 1], [2, 2], [0, 4], [0, 0]]) * GRID,
          [0, 1], GRID, "local", 2))
def test_matches_naive_reference_on_grid_ties(instance):
    pts, centers, delta, kind, cap = instance
    strategy = SelectionStrategy(kind, seed=7 if kind == "random" else None, cap=cap)
    ext = identify(pts, centers, delta, strategy=strategy)
    _, order, order_sets, _, fallbacks, trace = naive_identify(
        pts, centers, delta, kind=kind, seed=7, cap=cap
    )
    assert ext.all == order
    assert ext.all_sets == order_sets
    assert ext.fallback_count == fallbacks
    got_trace = [(t["object"], t["set"], t["covered"]) for t in ext.trace]
    assert got_trace == [(o, j, c) for (o, j, _, c) in trace]
    for got, want in zip(ext.trace, trace):
        assert got["dis"] == pytest.approx(want[2], rel=1e-9)


@pytest.mark.parametrize("kind", ["local", "global", "nodensity"])
@pytest.mark.parametrize("cap", [None, 3])
def test_matches_naive_reference_across_tree_rebuilds(monkeypatch, kind, cap):
    # 172 points on the grid: 130 drawn, 30 duplicate copies and a far
    # clump of 12 that local search reaches only by fallback steps. The 24
    # leftmost points are the centers, so even the capped runs add enough
    # members for the non-member tree to be rebuilt twice.
    rng = np.random.default_rng(0)
    base = np.column_stack([rng.integers(0, 24, 130), rng.integers(0, 6, 130)])
    pts = np.vstack([base, base[rng.integers(0, 130, 30)], base[:12] + [60, 0]]) * GRID
    centers = np.lexsort((pts[:, 1], pts[:, 0]))[:24].tolist()
    delta = 2.2 * GRID
    rebuilds = []

    def counting_index(dataset, ids=None):
        if ids is not None:
            rebuilds.append(len(ids))
        return SpatialIndex(dataset, ids)

    monkeypatch.setattr(optimizer, "SpatialIndex", counting_index)
    ext = identify(pts, centers, delta, strategy=SelectionStrategy(kind, cap=cap))
    _, order, order_sets, _, fallbacks, trace = naive_identify(
        pts, centers, delta, kind=kind, cap=cap
    )
    assert len(rebuilds) >= 2
    assert ext.all == order
    assert ext.all_sets == order_sets
    assert ext.fallback_count == fallbacks
    got_trace = [(t["object"], t["set"], t["covered"]) for t in ext.trace]
    assert got_trace == [(o, j, c) for (o, j, _, c) in trace]
    for got, want in zip(ext.trace, trace):
        assert got["dis"] == pytest.approx(want[2], rel=1e-9)



def _record_repointed(monkeypatch):
    """Record the distances ``close_set`` re-points rows to: every
    ``nearest`` call of a run without fallback steps comes from it."""
    repointed = []

    def recording_nearest(queries, targets):
        dis, pos = nearest(queries, targets)
        repointed.extend(np.atleast_1d(dis).tolist())
        return dis, pos

    monkeypatch.setattr(optimizer, "nearest", recording_nearest)
    return repointed


@pytest.mark.parametrize("kind", ["local", "global", "nodensity"])
@pytest.mark.parametrize("seed,delta,cap", [(0, 0.6, 10), (3, 0.6, 10), (4, 0.8, 12), (5, 0.6, 4)])
def test_matches_naive_reference_with_far_rows_after_close(monkeypatch, kind, seed, delta, cap):
    # A dense clump around center 0 and a sparse line ending at center 54:
    # set 0 reaches its cap first, and close_set re-points the clump's
    # rows to set 1's members at least the query radius away. Set 1 then
    # grows toward them, so only the fold over those far rows keeps
    # their cached distances right.
    rng = np.random.default_rng(seed)
    clump = rng.normal([0, 0], 0.3, (30, 2))
    line = np.column_stack([np.linspace(2, 12, 25), rng.normal(0, 0.2, 25)])
    pts = np.vstack([clump, line])
    repointed = _record_repointed(monkeypatch)
    ext = identify(pts, [0, 54], delta, strategy=SelectionStrategy(kind, cap=cap))
    _, order, order_sets, covered, fallbacks, trace = naive_identify(
        pts, [0, 54], delta, kind=kind, cap=cap
    )
    radius = delta if kind == "global" else 2 * delta
    assert ext.fallback_count == fallbacks == 0
    assert max(repointed) >= radius
    assert ext.all == order
    assert ext.all_sets == order_sets
    assert set(np.flatnonzero(ext.coverage).tolist()) == covered
    got_trace = [(t["object"], t["set"], t["covered"]) for t in ext.trace]
    assert got_trace == [(o, j, c) for (o, j, _, c) in trace]
    for got, want in zip(ext.trace, trace):
        assert got["dis"] == pytest.approx(want[2], rel=1e-9)


def _spiral_1500():
    """The 1,500-point spiral of the sweep benchmark (seed 0), kmeans k = 3
    centers and the default delta, its densities counted and kept."""
    path = Path(__file__).resolve().parents[1] / "scripts" / "make_benchmarks.py"
    spec = importlib.util.spec_from_file_location("make_benchmarks", path)
    make_benchmarks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_benchmarks)
    points, _ = make_benchmarks.spiral(n_per_arm=500, seed=0)
    ds = Dataset(points)
    centers, _ = ecac.build_algorithm("kmeans").center_process(ds, 3)
    delta = ecac.default_delta(ds)
    ds.index.density(delta)
    return ds, centers.tolist(), delta


def _counting_batches(monkeypatch):
    """Record (centers, entries) of every ``range_query_batch`` call."""
    calls = []
    batch = SpatialIndex.range_query_batch

    def counting(self, centers, radius):
        ids, dists, bounds = batch(self, centers, radius)
        calls.append((len(centers), ids.size))
        return ids, dists, bounds

    monkeypatch.setattr(SpatialIndex, "range_query_batch", counting)
    return calls


def test_batched_fetches_cut_tree_calls(monkeypatch):
    ds, centers, delta = _spiral_1500()
    calls = _counting_batches(monkeypatch)
    ext = identify_extended_centers(ds, centers, delta)
    assert ext.s > 1000
    assert len(calls) == ext.stats["tree_calls"] <= ext.s / 4
    assert ext.stats["lists_fetched"] == sum(m for m, _ in calls) >= ext.s
    assert ext.stats["peak_pending_entries"] <= optimizer._NEAREST_CHUNK


def test_pending_bound_stops_prefetching(monkeypatch):
    # With a bound of 2,000 pending entries the fetches fall back to the
    # new member alone once it is passed; the pending entries never exceed
    # the bound plus one batch, and the run is unchanged.
    ds, centers, delta = _spiral_1500()
    want = identify_extended_centers(ds, centers, delta)
    calls = _counting_batches(monkeypatch)
    monkeypatch.setattr(optimizer, "_NEAREST_CHUNK", 2000)
    got = identify_extended_centers(ds, centers, delta)
    assert (got.sets, got.all_sets, got.trace) == (want.sets, want.all_sets, want.trace)
    assert got.coverage.tolist() == want.coverage.tolist()
    assert sum(1 for m, _ in calls if m == 1) > 10
    assert 2000 < got.stats["peak_pending_entries"] <= 2000 + max(e for _, e in calls)
    assert got.stats["tree_calls"] > want.stats["tree_calls"]


class TestIdentifyProperties:
    def test_termination_and_increments(self):
        pts = random_instance(7, n=60)
        ext = identify(pts, [0, 20, 40], 0.8)
        n, k = 60, 3
        assert len(ext.trace) <= n - k
        assert ext.s == k + len(ext.trace)
        assert ext.fully_covered
        covered_counts = [t["covered"] for t in ext.trace]
        assert all(b >= a for a, b in zip(covered_counts, covered_counts[1:]))

    def test_disjoint_partition(self):
        pts = random_instance(8, n=50)
        ext = identify(pts, [0, 25], 0.7)
        flat = [m for group in ext.sets for m in group]
        assert sorted(flat) == sorted(set(flat))
        assert sorted(flat) == sorted(ext.all)
        assert ext.all[:2] == [0, 25]

    def test_scale_equivariance(self):
        pts = random_instance(9, n=45)
        ext1 = identify(pts, [0, 22], 0.8)
        ext2 = identify(pts * 4.0, [0, 22], 0.8 * 4.0)
        assert ext1.all == ext2.all
        assert ext1.all_sets == ext2.all_sets

    def test_nodensity_equals_standard_when_all_isolated(self):
        # delta below the minimum gap: every density is 1, so the weight
        # divides everything by the same constant.
        rng = np.random.default_rng(12)
        pts = rng.uniform(0, 10, (30, 2))
        from scipy.spatial.distance import pdist

        delta = 0.9 * pdist(pts).min()
        a = identify(pts, [0, 15], delta, strategy=SelectionStrategy("local"))
        b = identify(pts, [0, 15], delta, strategy=SelectionStrategy("nodensity"))
        assert a.all == b.all and a.all_sets == b.all_sets

    def test_cap_bounds_every_set(self):
        pts = random_instance(10, n=50)
        ext = identify(pts, [0, 25], 0.5, strategy=SelectionStrategy("local", cap=4))
        assert all(len(group) - 1 <= 4 for group in ext.sets)

    def test_extended_sets_pure_on_separated_blobs(self):
        ds, gt = generate_gaussian_mixture(
            2, 60, [[0, 0], [80, 0]], 1.0, seed=31
        )
        from ecac.density import default_delta

        delta = default_delta(ds)
        for kind in ("local", "global"):
            ext = identify_extended_centers(
                ds, [0, 60], delta, strategy=SelectionStrategy(kind)
            )
            for group in ext.sets:
                assert len(set(gt.labels[group].tolist())) == 1


class TestMergeClusters:
    def test_identity_when_no_extension(self):
        ext = ExtendedSets(
            sets=[[4], [9]], all=[4, 9], all_sets=[0, 1],
            coverage=np.ones(10, bool), delta=1.0,
        )
        initial = np.array([0, 1, 1, 0])
        assert merge_clusters(initial, ext).tolist() == [0, 1, 1, 0]

    def test_union_by_set(self):
        # all = [e1, e2, e3] with e1,e3 in set 0 and e2 in set 1.
        ext = ExtendedSets(
            sets=[[5, 7], [6]], all=[5, 6, 7], all_sets=[0, 1, 0],
            coverage=np.ones(4, bool), delta=1.0,
        )
        assert merge_clusters([0, 2, 1, 2], ext).tolist() == [0, 0, 1, 0]

    def test_label_out_of_range(self):
        ext = ExtendedSets(
            sets=[[0]], all=[0], all_sets=[0],
            coverage=np.ones(2, bool), delta=1.0,
        )
        with pytest.raises(LabelOutOfRange):
            merge_clusters([0, 1], ext)

    def test_counts_preserved(self):
        pts = random_instance(13, n=50, clumps=True)
        ds = Dataset(pts)
        ext = identify_extended_centers(ds, [0, 25], 0.8)
        from ecac.algorithms import nearest_center_assignment

        initial = nearest_center_assignment(ds, ext.all)
        final = merge_clusters(initial, ext)
        for set_idx, group in enumerate(ext.sets):
            member_positions = [ext.all.index(m) for m in group]
            expected = sum(int((initial == p).sum()) for p in member_positions)
            assert int((final == set_idx).sum()) == expected


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), delta=st.floats(0.3, 3.0))
def test_identify_always_terminates_covered(seed, delta):
    pts = random_instance(seed, n=25)
    ext = identify(pts, [0, 12], delta)
    assert ext.fully_covered
    assert ext.s <= 25
    assert len(ext.trace) == ext.s - 2


# Peak resident memory allowed to a fresh process whose local extension
# needs whole-dataset fallback steps: 4 blobs 100 apart at n = 8,000 with
# 2 kmeans centers, so two blobs are reached only by fallback. Measured
# on a 2-core Linux host: 88 MB; a dense non-members x members scan took
# 331 MB.
FALLBACK_PEAK_RSS_BUDGET_MB = 200

_FALLBACK_PEAK_SCRIPT = """
from ecac import build_algorithm, generate_gaussian_mixture, run_optimized
ds, _ = generate_gaussian_mixture(4, 2000, [[0, 0], [100, 0], [0, 100], [100, 100]], 2.0, 0)
result = run_optimized(ds, build_algorithm("kmeans"), 2)
with open("/proc/self/status") as fh:
    peak_kb = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
print(result.fallback_count, peak_kb)
"""


def test_far_blobs_fallback_peak_memory_at_8k():
    if not Path("/proc/self/status").exists():
        pytest.skip("VmHWM is read from /proc/self/status (Linux only)")
    env = dict(os.environ, PYTHONPATH=str(Path(ecac.__file__).resolve().parents[1]))
    child = subprocess.run(
        [sys.executable, "-c", _FALLBACK_PEAK_SCRIPT],
        capture_output=True, text=True, env=env, timeout=300, check=True,
    )
    fallbacks, peak_kb = map(int, child.stdout.split())
    assert fallbacks >= 1
    assert peak_kb / 1024 < FALLBACK_PEAK_RSS_BUDGET_MB
