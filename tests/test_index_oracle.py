"""The cell-grid index against SciPy's KD-tree and brute-force loops.

SciPy is a test-only dependency: here its ``cKDTree`` lists candidates
at a slightly inflated radius, and the package's distance rule
(``oracles.row_norms``, which ``_distances`` follows) with the strict
``<`` decides, so every expected answer is exact. The points sit on a small integer lattice, scaled, so that
duplicates and points at exactly distance r occur often; queries also
come from outside the data's extent, and coordinates may be negative.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from ecac import data
from ecac.data import Dataset, SpatialIndex

from oracles import row_norms


def tree_range(points, center, radius):
    """Sorted ids of ``points`` at strict distance < radius from center."""
    found = cKDTree(points).query_ball_point(center, radius * (1 + 1e-6))
    found = np.asarray(found, dtype=np.int64)
    return np.sort(found[row_norms(points[found] - center) < radius])


def exact_nearest_higher(points, rank):
    """Per object, the nearest object of lower rank by (distance, rank),
    and that distance; -1 and inf for the object of rank 0."""
    dist = np.full(len(points), np.inf)
    found = np.full(len(points), -1)
    for i, p in enumerate(points):
        higher = np.flatnonzero(rank < rank[i])
        if higher.size:
            d = row_norms(points[higher] - p)
            best = np.lexsort((rank[higher], d))[0]
            dist[i], found[i] = d[best], higher[best]
    return dist, found


@st.composite
def instances(draw, scale=None):
    """(points, queries, radius)."""
    d = draw(st.sampled_from([1, 2, 3, 8]))
    n = draw(st.integers(1, 40))
    lattice = st.lists(st.integers(-6, 6), min_size=d, max_size=d)
    base = draw(st.lists(lattice, min_size=1, max_size=n))
    copies = draw(st.lists(st.integers(0, len(base) - 1), max_size=8))
    if scale is None:
        scale = draw(st.sampled_from([1.0, 0.1, 1e-3, 7.5, 1e6]))
    points = np.array(base + [base[i] for i in copies], dtype=float) * scale
    outside = st.lists(st.integers(-12, 12), min_size=d, max_size=d)
    queries = [points[i] for i in draw(st.lists(st.integers(0, len(points) - 1), max_size=4))]
    queries += [np.array(q, dtype=float) * scale for q in draw(st.lists(outside, min_size=1, max_size=4))]
    radius = scale * draw(st.one_of(
        st.integers(1, 8).map(float),  # whole lattice steps: exact-distance boundaries
        st.floats(0.05, 9.0),
    ))
    return points, np.array(queries), radius


def check_index(points, queries, radius):
    index = SpatialIndex(Dataset(points))
    want = [tree_range(points, q, radius) for q in queries]
    for q, expected in zip(queries, want):
        assert index.range_query_many([q], radius)[0].tolist() == expected.tolist()
    assert [a.tolist() for a in index.range_query_many(queries, radius)] == [
        w.tolist() for w in want
    ]
    assert index.density(radius).tolist() == [tree_range(points, p, radius).size for p in points]
    # DPC's rank (densest first, lower id on ties) and a shuffled one.
    n = len(points)
    dpc_rank = np.empty(n, dtype=np.int64)
    dpc_rank[np.lexsort((np.arange(n), -index.density(radius)))] = np.arange(n)
    for rank in (dpc_rank, np.random.default_rng(n).permutation(n)):
        got_dist, got_found = index.nearest_higher(rank, radius)
        want_dist, want_found = exact_nearest_higher(points, rank)
        assert got_found.tolist() == want_found.tolist()
        assert np.array_equal(got_dist, want_dist)


def check_runs(points, radius):
    """Every point at strict distance < radius from a point lies in the
    run of that point's cell, and a run lists an id at most once, as a
    read-only int32. The runs' blocks are consecutive cells that hold at
    most ``_RUN_BLOCK`` ids, or one cell, each gathered when first read."""
    runs = SpatialIndex(Dataset(points)).candidate_runs(radius)
    cell, bounds = runs.cell, runs.bounds
    assert bounds[0] == 0 and (np.diff(bounds) > 0).all()
    # A box meets at most 9 cells per grid axis (at most two axes).
    assert bounds[-1] <= 9 ** min(points.shape[1], 2) * len(points)
    assert runs.blocks == [None] * len(runs.blocks)
    for i, p in enumerate(points):
        run = runs.run(cell[i])
        assert run.dtype == np.int32 and not run.flags.writeable
        assert run.size == bounds[cell[i] + 1] - bounds[cell[i]]
        assert np.unique(run).size == run.size
        near = np.flatnonzero(np.sqrt(((points - p) ** 2).sum(axis=1)) < radius)
        assert np.isin(near, run).all()
    # Every cell holds a point, so every block was read.
    starts = runs._starts
    assert starts[0] == 0 and starts[-1] == bounds.size - 1 and (np.diff(starts) > 0).all()
    sizes = [block.size for block in runs.blocks]
    assert sizes == np.diff(bounds[starts]).tolist() and sum(sizes) == bounds[-1]
    assert all(size <= data._RUN_BLOCK or b - a == 1 for size, a, b in zip(sizes, starts, starts[1:]))
    assert runs.entries(cell) == bounds[-1]


@settings(max_examples=300, deadline=None)
@given(instances())
def test_index_matches_tree_oracle(instance):
    check_index(*instance)


@settings(max_examples=300, deadline=None)
@given(instances(), st.sampled_from([None, 1e10, -1e12]), st.booleans(),
       st.sampled_from([1, 16, 200, data._RUN_BLOCK]))
def test_candidate_runs_hold_every_neighbour(instance, far, infinite, block):
    # Lattice points with duplicates, negative coordinates and radii of
    # whole lattice steps (points at exactly r); a far point at a small
    # scale puts the extent-to-radius ratio above 2**32, and an infinite
    # radius makes one cell that holds every point. Small blocks spread
    # the runs over many blocks, and cut runs longer than a block.
    points, _, radius = instance
    if far is not None:
        points = np.vstack([points * 1e-9, np.full((1, points.shape[1]), far)])
        radius *= 1e-9
        assert np.ptp(points) / radius > 2.0**32
    if infinite:
        radius = np.inf
    with mock.patch.object(data, "_RUN_BLOCK", block):
        check_runs(points, radius)


@settings(max_examples=60, deadline=None)
@given(instances(scale=1e-3), st.floats(1e10, 1e12), st.sampled_from([1, -1]))
def test_extent_far_beyond_two_to_the_32_radii(instance, far, sign):
    # One point far away makes the extent-to-radius ratio exceed 2**32
    # (radii here are at most 9e-3), so cell labels run past int32 and
    # their products would overflow int64.
    points, queries, radius = instance
    lone = np.full((1, points.shape[1]), sign * far)
    points = np.vstack([points, lone])
    queries = np.vstack([queries, lone, lone + radius / 2])
    assert np.ptp(points) / radius > 2.0**32
    check_index(points, queries, radius)


@pytest.mark.parametrize("d", [1, 2, 3, 8])
def test_points_at_exactly_the_radius_are_outside(d):
    # Lattice neighbours at exactly distance 1 on every axis, both signs.
    steps = np.vstack([np.eye(d), -np.eye(d)])
    points = np.vstack([np.zeros((1, d)), steps, 2 * steps, steps])  # steps twice: duplicates
    index = SpatialIndex(Dataset(points))
    assert index.range_query_many(np.zeros((1, d)), 1.0)[0].tolist() == [0]
    assert index.range_query_many(np.zeros((1, d)), np.nextafter(1.0, 2.0))[0].tolist() == list(
        range(1 + 2 * d)
    ) + list(range(1 + 4 * d, 1 + 6 * d))
    assert index.density(1.0)[0] == 1
    check_runs(points, 1.0)
    check_runs(points, np.nextafter(1.0, 2.0))


@pytest.mark.parametrize("d", [1, 2])
def test_a_run_meets_nine_cells_per_axis(d):
    # At r = 3 the cells have side 1. A cell holding points on both of its
    # edges (k and k + 1 - 1e-12) has a box from k - 3(1 + 1e-9) to
    # k + 4 - 1e-12 + 3e-9, which meets labels k - 4 to k + 4: 9 cells
    # per axis, 9 ids per point in 1-D and 81 in 2-D. Over 30 cells per
    # axis the runs then hold more than 8**d ids per point.
    axis = np.concatenate([np.arange(30.0), np.arange(30.0) + 1 - 1e-12])
    points = np.stack(np.meshgrid(*[axis] * d), axis=-1).reshape(-1, d)
    check_runs(points, 3.0)
    bounds = SpatialIndex(Dataset(points)).candidate_runs(3.0).bounds
    assert np.diff(bounds).max() == 2**d * 9**d
    assert bounds[-1] > 8**d * len(points)


@pytest.mark.parametrize("d", [1, 2, 8])
def test_an_infinite_radius_finds_every_point(d):
    points = np.random.default_rng(d).normal(size=(30, d)) * 1e3
    index = SpatialIndex(Dataset(points))
    assert index.range_query_many(np.full((1, d), -1e6), np.inf)[0].tolist() == list(range(30))
    assert index.density(np.inf).tolist() == [30] * 30
    runs = index.candidate_runs(np.inf)
    assert runs.cell.tolist() == [0] * 30 and runs.bounds.tolist() == [0, 30]
    assert sorted(runs.run(0).tolist()) == list(range(30))


@pytest.mark.parametrize("scale", [1e-170, 1e-300, 1e200])
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_grid_at_extreme_scales(scale):
    # Squared differences underflow to 0 or overflow to inf here; counts
    # and nearest higher-ranked objects still match the brute force.
    points = np.array([[0, 0], [1, 2], [3, 1], [2, 2], [5, 5], [1, 2]], dtype=float) * scale
    index = SpatialIndex(Dataset(points))
    for r in (np.nextafter(0.0, 1.0), scale, 2.5 * scale, np.inf):
        assert index.density(r).tolist() == [
            int((row_norms(points - q) < r).sum()) for q in points
        ]
        rank = np.array([3, 0, 5, 1, 2, 4])
        got_dist, got_found = index.nearest_higher(rank, r)
        want_dist, want_found = exact_nearest_higher(points, rank)
        assert got_found.tolist() == want_found.tolist()
        assert np.array_equal(got_dist, want_dist)
