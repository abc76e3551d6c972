"""The cell-grid index against SciPy's KD-tree and brute-force loops.

SciPy is a test-only dependency: here its ``cKDTree`` lists candidates
at a slightly inflated radius, and the package's own distance
(``_row_norms``) with the strict ``<`` decides, so every expected answer
is exact. The points sit on a small integer lattice, scaled, so that
duplicates and points at exactly distance r occur often; queries also
come from outside the data's extent, and coordinates may be negative.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from ecac.data import Dataset, SpatialIndex, _row_norms


def tree_range(points, ids, center, radius):
    """Sorted ids of ``points[ids]`` at strict distance < radius from center."""
    found = cKDTree(points[ids]).query_ball_point(center, radius * (1 + 1e-6))
    found = ids[np.asarray(found, dtype=np.int64)]
    return np.sort(found[_row_norms(points[found] - center) < radius])


def exact_k_nearest(points, ids, center, k):
    """The k nearest of ``points[ids]`` ordered by (distance, id), checked
    against the KD-tree's own k-nearest distances."""
    dists = _row_norms(points[ids] - center)
    order = np.lexsort((ids, dists))[:k]
    tree_dists = np.atleast_1d(cKDTree(points[ids]).query(center, k=k)[0])
    np.testing.assert_allclose(dists[order], tree_dists, rtol=1e-12, atol=1e-300)
    return dists[order], ids[order]


def exact_nearest_higher(points, rank):
    """Per object, the nearest object of lower rank by (distance, rank),
    and that distance; -1 and inf for the object of rank 0."""
    dist = np.full(len(points), np.inf)
    found = np.full(len(points), -1)
    for i, p in enumerate(points):
        higher = np.flatnonzero(rank < rank[i])
        if higher.size:
            d = _row_norms(points[higher] - p)
            best = np.lexsort((rank[higher], d))[0]
            dist[i], found[i] = d[best], higher[best]
    return dist, found


@st.composite
def instances(draw, scale=None):
    """(points, subset ids or None, queries, radius, k)."""
    d = draw(st.sampled_from([1, 2, 3, 8]))
    n = draw(st.integers(1, 40))
    lattice = st.lists(st.integers(-6, 6), min_size=d, max_size=d)
    base = draw(st.lists(lattice, min_size=1, max_size=n))
    copies = draw(st.lists(st.integers(0, len(base) - 1), max_size=8))
    if scale is None:
        scale = draw(st.sampled_from([1.0, 0.1, 1e-3, 7.5, 1e6]))
    points = np.array(base + [base[i] for i in copies], dtype=float) * scale
    subset = None
    if draw(st.booleans()):
        subset = np.array(sorted(draw(st.sets(st.integers(0, len(points) - 1)))), dtype=np.int64)
    outside = st.lists(st.integers(-12, 12), min_size=d, max_size=d)
    queries = [points[i] for i in draw(st.lists(st.integers(0, len(points) - 1), max_size=4))]
    queries += [np.array(q, dtype=float) * scale for q in draw(st.lists(outside, min_size=1, max_size=4))]
    radius = scale * draw(st.one_of(
        st.integers(1, 8).map(float),  # whole lattice steps: exact-distance boundaries
        st.floats(0.05, 9.0),
    ))
    k = draw(st.integers(1, len(points) + 2))
    return points, subset, np.array(queries), radius, k


def check_index(points, subset, queries, radius, k):
    index = SpatialIndex(Dataset(points), subset)
    ids = np.arange(len(points)) if subset is None else subset
    want = [tree_range(points, ids, q, radius) for q in queries]
    for q, expected in zip(queries, want):
        assert index.range_query(q, radius).tolist() == expected.tolist()
        found, dists = index.range_query_with_distances(q, radius)
        assert np.array_equal(dists, _row_norms(points[found] - q))
    assert [a.tolist() for a in index.range_query_many(queries, radius)] == [
        w.tolist() for w in want
    ]
    found, dists, bounds = index.range_query_batch(queries, radius)
    for c, expected in enumerate(want):
        lo, hi = bounds[c], bounds[c + 1]
        assert np.sort(found[lo:hi]).tolist() == expected.tolist()
        assert np.array_equal(dists[lo:hi], _row_norms(points[found[lo:hi]] - queries[c]))
    assert index.density(radius).tolist() == [
        tree_range(points, ids, p, radius).size for p in points
    ]
    if subset is None:
        # DPC's rank (densest first, lower id on ties) and a shuffled one.
        n = len(points)
        dpc_rank = np.empty(n, dtype=np.int64)
        dpc_rank[np.lexsort((np.arange(n), -index.density(radius)))] = np.arange(n)
        for rank in (dpc_rank, np.random.default_rng(n).permutation(n)):
            got_dist, got_found = index.nearest_higher(rank, radius)
            want_dist, want_found = exact_nearest_higher(points, rank)
            assert got_found.tolist() == want_found.tolist()
            assert np.array_equal(got_dist, want_dist)
    if ids.size:
        got_dists, got_ids = index.k_nearest(queries, k)
        for c, q in enumerate(queries):
            want_dists, want_ids = exact_k_nearest(points, ids, q, min(k, ids.size))
            assert got_ids[c].tolist() == want_ids.tolist()
            assert np.array_equal(got_dists[c], want_dists)


@settings(max_examples=300, deadline=None)
@given(instances())
def test_index_matches_tree_oracle(instance):
    check_index(*instance)


@settings(max_examples=60, deadline=None)
@given(instances(scale=1e-3), st.floats(1e10, 1e12), st.sampled_from([1, -1]))
def test_extent_far_beyond_two_to_the_32_radii(instance, far, sign):
    # One point far away makes the extent-to-radius ratio exceed 2**32
    # (radii here are at most 9e-3), so cell labels run past int32 and
    # their products would overflow int64.
    points, subset, queries, radius, k = instance
    lone = np.full((1, points.shape[1]), sign * far)
    points = np.vstack([points, lone])
    queries = np.vstack([queries, lone, lone + radius / 2])
    assert np.ptp(points) / radius > 2.0**32
    check_index(points, subset, queries, radius, k)


@pytest.mark.parametrize("d", [1, 2, 3, 8])
def test_points_at_exactly_the_radius_are_outside(d):
    # Lattice neighbours at exactly distance 1 on every axis, both signs.
    steps = np.vstack([np.eye(d), -np.eye(d)])
    points = np.vstack([np.zeros((1, d)), steps, 2 * steps, steps])  # steps twice: duplicates
    index = SpatialIndex(Dataset(points))
    assert index.range_query(np.zeros(d), 1.0).tolist() == [0]
    assert index.range_query(np.zeros(d), np.nextafter(1.0, 2.0)).tolist() == list(
        range(1 + 2 * d)
    ) + list(range(1 + 4 * d, 1 + 6 * d))
    assert index.density(1.0)[0] == 1
    dists, ids = index.k_nearest(np.zeros((1, d)), 1 + 4 * d)
    # Ties at distance 1 come in id order, before the ones at distance 2.
    assert ids[0].tolist() == [0, *range(1, 1 + 2 * d), *range(1 + 4 * d, 1 + 6 * d)]
    assert dists[0].tolist() == [0.0] + [1.0] * (4 * d)


@pytest.mark.parametrize("d", [1, 2, 8])
def test_an_infinite_radius_finds_every_point(d):
    points = np.random.default_rng(d).normal(size=(30, d)) * 1e3
    index = SpatialIndex(Dataset(points), np.arange(0, 30, 2))
    assert index.range_query(np.full(d, -1e6), np.inf).tolist() == list(range(0, 30, 2))
    assert index.density(np.inf).tolist() == [15] * 30


@pytest.mark.parametrize("scale", [1e-170, 1e-300, 1e200])
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_k_nearest_at_extreme_scales(scale):
    # Squared differences underflow to 0 or overflow to inf here, and the
    # product of the extents does too; the (distance, id) order still holds.
    points = np.array([[0, 0], [1, 2], [3, 1], [2, 2], [5, 5], [1, 2]], dtype=float) * scale
    index = SpatialIndex(Dataset(points))
    dists, ids = index.k_nearest(points, 4)
    for c, q in enumerate(points):
        d = _row_norms(points - q)
        order = np.lexsort((np.arange(len(points)), d))[:4]
        assert ids[c].tolist() == order.tolist()
        assert np.array_equal(dists[c], d[order])
    for r in (np.nextafter(0.0, 1.0), scale, 2.5 * scale, np.inf):
        assert index.density(r).tolist() == [
            int((_row_norms(points - q) < r).sum()) for q in points
        ]
        rank = np.array([3, 0, 5, 1, 2, 4])
        got_dist, got_found = index.nearest_higher(rank, r)
        want_dist, want_found = exact_nearest_higher(points, rank)
        assert got_found.tolist() == want_found.tolist()
        assert np.array_equal(got_dist, want_dist)
