import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import pdist

from ecac import density
from ecac.data import Dataset, SpatialIndex
from ecac.density import (
    compute_densities,
    default_delta,
    pairwise_distance_percentile,
    pairwise_distance_percentiles,
)
from ecac.errors import DegenerateDataset, InvalidRadius, InvalidSpec

from oracles import brute_densities, pairwise_distances


def densities_of(points, delta):
    ds = Dataset(points)
    return compute_densities(ds, SpatialIndex(ds), delta)


class TestComputeDensities:
    def test_isolated_point(self):
        rho = densities_of(np.array([[0.0], [100.0]]), 1.0).rho
        assert rho.tolist() == [1, 1]

    def test_coincident_points(self):
        pts = np.zeros((5, 2))
        for delta in (1e-9, 1.0, 100.0):
            assert densities_of(pts, delta).rho.tolist() == [5] * 5

    def test_matches_brute_force(self):
        rng = np.random.default_rng(42)
        pts = rng.normal(size=(300, 2))
        delta = 0.35
        assert densities_of(pts, delta).rho.tolist() == brute_densities(pts, delta)

    def test_invalid_radius(self):
        ds = Dataset(np.array([[0.0]]))
        with pytest.raises(InvalidRadius):
            compute_densities(ds, SpatialIndex(ds), 0.0)

    def test_index_of_another_dataset_rejected(self):
        ds = Dataset(np.array([[0.0], [0.5]]))
        other = Dataset(np.array([[0.0], [5.0]]))
        with pytest.raises(InvalidSpec, match="another dataset"):
            compute_densities(ds, SpatialIndex(other), 1.0)


class TestDefaultDelta:
    def test_two_points(self):
        ds = Dataset(np.array([[0.0], [10.0]]))
        for p in (0.001, 0.02, 0.5, 0.999):
            assert pairwise_distance_percentile(ds, p) == 10.0

    def test_grid_low_percentile(self):
        # 10x10 unit grid: the 4950 pairwise distances are enumerable and
        # the smallest ones all equal the grid gap.
        xs, ys = np.meshgrid(np.arange(10.0), np.arange(10.0))
        pts = np.column_stack([xs.ravel(), ys.ravel()])
        ds = Dataset(pts)
        dists = np.sort(pdist(pts))
        expected = dists[int(0.001 * dists.size)]
        assert pairwise_distance_percentile(ds, 0.001) == expected == 1.0

    def test_degenerate_dataset(self):
        ds = Dataset(np.zeros((4, 2)))
        with pytest.raises(DegenerateDataset):
            default_delta(ds)

    def test_excludes_zero_distances(self):
        ds = Dataset(np.array([[0.0], [0.0], [0.0], [7.0]]))
        assert pairwise_distance_percentile(ds, 0.01) == 7.0

    def test_sampling_deterministic(self):
        points = np.random.default_rng(1).normal(size=(1500, 3))
        first = pairwise_distance_percentile(Dataset(points), 0.02)
        assert first == pairwise_distance_percentile(Dataset(points.copy()), 0.02)

    def test_percentiles_read_one_sorted_sample(self):
        # N above the sample cap, with duplicate points: one sample, one
        # sort, and each percentile by the int(p * count) rule.
        rng = np.random.default_rng(7)
        pts = rng.integers(0, 40, size=(1500, 2)) * 0.5
        ds = Dataset(pts)
        fractions = [0.005, 0.01, 0.02, 0.04, 0.08, 0.9999]
        got = pairwise_distance_percentiles(ds, fractions)
        assert got == [pairwise_distance_percentile(ds, p) for p in fractions]
        sample = pts[np.sort(np.random.default_rng(0).choice(1500, size=1000, replace=False))]
        dists = np.sort(pdist(sample))
        dists = dists[dists > 0]
        assert got == [dists[min(int(p * dists.size), dists.size - 1)] for p in fractions]

    @pytest.mark.parametrize("n", [400, 1500])
    def test_partial_sort_equals_full_sort(self, n):
        # Integer points on a small grid: many duplicates (zero distances,
        # excluded) and long runs of equal distances. Fractions are
        # resolved a few at a time, in any order, and each must equal the
        # full sort's value; a resolved one is kept with the dataset.
        rng = np.random.default_rng(n)
        pts = rng.integers(0, 12, size=(n, 2)).astype(float)
        fractions = [0.9999, 0.001, 0.3, 0.02, 0.5, 0.005, 0.75, 0.0001]
        sample = pts
        if n > density.SAMPLE_CAP:
            chosen = np.random.default_rng(density.SAMPLE_SEED).choice(
                n, size=density.SAMPLE_CAP, replace=False
            )
            sample = pts[np.sort(chosen)]
        dists = np.sort(pdist(sample))
        assert dists[0] == 0
        dists = dists[dists > 0]
        want = {p: float(dists[min(int(p * dists.size), dists.size - 1)]) for p in fractions}
        ds = Dataset(pts)
        for group in ([0.02], fractions[:3], fractions[3:], fractions[::-1]):
            assert pairwise_distance_percentiles(ds, group) == [want[p] for p in group]
        assert {p: ds.derived[("percentile", p)] for p in fractions} == want

    def test_percentiles_reject_any_bad_fraction(self):
        ds = Dataset(np.array([[0.0], [1.0]]))
        with pytest.raises(InvalidRadius):
            pairwise_distance_percentiles(ds, [0.02, 1.0])


@st.composite
def point_clouds(draw):
    n = draw(st.integers(2, 20))
    d = draw(st.integers(1, 3))
    flat = draw(
        st.lists(st.floats(-20, 20, allow_nan=False, width=32), min_size=n * d, max_size=n * d)
    )
    return np.array(flat, dtype=np.float64).reshape(n, d)


@settings(max_examples=40, deadline=None)
@given(points=point_clouds(), d1=st.floats(0.01, 5), d2=st.floats(0.01, 5))
def test_density_monotone_in_delta(points, d1, d2):
    if d1 > d2:
        d1, d2 = d2, d1
    assert (densities_of(points, d1).rho <= densities_of(points, d2).rho).all()


@settings(max_examples=40, deadline=None)
@given(points=point_clouds(), delta=st.floats(0.01, 5))
def test_density_scale_equivariance(points, delta):
    # Power-of-two scaling keeps float distances exact.
    scaled = densities_of(points * 4.0, delta * 4.0).rho
    assert densities_of(points, delta).rho.tolist() == scaled.tolist()


@settings(max_examples=40, deadline=None)
@given(points=point_clouds(), delta=st.floats(0.01, 5))
def test_neighborhoods_symmetric(points, delta):
    ds = Dataset(points)
    index = SpatialIndex(ds)
    members = [set(ids.tolist()) for ids in index.range_query_many(ds.points, delta)]
    for i in range(ds.n):
        for j in members[i]:
            assert i in members[j]


@st.composite
def distance_samples(draw):
    """Up to a little more than SAMPLE_CAP points in d in {1, 2, 3, 8, 9}:
    exact duplicates, lattice ties, and, for some points scaled toward the
    origin, differences below 1e-154 whose squares are subnormal or 0."""
    cap = density.SAMPLE_CAP
    n = draw(st.one_of(st.integers(2, cap), st.integers(cap + 1, cap + 30)))
    d = draw(st.sampled_from([1, 2, 3, 8, 9]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    distinct = draw(st.integers(1, n))
    if draw(st.booleans()):
        base = rng.integers(-2, 3, size=(distinct, d)).astype(float)
    else:
        base = rng.normal(size=(distinct, d))
    points = base[rng.integers(0, distinct, size=n)]
    tiny = rng.random(n) < draw(st.sampled_from([0.0, 0.3, 1.0]))
    points[tiny] *= draw(st.sampled_from([1e-170, 1e-160, 1e-155]))
    return points


@settings(max_examples=40, deadline=None)
@given(
    points=distance_samples(),
    fractions=st.lists(st.one_of(st.just(0.999), st.floats(1e-4, 0.5)), min_size=1, max_size=4),
)
def test_streamed_percentiles_equal_a_full_sort(points, fractions):
    sample = points
    if len(points) > density.SAMPLE_CAP:
        chosen = np.random.default_rng(density.SAMPLE_SEED).choice(
            len(points), size=density.SAMPLE_CAP, replace=False
        )
        sample = points[np.sort(chosen)]
    dists = np.sort(pairwise_distances(sample))
    dists = dists[dists > 0]
    ds = Dataset(points)
    if dists.size == 0:
        with pytest.raises(DegenerateDataset):
            pairwise_distance_percentiles(ds, fractions)
        return
    want = [float(dists[min(int(p * dists.size), dists.size - 1)]) for p in fractions]
    assert pairwise_distance_percentiles(ds, fractions) == want
