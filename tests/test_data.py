import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from ecac.data import (
    _NEAREST_CHUNK,
    _row_norms,
    Dataset,
    SpatialIndex,
    generate_gaussian_mixture,
    load_csv,
    nearest,
)
from ecac.errors import (
    DimensionMismatch,
    EcacError,
    EmptyDataset,
    InvalidRadius,
    InvalidSpec,
    ParseError,
)

from oracles import brute_densities, brute_range_query


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadCsv:
    def test_last_column_labels(self, tmp_path):
        path = write(tmp_path, "1,2,a\n3,4,a\n5,6,b\n")
        ds, gt = load_csv(path, label_column=-1)
        assert (ds.n, ds.d) == (3, 2)
        assert gt.labels.tolist() == [0, 0, 1]
        assert gt.k_true == 2

    def test_no_labels(self, tmp_path):
        ds, gt = load_csv(write(tmp_path, "1,2\n3,4\n"))
        assert (ds.n, ds.d) == (2, 2)
        assert gt is None

    def test_header_autodetected(self, tmp_path):
        path = write(tmp_path, "x,y,class\n1,2,a\n3,4,b\n")
        ds, gt = load_csv(path, label_column=2)
        assert ds.n == 2
        assert gt.labels.tolist() == [0, 1]

    def test_label_column_by_name(self, tmp_path):
        path = write(tmp_path, "x,y,class\n1,2,a\n3,4,b\n3,4,a\n")
        ds, gt = load_csv(path, label_column="class")
        assert ds.n == 3
        assert gt.labels.tolist() == [0, 1, 0]

    def test_label_name_without_header(self, tmp_path):
        with pytest.raises(ParseError):
            load_csv(write(tmp_path, "1,2,a\n"), label_column="missing")

    def test_nan_cell_rejected(self, tmp_path):
        with pytest.raises(ParseError):
            load_csv(write(tmp_path, "1,2\nNaN,4\n"))

    def test_inf_cell_rejected(self, tmp_path):
        with pytest.raises(ParseError):
            load_csv(write(tmp_path, "1,2\ninf,4\n"))

    def test_ragged_rows_rejected(self, tmp_path):
        with pytest.raises(ParseError):
            load_csv(write(tmp_path, "1,2\n3,4,5\n"))

    def test_empty_file(self, tmp_path):
        with pytest.raises(EmptyDataset):
            load_csv(write(tmp_path, ""))

    def test_header_only(self, tmp_path):
        with pytest.raises(EmptyDataset):
            load_csv(write(tmp_path, "x,y\n"))

    def test_spiral_benchmark_file(self):
        ds, gt = load_csv("data/spiral.csv", label_column=-1)
        assert (ds.n, ds.d) == (312, 2)
        assert gt.k_true == 3

    def test_jain_benchmark_file(self):
        ds, gt = load_csv("data/jain.csv", label_column=-1)
        assert (ds.n, ds.d) == (373, 2)
        assert gt.k_true == 2


class TestDataset:
    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidSpec):
            Dataset(np.array([[1.0, np.nan]]))

    def test_rejects_empty(self):
        with pytest.raises(EmptyDataset):
            Dataset(np.empty((0, 2)))

    def test_points_immutable(self):
        ds = Dataset(np.array([[1.0, 2.0]]))
        with pytest.raises(ValueError):
            ds.points[0, 0] = 5.0


class TestGaussianMixture:
    def test_single_component(self):
        ds, gt = generate_gaussian_mixture(1, 10, [[0.0, 0.0]], 1.0, seed=7)
        assert ds.n == 10
        assert set(gt.labels.tolist()) == {0}

    def test_well_separated_components(self):
        ds, gt = generate_gaussian_mixture(2, 50, [[0, 0], [100, 0]], 1.0, seed=3)
        a = ds.points[gt.labels == 0]
        b = ds.points[gt.labels == 1]
        max_intra = max(
            np.linalg.norm(a - a.mean(axis=0), axis=1).max() * 2,
            np.linalg.norm(b - b.mean(axis=0), axis=1).max() * 2,
        )
        min_inter = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2).min()
        assert min_inter > max_intra

    def test_seed_determinism(self):
        ds1, _ = generate_gaussian_mixture(2, [5, 7], [[0, 0], [9, 9]], 0.5, seed=11)
        ds2, _ = generate_gaussian_mixture(2, [5, 7], [[0, 0], [9, 9]], 0.5, seed=11)
        assert np.array_equal(ds1.points, ds2.points)

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidSpec):
            generate_gaussian_mixture(2, 5, [[0, 0]], 1.0, seed=0)

    def test_bad_sigma(self):
        with pytest.raises(InvalidSpec):
            generate_gaussian_mixture(1, 5, [[0, 0]], 0.0, seed=0)


class TestRangeQuery:
    def test_line_points(self):
        ds = Dataset(np.array([[0.0], [3.0], [10.0]]))
        got = SpatialIndex(ds).range_query([0.0], 5.0)
        assert set(got.tolist()) == {0, 1}

    def test_boundary_excluded(self):
        ds = Dataset(np.array([[0.0], [3.0], [10.0]]))
        got = SpatialIndex(ds).range_query([0.0], 3.0)
        assert set(got.tolist()) == {0}

    def test_self_only_when_radius_below_gap(self):
        ds = Dataset(np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0]]))
        index = SpatialIndex(ds)
        for i in range(3):
            assert index.range_query(ds.points[i], 1.0).tolist() == [i]

    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(-5, 5, size=(200, 2))
        ds = Dataset(pts)
        index = SpatialIndex(ds)
        for _ in range(50):
            center = rng.uniform(-5, 5, size=2)
            radius = rng.uniform(0.1, 6.0)
            got = set(index.range_query(center, radius).tolist())
            assert got == brute_range_query(pts, center, radius)

    def test_dimension_mismatch(self):
        ds = Dataset(np.array([[0.0, 0.0]]))
        with pytest.raises(DimensionMismatch):
            SpatialIndex(ds).range_query([0.0], 1.0)
        with pytest.raises(DimensionMismatch):
            SpatialIndex(ds).range_query_many(np.zeros((3, 3)), 1.0)
        with pytest.raises(DimensionMismatch):
            SpatialIndex(ds).range_query_many(np.zeros(2), 1.0)

    def test_nonpositive_radius(self):
        ds = Dataset(np.array([[0.0]]))
        with pytest.raises(InvalidRadius):
            SpatialIndex(ds).range_query([0.0], 0.0)


class TestCountWithin:
    def grid(self):
        # A 2-D grid with unit gap plus duplicate copies: at r = 1 every
        # axis neighbour sits exactly on the boundary and must be excluded.
        xs, ys = np.meshgrid(np.arange(6.0), np.arange(5.0))
        pts = np.column_stack([xs.ravel(), ys.ravel()])
        return np.vstack([pts, pts[[0, 7, 7, 29]]])

    @pytest.mark.parametrize("radius", [1.0, 1.5, np.sqrt(2.0), 2.0])
    def test_matches_range_query_and_brute_force(self, radius):
        pts = self.grid()
        index = SpatialIndex(Dataset(pts))
        got = index.density(radius)
        assert got.tolist() == [len(index.range_query(p, radius)) for p in pts]
        assert got.tolist() == brute_densities(pts, radius)

    def test_boundary_excluded(self):
        ds = Dataset(np.array([[0.0], [1.0], [1.0], [3.0]]))
        assert SpatialIndex(ds).density(1.0).tolist() == [1, 2, 2, 1]

    def test_inside_slack_band_counted(self):
        # 1 - 2**-40 is inside radius 1 but within the tree's query slack.
        ds = Dataset(np.array([[0.0], [1.0 - 2.0**-40], [-1.0]]))
        assert SpatialIndex(ds).density(1.0).tolist() == [2, 2, 1]

    @pytest.mark.parametrize("radius", [0.0, -1.0])
    def test_nonpositive_radius(self, radius):
        index = SpatialIndex(Dataset(np.array([[0.0]])))
        with pytest.raises(InvalidRadius):
            index.density(radius)


class TestKNearest:
    def test_matches_brute_force_sort(self):
        # Continuous random points: all distances from a query are distinct,
        # so the nearest-first order is unique.
        rng = np.random.default_rng(11)
        pts = rng.normal(size=(60, 3))
        queries = rng.normal(size=(7, 3))
        for k in (1, 5, 60):
            dists, ids = SpatialIndex(Dataset(pts)).k_nearest(queries, k)
            brute = np.linalg.norm(pts[None, :, :] - queries[:, None, :], axis=2)
            expected = np.argsort(brute, axis=1)[:, :k]
            assert ids.shape == dists.shape == (7, k)
            assert ids.tolist() == expected.tolist()
            np.testing.assert_allclose(
                dists, np.take_along_axis(brute, expected, axis=1), rtol=1e-12
            )

    def test_k_above_n_lists_every_object(self):
        pts = np.array([[0.0], [3.0], [1.0]])
        dists, ids = SpatialIndex(Dataset(pts)).k_nearest(np.array([[0.0]]), 10)
        assert ids.tolist() == [[0, 2, 1]]
        assert dists.tolist() == [[0.0, 1.0, 3.0]]

    def test_dimension_mismatch(self):
        index = SpatialIndex(Dataset(np.array([[0.0, 0.0]])))
        with pytest.raises(DimensionMismatch):
            index.k_nearest(np.zeros((3, 3)), 1)
        with pytest.raises(DimensionMismatch):
            index.k_nearest(np.zeros(2), 1)

    @pytest.mark.parametrize("k", [0, -3])
    def test_k_below_one(self, k):
        index = SpatialIndex(Dataset(np.array([[0.0]])))
        with pytest.raises(EcacError, match="k must be >= 1"):
            index.k_nearest(np.zeros((1, 1)), k)


class TestNearestHigher:
    def test_needs_a_whole_dataset_index_and_a_rank_of_every_id(self):
        ds = Dataset(np.array([[0.0], [1.0], [3.0]]))
        with pytest.raises(InvalidSpec, match="whole dataset"):
            SpatialIndex(ds, [0, 2]).nearest_higher(np.array([0, 1, 2]), 1.0)
        for rank in ([0, 1], [0, 1, 1], [1, 2, 3], [[0, 1, 2]]):
            with pytest.raises(InvalidSpec, match="rank"):
                SpatialIndex(ds).nearest_higher(np.array(rank), 1.0)
        dist, found = SpatialIndex(ds).nearest_higher(np.array([2, 0, 1]), 1.0)
        assert found.tolist() == [1, -1, 1]
        assert dist.tolist() == [1.0, np.inf, 2.0]


class TestSubsetIndex:
    def test_queries_return_dataset_ids(self):
        # A 0.25 grid with duplicates; some query points are outside the
        # subset, so their own id must not come back.
        rng = np.random.default_rng(3)
        pts = rng.integers(0, 12, size=(200, 2)) * 0.25
        subset = np.flatnonzero(rng.random(200) < 0.6)
        outside = np.setdiff1d(np.arange(200), subset)
        index = SpatialIndex(Dataset(pts), subset)
        assert index.size == subset.size
        for i in [*subset[:6], *outside[:6]]:
            for radius in (0.25, 0.6, 1.3):
                want = sorted(set(subset.tolist()) & brute_range_query(pts, pts[i], radius))
                assert index.range_query(pts[i], radius).tolist() == want
                ids, dists = index.range_query_with_distances(pts[i], radius)
                assert sorted(ids.tolist()) == want
                assert dists.tolist() == np.linalg.norm(pts[ids] - pts[i], axis=1).tolist()
            assert i in subset or i not in index.range_query(pts[i], 1.3)
        in_subset = [set(subset.tolist()) & brute_range_query(pts, p, 0.6) for p in pts]
        assert index.density(0.6).tolist() == [len(ids) for ids in in_subset]
        dists, ids = index.k_nearest(pts[outside[:10]], 4)
        assert np.isin(ids, subset).all()
        for q, row_d, row_ids in zip(pts[outside[:10]], dists, ids):
            want = np.sort(np.linalg.norm(pts[subset] - q, axis=1))[:4]
            assert np.allclose(row_d, want)
            assert np.allclose(np.linalg.norm(pts[row_ids] - q, axis=1), want)


class TestRangeQueryBatch:
    @staticmethod
    def check(index, pts, centers, radius, indexed):
        ids, dists, bounds = index.range_query_batch(centers, radius)
        assert bounds.tolist()[0] == 0 and bounds.tolist()[-1] == ids.size
        assert (np.diff(bounds) >= 0).all()
        for c, center in enumerate(centers):
            got_ids, got_d = ids[bounds[c]:bounds[c + 1]], dists[bounds[c]:bounds[c + 1]]
            want = sorted(set(indexed) & brute_range_query(pts, center, radius))
            assert sorted(got_ids.tolist()) == want
            assert got_d.tolist() == np.linalg.norm(pts[got_ids] - center, axis=1).tolist()
            one_ids, one_d = index.range_query_with_distances(center, radius)
            assert dict(zip(got_ids.tolist(), got_d.tolist())) == dict(
                zip(one_ids.tolist(), one_d.tolist())
            )

    def test_full_index_with_duplicates(self):
        # A 0.25 grid with duplicate points and duplicate centers: the
        # zero-distance pairs must all come back.
        rng = np.random.default_rng(4)
        base = rng.integers(0, 10, size=(120, 2)) * 0.25
        pts = np.vstack([base, base[:40], base[:5]])
        index = SpatialIndex(Dataset(pts))
        centers = pts[[0, 0, 3, 120, 7, 160]]
        for radius in (0.25, 0.5, 0.9):
            self.check(index, pts, centers, radius, range(len(pts)))
        ids, dists, bounds = index.range_query_batch(pts[[0]], 1e-3)
        assert sorted(ids.tolist()) == sorted(brute_range_query(pts, pts[0], 1e-3))
        assert {0, 120, 160} <= set(ids.tolist()) and dists.tolist() == [0.0] * ids.size

    def test_subset_index(self):
        rng = np.random.default_rng(6)
        pts = rng.integers(0, 12, size=(200, 3)) * 0.25
        subset = np.flatnonzero(rng.random(200) < 0.5)
        index = SpatialIndex(Dataset(pts), subset)
        centers = pts[rng.choice(200, 40, replace=False)]
        for radius in (0.3, 0.75):
            self.check(index, pts, centers, radius, subset.tolist())

    def test_boundary_and_slack_band(self):
        # Exactly at r is out; just inside r, within the tree's slack band,
        # is in; just past r * (1 + slack) is out.
        r = 1.0
        pts = np.array([[0.0], [r], [r - 2.0**-40], [-r * (1 + 2e-9)], [0.5]])
        index = SpatialIndex(Dataset(pts))
        ids, dists, bounds = index.range_query_batch(pts[[0, 4]], r)
        assert bounds.tolist() == [0, 3, 7]
        assert sorted(ids[:3].tolist()) == [0, 2, 4]
        assert sorted(ids[3:].tolist()) == [0, 1, 2, 4]
        self.check(index, pts, pts, r, range(5))

    def test_many_centers_and_none(self):
        # More than 256 centers groups through a wider sort key.
        rng = np.random.default_rng(8)
        pts = rng.normal(size=(400, 2))
        index = SpatialIndex(Dataset(pts))
        self.check(index, pts, pts[::-1][:300], 0.2, range(400))
        ids, dists, bounds = index.range_query_batch(np.empty((0, 2)), 0.2)
        assert ids.size == dists.size == 0 and bounds.tolist() == [0]

    def test_validation(self):
        index = SpatialIndex(Dataset(np.zeros((3, 2))))
        with pytest.raises(DimensionMismatch):
            index.range_query_batch(np.zeros(2), 1.0)
        with pytest.raises(InvalidRadius):
            index.range_query_batch(np.zeros((1, 2)), 0.0)


class TestRowNorms:
    @pytest.mark.parametrize("d", [1, 2, 3, 8, 13])
    def test_bit_identical_to_linalg_norm(self, d):
        rng = np.random.default_rng(d)
        scaled = rng.normal(size=(500, d)) * 10.0 ** rng.integers(-6, 7, size=(500, 1))
        grid = rng.integers(0, 5, size=(400, d)) * 0.25
        grid = np.vstack([grid, grid[:100]]) - grid[7]
        for x in (scaled, grid):
            assert np.array_equal(_row_norms(x), np.linalg.norm(x, axis=1))


class TestNearest:
    def test_matches_unchunked_scan_with_ties(self):
        # A 0.25 grid with duplicate points: squared distances are exact,
        # so many rows have several equally near targets.
        rng = np.random.default_rng(5)
        queries = rng.integers(0, 12, size=(3000, 2)) * 0.25
        targets = rng.integers(0, 12, size=(1000, 2)) * 0.25
        assert queries.shape[0] > 2 * (_NEAREST_CHUNK // targets.shape[0])  # >= 3 chunks
        full = cdist(queries, targets)
        distance, position = nearest(queries, targets)
        assert distance.tolist() == full.min(axis=1).tolist()
        assert position.tolist() == full.argmin(axis=1).tolist()  # first of equal minima
        tied = (full == distance[:, None]).sum(axis=1) > 1
        assert tied.sum() > 1000

    def test_empty_queries(self):
        distance, position = nearest(np.empty((0, 2)), np.zeros((3, 2)))
        assert distance.shape == position.shape == (0,)
        assert position.dtype == np.int64


@st.composite
def small_datasets(draw):
    n = draw(st.integers(2, 25))
    d = draw(st.integers(1, 3))
    flat = draw(
        st.lists(
            st.floats(-50, 50, allow_nan=False, width=32),
            min_size=n * d,
            max_size=n * d,
        )
    )
    return np.array(flat, dtype=np.float64).reshape(n, d)


@settings(max_examples=40, deadline=None)
@given(points=small_datasets(), radius=st.floats(0.01, 30), i=st.integers(0, 1000))
def test_query_contains_self(points, radius, i):
    ds = Dataset(points)
    i = i % ds.n
    assert i in SpatialIndex(ds).range_query(ds.points[i], radius)


@settings(max_examples=40, deadline=None)
@given(
    points=small_datasets(),
    r1=st.floats(0.01, 10),
    r2=st.floats(0.01, 10),
    i=st.integers(0, 1000),
)
def test_query_monotone_in_radius(points, r1, r2, i):
    if r1 > r2:
        r1, r2 = r2, r1
    ds = Dataset(points)
    index = SpatialIndex(ds)
    center = ds.points[i % ds.n]
    small = set(index.range_query(center, r1).tolist())
    big = set(index.range_query(center, r2).tolist())
    assert small <= big
