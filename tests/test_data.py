import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from ecac.data import (
    _CHUNK,
    _distance_matrix,
    _distances,
    Dataset,
    SpatialIndex,
    generate_gaussian_mixture,
    load_csv,
    nearest,
)
from ecac.density import default_delta, pairwise_distance_percentiles
from ecac.errors import (
    DimensionMismatch,
    EmptyDataset,
    InvalidRadius,
    InvalidSpec,
    ParseError,
)

from oracles import brute_densities, brute_range_query, row_norms


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

    def test_columns_are_the_kept_read_only_transpose(self):
        ds = Dataset(np.random.default_rng(0).normal(size=(50, 3)))
        columns = ds.columns
        assert columns.flags.c_contiguous and columns.shape == (3, 50)
        assert np.array_equal(columns, ds.points.T)
        assert ds.columns is columns
        with pytest.raises(ValueError):
            columns[0, 0] = 5.0


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
        got = SpatialIndex(ds).range_query_many([[0.0]], 5.0)[0]
        assert set(got.tolist()) == {0, 1}

    def test_boundary_excluded(self):
        ds = Dataset(np.array([[0.0], [3.0], [10.0]]))
        got = SpatialIndex(ds).range_query_many([[0.0]], 3.0)[0]
        assert set(got.tolist()) == {0}

    def test_self_only_when_radius_below_gap(self):
        ds = Dataset(np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0]]))
        index = SpatialIndex(ds)
        for i in range(3):
            assert index.range_query_many(ds.points[[i]], 1.0)[0].tolist() == [i]

    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(-5, 5, size=(200, 2))
        ds = Dataset(pts)
        index = SpatialIndex(ds)
        for _ in range(50):
            center = rng.uniform(-5, 5, size=2)
            radius = rng.uniform(0.1, 6.0)
            got = set(index.range_query_many([center], radius)[0].tolist())
            assert got == brute_range_query(pts, center, radius)

    def test_dimension_mismatch(self):
        ds = Dataset(np.array([[0.0, 0.0]]))
        with pytest.raises(DimensionMismatch):
            SpatialIndex(ds).range_query_many([[0.0]], 1.0)
        with pytest.raises(DimensionMismatch):
            SpatialIndex(ds).range_query_many(np.zeros((3, 3)), 1.0)
        with pytest.raises(DimensionMismatch):
            SpatialIndex(ds).range_query_many(np.zeros(2), 1.0)

    def test_nonpositive_radius(self):
        ds = Dataset(np.array([[0.0]]))
        with pytest.raises(InvalidRadius):
            SpatialIndex(ds).range_query_many([[0.0]], 0.0)


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
        assert got.tolist() == [len(ids) for ids in index.range_query_many(pts, radius)]
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


class TestNearestHigher:
    def test_needs_a_whole_dataset_index_and_a_rank_of_every_id(self):
        # An index always holds the whole dataset; the rank must order it.
        ds = Dataset(np.array([[0.0], [1.0], [3.0]]))
        for rank in ([0, 1], [0, 1, 1], [1, 2, 3], [[0, 1, 2]]):
            with pytest.raises(InvalidSpec, match="rank"):
                SpatialIndex(ds).nearest_higher(np.array(rank), 1.0)
        dist, found = SpatialIndex(ds).nearest_higher(np.array([2, 0, 1]), 1.0)
        assert found.tolist() == [1, -1, 1]
        assert dist.tolist() == [1.0, np.inf, 2.0]


class TestRangeQueryBatch:
    """``range_query_many`` over batches of centers."""

    @staticmethod
    def check(index, pts, centers, radius):
        found = index.range_query_many(centers, radius)
        assert len(found) == len(centers)
        for ids, center in zip(found, centers):
            assert ids.tolist() == sorted(brute_range_query(pts, center, radius))
            assert index.range_query_many([center], radius)[0].tolist() == ids.tolist()

    def test_full_index_with_duplicates(self):
        # A 0.25 grid with duplicate points and duplicate centers: the
        # zero-distance pairs must all come back.
        rng = np.random.default_rng(4)
        base = rng.integers(0, 10, size=(120, 2)) * 0.25
        pts = np.vstack([base, base[:40], base[:5]])
        index = SpatialIndex(Dataset(pts))
        centers = pts[[0, 0, 3, 120, 7, 160]]
        for radius in (0.25, 0.5, 0.9):
            self.check(index, pts, centers, radius)
        ids = index.range_query_many(pts[[0]], 1e-3)[0]
        assert ids.tolist() == sorted(brute_range_query(pts, pts[0], 1e-3))
        assert {0, 120, 160} <= set(ids.tolist())

    def test_three_dimensional_points(self):
        # The grid covers two of the three axes; the third is judged by
        # the exact distance alone.
        rng = np.random.default_rng(6)
        pts = rng.integers(0, 12, size=(200, 3)) * 0.25
        index = SpatialIndex(Dataset(pts))
        centers = pts[rng.choice(200, 40, replace=False)]
        for radius in (0.3, 0.75):
            self.check(index, pts, centers, radius)

    def test_boundary_and_slack_band(self):
        # Exactly at r is out; just inside r, within the tree's slack band,
        # is in; just past r * (1 + slack) is out.
        r = 1.0
        pts = np.array([[0.0], [r], [r - 2.0**-40], [-r * (1 + 2e-9)], [0.5]])
        index = SpatialIndex(Dataset(pts))
        found = index.range_query_many(pts[[0, 4]], r)
        assert [ids.tolist() for ids in found] == [[0, 2, 4], [0, 1, 2, 4]]
        self.check(index, pts, pts, r)

    def test_many_centers_and_none(self):
        # More than 256 centers groups through a wider sort key.
        rng = np.random.default_rng(8)
        pts = rng.normal(size=(400, 2))
        index = SpatialIndex(Dataset(pts))
        self.check(index, pts, pts[::-1][:300], 0.2)
        assert index.range_query_many(np.empty((0, 2)), 0.2) == []

    def test_validation(self):
        index = SpatialIndex(Dataset(np.zeros((3, 2))))
        with pytest.raises(DimensionMismatch):
            index.range_query_many(np.zeros(2), 1.0)
        with pytest.raises(InvalidRadius):
            index.range_query_many(np.zeros((1, 2)), 0.0)


class TestRowNorms:
    """``_distances``, the one gathered-distance kernel, against the row
    norms of the differences (``oracles.row_norms``, the distance rule by
    definition), ``_distance_matrix``, SciPy's ``cdist`` and NumPy."""

    @pytest.mark.parametrize("d", [1, 2, 3, 8, 13])
    def test_bit_identical_to_linalg_norm(self, d):
        # cdist adds the squares in coordinate order in every dimension;
        # NumPy's row sum does so only below d = 8, where it turns pairwise.
        rng = np.random.default_rng(d)
        scaled = rng.normal(size=(500, d)) * 10.0 ** rng.integers(-6, 7, size=(500, 1))
        grid = rng.integers(0, 5, size=(400, d)) * 0.25
        grid = np.vstack([grid, grid[:100]]) - grid[7]
        for x in (scaled, grid):
            got = _distances(x.T.copy(), np.zeros((d, 1)))
            assert np.array_equal(got, row_norms(x))
            assert np.array_equal(got, cdist(x, np.zeros((1, d)))[:, 0])
            if d < 8:
                assert np.array_equal(got, np.linalg.norm(x, axis=1))

    @pytest.mark.parametrize("d", [1, 2, 3, 7, 8, 9, 16])
    def test_one_distance_for_every_pair(self, d):
        # The kernel of the grid passes and of the extension's answers and
        # folds, the one of nearest and close_set, and SciPy's: the same
        # last bit for every pair.
        rng = np.random.default_rng(d)
        a, b = rng.normal(size=(2, 2000, d))
        columns = np.ascontiguousarray(a.T)
        rows = _distances(columns.copy(), b.T.copy())
        assert np.array_equal(rows, row_norms(a - b))
        assert np.array_equal(rows, np.diagonal(_distance_matrix(a, b)))
        assert np.array_equal(rows, np.diagonal(cdist(a, b)))
        # One object, a d x 1 column, against 500 ids that repeat and
        # include the object.
        i = int(rng.integers(2000))
        ids = rng.integers(0, 100, size=500)
        ids[::50] = i
        got = _distances(columns.take(ids, axis=1), columns[:, i, None])
        assert np.array_equal(got, row_norms(a[ids] - a[i]))
        assert np.array_equal(got, cdist(a[ids], a[[i]])[:, 0])
        assert (got[::50] == 0).all()
        assert np.array_equal(columns, a.T)  # only the gathered array is overwritten


class TestNearest:
    def test_matches_unchunked_scan_with_ties(self):
        # A 0.25 grid with duplicate points: squared distances are exact,
        # so many rows have several equally near targets.
        rng = np.random.default_rng(5)
        queries = rng.integers(0, 12, size=(3000, 2)) * 0.25
        targets = rng.integers(0, 12, size=(1000, 2)) * 0.25
        assert queries.shape[0] > 2 * (_CHUNK // targets.shape[0])  # >= 3 chunks
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
    assert i in SpatialIndex(ds).range_query_many(ds.points[[i]], radius)[0]


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
    small = set(index.range_query_many([center], r1)[0].tolist())
    big = set(index.range_query_many([center], r2)[0].tolist())
    assert small <= big


def traced_peak_mb(call) -> float:
    """The most memory, in MB, that NumPy and Python held during call()
    beyond what they held before it."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


class TestScratchMemory:
    """Chunked passes hold about _CHUNK entries per array, whatever the
    input's size, so their scratch stays a few MB."""

    def test_distance_sample(self):
        # The 1,000-point sample's 499,500 distances are never held at once.
        ds = Dataset(np.random.default_rng(0).normal(size=(1500, 2)))
        assert traced_peak_mb(lambda: pairwise_distance_percentiles(ds, [0.02])) < 2.0

    def test_nearest(self):
        rng = np.random.default_rng(1)
        queries, targets = rng.normal(size=(5000, 2)), rng.normal(size=(2000, 2))
        assert traced_peak_mb(lambda: nearest(queries, targets)) < 2.0

    def test_density_count(self):
        # The benchmark's 10k blobs at the default delta. The grid's build
        # counts too (about 0.9 MB); a pass of _CHUNK 2-D candidates holds
        # about 2.5 MB, and the slice table of a block of boxes about 1 MB.
        ds, _ = generate_gaussian_mixture(
            4, 2500, [[0.0, 0.0], [12.0, 0.0], [0.0, 12.0], [12.0, 12.0]], 2.0, 0
        )
        delta, index = default_delta(ds), SpatialIndex(ds)
        assert traced_peak_mb(lambda: index.density(delta)) < 5.0

    def test_radius_queries(self):
        # The scratch is the peak less the answers still held after the
        # call. One slice table and one concatenation over all 50,000
        # queries held about 12 MB; blocks of _BOXES queries hold about 2.
        rng = np.random.default_rng(2)
        index = SpatialIndex(Dataset(rng.normal(size=(10_000, 2))))
        queries = rng.normal(size=(50_000, 2))
        tracemalloc.start()
        try:
            answers = index.range_query_many(queries, 0.05)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(answers) == 50_000
        assert (peak - held) / 2**20 < 4.0
