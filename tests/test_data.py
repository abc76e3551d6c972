import re
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from ecac import data
from ecac.data import (
    _CHUNK,
    _CSV_CELLS,
    _distance_matrix,
    _distances,
    Dataset,
    SpatialIndex,
    generate_gaussian_mixture,
    load_csv,
    nearest,
)
from ecac.config import DEFAULT_SWEEP
from ecac.density import default_delta, pairwise_distance_percentiles
from ecac.errors import (
    DimensionMismatch,
    EcacError,
    EmptyDataset,
    InvalidRadius,
    InvalidSpec,
    ParseError,
)

from oracles import brute_densities, brute_range_query, load_csv_rows, row_norms


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

    def test_byte_order_mark_keeps_the_first_row(self, tmp_path):
        # Excel's "CSV UTF-8" starts with one; read as a cell it made the
        # first row a header, dropped without a word.
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf1.0,2.0,0\n3.0,4.0,1\n5.0,6.0,0\n")
        ds, gt = load_csv(path, label_column=-1)
        assert ds.points.tolist() == [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]
        assert gt.labels.tolist() == [0, 1, 0]

    def test_byte_order_mark_before_a_header(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbfx,y,label\n1,2,0\n3,4,1\n")
        ds, gt = load_csv(path, label_column="x")
        assert ds.points.tolist() == [[2.0, 0.0], [4.0, 1.0]]
        assert gt.labels.tolist() == [0, 1]

    @pytest.mark.parametrize("load", [load_csv, load_csv_rows], ids=["loader", "oracle"])
    @pytest.mark.parametrize("content,fault", [
        # Past a text reader's first 8 KB read, whose own offset (12,004 -
        # 8,192) was named before; a byte-order mark is three bytes more.
        (b"1.0,2.0\n" * 1500 + b"3.0,\xff\n", "invalid start byte at byte 12004"),
        (b"\xef\xbb\xbf" + b"1.0,2.0\n" * 1500 + b"3.0,\xff\n", "invalid start byte at byte 12007"),
        (b"1.0,2.0\n" * 1500 + b"3.0,\xe2\x82", "unexpected end of data at byte 12004"),
        # A sequence cut by the end of a 64 KB block, whole or not.
        (b"1.0,2.0\n" * 8191 + b"1.0,2.0\xc3\xa9\n3.0,\xff\n", "invalid start byte at byte 65542"),
        (b"1.0,2.0\n" * 8191 + b"1.0,2.0\xc3A\n", "invalid continuation byte at byte 65535"),
    ], ids=["start", "bom", "end", "across-blocks", "cut-by-a-block"])
    def test_a_decoding_error_names_its_offset_in_the_file(self, tmp_path, load, content, fault):
        path = tmp_path / "bad.csv"
        path.write_bytes(content)
        with pytest.raises(ParseError, match=re.escape(f"not UTF-8 text ({fault})")):
            load(path)

    def test_rows_of_many_blocks_load_as_the_oracle_loads_them(self, tmp_path):
        # Three blocks and a part of rows, blank rows between them, then a
        # bad cell in the third block and a ragged row in the last: the
        # ragged row is named, as it is when the whole table is read first.
        rng = np.random.default_rng(4)
        rows = 3 * (_CSV_CELLS // 3) + 100
        points = rng.normal(size=(rows, 2)) * 10.0 ** rng.integers(-8, 8, size=(rows, 1))
        lines = [f"{x!r}, {y!r} ,c{i % 7}" for i, (x, y) in enumerate(points.tolist())]
        lines[500:500] = ["", " , , "]
        path = write(tmp_path, "\n".join(lines) + "\n")
        ds, gt = load_csv(path, label_column=-1)
        want_ds, want_gt = load_csv_rows(path, label_column=-1)
        assert ds.points.tobytes() == want_ds.points.tobytes() == points.tobytes()
        assert gt.labels.tolist() == want_gt.labels.tolist() and gt.k_true == 7
        lines[-400] = "1.0,x,c0"
        lines[-10] = "1.0,2.0"
        path = write(tmp_path, "\n".join(lines) + "\n")
        with pytest.raises(ParseError) as raised:
            load_csv(path, label_column=-1)
        with pytest.raises(ParseError) as expected:
            load_csv_rows(path, label_column=-1)
        assert str(raised.value) == str(expected.value)
        assert f"row {rows - 10} has 2 cells, expected 3" in str(raised.value)

    def test_memory_of_a_long_file(self, tmp_path):
        # 200,000 2-D rows with labels: the row table of strings traced
        # 55.7 MB; parsed in blocks the loader holds at most three times
        # the 3.05 MB point matrix plus 2 MB.
        rng = np.random.default_rng(5)
        points = np.round(rng.normal(size=(200_000, 2)), 6)
        path = tmp_path / "long.csv"
        path.write_text("".join(f"{x:.6f},{y:.6f},{i % 3}\n" for i, (x, y) in enumerate(points)))
        peak = traced_peak_mb(lambda: load_csv(path, label_column=-1))
        assert peak <= 3 * points.nbytes / 2**20 + 2.0


CELLS = st.one_of(
    st.floats(-1e9, 1e9, allow_nan=False).map(repr),
    st.integers(-999, 999).map(str),
    st.sampled_from(["1e3", " 2.5", "-0.0 ", "\"3.25\"", "\t7", "1.7e308"]),
)
BAD_CELLS = ["abc", "nan", "inf", "-inf", "", "\"1,5\"", "1.2.3"]
BLANK_ROWS = ["", "  ", ",,", " , "]


@st.composite
def csv_files(draw):
    """A CSV file's bytes and a label column to load it with: 1- to 5-D,
    blank rows, quoted cells and whitespace, with or without a header,
    labels by index or by name, and up to two faults of any kind."""
    d = draw(st.integers(1, 5))
    labelled = draw(st.booleans())
    width = d + labelled
    at = draw(st.integers(0, width - 1)) if labelled else None
    names = [f"x{j}" for j in range(width)]
    if labelled:
        names[at] = "label"
    by = draw(st.sampled_from(["index", "negative", "name", "no such name", "out of range"]))
    label_column = None
    if labelled:
        label_column = {
            "index": at, "negative": at - width, "name": "label",
            "no such name": "missing", "out of range": width,
        }[by]
    rows = [
        [draw(st.sampled_from(["a", " b", "c ", "1"])) if j == at else draw(CELLS) for j in range(width)]
        for _ in range(draw(st.integers(1, 12)))
    ]
    if draw(st.booleans()) or by in ("name", "no such name"):
        rows.insert(0, [f" {name}" for name in names])
    for _ in range(draw(st.sampled_from([0, 1, 2, 2]))):
        fault = draw(st.sampled_from(["cell", "width", "decode"]))
        i = draw(st.integers(0, len(rows) - 1))
        if fault == "width":
            rows[i] = rows[i][:-1] if draw(st.booleans()) else rows[i] + ["1"]
        elif rows[i]:
            j = draw(st.integers(0, len(rows[i]) - 1))
            # "\udcff" is an invalid byte, once encoded below.
            rows[i][j] = draw(st.sampled_from(BAD_CELLS)) if fault == "cell" else rows[i][j] + "\udcff"
    lines = [",".join(row) for row in rows]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(BLANK_ROWS)))
    text = draw(st.sampled_from(["\n", "\r\n"])).join(lines) + "\n"
    bom = b"\xef\xbb\xbf" if draw(st.booleans()) else b""
    return bom + text.encode("utf-8", "surrogateescape"), label_column


def load_outcome(load, path, label_column):
    """What a loader makes of a file: the points' shape and bits and the
    labels, or the type and message of its error."""
    try:
        ds, gt = load(path, label_column)
    except EcacError as exc:
        return type(exc), str(exc)
    labels = None if gt is None else (gt.labels.tolist(), gt.k_true)
    return ds.points.shape, ds.points.tobytes(), labels


@settings(max_examples=300, deadline=None)
@given(case=csv_files(), cells=st.integers(1, 24))
def test_loader_matches_the_row_table_oracle(case, cells):
    # Blocks of a few cells, so a file spans many of them and a fault
    # can lie in a later block than another.
    content, label_column = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "case.csv"
        path.write_bytes(content)
        with mock.patch.object(data, "_CSV_CELLS", cells):
            got = load_outcome(load_csv, path, label_column)
        assert got == load_outcome(load_csv_rows, path, label_column)


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

    @pytest.mark.parametrize("counts, stddev", [
        ([3.9, 2], 1.0), (20.7, 1.0), (True, 1.0), ([10, True], 1.0), (5, True), (5, [1.0, True]),
    ])
    def test_boolean_or_fractional_spec_rejected(self, counts, stddev):
        with pytest.raises(InvalidSpec):
            generate_gaussian_mixture(2, counts, [[0, 0], [9, 9]], stddev, seed=0)


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


def four_blobs(d: int) -> Dataset:
    """10,000 points in 4 Gaussian blobs in d dimensions, their means on
    the corners of a 12 x 12 square in the first two axes."""
    means = np.zeros((4, d))
    means[[1, 3], 0] = 12.0
    means[[2, 3], 1] = 12.0
    return generate_gaussian_mixture(4, 2500, means, 2.0, 0)[0]


class TestScratchMemory:
    """Chunked passes hold about _CHUNK entries per array, whatever the
    input's size and in any dimension (grid passes gather each pair's
    coordinates one row at a time), so their scratch stays a few MB."""

    def test_distance_sample(self):
        # The 1,000-point sample's 499,500 distances are never held at once.
        ds = Dataset(np.random.default_rng(0).normal(size=(1500, 2)))
        assert traced_peak_mb(lambda: pairwise_distance_percentiles(ds, [0.02])) < 2.0

    def test_distance_sample_of_the_default_sweep(self):
        # Its five fractions keep the 8% share of the sample's distances:
        # 2.46 MB traced while the kept parts were concatenated and
        # partitioned as copies, 1.23 MB in one buffer partitioned in place.
        ds = Dataset(np.random.default_rng(0).normal(size=(1500, 2)))
        assert traced_peak_mb(lambda: pairwise_distance_percentiles(ds, DEFAULT_SWEEP)) < 1.6

    def test_nearest(self):
        rng = np.random.default_rng(1)
        queries, targets = rng.normal(size=(5000, 2)), rng.normal(size=(2000, 2))
        assert traced_peak_mb(lambda: nearest(queries, targets)) < 2.0

    def test_density_count(self):
        # The benchmark's 10k blobs at the default delta, the grid's build
        # and the columns' transpose included: 1.97 MB measured, bounded
        # at that plus 0.5 MB.
        ds = four_blobs(2)
        delta, index = default_delta(ds), SpatialIndex(ds)
        assert traced_peak_mb(lambda: index.density(delta)) < 2.5

    # The count and the nearest higher-ranked search of the 10k blobs at
    # the default delta, on the kept grid: at most 2.1 MB measured at 2-,
    # 4- and 8-D. Gathering two d x m blocks per pass held 6.6 and 6.8 MB
    # at 8-D.
    @pytest.mark.parametrize("d", [2, 4, 8])
    def test_density_in_any_dimension(self, d):
        ds = four_blobs(d)
        delta = default_delta(ds)
        ds.index._radius_grid(delta)  # the grid, built and kept
        assert traced_peak_mb(lambda: ds.index.density(delta)) < 3.0

    @pytest.mark.parametrize("d", [2, 4, 8])
    def test_nearest_higher_in_any_dimension(self, d):
        ds = four_blobs(d)
        delta = default_delta(ds)
        rho = ds.index.density(delta)  # builds and keeps the grid
        rank = np.lexsort((np.arange(ds.n), -rho)).argsort()
        assert traced_peak_mb(lambda: ds.index.nearest_higher(rank, delta)) < 3.0

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
