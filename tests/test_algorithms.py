import gc
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecac.algorithms import (
    build_algorithm,
    compute_dpc_quantities,
    dpc_assignment,
    dpc_center_process,
    kmeans_center_process,
    nearest_center_assignment,
)
from ecac.data import Dataset, SpatialIndex, _Grid, generate_gaussian_mixture
from ecac.density import default_delta
from ecac.errors import ConfigError, EmptyCenters, InvalidK, InvalidRadius
from ecac.metrics import nmi

from oracles import dpc_assignment_loop, dpc_assignment_recursive, dpc_quantities_loops

GRID = 0.25  # dyadic spacing: squared distances are exact, so ties are exact


@pytest.fixture(scope="module")
def two_blobs():
    return generate_gaussian_mixture(2, 50, [[0, 0], [100, 0]], 1.0, seed=2)


class TestKmeansCenters:
    def test_k_equals_n(self):
        ds = Dataset(np.arange(12.0).reshape(6, 2))
        ids, _ = kmeans_center_process(ds, k=6, seed=0)
        assert sorted(ids.tolist()) == list(range(6))

    def test_two_blobs_split(self, two_blobs):
        ds, gt = two_blobs
        ids, _ = kmeans_center_process(ds, k=2, seed=0)
        assert len(set(ids.tolist())) == 2
        assert gt.labels[ids[0]] != gt.labels[ids[1]]

    def test_k1_is_nearest_to_mean(self):
        rng = np.random.default_rng(9)
        pts = rng.normal(size=(40, 3))
        ds = Dataset(pts)
        expected = int(np.argmin(np.linalg.norm(pts - pts.mean(axis=0), axis=1)))
        ids, _ = kmeans_center_process(ds, k=1, seed=4)
        assert ids.tolist() == [expected]

    def test_seed_determinism(self):
        rng = np.random.default_rng(1)
        ds = Dataset(rng.normal(size=(60, 2)))
        a, _ = kmeans_center_process(ds, k=4, seed=123)
        b, _ = kmeans_center_process(ds, k=4, seed=123)
        assert a.tolist() == b.tolist()

    def test_invalid_k(self):
        ds = Dataset(np.zeros((3, 1)))
        with pytest.raises(InvalidK):
            kmeans_center_process(ds, k=4)
        with pytest.raises(InvalidK):
            kmeans_center_process(ds, k=0)


class TestNearestCenterAssignment:
    def test_single_center(self):
        ds = Dataset(np.arange(8.0).reshape(4, 2))
        assert nearest_center_assignment(ds, [2]).tolist() == [0, 0, 0, 0]

    def test_nearer_center_wins(self):
        ds = Dataset(np.array([[0.0], [10.0], [4.0]]))
        assert nearest_center_assignment(ds, [0, 1]).tolist() == [0, 1, 0]

    def test_tie_breaks_to_earlier_list_position(self):
        # Object 2 sits exactly between the two centers.
        ds = Dataset(np.array([[0.0], [10.0], [5.0], [-3.0]]))
        labels = nearest_center_assignment(ds, [1, 0])
        assert labels[2] == 0  # center at position 0 (object 1) wins the tie
        assert labels.tolist() == [1, 0, 0, 1]

    def test_centers_label_themselves(self):
        ds = Dataset(np.array([[0.0], [0.0], [9.0]]))  # duplicate points
        labels = nearest_center_assignment(ds, [1, 0, 2])
        assert labels[1] == 0 and labels[0] == 1 and labels[2] == 2

    def test_empty_centers(self):
        ds = Dataset(np.zeros((2, 1)))
        with pytest.raises(EmptyCenters):
            nearest_center_assignment(ds, [])

    def test_translation_invariance(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(30, 2))
        shifted = pts + np.array([123.0, -45.0])
        centers = [4, 17, 25]
        a = nearest_center_assignment(Dataset(pts), centers)
        b = nearest_center_assignment(Dataset(shifted), centers)
        assert a.tolist() == b.tolist()


class TestDpcQuantities:
    def test_collinear_counts(self):
        ds = Dataset(np.array([[0.0], [1.0], [5.0]]))
        q = compute_dpc_quantities(ds, d_c=2.0)
        assert q.rho_dpc.tolist() == [1, 1, 0]

    def test_density_maximum_takes_farthest_distance(self):
        ds = Dataset(np.array([[0.0], [1.0], [2.0], [50.0]]))
        q = compute_dpc_quantities(ds, d_c=1.5)
        top = int(np.argmax(q.rho_dpc))
        assert top == 1
        assert q.delta_dpc[top] == pytest.approx(49.0)
        assert q.nearest_higher[top] == -1

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(21)
        pts = rng.normal(size=(200, 2))
        ds = Dataset(pts)
        q = compute_dpc_quantities(ds, d_c=0.4)
        rho, delta, nearest = dpc_quantities_loops(pts, 0.4)
        assert q.rho_dpc.tolist() == rho
        assert np.allclose(q.delta_dpc, delta)
        assert q.nearest_higher.tolist() == nearest

    def test_invalid_radius(self):
        ds = Dataset(np.zeros((2, 1)))
        with pytest.raises(InvalidRadius):
            compute_dpc_quantities(ds, 0.0)

    def test_distance_tie_takes_earliest_rank(self):
        # Objects 1..5 are all at distance 1 from object 0; 3, 4, 5 are
        # denser than 1 and 2, so rank 3 comes first, not index 1.
        pts = np.array([[0.0], [-1.0], [-1.0], [1.0], [1.0], [1.0]])
        q = compute_dpc_quantities(Dataset(pts), d_c=0.5)
        assert q.rho_dpc.tolist() == [0, 1, 1, 2, 2, 2]
        assert q.nearest_higher[0] == 3
        _, _, nearest = dpc_quantities_loops(pts, 0.5)
        assert nearest[0] == 3

    def test_matches_loop_oracle_across_blocks(self):
        # n = 600 on a 12 x 12 grid: about four copies per grid point,
        # with density ties and exact distance ties throughout.
        rng = np.random.default_rng(4)
        pts = rng.integers(0, 12, size=(600, 2)) * GRID
        assert_matches_loop_oracle(pts, 2 * GRID)

    def test_duplicate_clump_beyond_first_list(self):
        # 40 copies of one point ranked below 50 copies of another: every
        # k-NN list of 16 holds only tied copies until it is widened past
        # the clump. Ids are shuffled so rank order is not index order.
        pts = np.repeat([[0.0, 0.0], [3.0, 0.0]], [40, 50], axis=0)
        pts = pts[np.random.default_rng(3).permutation(90)]
        q = compute_dpc_quantities(Dataset(pts), d_c=1.0)
        sparse = np.flatnonzero(pts[:, 0] == 0.0)
        dense = np.flatnonzero(pts[:, 0] == 3.0)
        assert q.nearest_higher[sparse[0]] == dense[0]
        assert q.delta_dpc[sparse[0]] == 3.0
        assert (q.nearest_higher[sparse[1:]] == sparse[0]).all()
        assert (q.nearest_higher[dense[1:]] == dense[0]).all()
        assert_matches_loop_oracle(pts, 1.0)

    def test_kept_with_the_dataset_and_read_only(self):
        rng = np.random.default_rng(9)
        ds = Dataset(rng.normal(size=(60, 2)))
        q = compute_dpc_quantities(ds, 0.5)
        assert compute_dpc_quantities(ds, 0.5) is q
        assert compute_dpc_quantities(ds, 0.6) is not q
        assert compute_dpc_quantities(Dataset(ds.points), 0.5) is not q
        default = compute_dpc_quantities(ds)
        assert compute_dpc_quantities(ds, None) is default
        assert compute_dpc_quantities(ds, default_delta(ds)) is default
        assert default.d_c == default_delta(ds)
        for array in (q.rho_dpc, q.delta_dpc, q.nearest_higher, q.rank):
            assert not array.flags.writeable
        with pytest.raises(ValueError):
            q.rank[0] = 1
        # rank is each object's position in the density order.
        order = np.lexsort((np.arange(60), -q.rho_dpc))
        assert np.argsort(q.rank).tolist() == order.tolist()

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_fewer_objects_than_first_list(self, n):
        pts = np.random.default_rng(n).normal(size=(n, 2))
        assert_matches_loop_oracle(pts, 0.8)

    def test_separated_peaks_need_widening(self, monkeypatch):
        # Three far-apart clusters of 100: the two lower peaks' nearest
        # higher object lies about 50 away, far beyond the first search
        # box (one cell, d_c / 3), so the box must widen past 40.
        reaches = []
        slices = _Grid.slices

        def recording(self, centers, reach):
            reaches.append(reach)
            return slices(self, centers, reach)

        monkeypatch.setattr(_Grid, "slices", recording)
        rng = np.random.default_rng(31)
        pts = np.vstack([rng.normal(c, 1.0, size=(100, 2)) for c in ([0, 0], [50, 0], [0, 50])])
        assert_matches_loop_oracle(pts, 1.0)
        assert max(reaches) >= 40


def assert_matches_loop_oracle(pts, d_c):
    q = compute_dpc_quantities(Dataset(pts), d_c)
    rho, delta, nearest = dpc_quantities_loops(pts, d_c)
    assert q.rho_dpc.tolist() == rho
    assert q.nearest_higher.tolist() == nearest
    np.testing.assert_allclose(q.delta_dpc, delta, rtol=1e-12, atol=0)


@st.composite
def grid_points(draw):
    """Points on a small grid with duplicate copies, and a cutoff on the
    same grid, so density ties and exact distance ties both occur."""
    d = draw(st.integers(1, 3))
    base = draw(st.lists(st.lists(st.integers(0, 8), min_size=d, max_size=d),
                         min_size=1, max_size=24))
    copies = draw(st.lists(st.integers(0, len(base) - 1), max_size=8))
    pts = np.array(base + [base[i] for i in copies], dtype=float) * GRID
    d_c = GRID * draw(st.integers(1, 8))
    return pts, d_c


@settings(max_examples=200, deadline=None)
@given(grid_points())
def test_dpc_quantities_match_loop_oracle_on_grid_ties(instance):
    assert_matches_loop_oracle(*instance)


@st.composite
def clumped_grid_points(draw):
    """A few grid points, one of them copied often enough that the
    copies overflow the first k-NN list of every object in its clump."""
    d = draw(st.integers(1, 3))
    base = draw(st.lists(st.lists(st.integers(0, 8), min_size=d, max_size=d),
                         min_size=1, max_size=5))
    heavy = draw(st.integers(0, len(base) - 1))
    copies = [heavy] * draw(st.integers(16, 40))
    copies += draw(st.lists(st.integers(0, len(base) - 1), max_size=20))
    copies = draw(st.permutations(copies))
    pts = np.array(base + [base[i] for i in copies], dtype=float) * GRID
    d_c = GRID * draw(st.integers(1, 8))
    return pts, d_c


@settings(max_examples=100, deadline=None)
@given(clumped_grid_points())
def test_dpc_quantities_match_loop_oracle_on_overflowing_clumps(instance):
    assert_matches_loop_oracle(*instance)


# Peak resident memory allowed to a fresh process that computes the DPC
# quantities of the 4-blob mixture at n = 50,000. Measured on a 2-core
# Linux host: 108 MB in 0.9 s, of which about 77 MB is the interpreter
# with NumPy, SciPy, ecac and the dataset before the call.
PEAK_RSS_BUDGET_MB = 200

_PEAK_RSS_SCRIPT = """
from ecac import compute_dpc_quantities, default_delta, generate_gaussian_mixture
ds, _ = generate_gaussian_mixture(4, 12500, [[0, 0], [12, 0], [0, 12], [12, 12]], 2.0, 0)
compute_dpc_quantities(ds, default_delta(ds))
with open("/proc/self/status") as fh:
    print(next(line.split()[1] for line in fh if line.startswith("VmHWM:")))
"""


def test_dpc_quantities_peak_memory_at_50k(child_env):
    if not Path("/proc/self/status").exists():
        pytest.skip("VmHWM is read from /proc/self/status (Linux only)")
    child = subprocess.run(
        [sys.executable, "-c", _PEAK_RSS_SCRIPT],
        capture_output=True, text=True, env=child_env, timeout=300, check=True,
    )
    peak_mb = int(child.stdout) / 1024
    assert peak_mb < PEAK_RSS_BUDGET_MB


class TestDpcCenters:
    def test_two_blobs_plus_noise(self):
        ds, gt = generate_gaussian_mixture(
            3, [60, 60, 8], [[0, 0], [40, 0], [20, 30]], [1.0, 1.0, 12.0], seed=6
        )
        centers, extras = dpc_center_process(ds, 2)
        assert extras == {}
        assert gt.labels[centers[0]] != gt.labels[centers[1]]
        assert set(gt.labels[centers].tolist()) == {0, 1}

    def test_k1_is_gamma_maximizer(self):
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(50, 2))
        ds = Dataset(pts)
        q = compute_dpc_quantities(ds, d_c=0.8)
        gamma = q.rho_dpc * q.delta_dpc
        ids, _ = dpc_center_process(ds, 1, 0.8)
        assert ids.tolist() == [int(np.argmax(gamma))]

    def test_ranking_matches_oracle(self):
        rng = np.random.default_rng(13)
        pts = rng.normal(size=(200, 2))
        ds = Dataset(pts)
        d_c = 0.5
        rho, delta, _ = dpc_quantities_loops(pts, d_c)
        gamma = [r * d for r, d in zip(rho, delta)]
        oracle = sorted(range(200), key=lambda i: (-gamma[i], -rho[i], i))
        got, _ = dpc_center_process(ds, 10, d_c)
        assert got.tolist() == oracle[:10]


class TestDpcAssignment:
    def test_single_top_center_labels_everything(self):
        rng = np.random.default_rng(8)
        pts = rng.normal(size=(60, 2))
        ds = Dataset(pts)
        q = compute_dpc_quantities(ds, d_c=0.6)
        top, _ = dpc_center_process(ds, 1, 0.6)
        labels = dpc_assignment(ds, top, 0.6)
        assert set(labels.tolist()) == {0}

    def test_two_blobs_recovered(self, two_blobs):
        ds, gt = two_blobs
        alg = build_algorithm("dpc")
        centers, _ = alg.center_process(ds, 2)
        labels = alg.assignment_process(ds, centers)
        assert nmi(gt.labels, labels) == pytest.approx(1.0)

    def test_matches_recursive_oracle(self):
        rng = np.random.default_rng(17)
        pts = rng.normal(size=(100, 2))
        ds = Dataset(pts)
        d_c = 0.5
        q = compute_dpc_quantities(ds, d_c)
        centers = [3, 57, 90]
        labels = dpc_assignment(ds, centers, d_c)
        oracle = dpc_assignment_recursive(pts, centers, q.rho_dpc.tolist(), q.nearest_higher.tolist())
        assert labels.tolist() == oracle

    def test_denser_than_every_center_falls_back(self):
        # Centers chosen from the sparse fringe: the dense core outranks
        # them all and must take its nearest center instead.
        rng = np.random.default_rng(19)
        core = rng.normal(0, 0.5, size=(40, 2))
        fringe = np.array([[30.0, 0.0], [-30.0, 0.0]])
        pts = np.vstack([core, fringe])
        ds = Dataset(pts)
        q = compute_dpc_quantities(ds, d_c=1.0)
        centers = [40, 41]
        labels = dpc_assignment(ds, centers, 1.0)
        oracle = dpc_assignment_recursive(pts, centers, q.rho_dpc.tolist(), q.nearest_higher.tolist())
        assert labels.tolist() == oracle
        assert labels[40] == 0 and labels[41] == 1

    def test_gradient_respected_below_first_center(self):
        rng = np.random.default_rng(23)
        pts = rng.normal(size=(80, 2))
        ds = Dataset(pts)
        q = compute_dpc_quantities(ds, d_c=0.7)
        centers, _ = dpc_center_process(ds, 3, 0.7)
        labels = dpc_assignment(ds, centers, 0.7)
        order = np.lexsort((np.arange(80), -q.rho_dpc))
        position = np.empty(80, dtype=int)
        position[order] = np.arange(80)
        first_center_pos = min(position[c] for c in centers)
        for i in range(80):
            if i in centers or position[i] < first_center_pos:
                continue
            assert labels[i] == labels[q.nearest_higher[i]]

    def test_totality(self, two_blobs):
        ds, _ = two_blobs
        alg = build_algorithm("dpc")
        centers, _ = alg.center_process(ds, 2)
        labels = alg.assignment_process(ds, centers)
        assert labels.shape == (ds.n,)
        assert ((labels >= 0) & (labels < 2)).all()
        for pos, c in enumerate(centers):
            assert labels[c] == pos


class TestDpcAssignmentAgainstLoop:
    """The pointer-jumping assignment against the density-order loop."""

    @staticmethod
    def check(pts, centers, d_c):
        ds = Dataset(pts)
        q = compute_dpc_quantities(ds, d_c)
        labels = dpc_assignment(ds, centers, d_c)
        oracle = dpc_assignment_loop(pts, centers, q.rho_dpc.tolist(), q.nearest_higher.tolist())
        assert labels.tolist() == oracle
        return q, labels

    def test_duplicate_densities_on_a_grid(self):
        # A 0.25 grid with duplicates: many equal densities, ranked by index.
        rng = np.random.default_rng(5)
        base = rng.integers(0, 12, size=(90, 2))
        pts = np.vstack([base, base[:30]]) * GRID
        ds = Dataset(pts)
        q = compute_dpc_quantities(ds, 2 * GRID)
        assert len(set(q.rho_dpc.tolist())) < 40
        for k in (1, 3, 7):
            centers, _ = dpc_center_process(ds, k, 2 * GRID)
            self.check(pts, centers, 2 * GRID)

    def test_extra_centers_denser_than_every_center(self):
        # Centers from the sparse tail, as the optimizer may supply: every
        # denser object takes its nearest center.
        rng = np.random.default_rng(11)
        pts = np.vstack([rng.normal(0, 0.4, (60, 2)), rng.uniform(-6, 6, (40, 2))])
        ds = Dataset(pts)
        q = compute_dpc_quantities(ds, 0.8)
        sparse_first = np.lexsort((np.arange(100), q.rho_dpc))
        centers = sparse_first[:5].tolist()
        _, labels = self.check(pts, centers, 0.8)
        fallback = [i for i in range(100) if i not in centers
                    and (q.rho_dpc[i], -i) > max((q.rho_dpc[c], -c) for c in centers)]
        assert len(fallback) > 50
        assert labels.tolist() == dpc_assignment_recursive(
            pts, centers, q.rho_dpc.tolist(), q.nearest_higher.tolist()
        )

    def test_fallback_rows_and_long_chains(self):
        # A line whose gaps widen from index 0: density peaks at index 3
        # and falls from there on, so each later object's nearest-higher
        # link points one step back, and a chain down from the top can be
        # hundreds of links long. The centers split it; objects denser
        # than every center fall back.
        pts = np.column_stack([np.cumsum(np.linspace(0.1, 1.0, 300)), np.zeros(300)])
        for centers in ([3], [3, 100, 200], [0], [150, 250], [299, 40, 200]):
            q, labels = self.check(pts, centers, 0.35)
            assert (labels >= 0).all()
        assert q.nearest_higher[4:].tolist() == list(range(3, 299))
        assert dpc_assignment(Dataset(pts), [3, 100], 0.35).tolist() == [0] * 100 + [1] * 200

class TestRegistry:
    def test_unknown_name_lists_valid_names(self):
        with pytest.raises(ConfigError, match="'kmean'.*kmeans, dpc"):
            build_algorithm("kmean")

    def test_dpc_holds_no_dataset(self):
        alg = build_algorithm("dpc")
        refs = []
        for seed in range(3):
            ds, _ = generate_gaussian_mixture(2, 20, [[0, 0], [10, 0]], 1.0, seed=seed)
            centers, _ = alg.center_process(ds, 2)
            alg.assignment_process(ds, centers)
            refs.append(weakref.ref(ds))
        del ds
        gc.collect()
        assert sum(ref() is not None for ref in refs) == 0

    def test_dpc_alternating_datasets_compute_quantities_once(self, monkeypatch):
        calls = []
        nearest_higher = SpatialIndex.nearest_higher

        def counted(index, rank, radius):
            calls.append(index.dataset)
            return nearest_higher(index, rank, radius)

        monkeypatch.setattr(SpatialIndex, "nearest_higher", counted)
        a, _ = generate_gaussian_mixture(2, 30, [[0, 0], [10, 0]], 1.0, seed=1)
        b, _ = generate_gaussian_mixture(2, 30, [[0, 0], [10, 0]], 1.0, seed=2)
        alg = build_algorithm("dpc")

        def run(ds):
            centers, _ = alg.center_process(ds, 2)
            return alg.assignment_process(ds, centers)

        def calls_on_a():
            return sum(dataset is a for dataset in calls)

        first = run(a)
        after_first = calls_on_a()
        run(b)
        again = run(a)
        assert after_first >= 1
        assert calls_on_a() == after_first
        assert again.tolist() == first.tolist()
