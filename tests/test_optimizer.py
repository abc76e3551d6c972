import importlib.util
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ecac
from ecac import optimizer
from ecac.data import CandidateRuns, Dataset, SpatialIndex, generate_gaussian_mixture, nearest
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

    @pytest.mark.parametrize("other_n", [300, 120])
    def test_index_of_another_dataset_rejected(self, other_n):
        # Another dataset's index would answer with its own ids: of the
        # same size, wrong sets; smaller, an IndexError.
        ds, _ = generate_gaussian_mixture(2, 150, [[0, 0], [6, 0]], 1.0, seed=0)
        other, _ = generate_gaussian_mixture(2, other_n // 2, [[0, 0], [6, 0]], 1.0, seed=1)
        with pytest.raises(InvalidSpec, match="another dataset"):
            identify_extended_centers(ds, [0, 150], 1.0, index=SpatialIndex(other))

    def test_densities_of_another_size_rejected(self):
        ds, _ = generate_gaussian_mixture(2, 150, [[0, 0], [6, 0]], 1.0, seed=0)
        other, _ = generate_gaussian_mixture(2, 60, [[0, 0], [6, 0]], 1.0, seed=1)
        dens = compute_densities(other, other.index, 1.0)
        with pytest.raises(InvalidSpec, match="densities hold 120 objects"):
            identify_extended_centers(ds, [0, 150], 1.0, densities=dens)

    def test_densities_of_another_dataset_of_the_same_size_rejected(self):
        ds, _ = generate_gaussian_mixture(2, 150, [[0, 0], [6, 0]], 1.0, seed=0)
        other, _ = generate_gaussian_mixture(2, 150, [[0, 0], [6, 0]], 1.0, seed=1)
        dens = compute_densities(other, other.index, 1.0)
        with pytest.raises(InvalidSpec, match="not this dataset's counts"):
            identify_extended_centers(ds, [0, 150], 1.0, densities=dens)


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
# The other object lies exactly 2*delta from the center: it stays outside
# the local pool and enters by one fallback step.
@example((np.array([[0, 0], [2, 0]]) * GRID, [0], GRID, "local", None))
# Object 2 ties between the two sets, each closed after one extension.
@example((np.array([[0, 0], [4, 0], [2, 0], [2, 1]]) * GRID, [0, 1], GRID, "global", 1))
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


def _grid_with_far_clump():
    """172 points on the grid: 130 drawn, 30 duplicate copies and a far
    clump of 12 that local search reaches only by fallback steps. The 24
    leftmost points are the centers, so even the capped runs add many
    members, and the candidate runs read by later members list many of
    them. Returns (points, centers, delta)."""
    rng = np.random.default_rng(0)
    base = np.column_stack([rng.integers(0, 24, 130), rng.integers(0, 6, 130)])
    pts = np.vstack([base, base[rng.integers(0, 130, 30)], base[:12] + [60, 0]]) * GRID
    return pts, np.lexsort((pts[:, 1], pts[:, 0]))[:24].tolist(), 2.2 * GRID


@pytest.mark.parametrize("kind", ["local", "global", "nodensity"])
@pytest.mark.parametrize("cap", [None, 3])
def test_matches_naive_reference_across_tree_rebuilds(kind, cap):
    # Both runs share the dataset's index and grids; each builds its own
    # candidate runs.
    pts, centers, delta = _grid_with_far_clump()
    ds = Dataset(pts)
    first = identify_extended_centers(ds, centers, delta, SelectionStrategy(kind, cap=cap))
    ext = identify_extended_centers(ds, centers, delta, SelectionStrategy(kind, cap=cap))
    _, order, order_sets, _, fallbacks, trace = naive_identify(
        pts, centers, delta, kind=kind, cap=cap
    )
    assert (first.sets, first.trace) == (ext.sets, ext.trace)
    assert ext.all == order
    assert ext.all_sets == order_sets
    assert ext.fallback_count == fallbacks
    got_trace = [(t["object"], t["set"], t["covered"]) for t in ext.trace]
    assert got_trace == [(o, j, c) for (o, j, _, c) in trace]
    for got, want in zip(ext.trace, trace):
        assert got["dis"] == pytest.approx(want[2], rel=1e-9)


@pytest.mark.parametrize("kind", ["local", "global", "nodensity"])
@pytest.mark.parametrize("cap", [None, 3])
def test_matches_naive_reference_with_members_in_answers(monkeypatch, kind, cap):
    # The run slice that a new member reads lists the members near it;
    # they are dropped before any distance is computed, and no answer
    # lists one. An answer is the gather of columns that follows the
    # member's read of its run. The t-th read is member t's, made once it
    # has joined, so the members then are ext.all[:t + 1].
    pts, centers, delta = _grid_with_far_clump()
    ds = Dataset(np.asarray(pts, float))
    runs_read = []
    answers = []
    read_run = CandidateRuns.run

    class Columns(np.ndarray):
        def take(self, ids, axis=None):
            if len(answers) < len(runs_read):
                answers.append(np.array(ids))
            return np.asarray(self).take(ids, axis=axis)

    def watched_run(runs, c):
        run = read_run(runs, c)
        runs_read.append(np.array(run))
        return run

    # ``columns`` is a cached property, so the extension reads the
    # watching view put in the instance's dict.
    ds.__dict__["columns"] = ds.columns.view(Columns)
    monkeypatch.setattr(CandidateRuns, "run", watched_run)
    ext = identify_extended_centers(ds, centers, delta, strategy=SelectionStrategy(kind, cap=cap))
    listed_members = [int(np.isin(run, ext.all[:t + 1]).sum()) - 1 for t, run in enumerate(runs_read)]
    answered_members = [int(np.isin(ids, ext.all[:t + 1]).sum()) for t, ids in enumerate(answers)]
    _, order, order_sets, covered, fallbacks, trace = naive_identify(
        pts, centers, delta, kind=kind, cap=cap
    )
    assert sum(listed_members) > 5 * len(listed_members)
    assert len(answered_members) == len(listed_members) == ext.s
    assert sum(answered_members) == 0
    assert ext.all == order
    assert ext.all_sets == order_sets
    assert set(np.flatnonzero(ext.coverage).tolist()) == covered
    assert ext.fallback_count == fallbacks
    got_trace = [(t["object"], t["set"], t["covered"]) for t in ext.trace]
    assert got_trace == [(o, j, c) for (o, j, _, c) in trace]
    for got, want in zip(ext.trace, trace):
        assert got["dis"] == pytest.approx(want[2], rel=1e-9)


@pytest.mark.parametrize("kind", optimizer.STRATEGY_KINDS)
@pytest.mark.parametrize("cap", [None, 3])
def test_stats_match_their_definitions(kind, cap):
    # ``candidates`` sums, over the members in order, the non-members of
    # each member's candidate run when it joins; ``run_entries`` counts
    # the ids of the blocks that hold the members' cells; ``far_rows`` is
    # 0 where no far row is folded and positive for the global pool.
    pts, centers, delta = _grid_with_far_clump()
    ds = Dataset(np.asarray(pts, float))
    strategy = SelectionStrategy(kind, seed=0 if kind == "random" else None, cap=cap)
    ext = identify_extended_centers(ds, centers, delta, strategy)
    assert ext.s > len(centers)
    runs = ds.index.candidate_runs(2 * delta)
    assert ext.stats["run_entries"] == runs.entries(runs.cell[ext.all])
    candidates = sum(
        int(np.count_nonzero(~np.isin(runs.run(runs.cell[o]), ext.all[:t + 1])))
        for t, o in enumerate(ext.all)
    )
    assert ext.stats["candidates"] == candidates > 0
    if kind == "global":
        assert ext.stats["far_rows"] > 0
    elif kind == "random" or cap is None:
        assert ext.stats["far_rows"] == 0


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
    assert ext.fallback_count == fallbacks == 0
    assert max(repointed) >= 2 * delta
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


def _record_gathers(monkeypatch) -> list:
    """The blocks of candidate runs gathered, in order."""
    gathered = []
    gather = CandidateRuns._gather

    def recording(runs, b):
        gathered.append(b)
        return gather(runs, b)

    monkeypatch.setattr(CandidateRuns, "_gather", recording)
    return gathered


def test_extension_reads_candidate_runs_not_the_index(monkeypatch):
    # Every member's answer is a slice of its cell's run: no radius query
    # goes to the index, and the runs hold at most 81 ids per object (a
    # box meets at most 9 cells per grid axis). The extensions share the
    # kept runs, so each block is gathered once, and ``run_entries``
    # counts the blocks an extension read, whoever gathered them.
    ds, centers, delta = _spiral_1500()
    calls = []
    query = SpatialIndex.range_query_many
    gathered = _record_gathers(monkeypatch)

    def counting(self, centers, radius):
        calls.append(len(centers))
        return query(self, centers, radius)

    monkeypatch.setattr(SpatialIndex, "range_query_many", counting)
    for strategy in (SelectionStrategy(), SelectionStrategy(cap=100),
                     SelectionStrategy("global"), SelectionStrategy("random", seed=0)):
        ext = identify_extended_centers(ds, centers, delta, strategy)
        assert calls == []
        assert 0 < ext.stats["run_entries"] <= 81 * ds.n
        assert ext.stats["candidates"] > 0
    ext = identify_extended_centers(ds, centers, delta)
    assert ext.s > 1000
    assert ext.stats == identify_extended_centers(ds, centers, delta).stats
    assert gathered and len(set(gathered)) == len(gathered)


def test_an_uncapped_extension_reads_every_block_once(monkeypatch):
    # Almost every object of the spiral is promoted, in every block.
    ds, centers, delta = _spiral_1500()
    gathered = _record_gathers(monkeypatch)
    ext = identify_extended_centers(ds, centers, delta)
    runs = ds.index.candidate_runs(2 * delta)
    assert len(runs.blocks) > 1
    assert sorted(gathered) == list(range(len(runs.blocks)))
    assert ext.stats["run_entries"] == runs.bounds[-1]


def test_a_capped_extension_gathers_only_the_blocks_it_reads():
    # The mixture of the capped DPC benchmark: 4 blobs of 2,500 points,
    # DPC k = 4 centers, the default delta and 100 extended-centers per
    # set. The 404 members lie in few cells, whose blocks hold at most a
    # third of the runs' ids, and no other block is allocated.
    means = [[0, 0], [12, 0], [0, 12], [12, 12]]
    ds, _ = generate_gaussian_mixture(4, 2500, means, 2.0, 0)
    delta = ecac.default_delta(ds)
    centers, _ = ecac.build_algorithm("dpc").center_process(ds, 4)
    ext = identify_extended_centers(ds, centers.tolist(), delta, SelectionStrategy(cap=100))
    assert ext.s == 4 + 4 * 100
    runs = ds.index.candidate_runs(2 * delta)
    gathered = [block.size for block in runs.blocks if block is not None]
    assert ext.stats["run_entries"] == sum(gathered) <= runs.bounds[-1] / 3
    assert len(gathered) < len(runs.blocks) / 3


def test_extensions_and_dpc_read_the_one_kept_transpose(monkeypatch):
    # Dataset.columns is a dataset's one d x N transpose: an extension
    # reads it, copying no transpose of its own, and DPC's quantities
    # build it once. Two wide axes and 62 thin ones keep every answer
    # small, so a copy of the 2 MB transpose would be most of the peak.
    rng = np.random.default_rng(0)
    n, d, delta = 4000, 64, 1.0
    ds = Dataset(np.hstack([rng.uniform(0, 100, (n, 2)), rng.normal(0, 0.01, (n, d - 2))]))
    transposes = []
    contiguous = np.ascontiguousarray

    def counting(a, *args, **kwargs):
        if np.shape(a) == (d, n):
            transposes.append(a)
        return contiguous(a, *args, **kwargs)

    monkeypatch.setattr(np, "ascontiguousarray", counting)
    ecac.compute_dpc_quantities(ds, delta)
    assert len(transposes) == 1
    optimizer.prepare_extension(ds, delta)
    # An extension that copied a transpose of its own would add one to
    # the count or to the traced peak.
    for centers in ([0, 1], [2, 3]):
        tracemalloc.start()
        try:
            identify_extended_centers(ds, centers, delta, SelectionStrategy(cap=0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < ds.columns.nbytes / 4
    assert len(transposes) == 1


@pytest.mark.parametrize("strategy", [
    SelectionStrategy("local"),
    SelectionStrategy("global"),
    SelectionStrategy("nodensity"),
    SelectionStrategy("random", seed=0),
    SelectionStrategy("local", cap=2),
], ids=["local", "global", "nodensity", "random", "local-cap2"])
def test_index_and_densities_keywords_are_checks_only(strategy):
    # The extension reads its count and runs from prepare_extension; the
    # keywords are checked, never read, so a run is the same without them.
    pts, centers, delta = _grid_with_far_clump()
    ds = Dataset(pts)
    plain = identify_extended_centers(ds, centers, delta, strategy)
    checked = identify_extended_centers(
        ds, centers, delta, strategy,
        index=ds.index, densities=compute_densities(ds, ds.index, delta),
    )
    for name in ("all", "all_sets", "stats", "fallback_count"):
        assert getattr(checked, name) == getattr(plain, name), name
    assert all(map(np.array_equal, checked.steps, plain.steps))
    assert np.array_equal(checked.coverage, plain.coverage)
    assert plain.s > len(centers)
    if strategy == SelectionStrategy("local"):
        assert plain.fallback_count > 0


@pytest.fixture(scope="module")
def mixture_8d():
    """The digest grid's 8-D mixture: 4 components of 500 points, means on
    the corners of a 12 x 12 square in the first two axes, standard
    deviation 2, seed 0; kmeans k = 4 centers and the default delta."""
    means = np.zeros((4, 8))
    means[[1, 3], 0] = 12.0
    means[[2, 3], 1] = 12.0
    ds, _ = generate_gaussian_mixture(4, 500, means, 2.0, 0)
    centers, _ = ecac.build_algorithm("kmeans").center_process(ds, 4)
    return ds, centers.tolist(), ecac.default_delta(ds)


@pytest.mark.parametrize("strategy", [
    SelectionStrategy("local"),
    SelectionStrategy("global"),
    SelectionStrategy("local", cap=100),
    SelectionStrategy("nodensity"),
], ids=["local", "global", "local-cap100", "nodensity"])
def test_every_traced_dis_is_the_nearest_open_member_in_8d(mixture_8d, strategy):
    # Folds cache distances from the candidate runs; fallbacks and
    # close_set recompute them through nearest. Above 7 dimensions too,
    # both give a pair the same last bit, so every traced dis is the
    # definition's: the nearest member of an open set, over rho.
    ds, centers, delta = mixture_8d
    ext = identify_extended_centers(ds, centers, delta, strategy)
    rho = np.ones(ds.n) if strategy.kind == "nodensity" else ds.index.density(delta)
    sets = [[c] for c in centers]
    for step in ext.trace:
        o = step["object"]
        members = [m for s in sets if strategy.cap is None or len(s) - 1 < strategy.cap for m in s]
        assert step["dis"] == nearest(ds.points[[o]], ds.points[members])[0][0] / rho[o]
        sets[step["set"]].append(o)
    assert len(ext.trace) >= 400


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
            coverage=np.ones(10, bool),
        )
        initial = np.array([0, 1, 1, 0])
        assert merge_clusters(initial, ext).tolist() == [0, 1, 1, 0]

    def test_union_by_set(self):
        # all = [e1, e2, e3] with e1,e3 in set 0 and e2 in set 1.
        ext = ExtendedSets(
            sets=[[5, 7], [6]], all=[5, 6, 7], all_sets=[0, 1, 0],
            coverage=np.ones(4, bool),
        )
        assert merge_clusters([0, 2, 1, 2], ext).tolist() == [0, 0, 1, 0]

    def test_label_out_of_range(self):
        ext = ExtendedSets(
            sets=[[0]], all=[0], all_sets=[0],
            coverage=np.ones(2, bool),
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


def test_far_blobs_fallback_peak_memory_at_8k(child_env):
    if not Path("/proc/self/status").exists():
        pytest.skip("VmHWM is read from /proc/self/status (Linux only)")
    child = subprocess.run(
        [sys.executable, "-c", _FALLBACK_PEAK_SCRIPT],
        capture_output=True, text=True, env=child_env, timeout=300, check=True,
    )
    fallbacks, peak_kb = map(int, child.stdout.split())
    assert fallbacks >= 1
    assert peak_kb / 1024 < FALLBACK_PEAK_RSS_BUDGET_MB
