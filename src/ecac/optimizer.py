"""Greedy identification of extended-centers and micro-cluster merging.

Starting from the clustering centers, each iteration promotes one more
object to extended-center: the (object, set) pair minimizing the
density-weighted distance

    dis(o, E_j) = min_{x in E_j} ||o - x||_2 / rho(o)

is selected, the object joins that set, and its delta-neighborhood joins
the covered region. The loop stops once every object is covered (or a
per-set cap is reached, or every object has been promoted).

Strategies:

* ``local`` (default) draws candidates from the 2*delta neighborhoods of
  the current members; if that pool empties while objects remain
  uncovered, a single whole-dataset step (a chunked nearest-member scan
  of every non-member) runs and local search resumes.
* ``global`` draws candidates from all remaining objects; each object's
  best (distance, set) pair is cached and updated as members arrive, so
  a step costs O(n) rather than a rescan of every member.
* ``random`` samples the object uniformly (seeded) and attaches it to
  the set whose clustering center is nearest.
* ``nodensity`` is ``local`` without the density weighting.

Ties in the minimization break toward the lower object id, then the
lower set index; every run is deterministic.

The scored strategies keep one score per object (inf for members and
objects outside the pool), so a step is one ``argmin``. A new member's
answer is its cell's candidate run at 2*delta
(``SpatialIndex.candidate_runs``, kept with the dataset), less the
members, with exact distances; no index call is made per member. A run
is gathered, with a block of nearby cells' runs, when first read, so a
capped extension holds the runs of the few cells its members lie in.
Folding the answer into the cache is what admits rows to the local
pool; a fold also visits ``far``, the pooled rows whose cached distance
is at least 2*delta. Coverage grows by the answer's newly covered objects.
``_run_scored`` and ``_GreedyState`` say why all of this is exact.
``prepare_extension`` is the one place that names what an extension at
one delta reads, the count at delta and the runs at 2*delta: it builds
the count and every run's length once per dataset, so that extensions
that follow, and processes forked afterwards, share them; a forked
process gathers the blocks of runs it reads that were not gathered
before the fork.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .data import Dataset, SpatialIndex, _distances, nearest
from .errors import EmptyCenters, InvalidRadius, InvalidSpec, LabelOutOfRange
from .sampling import Sampler

LOCAL = "local"
GLOBAL = "global"
RANDOM = "random"
NODENSITY = "nodensity"
STRATEGY_KINDS = (LOCAL, GLOBAL, RANDOM, NODENSITY)

@dataclass(frozen=True)
class SelectionStrategy:
    """How candidate extended-centers are pooled and scored.

    ``cap`` bounds the number of extended-centers per set (parity
    termination for like-for-like ablation comparisons).
    """

    kind: str = LOCAL
    seed: int | None = None
    cap: int | None = None

    def __post_init__(self):
        if self.kind not in STRATEGY_KINDS:
            raise InvalidSpec(f"unknown strategy {self.kind!r}")
        if self.kind == RANDOM and self.seed is None:
            raise InvalidSpec("random strategy requires a seed")
        # cap = 0 is the degenerate mode: no extension at all.
        if self.cap is not None and self.cap < 0:
            raise InvalidSpec(f"cap must be >= 0, got {self.cap}")


@dataclass
class ExtendedSets:
    """Clustering centers plus their extended-centers.

    ``all`` lists every member in identification order (the k centers
    first); ``sets[i]`` starts with center i; ``all_sets[p]`` is the set
    index of ``all[p]``. ``steps`` holds four columns with one entry per
    greedy selection: object id, set index, selection distance, and
    covered count after the step; ``trace`` reads them as one dict per
    step (see ``trace_records``). ``stats`` counts the distance work,
    the same on every run of the same input: ``run_entries``, the ids
    held by the blocks of candidate runs that the queries read (at most
    81 per object), whether this run or an earlier one gathered them,
    ``candidates``, the non-members whose distance to a new
    member was computed in its answer, summed over the members, and
    ``far_rows``, the rows folded from ``far`` (see ``_run_scored``),
    summed over the folds (0 for the uncapped local pool).
    """

    sets: list[list[int]]
    all: list[int]
    all_sets: list[int]
    coverage: np.ndarray
    fallback_count: int = 0
    steps: tuple = ((), (), (), ())
    stats: dict = field(default_factory=dict)

    @cached_property
    def trace(self) -> list[dict]:
        """The steps as records, built on first read."""
        return trace_records(self.steps)

    @property
    def s(self) -> int:
        return len(self.all)

    @property
    def fully_covered(self) -> bool:
        return bool(self.coverage.all())


def _query_radius(delta: float) -> float:
    """The radius of a new member's query: 2*delta, for every strategy."""
    return 2.0 * delta


def prepare_extension(dataset: Dataset, delta: float):
    """``(rho, runs)``, what every extension of ``dataset`` at ``delta``
    reads: the neighbour count at delta and the candidate runs at the
    query radius (a ``CandidateRuns``). Both are kept in
    ``dataset.derived``, so the extensions that follow, in this process
    or in processes forked from it, build neither. The runs' ids are
    gathered a block at a time as extensions read them: a forked process
    shares the blocks gathered before the fork and gathers the others
    that it reads for itself."""
    index = dataset.index
    return index.density(delta), index.candidate_runs(_query_radius(delta))


class _GreedyState:
    """Bookkeeping shared by every strategy: membership, coverage, the
    count and candidate runs from ``prepare_extension``, and the trace.
    The random strategy steps through ``add`` and ``record``;
    ``_run_scored`` does the same bookkeeping in its own loop body.

    A new member's answer lists the non-members of its cell's run at the
    query radius (``_query_radius``, 2*delta for every strategy), with
    their distances. Every distance from one object to many is
    ``_distances`` on columns gathered from ``dataset.columns``, against
    the object's own ``columns[:, o, None]``; the run's int32 ids are
    widened once per answer, so every later index is an ``np.intp``.
    Each member reads its own cell's run once, so the members' cells are
    the cells whose blocks ``stats["run_entries"]`` counts.

    Why this is exact: a run holds every point at strict distance below
    the radius from any point of its cell, so an answer holds every
    non-member within the radius of the new member (and maybe farther
    ones), with the distances a grid query would compute. A member needs
    no query, because it is always covered (it covers itself when it
    joins) and never re-scored (see ``_run_scored``).
    """

    def __init__(self, dataset, delta, centers, cap):
        self.points = dataset.points
        self.columns = dataset.columns
        self.rho, self.runs = prepare_extension(dataset, delta)
        self.cell = self.runs.cell
        self.centers = centers
        self.delta = float(delta)
        self.cap = cap
        self.query_radius = _query_radius(self.delta)
        self.k = len(centers)
        self.n = dataset.n
        self.sets: list[list[int]] = [[] for _ in range(self.k)]
        self.all: list[int] = []
        self.all_sets: list[int] = []
        self.free = np.ones(self.n, dtype=bool)  # not a member
        self.closed = np.zeros(self.k, dtype=bool)
        self.n_closed = 0
        self.uncovered = np.ones(self.n, dtype=bool)
        self.n_covered = 0
        self.stats = {"run_entries": 0, "candidates": 0, "far_rows": 0}
        # The trace's dis and covered columns; its object and set columns
        # are all[k:] and all_sets[k:]. Ints and floats are not tracked by
        # the garbage collector, so a step allocates no container (a tuple
        # per step cost a fresh ``ecac ablate`` a full collection, about
        # 20 ms); the records are built only when the trace is read.
        self.dis: list[float] = []
        self.covered: list[int] = []
        self.fallback_count = 0

    def add(self, o: int, j: int):
        """Register a new member; returns its answer ``(ids, dists)``:
        every non-member of its cell's candidate run, with its distance,
        ids in no particular order.

        The answer's subset at strict distance < delta is newly covered
        unless covered before. Set j is closed once it holds ``cap``
        extended-centers.
        """
        self.free[o] = False
        self.sets[j].append(o)
        self.all.append(o)
        self.all_sets.append(j)
        if len(self.sets[j]) - 1 == self.cap:
            self.closed[j] = True
            self.n_closed += 1
        run = self.runs.run(self.cell[o]).astype(np.intp)
        ids = run[self.free[run]]
        dists = _distances(self.columns.take(ids, axis=1), self.columns[:, o, None])
        self.stats["candidates"] += ids.size
        uncovered = self.uncovered
        new = ids[(dists < self.delta) & uncovered[ids]]
        uncovered[new] = False
        self.n_covered += new.size
        if uncovered[o]:
            uncovered[o] = False
            self.n_covered += 1
        return ids, dists

    def record(self, dis: float):
        """Trace the step whose member ``add`` registered last."""
        self.dis.append(dis)
        self.covered.append(self.n_covered)

    def done(self) -> bool:
        return self.n_covered == self.n or len(self.all) == self.n or self.n_closed == self.k

    def finish(self) -> ExtendedSets:
        self.stats["run_entries"] = self.runs.entries(self.cell.take(self.all))
        return ExtendedSets(
            sets=self.sets,
            all=self.all,
            all_sets=self.all_sets,
            coverage=~self.uncovered,
            fallback_count=self.fallback_count,
            steps=(self.all[self.k:], self.all_sets[self.k:], self.dis, self.covered),
            stats=self.stats,
        )


def trace_records(steps) -> list[dict]:
    """Trace columns (object, set, dis, covered), lists or arrays, as one
    dict per step with the keys ``object``, ``set``, ``dis`` and
    ``covered``, each value a Python int or float."""
    return [
        {"object": int(o), "set": int(j), "dis": float(dis), "covered": int(covered)}
        for o, j, dis, covered in zip(*steps)
    ]


def _run_scored(state: _GreedyState, use_density: bool, local: bool):
    """Distance-minimizing selection with either the local or global pool.

    The selection cache lives here: per object a (min distance, best
    set) pair (``best_dis``, ``best_set``) and a score. As the density
    weight does not depend on the set, the cache is all selection needs.

    One cache rule: every row starts with the cache of a row outside the
    pool, (2*delta, -1) for the local pool and (inf, -1) for the global
    one, and a fold caches (d, j) wherever it beats a row's cache (d is
    smaller, or equal with j the lower set). So a row joins the local
    pool once a member comes strictly within 2*delta (set -1 keeps its
    row on a tie), and the global pool holds every object once the
    centers are folded in. A member's cached distance is -inf, so no
    later fold changes it.

    A fold visits the new member's answer, which holds every non-member
    within 2*delta of it, and then ``far``: the free rows with a set
    whose cached distance is at least 2*delta. No other row can change:
    its cache is below 2*delta, or 2*delta with set -1, so only a member
    within 2*delta can beat it.
    ``far`` is every object before the global pool's first fold and
    empty for the local one; a fold drops the rows it brings below
    2*delta, and ``close_set`` (a set reached its cap, so its rows are
    re-pointed to farther members of open sets) recomputes it.

    ``score[i]`` is ``best_dis[i] / rho[i]`` (``best_dis[i]`` without the
    density weight), and inf for members and for objects outside the
    pool; it is rewritten wherever the cache changes, from the same
    operands, so a step is one ``argmin`` and its ties go to the lowest
    object id, as a scan of the sorted pool would. When the minimum is
    inf (the local pool has emptied while objects remain uncovered), a
    fallback step scores every non-member by its nearest open member
    (``scan``). The from-definition loop is
    ``tests/oracles.naive_identify``.

    One loop body runs every step, the k centers' first: it registers
    the member and builds its answer as ``_GreedyState.add`` does, folds
    it and traces the step, on locals bound once. The calls per step
    that it replaces (``add``, a fold, two cache updates and ``record``)
    cost an extension with s close to n about a tenth of its time.
    """
    points, columns, cell, run = state.points, state.columns, state.cell, state.runs.run
    n, k, cap, centers = state.n, state.k, state.cap, state.centers
    delta, radius = state.delta, state.query_radius
    free, uncovered, closed = state.free, state.uncovered, state.closed
    sets, members, member_sets = state.sets, state.all, state.all_sets
    trace_dis, trace_covered = state.dis, state.covered
    weight = state.rho.astype(np.float64) if use_density else np.ones(n)
    best_dis = np.full(n, radius if local else np.inf)
    best_set = np.full(n, -1, dtype=np.int64)
    score = np.full(n, np.inf)
    far = np.empty(0, dtype=np.int64) if local else np.arange(n)
    inf = np.inf
    n_covered = n_closed = candidates = far_rows = 0

    def scan(ids: np.ndarray):
        """Distance from each given id to its nearest open-set member, and
        that member's set; (inf, -1) when every set is closed.

        The members are listed set by set, so on an exact tie the first
        nearest one lies in the lowest set. ``nearest`` works in bounded
        row chunks, so no ids x members matrix is built.
        """
        open_sets = np.flatnonzero(~closed)
        if open_sets.size == 0:
            return np.inf, -1
        member_ids = np.concatenate([sets[j] for j in open_sets])
        member_sets = np.repeat(open_sets, [len(sets[j]) for j in open_sets])
        dis, pos = nearest(points[ids], points[member_ids])
        return dis, member_sets[pos]

    def close_set(f: int) -> np.ndarray:
        """Set f just reached its cap: re-point pool rows that relied on
        it; returns the new ``far``."""
        # Rows outside the pool keep set -1, so only pooled rows match.
        rows = np.flatnonzero((best_set == f) & free)
        best_dis[rows], best_set[rows] = scan(rows)
        score[rows] = best_dis[rows] / weight[rows]
        return np.flatnonzero(free & (best_set >= 0) & (best_dis >= radius))

    step = 0
    while True:
        if step < k:
            o, j = centers[step], step
        elif n_covered == n or step == n or n_closed == k:
            break
        else:
            o = int(score.argmin())  # ties: lowest object id
            dis = score.item(o)
            if dis < inf:
                j = best_set.item(o)
            else:
                # Disconnected region: one whole-dataset step, then resume.
                cands = np.flatnonzero(free)
                state.fallback_count += 1
                dis_vec, set_vec = scan(cands)
                scores = dis_vec / weight[cands]
                pick = int(np.argmin(scores))
                o, j, dis = int(cands[pick]), int(set_vec[pick]), float(scores[pick])
        step += 1

        # The member and its answer (``_GreedyState.add``).
        free[o] = False
        sets[j].append(o)
        members.append(o)
        member_sets.append(j)
        if len(sets[j]) - 1 == cap:
            closed[j] = True
            n_closed += 1
        ids = run(cell.item(o)).astype(np.intp)
        ids = ids[free[ids]]
        column = columns[:, o, None]
        dists = _distances(columns.take(ids, axis=1), column)
        candidates += ids.size
        new = ids[(dists < delta) & uncovered[ids]]
        uncovered[new] = False
        n_covered += new.size
        if uncovered[o]:
            uncovered[o] = False
            n_covered += 1

        # Its fold: the answer, then the far rows.
        best_dis[o] = -inf
        score[o] = inf
        old = best_dis[ids]
        better = dists < old
        tie = dists == old
        if np.count_nonzero(tie):
            better |= tie & (j < best_set[ids])
        ids, dists = ids[better], dists[better]
        best_dis[ids] = dists
        best_set[ids] = j
        score[ids] = dists / weight[ids]
        if far.size:
            far_rows += far.size
            dists = _distances(columns.take(far, axis=1), column)
            old = best_dis[far]
            better = dists < old
            tie = dists == old
            if np.count_nonzero(tie):
                better |= tie & (j < best_set[far])
            ids, dists = far[better], dists[better]
            best_dis[ids] = dists
            best_set[ids] = j
            score[ids] = dists / weight[ids]
            far = far[best_dis[far] >= radius]

        if step > k:
            trace_dis.append(dis)
            trace_covered.append(n_covered)
            if closed[j]:
                far = close_set(j)
    state.stats["candidates"] = candidates
    state.stats["far_rows"] = far_rows
    return state.finish()


def _run_random(state: _GreedyState, sampler: Sampler):
    """Uniformly sampled objects, attached to the nearest center's set."""
    rho = state.rho.astype(np.float64)
    for j, center in enumerate(state.centers):
        state.add(center, j)
    while not state.done():
        cands = np.flatnonzero(state.free)
        o = int(cands[sampler.integer(cands.size)])
        column = state.columns[:, o, None]
        dists = _distances(state.columns.take(state.centers, axis=1), column)
        dists[state.closed] = np.inf
        j = int(np.argmin(dists))
        # Recorded for the trace only; random selection ignores distances.
        dis = _distances(state.columns.take(state.sets[j], axis=1), column).min() / rho[o]
        state.add(o, j)
        state.record(dis)
    return state.finish()


def _object_id(c, n: int) -> int:
    """``c`` as an object id in 0..n-1; ``InvalidSpec`` when it is not an
    integer value or lies outside that range."""
    try:
        i = int(c)
    except (TypeError, ValueError, OverflowError):
        i = None
    if i is None or i != c:
        raise InvalidSpec(f"center id {c} is not an integer")
    if not 0 <= i < n:
        raise InvalidSpec(f"center id {i} is not an object id in 0..{n - 1}")
    return i


def identify_extended_centers(
    dataset: Dataset,
    centers: Sequence[int],
    delta: float,
    strategy: SelectionStrategy | None = None,
    index: SpatialIndex | None = None,
    densities=None,
) -> ExtendedSets:
    """Grow one extended-set per clustering center until coverage.

    The extension reads its count and candidate runs from
    ``prepare_extension``, on the dataset's own ``dataset.index``.
    ``index`` and ``densities`` (a ``DensityVector``) are checks only:
    when passed, the index must be built over ``dataset`` itself and the
    densities must be this dataset's counts at ``delta``, or the call
    raises; neither is read otherwise.
    """
    strategy = strategy or SelectionStrategy()
    if delta <= 0:
        raise InvalidRadius(f"delta must be > 0, got {delta}")
    centers = [_object_id(c, dataset.n) for c in centers]
    if not centers:
        raise EmptyCenters("need at least one clustering center")
    if len(set(centers)) != len(centers):
        raise InvalidSpec("centers must be distinct object ids")
    if index is not None and index.dataset is not dataset:
        raise InvalidSpec("index was built over another dataset")
    if densities is not None:
        if densities.delta != delta:
            raise InvalidRadius(
                f"densities were computed at delta={densities.delta}, not {delta}"
            )
        if not np.array_equal(densities.rho, dataset.index.density(delta)):
            raise InvalidSpec(f"densities hold {densities.rho.size} objects, not this dataset's counts")

    state = _GreedyState(dataset, delta, centers, strategy.cap)
    if strategy.kind == RANDOM:
        return _run_random(state, Sampler(strategy.seed))
    return _run_scored(state, use_density=strategy.kind != NODENSITY, local=strategy.kind != GLOBAL)


def merge_clusters(initial_labels, ext: ExtendedSets) -> np.ndarray:
    """Collapse the s initial-clusters onto their k extended-sets.

    Initial label p means "assigned to ``ext.all[p]``"; the final label
    is the index of the extended-set containing that member.
    """
    initial = np.asarray(initial_labels, dtype=np.int64)
    if initial.size and (initial.min() < 0 or initial.max() >= ext.s):
        raise LabelOutOfRange(f"initial labels must lie in 0..{ext.s - 1}")
    return np.asarray(ext.all_sets, dtype=np.int64)[initial]
