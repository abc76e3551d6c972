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
fold visits only its radius query's answer (at 2*delta, for every
strategy) and the pooled rows whose cached distance is at least 2*delta
(``far``); a member's cached distance is -inf, so no fold changes it. A
new member's radius query is one slice of its cell's candidate run
(``SpatialIndex.candidate_runs``, built for every cell of the grid once
per dataset and radius, and kept with the dataset), less the members,
judged by exact distance; no index call is made per member. Coverage
grows by the answer's newly covered objects.
``_run_scored`` and ``_GreedyState`` say why all of this is exact.
``prepare_extension`` builds the count and the runs that every
extension at one delta reads, so that processes forked afterwards share
them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np
from numpy.random import Generator, default_rng

from .data import Dataset, SpatialIndex, _row_norms, nearest
from .density import DensityVector, compute_densities
from .errors import EmptyCenters, InvalidRadius, InvalidSpec, LabelOutOfRange

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
    step (see ``trace_records``). ``stats`` counts the radius-query work,
    the same on every run of the same input: ``run_entries``, the ids
    held by the candidate runs that the queries read (at most 81 per
    object), and ``candidates``, the non-members whose distance to a new
    member was computed, summed over the members.
    """

    sets: list[list[int]]
    all: list[int]
    all_sets: list[int]
    coverage: np.ndarray
    delta: float
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
    """Build what every extension of ``dataset`` at ``delta`` reads, the
    neighbour count at delta and the candidate runs at the query radius,
    and keep both in ``dataset.derived``: the extensions that follow,
    in this process or in processes forked from it, build neither."""
    dataset.index.density(delta)
    dataset.index.candidate_runs(_query_radius(delta))


class _GreedyState:
    """Bookkeeping shared by every strategy.

    Each member's radius query lists the non-members within the query
    radius, 2*delta for every strategy (``_query_radius``). It is
    answered from the candidate runs at that radius
    (``index.candidate_runs``), which the dataset keeps, so extensions at
    one delta build them once: one slice of the run of the new member's
    cell, less the members, judged by their ``_row_norms`` distances and
    kept below the radius.

    Why this is exact: a run holds every point at strict distance below
    the radius from any point of its cell, so the slice holds every
    object that a grid query centered on the new member would list, and
    its distances are the ``_row_norms`` values such a query computes.
    Dropping the members leaves exactly the non-members within the
    radius. A member needs no query, because it is always covered (it
    covers itself when it joins) and never re-scored (see
    ``_run_scored``).
    """

    def __init__(self, dataset, index, densities, centers, cap):
        self.points = dataset.points
        self.densities = densities
        self.centers = centers
        self.delta = densities.delta
        self.cap = cap
        self.query_radius = _query_radius(self.delta)
        self.k = len(centers)
        self.n = dataset.n
        self.cell, self.bounds, self.runs = index.candidate_runs(self.query_radius)
        self.sets: list[list[int]] = [[] for _ in range(self.k)]
        self.all: list[int] = []
        self.all_sets: list[int] = []
        self.free = np.ones(self.n, dtype=bool)  # not a member
        self.score = np.full(self.n, np.inf)
        self.closed = np.zeros(self.k, dtype=bool)
        self.n_closed = 0
        self.uncovered = np.ones(self.n, dtype=bool)
        self.n_covered = 0
        self.stats = {"run_entries": int(self.runs.size), "candidates": 0}
        # The trace as columns (object, set, dis, covered), one entry per
        # step. Ints and floats are not tracked by the garbage collector,
        # so a step allocates no container: with one tuple per step as
        # well as the records, an ``ecac ablate`` in a fresh interpreter
        # ran a full collection over every loaded module's objects (about
        # 20 ms). The records are built only when the trace is read.
        self.steps = ([], [], [], [])
        self.fallback_count = 0

    def add(self, o: int, j: int):
        """Register a new member; returns its answer ``(ids, dists)``:
        every non-member within the query radius, ids in no particular
        order.

        The answer feeds the candidate pool and its cache, and its subset
        at strict distance < delta is newly covered unless covered before.
        Set j is closed once it holds ``cap`` extended-centers.
        """
        self.free[o] = False
        self.score[o] = np.inf
        self.sets[j].append(o)
        self.all.append(o)
        self.all_sets.append(j)
        if len(self.sets[j]) - 1 == self.cap:
            self.closed[j] = True
            self.n_closed += 1
        c = self.cell[o]
        run = self.runs[self.bounds[c]:self.bounds[c + 1]]
        cand = run[self.free.take(run)]
        dists = _row_norms(self.points.take(cand, axis=0) - self.points[o])
        keep = (dists < self.query_radius).nonzero()[0]
        ids, dists = cand.take(keep), dists.take(keep)
        self.stats["candidates"] += cand.size
        uncovered = self.uncovered
        new = ids[(dists < self.delta) & uncovered.take(ids)]
        uncovered[new] = False
        self.n_covered += new.size
        if uncovered[o]:
            uncovered[o] = False
            self.n_covered += 1
        return ids, dists

    def record(self, o: int, j: int, dis: float):
        objects, sets, dis_values, covered = self.steps
        objects.append(o)
        sets.append(j)
        dis_values.append(dis)
        covered.append(self.n_covered)

    def done(self) -> bool:
        return self.n_covered == self.n or len(self.all) == self.n or self.n_closed == self.k

    def finish(self) -> ExtendedSets:
        return ExtendedSets(
            sets=self.sets,
            all=self.all,
            all_sets=self.all_sets,
            coverage=~self.uncovered,
            delta=self.delta,
            fallback_count=self.fallback_count,
            steps=self.steps,
            stats=self.stats,
        )


def trace_records(steps) -> list[dict]:
    """Trace columns (object, set, dis, covered) as one dict per step,
    with the keys ``object``, ``set``, ``dis`` and ``covered``."""
    return [
        {"object": int(o), "set": int(j), "dis": float(dis), "covered": covered}
        for o, j, dis, covered in zip(*steps)
    ]


def _run_scored(state: _GreedyState, use_density: bool, local: bool):
    """Distance-minimizing selection with either the local or global pool.

    Both pools keep one cached (min distance, best set) pair per pooled
    object and fold each new member into it; because the density weight
    does not depend on the set, the cache is all selection needs. The
    global pool holds every object from the start; the local pool is the
    2*delta frontier, grown incrementally.

    A new member's cached distance becomes -inf, which no distance beats,
    so no later fold changes a member's cache or score. A fold visits the
    new member's query answer and ``far``, the pooled non-members whose
    cached distance is at least the query radius, and nothing else. A pooled row with a
    smaller cached distance can only be improved by a member nearer
    still, inside that member's query. An entrant to the local pool was
    at least 2*delta from every earlier member, so the new member is its
    nearest: its cache starts at (inf, k) and any (distance, set) beats
    that. So ``far`` starts as every object for the global pool and
    empty for the local one; it sheds the rows a fold brings within the
    radius and the new member (at -inf), and gains the rows that
    ``close_set`` re-points, once a set reaches its cap, to a farther
    member of an open set.

    ``score[i]`` (``state.score``) is ``best_dis[i] / rho[i]``
    (``best_dis[i]`` without the density weight), and inf for members and
    for objects outside the pool; it is rewritten wherever the cache
    changes, from the same operands, so a step is one ``argmin`` and its
    ties go to the lowest object id, as a scan of the sorted pool would.
    When the minimum is inf (the local pool has emptied while objects
    remain uncovered), a fallback step scores every non-member by its
    nearest open member (``scan``). The from-definition loop is
    ``tests/oracles.naive_identify``.
    """
    points = state.points
    n = state.n
    radius = state.query_radius
    weight = state.densities.rho.astype(np.float64) if use_density else np.ones(n)
    best_dis = np.full(n, np.inf)
    best_set = np.full(n, state.k, dtype=np.int64)
    score = state.score
    far = np.empty(0, dtype=np.int64) if local else np.arange(n)

    def scan(ids: np.ndarray):
        """Distance from each given id to its nearest open-set member, and
        that member's set; (inf, -1) when every set is closed.

        The members are listed set by set, so on an exact tie the first
        nearest one lies in the lowest set. ``nearest`` works in bounded
        row chunks, so no ids x members matrix is built.
        """
        open_sets = np.flatnonzero(~state.closed)
        if open_sets.size == 0:
            return np.inf, -1
        member_ids = np.concatenate([state.sets[j] for j in open_sets])
        member_sets = np.repeat(open_sets, [len(state.sets[j]) for j in open_sets])
        dis, pos = nearest(points[ids], points[member_ids])
        return dis, member_sets[pos]

    def improve(j: int, rows: np.ndarray, d: np.ndarray):
        """Cache (d, j) wherever it beats a row's cache; ties keep the
        lower set index."""
        old = best_dis[rows]
        better = d < old
        tie = d == old
        if tie.any():
            better |= tie & (j < best_set[rows])
        rows, d = rows[better], d[better]
        best_dis[rows] = d
        best_set[rows] = j
        score[rows] = d / weight[rows]

    def fold(o: int, j: int):
        """Add o to set j and fold it into the pool's cache: its answer
        from ``state.add``, then the far rows."""
        nonlocal far
        ids, dists = state.add(o, j)
        best_dis[o] = -np.inf
        improve(j, ids, dists)
        if far.size:
            improve(j, far, _row_norms(points.take(far, axis=0) - points[o]))
            far = far[best_dis[far] >= radius]

    def close_set(f: int):
        """Set f just reached its cap: re-point pool rows that relied on it."""
        nonlocal far
        # Rows outside the pool keep best_set == k, so only pooled rows match.
        rows = np.flatnonzero((best_set == f) & state.free)
        best_dis[rows], best_set[rows] = scan(rows)
        score[rows] = best_dis[rows] / weight[rows]
        # The sorted union, as np.union1d, which would load numpy.ma.
        joined = np.zeros(n, dtype=bool)
        joined[far] = True
        joined[rows[best_dis[rows] >= radius]] = True
        far = np.flatnonzero(joined)

    for j, center in enumerate(state.centers):
        fold(center, j)

    while not state.done():
        o = int(score.argmin())  # ties: lowest object id
        if score[o] < np.inf:
            j, dis = int(best_set[o]), float(score[o])
        else:
            # Disconnected region: one whole-dataset step, then resume.
            cands = np.flatnonzero(state.free)
            state.fallback_count += 1
            dis_vec, set_vec = scan(cands)
            scores = dis_vec / weight[cands]
            pick = int(np.argmin(scores))
            o, j, dis = int(cands[pick]), int(set_vec[pick]), float(scores[pick])
        fold(o, j)
        state.record(o, j, dis)
        if state.closed[j]:
            close_set(j)
    return state.finish()


def _run_random(state: _GreedyState, rng: Generator):
    """Uniformly sampled objects, attached to the nearest center's set."""
    points = state.points
    rho = state.densities.rho.astype(np.float64)
    center_pts = points[state.centers]
    for j, center in enumerate(state.centers):
        state.add(center, j)
    while not state.done():
        cands = np.flatnonzero(state.free)
        o = int(rng.choice(cands))
        dists = _row_norms(center_pts - points[o])
        dists[state.closed] = np.inf
        j = int(np.argmin(dists))
        # Recorded for the trace only; random selection ignores distances.
        dis = _row_norms(points[state.sets[j]] - points[o]).min() / rho[o]
        state.add(o, j)
        state.record(o, j, dis)
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
    densities: DensityVector | None = None,
) -> ExtendedSets:
    """Grow one extended-set per clustering center until coverage.

    ``index`` and ``densities`` may be passed in to reuse previously
    built structures; the index must be built over ``dataset`` itself and
    the densities computed on it at ``delta``. Without ``index`` the
    dataset's own ``dataset.index`` is used.
    """
    strategy = strategy or SelectionStrategy()
    if delta <= 0:
        raise InvalidRadius(f"delta must be > 0, got {delta}")
    centers = [_object_id(c, dataset.n) for c in centers]
    if not centers:
        raise EmptyCenters("need at least one clustering center")
    if len(set(centers)) != len(centers):
        raise InvalidSpec("centers must be distinct object ids")
    if index is None:
        index = dataset.index
    elif index.dataset is not dataset:
        raise InvalidSpec("index was built over another dataset")
    if densities is None:
        densities = compute_densities(dataset, index, delta)
    elif densities.delta != delta:
        raise InvalidRadius(
            f"densities were computed at delta={densities.delta}, not {delta}"
        )
    elif not np.array_equal(densities.rho, index.density(delta)):
        raise InvalidSpec(f"densities hold {densities.rho.size} objects, not this dataset's counts")

    state = _GreedyState(dataset, index, densities, centers, strategy.cap)
    if strategy.kind == RANDOM:
        return _run_random(state, default_rng(strategy.seed))
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
