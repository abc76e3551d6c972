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
  the open set whose clustering center is nearest.
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
is at least 2*delta, in the same write. Coverage grows by the answer's
newly covered objects. One loop, ``_extend``, runs every strategy, and
its docstring says why all of this is exact.
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


def step_columns(steps=((), (), (), ())) -> tuple[np.ndarray, ...]:
    """The trace's four columns, object, set, dis and covered, as int64,
    int64, float64 and int64 arrays; with no argument, the empty trace."""
    types = (np.int64, np.int64, np.float64, np.int64)
    return tuple(np.asarray(column, dtype=t) for column, t in zip(steps, types))


@dataclass
class ExtendedSets:
    """Clustering centers plus their extended-centers.

    ``all`` lists every member in identification order (the k centers
    first); ``sets[i]`` starts with center i; ``all_sets[p]`` is the set
    index of ``all[p]``. ``steps`` holds the trace: four NumPy columns
    (``step_columns``) with one entry per greedy selection, the object
    id, set index, selection distance and covered count after the step;
    ``trace`` reads them as one dict per step (``trace_records``), built
    on first read. ``stats`` counts the distance work,
    the same on every run of the same input: ``run_entries``, the ids
    held by the blocks of candidate runs that the queries read (at most
    81 per object), whether this run or an earlier one gathered them,
    ``candidates``, the non-members whose distance to a new
    member was computed in its answer, summed over the members, and
    ``far_rows``, the rows folded from ``far`` (see ``_extend``),
    summed over the folds (0 for the uncapped local pool and for
    ``random``).
    """

    sets: list[list[int]]
    all: list[int]
    all_sets: list[int]
    coverage: np.ndarray
    fallback_count: int = 0
    steps: tuple[np.ndarray, ...] = field(default_factory=step_columns)
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


def trace_records(steps) -> list[dict]:
    """Trace columns (object, set, dis, covered), lists or arrays, as one
    dict per step keyed ``object``, ``set``, ``dis`` and ``covered``, each
    value a Python int or float: the records of a trace file's lines."""
    return [
        {"object": o, "set": j, "dis": dis, "covered": covered}
        for o, j, dis, covered in zip(*(column.tolist() for column in step_columns(steps)))
    ]


def _extend(dataset: Dataset, delta: float, centers: list[int], strategy: SelectionStrategy) -> ExtendedSets:
    """The greedy loop of every strategy; the k centers' steps come first.

    A step selects an object o and a set j in one of three ways: the
    score's ``argmin``; the fallback ``scan``; or, for ``random``, a
    seeded draw of a non-member, attached to the open set whose center is
    nearest (its ``dis`` is traced only). It then registers o in set j,
    which closes once it holds ``cap`` extended-centers, and builds o's
    answer: every non-member of its cell's candidate run at the query
    radius (``_query_radius``, 2*delta for every strategy), with its
    distance, ids in no particular order. The answer's objects at strict
    distance below delta are covered, and so is o.

    Why the answer is exact: a run holds every point at strict distance
    below the radius from any point of its cell, so an answer holds every
    non-member within the radius of the new member (and maybe farther
    ones), with the distances a grid query would compute. A member needs
    no query: it covers itself when it joins and is never re-scored.
    Every distance from one object to many is ``_distances`` on columns
    gathered from ``dataset.columns``, against the object's own
    ``columns[:, o, None]``; the run's int32 ids are widened once per
    answer, so every later index is an ``np.intp``. Each member reads its
    own cell's run once, so the members' cells are the cells whose blocks
    ``stats["run_entries"]`` counts.

    The selection cache: per object a (min distance, best set) pair
    (``best_dis``, ``best_set``) and a score. As the density weight does
    not depend on the set, the cache is all selection needs. ``random``
    reads no cache, so it skips the fold and ``close_set``.

    One cache rule: every row starts with the cache of a row outside the
    pool, (2*delta, -1) for the local pool and (inf, -1) for the global
    one, and a fold caches (d, j) wherever it beats a row's cache (d is
    smaller, or equal with j the lower set). So a row joins the local
    pool once a member comes strictly within 2*delta (set -1 keeps its
    row on a tie), and the global pool holds every object once the
    centers are folded in. A member's cached distance is -inf, so no
    later fold changes it.

    A fold visits the new member's answer, which holds every non-member
    within 2*delta of it, and ``far``: the free rows with a set whose
    cached distance is at least 2*delta. No other row can change: its
    cache is below 2*delta, or 2*delta with set -1, so only a member
    within 2*delta can beat it. ``far`` is every object before the
    global pool's first fold and empty for the local one; a fold drops
    the rows it brings below 2*delta, and ``close_set`` (a set reached
    its cap, so its rows are re-pointed to farther members of open sets)
    recomputes it. The far rows and their distances are appended to the
    answer and folded with it in one write: a row in both lists has the
    same distance bits in each (``_distances`` computes each column on
    its own), so both copies make the same choice, and the write ends as
    a fold of the answer followed by one of ``far`` would, ties to the
    lower set included.

    ``score[i]`` is ``best_dis[i] / rho[i]`` (``best_dis[i]`` without the
    density weight), and inf for members and for objects outside the
    pool; it is rewritten wherever the cache changes, from the same
    operands, so a step is one ``argmin`` and its ties go to the lowest
    object id, as a scan of the sorted pool would. When the minimum is
    inf (the local pool has emptied while objects remain uncovered), a
    fallback step scores every non-member by its nearest open member
    (``scan``). The from-definition loop is
    ``tests/oracles.naive_identify``.

    The loop's state lives in locals bound once, and a step calls no
    function of this module but ``scan`` and ``close_set``: per-step calls
    to register, fold and trace cost an extension with s close to n about
    a tenth of its time.
    """
    points, columns = dataset.points, dataset.columns
    rho, runs = prepare_extension(dataset, delta)
    cell, run = runs.cell, runs.run
    n, k, cap = dataset.n, len(centers), strategy.cap
    delta = float(delta)
    radius = _query_radius(delta)
    sampler = Sampler(strategy.seed) if strategy.kind == RANDOM else None
    local = strategy.kind != GLOBAL
    weight = np.ones(n) if strategy.kind == NODENSITY else rho.astype(np.float64)
    sets: list[list[int]] = [[] for _ in range(k)]
    members: list[int] = []
    member_sets: list[int] = []
    free = np.ones(n, dtype=bool)  # not a member
    uncovered = np.ones(n, dtype=bool)
    closed = np.zeros(k, dtype=bool)
    best_dis = np.full(n, radius if local else np.inf)
    best_set = np.full(n, -1, dtype=np.int64)
    score = np.full(n, np.inf)
    far = np.empty(0, dtype=np.int64) if local else np.arange(n)
    # The trace's dis and covered columns; its object and set columns are
    # members[k:] and member_sets[k:]. Ints and floats are not tracked by
    # the garbage collector, so a step allocates no container (a tuple per
    # step cost a fresh ``ecac ablate`` a full collection, about 20 ms);
    # the columns become arrays once the loop ends.
    trace_dis: list[float] = []
    trace_covered: list[int] = []
    inf = np.inf
    n_covered = n_closed = candidates = far_rows = fallbacks = 0

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
        elif sampler is not None:
            cands = np.flatnonzero(free)
            o = int(cands[sampler.integer(cands.size)])
            column = columns[:, o, None]
            dists = _distances(columns.take(centers, axis=1), column)
            dists[closed] = inf
            j = int(np.argmin(dists))
            dis = _distances(columns.take(sets[j], axis=1), column).min() / weight[o]
        else:
            o = int(score.argmin())  # ties: lowest object id
            dis = score.item(o)
            if dis < inf:
                j = best_set.item(o)
            else:
                # Disconnected region: one whole-dataset step, then resume.
                cands = np.flatnonzero(free)
                fallbacks += 1
                dis_vec, set_vec = scan(cands)
                scores = dis_vec / weight[cands]
                pick = int(np.argmin(scores))
                o, j, dis = int(cands[pick]), int(set_vec[pick]), float(scores[pick])
        step += 1

        # The member and its answer.
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

        # Its fold: the answer with the far rows appended.
        if sampler is None:
            best_dis[o] = -inf
            score[o] = inf
            if far.size:
                far_rows += far.size
                ids = np.concatenate((ids, far))
                dists = np.concatenate((dists, _distances(columns.take(far, axis=1), column)))
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
                far = far[best_dis[far] >= radius]
            if closed[j] and step > k:
                far = close_set(j)

        if step > k:
            trace_dis.append(dis)
            trace_covered.append(n_covered)
    return ExtendedSets(
        sets=sets,
        all=members,
        all_sets=member_sets,
        coverage=~uncovered,
        fallback_count=fallbacks,
        steps=step_columns((members[k:], member_sets[k:], trace_dis, trace_covered)),
        stats={
            "run_entries": runs.entries(cell.take(members)),
            "candidates": candidates,
            "far_rows": far_rows,
        },
    )


def _object_id(c, n: int) -> int:
    """``c`` as an object id in 0..n-1; ``InvalidSpec`` when it is a
    boolean, not an integer value or outside that range."""
    try:
        i = int(c)
    except (TypeError, ValueError, OverflowError):
        i = None
    if i is None or i != c or isinstance(c, (bool, np.bool_)):
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

    return _extend(dataset, delta, centers, strategy)


def merge_clusters(initial_labels, ext: ExtendedSets) -> np.ndarray:
    """Collapse the s initial-clusters onto their k extended-sets.

    Initial label p means "assigned to ``ext.all[p]``"; the final label
    is the index of the extended-set containing that member.
    """
    initial = np.asarray(initial_labels, dtype=np.int64)
    if initial.size and (initial.min() < 0 or initial.max() >= ext.s):
        raise LabelOutOfRange(f"initial labels must lie in 0..{ext.s - 1}")
    return np.asarray(ext.all_sets, dtype=np.int64)[initial]
