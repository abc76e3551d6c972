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
fold visits only its radius query's answer and the pooled rows whose
cached distance is at least the query radius (``far``); a member's
cached distance is -inf, so no fold changes it and answers need no
member filtering. Radius queries go to a KD-tree of the non-members,
rebuilt once a quarter of it has joined. Uncapped scored runs fetch in
batches: one tree call answers a new member together with the
lowest-scored pooled non-members that have no answer yet, whose answers
wait until they join; the random strategy and capped runs query one
member at a time. ``_run_scored`` and ``_GreedyState`` say why all of
this is exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .data import _NEAREST_CHUNK, Dataset, SpatialIndex, _row_norms, nearest
from .density import DensityVector, compute_densities
from .errors import EmptyCenters, InvalidRadius, InvalidSpec, LabelOutOfRange

LOCAL = "local"
GLOBAL = "global"
RANDOM = "random"
NODENSITY = "nodensity"
STRATEGY_KINDS = (LOCAL, GLOBAL, RANDOM, NODENSITY)

# Members added since the extension's non-member tree was built, as a
# share of its size, beyond which the tree is rebuilt.
_REBUILD_FRACTION = 0.25

# Most objects whose radius queries one tree call answers: a new member
# and the lowest-scored pooled non-members that have no answer yet.
_BATCH = 32


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
    index of ``all[p]``. ``trace`` holds one record per greedy selection:
    object id, set index, selection distance, and covered count after
    the step, as a dict with the keys ``object``, ``set``, ``dis`` and
    ``covered``. ``stats`` counts the radius-query work: tree calls, answers
    fetched (one per member is used), the peak count of entries in
    fetched answers not yet used, and non-member tree rebuilds.
    """

    sets: list[list[int]]
    all: list[int]
    all_sets: list[int]
    coverage: np.ndarray
    delta: float
    fallback_count: int = 0
    trace: list[dict] = field(default_factory=list)
    stats: dict = field(default_factory=dict)

    @property
    def s(self) -> int:
        return len(self.all)

    @property
    def fully_covered(self) -> bool:
        return bool(self.coverage.all())


class _GreedyState:
    """Bookkeeping shared by every strategy.

    Each member's radius query lists the non-members within the query
    radius: 2*delta for the local pool, else delta. The queries go to a
    KD-tree over the objects that were non-members when it was built,
    starting from the full ``index``; it is rebuilt over the remaining
    non-members once the members added since exceed
    ``_REBUILD_FRACTION`` of its size, so an answer lists few members.

    With ``fetch_ahead``, answers are fetched in batches. When a new
    member has none, one ``range_query_batch`` call fetches its answer
    with those of the lowest-scored pooled non-members that have none
    (``score``, which the scored strategies write), up to ``_BATCH``
    objects, and the extra answers wait in ``pending`` until their
    object joins. While the pending answers hold more than
    ``_NEAREST_CHUNK`` entries, a fetch asks for the new member's alone,
    so they never hold more than that plus one batch. The random
    strategy has no scores to look ahead by, and a capped run usually
    stops long before its pool is used up, so answers fetched ahead
    would mostly go unused (929 fetched for 404 members on 4 blobs of
    2,500 with a cap of 100): both fetch every answer alone, with one
    ball query and no batch bookkeeping.

    Why this is exact: an answer lists every object within the radius
    that was a non-member when it was fetched, with its ``_row_norms``
    distance. Objects only ever leave the non-members, so an answer,
    used when its object joins, holds every non-member a query at that
    moment would list, plus some members. Those members are already
    covered, and the scored strategies never change a member's cache
    (see ``_run_scored``), so they are left in. A member needs no query,
    because it is always covered (it covers itself when it joins) and
    never re-scored.
    """

    def __init__(self, dataset, index, densities, centers, cap, query_radius, fetch_ahead):
        self.dataset = dataset
        self.points = dataset.points
        self.tree = index
        self.stale = 0
        self.densities = densities
        self.centers = centers
        self.delta = densities.delta
        self.cap = cap
        self.query_radius = query_radius
        self.k = len(centers)
        self.n = dataset.n
        self.ahead = min(_BATCH - 1, self.n - 1) if fetch_ahead else 0
        self.sets: list[list[int]] = [[] for _ in range(self.k)]
        self.all: list[int] = []
        self.all_sets: list[int] = []
        self.member_of = np.full(self.n, -1, dtype=np.int64)
        self.score = np.full(self.n, np.inf)
        self.closed = np.zeros(self.k, dtype=bool)
        self.n_closed = 0
        self.covered = np.zeros(self.n, dtype=bool)
        self.n_covered = 0
        self.pending: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self.fetched = np.zeros(self.n, dtype=bool)  # an answer was fetched for it
        self.pending_entries = 0
        self.stats = {"tree_calls": 0, "lists_fetched": 0, "peak_pending_entries": 0, "rebuilds": 0}
        # The trace as columns (object, set, dis, covered), one entry per
        # step; ``finish`` builds the records. Ints and floats are not
        # tracked by the garbage collector, so a step allocates no
        # container: with one tuple per step as well as the records, an
        # ``ecac ablate`` in a fresh interpreter ran a full collection over
        # every loaded module's objects (about 20 ms).
        self.trace = ([], [], [], [])
        self.fallback_count = 0

    def add(self, o: int, j: int):
        """Register a new member; returns its answer ``(ids, dists)``:
        every non-member within the query radius, and possibly members,
        ids in no particular order.

        The answer feeds the candidate pool and its cache, and its subset
        at strict distance < delta is newly covered. Set j is closed once
        it holds ``cap`` extended-centers.
        """
        self.member_of[o] = j
        self.score[o] = np.inf
        self.sets[j].append(o)
        self.all.append(o)
        self.all_sets.append(j)
        if len(self.sets[j]) - 1 == self.cap:
            self.closed[j] = True
            self.n_closed += 1
        self.stale += 1
        if self.stale > _REBUILD_FRACTION * self.tree.size:
            self.tree = SpatialIndex(self.dataset, np.flatnonzero(self.member_of < 0))
            self.stale = 0
            self.stats["rebuilds"] += 1
        answer = self.pending.pop(o, None)
        if answer is None:
            ids, dists = self._fetch(o)
        else:
            ids, dists = answer
            self.pending_entries -= ids.size
        self.covered[o] = True
        self.covered[ids[dists < self.delta]] = True
        self.n_covered = int(np.count_nonzero(self.covered))
        return ids, dists

    def _fetch(self, o: int):
        """o's answer, fetched in one tree call with the answers of up to
        ``_BATCH - 1`` of the lowest-scored pooled non-members that have
        none, which wait in ``pending``; alone without ``fetch_ahead``."""
        stats = self.stats
        stats["tree_calls"] += 1
        if not self.ahead:
            stats["lists_fetched"] += 1
            return self.tree.range_query_with_distances(self.points[o], self.query_radius)
        batch = np.array([o])
        if self.pending_entries <= _NEAREST_CHUNK:
            free = np.where(self.fetched, np.inf, self.score)
            lowest = np.argpartition(free, self.ahead - 1)[:self.ahead]
            batch = np.concatenate((batch, lowest[free[lowest] < np.inf]))
        ids, dists, bounds = self.tree.range_query_batch(self.points[batch], self.query_radius)
        # Copies, so that an answer left unused keeps no other answer alive.
        for p, lo, hi in zip(batch[1:].tolist(), bounds[1:-1].tolist(), bounds[2:].tolist()):
            self.pending[p] = ids[lo:hi].copy(), dists[lo:hi].copy()
        self.fetched[batch[1:]] = True
        self.pending_entries += int(bounds[-1] - bounds[1])
        stats["lists_fetched"] += batch.size
        stats["peak_pending_entries"] = max(stats["peak_pending_entries"], self.pending_entries)
        return ids[:bounds[1]], dists[:bounds[1]]

    def record(self, o: int, j: int, dis: float):
        objects, sets, dis_values, covered = self.trace
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
            coverage=self.covered,
            delta=self.delta,
            fallback_count=self.fallback_count,
            trace=[
                {"object": int(o), "set": int(j), "dis": float(dis), "covered": covered}
                for o, j, dis, covered in zip(*self.trace)
            ],
            stats=self.stats,
        )


def _run_scored(state: _GreedyState, use_density: bool, local: bool):
    """Distance-minimizing selection with either the local or global pool.

    Both pools keep one cached (min distance, best set) pair per pooled
    object and fold each new member into it; because the density weight
    does not depend on the set, the cache is all selection needs. The
    global pool holds every object from the start; the local pool is the
    2*delta frontier, grown incrementally.

    A new member's cached distance becomes -inf, which no distance beats,
    so no later fold changes a member's cache or score, and the answers
    a fold visits may list members. A fold visits the new member's query
    answer and ``far``, the pooled non-members whose cached distance is
    at least the query radius, and nothing else. A pooled row with a
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

    def fold(o: int, j: int, ids: np.ndarray, dists: np.ndarray):
        """Fold the newest member o of set j into the pool's cache.

        ``ids``/``dists`` are o's answer from ``state.add`` and distances.
        """
        nonlocal far
        best_dis[o] = -np.inf
        improve(j, ids, dists)
        if far.size:
            improve(j, far, _row_norms(points.take(far, axis=0) - points[o]))
            far = far[best_dis[far] >= radius]

    def close_set(f: int):
        """Set f just reached its cap: re-point pool rows that relied on it."""
        nonlocal far
        # Rows outside the pool keep best_set == k, so only pooled rows match.
        rows = np.flatnonzero((best_set == f) & (state.member_of < 0))
        best_dis[rows], best_set[rows] = scan(rows)
        score[rows] = best_dis[rows] / weight[rows]
        far = np.union1d(far, rows[best_dis[rows] >= radius])

    for j, center in enumerate(state.centers):
        fold(center, j, *state.add(center, j))

    while not state.done():
        o = int(score.argmin())  # ties: lowest object id
        if score[o] < np.inf:
            j, dis = int(best_set[o]), float(score[o])
        else:
            # Disconnected region: one whole-dataset step, then resume.
            cands = np.flatnonzero(state.member_of < 0)
            state.fallback_count += 1
            dis_vec, set_vec = scan(cands)
            scores = dis_vec / weight[cands]
            pick = int(np.argmin(scores))
            o, j, dis = int(cands[pick]), int(set_vec[pick]), float(scores[pick])
        fold(o, j, *state.add(o, j))
        state.record(o, j, dis)
        if state.closed[j]:
            close_set(j)
    return state.finish()


def _run_random(state: _GreedyState, rng: np.random.Generator):
    """Uniformly sampled objects, attached to the nearest center's set."""
    points = state.points
    rho = state.densities.rho.astype(np.float64)
    center_pts = points[state.centers]
    for j, center in enumerate(state.centers):
        state.add(center, j)
    while not state.done():
        cands = np.flatnonzero(state.member_of < 0)
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
    built structures; densities must have been computed at ``delta``.
    Without ``index`` the dataset's own ``dataset.index`` is used.
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
    if densities is None:
        densities = compute_densities(dataset, index, delta)
    elif densities.delta != delta:
        raise InvalidRadius(
            f"densities were computed at delta={densities.delta}, not {delta}"
        )

    local = strategy.kind in (LOCAL, NODENSITY)
    state = _GreedyState(
        dataset, index, densities, centers, strategy.cap,
        query_radius=2.0 * delta if local else delta,
        fetch_ahead=strategy.kind != RANDOM and strategy.cap is None,
    )
    if strategy.kind == RANDOM:
        return _run_random(state, np.random.default_rng(strategy.seed))
    return _run_scored(state, use_density=strategy.kind != NODENSITY, local=local)


def merge_clusters(initial_labels, ext: ExtendedSets) -> np.ndarray:
    """Collapse the s initial-clusters onto their k extended-sets.

    Initial label p means "assigned to ``ext.all[p]``"; the final label
    is the index of the extended-set containing that member.
    """
    initial = np.asarray(initial_labels, dtype=np.int64)
    if initial.size and (initial.min() < 0 or initial.max() >= ext.s):
        raise LabelOutOfRange(f"initial labels must lie in 0..{ext.s - 1}")
    return np.asarray(ext.all_sets, dtype=np.int64)[initial]
