"""Center-based clustering algorithms split into their two phases.

Every algorithm here is expressed as a *center process* (pick k dataset
objects as centers, plus a dict of run metadata) and a *category
assignment process* (label every object by one entry of an arbitrary
center-id list). The optimizer only ever talks to these two callables,
so anything decomposable this way can be plugged in.

Ties break toward the earlier entry: the lower object index, the
earlier position in a center list and, in DPC's nearest-higher search,
the earlier density rank (see ``DpcQuantities``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np
from scipy.spatial.distance import cdist

from .data import _QUERY_SLACK, Dataset, SpatialIndex, _row_norms, nearest
from .density import default_delta
from .errors import ConfigError, EmptyCenters, InvalidK, InvalidRadius


@dataclass(frozen=True)
class CenterBasedAlgorithm:
    """The plug-in seam: a named (center process, assignment process) pair.

    ``center_process(dataset, k)`` returns ``(center ids, extras)``, where
    ``extras`` is a dict of metadata recorded with the run.
    """

    name: str
    center_process: Callable[[Dataset, int], tuple[np.ndarray, dict]]
    assignment_process: Callable[[Dataset, Sequence[int]], np.ndarray]


# ---------------------------------------------------------------------------
# K-means

def _lloyd(points: np.ndarray, k: int, seed: int, max_iter: int):
    """Lloyd iteration from k uniformly sampled seed objects.

    Returns (centroids, labels, n_iter). Stops when the assignment
    stabilizes. An emptied cluster keeps its previous centroid.
    """
    rng = np.random.default_rng(seed)
    centroids = points[rng.choice(points.shape[0], size=k, replace=False)].copy()
    labels = np.full(points.shape[0], -1, dtype=np.int64)
    for it in range(1, max_iter + 1):
        new_labels = nearest(points, centroids)[1]
        if np.array_equal(new_labels, labels):
            return centroids, labels, it
        labels = new_labels
        for j in range(k):
            members = points[labels == j]
            if members.shape[0]:
                centroids[j] = members.mean(axis=0)
    return centroids, labels, max_iter


def _snap_to_objects(points: np.ndarray, centroids: np.ndarray):
    """Map each centroid to the nearest not-yet-used dataset object."""
    dists = cdist(centroids, points)
    ids = np.empty(centroids.shape[0], dtype=np.int64)
    snap = np.empty(centroids.shape[0], dtype=np.float64)
    used = np.zeros(points.shape[0], dtype=bool)
    for j in range(centroids.shape[0]):
        row = np.where(used, np.inf, dists[j])
        ids[j] = np.argmin(row)
        snap[j] = row[ids[j]]
        used[ids[j]] = True
    return ids, snap


def kmeans_center_process(
    dataset: Dataset, k: int, seed: int = 0, max_iter: int = 300
) -> tuple[np.ndarray, dict]:
    """Run Lloyd iteration and snap the final centroids to distinct objects.

    Returns the center ids and ``{"max_center_snap_distance": ...}``, the
    largest distance from a final centroid to its snapped object.
    """
    if not 1 <= k <= dataset.n:
        raise InvalidK(f"k must be in 1..{dataset.n}, got {k}")
    centroids, _, _ = _lloyd(dataset.points, k, seed, max_iter)
    ids, snap = _snap_to_objects(dataset.points, centroids)
    return ids, {"max_center_snap_distance": float(snap.max())}


def nearest_center_assignment(dataset: Dataset, centers: Sequence[int]) -> np.ndarray:
    """Label every object by its nearest center's position in the list."""
    centers = np.asarray(centers, dtype=np.int64)
    if centers.size == 0:
        raise EmptyCenters("need at least one center")
    # Centers label themselves (coincident centers would otherwise
    # tie-break onto one position), so only the other rows need distances.
    points = dataset.points
    labels = np.empty(dataset.n, dtype=np.int64)
    rows = _non_centers(dataset.n, centers)
    labels[rows] = nearest(points[rows], points[centers])[1]
    labels[centers] = np.arange(centers.size)
    return labels


def _non_centers(n: int, centers: np.ndarray) -> np.ndarray:
    """Boolean mask of the objects that are not in ``centers``."""
    mask = np.ones(n, dtype=bool)
    mask[centers] = False
    return mask


# ---------------------------------------------------------------------------
# Density peaks

@dataclass(frozen=True)
class DpcQuantities:
    """Per-object density-peak statistics under a cutoff distance.

    ``rho_dpc`` counts neighbors at strict distance < d_c (self excluded).
    Objects rank by density, equal densities by lower index.
    ``delta_dpc[i]`` is the distance to the nearest higher-ranked object
    ``nearest_higher[i]``; among equally near ones the earliest in rank
    wins. The top-ranked object instead takes its distance to the
    farthest object, and its ``nearest_higher`` is -1.

    Distances are ``_row_norms`` of the coordinate difference, as in
    ``np.linalg.norm``. From d = 8 on, NumPy sums the squares in another
    order than ``cdist``, so ``delta_dpc`` may differ from it in the last ulp.
    """

    rho_dpc: np.ndarray
    delta_dpc: np.ndarray
    nearest_higher: np.ndarray
    d_c: float


# Length of the first k-nearest list per object in the nearest-higher
# search, and the factor by which a list that cannot certify its row is
# widened. Each query is cut into row chunks of at most _FIRST_K * N
# list entries, which bounds the search's memory.
_FIRST_K = 16
_WIDEN = 4


def _density_order(rho: np.ndarray) -> np.ndarray:
    """Object ids sorted from highest to lowest density, lower id first on ties."""
    n = rho.shape[0]
    return np.lexsort((np.arange(n), -rho))


def _nearest_higher_from_lists(
    index: SpatialIndex, rank: np.ndarray, rows: np.ndarray, k: int
):
    """Resolve the nearest higher-ranked object of each row from its k-NN list.

    A row is certified when its list holds a higher-ranked object, at
    tree distance t, and either lists every object or ends strictly
    beyond ``t * (1 + _QUERY_SLACK)``: then no unlisted object can be as
    near as that one. Among the listed higher-ranked objects within that
    bound, the smallest (exact distance, rank) wins.

    Returns (certified mask, nearest ids, distances), the last two for
    the certified rows only.
    """
    points = index.dataset.points
    dists, ids = index.k_nearest(points[rows], k)
    higher = rank[ids] < rank[rows][:, None]
    first = np.argmax(higher, axis=1)
    bound = dists[np.arange(rows.size), first] * (1.0 + _QUERY_SLACK)
    certified = higher.any(axis=1) & ((dists[:, -1] > bound) | (k == index.dataset.n))

    ids, bound = ids[certified], bound[certified]
    r, c = np.nonzero(higher[certified] & (dists[certified] <= bound[:, None]))
    exact = np.full(ids.shape, np.inf)
    exact[r, c] = _row_norms(points[ids[r, c]] - points[rows[certified][r]])
    closest = exact.min(axis=1)
    tied_rank = np.where(exact == closest[:, None], rank[ids], rank.size)
    best = ids[np.arange(ids.shape[0]), np.argmin(tied_rank, axis=1)]
    return certified, best, closest


def compute_dpc_quantities(dataset: Dataset, d_c: float) -> DpcQuantities:
    """Density, separation and nearest higher-ranked object of every object.

    ``rho_dpc`` is the shared count ``dataset.index.density(d_c)``, less
    self. The nearest-higher search queries each object's 16 nearest on
    the same tree and keeps the rows whose list provably holds the
    answer; the others are queried again with a list 4 times as long, up
    to N. Queries go in row chunks of at most 16 * N list entries, so
    memory stays O(16 * N).
    """
    if d_c <= 0:
        raise InvalidRadius(f"d_c must be > 0, got {d_c}")
    points = dataset.points
    n = dataset.n
    index = dataset.index
    rho = index.density(d_c) - 1  # drop self

    order = _density_order(rho)
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    delta = np.empty(n, dtype=np.float64)
    higher = np.empty(n, dtype=np.int64)
    top = order[0]
    delta[top] = _row_norms(points - points[top]).max()
    higher[top] = -1

    pending = order[1:]
    k = _FIRST_K
    while pending.size:
        k = min(k, n)
        chunk = _FIRST_K * n // k
        uncertified = []
        for start in range(0, pending.size, chunk):
            rows = pending[start:start + chunk]
            certified, best, closest = _nearest_higher_from_lists(index, rank, rows, k)
            higher[rows[certified]] = best
            delta[rows[certified]] = closest
            uncertified.append(rows[~certified])
        pending = np.concatenate(uncertified)
        k *= _WIDEN
    return DpcQuantities(rho, delta, higher, float(d_c))


def dpc_center_process(dataset: Dataset, k: int, quantities: DpcQuantities) -> np.ndarray:
    """Pick the k objects with the largest density * separation product.

    This automates the usual visual decision-graph step. Ties on the
    product break toward higher density, then lower index.
    """
    if not 1 <= k <= dataset.n:
        raise InvalidK(f"k must be in 1..{dataset.n}, got {k}")
    rho = quantities.rho_dpc
    gamma = rho * quantities.delta_dpc
    ranking = np.lexsort((np.arange(dataset.n), -rho, -gamma))
    return ranking[:k].astype(np.int64)


def dpc_assignment(
    dataset: Dataset, centers: Sequence[int], quantities: DpcQuantities
) -> np.ndarray:
    """Propagate labels down the density gradient from the given centers.

    Objects denser than every center (possible when the optimizer
    supplies extra centers) have no labeled ancestor to inherit from and
    fall back to their nearest center. Every other object takes the label
    of its first labeled ancestor along ``nearest_higher``, found by
    pointer jumping: each pass replaces every pointer by its target's,
    so a chain of length L resolves in about log2(L) passes. Each link
    climbs in density rank, so every chain reaches a center or a
    fallback object. The one-object-at-a-time loop is
    ``tests/oracles.dpc_assignment_loop``.
    """
    centers = np.asarray(centers, dtype=np.int64)
    if centers.size == 0:
        raise EmptyCenters("need at least one center")
    n = dataset.n
    order = _density_order(quantities.rho_dpc)
    position = np.empty(n, dtype=np.int64)
    position[order] = np.arange(n)
    first_center_pos = position[centers].min()

    nearest_higher = quantities.nearest_higher
    labels = np.full(n, -1, dtype=np.int64)
    fallback = _non_centers(n, centers) & (
        (position < first_center_pos) | (nearest_higher < 0)
    )
    points = dataset.points
    labels[fallback] = nearest(points[fallback], points[centers])[1]
    labels[centers] = np.arange(centers.size)
    ancestor = np.where(labels < 0, nearest_higher, np.arange(n))
    while True:
        jumped = ancestor[ancestor]
        if np.array_equal(jumped, ancestor):
            return labels[ancestor]
        ancestor = jumped


# ---------------------------------------------------------------------------
# Registry

def _dpc_phases(d_c: float | None):
    # Quantities depend only on (dataset, d_c); compute once and share
    # between the two phases. Only the most recent dataset is held, so a
    # long-lived algorithm does not keep every dataset it has seen alive.
    last = None

    def quantities_for(ds: Dataset) -> DpcQuantities:
        nonlocal last
        if last is None or last[0] is not ds:
            last = ds, compute_dpc_quantities(
                ds, d_c if d_c is not None else default_delta(ds)
            )
        return last[1]

    def center_process(ds: Dataset, k: int):
        return dpc_center_process(ds, k, quantities_for(ds)), {}

    def assignment_process(ds: Dataset, centers: Sequence[int]) -> np.ndarray:
        return dpc_assignment(ds, centers, quantities_for(ds))

    return center_process, assignment_process


ALGORITHM_NAMES = ("kmeans", "dpc")


def build_algorithm(
    name: str, seed: int = 0, max_iter: int = 300, d_c: float | None = None
) -> CenterBasedAlgorithm:
    """Construct a named algorithm with its two phases bound to the options.

    ``kmeans`` uses ``seed`` and ``max_iter``; ``dpc`` uses ``d_c``
    (defaulting per dataset to ``default_delta``). DPC's quantities are
    computed once per dataset and reused by the assignment phase.
    """
    if name == "kmeans":
        center_process = partial(kmeans_center_process, seed=seed, max_iter=max_iter)
        return CenterBasedAlgorithm(name, center_process, nearest_center_assignment)
    if name == "dpc":
        return CenterBasedAlgorithm(name, *_dpc_phases(d_c))
    raise ConfigError(
        f"unknown algorithm {name!r}; choose from {', '.join(ALGORITHM_NAMES)}"
    )
