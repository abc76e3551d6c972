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
from numpy.random import default_rng

from .data import Dataset, SpatialIndex, _distance_matrix, _row_norms, nearest
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
    rng = default_rng(seed)
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
    """Map each centroid to the nearest not-yet-used dataset object,
    holding one centroid's distances at a time."""
    ids = np.empty(centroids.shape[0], dtype=np.int64)
    snap = np.empty(centroids.shape[0], dtype=np.float64)
    used = np.zeros(points.shape[0], dtype=bool)
    for j in range(centroids.shape[0]):
        row = _distance_matrix(centroids[j:j + 1], points)[0]
        row[used] = np.inf
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
    farthest object, and its ``nearest_higher`` is -1. ``rank[i]`` is
    object i's position in that density order. The arrays are read-only.

    Distances are ``_row_norms`` of the coordinate difference, as in
    ``np.linalg.norm``, the distances that ``SpatialIndex`` queries return.
    """

    rho_dpc: np.ndarray
    delta_dpc: np.ndarray
    nearest_higher: np.ndarray
    rank: np.ndarray
    d_c: float


def compute_dpc_quantities(dataset: Dataset, d_c: float | None = None) -> DpcQuantities:
    """Density, separation and nearest higher-ranked object of every object.

    Computed once per dataset and requested cutoff, and kept in
    ``dataset.derived``; ``d_c=None`` asks for ``default_delta(dataset)``.
    ``rho_dpc`` is the shared count ``dataset.index.density(d_c)``, less
    self, and the nearest higher-ranked objects come from
    ``dataset.index.nearest_higher`` on the same grid.
    """
    key = ("dpc", d_c)
    if key in dataset.derived:
        return dataset.derived[key]
    if d_c is None:
        d_c = default_delta(dataset)
    if d_c <= 0:
        raise InvalidRadius(f"d_c must be > 0, got {d_c}")
    points = dataset.points
    n = dataset.n
    index = dataset.index
    rho = index.density(d_c) - 1  # drop self

    order = np.lexsort((np.arange(n), -rho))  # densest first, lower id on ties
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    delta, higher = index.nearest_higher(rank, d_c)
    top = order[0]
    delta[top] = _row_norms(points - points[top]).max()
    for array in (rho, delta, higher, rank):
        array.flags.writeable = False
    dataset.derived[key] = DpcQuantities(rho, delta, higher, rank, float(d_c))
    return dataset.derived[key]


def dpc_center_process(
    dataset: Dataset, k: int, d_c: float | None = None
) -> tuple[np.ndarray, dict]:
    """Pick the k objects with the largest density * separation product.

    This automates the usual visual decision-graph step. Ties on the
    product break toward the earlier density rank: higher density, then
    lower index. Returns the center ids and an empty extras dict.
    """
    if not 1 <= k <= dataset.n:
        raise InvalidK(f"k must be in 1..{dataset.n}, got {k}")
    quantities = compute_dpc_quantities(dataset, d_c)
    gamma = quantities.rho_dpc * quantities.delta_dpc
    return np.lexsort((quantities.rank, -gamma))[:k].astype(np.int64), {}


def dpc_assignment(
    dataset: Dataset, centers: Sequence[int], d_c: float | None = None
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
    quantities = compute_dpc_quantities(dataset, d_c)
    n = dataset.n
    rank = quantities.rank
    nearest_higher = quantities.nearest_higher
    labels = np.full(n, -1, dtype=np.int64)
    fallback = _non_centers(n, centers) & (
        (rank < rank[centers].min()) | (nearest_higher < 0)
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

ALGORITHM_NAMES = ("kmeans", "dpc")


def build_algorithm(
    name: str, seed: int = 0, max_iter: int = 300, d_c: float | None = None
) -> CenterBasedAlgorithm:
    """Construct a named algorithm with its two phases bound to the options.

    ``kmeans`` uses ``seed`` and ``max_iter``; ``dpc`` uses ``d_c``
    (defaulting per dataset to ``default_delta``). DPC's two phases share
    the quantities that ``compute_dpc_quantities`` keeps with the dataset.
    """
    if name == "kmeans":
        center_process = partial(kmeans_center_process, seed=seed, max_iter=max_iter)
        return CenterBasedAlgorithm(name, center_process, nearest_center_assignment)
    if name == "dpc":
        return CenterBasedAlgorithm(
            name, partial(dpc_center_process, d_c=d_c), partial(dpc_assignment, d_c=d_c)
        )
    raise ConfigError(
        f"unknown algorithm {name!r}; choose from {', '.join(ALGORITHM_NAMES)}"
    )
