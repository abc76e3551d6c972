"""Datasets, CSV ingestion, synthetic generators, and radius queries.

Objects are identified by their row index in an immutable N x d point
matrix. All distances in this package are Euclidean, and neighborhoods
are open balls: ``range_query(p, r)`` returns exactly the ids at strict
distance ``< r``.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from .errors import (
    DimensionMismatch,
    EmptyDataset,
    InvalidK,
    InvalidRadius,
    InvalidSpec,
    ParseError,
)

# Inflation applied to KD-tree query radii before the exact strict-< filter,
# so last-ulp disagreements with the tree's internal metric cannot drop a
# boundary point.
_QUERY_SLACK = 1e-9

# Most distances ``nearest`` holds at once, so its memory stays bounded
# however many queries and targets there are.
_NEAREST_CHUNK = 1 << 20


@dataclass(frozen=True)
class Dataset:
    """Immutable N x d point matrix. Object identity is the row index."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2:
            raise InvalidSpec(f"points must be 2-D, got shape {pts.shape}")
        if pts.shape[0] < 1 or pts.shape[1] < 1:
            raise EmptyDataset(f"need N >= 1 and d >= 1, got shape {pts.shape}")
        if not np.isfinite(pts).all():
            raise InvalidSpec("points contain non-finite values")
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]

    @cached_property
    def index(self) -> SpatialIndex:
        """The KD-tree over every object, built on first use and kept."""
        return SpatialIndex(self)


@dataclass(frozen=True)
class GroundTruth:
    """Dense integer labels in 0..k_true-1, one per object."""

    labels: np.ndarray
    k_true: int = field(default=0)

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=np.int64)
        labels.flags.writeable = False
        object.__setattr__(self, "labels", labels)
        k = int(labels.max()) + 1 if labels.size else 0
        if self.k_true == 0:
            object.__setattr__(self, "k_true", k)
        if labels.size and (
            labels.min() < 0
            or labels.max() != self.k_true - 1
            or len(np.unique(labels)) != self.k_true
        ):
            raise InvalidSpec("labels must densely cover 0..k_true-1")


class SpatialIndex:
    """KD-tree over a dataset, or over a subset of its ids, answering
    open-ball radius queries and k-nearest queries.

    Every query returns dataset ids; with ``ids`` given, only those ids
    are indexed and found. Radius-query results depend only on point
    coordinates, never on build order, and a query centered on an indexed
    point ``i`` always contains ``i``.
    """

    def __init__(self, dataset: Dataset, ids=None):
        self.dataset = dataset
        self._ids = None if ids is None else np.asarray(ids, dtype=np.int64)
        self._tree = cKDTree(dataset.points if ids is None else dataset.points[self._ids])
        self._densities: dict[float, np.ndarray] = {}

    @property
    def size(self) -> int:
        """Number of indexed objects."""
        return self._tree.n

    def _dataset_ids(self, positions) -> np.ndarray:
        """Dataset ids of tree positions."""
        positions = np.asarray(positions, dtype=np.int64)
        return positions if self._ids is None else self._ids[positions]

    def _checked(self, centers, ndim: int, radius: float | None = None) -> np.ndarray:
        """Query point(s) as floats, after checking their shape and any radius."""
        centers = np.asarray(centers, dtype=np.float64)
        if centers.ndim != ndim or centers.shape[-1] != self.dataset.d:
            raise DimensionMismatch(
                f"query point has shape {centers.shape}, dataset is {self.dataset.d}-D"
            )
        if radius is not None and radius <= 0:
            raise InvalidRadius(f"radius must be > 0, got {radius}")
        return centers

    def range_query(self, center, radius: float) -> np.ndarray:
        """Return the sorted ids at strict distance < radius from center."""
        return np.sort(self.range_query_with_distances(center, radius)[0])

    def range_query_with_distances(self, center, radius: float):
        """The ids at strict distance < radius from center, in no
        particular order, and their distances."""
        center = self._checked(center, ndim=1, radius=radius)
        return self.range_query_batch(center[None, :], radius)[:2]

    def range_query_many(self, centers: np.ndarray, radius: float) -> list[np.ndarray]:
        """Vectorized ``range_query`` for several centers at once."""
        ids, _, bounds = self.range_query_batch(centers, radius)
        return [np.sort(ids[lo:hi]) for lo, hi in zip(bounds[:-1], bounds[1:])]

    def range_query_batch(self, centers, radius: float):
        """Radius queries for several centers in one tree call.

        Returns ``(ids, dists, bounds)``: the ids at strict distance
        < radius from center c, in no particular order, are
        ``ids[bounds[c]:bounds[c + 1]]``, and ``dists`` holds their
        ``_row_norms`` distances.

        Several centers go to one pair search between a tree of the
        centers and this one, which lists the candidate pairs as arrays.
        They are grouped by center with a stable sort of the center
        index, cast to the smallest unsigned type that holds it, which
        NumPy radix-sorts. A single center goes to a ball query instead:
        building a tree for it costs more than the pair search saves.
        """
        centers = self._checked(centers, ndim=2, radius=radius)
        m = centers.shape[0]
        reach = radius * (1.0 + _QUERY_SLACK)
        if m == 1:
            found = self._tree.query_ball_point(centers[0], reach)
            # fromiter with a known length skips asarray's type inference.
            ids = self._dataset_ids(np.fromiter(found, np.int64, len(found)))
            row = np.zeros(ids.size, dtype=np.int64)
            near = centers[0]
        else:
            pairs = cKDTree(centers).sparse_distance_matrix(
                self._tree, reach, output_type="ndarray"
            )
            order = np.argsort(pairs["i"].astype(np.min_scalar_type(m - 1)), kind="stable")
            row = pairs["i"][order]
            ids = self._dataset_ids(pairs["j"][order])
            # take, not fancy indexing: several times faster on rows.
            near = centers.take(row, axis=0)
        dists = _row_norms(self.dataset.points.take(ids, axis=0) - near)
        keep = dists < radius
        if not keep.all():  # a pair in the slack band
            ids, dists, row = ids[keep], dists[keep], row[keep]
        return ids, dists, np.searchsorted(row, np.arange(m + 1))

    def density(self, radius: float) -> np.ndarray:
        """Per dataset object, the number of indexed ids at strict distance
        < radius: a read-only array, counted once per radius and kept.

        The tree counts at ``radius * (1 -+ _QUERY_SLACK)``. Where the two
        counts agree no point lies near the boundary, so the count is
        exact; the other rows are re-counted through the exact filter.
        """
        radius = float(radius)
        if radius not in self._densities:
            points = self._checked(self.dataset.points, ndim=2, radius=radius)
            inner, outer = radius * (1.0 - _QUERY_SLACK), radius * (1.0 + _QUERY_SLACK)
            counts, upper = (
                self._tree.query_ball_point(points, r, return_length=True, workers=-1)
                for r in (inner, outer)
            )
            amb = np.flatnonzero(counts != upper)
            counts[amb] = np.diff(self.range_query_batch(points[amb], radius)[2])
            counts.flags.writeable = False
            self._densities[radius] = counts
        return self._densities[radius]

    def k_nearest(self, centers: np.ndarray, k: int):
        """Per center, the min(k, size) nearest indexed ids and their tree
        distances.

        Both (centers x min(k, size)) arrays are sorted by distance. The
        distances are the tree's own, which may differ from the exact
        ones in the last ulp, and the order among equal distances is the
        tree's: callers that need the package's tie rule re-check.
        """
        centers = self._checked(centers, ndim=2)
        if k < 1:
            raise InvalidK(f"k must be >= 1 neighbor, got {k}")
        k = min(k, self.size)
        dists, ids = self._tree.query(centers, k=k, workers=-1)
        shape = (centers.shape[0], k)
        return dists.reshape(shape), self._dataset_ids(ids).reshape(shape)


def _row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a 2-D array.

    The sum of squares that ``np.linalg.norm(x, axis=1)`` reduces, so the
    results are bit-identical, without its dispatch overhead. With two
    columns the sum is a single addition, which every summation order
    computes alike, so it is added directly rather than reduced over a
    short axis, which is several times slower.
    """
    sq = x * x
    if sq.shape[1] == 2:
        return np.sqrt(sq[:, 0] + sq[:, 1])
    return np.sqrt(sq.sum(axis=1))


def nearest(queries: np.ndarray, targets: np.ndarray):
    """Per query row, the distance to its nearest target row and that
    target's position; an exact tie goes to the first position.

    Both are 2-D float arrays, ``targets`` with at least one row.
    Distances are ``cdist``'s, computed in row chunks of at most
    ``_NEAREST_CHUNK`` entries.
    """
    distance = np.empty(queries.shape[0])
    position = np.empty(queries.shape[0], dtype=np.int64)
    rows = max(1, _NEAREST_CHUNK // targets.shape[0])
    for start in range(0, queries.shape[0], rows):
        block = cdist(queries[start:start + rows], targets)
        position[start:start + rows] = block.argmin(axis=1)
        distance[start:start + rows] = block.min(axis=1)
    return distance, position


def _parse_cell(text: str) -> float:
    value = float(text)
    if not np.isfinite(value):
        raise ValueError(f"non-finite value {text!r}")
    return value


def _is_numeric(text: str) -> bool:
    try:
        _parse_cell(text)
    except ValueError:
        return False
    return True


def load_csv(path, label_column=None) -> tuple[Dataset, GroundTruth | None]:
    """Load a dataset from a comma-separated file.

    Parameters
    ----------
    path : str or Path
        File to read (UTF-8). An optional header row is auto-detected:
        a first row where any feature cell fails numeric parsing.
    label_column : int, str, or None
        Column holding ground-truth labels, by position (negative indices
        allowed) or by header name. ``None`` treats every column as a
        feature. Distinct label values are re-encoded densely in first
        appearance order.

    Returns
    -------
    (Dataset, GroundTruth or None)
    """
    with open(path, encoding="utf-8", newline="") as fh:
        rows = [row for row in csv.reader(fh) if row and any(c.strip() for c in row)]
    if not rows:
        raise EmptyDataset(f"{path}: no rows")

    width = len(rows[0])
    for ln, row in enumerate(rows):
        if len(row) != width:
            raise ParseError(f"{path}: row {ln} has {len(row)} cells, expected {width}")

    label_idx = None
    if isinstance(label_column, str):
        header = [c.strip() for c in rows[0]]
        try:
            label_idx = header.index(label_column)
        except ValueError:
            raise ParseError(f"{path}: no column named {label_column!r}") from None
        rows = rows[1:]
    else:
        if label_column is not None:
            label_idx = label_column if label_column >= 0 else width + label_column
            if not 0 <= label_idx < width:
                raise ParseError(f"{path}: label column {label_column} out of range")
        probe_cols = [j for j in range(width) if j != label_idx]
        if any(not _is_numeric(rows[0][j]) for j in probe_cols):
            rows = rows[1:]
    if not rows:
        raise EmptyDataset(f"{path}: header only, no data rows")

    feature_cols = [j for j in range(width) if j != label_idx]
    if not feature_cols:
        raise ParseError(f"{path}: no feature columns left")

    # ``float`` ignores surrounding whitespace itself, so the one pass
    # gives the cells' values bit for bit; on any bad cell the per-cell
    # loop finds the first and names it.
    try:
        points = np.array([float(row[j]) for row in rows for j in feature_cols])
        parsed = bool(np.isfinite(points).all())
    except ValueError:
        parsed = False
    if parsed:
        points = points.reshape(len(rows), len(feature_cols))
    else:
        points = np.empty((len(rows), len(feature_cols)), dtype=np.float64)
        for i, row in enumerate(rows):
            for out_j, j in enumerate(feature_cols):
                try:
                    points[i, out_j] = _parse_cell(row[j].strip())
                except ValueError as exc:
                    raise ParseError(f"{path}: row {i}, column {j}: {exc}") from None

    truth = None
    if label_idx is not None:
        seen: dict[str, int] = {}
        labels = [seen.setdefault(row[label_idx].strip(), len(seen)) for row in rows]
        truth = GroundTruth(np.array(labels, dtype=np.int64), len(seen))

    return Dataset(points), truth


def generate_gaussian_mixture(
    k: int,
    per_cluster_n,
    means,
    stddev,
    seed: int,
) -> tuple[Dataset, GroundTruth]:
    """Sample an isotropic Gaussian mixture with known component labels.

    ``per_cluster_n`` and ``stddev`` may be scalars (shared by every
    component) or length-k sequences. Deterministic for a fixed seed.
    """
    if k < 1:
        raise InvalidSpec(f"k must be >= 1, got {k}")
    means = np.asarray(means, dtype=np.float64)
    if means.ndim != 2 or means.shape[0] != k:
        raise InvalidSpec(f"means must be k x d, got shape {means.shape}")
    counts = np.broadcast_to(np.asarray(per_cluster_n, dtype=np.int64), (k,))
    sigmas = np.broadcast_to(np.asarray(stddev, dtype=np.float64), (k,))
    if (counts < 1).any():
        raise InvalidSpec("every per-cluster count must be >= 1")
    if (sigmas <= 0).any():
        raise InvalidSpec("every stddev must be > 0")

    rng = np.random.default_rng(seed)
    blocks = []
    labels = []
    for c in range(k):
        blocks.append(rng.normal(means[c], sigmas[c], size=(counts[c], means.shape[1])))
        labels.append(np.full(counts[c], c, dtype=np.int64))
    return Dataset(np.vstack(blocks)), GroundTruth(np.concatenate(labels), k)
