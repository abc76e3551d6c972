"""Datasets, CSV ingestion, synthetic generators, and radius queries.

Objects are identified by their row index in an immutable N x d point
matrix, also kept as its d x N transpose (``Dataset.columns``). Every
distance is Euclidean, its squared coordinate differences added in
coordinate order: ``_distances`` on columns gathered from that layout,
``_distance_matrix`` for all-pairs blocks, so any two passes give a pair
the same distance, as SciPy's ``cdist`` does.
Neighborhoods are open balls: ``range_query_many(P, r)`` returns, per
row p of P, exactly the ids at strict distance ``< r``. Neighbour counts,
radius queries and nearest higher-ranked searches go to a cell grid
(``SpatialIndex``), and all-pairs distances to chunked NumPy blocks
(``nearest``, ``smallest_pairwise_distances``). Every chunked pass holds
about ``_CHUNK`` entries per array, so its scratch memory does not grow
with the input. For many radius queries centered on the dataset's own
points, the grid also builds a candidate run per cell
(``SpatialIndex.candidate_runs``): the ids of every cell that the cell's
points' query boxes meet, as int32 ids, so such a query is one slice of
its point's run, judged by exact distance. An index keeps no results of
its own: every index over a dataset shares the dataset's counts, its one
kept grid and its one kept set of candidate runs, in ``Dataset.derived``.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyDataset,
    InvalidRadius,
    InvalidSpec,
    ParseError,
)

# About the most entries that one array of a chunked pass holds: the
# distances of a ``nearest`` chunk or of a pairwise block, the candidates
# of an index pass, the slices of a block of query boxes. An array of
# 256 KB of floats stays in cache, and such passes go no slower than
# larger ones.
_CHUNK = 1 << 15

# A query box reaches this share beyond its radius, which covers the
# rounding between a coordinate difference and a computed distance in
# any practical dimension, and at least _TINY, below which squared
# differences underflow.
_ROUNDING = 1e-9
_TINY = 1e-150

# Cells per radius along a grid axis, for radius queries and counts.
_CELLS_PER_RADIUS = 3

# The two ends of a query box: below and above its center.
_SIDES = np.array([-1.0, 1.0])[:, None, None]

# A query box at the reach of its grid's radius meets at most 9 labels on
# the first grid axis (see ``_Grid.runs``), so a block of this many boxes
# has at most ``_CHUNK`` slices.
_BOXES = _CHUNK // 9


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
    def columns(self) -> np.ndarray:
        """The points' transpose, a read-only C-contiguous d x N array that
        every distance pass gathers from. Built on first use and kept."""
        columns = np.ascontiguousarray(self.points.T)
        columns.flags.writeable = False
        return columns

    @cached_property
    def index(self) -> SpatialIndex:
        """The spatial index over every object, built on first use and kept."""
        return SpatialIndex(self)

    @cached_property
    def derived(self) -> dict:
        """Results computed from the points and kept with them: DPC's
        quantities per cutoff, the pairwise-distance percentiles per
        fraction, the neighbour counts per radius, and the most recently
        built grid and candidate runs (``SpatialIndex``). Built on first
        use, gone with the dataset."""
        return {}


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
            or not np.bincount(labels).all()
        ):
            raise InvalidSpec("labels must densely cover 0..k_true-1")


class SpatialIndex:
    """A uniform cell grid over a dataset, counting each object's
    neighbours within a radius, answering open-ball radius queries and
    searches for the nearest object of higher rank, and building per-cell
    candidate runs for radius queries centered on its points.

    Every query returns dataset ids. Radius-query results depend only on
    point coordinates, never on build order, and a query centered on a
    point ``i`` of the dataset always contains ``i``.

    The points are sorted by cell (``_Grid``) over at most two coordinate
    axes, those of largest extent. A query's candidates are the points of
    the cells that its box meets, each judged by its ``_distances``
    distance, as ``nearest`` would judge it, so answers are exact in any
    dimension. A grid is built per radius r, of side r / ``_CELLS_PER_RADIUS``,
    when the dataset's kept grid has another side, and kept in its place.
    """

    def __init__(self, dataset: Dataset):
        self.dataset = dataset
        extent = np.ptp(dataset.points, axis=0)
        # The (at most two) axes of largest extent, in axis order.
        self._axes = np.sort(np.argsort(-extent, kind="stable")[:2])

    @property
    def size(self) -> int:
        """Number of indexed objects."""
        return self.dataset.n

    def _radius_grid(self, radius: float) -> _Grid:
        """The grid for queries at ``radius`` (> 0), of side radius /
        ``_CELLS_PER_RADIUS``, built unless it is the dataset's kept grid,
        ``dataset.derived["grid"]``, which then becomes this one. Its side
        is kept between ``_TINY`` and the largest float, so that no label
        is NaN: an infinite radius makes one cell."""
        if not radius > 0:
            raise InvalidRadius(f"radius must be > 0, got {radius}")
        side = min(max(radius / _CELLS_PER_RADIUS, _TINY), np.finfo(np.float64).max)
        kept = self.dataset.derived
        if "grid" not in kept or kept["grid"].side != side:
            kept["grid"] = _Grid(self.dataset.columns, self._axes, side)
        return kept["grid"]

    def range_query_many(self, centers, radius: float) -> list[np.ndarray]:
        """Per row of ``centers`` (a queries x d array), the sorted ids at
        strict distance < radius from it. The queries go in blocks of
        ``_BOXES``, so no slice table covers them all."""
        centers = np.asarray(centers, dtype=np.float64)
        if centers.ndim != 2 or centers.shape[1] != self.dataset.d:
            raise DimensionMismatch(
                f"query point has shape {centers.shape}, dataset is {self.dataset.d}-D"
            )
        grid = self._radius_grid(radius)
        reach = _reach(radius)
        answers = []
        for lo in range(0, centers.shape[0], _BOXES):
            block = np.ascontiguousarray(centers[lo:lo + _BOXES].T)
            ids, owners = [], []
            for pos, owner in grid.candidates(*grid.slices(block, reach), (block, reach)):
                d = _distances(grid.columns.take(pos, axis=1), block.take(owner, axis=1))
                keep = np.flatnonzero(d < radius)
                ids.append(grid.ids.take(pos.take(keep)))
                owners.append(owner.take(keep))
            ids = np.concatenate(ids)
            bounds = np.searchsorted(np.concatenate(owners), np.arange(block.shape[1] + 1))
            answers += [np.sort(ids[a:b]) for a, b in zip(bounds[:-1], bounds[1:])]
        return answers

    def density(self, radius: float) -> np.ndarray:
        """Per object, the number of ids at strict distance < radius: a
        read-only array, counted once per dataset and radius and kept in
        ``dataset.derived``."""
        radius = float(radius)
        kept = self.dataset.derived
        if ("density", radius) not in kept:
            counts = self._count(radius)
            counts.flags.writeable = False
            kept["density", radius] = counts
        return kept["density", radius]

    def _count(self, radius: float) -> np.ndarray:
        """One exact counting pass: per object, the ids at strict distance
        < radius. Each object's candidates are cut to those after it in
        the grid's order, so each pair is judged once and counts for both
        of its objects. Objects go in blocks of ``_BOXES``, so no slice
        table covers them all."""
        grid = self._radius_grid(radius)
        reach = _reach(radius)
        counts = np.ones(self.size, dtype=np.int64)  # each object itself
        for lo in range(0, self.size, _BOXES):
            owner, start, stop = grid.slices(grid.columns[:, lo:lo + _BOXES], reach)
            owner += lo
            start = np.maximum(start, owner + 1)
            for pos, owner in grid.candidates(owner, start, np.maximum(stop, start), (grid.columns, reach)):
                d = _distances(grid.columns.take(pos, axis=1), grid.columns.take(owner, axis=1))
                inside = np.flatnonzero(d < radius)
                if inside.size:
                    # owner ascends and every pos lies after its owner.
                    ends = np.concatenate((owner.take(inside), pos.take(inside)))
                    first = owner[inside[0]]
                    counts[first:ends.max() + 1] += np.bincount(ends - first)
        result = np.empty_like(counts)
        result[grid.ids] = counts
        return result

    def candidate_runs(self, radius: float):
        """``(cell, bounds, ids)``, the candidate runs of the grid for
        ``radius``: object i lies in cell ``cell[i]``, and the run of cell
        c, ``ids[bounds[c]:bounds[c + 1]]`` (int32), holds every id at
        strict distance < radius from any point of that cell, besides
        others, at most 81 ids per object (see ``_Grid.runs``).

        The runs of one radius are kept, read-only, in
        ``dataset.derived``, as one grid is: asking for another radius
        frees them before its own are built."""
        radius = float(radius)
        kept = self.dataset.derived
        if "runs" not in kept or kept["runs"][0] != radius:
            kept.pop("runs", None)
            runs = self._radius_grid(radius).runs(_reach(radius))
            for array in runs:
                array.flags.writeable = False
            kept["runs"] = radius, runs
        return kept["runs"][1]

    def nearest_higher(self, rank: np.ndarray, radius: float):
        """Per dataset object, the nearest object of lower ``rank`` (an
        integer array that orders the ids 0..N-1) and its ``_distances``
        distance; among equally near ones the lowest rank wins. The object
        of rank 0 gets -1 and inf.

        The search runs on the grid for ``radius``. An object's candidates
        are the points of the cells that its box [c - reach, c + reach]
        meets, with reach starting at one cell. Every other point lies
        beyond reach on a grid axis, so the nearest lower-ranked candidate
        is the answer once it is nearer than reach, or once reach is
        infinite; until then, reach doubles. The pending objects go in
        blocks of ``_BOXES``, so no slice table covers them all.
        """
        n = self.size
        rank = np.asarray(rank)
        if rank.shape != (n,) or not np.array_equal(np.sort(rank), np.arange(n)):
            raise InvalidSpec("rank must order the ids 0..N-1")
        grid = self._radius_grid(radius)
        by_rank = np.empty(n, dtype=np.int64)
        by_rank[rank] = np.arange(n)
        grid_rank = rank.take(grid.ids)
        dist = np.full(n, np.inf)
        found = np.full(n, -1, dtype=np.int64)
        pending = grid.ids[grid_rank > 0]  # in cell order
        reach = grid.side
        while pending.size:
            reach = max(reach, _TINY)
            everything = reach == np.inf  # every point a candidate, even at overflow
            done = np.zeros(pending.size, dtype=bool)
            for lo in range(0, pending.size, _BOXES):
                block = pending[lo:lo + _BOXES]
                rows = self.dataset.columns.take(block, axis=1)
                row_rank = rank.take(block)
                best = np.full(block.size, np.inf)
                best_rank = np.full(block.size, n)
                near = None if everything else (rows, reach)
                for pos, owner in grid.candidates(*grid.slices(rows, reach), near):
                    higher = grid_rank.take(pos)
                    keep = np.flatnonzero(higher < row_rank.take(owner))
                    if not keep.size:
                        continue
                    pos, owner, higher = pos.take(keep), owner.take(keep), higher.take(keep)
                    d = _distances(grid.columns.take(pos, axis=1), rows.take(owner, axis=1))
                    # Per owner: its least distance, then the least rank at it.
                    heads = np.flatnonzero(np.diff(owner, prepend=-1))
                    least = np.minimum.reduceat(d, heads)
                    tied = np.where(d == np.repeat(least, np.diff(heads, append=d.size)), higher, n)
                    best[owner.take(heads)] = least
                    best_rank[owner.take(heads)] = np.minimum.reduceat(tied, heads)
                resolved = (best_rank < n) & (everything | (best < reach * (1.0 - _ROUNDING)))
                dist[block[resolved]] = best[resolved]
                found[block[resolved]] = by_rank.take(best_rank[resolved])
                done[lo:lo + block.size] = resolved
            pending = pending[~done]
            reach *= 2.0
        return dist, found


class _Grid:
    """The points of an index as d x N columns sorted by cell (``columns``),
    for cells of one side over the index's grid axes (at most two).

    A coordinate's label on an axis is ``floor((x - origin) / side)``,
    kept as a float so that no extent-to-side ratio can overflow, and a
    cell's key comes from the ranks of its labels among the points'
    distinct labels, so keys stay below size**2. A label never falls as
    its coordinate grows, so the cells that a box meets hold every point
    inside it, and those of one row are one slice of the sorted points,
    found by binary search over the sorted keys.
    """

    def __init__(self, columns: np.ndarray, axes: np.ndarray, side: float):
        self.axes = axes
        self.side = side
        coords = columns[axes]
        self.origin = coords.min(axis=1, keepdims=True)
        labels = self._label(coords)
        self.labels = [_distinct(row) for row in labels]
        ranks = [np.searchsorted(u, row) for u, row in zip(self.labels, labels)]
        self.width = self.labels[-1].size
        key = ranks[0] if axes.size == 1 else ranks[0] * self.width + ranks[1]
        self.ids = np.argsort(key, kind="stable")
        self.keys = key[self.ids]
        self.columns = columns.take(self.ids, axis=1)

    def _label(self, coords: np.ndarray) -> np.ndarray:
        return np.floor((coords - self.origin) / self.side)

    def slices(self, centers: np.ndarray, reach: float):
        """``(owner, start, stop)``: the slices of sorted positions that
        hold the cells each center's box [c - reach, c + reach] meets,
        ``owner`` ascending; ``centers`` is a d x m array of columns."""
        q = centers if self.axes.size == centers.shape[0] else centers[self.axes]
        return self.box_slices(q - reach, q + reach)

    def box_slices(self, low: np.ndarray, high: np.ndarray):
        """``(owner, start, stop)``: the slices of sorted positions that
        hold the cells each box [low[:, i], high[:, i]] (one row per grid
        axis) meets, ``owner`` ascending."""
        # nextafter: the box's float ends lie outside its true ends.
        low, high = self._label(np.nextafter(np.stack((low, high)), _SIDES * np.inf))
        first = [u.searchsorted(row, "left") for u, row in zip(self.labels, low)]
        last = [u.searchsorted(row, "right") for u, row in zip(self.labels, high)]
        if self.axes.size == 1:
            owner = np.arange(low.shape[1])
            return owner, self.keys.searchsorted(first[0]), self.keys.searchsorted(last[0])
        rows = last[0] - first[0]
        owner = np.repeat(np.arange(low.shape[1]), rows)
        base = _ragged_arange(first[0], rows) * self.width
        start, stop = (self.keys.searchsorted(base + ends[owner]) for ends in (first[1], last[1]))
        return owner, start, stop

    def runs(self, reach: float):
        """``(cell, bounds, ids)``: point i lies in cell ``cell[i]`` (cells
        numbered in key order), and the run of cell c,
        ``ids[bounds[c]:bounds[c + 1]]`` (``np.int32``, half the bytes of
        the index's own ids), holds the ids of every cell that
        the box "the bounding box of cell c's points ± reach" meets. Built
        anew on each call; ``SpatialIndex.candidate_runs`` keeps them.

        That box holds the query box [p - reach, p + reach] of each point
        p of the cell, and its ends are rounded and labelled as in
        ``slices``, so the run holds every candidate of a radius query
        centered on p. The runs are built in bounded passes (lengths, then
        ids), so they are the only lasting memory.

        With reach = r(1 + ``_ROUNDING``) and side r / 3, a cell's points
        span less than one side, so its box spans less than 7.01 sides and
        meets at most 9 labels per grid axis (labels L - 4 to L + 4 for a
        cell of label L). A cell's points are thus in the runs of at most
        9 cells in 1-D and 81 in 2-D, which bounds the ids per point.
        """
        first = np.diff(self.keys, prepend=-1) != 0
        heads = np.flatnonzero(first)
        coords = self.columns[self.axes]
        low = np.minimum.reduceat(coords, heads, axis=1) - reach
        high = np.maximum.reduceat(coords, heads, axis=1) + reach
        blocks = [slice(lo, lo + _BOXES) for lo in range(0, heads.size, _BOXES)]
        bounds = np.zeros(heads.size + 1, dtype=np.int64)
        for block in blocks:
            owner, start, stop = self.box_slices(low[:, block], high[:, block])
            bounds[block.start + 1:block.stop + 1] = np.bincount(owner, stop - start)
        np.cumsum(bounds, out=bounds)
        ids = np.empty(bounds[-1], dtype=np.int32)
        for block in blocks:
            at = bounds[block.start]
            for pos, _ in self.candidates(*self.box_slices(low[:, block], high[:, block])):
                ids[at:at + pos.size] = self.ids.take(pos)
                at += pos.size
        cell = np.empty(self.ids.size, dtype=np.int64)
        cell[self.ids] = np.cumsum(first) - 1
        return cell, bounds, ids

    def candidates(self, owner, start, stop, near=None):
        """Yield ``(positions, owner)`` over the given slices, ``owner``
        ascending, in passes of at most ``_CHUNK`` candidates that hold
        each owner's candidates whole (an owner with more is a pass alone).

        ``near``, if given, is ``(centers, reach)``, centers as columns.
        Where the grid leaves some axes out, a candidate whose distance
        over the grid axes alone is at least reach is then dropped: its
        full distance cannot be below the radius that reach covers, so
        only the rest of its coordinates are read.
        """
        lengths = stop - start
        for a, b in _passes(lengths, owner):
            pos = _ragged_arange(start[a:b], lengths[a:b])
            owner_of = np.repeat(owner[a:b], lengths[a:b])
            if near is not None and self.axes.size < self.columns.shape[0]:
                queries, reach = near
                partial = sum(
                    (self.columns[axis].take(pos) - queries[axis].take(owner_of)) ** 2
                    for axis in self.axes
                )
                keep = np.flatnonzero(np.sqrt(partial) < reach)
                pos, owner_of = pos.take(keep), owner_of.take(keep)
            yield pos, owner_of


def _reach(radius: float) -> float:
    """Half-width of the box that holds every point a computed distance
    puts within ``radius``: the rounding between a coordinate difference
    and a distance is far below ``_ROUNDING``, and below ``_TINY`` squared
    differences underflow."""
    return max(radius * (1.0 + _ROUNDING), _TINY)


def _distinct(values: np.ndarray) -> np.ndarray:
    """The sorted distinct values (``np.unique``, which would load
    ``numpy.ma`` on first use)."""
    values = np.sort(values)
    return values[np.concatenate(([True], values[1:] != values[:-1]))] if values.size else values


def _ragged_arange(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The concatenated ranges ``starts[i] .. starts[i] + lengths[i] - 1``."""
    ends = np.cumsum(lengths)
    total = int(ends[-1]) if ends.size else 0
    return np.arange(total) + np.repeat(starts - ends + lengths, lengths)


def _passes(sizes: np.ndarray, owner: np.ndarray):
    """Consecutive ranges ``lo, hi`` of items whose sizes add up to at
    most ``_CHUNK``, cut only where ``owner`` (ascending) changes; an
    owner whose items alone are larger is a range alone. There is at
    least one range."""
    n = sizes.size
    ends = np.cumsum(sizes)
    if not n or ends[-1] <= _CHUNK:
        yield 0, n
        return
    lo = 0
    while lo < n:
        hi = max(lo + 1, int(ends.searchsorted((ends[lo - 1] if lo else 0) + _CHUNK, "right")))
        if hi < n and owner[hi] == owner[hi - 1]:  # inside one owner's items
            back = int(owner.searchsorted(owner[hi], "left"))
            hi = back if back > lo else int(owner.searchsorted(owner[hi], "right"))
        yield lo, hi
        lo = hi


def _distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The distance of each column of ``a``, a freshly gathered d x m
    array that this overwrites, to ``b``'s column at the same position or
    to its one column (``b`` is d x m or d x 1), as a new array that does
    not keep ``a`` alive.

    The package's one distance rule: the squared differences are added
    row by row (each a loop over the m pairs), in coordinate order, before
    the square root: the bits of SciPy's ``cdist`` in every dimension, and
    of ``np.linalg.norm`` below d = 8, where NumPy's row sum turns pairwise.
    """
    a -= b
    a *= a
    total = a[0]
    for row in a[1:]:
        total += row
    return np.sqrt(total)


def _distance_matrix(queries: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Euclidean distances between every query row and every target row,
    by the rule of ``_distances``: the squared coordinate differences are
    added in coordinate order before the square root, so every entry
    equals that pair's ``_distances`` distance and SciPy's ``cdist``.
    """
    block = np.subtract.outer(queries[:, 0], targets[:, 0])
    block *= block
    for j in range(1, queries.shape[1]):
        diff = np.subtract.outer(queries[:, j], targets[:, j])
        diff *= diff
        block += diff
    return np.sqrt(block, out=block)


def nearest(queries: np.ndarray, targets: np.ndarray):
    """Per query row, the distance to its nearest target row and that
    target's position; an exact tie goes to the first position.

    Both are 2-D float arrays, ``targets`` with at least one row.
    Distances are ``_distance_matrix``'s, the pairs' ``_distances``
    distances, in row chunks of about ``_CHUNK`` entries.
    """
    distance = np.empty(queries.shape[0])
    position = np.empty(queries.shape[0], dtype=np.int64)
    rows = max(1, _CHUNK // targets.shape[0])
    for start in range(0, queries.shape[0], rows):
        block = _distance_matrix(queries[start:start + rows], targets)
        found = block.argmin(axis=1)
        position[start:start + rows] = found
        distance[start:start + rows] = block[np.arange(found.size), found]
    return distance, position


def smallest_pairwise_distances(points: np.ndarray, count: int):
    """``(smallest, positives)``: the ``count`` (>= 1) smallest positive
    distances between rows i < j of ``points``, sorted (all of them if
    fewer are positive), and the number of positive distances.

    The distances are ``_distance_matrix``'s (SciPy's ``pdist`` values),
    in blocks of about ``_CHUNK`` entries, never held all at once: a
    buffer keeps the smallest seen so far, and whenever it holds twice
    ``count`` it is cut back to the ``count`` smallest, below which later
    distances must fall to be kept. The memory grows with ``count``, not
    with the number of pairs.
    """
    n = points.shape[0]
    rows = max(1, _CHUNK // n)
    parts, held, positives = [np.empty(0)], 0, 0
    bound = np.inf  # the largest of the buffer once it was cut back
    for start in range(0, n - 1, rows):
        stop = min(start + rows, n - 1)
        block = _distance_matrix(points[start:stop], points[start + 1:])
        # Row i of the block is point start + i; column j is point start + 1 + j.
        block = block[(block > 0) & (np.arange(stop - start)[:, None] <= np.arange(n - start - 1))]
        positives += block.size
        parts.append(block[block < bound])
        held += parts[-1].size
        if held >= 2 * count:
            buffer = np.partition(np.concatenate(parts), count - 1)[:count]
            bound = buffer[-1]
            parts, held = [buffer], count
    smallest = np.concatenate(parts)
    if smallest.size > count:
        smallest = np.partition(smallest, count - 1)[:count]
    smallest.sort()
    return smallest, positives


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
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            rows = [row for row in csv.reader(fh) if "".join(row).strip()]
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
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
    try:
        means = np.asarray(means, dtype=np.float64)
        if means.ndim != 2 or means.shape[0] != k:
            raise InvalidSpec(f"means must be k x d, got shape {means.shape}")
        counts = np.broadcast_to(np.asarray(per_cluster_n, dtype=np.int64), (k,))
        sigmas = np.broadcast_to(np.asarray(stddev, dtype=np.float64), (k,))
    except (TypeError, ValueError) as exc:
        raise InvalidSpec(f"bad mixture specification: {exc}") from None
    if (counts < 1).any():
        raise InvalidSpec("every per-cluster count must be >= 1")
    if (sigmas <= 0).any():
        raise InvalidSpec("every stddev must be > 0")

    # The one use of numpy.random in the package: its import loads about
    # 6 MB, which the run path does not pay (see ecac.sampling).
    from numpy.random import default_rng

    rng = default_rng(seed)
    blocks = []
    labels = []
    for c in range(k):
        blocks.append(rng.normal(means[c], sigmas[c], size=(counts[c], means.shape[1])))
        labels.append(np.full(counts[c], c, dtype=np.int64))
    return Dataset(np.vstack(blocks)), GroundTruth(np.concatenate(labels), k)
