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
about ``_CHUNK`` entries per array, so its scratch memory grows neither
with the input nor with its dimension: a grid pass gathers each pair's
coordinates one row at a time. For many radius queries centered on the
dataset's own points, the grid also keeps a candidate run per cell
(``SpatialIndex.candidate_runs``): the ids of every cell that the cell's
points' query boxes meet, as int32 ids, so such a query is its point's
run, judged by exact distance. Every run's length is counted at once,
and its ids are gathered, with those of a block of nearby cells, when it
is first read (``CandidateRuns``). An index keeps no results of its own:
every index over a dataset shares the dataset's counts, its one kept
grid and its one kept set of candidate runs, in ``Dataset.derived``.
"""

from __future__ import annotations

import codecs
import csv
import math
from array import array
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, compress, islice

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
# of an index pass (one coordinate row at a time), the slices of a block
# of query boxes. Measured on 10,000 points in 4 blobs at the default
# delta, the count and the nearest higher-ranked search held at most
# 2.1 MB of traced scratch at 2-, 4- and 8-D at 2**14 (128 KB of floats
# per array), against 2.9-3.6 MB at 2**15, and DPC's quantities took no
# longer.
_CHUNK = 1 << 14

# The most ids that one block of candidate runs holds, unless one cell's
# run is longer (see ``CandidateRuns``). On the capped DPC benchmark's
# 10,000 points (4 blobs, 100 per set) the extension read 15 of 129
# blocks at 2**12, 50,077 of the runs' 460,838 ids, against 13 of 60
# blocks and 100,916 ids at 2**13. Building the runs and gathering every
# block took 0.5 ms longer than the whole gather (4.2 ms) at 2**12 on the
# sweep benchmark's five radii, and 2.9 ms longer (4.6 ms) on the one
# radius of a 20,001-point spiral (206 blocks), against -0.2 and 0.9 ms
# at 2**13. One gather traced 0.16 MB at 2**12 and 0.33 MB at 2**13 on
# 4,000 points about one per cell.
_RUN_BLOCK = 1 << 12

# The cells of one block of CSV rows that ``load_csv`` holds as strings.
# A cell in its row's list takes about ten times the memory of a float,
# so a block is a sixteenth of a chunk: loading the benchmark's
# 10,000-row blobs file raised VmHWM by 0.26 MB at 2**10 cells, 0.70 at
# 2**12 and 2.49 at 2**14, in the same time.
_CSV_CELLS = _CHUNK // 16

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
        strict distance < radius from it."""
        centers = np.asarray(centers, dtype=np.float64)
        if centers.ndim != 2 or centers.shape[1] != self.dataset.d:
            raise DimensionMismatch(
                f"query point has shape {centers.shape}, dataset is {self.dataset.d}-D"
            )
        grid = self._radius_grid(radius)
        centers = centers.T  # a view: its rows are gathered one at a time
        answers = []
        for pos, owner in grid.pairs(centers, np.arange(centers.shape[1]), _reach(radius)):
            keep = np.flatnonzero(_distances(grid.columns, centers, (pos, owner)) < radius)
            if keep.size:
                # A pass holds its owners whole, and they follow those answered.
                ids, owner = grid.ids.take(pos.take(keep)), owner.take(keep)
                bounds = owner.searchsorted(np.arange(len(answers), owner[-1] + 2))
                answers += [np.sort(ids[a:b]) for a, b in zip(bounds[:-1], bounds[1:])]
        return answers + [np.empty(0, dtype=np.int64) for _ in range(centers.shape[1] - len(answers))]

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
        < radius. Each pair is judged once, by the candidates after each
        object in the grid's order, and counts for both of its objects."""
        grid = self._radius_grid(radius)
        counts = np.ones(self.dataset.n, dtype=np.int64)  # each object itself
        for pos, owner in grid.pairs(self.dataset.columns, grid.ids, _reach(radius), after=True):
            inside = np.flatnonzero(_distances(grid.columns, grid.columns, (pos, owner)) < radius)
            if not inside.size:
                continue
            # Bins from the first owner's position on: owner ascends, and
            # every pos lies after its owner.
            first = owner[inside[0]]
            for ends in owner, pos:
                ends = ends.take(inside)
                ends -= first
                added = np.bincount(ends)
                counts[first:first + added.size] += added
        result = np.empty_like(counts)
        result[grid.ids] = counts
        return result

    def candidate_runs(self, radius: float) -> CandidateRuns:
        """The candidate runs of the grid for ``radius``: object i lies in
        cell ``runs.cell[i]``, and the run of cell c, ``runs.run(c)``
        (int32), holds every id at strict distance < radius from any point
        of that cell, besides others, at most 81 ids per object (see
        ``_Grid.runs``). Every cell and run length is found here; a run's
        ids are gathered, with those of a block of nearby cells, when it
        is first read (``CandidateRuns``).

        The runs of one radius are kept, read-only, in
        ``dataset.derived``, as one grid is: asking for another radius
        frees them, with the blocks gathered so far, before its own are
        built."""
        radius = float(radius)
        kept = self.dataset.derived
        if "runs" not in kept or kept["runs"][0] != radius:
            kept.pop("runs", None)
            kept["runs"] = radius, self._radius_grid(radius).runs(_reach(radius))
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
        infinite; until then, reach doubles. An object's candidates come
        in one pass (``_Grid.pairs``), so its answer is settled there.
        """
        n = self.dataset.n
        rank = np.asarray(rank)
        if rank.shape != (n,) or not np.array_equal(np.sort(rank), np.arange(n)):
            raise InvalidSpec("rank must order the ids 0..N-1")
        grid = self._radius_grid(radius)
        by_rank = np.empty(n, dtype=np.int64)
        by_rank[rank] = np.arange(n)
        grid_rank = rank.take(grid.ids).astype(np.int32)  # as the runs' ids: half of int64's bytes
        dist = np.full(n, np.inf)
        found = np.full(n, -1, dtype=np.int64)
        pending = np.flatnonzero(grid_rank > 0)  # grid positions
        reach = grid.side
        while pending.size:
            reach = max(reach, _TINY)
            everything = reach == np.inf  # every point a candidate, even at overflow
            resolved = np.zeros(pending.size, dtype=bool)
            pending_rank = grid_rank.take(pending)
            for pos, owner in grid.pairs(grid.columns, pending, reach):
                higher = grid_rank.take(pos)
                keep = np.flatnonzero(higher < pending_rank.take(owner))
                if not keep.size:
                    continue
                pos, owner, higher = pos.take(keep), owner.take(keep), higher.take(keep)
                d = _distances(grid.columns, grid.columns, (pos, pending.take(owner)))
                # Per owner: its least distance, then the least rank at it.
                heads = np.flatnonzero(np.diff(owner, prepend=-1))
                least = np.minimum.reduceat(d, heads)
                tied = np.where(d == np.repeat(least, np.diff(heads, append=d.size)), higher, n)
                least_rank = np.minimum.reduceat(tied, heads)
                settled = everything | (least < reach * (1.0 - _ROUNDING))
                done = owner.take(heads[settled])
                ids = grid.ids.take(pending.take(done))
                dist[ids] = least[settled]
                found[ids] = by_rank.take(least_rank[settled])
                resolved[done] = True
            pending = pending[~resolved]
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

    def pairs(self, points: np.ndarray, at: np.ndarray, reach: float, after: bool = False):
        """Yield ``(positions, owner)``: the sorted positions of the points
        in the cells that each box meets, and the box's number, ``owner``,
        ascending from 0. Box j is [c - reach, c + reach] for c the column
        ``at[j]`` of ``points`` (d x m, the index's dimension). With
        ``after``, box j belongs to the point at position j of this grid,
        and only the positions after j are kept.

        The boxes go in blocks of ``_BOXES``, their centers gathered per
        block, so no slice table covers them all, and their candidates in
        passes of at most ``_CHUNK`` that hold each owner's candidates
        whole (an owner with more is a pass alone). Every array of a pass,
        here and in the callers, holds one entry per candidate, whatever
        the dimension: a caller gathers each pair's coordinates one row at
        a time (``_distances`` with pairs), so a pass holds a few
        ``_CHUNK``-entry arrays, never a d x m block.

        Where the grid leaves some axes out and reach is finite, a
        candidate whose distance over the grid axes alone is at least
        reach is dropped: its full distance cannot be below the radius
        that reach covers, so only the rest of its coordinates are read.
        """
        rows = [self.columns[axis] for axis in self.axes]
        near = self.axes.size < self.columns.shape[0] and reach < np.inf
        for lo in range(0, at.size, _BOXES):
            centers = points[self.axes[:, None], at[lo:lo + _BOXES]]
            owner, start, stop = _rank_slices(
                self.keys, self.width, *self.box_ranks(centers - reach, centers + reach)
            )
            if after:
                start = np.maximum(start, owner + (lo + 1))
                stop = np.maximum(stop, start)
            lengths = stop - start
            for a, b in _passes(lengths, owner):
                pos = _ragged_arange(start[a:b], lengths[a:b])
                # The block's owner numbers read its centers; lo makes them global.
                if near:
                    owner_of = np.repeat(owner[a:b], lengths[a:b])
                    keep = np.flatnonzero(_distances(rows, centers, (pos, owner_of)) < reach)
                    pos, owner_of = pos.take(keep), owner_of.take(keep)
                    owner_of += lo
                else:
                    owner_of = np.repeat(owner[a:b] + lo, lengths[a:b])
                yield pos, owner_of

    def box_ranks(self, low: np.ndarray, high: np.ndarray):
        """``(first, last)``: per grid axis, the ranks among the points'
        distinct labels of the first label that each box [low[:, i],
        high[:, i]] meets and of the one after its last."""
        # nextafter: the box's float ends lie outside its true ends.
        low, high = self._label(np.nextafter(np.stack((low, high)), _SIDES * np.inf))
        first = [u.searchsorted(row, "left") for u, row in zip(self.labels, low)]
        last = [u.searchsorted(row, "right") for u, row in zip(self.labels, high)]
        return first, last

    def runs(self, reach: float) -> CandidateRuns:
        """The candidate runs of this grid for boxes of half-width
        ``reach``: point i lies in cell ``cell[i]`` (cells numbered in key
        order), and the run of cell c, ``bounds[c + 1] - bounds[c]`` ids
        (``np.int32``, half the bytes of the index's own ids), holds the
        ids of every cell that the box "the bounding box of cell c's
        points ± reach" meets. This pass finds every cell's box and the
        length of its run; ``CandidateRuns`` gathers the ids of a block of
        cells when one of them is first read. Built anew on each call;
        ``SpatialIndex.candidate_runs`` keeps them.

        That box holds the query box [p - reach, p + reach] of each point
        p of the cell, and its ends are rounded and labelled as in
        ``pairs``, so the run holds every candidate of a radius query
        centered on p. The lengths are counted in bounded passes, so the
        cells, lengths and boxes are the only lasting memory until a run
        is read.

        With reach = r(1 + ``_ROUNDING``) and side r / 3, a cell's points
        span less than one side, so its box spans less than 7.01 sides and
        meets at most 9 labels per grid axis (labels L - 4 to L + 4 for a
        cell of label L). A cell's points are thus in the runs of at most
        9 cells in 1-D and 81 in 2-D, which bounds the ids per point.
        """
        head = np.diff(self.keys, prepend=-1) != 0
        heads = np.flatnonzero(head)
        coords = self.columns[self.axes]
        low = np.minimum.reduceat(coords, heads, axis=1) - reach
        high = np.maximum.reduceat(coords, heads, axis=1) + reach
        ranks = self.box_ranks(low, high)
        bounds = np.zeros(heads.size + 1, dtype=np.int64)
        for lo in range(0, heads.size, _BOXES):
            block = ([r[lo:lo + _BOXES] for r in end] for end in ranks)
            owner, start, stop = _rank_slices(self.keys, self.width, *block)
            bounds[lo + 1:lo + 1 + _BOXES] = np.bincount(owner, stop - start)
        np.cumsum(bounds, out=bounds)
        cell = np.empty(self.ids.size, dtype=np.int64)
        cell[self.ids] = np.cumsum(head) - 1
        return CandidateRuns(self, ranks, cell, bounds)


class CandidateRuns:
    """The candidate runs of one grid at one reach (``_Grid.runs``): point
    i lies in cell ``cell[i]``, and ``run(c)``, the run of cell c, holds
    its ``bounds[c + 1] - bounds[c]`` ids as a read-only int32 array.

    The ids are gathered a block at a time: a block is consecutive cells
    in key order whose runs hold at most ``_RUN_BLOCK`` ids together (a
    cell with more is a block alone). A block is gathered, into an array
    of its own (``blocks[b]``), when one of its cells is first read, and
    kept; a block that is never read is never allocated. A process forked
    after some blocks were gathered shares those and gathers the others
    it reads for itself. The runs keep each cell's box as label ranks and
    the grid's keys and ids, not the grid's copy of the points.
    """

    def __init__(self, grid: _Grid, ranks, cell: np.ndarray, bounds: np.ndarray):
        self.cell, self.bounds = cell, bounds
        cell.flags.writeable = bounds.flags.writeable = False
        self._keys, self._ids, self._width = grid.keys, grid.ids, grid.width
        self._ranks = ranks  # (first, last): each cell's box (``_Grid.box_ranks``)
        cells = bounds.size - 1
        starts = [lo for lo, _ in _passes(np.diff(bounds), np.arange(cells), _RUN_BLOCK)]
        self._starts = starts + [cells]
        self._base = bounds[self._starts]  # each block's first entry, and the end
        block = np.repeat(np.arange(len(starts)), np.diff(self._starts))
        first = self._base.take(block)
        # Per cell: its block, and its run's ends in the block's array.
        self._where = np.stack((block, bounds[:-1] - first, bounds[1:] - first), axis=1)
        self.blocks: list[np.ndarray | None] = [None] * len(starts)

    def run(self, c) -> np.ndarray:
        """The ids of cell c's run, a read-only int32 view into its block."""
        b, lo, hi = self._where[c].tolist()  # Python ints: each new member reads one run
        ids = self.blocks[b]
        if ids is None:
            ids = self._gather(b)
        return ids[lo:hi]

    def entries(self, cells) -> int:
        """The ids held by the blocks that hold the given cells: what
        reading those cells' runs gathers in a process that gathered
        nothing before."""
        read = np.zeros(len(self.blocks), dtype=bool)
        read[self._where[:, 0].take(cells)] = True
        return int(np.diff(self._base)[read].sum())

    def _gather(self, b) -> np.ndarray:
        """Gather and keep block b: the ids of the slices of sorted
        positions that its cells' boxes meet, cell by cell."""
        cells = slice(self._starts[b], self._starts[b + 1])
        block = ([r[cells] for r in end] for end in self._ranks)
        start, stop = _rank_slices(self._keys, self._width, *block)[1:]
        ids = self._ids.take(_ragged_arange(start, stop - start)).astype(np.int32)
        ids.flags.writeable = False
        self.blocks[b] = ids
        return ids


def _rank_slices(keys: np.ndarray, width: int, first, last):
    """``(owner, start, stop)``: the slices of the positions sorted by a
    grid's cell ``keys`` (the first axis's label rank times ``width``,
    plus the second's) that hold the cells each box meets, ``owner``
    ascending. Box i meets label ranks ``first[a][i]`` to ``last[a][i] -
    1`` on grid axis a (``_Grid.box_ranks``); its cells of one rank on the
    first axis have consecutive keys, so they are one slice."""
    if len(first) == 1:
        return np.arange(first[0].size), keys.searchsorted(first[0]), keys.searchsorted(last[0])
    rows = last[0] - first[0]
    owner = np.repeat(np.arange(rows.size), rows)
    base = _ragged_arange(first[0], rows)
    base *= width
    start, stop = (keys.searchsorted(base + ends[owner]) for ends in (first[1], last[1]))
    return owner, start, stop


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
    ranges = np.repeat(starts - ends + lengths, lengths)
    ranges += np.arange(ranges.size)
    return ranges


def _passes(sizes: np.ndarray, owner: np.ndarray, limit: int = _CHUNK):
    """Consecutive ranges ``lo, hi`` of items whose sizes add up to at
    most ``limit``, cut only where ``owner`` (ascending) changes; an
    owner whose items alone are larger is a range alone. There is at
    least one range."""
    n = sizes.size
    ends = np.cumsum(sizes)
    if not n or ends[-1] <= limit:
        yield 0, n
        return
    lo = 0
    while lo < n:
        hi = max(lo + 1, int(ends.searchsorted((ends[lo - 1] if lo else 0) + limit, "right")))
        if hi < n and owner[hi] == owner[hi - 1]:  # inside one owner's items
            back = int(owner.searchsorted(owner[hi], "left"))
            hi = back if back > lo else int(owner.searchsorted(owner[hi], "right"))
        yield lo, hi
        lo = hi


def _distances(a: np.ndarray, b: np.ndarray, pairs=None) -> np.ndarray:
    """The distance of each column of ``a``, a freshly gathered d x m
    array that this overwrites, to ``b``'s column at the same position or
    to its one column (``b`` is d x m or d x 1), as a new array that does
    not keep ``a`` alive.

    With ``pairs``, ``(i, j)``, the distance of each pair of columns
    ``a[:, i[t]]`` and ``b[:, j[t]]`` instead, their coordinates gathered
    one row at a time (the grid passes), so that no d x m block is held
    and neither array changes; ``a`` may then be a list of rows, such as
    those of a grid's axes.

    The package's one distance rule: the squared differences are added
    row by row (each a loop over the m pairs), in coordinate order, before
    the square root: the bits of SciPy's ``cdist`` in every dimension, and
    of ``np.linalg.norm`` below d = 8, where NumPy's row sum turns pairwise.
    """
    if pairs is None:
        a -= b
        a *= a
    for k, square in enumerate(a):
        if pairs is not None:
            square = square.take(pairs[0])
            square -= b[k].take(pairs[1])
            square *= square
        if k:
            total += square
        else:
            total = square
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
    in blocks of about ``_CHUNK`` entries, never held all at once: one
    buffer keeps the smallest seen so far, and whenever it holds twice
    ``count`` they are partitioned in place and cut back to the ``count``
    smallest, below which later distances must fall to be kept. The
    buffer has room for twice ``count`` and one block (no more than all
    pairs), so the memory grows with ``count``, not with the number of
    pairs.
    """
    n = points.shape[0]
    rows = max(1, _CHUNK // n)
    buffer = np.empty(min(2 * count + rows * (n - 1), n * (n - 1) // 2))
    held, positives = 0, 0
    bound = np.inf  # the largest of the buffer once it was cut back
    for start in range(0, n - 1, rows):
        stop = min(start + rows, n - 1)
        block = _distance_matrix(points[start:stop], points[start + 1:])
        # Row i of the block is point start + i; column j is point start + 1 + j.
        block = block[(block > 0) & (np.arange(stop - start)[:, None] <= np.arange(n - start - 1))]
        positives += block.size
        # <=: an infinite distance (overflowing squares) is kept while the
        # bound is still inf, so min(count, positives) distances return.
        block = block[block <= bound]
        buffer[held:held + block.size] = block
        held += block.size
        if held >= 2 * count:
            buffer[:held].partition(count - 1)
            held, bound = count, buffer[count - 1]
    smallest = buffer[:held]
    if held > count:
        smallest.partition(count - 1)
        smallest = smallest[:count]
    return np.sort(smallest), positives


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


def _blocks(reader, rows: int):
    """The reader's rows in lists of at most ``rows``, without its blank
    rows, those whose cells joined are whitespace only."""
    while block := list(islice(reader, rows)):
        yield list(compress(block, map(str.strip, map("".join, block))))


def _parse_block(block, features, path, first: int) -> list[float]:
    """The feature cells of a block of data rows, row by row, the first
    of them data row ``first``. One comprehension parses them; on any bad
    cell a per-cell loop finds the first and names it (``ParseError``).
    ``float`` ignores surrounding whitespace itself, so either route
    gives the cells' values bit for bit."""
    try:
        values = [float(row[j]) for row in block for j in features]
        # A sum of floats is finite only if every term is, and an
        # overflowing sum just sends the block through the loop.
        if math.isfinite(sum(values)):
            return values
    except ValueError:
        pass
    values = []
    for i, row in enumerate(block):
        for j in features:
            try:
                values.append(_parse_cell(row[j].strip()))
            except ValueError as exc:
                raise ParseError(f"{path}: row {first + i}, column {j}: {exc}") from None
    return values


def _first_decoding_error(path):
    """``(reason, offset)`` of the file's first byte that is not UTF-8,
    its offset counted from the start of the file, or None if every byte
    is. The file is decoded in blocks of 64 KB; a sequence cut at a
    block's end is held by the decoder until the next."""
    decoder = codecs.getincrementaldecoder("utf-8")()
    at = 0  # the offset of the next block
    with open(path, "rb") as fh:
        while True:
            block = fh.read(1 << 16)
            held = len(decoder.getstate()[0])
            try:
                decoder.decode(block, final=not block)
            except UnicodeDecodeError as exc:
                return exc.reason, at - held + exc.start
            if not block:
                return None
            at += len(block)


def load_csv(path, label_column=None) -> tuple[Dataset, GroundTruth | None]:
    """Load a dataset from a comma-separated file.

    Parameters
    ----------
    path : str or Path
        File to read (UTF-8, with or without a byte-order mark). An
        optional header row is auto-detected: a first row where any
        feature cell fails numeric parsing.
    label_column : int, str, or None
        Column holding ground-truth labels, by position (negative indices
        allowed) or by header name. ``None`` treats every column as a
        feature. Distinct label values are re-encoded densely in first
        appearance order.

    Returns
    -------
    (Dataset, GroundTruth or None)

    The rows are read in blocks of about ``_CSV_CELLS`` cells, each parsed
    into one growing buffer of points and one of labels, so that the
    strings of at most two blocks are held at once. Every row is read
    before a fault is raised, and of two faults the earlier in this order
    wins: a decoding error, a row of another width than the first, a
    label column that does not exist, a header without rows, no feature
    column left, a bad cell (the first in row order).
    """
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
            reader = csv.reader(fh)
            first = next((row for row in reader if "".join(row).strip()), None)
            if first is None:
                raise EmptyDataset(f"{path}: no rows")
            width = len(first)
            label_idx, fault = None, None
            if isinstance(label_column, str):
                names = [c.strip() for c in first]
                if label_column in names:
                    label_idx = names.index(label_column)
                else:
                    fault = ParseError(f"{path}: no column named {label_column!r}")
            elif label_column is not None:
                label_idx = label_column if label_column >= 0 else width + label_column
                if not 0 <= label_idx < width:
                    fault = ParseError(f"{path}: label column {label_column} out of range")
            features = [j for j in range(width) if j != label_idx]
            header = isinstance(label_column, str) or (
                fault is None and any(not _is_numeric(first[j]) for j in features)
            )

            points, labels, seen = array("d"), array("q"), {}
            rows, width_fault, cell_fault = 0, None, None  # rows: data rows read
            parse = fault is None and bool(features)
            blocks = _blocks(reader, max(1, _CSV_CELLS // width))
            for block in blocks if header else chain([[first]], blocks):
                if width_fault is None and not set(map(len, block)) <= {width}:
                    i = next(i for i, row in enumerate(block) if len(row) != width)
                    width_fault = ParseError(
                        f"{path}: row {header + rows + i} has {len(block[i])} cells, "
                        f"expected {width}"
                    )
                    parse = False
                if parse:
                    try:
                        points.fromlist(_parse_block(block, features, path, rows))
                    except ParseError as exc:
                        cell_fault, parse = exc, False
                    else:
                        if label_idx is not None:
                            labels.fromlist(
                                [seen.setdefault(row[label_idx].strip(), len(seen)) for row in block]
                            )
                rows += len(block)
    except UnicodeDecodeError as exc:
        # exc.start counts from the start of the text reader's last read.
        reason, at = _first_decoding_error(path) or (exc.reason, exc.start)
        raise ParseError(f"{path}: not UTF-8 text ({reason} at byte {at})") from None
    for exc in (width_fault, fault):
        if exc is not None:
            raise exc
    if not rows:
        raise EmptyDataset(f"{path}: header only, no data rows")
    if not features:
        raise ParseError(f"{path}: no feature columns left")
    if cell_fault is not None:
        raise cell_fault

    truth = None
    if label_idx is not None:
        truth = GroundTruth(np.frombuffer(labels, dtype=np.int64), len(seen))
    return Dataset(np.frombuffer(points).reshape(rows, len(features))), truth


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
