"""Independent brute-force reference implementations used by the tests.

Everything here is written as directly as possible from the definitions
(plain loops, no spatial index, no incremental bookkeeping) so that the
production code can be checked against a second, structurally different
route.
"""

from __future__ import annotations

import csv
import heapq
import io
import math
from collections import Counter

import numpy as np

from ecac.data import Dataset, GroundTruth, _is_numeric, _parse_cell
from ecac.errors import EmptyDataset, ParseError


def brute_range_query(points: np.ndarray, center, radius: float) -> set[int]:
    """Ids at strict Euclidean distance < radius, by full scan.

    ``math.dist`` is given Python floats: the same values as the array's,
    read far faster than NumPy scalars.
    """
    center = np.asarray(center, dtype=float).tolist()
    out = set()
    for j, p in enumerate(np.asarray(points, dtype=float).tolist()):
        if math.dist(p, center) < radius:
            out.add(j)
    return out


def brute_densities(points: np.ndarray, delta: float) -> list[int]:
    return [len(brute_range_query(points, points[i], delta)) for i in range(len(points))]


def pairwise_distances(points: np.ndarray) -> np.ndarray:
    """The distances between rows i < j, in SciPy's ``pdist`` order (by i,
    then j) and with its values: per pair, the squared coordinate
    differences added in coordinate order, then the square root."""
    points = np.asarray(points, dtype=float)
    rows = []
    for i in range(len(points) - 1):
        diff = points[i + 1:] - points[i]
        total = np.zeros(len(diff))
        for k in range(points.shape[1]):
            total = total + diff[:, k] * diff[:, k]
        rows.append(np.sqrt(total))
    return np.concatenate(rows) if rows else np.empty(0)


def row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a 2-D array, by the package's one
    distance rule: the squares are added column by column, in coordinate
    order, before the square root (as SciPy's ``cdist`` adds them)."""
    sq = x * x
    total = sq[:, 0]
    for j in range(1, sq.shape[1]):
        total = total + sq[:, j]
    return np.sqrt(total)


def nmi_direct(u, v) -> float:
    """Direct summation over the contingency table built with a Counter."""
    n = len(u)
    joint = Counter(zip(u, v))
    cu = Counter(u)
    cv = Counter(v)
    mi = 0.0
    for (a, b), count in joint.items():
        pij = count / n
        mi += pij * math.log(pij / ((cu[a] / n) * (cv[b] / n)))
    hu = -sum((c / n) * math.log(c / n) for c in cu.values())
    hv = -sum((c / n) * math.log(c / n) for c in cv.values())
    return mi / math.sqrt(hu * hv)


def rand_index_pair_loop(u, v) -> float:
    """Explicit O(N^2) loop over unordered pairs."""
    n = len(u)
    agree = 0
    total = 0
    for i in range(n):
        for j in range(i + 1, n):
            total += 1
            same_u = u[i] == u[j]
            same_v = v[i] == v[j]
            if same_u == same_v:
                agree += 1
    return agree / total


def pair_confusion_loop(u, v) -> tuple[int, int, int, int]:
    n = len(u)
    tp = tn = fp = fn = 0
    for i in range(n):
        for j in range(i + 1, n):
            same_u = u[i] == u[j]
            same_v = v[i] == v[j]
            if same_u and same_v:
                tp += 1
            elif not same_u and not same_v:
                tn += 1
            elif not same_u and same_v:
                fp += 1
            else:
                fn += 1
    return tp, tn, fp, fn


def dpc_quantities_loops(points: np.ndarray, d_c: float):
    """rho / delta / nearest-higher by explicit pairwise loops.

    Equal densities rank by lower index; among equally near higher-ranked
    objects the earliest in rank is the nearest-higher. The top-ranked
    object takes its max distance to anything and has no nearest-higher.
    """
    n = len(points)
    rho = [
        sum(1 for j in range(n) if j != i and math.dist(points[i], points[j]) < d_c)
        for i in range(n)
    ]

    def ranks_higher(j, i):
        return rho[j] > rho[i] or (rho[j] == rho[i] and j < i)

    delta = [0.0] * n
    nearest = [-1] * n
    for i in range(n):
        higher = [j for j in range(n) if ranks_higher(j, i)]
        if not higher:
            delta[i] = max(math.dist(points[i], points[j]) for j in range(n))
        else:
            best = min(higher, key=lambda j: (math.dist(points[i], points[j]), -rho[j], j))
            nearest[i] = best
            delta[i] = math.dist(points[i], points[best])
    return rho, delta, nearest


def dpc_assignment_recursive(points: np.ndarray, centers, rho, nearest) -> list[int]:
    """Chain-following oracle: walk nearest-higher links up to a center.

    Objects whose density outranks every center take their nearest
    center instead.
    """
    centers = list(centers)
    n = len(points)

    def rank(i):
        return (-rho[i], i)

    best_center_rank = min(rank(c) for c in centers)
    position = {c: idx for idx, c in enumerate(centers)}

    def label_of(i, depth=0):
        assert depth <= n, "cycle in nearest-higher chain"
        if i in position:
            return position[i]
        if rank(i) < best_center_rank or nearest[i] < 0:
            return min(
                range(len(centers)),
                key=lambda j: (math.dist(points[i], points[centers[j]]), j),
            )
        return label_of(nearest[i], depth + 1)

    return [label_of(i) for i in range(n)]


def set_distance_scan(points, o, members, rho=None) -> float:
    d = min(math.dist(points[o], points[m]) for m in members)
    if rho is not None:
        return d / rho[o]
    return d


def naive_identify(points: np.ndarray, centers, delta: float, kind="local",
                   seed=None, cap=None):
    """Literal transcription of the greedy loop, quadratic everywhere.

    Returns (sets, order, order_sets, covered, fallbacks, trace) where
    trace records (object, set, dis, covered-after).
    """
    n = len(points)
    k = len(centers)
    rows = np.asarray(points, dtype=float).tolist()
    rho = brute_densities(points, delta)
    rng = np.random.default_rng(seed) if kind == "random" else None

    sets = [[c] for c in centers]
    order = list(centers)
    order_sets = list(range(k))
    member = {c for c in centers}
    covered = set()
    for c in centers:
        covered |= brute_range_query(points, points[c], delta)
    fallbacks = 0
    trace = []

    def full(j):
        return cap is not None and len(sets[j]) - 1 >= cap

    while True:
        if len(covered) == n or len(order) == n:
            break
        if cap is not None and all(full(j) for j in range(k)):
            break
        if kind == "random":
            cands = [i for i in range(n) if i not in member]
            o = int(rng.choice(cands))
            open_sets = [j for j in range(k) if not full(j)]
            j = min(open_sets, key=lambda j: (math.dist(rows[o], rows[centers[j]]), j))
            dis = set_distance_scan(rows, o, sets[j], rho)
        else:
            if kind in ("local", "nodensity"):
                pool = set()
                for x in order:
                    pool |= brute_range_query(points, points[x], 2 * delta)
                cands = sorted(pool - member)
                if not cands:
                    cands = [i for i in range(n) if i not in member]
                    fallbacks += 1
            else:
                cands = [i for i in range(n) if i not in member]
            weight = rho if kind != "nodensity" else None
            best = None
            for o in cands:
                for j in range(k):
                    if full(j):
                        continue
                    dis = set_distance_scan(rows, o, sets[j], weight)
                    if best is None or dis < best[0]:
                        best = (dis, o, j)
            dis, o, j = best
        sets[j].append(o)
        order.append(o)
        order_sets.append(j)
        member.add(o)
        covered |= brute_range_query(points, points[o], delta)
        trace.append((o, j, dis, len(covered)))
    return sets, order, order_sets, covered, fallbacks, trace


def _distance(p, q) -> float:
    """The package's distance rule on two rows of Python floats: the
    squared differences added one by one in coordinate order (``sum``
    compensates its additions from Python 3.12 on), then the root."""
    total = 0.0
    for a, b in zip(p, q):
        total += (a - b) * (a - b)
    return math.sqrt(total)


def minimax_forest(points, rho, centers, delta: float, local: bool):
    """What the published rule computes, by its definition: the
    bottleneck Dijkstra from the k centers at once over the complete
    directed graph whose arc x -> o costs d(x, o) / rho(o) (rho of ones
    for ``nodensity``). A path costs its largest arc. With ``local``, an
    arc of length at least 2*delta is of a second tier, which the local
    pool reaches only by fallback steps, and costs compare the tier
    first: a cost is ``(tier, d / rho)``.

    Returns ``(center, cost)``: per object, the position in ``centers``
    of the root of its cheapest path, and that path's cost. Of equally
    cheap paths, the lower center position wins. Distances follow the
    package's rule, the squared differences added in coordinate order.
    """
    rows = np.asarray(points, dtype=float).tolist()
    center, cost = [None] * len(rows), [None] * len(rows)
    heap = [((0, 0.0), j, c) for j, c in enumerate(centers)]
    while heap:
        path, j, x = heapq.heappop(heap)
        if center[x] is not None:
            continue
        center[x], cost[x] = j, path
        for o, row in enumerate(rows):
            if center[o] is None:
                d = _distance(rows[x], row)
                arc = (int(local and d >= 2 * delta), d / rho[o])
                heapq.heappush(heap, (max(path, arc), j, o))
    return center, cost


def dpc_assignment_loop(points: np.ndarray, centers, rho, nearest_higher) -> list[int]:
    """One object at a time, in density order, from the definition.

    Centers label themselves; objects denser than every center, and the
    top-ranked object, take their nearest center (the earlier list
    position on ties); every other object copies the label of its
    nearest higher-ranked object, which is labeled before it.
    """
    n = len(points)
    centers = [int(c) for c in centers]
    order = sorted(range(n), key=lambda i: (-rho[i], i))
    first_center = min(order.index(c) for c in centers)
    labels = [-1] * n
    for pos, c in enumerate(centers):
        labels[c] = pos
    for rank, i in enumerate(order):
        if labels[i] >= 0:
            continue
        if rank < first_center or nearest_higher[i] < 0:
            labels[i] = min(
                range(len(centers)),
                key=lambda j: (math.dist(points[i], points[centers[j]]), j),
            )
        else:
            labels[i] = labels[nearest_higher[i]]
    return labels


def load_csv_rows(path, label_column=None):
    """``ecac.load_csv`` from its definition: the file's bytes decoded
    whole, so a decoding error counts its offset from the file's start,
    every non-blank row read into one table, then checked and parsed, fault by fault in
    this order: a decoding error, a row of another width than the first,
    a label column that does not exist, a header without rows, no
    feature column left, a bad cell (the first in row order)."""
    with open(path, "rb") as fh:
        content = fh.read()
    try:
        text = content.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    rows = [row for row in csv.reader(io.StringIO(text, newline="")) if "".join(row).strip()]
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
