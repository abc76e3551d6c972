"""Deterministic SVG scatter plots of clustering results.

Output is plain SVG 1.1 in a 1000 x 1000 viewBox, data min-max scaled
with a 5% margin. Byte-identical output for identical inputs.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import NotPlottable

# 20 distinguishable fills, cycled when a run has more groups.
PALETTE = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
    "#aec7e8", "#ffbb78", "#98df8a", "#ff9896", "#c5b0d5",
    "#c49c94", "#f7b6d2", "#c7c7c7", "#dbdb8d", "#9edae5",
)
BACKGROUND_FILL = "#d0d0d0"
SIZE = 1000.0
MARGIN = 0.05


def _scale(points: np.ndarray) -> np.ndarray:
    lo = points.min(axis=0)
    hi = points.max(axis=0)
    span = np.where(hi > lo, hi - lo, 1.0)
    unit = (points - lo) / span
    inner = SIZE * (1.0 - 2.0 * MARGIN)
    xy = SIZE * MARGIN + unit * inner
    xy[:, 1] = SIZE - xy[:, 1]  # y grows upward in data, downward in SVG
    return xy


def _circle(x: float, y: float, r: float, fill: str, extra: str = "") -> str:
    return f'<circle cx="{x:.2f}" cy="{y:.2f}" r="{r:g}" fill="{fill}"{extra}/>'


def render_scatter(
    points: np.ndarray,
    labels,
    center_ids,
    mode: str = "clusters",
    extended_sets=None,
) -> str:
    """Render objects as colored circles, centers as outlined markers.

    ``clusters`` colors every object by its final label. ``extended-sets``
    draws the dataset as a grey backdrop and colors only the extended-set
    members, one palette color per set. Labels must cover exactly the
    given points, and every center and member id must index one of them.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] < 2:
        raise NotPlottable("scatter plots need at least 2 coordinates per object")
    if points.shape[1] > 2:
        warnings.warn(
            f"dataset is {points.shape[1]}-D; plotting the first two coordinates",
            stacklevel=2,
        )
        points = points[:, :2]
    if mode not in ("clusters", "extended-sets"):
        raise NotPlottable(f"unknown plot mode {mode!r}")
    if mode == "extended-sets" and extended_sets is None:
        raise NotPlottable("extended-sets mode needs the per-set member lists")

    n = points.shape[0]
    labels = np.asarray(labels, dtype=np.int64)
    ids = [*center_ids, *(m for members in extended_sets or () for m in members)]
    if labels.shape != (n,) or any(not 0 <= i < n for i in ids):
        raise NotPlottable(f"the result's {labels.size} labels or its ids do not fit {n} objects")

    xy = _scale(points)
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="0 0 {SIZE:g} {SIZE:g}">',
        f'<rect width="{SIZE:g}" height="{SIZE:g}" fill="white"/>',
    ]
    if mode == "clusters":
        for i in range(points.shape[0]):
            fill = PALETTE[labels[i] % len(PALETTE)]
            parts.append(_circle(xy[i, 0], xy[i, 1], 4, fill))
    else:
        for i in range(points.shape[0]):
            parts.append(_circle(xy[i, 0], xy[i, 1], 3, BACKGROUND_FILL))
        for set_idx, members in enumerate(extended_sets):
            fill = PALETTE[set_idx % len(PALETTE)]
            for m in members:
                parts.append(_circle(xy[m, 0], xy[m, 1], 5, fill))
    for pos, c in enumerate(center_ids):
        fill = PALETTE[pos % len(PALETTE)] if mode == "extended-sets" else PALETTE[
            labels[c] % len(PALETTE)
        ]
        parts.append(
            _circle(xy[c, 0], xy[c, 1], 9, fill, ' stroke="black" stroke-width="2"')
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
