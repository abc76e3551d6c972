"""Neighborhood density estimation and the radius heuristic.

The density of object ``i`` is the number of objects at strict distance
``< delta`` from it, self included, so every density is at least 1 and
dividing a distance by a density is always safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.random import default_rng

from .data import Dataset, SpatialIndex, pairwise_distances
from .errors import DegenerateDataset, InvalidRadius

DEFAULT_PERCENTILE = 0.02  # sets the default radius and DPC's default cutoff

# The pairwise-distance percentiles are read from the distances between at
# most SAMPLE_CAP points, drawn with a fixed seed.
SAMPLE_CAP = 1000
SAMPLE_SEED = 0


@dataclass(frozen=True)
class DensityVector:
    """Per-object neighbor counts under a fixed radius."""

    rho: np.ndarray
    delta: float

    def __post_init__(self):
        rho = np.asarray(self.rho, dtype=np.int64)
        rho.flags.writeable = False
        object.__setattr__(self, "rho", rho)


def compute_densities(dataset: Dataset, index: SpatialIndex, delta: float) -> DensityVector:
    """Count, for every object, the objects within open radius ``delta``."""
    return DensityVector(index.density(delta), float(delta))


def pairwise_distance_percentiles(dataset: Dataset, percentiles: Sequence[float]) -> list[float]:
    """Low percentiles of the (sampled) positive pairwise distances.

    Distances are measured between min(N, SAMPLE_CAP) points sampled
    without replacement (seed SAMPLE_SEED); zero distances (duplicate
    points) are excluded. Each percentile p is taken as the
    ``int(p * count)``-th smallest distance, clamped to the last one.
    Each resolved percentile is kept, one float per fraction, in
    ``dataset.derived``, so the distances are sampled only when a
    requested fraction has not been resolved before; the sample itself
    is not kept.
    """
    for percentile in percentiles:
        if not 0 < percentile < 1:
            raise InvalidRadius(f"percentile must be in (0, 1), got {percentile}")
    kept = dataset.derived
    missing = sorted({p for p in percentiles if ("percentile", p) not in kept})
    if missing:
        if dataset.n < 2:
            raise DegenerateDataset("need at least two points")
        points = dataset.points
        if dataset.n > SAMPLE_CAP:
            rng = default_rng(SAMPLE_SEED)
            points = points[np.sort(rng.choice(dataset.n, size=SAMPLE_CAP, replace=False))]
        dists = pairwise_distances(points)
        dists = dists[dists > 0]
        if dists.size == 0:
            raise DegenerateDataset("all sampled points coincide")
        positions = [min(int(p * dists.size), dists.size - 1) for p in missing]
        # Only the smallest distances up to the last position are sorted.
        head = np.partition(dists, positions[-1])[:positions[-1] + 1]
        head.sort()
        for p, position in zip(missing, positions):
            kept[("percentile", p)] = float(head[position])
    return [kept[("percentile", p)] for p in percentiles]


def pairwise_distance_percentile(dataset: Dataset, percentile: float) -> float:
    """One percentile of the sampled positive pairwise distances, as in
    ``pairwise_distance_percentiles``."""
    return pairwise_distance_percentiles(dataset, [percentile])[0]


def default_delta(dataset: Dataset) -> float:
    """Default neighborhood radius: a small pairwise-distance percentile.

    The optimizer wants a radius well below the cluster scale; the
    ``DEFAULT_PERCENTILE`` (2nd) percentile of pairwise distances adapts
    to whatever units the data is in. Deterministic (fixed sampling seed).
    """
    return pairwise_distance_percentile(dataset, DEFAULT_PERCENTILE)
