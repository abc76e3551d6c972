"""Neighborhood density estimation and the radius heuristic.

The density of object ``i`` is the number of objects at strict distance
``< delta`` from it, self included, so every density is at least 1 and
dividing a distance by a density is always safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import Dataset, SpatialIndex, smallest_pairwise_distances
from .errors import DegenerateDataset, InvalidRadius, InvalidSpec
from .sampling import Sampler

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
    """Count, for every object, the objects within open radius ``delta``,
    on ``index``, which must be built over ``dataset`` itself."""
    if index.dataset is not dataset:
        raise InvalidSpec("index was built over another dataset")
    return DensityVector(index.density(delta), float(delta))


def pairwise_distance_percentiles(dataset: Dataset, percentiles: Sequence[float]) -> list[float]:
    """Low percentiles of the (sampled) positive pairwise distances.

    Distances are measured between min(N, SAMPLE_CAP) points sampled
    without replacement (``ecac.sampling``, seed SAMPLE_SEED); zero
    distances (duplicate points) are excluded. Each percentile p is taken as the
    ``int(p * count)``-th smallest distance, clamped to the last one. The
    distances are streamed in bounded blocks, and only the smallest are
    held (``smallest_pairwise_distances``). Each resolved percentile is
    kept, one float per fraction, in ``dataset.derived``, so the
    distances are sampled only when a requested fraction has not been
    resolved before; the sample itself is not kept.
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
            # Sorted, so the final shuffle of the picks is skipped.
            points = points[np.sort(Sampler(SAMPLE_SEED).choice(dataset.n, SAMPLE_CAP, shuffle=False))]
        # No percentile's position lies beyond the largest fraction's share
        # of all pairs, so only that many smallest distances are kept.
        pairs = points.shape[0] * (points.shape[0] - 1) // 2
        smallest, positives = smallest_pairwise_distances(points, int(missing[-1] * pairs) + 1)
        if positives == 0:
            raise DegenerateDataset("all sampled points coincide")
        for p in missing:
            kept[("percentile", p)] = float(smallest[min(int(p * positives), positives - 1)])
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
    return pairwise_distance_percentiles(dataset, [DEFAULT_PERCENTILE])[0]
