"""Extended-center optimization for center-based clustering."""

from .algorithms import (
    CenterBasedAlgorithm,
    DpcQuantities,
    build_algorithm,
    compute_dpc_quantities,
    dpc_assignment,
    dpc_center_process,
    kmeans_center_process,
    nearest_center_assignment,
)
from .data import Dataset, GroundTruth, SpatialIndex, generate_gaussian_mixture, load_csv
from .density import DensityVector, compute_densities, default_delta, pairwise_distance_percentile
from .metrics import improvement_rate, nmi, pair_confusion, rand_index
from .optimizer import (
    ExtendedSets,
    SelectionStrategy,
    identify_extended_centers,
    merge_clusters,
)
from .pipeline import ClusteringResult, run_baseline, run_optimized

__version__ = "0.1.0"

__all__ = [
    "CenterBasedAlgorithm",
    "ClusteringResult",
    "Dataset",
    "DensityVector",
    "DpcQuantities",
    "ExtendedSets",
    "GroundTruth",
    "SelectionStrategy",
    "SpatialIndex",
    "build_algorithm",
    "compute_densities",
    "compute_dpc_quantities",
    "default_delta",
    "dpc_assignment",
    "dpc_center_process",
    "generate_gaussian_mixture",
    "identify_extended_centers",
    "improvement_rate",
    "kmeans_center_process",
    "load_csv",
    "merge_clusters",
    "nearest_center_assignment",
    "nmi",
    "pair_confusion",
    "pairwise_distance_percentile",
    "rand_index",
    "run_baseline",
    "run_optimized",
]
