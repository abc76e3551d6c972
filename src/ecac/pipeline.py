"""End-to-end clustering runs, with and without the extended-center step."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .algorithms import CenterBasedAlgorithm
from .data import Dataset, GroundTruth
from .density import compute_densities, default_delta
from .errors import InvalidK
from .metrics import nmi, rand_index
from .optimizer import SelectionStrategy, identify_extended_centers, merge_clusters, trace_records

SCHEMA_VERSION = 1


@dataclass
class ClusteringResult:
    """One clustering run: labels, provenance, and (optional) scores.

    ``timings`` is the only nondeterministic part of a result; everything
    else is a pure function of the inputs and seeds.
    """

    algorithm: str
    k: int
    strategy: str
    labels: np.ndarray
    center_ids: list[int]
    extended_sets: list[list[int]]
    delta: float | None = None
    cap: int | None = None
    fallback_count: int = 0
    nmi_score: float | None = None
    ri_score: float | None = None
    timings: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)
    # The extension's per-selection trace as columns
    # (``ExtendedSets.steps``); dumped to a JSON-lines file on request,
    # never part of the result record itself.
    steps: tuple = field(default=((), (), (), ()), repr=False)

    @property
    def s(self) -> int:
        return sum(len(group) for group in self.extended_sets)

    @cached_property
    def trace(self) -> list[dict]:
        """The steps as records (``trace_records``), built on first read."""
        return trace_records(self.steps)

    def attach_metrics(self, truth: GroundTruth | None):
        if truth is not None:
            self.nmi_score = nmi(truth.labels, self.labels)
            self.ri_score = rand_index(truth.labels, self.labels)
        return self

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "algorithm": self.algorithm,
            "k": self.k,
            "strategy": self.strategy,
            "delta": self.delta,
            "cap": self.cap,
            "s": self.s,
            "fallback_count": self.fallback_count,
            "labels": _int_list(self.labels),
            "center_ids": _int_list(self.center_ids),
            "extended_sets": [_int_list(group) for group in self.extended_sets],
            "nmi": self.nmi_score,
            "ri": self.ri_score,
            "timings": dict(self.timings),
            "extras": dict(self.extras),
        }

    @classmethod
    def from_dict(cls, record: dict) -> "ClusteringResult":
        return cls(
            algorithm=record["algorithm"],
            k=record["k"],
            strategy=record["strategy"],
            labels=np.asarray(record["labels"], dtype=np.int64),
            center_ids=list(record["center_ids"]),
            extended_sets=[list(g) for g in record["extended_sets"]],
            delta=record.get("delta"),
            cap=record.get("cap"),
            fallback_count=record.get("fallback_count", 0),
            nmi_score=record.get("nmi"),
            ri_score=record.get("ri"),
            timings=record.get("timings", {}),
            extras=record.get("extras", {}),
        )


def _int_list(values) -> list[int]:
    """Integer values as a list of Python ints, converted in one call."""
    return np.asarray(values, dtype=np.int64).tolist()


def compute_centers(dataset: Dataset, algorithm: CenterBasedAlgorithm, k: int):
    """Run the center process; returns (center ids, metadata extras)."""
    if not 1 <= k <= dataset.n:
        raise InvalidK(f"k must be in 1..{dataset.n}, got {k}")
    ids, extras = algorithm.center_process(dataset, k)
    return [int(i) for i in ids], dict(extras)


def run_baseline(
    dataset: Dataset,
    algorithm: CenterBasedAlgorithm,
    k: int,
    centers: list[int] | None = None,
) -> ClusteringResult:
    """The unoptimized algorithm: assignment straight from the k centers."""
    extras = {}
    if centers is None:
        centers, extras = compute_centers(dataset, algorithm, k)
    t0 = time.perf_counter()
    labels = algorithm.assignment_process(dataset, centers)
    total_ms = 1000.0 * (time.perf_counter() - t0)
    return ClusteringResult(
        algorithm=algorithm.name,
        k=k,
        strategy="baseline",
        labels=np.asarray(labels, dtype=np.int64),
        center_ids=list(centers),
        extended_sets=[[c] for c in centers],
        timings={"total_ms": total_ms},
        extras=extras,
    )


def run_optimized(
    dataset: Dataset,
    algorithm: CenterBasedAlgorithm,
    k: int,
    delta: float | None = None,
    strategy: SelectionStrategy | None = None,
    centers: list[int] | None = None,
) -> ClusteringResult:
    """Center process, extended-center identification, assignment, merge."""
    strategy = strategy or SelectionStrategy()
    extras = {}
    if centers is None:
        centers, extras = compute_centers(dataset, algorithm, k)
    if delta is None:
        delta = default_delta(dataset)

    t0 = time.perf_counter()
    densities = compute_densities(dataset, dataset.index, delta)
    t1 = time.perf_counter()
    ext = identify_extended_centers(dataset, centers, delta, strategy, densities=densities)
    t2 = time.perf_counter()
    initial = algorithm.assignment_process(dataset, ext.all)
    labels = merge_clusters(initial, ext)
    t3 = time.perf_counter()

    result = ClusteringResult(
        algorithm=algorithm.name,
        k=k,
        strategy=strategy.kind,
        labels=labels,
        center_ids=list(centers),
        extended_sets=[list(group) for group in ext.sets],
        delta=float(delta),
        cap=strategy.cap,
        fallback_count=ext.fallback_count,
        timings={
            "total_ms": 1000.0 * (t3 - t0),
            "density_ms": 1000.0 * (t1 - t0),
            "extend_ms": 1000.0 * (t2 - t1),
            "assign_ms": 1000.0 * (t3 - t2),
        },
        extras=extras,
        steps=ext.steps,
    )
    result.extras["coverage_complete"] = ext.fully_covered
    return result
