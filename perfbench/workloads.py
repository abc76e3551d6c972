"""The benchmark's workloads: seeded inputs, the `ecac` command each runs,
and a traced replay of that command through ecac's public layer functions.

Importing this module imports ecac, so the caller puts the checkout's
``src`` directory on ``sys.path`` first.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import ecac
from ecac.config import DEFAULT_PERCENTILE, DEFAULT_SWEEP, RunConfig
from ecac.optimizer import SelectionStrategy
from ecac.pipeline import compute_centers, run_baseline


def _load_make_benchmarks(root: Path):
    """scripts/make_benchmarks.py by path: scripts/ is not a package."""
    path = root / "scripts" / "make_benchmarks.py"
    spec = importlib.util.spec_from_file_location("make_benchmarks", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "run" or "ablate"
    shape: str  # "spiral" or "blobs"
    n: int
    options: dict  # RunConfig fields, also rendered as CLI flags
    # Lowest acceptable nmi / ri over the optimized records, recorded at the
    # commit that introduced the benchmark, over seeds 0..19, minus a margin.
    floors: dict = field(default_factory=dict)
    variants: tuple = ()

    def write_input(self, root: Path, seed: int, path: Path):
        """Write the seeded input CSV; the same seed gives the same file."""
        mb = _load_make_benchmarks(root)
        if self.shape == "spiral":
            points, labels = mb.spiral(n_per_arm=self.n // 3, seed=seed)
        else:
            k = self.options["k"]
            dataset, truth = ecac.generate_gaussian_mixture(
                k, self.n // k, BLOB_MEANS[:k], BLOB_STDDEV, seed
            )
            points, labels = dataset.points, truth.labels
        with contextlib.redirect_stdout(io.StringIO()):  # write_csv reports each file
            mb.write_csv(path, points, labels)

    def argv(self, csv_path: Path, out_dir: Path) -> list[str]:
        args = [self.command, "--data", str(csv_path), "--label-col", "-1"]
        for key, value in self.options.items():
            args += ["--" + key.replace("_", "-"), str(value)]
        if self.variants:
            args += ["--variants", ",".join(self.variants)]
        return args + ["--out", str(out_dir)]

    def config(self, csv_path: Path) -> RunConfig:
        flags = {"data": str(csv_path), "label_col": -1, **self.options}
        return RunConfig.from_sources(None, flags)


BLOB_MEANS = [[0.0, 0.0], [12.0, 0.0], [0.0, 12.0], [12.0, 12.0]]
BLOB_STDDEV = 2.0

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sweep-spiral-kmeans",
            command="run",
            shape="spiral",
            n=1500,
            options={"algo": "kmeans", "k": 3},
            floors={"nmi": 0.5, "ri": 0.75},
        ),
        Workload(
            name="blobs-dpc-capped",
            command="run",
            shape="blobs",
            n=10000,
            options={"algo": "dpc", "k": 4, "cap": 100, "delta_percentile": DEFAULT_PERCENTILE},
            floors={"nmi": 0.95, "ri": 0.99},
        ),
        Workload(
            name="ablate-spiral-global",
            command="ablate",
            shape="spiral",
            n=1200,
            options={"algo": "kmeans", "k": 3},
            floors={"nmi": 0.95, "ri": 0.99},
            variants=("local", "global"),
        ),
    )
}


# ---------------------------------------------------------------------------
# Traced replay. Each function mirrors the order of calls in ecac.cli's
# cmd_run / cmd_ablate (and pipeline.run_optimized inside them), with one
# span per layer call, run serially in this process.

def _prepare(tracer, config: RunConfig):
    with tracer.span("data.load_csv"):
        dataset, truth = config.load_dataset()
    with tracer.span("algorithms.centers"):
        algorithm = ecac.build_algorithm(
            config.algo, seed=config.seed, max_iter=config.max_iter, d_c=config.d_c
        )
        centers, _ = compute_centers(dataset, algorithm, config.k)
    with tracer.span("data.index_build"):
        index = ecac.SpatialIndex(dataset)
    return dataset, truth, algorithm, centers, index


def _optimized(tracer, dataset, truth, algorithm, centers, index, delta, strategy):
    """pipeline.run_optimized, one layer call per span; returns (labels, (nmi, ri))."""
    with tracer.span("density.densities"):
        densities = ecac.compute_densities(dataset, index, delta)
    with tracer.span("optimizer.extend"):
        ext = ecac.identify_extended_centers(
            dataset, centers, delta, strategy, index=index, densities=densities
        )
    with tracer.span("algorithms.assign"):
        initial = algorithm.assignment_process(dataset, ext.all)
    with tracer.span("optimizer.merge"):
        labels = ecac.merge_clusters(initial, ext)
    with tracer.span("metrics.score"):
        scores = ecac.nmi(truth.labels, labels), ecac.rand_index(truth.labels, labels)

    # Counts, taken outside the spans above.
    n = dataset.n
    tracer.count("density.rho_sum", float(densities.rho.sum()))
    tracer.count("density.rho_objects", n)
    tracer.peak("algorithms.assign_matrix_bytes", 8.0 * n * ext.s)  # computed, not measured
    tracer.count("optimizer.steps", len(ext.trace))
    tracer.count("optimizer.s_over_n_sum", ext.s / n)
    tracer.count("optimizer.extensions", 1)
    tracer.count("optimizer.fallbacks", ext.fallback_count)
    start_ids = index.range_query_many(dataset.points[centers], delta)
    covered = len(np.unique(np.concatenate(start_ids)))
    for step in ext.trace:
        if step["covered"] > covered:
            tracer.count("optimizer.useful_steps")
        covered = step["covered"]
    return labels, scores


def traced_run(workload: Workload, csv_path: Path, tracer) -> list[np.ndarray]:
    """Replay the workload's command under spans; returns the labels to digest."""
    config = workload.config(csv_path)
    with tracer.span(f"cli.{workload.command}"):
        if workload.command == "run":
            return _traced_cmd_run(tracer, config)
        return _traced_cmd_ablate(tracer, config, workload.variants)


def _traced_cmd_run(tracer, config: RunConfig):
    dataset, truth, algorithm, centers, index = _prepare(tracer, config)
    with tracer.span("algorithms.assign"):  # the baseline: assignment from the k centers
        baseline = run_baseline(dataset, algorithm, config.k, centers=centers)
    with tracer.span("metrics.score"):
        baseline.attach_metrics(truth)
    with tracer.span("density.percentile"):
        fractions = (
            [config.delta_percentile] if config.delta_percentile is not None else DEFAULT_SWEEP
        )
        deltas = [ecac.pairwise_distance_percentile(dataset, p) for p in fractions]
    strategy = SelectionStrategy(kind=config.strategy, cap=config.cap)
    sweep = [
        _optimized(tracer, dataset, truth, algorithm, centers, index, delta, strategy)
        for delta in deltas
    ]
    best = max(sweep, key=lambda entry: entry[1][0])  # first highest NMI, as cmd_run
    return [best[0]]


def _traced_cmd_ablate(tracer, config: RunConfig, variants):
    dataset, truth, algorithm, centers, index = _prepare(tracer, config)
    with tracer.span("density.percentile"):
        percentile = (
            config.delta_percentile if config.delta_percentile is not None else DEFAULT_PERCENTILE
        )
        delta = ecac.pairwise_distance_percentile(dataset, percentile)
    labels = []
    for kind in variants:
        strategy = SelectionStrategy(kind=kind, cap=config.cap)
        labels.append(
            _optimized(tracer, dataset, truth, algorithm, centers, index, delta, strategy)[0]
        )
    return labels


LAYER_SPANS = (
    "data.load_csv",
    "data.index_build",
    "density.percentile",
    "density.densities",
    "algorithms.centers",
    "algorithms.assign",
    "optimizer.extend",
    "optimizer.merge",
    "metrics.score",
)


def layer_metrics(tracer, run_s: float) -> dict[str, float]:
    """Per-layer numbers from one traced replay; ``run_s`` is the untraced median."""
    root = next(s for s in tracer.spans if s["parent"] is None)
    counts = tracer.counts
    out = {f"{name}_s": tracer.total(name) for name in LAYER_SPANS}
    spans_s = sum(out.values())
    out.update({
        "density.rho_mean": counts["density.rho_sum"] / counts["density.rho_objects"],
        "algorithms.assign_matrix_bytes": counts["algorithms.assign_matrix_bytes"],
        "optimizer.steps": counts["optimizer.steps"],
        "optimizer.s_per_n": counts["optimizer.s_over_n_sum"] / counts["optimizer.extensions"],
        "optimizer.fallbacks": counts["optimizer.fallbacks"],
        "optimizer.useful_step_ratio": counts["optimizer.useful_steps"] / counts["optimizer.steps"],
        "cli.self_s": run_s - spans_s,
        "trace.overhead_s": tracer.self_time(root),
    })
    return out
