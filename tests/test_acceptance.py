"""Acceptance gate: one test per criterion, printed as a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they complete. Every tolerance is pinned here, not configured elsewhere.
"""

import json
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from ecac.algorithms import build_algorithm
from ecac.cli import cmd_ablate, cmd_plot, cmd_run
from ecac.config import RunConfig
from ecac.data import Dataset, GroundTruth, SpatialIndex, generate_gaussian_mixture, load_csv
from ecac.density import compute_densities, default_delta, pairwise_distance_percentile
from ecac.metrics import nmi, rand_index
from ecac.optimizer import SelectionStrategy, identify_extended_centers
from ecac.pipeline import compute_centers, run_optimized

from oracles import nmi_direct, rand_index_pair_loop

DATA = Path(__file__).resolve().parent.parent / "data"


@contextmanager
def criterion(num, name):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num} {name}: FAIL ({time.perf_counter() - started:.1f}s)")
        raise
    print(f"\nACCEPTANCE {num} {name}: PASS ({time.perf_counter() - started:.1f}s)")


def random_labeling_pair(rng):
    n = int(rng.integers(2, 41))
    while True:
        u = rng.integers(0, min(5, n), size=n)
        v = rng.integers(0, min(5, n), size=n)
        if len(set(u.tolist())) > 1 and len(set(v.tolist())) > 1:
            return u, v


def test_criterion_1_metric_oracles():
    with criterion(1, "metric-oracles"):
        rng = np.random.default_rng(2024)
        start = time.perf_counter()
        for _ in range(1000):
            u, v = random_labeling_pair(rng)
            assert abs(nmi(u, v) - nmi_direct(u.tolist(), v.tolist())) <= 1e-12
            assert abs(rand_index(u, v) - rand_index_pair_loop(u.tolist(), v.tolist())) <= 1e-12
        assert time.perf_counter() - start < 5.0


def test_criterion_2_density_and_index_oracle():
    with criterion(2, "density-index-oracle"):
        rng = np.random.default_rng(7)
        for trial in range(50):
            d = 2 if trial % 2 == 0 else 5
            n = int(rng.integers(20, 501))
            pts = rng.uniform(-10, 10, size=(n, d))
            ds = Dataset(pts)
            index = SpatialIndex(ds)
            all_dists = cdist(pts, pts)
            delta = float(rng.uniform(0.5, 6.0))
            # Full quadratic scan as the density oracle.
            expected_rho = (all_dists < delta).sum(axis=1)
            got = compute_densities(ds, index, delta)
            assert got.rho.tolist() == expected_rho.tolist()
            for _ in range(5):
                center = rng.uniform(-12, 12, size=d)
                radius = float(rng.uniform(0.5, 8.0))
                expected = set(
                    np.flatnonzero(np.linalg.norm(pts - center, axis=1) < radius).tolist()
                )
                assert set(index.range_query_many([center], radius)[0].tolist()) == expected


def separated_mixture(seed):
    """A mixture whose inter-class gap provably exceeds the intra-class
    nearest-neighbor scale (verified numerically per instance)."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 6))
    spots = rng.choice(25, size=k, replace=False)
    means = np.column_stack([(spots % 5) * 45.0, (spots // 5) * 45.0])
    counts = rng.integers(30, 70, size=k).tolist()
    return generate_gaussian_mixture(k, counts, means, 1.0, seed=seed + 50_000)


def hypothesis_margins(ds, gt):
    """(max intra-class NN distance, min inter-class distance)."""
    dists = cdist(ds.points, ds.points)
    same = gt.labels[:, None] == gt.labels[None, :]
    np.fill_diagonal(dists, np.inf)
    max_intra_nn = np.where(same, dists, np.inf).min(axis=1).max()
    min_inter = dists[~same].min() if (~same).any() else np.inf
    return float(max_intra_nn), float(min_inter)


def test_criterion_3_extended_set_purity():
    with criterion(3, "extended-set-purity"):
        impure = 0
        for seed in range(100):
            ds, gt = separated_mixture(seed)
            max_intra_nn, min_inter = hypothesis_margins(ds, gt)
            assert min_inter > max_intra_nn, "construction must satisfy the hypothesis"
            rng = np.random.default_rng(seed + 1)
            centers = [
                int(rng.choice(np.flatnonzero(gt.labels == c)))
                for c in range(gt.k_true)
            ]
            ext = identify_extended_centers(ds, centers, default_delta(ds))
            assert ext.fully_covered
            for group in ext.sets:
                if len(set(gt.labels[group].tolist())) != 1:
                    impure += 1
        assert impure == 0  # exact, no tolerance


def test_criterion_4_termination_and_coverage():
    with criterion(4, "termination-coverage"):
        cases = []
        for name in ("spiral", "jain", "pathbased"):
            ds, gt = load_csv(DATA / f"{name}.csv", label_column=-1)
            cases.append((ds, gt.k_true))
        for seed in (11, 12):
            ds, gt = separated_mixture(seed)
            cases.append((ds, gt.k_true))
        for ds, k in cases:
            rng = np.random.default_rng(0)
            centers = rng.choice(ds.n, size=k, replace=False).tolist()
            ext = identify_extended_centers(ds, centers, default_delta(ds))
            assert len(ext.trace) <= ds.n - k
            assert ext.fully_covered
            assert len(ext.all) == k + len(ext.trace)
            assert len(set(ext.all)) == len(ext.all)
            covered = [t["covered"] for t in ext.trace]
            assert all(b >= a for a, b in zip(covered, covered[1:]))


def overlapping_s_style(seed):
    rng = np.random.default_rng(seed)
    grid = [
        (i * 60.0 + rng.uniform(-12, 12), j * 60.0 + rng.uniform(-12, 12))
        for i in range(5)
        for j in range(3)
    ]
    counts = rng.integers(110, 160, size=15)
    counts = (counts * 2000 / counts.sum()).astype(int)
    counts[0] += 2000 - counts.sum()
    return generate_gaussian_mixture(15, counts.tolist(), np.array(grid), 11.0, seed=seed + 1000)


def test_criterion_5_local_matches_global_and_is_faster():
    with criterion(5, "local-vs-global"):
        for seed in (1, 2, 3):
            ds, gt = overlapping_s_style(seed)
            d_c = pairwise_distance_percentile(ds, 0.02)
            alg = build_algorithm("dpc", d_c=d_c)
            centers, _ = compute_centers(ds, alg, 15)
            delta = pairwise_distance_percentile(ds, 0.02)
            local = run_optimized(
                ds, alg, 15, delta=delta, centers=centers,
                strategy=SelectionStrategy("local"),
            ).attach_metrics(gt)
            global_ = run_optimized(
                ds, alg, 15, delta=delta, centers=centers,
                strategy=SelectionStrategy("global"),
            ).attach_metrics(gt)
            assert abs(local.nmi_score - global_.nmi_score) <= 0.05
            # Faster in distance work, counted: the rows whose distance to a
            # new member is computed, in answers and in far-row folds.
            # Faster in time too, on the median of three interleaved runs.
            densities = compute_densities(ds, ds.index, delta)
            seconds = {"local": [], "global": []}
            work = {}
            for order in (("local", "global"), ("global", "local"), ("local", "global")):
                for kind in order:
                    start = time.perf_counter()
                    ext = identify_extended_centers(
                        ds, centers, delta, SelectionStrategy(kind), densities=densities
                    )
                    seconds[kind].append(time.perf_counter() - start)
                    work[kind] = ext.stats["candidates"] + ext.stats["far_rows"]
            assert work["local"] < work["global"]
            assert np.median(seconds["local"]) < np.median(seconds["global"])


def test_criterion_6_shaped_clusters(tmp_path):
    with criterion(6, "shaped-reproduction"):
        start = time.perf_counter()
        jobs = (("spiral", 3, "nmi", 0.9), ("jain", 2, "ri", 0.9))
        for name, k, metric, floor in jobs:
            config = RunConfig.from_sources(None, {
                "data": str(DATA / f"{name}.csv"), "label_col": -1,
                "algo": "kmeans", "k": k, "seed": 0,
                "out": str(tmp_path / name),
            })
            payload = cmd_run(config)
            best = payload["optimized"][metric]
            baseline = payload["baseline"][metric]
            assert best >= floor, f"{name}: best {metric}={best:.4f} < {floor}"
            assert baseline < best, f"{name}: baseline not strictly lower"
        assert time.perf_counter() - start < 10.0


def shaped_analogue(seed=4):
    """Six adjacent mixed-shape clusters at a few-thousand-point scale."""
    rng = np.random.default_rng(seed)
    parts, labels = [], []

    def add(pts, lab):
        parts.append(pts)
        labels.append(np.full(len(pts), lab))

    add(rng.normal([0, 0], 1.3, (900, 2)), 0)
    add(rng.normal([8, 1], 2.2, (450, 2)), 1)
    t = rng.uniform(0, 2 * np.pi, 600)
    add(np.column_stack([2 + 7 * np.cos(t), 14 + 5 * np.sin(t)])
        + rng.normal(0, 0.35, (600, 2)), 2)
    u = rng.uniform(-1, 1, 700)
    add(np.column_stack([-10 + 4 * u, 6 + 4 * u]) + rng.normal(0, 0.45, (700, 2)), 3)
    u = rng.uniform(-1, 1, 650)
    add(np.column_stack([16 + 5 * u, 12 + 0 * u]) + rng.normal(0, 0.55, (650, 2)), 4)
    t = rng.uniform(0.1 * np.pi, 0.9 * np.pi, 700)
    add(np.column_stack([-2 + 8 * np.cos(t), -10 + 5 * np.sin(t)])
        + rng.normal(0, 0.4, (700, 2)), 5)
    return Dataset(np.vstack(parts)), GroundTruth(np.concatenate(labels), 6)


def write_csv(path, ds, gt):
    with open(path, "w", encoding="utf-8") as fh:
        for (x, y), label in zip(ds.points, gt.labels):
            fh.write(f"{x:.6f},{y:.6f},{int(label)}\n")


def test_criterion_7_ablation_directions(tmp_path):
    with criterion(7, "ablation-direction"):
        analogue = tmp_path / "shaped6.csv"
        ds, gt = shaped_analogue()
        write_csv(analogue, ds, gt)
        cases = [
            (str(DATA / "pathbased.csv"), 3, 0.10),
            (str(analogue), 6, 0.02),
        ]
        for path, k, dc_pct in cases:
            dataset, _ = load_csv(path, label_column=-1)
            d_c = pairwise_distance_percentile(dataset, dc_pct)
            base_flags = {
                "data": path, "label_col": -1, "algo": "dpc", "k": k,
                "seed": 0, "d_c": d_c, "out": str(tmp_path / "ablate"),
            }
            config = RunConfig.from_sources(None, dict(base_flags))
            strategies = cmd_ablate(config, ["local", "random"])["variants"]
            assert strategies["local"]["nmi"] >= strategies["random"]["nmi"]
            config = RunConfig.from_sources(None, dict(base_flags))
            capped = cmd_ablate(config, ["local", "nodensity"])["variants"]
            assert capped["local"]["nmi"] >= capped["nodensity"]["nmi"]


def test_criterion_8_real_dataset_direction(tmp_path):
    with criterion(8, "real-datasets"):
        available = [p for p in (DATA / "wifi_loc.csv", DATA / "banknote.csv") if p.exists()]
        if not available:
            pytest.skip(
                "KEEL files not supplied (drop wifi_loc.csv / banknote.csv into data/)"
            )
        for path in available:
            ds, gt = load_csv(path, label_column=-1)
            config = RunConfig.from_sources(None, {
                "data": str(path), "label_col": -1, "algo": "kmeans",
                "k": gt.k_true, "seed": 0, "out": str(tmp_path / path.stem),
            })
            payload = cmd_run(config)
            if payload["optimized"]["nmi"] < payload["baseline"]["nmi"]:
                pytest.xfail(f"{path.name}: optimized NMI below baseline (non-blocking)")


def test_criterion_9_determinism(tmp_path):
    with criterion(9, "determinism"):
        for strategy in ("local", "random"):
            payloads = []
            svgs = []
            for run_dir in ("a", "b"):
                config = RunConfig.from_sources(None, {
                    "data": str(DATA / "spiral.csv"), "label_col": -1,
                    "algo": "kmeans", "k": 3, "seed": 0,
                    "strategy": strategy, "delta_percentile": 0.01,
                    "out": str(tmp_path / strategy / run_dir),
                })
                payloads.append(cmd_run(config))
                svg = cmd_plot(
                    tmp_path / strategy / run_dir / "result.json", "extended-sets"
                )
                svgs.append(svg.read_bytes())
            first, second = payloads
            assert first["optimized"]["labels"] == second["optimized"]["labels"]
            assert first["optimized"]["extended_sets"] == second["optimized"]["extended_sets"]
            assert svgs[0] == svgs[1]
