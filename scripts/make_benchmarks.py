#!/usr/bin/env python3
"""Regenerate the seeded shape benchmarks committed under data/.

Each file mimics a classic clustering benchmark's size, cluster count,
and geometry: three intertwined spiral arms (312 points, 3 clusters),
two crescents of different density (373 points, 2 clusters), and a ring
enclosing two blobs (300 points, 3 clusters). Fixed seeds; running this
script twice produces identical files.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

DATA_DIR = Path(__file__).resolve().parent.parent / "data"


def spiral(n_per_arm=104, turns_start=3.0, turns_end=13.0, jitter=0.05, seed=2024):
    rng = np.random.default_rng(seed)
    points, labels = [], []
    for arm in range(3):
        t = np.linspace(turns_start, turns_end, n_per_arm)
        angle = t + arm * 2.0 * np.pi / 3.0
        x = t * np.cos(angle) + rng.normal(0, jitter, n_per_arm)
        y = t * np.sin(angle) + rng.normal(0, jitter, n_per_arm)
        points.append(np.column_stack([x, y]))
        labels.append(np.full(n_per_arm, arm + 1))
    return np.vstack(points), np.concatenate(labels)


def jain(n_lower=276, n_upper=97, sep=26.0, shift=20.0, noise=0.6, seed=2025):
    rng = np.random.default_rng(seed)
    # Dense lower crescent bulging up, sparse upper crescent bulging down,
    # offset so the arcs run roughly parallel with a clear gap.
    t = rng.uniform(0.0, np.pi, n_lower)
    lower = np.column_stack([20.0 * np.cos(t), 12.0 * np.sin(t)])
    lower += rng.normal(0, noise, (n_lower, 2))
    t = rng.uniform(0.0, np.pi, n_upper)
    upper = np.column_stack([shift - 20.0 * np.cos(t), sep - 12.0 * np.sin(t)])
    upper += rng.normal(0, noise, (n_upper, 2))
    points = np.vstack([lower, upper])
    labels = np.concatenate([np.full(n_lower, 1), np.full(n_upper, 2)])
    return points, labels


def pathbased(n_ring=110, n_blob=95, seed=2026):
    rng = np.random.default_rng(seed)
    t = np.linspace(0.0, 2.0 * np.pi, n_ring, endpoint=False)
    ring = np.column_stack(
        [14.0 * np.cos(t), 14.0 * np.sin(t)]
    ) + rng.normal(0, 0.45, (n_ring, 2))
    blob_a = rng.normal([-5.0, 0.0], 1.4, (n_blob, 2))
    blob_b = rng.normal([5.0, 0.0], 1.4, (n_blob, 2))
    points = np.vstack([ring, blob_a, blob_b])
    labels = np.concatenate(
        [np.full(n_ring, 1), np.full(n_blob, 2), np.full(n_blob, 3)]
    )
    return points, labels


def write_csv(path: Path, points: np.ndarray, labels: np.ndarray):
    """One row per point: its coordinates to 6 decimals, then its label."""
    with path.open("w", encoding="utf-8") as fh:
        for row, label in zip(points, labels):
            fh.write("".join(f"{x:.6f}," for x in row) + f"{int(label)}\n")
    print(f"wrote {path} ({len(points)} rows)")


def main():
    DATA_DIR.mkdir(parents=True, exist_ok=True)
    for name, make in (("spiral", spiral), ("jain", jain), ("pathbased", pathbased)):
        points, labels = make()
        write_csv(DATA_DIR / f"{name}.csv", points, labels)


if __name__ == "__main__":
    main()
