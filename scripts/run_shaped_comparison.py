#!/usr/bin/env python3
"""Before/after comparison of K-means and DPC on the shape benchmarks,
then the selection-strategy ablations.

For each dataset under data/ this runs the plain algorithm and the
extended-center-optimized pipeline on shared centers, sweeps the
neighborhood radius, and prints one table row per (dataset, algorithm)
with the baseline scores, the best optimized scores, and improvement
rates (results and SVG plots in <out>/<dataset>-<algo>/). Then, per
dataset and on shared DPC centers, it prints accuracy, extension time,
set count and fallbacks of the local, global and random strategies
(<out>/<dataset>-dpc-strategies/), and of local against nodensity under
the count-matched parity cap, so both identify the same number of
extended-centers (<out>/<dataset>-dpc-parity/).
"""

from __future__ import annotations

import argparse
from pathlib import Path

from ecac.cli import cmd_ablate, cmd_plot, cmd_run
from ecac.config import RunConfig
from ecac.data import load_csv
from ecac.density import pairwise_distance_percentile
from ecac.metrics import improvement_rate

ROOT = Path(__file__).resolve().parent.parent
DATASETS = {"spiral": 3, "jain": 2, "pathbased": 3}
# DPC wants a coarser cutoff on the small shape sets than its 2% default.
DPC_CUTOFF_PERCENTILE = 0.1


def run_config(name: str, algo: str, seed: int, out: Path) -> RunConfig:
    """The flags of one run on data/<name>.csv, with the DPC cutoff above."""
    data_path = ROOT / "data" / f"{name}.csv"
    flags = {
        "data": str(data_path), "label_col": -1, "algo": algo,
        "k": DATASETS[name], "seed": seed, "out": str(out),
    }
    if algo == "dpc":
        dataset, _ = load_csv(data_path, label_column=-1)
        flags["d_c"] = pairwise_distance_percentile(dataset, DPC_CUTOFF_PERCENTILE)
    return RunConfig.from_sources(None, flags)


def gain(baseline, optimized) -> str:
    if not baseline:
        return "n/a"
    return f"{improvement_rate(baseline, optimized):+.1f}%"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=ROOT / "results" / "shaped")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--plots", action="store_true", help="also render SVGs")
    args = parser.parse_args()

    print(f"{'dataset':12s}{'algo':8s}{'base NMI':>10s}{'opt NMI':>10s}{'gain':>10s}"
          f"{'base RI':>10s}{'opt RI':>10s}{'gain':>10s}{'s':>7s}")
    for name in DATASETS:
        for algo in ("kmeans", "dpc"):
            config = run_config(name, algo, args.seed, args.out / f"{name}-{algo}")
            payload = cmd_run(config, quiet=True)
            base, best = payload["baseline"], payload["optimized"]
            print(
                f"{name:12s}{algo:8s}"
                f"{base['nmi']:>10.4f}{best['nmi']:>10.4f}{gain(base['nmi'], best['nmi']):>10s}"
                f"{base['ri']:>10.4f}{best['ri']:>10.4f}{gain(base['ri'], best['ri']):>10s}"
                f"{best['s']:>7d}"
            )
            if args.plots:
                result = Path(config.out) / "result.json"
                cmd_plot(result, "clusters")
                cmd_plot(result, "extended-sets")

    for name, k in DATASETS.items():
        print(f"\n== {name} (k={k}) ==")
        config = run_config(name, "dpc", args.seed, args.out / f"{name}-dpc-strategies")
        cmd_ablate(config, ["local", "global", "random"])
        print("-- parity-capped density comparison --")
        config = run_config(name, "dpc", args.seed, args.out / f"{name}-dpc-parity")
        cmd_ablate(config, ["local", "nodensity"])


if __name__ == "__main__":
    main()
