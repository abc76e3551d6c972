#!/usr/bin/env python3
"""Time the extension loop (``identify_extended_centers``) in-process.

    python3 scripts/extension_timing.py
    python3 scripts/extension_timing.py --src old/src --src src --repeats 7

The inputs are those of the three benchmark workloads, written by the
benchmark's own ``Workload.write_input`` (``perfbench/workloads.py``)
and read back, plus a 20,001-point spiral
(``make_benchmarks.spiral(n_per_arm=6667, seed=7)``, kmeans k = 3,
default delta, local strategy):

* ``sweep-spiral-kmeans``: n = 1,500 spiral, kmeans k = 3 centers, the
  five swept deltas, local strategy;
* ``blobs-dpc-capped``: 4 Gaussian blobs, n = 10,000, DPC k = 4 centers,
  default delta, local strategy capped at 100 per set;
* ``ablate-spiral-global``: n = 1,200 spiral, kmeans k = 3, default
  delta, local and global strategy;
* ``spiral-20k``: the 20,001-point spiral above.

Centers, deltas and densities are computed before the clock starts; the
time of an input is the sum of its ``identify_extended_centers`` calls.
Each ``--src`` directory is imported as its own copy of the package, so
two checkouts are compared in one process: every repeat times each
input once per checkout, and the order of the checkouts alternates from
repeat to repeat. The script prints, per input and checkout, the median
time, the tree calls, the neighbour lists fetched against those used
(one per member) and the peak count of fetched-but-unused list entries.
A checkout whose extension keeps no such counters prints ``-``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import importlib.util
import io
import statistics
import sys
import tempfile
import time
from pathlib import Path

import make_benchmarks

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from workloads import WORKLOADS  # noqa: E402

INPUTS = (*WORKLOADS, "spiral-20k")


def load_package(src: Path, alias: str):
    """The ``ecac`` package under ``src``, imported under the name ``alias``."""
    package = src / "ecac"
    spec = importlib.util.spec_from_file_location(
        alias, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[alias] = module
    spec.loader.exec_module(module)
    return module


def write_input(name: str, seed: int, path: Path):
    """Write the input's CSV, points then label, as the benchmark does;
    spiral-20k, which no workload runs, through its own generator call."""
    if name in WORKLOADS:
        WORKLOADS[name].write_input(ROOT, seed, path)
        return
    points, labels = make_benchmarks.spiral(n_per_arm=6667, seed=7)
    with contextlib.redirect_stdout(io.StringIO()):  # write_csv reports each file
        make_benchmarks.write_csv(path, points, labels)


def prepare(name: str, csv_path: Path, ecac):
    """The input's extension calls as (dataset, centers, delta, strategy,
    densities) tuples, with everything but the extension computed."""
    config = importlib.import_module(ecac.__name__ + ".config")
    dataset, _ = ecac.load_csv(csv_path, label_column=-1)
    algo, k = ("dpc", 4) if name == "blobs-dpc-capped" else ("kmeans", 3)
    centers, _ = ecac.build_algorithm(algo).center_process(dataset, k)
    centers = [int(c) for c in centers]
    if name == "sweep-spiral-kmeans":
        density = importlib.import_module(ecac.__name__ + ".density")
        deltas = density.pairwise_distance_percentiles(dataset, list(config.DEFAULT_SWEEP))
    else:
        deltas = [ecac.pairwise_distance_percentile(dataset, config.DEFAULT_PERCENTILE)]
    if name == "blobs-dpc-capped":
        strategies = [ecac.SelectionStrategy(cap=100)]
    elif name == "ablate-spiral-global":
        strategies = [ecac.SelectionStrategy("local"), ecac.SelectionStrategy("global")]
    else:
        strategies = [ecac.SelectionStrategy("local")]
    return [
        (dataset, centers, delta, strategy, ecac.compute_densities(dataset, dataset.index, delta))
        for delta in deltas
        for strategy in strategies
    ]


def time_calls(ecac, calls):
    """Seconds for the calls, and their summed counters (None when the
    extension keeps none)."""
    gc.collect()
    start = time.perf_counter()
    results = [
        ecac.identify_extended_centers(dataset, centers, delta, strategy, densities=densities)
        for dataset, centers, delta, strategy, densities in calls
    ]
    seconds = time.perf_counter() - start
    stats = [getattr(ext, "stats", None) or None for ext in results]
    if None in stats:
        return seconds, None
    counters = {
        "tree_calls": sum(s["tree_calls"] for s in stats),
        "lists_fetched": sum(s["lists_fetched"] for s in stats),
        "lists_used": sum(ext.s for ext in results),
        "peak_pending_entries": max(s["peak_pending_entries"] for s in stats),
    }
    return seconds, counters


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", action="append", type=Path,
                        help="a checkout's src directory; repeat to compare (default: this one)")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0, help="seed of the benchmark inputs")
    parser.add_argument("--inputs", default=",".join(INPUTS),
                        help=f"comma-separated subset of {','.join(INPUTS)}")
    args = parser.parse_args(argv)
    srcs = args.src or [ROOT / "src"]
    names = args.inputs.split(",")
    unknown = sorted(set(names) - set(INPUTS))
    if unknown:
        parser.error(f"unknown input(s): {', '.join(unknown)}")

    packages = [load_package(src.resolve(), f"ecac_timed_{i}") for i, src in enumerate(srcs)]
    print(f"{'input':22s}{'src':>5s}{'median s':>10s}{'tree calls':>12s}"
          f"{'fetched/used':>16s}{'peak pending':>14s}")
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            csv_path = Path(tmp) / f"{name}.csv"
            write_input(name, args.seed, csv_path)
            calls = [prepare(name, csv_path, ecac) for ecac in packages]
            times = [[] for _ in packages]
            counters = [None] * len(packages)
            for repeat in range(args.repeats):
                order = range(len(packages)) if repeat % 2 == 0 else reversed(range(len(packages)))
                for i in order:
                    seconds, counters[i] = time_calls(packages[i], calls[i])
                    times[i].append(seconds)
            for i, src_times in enumerate(times):
                c = counters[i]
                fetched = f"{c['lists_fetched']}/{c['lists_used']}" if c else "-"
                print(
                    f"{name:22s}{i:>5d}{statistics.median(src_times):>10.3f}"
                    f"{c['tree_calls'] if c else '-':>12}{fetched:>16s}"
                    f"{c['peak_pending_entries'] if c else '-':>14}",
                    flush=True,
                )
    for i, src in enumerate(srcs):
        print(f"src {i}: {src}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
