#!/usr/bin/env python3
"""Time the extension loop (``identify_extended_centers``) in-process.

    python3 scripts/extension_timing.py
    python3 scripts/extension_timing.py --src old/src --src src --repeats 7

The inputs are those of the three benchmark workloads, written by the
benchmark's own ``Workload.write_input`` (``perfbench/workloads.py``)
and read back, plus a 20,001-point spiral
(``make_benchmarks.spiral(n_per_arm=6667, seed=7)``, kmeans k = 3,
default delta, local strategy), the benchmark's blobs at n = 50,000 and
two inputs of moderate dimension:

* ``sweep-spiral-kmeans``: n = 1,500 spiral, kmeans k = 3 centers, the
  five swept deltas, local strategy;
* ``blobs-dpc-capped``: 4 Gaussian blobs, n = 10,000, DPC k = 4 centers,
  default delta, local strategy capped at 100 per set;
* ``ablate-spiral-global``: n = 1,200 spiral, kmeans k = 3, default
  delta, local and global strategy;
* ``spiral-20k``: the 20,001-point spiral above;
* ``blobs-50k-capped``: ``blobs-dpc-capped`` with 12,500 points per
  blob, written the same way (``make_benchmarks.write_csv``);
* ``blobs-10k-4d`` and ``blobs-10k-8d``: 4 Gaussian blobs of 2,500
  points in 4 and 8 dimensions (``generate_gaussian_mixture``, means on
  the corners of a 12 x 12 square in the first two axes, standard
  deviation 2, seed 0), kmeans k = 4 centers, default delta, local
  strategy, written with every digit by ``np.savetxt``.

Centers, deltas, and each delta's count and candidate runs
(``prepare_extension``, as ``ecac ablate`` builds them before its fork)
are computed before the clock starts; the time of an input is the sum of
its ``identify_extended_centers`` calls. A dataset keeps the runs of one
radius only, so the sweep's calls still build theirs. Two more times
are those of the grid passes that the clock leaves out, each on a fresh
``Dataset`` of the input's points in every repeat: ``prepare s``, the
``prepare_extension`` calls (the count at delta and the runs at 2*delta)
of the input's deltas, and, on the blob inputs, ``dpc s``, DPC's
quantities (``compute_dpc_quantities``) at the input's default delta.
Each ``--src`` directory is imported as its own copy of the package, so
two checkouts are compared in one process: every repeat times each
input once per checkout, and the order of the checkouts alternates from
repeat to repeat. The script prints, per input and checkout, the median
wall time (``median s``) and the median CPU time of the process
(``time.process_time``, ``cpu s``) of the input's calls, the megabytes
of candidate-run ids that the input's extensions gathered
(``gathered MB``) and the blocks of runs that they read out of
all blocks (``blocks``), both summed over the deltas and taken in one
more untimed pass on a fresh ``Dataset``, and three counters of
``ExtendedSets.stats`` summed over the input's calls: ``run_entries``,
the ids held by the blocks of candidate runs that the radius queries
read, ``candidates``, the non-members whose distances to a new member
were computed in its answer, and ``far_rows``, the rows whose distances
were computed in far-row folds. A checkout that gathers a radius's runs
whole prints all of its ids as gathered and ``-`` for the blocks; one
whose extension does not keep a counter prints ``-`` for it, as does an
input without a ``dpc s``. The last two columns, ``prepare MB`` and
``dpc MB``, are the traced peaks (``tracemalloc``, MB over what was held
before the call) of the same two grid-pass calls, taken in one more
repeat that is not timed; they include what the calls keep, such as the
grid, the counts and the candidate runs. With more than one ``--src``,
two paired columns close the rows of every checkout after the first:
``cpu/src0``, the median over the repeats of the ratio of its CPU time
to the first checkout's in the same repeat, and ``faster``, the repeats
in which its CPU time was the lower of the two, out of all repeats. A
pair times both checkouts back to back, so a slow spell of the host
falls on both sides of most ratios, which the medians per checkout do
not cancel.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import importlib
import importlib.util
import io
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import make_benchmarks
import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from ecac import generate_gaussian_mixture  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# The blob inputs of moderate dimension, by name: their dimension.
BLOBS = {"blobs-10k-4d": 4, "blobs-10k-8d": 8}
# The inputs that a benchmark workload writes: its own, and those of its
# capped DPC workload at n = 50,000.
WRITTEN = {
    **WORKLOADS,
    "blobs-50k-capped": dataclasses.replace(WORKLOADS["blobs-dpc-capped"], n=50000),
}
CAPPED = ("blobs-dpc-capped", "blobs-50k-capped")
INPUTS = (*WORKLOADS, "spiral-20k", "blobs-50k-capped", *BLOBS)
# The inputs whose DPC quantities are timed: the DPC workloads' 2-D blobs
# and the blobs of moderate dimension.
DPC_TIMED = (*CAPPED, *BLOBS)


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
    the inputs that no workload runs through their own generator calls,
    the blobs of moderate dimension with every digit of their
    coordinates."""
    if name in WRITTEN:
        WRITTEN[name].write_input(ROOT, seed, path)
        return
    if name in BLOBS:
        means = np.zeros((4, BLOBS[name]))
        means[[1, 3], 0] = 12.0
        means[[2, 3], 1] = 12.0
        dataset, truth = generate_gaussian_mixture(4, 2500, means, 2.0, 0)
        np.savetxt(path, np.column_stack((dataset.points, truth.labels)), fmt="%.17g", delimiter=",")
        return
    points, labels = make_benchmarks.spiral(n_per_arm=6667, seed=7)
    with contextlib.redirect_stdout(io.StringIO()):  # write_csv reports each file
        make_benchmarks.write_csv(path, points, labels)


def prepare(name: str, csv_path: Path, ecac):
    """The input's extension calls as (dataset, centers, delta, strategy)
    tuples, with everything but the extension computed."""
    config = importlib.import_module(ecac.__name__ + ".config")
    density = importlib.import_module(ecac.__name__ + ".density")
    optimizer = importlib.import_module(ecac.__name__ + ".optimizer")
    dataset, _ = ecac.load_csv(csv_path, label_column=-1)
    algo, k = ("dpc", 4) if name in CAPPED else ("kmeans", 4 if name in BLOBS else 3)
    centers, _ = ecac.build_algorithm(algo).center_process(dataset, k)
    centers = [int(c) for c in centers]
    sweep = name == "sweep-spiral-kmeans"
    fractions = list(config.DEFAULT_SWEEP) if sweep else [config.DEFAULT_PERCENTILE]
    deltas = density.pairwise_distance_percentiles(dataset, fractions)
    if name in CAPPED:
        strategies = [ecac.SelectionStrategy(cap=100)]
    elif name == "ablate-spiral-global":
        strategies = [ecac.SelectionStrategy("local"), ecac.SelectionStrategy("global")]
    else:
        strategies = [ecac.SelectionStrategy("local")]
    for delta in deltas:
        optimizer.prepare_extension(dataset, delta)
    return [(dataset, centers, delta, strategy) for delta in deltas for strategy in strategies]


COUNTERS = ("run_entries", "candidates", "far_rows")


def time_calls(ecac, calls):
    """Wall and CPU seconds for the calls, and their summed counters (None
    where the extension does not keep one)."""
    gc.collect()
    start, cpu = time.perf_counter(), time.process_time()
    results = [ecac.identify_extended_centers(*call) for call in calls]
    seconds, cpu = time.perf_counter() - start, time.process_time() - cpu
    stats = [getattr(ext, "stats", None) or {} for ext in results]
    counters = {
        key: sum(s[key] for s in stats) if all(key in s for s in stats) else None
        for key in COUNTERS
    }
    return seconds, cpu, counters


def gathered(ecac, calls):
    """The megabytes of candidate-run ids that the calls' extensions
    gather on a fresh ``Dataset`` of the calls' points, and the blocks of
    runs gathered and all blocks, each summed over the calls' radii
    (None for a checkout that gathers a radius's runs whole). The calls
    of one delta are consecutive, and the dataset keeps the runs of its
    last radius, so those runs hold what that radius's calls gathered."""
    dataset = ecac.Dataset(calls[0][0].points)
    kept = {}
    for _, *args in calls:
        ecac.identify_extended_centers(dataset, *args)
        radius, runs = dataset.derived["runs"]
        kept[radius] = runs
    if not all(hasattr(runs, "blocks") for runs in kept.values()):
        return sum(runs[-1].nbytes for runs in kept.values()) / 1e6, None
    blocks = [block for runs in kept.values() for block in runs.blocks]
    read = [block for block in blocks if block is not None]
    return sum(block.nbytes for block in read) / 1e6, (len(read), len(blocks))


def seconds(call) -> float:
    """The wall time of call(), in seconds."""
    start = time.perf_counter()
    call()
    return time.perf_counter() - start


def traced_mb(call) -> float:
    """The most memory, in MB, that NumPy and Python held during call()
    beyond what they held before it (``tracemalloc``)."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def grid_passes(ecac, calls, dpc: bool, measure=seconds):
    """``measure`` (seconds, or traced MB) of the ``prepare_extension``
    calls at the calls' deltas, and of ``compute_dpc_quantities`` at the
    first delta (None unless ``dpc``), each on a fresh ``Dataset`` of the
    calls' points."""
    optimizer = importlib.import_module(ecac.__name__ + ".optimizer")
    points = calls[0][0].points
    deltas = list(dict.fromkeys(call[2] for call in calls))
    gc.collect()
    dataset = ecac.Dataset(points)
    prepare = measure(lambda: [optimizer.prepare_extension(dataset, delta) for delta in deltas])
    if not dpc:
        return prepare, None
    gc.collect()
    dataset = ecac.Dataset(points)
    return prepare, measure(lambda: ecac.compute_dpc_quantities(dataset, deltas[0]))


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
    print(f"{'input':22s}{'src':>5s}{'median s':>10s}{'cpu s':>8s}{'gathered MB':>13s}{'blocks':>11s}{'run entries':>13s}"
          f"{'candidates':>12s}{'far rows':>10s}{'prepare s':>11s}{'dpc s':>8s}"
          f"{'prepare MB':>12s}{'dpc MB':>8s}" + (f"{'cpu/src0':>10s}{'faster':>8s}" if len(srcs) > 1 else ""))
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            csv_path = Path(tmp) / f"{name}.csv"
            write_input(name, args.seed, csv_path)
            calls = [prepare(name, csv_path, ecac) for ecac in packages]
            times = [[] for _ in packages]
            cpu_times = [[] for _ in packages]
            passes = [[] for _ in packages]
            counters = [None] * len(packages)
            for repeat in range(args.repeats):
                order = range(len(packages)) if repeat % 2 == 0 else reversed(range(len(packages)))
                for i in order:
                    elapsed, cpu, counters[i] = time_calls(packages[i], calls[i])
                    times[i].append(elapsed)
                    cpu_times[i].append(cpu)
                    passes[i].append(grid_passes(packages[i], calls[i], name in DPC_TIMED))
            # Two more passes, untimed, for the runs gathered and the traced peaks.
            gathers = [gathered(ecac, c) for ecac, c in zip(packages, calls)]
            peaks = [
                grid_passes(ecac, c, name in DPC_TIMED, traced_mb) for ecac, c in zip(packages, calls)
            ]
            for i, src_times in enumerate(times):
                entries, candidates, far_rows = (
                    "-" if counters[i][key] is None else counters[i][key] for key in COUNTERS
                )
                prepare_s, dpc_s = zip(*passes[i])
                dpc = "-" if dpc_s[0] is None else f"{statistics.median(dpc_s):.3f}"
                prepare_mb, dpc_mb = peaks[i]
                dpc_mb = "-" if dpc_mb is None else f"{dpc_mb:.2f}"
                gathered_mb, blocks = gathers[i]
                blocks = "-" if blocks is None else "/".join(map(str, blocks))
                paired = ""
                if len(packages) > 1:
                    ratio, faster = "-", "-"
                    if i:
                        ratios = [cpu / first for cpu, first in zip(cpu_times[i], cpu_times[0])]
                        ratio = f"{statistics.median(ratios):.3f}"
                        faster = f"{sum(r < 1 for r in ratios)}/{len(ratios)}"
                    paired = f"{ratio:>10s}{faster:>8s}"
                print(
                    f"{name:22s}{i:>5d}{statistics.median(src_times):>10.3f}"
                    f"{statistics.median(cpu_times[i]):>8.3f}"
                    f"{gathered_mb:>13.2f}{blocks:>11s}{entries:>13}{candidates:>12}{far_rows:>10}"
                    f"{statistics.median(prepare_s):>11.3f}{dpc:>8}{prepare_mb:>12.2f}{dpc_mb:>8}{paired}",
                    flush=True,
                )
    for i, src in enumerate(srcs):
        print(f"src {i}: {src}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
