#!/usr/bin/env python3
"""Print the 47 result-identity digests: a grid of 30 commands and 17 more runs.

The grid is the 3 shipped CSVs x {kmeans, dpc} x five commands:
``ecac run --strategy {local,global,nodensity,random}`` and
``ecac ablate --variants local,global,random,nodensity``, each with
``--seed 0 --trace`` and the default delta choice. Every cell prints
two digests (first 16 hex of sha256):

* ``result`` hashes the result JSON (``result.json`` or
  ``ablate.json``) re-serialized with sorted keys after removing every
  ``timings`` and ``iterations`` entry and blanking the config echo's
  ``data`` and ``out`` paths;
* ``trace`` hashes the bytes of the cell's trace ``.jsonl`` files
  (one for ``run``; one per variant, in variant order, for ``ablate``).

Three more lines digest the DPC quantities (``rho_dpc``, ``delta_dpc``
and ``nearest_higher`` bytes, with the cutoff at the default delta), the
densities (``rho`` bytes, with the default delta) and a capped DPC run
(the labels and the trace of ``run_optimized`` with k = 4, the default
delta, which equals the default cutoff, and the local strategy capped at
100 per set) of the 4-component Gaussian mixture at n = 10,000 that the
``blobs-dpc-capped`` benchmark clusters, generated in-process. The next line digests the DPC
quantities of a clumped dataset: 120 mixture points, each repeated 17 to
24 times, so every object has many exact duplicates and ties decide
most nearest higher-ranked objects. The next line digests
the labels and the trace of ``run_optimized`` (kmeans, k = 2, default
delta, local strategy) on 4 blobs 100 apart at n = 8,000: two blobs are
reached only by whole-dataset fallback steps, whose nearest-member scan
spans several row chunks. Two more lines digest the sets and the trace
of ``identify_extended_centers`` with the local and the nodensity
strategy on a 5,001-point spiral (``make_benchmarks.spiral`` with
``n_per_arm=1667, seed=7``), kmeans k = 3 centers and the default delta:
runs of thousands of members. Two more lines digest the sets and the
trace of ``identify_extended_centers`` with the local, global, capped
local (100 per set) and random (seed 0) strategies on 4-component
Gaussian mixtures in 3 and 8 dimensions (500 points per component,
means on the corners of a 12 x 12 square in the first two axes,
standard deviation 2, seed 0), kmeans k = 4 centers and the default
delta: the grid covers at most two axes, so these runs read candidates
that are near on the grid axes but far on the others.
The next line digests the labels of ``run_optimized`` (default delta,
local strategy) with one ``build_algorithm("dpc")`` object used on
``spiral.csv`` (k = 3), then ``jain.csv`` (k = 2), then the same
``spiral.csv`` dataset again. Six lines appended after these 40
digest the same four extension runs on the mixtures in 4 and 7
dimensions, built alike, and the DPC quantities (at the default cutoff)
of the mixtures in 3, 4, 7 and 8 dimensions. The 47th line digests the
same four runs on a 30 x 30 integer lattice less the columns x = 12 to
17, from two centers at (0, 5) and (0, 24): its distances tie exactly
between sets and between objects, so the tie rules decide its steps,
and its far half is reached by a fallback step.

As the paths are blanked, no digest depends on where the data or the
outputs lie. Two checkouts are compared by running this script against
each one (chosen by ``PYTHONPATH``):

    PYTHONPATH=old/src python3 scripts/result_digests.py /tmp/old-grid > old.txt
    PYTHONPATH=src python3 scripts/result_digests.py /tmp/new-grid > new.txt

``tests/result_digests.txt`` holds the 47 lines, after a comment naming
the NumPy and Python versions that printed them; a test compares them
with this script's output.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import shutil
from pathlib import Path

import numpy as np

from ecac import (
    Dataset,
    SpatialIndex,
    build_algorithm,
    compute_densities,
    compute_dpc_quantities,
    default_delta,
    generate_gaussian_mixture,
    load_csv,
    run_optimized,
)
from ecac.cli import main as ecac_main
from ecac.optimizer import SelectionStrategy, identify_extended_centers, trace_records
from make_benchmarks import spiral

ROOT = Path(__file__).resolve().parent.parent
DATASETS = {"spiral": 3, "jain": 2, "pathbased": 3}
ALGOS = ("kmeans", "dpc")
STRATEGIES = ("local", "global", "nodensity", "random")
ABLATE_VARIANTS = ("local", "global", "random", "nodensity")


def _strip(value):
    if isinstance(value, dict):
        return {k: _strip(v) for k, v in value.items() if k not in ("timings", "iterations")}
    if isinstance(value, list):
        return [_strip(v) for v in value]
    return value


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _run_cell(argv: list[str], out: Path, result_name: str, trace_names: list[str]) -> tuple[str, str]:
    if out.exists():
        shutil.rmtree(out)
    with contextlib.redirect_stdout(io.StringIO()):
        code = ecac_main(argv + ["--out", str(out)])
    if code != 0:
        raise SystemExit(f"ecac {' '.join(argv)} exited with {code}")
    payload = _strip(json.loads((out / result_name).read_text(encoding="utf-8")))
    payload["config"].update(data="", out="")
    result = _digest(json.dumps(payload, sort_keys=True).encode())
    trace = _digest(b"".join((out / name).read_bytes() for name in trace_names))
    return result, trace


def _blob_digests() -> tuple[str, str, str]:
    dataset, _ = generate_gaussian_mixture(
        4, 2500, [[0, 0], [12, 0], [0, 12], [12, 12]], 2.0, 0
    )
    dpc = _dpc_digest(dataset)
    densities = compute_densities(dataset, SpatialIndex(dataset), default_delta(dataset))
    capped = run_optimized(
        dataset, build_algorithm("dpc"), 4, strategy=SelectionStrategy(cap=100)
    )
    return dpc, _digest(densities.rho.tobytes()), _run_digest(capped)


def _dpc_digest(dataset) -> str:
    q = compute_dpc_quantities(dataset, default_delta(dataset))
    return _digest(b"".join(a.tobytes() for a in (q.rho_dpc, q.delta_dpc, q.nearest_higher)))


def _clump_digest() -> str:
    base, _ = generate_gaussian_mixture(4, 30, [[0, 0], [12, 0], [0, 12], [12, 12]], 2.0, 0)
    copies = 17 + np.arange(base.n) % 8
    return _dpc_digest(Dataset(np.repeat(base.points, copies, axis=0)))


def _far_blobs_digest() -> str:
    dataset, _ = generate_gaussian_mixture(
        4, 2000, [[0, 0], [100, 0], [0, 100], [100, 100]], 2.0, 0
    )
    return _run_digest(run_optimized(dataset, build_algorithm("kmeans"), 2))


def _run_digest(result) -> str:
    trace = json.dumps(trace_records(result.steps), sort_keys=True).encode()
    return _digest(result.labels.tobytes() + trace)


def _spiral_extension_digests() -> dict[str, str]:
    points, _ = spiral(n_per_arm=1667, seed=7)
    dataset = Dataset(points)
    centers, _ = build_algorithm("kmeans").center_process(dataset, 3)
    digests = {}
    for kind in ("local", "nodensity"):
        ext = identify_extended_centers(
            dataset, centers, default_delta(dataset), SelectionStrategy(kind)
        )
        digests[kind] = _digest(json.dumps([ext.sets, ext.trace], sort_keys=True).encode())
    return digests


def _mixture(d: int):
    """The 4-component mixture in d dimensions: 500 points per component,
    means on the corners of a 12 x 12 square in the first two axes,
    standard deviation 2, seed 0."""
    means = np.zeros((4, d))
    means[[1, 3], 0] = 12.0
    means[[2, 3], 1] = 12.0
    dataset, _ = generate_gaussian_mixture(4, 500, means, 2.0, 0)
    return dataset


def _extensions_digest(dataset, centers) -> str:
    """The sets and the trace of the local, global, capped local (100 per
    set) and random (seed 0) extensions from ``centers`` at the default
    delta."""
    strategies = [
        SelectionStrategy("local"),
        SelectionStrategy("global"),
        SelectionStrategy("local", cap=100),
        SelectionStrategy("random", seed=0),
    ]
    delta = default_delta(dataset)
    runs = [
        identify_extended_centers(dataset, centers, delta, strategy)
        for strategy in strategies
    ]
    return _digest(json.dumps([[ext.sets, ext.trace] for ext in runs], sort_keys=True).encode())


def _high_dimension_digests(dims) -> dict[int, str]:
    digests = {}
    for d in dims:
        dataset = _mixture(d)
        centers, _ = build_algorithm("kmeans").center_process(dataset, 4)
        digests[d] = _extensions_digest(dataset, centers)
    return digests


def _lattice_digest() -> str:
    """``_extensions_digest`` on the 30 x 30 integer lattice less the
    columns x = 12 to 17, from the centers at (0, 5) and (0, 24)."""
    x, y = np.meshgrid(np.arange(30.0), np.arange(30.0))
    keep = (x < 12) | (x > 17)
    points = np.column_stack([x[keep], y[keep]])
    centers = [int(np.flatnonzero((points[:, 0] == 0) & (points[:, 1] == c))[0]) for c in (5, 24)]
    return _extensions_digest(Dataset(points), centers)


def _dpc_alternating_digest(data_dir: Path) -> str:
    spiral_ds, _ = load_csv(data_dir / "spiral.csv", -1)
    jain_ds, _ = load_csv(data_dir / "jain.csv", -1)
    algorithm = build_algorithm("dpc")
    runs = [
        run_optimized(ds, algorithm, k)
        for ds, k in ((spiral_ds, 3), (jain_ds, 2), (spiral_ds, 3))
    ]
    return _digest(b"".join(result.labels.tobytes() for result in runs))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_root", help="directory for the cells' outputs (reused)")
    parser.add_argument("--data-dir", default=str(ROOT / "data"),
                        help="directory holding spiral.csv, jain.csv, pathbased.csv")
    args = parser.parse_args()
    out_root = Path(args.out_root)
    data_dir = Path(args.data_dir)

    for name, k in DATASETS.items():
        for algo in ALGOS:
            common = ["--data", str(data_dir / f"{name}.csv"), "--label-col", "-1",
                      "--algo", algo, "--k", str(k), "--seed", "0", "--trace"]
            cells = [
                (f"{name}-{algo}-run-{kind}", ["run", *common, "--strategy", kind],
                 "result.json", ["trace.jsonl"])
                for kind in STRATEGIES
            ]
            cells.append((
                f"{name}-{algo}-ablate",
                ["ablate", *common, "--variants", ",".join(ABLATE_VARIANTS)],
                "ablate.json", [f"trace-{v}.jsonl" for v in ABLATE_VARIANTS],
            ))
            for cell, argv, result_name, trace_names in cells:
                result, trace = _run_cell(argv, out_root / cell, result_name, trace_names)
                print(f"{cell} result={result} trace={trace}", flush=True)

    dpc, densities, capped = _blob_digests()
    print(f"blobs-10k dpc-quantities={dpc}")
    print(f"blobs-10k densities={densities}")
    print(f"blobs-10k dpc-capped-run={capped}")
    print(f"clumps-dpc-quantities={_clump_digest()}")
    print(f"farblobs-8k local-fallback={_far_blobs_digest()}")
    for kind, digest in _spiral_extension_digests().items():
        print(f"spiral-5k {kind}-extension={digest}")
    for d, digest in _high_dimension_digests((3, 8)).items():
        print(f"blobs-2k-{d}d extension={digest}")
    print(f"dpc-alternating={_dpc_alternating_digest(data_dir)}")
    for d, digest in _high_dimension_digests((4, 7)).items():
        print(f"blobs-2k-{d}d extension={digest}")
    for d in (3, 4, 7, 8):
        print(f"blobs-2k-{d}d dpc-quantities={_dpc_digest(_mixture(d))}")
    print(f"lattice-2c extension={_lattice_digest()}")


if __name__ == "__main__":
    main()
