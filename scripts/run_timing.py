#!/usr/bin/env python3
"""Time the benchmark workloads' ``ecac`` commands in fresh processes.

    python3 scripts/run_timing.py
    python3 scripts/run_timing.py --src old/src --src src --pairs 12

Each workload's command runs as the benchmark runs it: a fresh
interpreter imports ``ecac.cli`` from one ``--src`` checkout and calls
``ecac.cli.main`` on the workload's arguments. The child reports the
time of that call (``run_s``), the time from spawn until its imports
were done (``setup_s``) and its own peak resident set (``VmHWM``). The
inputs are those of the three workloads, generated the way
``scripts/extension_timing.py`` generates them:

* ``sweep-spiral-kmeans``: ``run --algo kmeans --k 3`` on an n = 1,500
  spiral (the default five-delta sweep);
* ``blobs-dpc-capped``: ``run --algo dpc --k 4 --cap 100
  --delta-percentile 0.02`` on 4 Gaussian blobs, n = 10,000;
* ``ablate-spiral-global``: ``ablate --algo kmeans --k 3 --variants
  local,global`` on an n = 1,200 spiral.

Runs of two or more checkouts are interleaved: every pair runs the
workload once per checkout, and the order of the checkouts alternates
from pair to pair, so a host whose speed drifts over minutes weighs on
both sides alike. The script prints, per workload and checkout, the
median and quartiles of ``run_s``, the median ``setup_s`` and peak, the
pairs in which the checkout beat the first one, and a digest of the
result file without its ``timings`` and ``config`` entries. It exits 1
when a workload's digests differ between runs or checkouts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from extension_timing import load_package, write_input

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = {
    "sweep-spiral-kmeans": ["run", "--algo", "kmeans", "--k", "3"],
    "blobs-dpc-capped": ["run", "--algo", "dpc", "--k", "4", "--cap", "100",
                         "--delta-percentile", "0.02"],
    "ablate-spiral-global": ["ablate", "--algo", "kmeans", "--k", "3",
                             "--variants", "local,global"],
}

# The child: times ecac.cli.main and reads this process's own VmHWM, the
# high-water mark of its address space (ru_maxrss would carry over the
# spawning process's peak).
CHILD = """
import json, sys, time
import ecac.cli
imported = time.monotonic()
start = time.perf_counter()
code = ecac.cli.main(sys.argv[2:])
seconds = time.perf_counter() - start
with open("/proc/self/status", encoding="ascii") as fh:
    peak_kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
with open(sys.argv[1], "w", encoding="utf-8") as fh:
    json.dump({"code": code, "imported": imported, "run_s": seconds,
               "peak_kb": peak_kb, "module": ecac.cli.__file__}, fh)
"""


def _strip(value):
    if isinstance(value, dict):
        return {k: _strip(v) for k, v in value.items() if k not in ("timings", "config")}
    if isinstance(value, list):
        return [_strip(v) for v in value]
    return value


def run_child(src: Path, argv: list[str], work: Path) -> dict:
    """One command in a fresh interpreter; its timings, peak and digest."""
    times_path = work / "times.json"
    out = work / "out"
    env = dict(os.environ, PYTHONPATH=str(src))
    spawned = time.monotonic()
    subprocess.run(
        [sys.executable, "-c", CHILD, str(times_path), *argv, "--out", str(out)],
        env=env, cwd=work, check=True, stdout=subprocess.DEVNULL,
    )
    child = json.loads(times_path.read_text(encoding="utf-8"))
    if child["code"] != 0:
        raise SystemExit(f"ecac {' '.join(argv)} exited with {child['code']} ({src})")
    if not Path(child["module"]).resolve().is_relative_to(src):
        raise SystemExit(f"imported ecac from {child['module']}, not {src}")
    result = out / ("ablate.json" if argv[0] == "ablate" else "result.json")
    payload = json.loads(result.read_text(encoding="utf-8"))
    text = json.dumps(_strip(payload), sort_keys=True)
    return {
        "run_s": child["run_s"],
        "setup_s": child["imported"] - spawned,
        "peak_mb": child["peak_kb"] / 1024.0,
        "digest": hashlib.sha256(text.encode()).hexdigest()[:16],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", action="append", type=Path,
                        help="a checkout's src directory; repeat to compare (default: this one)")
    parser.add_argument("--pairs", type=int, default=6,
                        help="runs of each workload per checkout")
    parser.add_argument("--seed", type=int, default=0, help="seed of the workload inputs")
    parser.add_argument("--workloads", default=",".join(WORKLOADS),
                        help=f"comma-separated subset of {','.join(WORKLOADS)}")
    args = parser.parse_args(argv)
    srcs = [src.resolve() for src in (args.src or [ROOT / "src"])]
    names = args.workloads.split(",")
    unknown = sorted(set(names) - set(WORKLOADS))
    if unknown:
        parser.error(f"unknown workload(s): {', '.join(unknown)}")

    ecac = load_package(srcs[0], "ecac_inputs")
    print(f"{'workload':22s}{'src':>4s}{'run_s':>8s}{'q1-q3':>15s}{'setup_s':>9s}"
          f"{'peak MB':>9s}{'faster':>8s}  digest")
    identical = True
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name in names:
            csv_path = work / f"{name}.csv"
            write_input(name, args.seed, csv_path, ecac)
            command = [*WORKLOADS[name][:1], "--data", str(csv_path), "--label-col", "-1",
                       *WORKLOADS[name][1:]]
            runs = [[] for _ in srcs]
            for pair in range(args.pairs):
                order = range(len(srcs)) if pair % 2 == 0 else reversed(range(len(srcs)))
                for i in order:
                    runs[i].append(run_child(srcs[i], command, work))
            digests = {run["digest"] for src_runs in runs for run in src_runs}
            identical &= len(digests) == 1
            first = [run["run_s"] for run in runs[0]]
            for i, src_runs in enumerate(runs):
                run_s = [run["run_s"] for run in src_runs]
                q1, _, q3 = statistics.quantiles(run_s, n=4) if len(run_s) > 1 else run_s * 3
                faster = sum(a < b for a, b in zip(run_s, first))
                print(
                    f"{name:22s}{i:>4d}{statistics.median(run_s):>8.3f}"
                    f"{f'{q1:.3f}-{q3:.3f}':>15s}"
                    f"{statistics.median(run['setup_s'] for run in src_runs):>9.3f}"
                    f"{statistics.median(run['peak_mb'] for run in src_runs):>9.1f}"
                    f"{f'{faster}/{len(run_s)}' if i else '-':>8s}"
                    f"  {','.join(sorted({run['digest'] for run in src_runs}))}",
                    flush=True,
                )
    for i, src in enumerate(srcs):
        print(f"src {i}: {src}")
    if not identical:
        print("result digests differ", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
