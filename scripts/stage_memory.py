#!/usr/bin/env python3
"""Resident memory before and after each stage of a workload's command.

    python3 scripts/stage_memory.py blobs-dpc-capped
    python3 scripts/stage_memory.py sweep-spiral-kmeans --seed 5 --src old/src
    python3 scripts/stage_memory.py sweep-spiral-kmeans --n 20001

The workload's input and command come from ``perfbench/workloads.py``;
``--n N`` writes the input at N points in place of the workload's own
(``dataclasses.replace(workload, n=N)``; a spiral has N // 3 points per
arm, blobs N // k per blob). The command runs in a fresh interpreter as
``scripts/run_timing.py`` runs it: from a copy of the ``--src`` tree without ``__pycache__``,
writing no bytecode, so the child compiles ``ecac`` from the source. The
child wraps the command's stages in its calling process and reads that
process's ``VmRSS`` and ``VmHWM`` before and after each: the load, the
centers, the baseline, the delta resolution, the ablation's shared
preparation, each job that the calling process runs itself (the jobs of
forked workers are not shown) and the write of the result. The script
prints the workload's name and input size, then one row per stage, in
MB, and the child's peak at its exit.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import subprocess
import sys
import tempfile
from pathlib import Path

from run_timing import ROOT, child_env, fresh_copy
from workloads import WORKLOADS

PROBE = """\
import functools, json, os, sys
import ecac.cli as cli

def status():
    with open("/proc/self/status", encoding="ascii") as fh:
        fields = dict(line.split(":", 1) for line in fh)
    return [int(fields[key].split()[0]) for key in ("VmRSS", "VmHWM")]

caller, stages = os.getpid(), []

def probed(name, fn):
    @functools.wraps(fn)
    def stage(*args, **kwargs):
        if os.getpid() != caller:
            return fn(*args, **kwargs)
        before = status()
        try:
            return fn(*args, **kwargs)
        finally:
            stages.append([name, *before, *status()])
    return stage

cli.RunConfig.load_dataset = probed("load", cli.RunConfig.load_dataset)
for name, attr in [("centers", "compute_centers"), ("baseline", "run_baseline"),
                   ("delta", "_resolve_deltas"), ("prepare", "prepare_extension"),
                   ("write", "_write_json")]:
    setattr(cli, attr, probed(name, getattr(cli, attr)))
fan_out = cli._fan_out

def jobs(job, items, what):
    def named(item):
        label = item if isinstance(item, str) else f"delta {item:.6g}"
        return probed(f"{what} {label}", job)(item)
    return fan_out(named, items, what)

cli._fan_out = jobs
code = cli.main(sys.argv[2:])
with open(sys.argv[1], "w", encoding="utf-8") as fh:
    json.dump({"stages": stages, "exit": status(), "module": cli.__file__}, fh)
sys.exit(code)
"""


def stage_memory(workload, seed: int, src: Path) -> dict:
    """The child's stage records, ``[name, rss, hwm (before), rss, hwm
    (after)]`` in kB, its ``[rss, hwm]`` at exit, and its ``ecac.cli``."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        copy = fresh_copy(src, work / "src")
        csv_path = work / f"{workload.name}.csv"
        workload.write_input(ROOT, seed, csv_path)
        record = work / "stages.json"
        subprocess.run(
            [sys.executable, "-c", PROBE, str(record), *workload.argv(csv_path, work / "out")],
            env=child_env(copy), cwd=work, stdout=subprocess.DEVNULL, check=True,
        )
        result = json.loads(record.read_text(encoding="utf-8"))
        if not Path(result["module"]).resolve().is_relative_to(copy.resolve()):
            raise SystemExit(f"imported ecac from {result['module']}, not {copy}")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0, help="seed of the workload input")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="the checkout's src directory (default: this one)")
    parser.add_argument("--n", type=int, help="the input's size (default: the workload's)")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.n is not None:
        if args.n < 1:
            parser.error(f"--n must be positive, got {args.n}")
        workload = dataclasses.replace(workload, n=args.n)
    result = stage_memory(workload, args.seed, args.src.resolve())
    print(f"{workload.name}: n = {workload.n}, seed {args.seed}")
    print(f"{'stage':28s}{'RSS before':>11s}{'after':>8s}{'HWM before':>12s}{'after':>8s}")
    for name, *kb in result["stages"]:
        rss, hwm, rss_after, hwm_after = (value / 1024.0 for value in kb)
        print(f"{name:28s}{rss:>11.2f}{rss_after:>8.2f}{hwm:>12.2f}{hwm_after:>8.2f}")
    rss, hwm = (value / 1024.0 for value in result["exit"])
    print(f"{'exit':28s}{rss:>11.2f}{'':8s}{hwm:>12.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
