#!/usr/bin/env python3
"""Time the benchmark workloads' ``ecac`` commands in fresh processes.

    python3 scripts/run_timing.py
    python3 scripts/run_timing.py --src old/src --src src --pairs 12

Every run is one of the benchmark's own: the workload (its input and its
command, from ``perfbench/workloads.py``) runs in ``perfbench/child.py``,
a fresh interpreter with ``PYTHONPATH`` set to one ``--src`` checkout,
and its output goes through ``perfbench/checks.py``. ``run_s`` is the
time of the command, ``setup_s`` the time from spawn until
``import ecac.cli`` was done, ``cpu_s`` the child's user and system
time from spawn to exit (``getrusage(RUSAGE_CHILDREN)`` read before and
after it, which counts the ``_fan_out`` workers the child reaped), and
the peak is the child's own ``VmHWM``.
The children read a copy of each ``--src`` tree without its
``__pycache__`` and write no bytecode, so every child compiles ``ecac``
from the source, as in the benchmark's fresh checkouts, whatever
bytecode the trees hold.

Runs of two or more checkouts are interleaved: every pair runs the
workload once per checkout, and the order of the checkouts alternates
from pair to pair, so a host whose speed drifts over minutes weighs on
both sides alike. The script prints, per workload and checkout, the
median and quartiles of ``run_s``, the medians of ``setup_s`` and
``cpu_s``, the median peak and its range over the checkout's runs
(min-max), the pairs in which the checkout beat the first one, and the
content digest of the output (the result without its ``timings``). It
exits 1 when an output fails a check or a workload's digests differ
between runs or checkouts.

For each checkout after the first it also prints the verdict on a
claimed gain in ``run_s`` over the first: the claim holds when the
checkout was faster in at least nine of every ten pairs and its median
gain (the first checkout's median less its own) exceeds the spread
(Q3 - Q1) of the first checkout's runs. Then come the pairs in which
its ``cpu_s`` was the lower, and the median of the pairs' ``cpu_s``
ratios: CPU time leaves out the wall time that other processes on a
shared host take. Next come the verdicts
on a regression, one per metric (``run_s``, ``setup_s`` and the peak),
against the metric's ``end_to_end`` bound in ``BENCHMARK.json``, a
fraction of the first checkout's median: ``regression`` when the
checkout's median is worse than the first's by more than the bound,
``unresolved`` when the first checkout's spread (Q3 - Q1) is wider than
the bound, so the runs cannot tell (unless every run of the checkout
was better than every run of the first), and ``ok`` otherwise. A timing of
the serial paths needs no option: run the script under
``taskset -c 0``, which the children inherit.

Before the workloads it prints one import-footprint line per checkout: a
fresh child imports ``ecac.cli`` as ``perfbench/child.py`` does and
reports its ``VmRSS`` and whether ``numpy.random`` and ``hashlib`` (which
loads OpenSSL) were loaded, the part of every peak that the imports set.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from checks import check_payload, content_digest  # noqa: E402
from tracing import now  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# This script's name of each end-to-end metric, and the benchmark's.
BENCHMARK_NAMES = {"run_s": "run_s", "setup_s": "setup_s", "peak_mb": "peak_rss_mb"}


def fresh_copy(src: Path, dest: Path) -> Path:
    """``dest``, a copy of the ``src`` tree without bytecode, as a fresh
    checkout has it."""
    shutil.copytree(src, dest, ignore=shutil.ignore_patterns("__pycache__"))
    return dest


def child_env(src: Path) -> dict:
    """A child's environment: ``src`` on the path, and no bytecode
    written or read from a prefix, so that a child of a ``fresh_copy``
    compiles ``ecac`` from the source."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPYCACHEPREFIX", None)
    return env


FOOTPRINT = """\
import json, sys, time
import ecac.cli
with open("/proc/self/status", encoding="ascii") as fh:
    rss = next(int(line.split()[1]) for line in fh if line.startswith("VmRSS:"))
print(json.dumps([rss, *(name in sys.modules for name in ("numpy.random", "hashlib"))]))
"""


def import_footprint(src: Path, work: Path) -> str:
    """The resident set of a fresh child once ``import ecac.cli`` is
    done, and whether ``numpy.random`` and ``hashlib`` were loaded."""
    child = subprocess.run(
        [sys.executable, "-c", FOOTPRINT], env=child_env(src), cwd=work,
        capture_output=True, text=True, check=True,
    )
    rss_kb, *loaded = json.loads(child.stdout)
    flags = (f"{name} {'loaded' if was else 'not loaded'}"
             for name, was in zip(("numpy.random", "hashlib"), loaded))
    return f"VmRSS {rss_kb / 1024.0:.1f} MB, {', '.join(flags)}"


def run_child(src: Path, workload, csv_path: Path, work: Path) -> dict:
    """One command in a fresh interpreter; its timings, peak and digest."""
    times_path = work / "times.json"
    out = work / "out"  # one path for every run: the result's config echo holds it
    argv = workload.argv(csv_path, out)
    used = resource.getrusage(resource.RUSAGE_CHILDREN)
    spawned = now()
    code = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), str(times_path), *argv],
        env=child_env(src), cwd=work, stdout=subprocess.DEVNULL,
    ).returncode
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    if code != 0:
        raise SystemExit(f"ecac {' '.join(argv)} exited with {code} ({src})")
    times = json.loads(times_path.read_text(encoding="utf-8"))
    if not Path(times["module"]).resolve().is_relative_to(src):
        raise SystemExit(f"imported ecac from {times['module']}, not {src}")
    result = out / ("result.json" if workload.command == "run" else "ablate.json")
    payload = json.loads(result.read_text(encoding="utf-8"))
    errors = check_payload(workload.command, payload, workload.n, workload.floors)
    if errors:
        raise SystemExit(f"{workload.name} ({src}): {'; '.join(errors)}")
    return {
        "run_s": times["end"] - times["start"],
        "setup_s": times["imported"] - spawned,
        "cpu_s": reaped.ru_utime + reaped.ru_stime - used.ru_utime - used.ru_stime,
        "peak_mb": times["peak_rss_kb"] / 1024.0,
        "digest": content_digest(payload)[:16],
    }


def quartiles(values: list[float]) -> tuple[float, float]:
    """Q1 and Q3 of the values; for one value, that value twice."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def claim_verdict(first: list[float], other: list[float]) -> str:
    """Whether ``other``'s runs beat ``first``'s, pair by pair, as a
    claimed gain must: faster in at least 9 of 10 pairs, and a median
    gain beyond the spread (Q3 - Q1) of ``first``."""
    wins = sum(b < a for a, b in zip(first, other))
    gain = statistics.median(first) - statistics.median(other)
    q1, q3 = quartiles(first)
    holds = 10 * wins >= 9 * len(first) and gain > q3 - q1
    return (
        f"faster in {wins}/{len(first)} pairs, median gain {gain:+.4f} s "
        f"({100.0 * gain / statistics.median(first):+.1f}%), spread of src 0 "
        f"{q3 - q1:.4f} s: claim {'holds' if holds else 'fails'}"
    )


def end_to_end_bounds() -> dict:
    """The ``end_to_end`` entries of ``BENCHMARK.json`` (name, unit,
    better, bound), keyed by this script's metric names."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    entries = {entry["name"]: entry for entry in spec["end_to_end"]}
    return {key: entries[name] for key, name in BENCHMARK_NAMES.items()}


def regression_verdict(first: list[float], other: list[float], entry: dict) -> str:
    """Whether ``other``'s median is worse than ``first``'s by more than
    the entry's bound, a fraction of ``first``'s median; unresolved when
    the spread (Q3 - Q1) of ``first`` is wider than the bound, unless
    every run of ``other`` is better than every run of ``first``."""
    sign = 1.0 if entry["better"] == "lower" else -1.0  # worse is positive
    base = statistics.median(first)
    change = (statistics.median(other) - base) / base
    q1, q3 = quartiles(first)
    spread = (q3 - q1) / base
    if spread <= entry["bound"]:
        verdict = "regression" if sign * change > entry["bound"] else "ok"
    else:
        always_better = max(sign * v for v in other) < min(sign * v for v in first)
        verdict = "ok" if always_better else "unresolved"
    return (
        f"median {100.0 * change:+.1f}%, bound {100.0 * entry['bound']:.0f}%, "
        f"spread of src 0 {100.0 * spread:.1f}%: {verdict}"
    )


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
    bounds = end_to_end_bounds()
    unknown = sorted(set(names) - set(WORKLOADS))
    if unknown:
        parser.error(f"unknown workload(s): {', '.join(unknown)}")

    identical = True
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        copies = [fresh_copy(src, work / f"src{i}") for i, src in enumerate(srcs)]
        for i, copy in enumerate(copies):
            print(f"{'import ecac.cli':22s}{i:>4d}  {import_footprint(copy, work)}", flush=True)
        print(f"{'workload':22s}{'src':>4s}{'run_s':>8s}{'q1-q3':>15s}{'setup_s':>9s}"
              f"{'cpu_s':>8s}{'peak MB':>9s}{'min-max':>13s}{'faster':>8s}  digest")
        for name in names:
            workload = WORKLOADS[name]
            csv_path = work / f"{name}.csv"
            workload.write_input(ROOT, args.seed, csv_path)
            runs = [[] for _ in srcs]
            for pair in range(args.pairs):
                order = range(len(srcs)) if pair % 2 == 0 else reversed(range(len(srcs)))
                for i in order:
                    runs[i].append(run_child(copies[i], workload, csv_path, work))
            identical &= len({run["digest"] for src_runs in runs for run in src_runs}) == 1
            first = [run["run_s"] for run in runs[0]]
            for i, src_runs in enumerate(runs):
                run_s = [run["run_s"] for run in src_runs]
                q1, q3 = quartiles(run_s)
                faster = sum(a < b for a, b in zip(run_s, first))
                peaks = [run["peak_mb"] for run in src_runs]
                print(
                    f"{name:22s}{i:>4d}{statistics.median(run_s):>8.3f}"
                    f"{f'{q1:.3f}-{q3:.3f}':>15s}"
                    f"{statistics.median(run['setup_s'] for run in src_runs):>9.3f}"
                    f"{statistics.median(run['cpu_s'] for run in src_runs):>8.3f}"
                    f"{statistics.median(peaks):>9.1f}"
                    f"{f'{min(peaks):.1f}-{max(peaks):.1f}':>13s}"
                    f"{f'{faster}/{len(run_s)}' if i else '-':>8s}"
                    f"  {','.join(sorted({run['digest'] for run in src_runs}))}",
                    flush=True,
                )
            for i, src_runs in enumerate(runs[1:], 1):
                verdict = claim_verdict(first, [run["run_s"] for run in src_runs])
                print(f"{name:22s}{i:>4d}  run_s vs src 0: {verdict}", flush=True)
                cpu = [(a["cpu_s"], b["cpu_s"]) for a, b in zip(runs[0], src_runs)]
                print(f"{name:22s}{i:>4d}  cpu_s vs src 0: faster in "
                      f"{sum(b < a for a, b in cpu)}/{len(cpu)} pairs, "
                      f"median ratio {statistics.median(b / a for a, b in cpu):.3f}", flush=True)
                for key, entry in bounds.items():
                    verdict = regression_verdict(
                        [run[key] for run in runs[0]], [run[key] for run in src_runs], entry
                    )
                    print(f"{name:22s}{i:>4d}  {entry['name']} regression vs src 0: {verdict}",
                          flush=True)
    for i, src in enumerate(srcs):
        print(f"src {i}: {src}")
    if not identical:
        print("result digests differ", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
