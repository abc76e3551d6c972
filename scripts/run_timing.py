#!/usr/bin/env python3
"""Time the benchmark workloads' ``ecac`` commands in fresh processes.

    python3 scripts/run_timing.py
    python3 scripts/run_timing.py --src old/src --src src --pairs 12

Every run is one of the benchmark's own: the workload (its input and its
command, from ``perfbench/workloads.py``) runs in ``perfbench/child.py``,
a fresh interpreter with ``PYTHONPATH`` set to one ``--src`` checkout,
and its output goes through ``perfbench/checks.py``. ``run_s`` is the
time of the command, ``setup_s`` the time from spawn until
``import ecac.cli`` was done, and the peak is the child's own ``VmHWM``.

Runs of two or more checkouts are interleaved: every pair runs the
workload once per checkout, and the order of the checkouts alternates
from pair to pair, so a host whose speed drifts over minutes weighs on
both sides alike. The script prints, per workload and checkout, the
median and quartiles of ``run_s``, the median ``setup_s``, the median
peak and its range over the checkout's runs (min-max), the pairs in
which the checkout beat the first one, and the content digest
of the output (the result without its ``timings``). It exits 1 when an
output fails a check or a workload's digests differ between runs or
checkouts.

For each checkout after the first it also prints the verdict on a
claimed gain in ``run_s`` over the first: the claim holds when the
checkout was faster in at least nine of every ten pairs and its median
gain (the first checkout's median less its own) exceeds the spread
(Q3 - Q1) of the first checkout's runs. A timing of the serial paths
needs no option: run the script under ``taskset -c 0``, which the
children inherit.
"""

from __future__ import annotations

import argparse
import json
import os
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


def run_child(src: Path, workload, csv_path: Path, work: Path) -> dict:
    """One command in a fresh interpreter; its timings, peak and digest."""
    times_path = work / "times.json"
    out = work / "out"  # one path for every run: the result's config echo holds it
    argv = workload.argv(csv_path, out)
    env = dict(os.environ, PYTHONPATH=str(src))
    spawned = now()
    code = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), str(times_path), *argv],
        env=env, cwd=work, stdout=subprocess.DEVNULL,
    ).returncode
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

    print(f"{'workload':22s}{'src':>4s}{'run_s':>8s}{'q1-q3':>15s}{'setup_s':>9s}"
          f"{'peak MB':>9s}{'min-max':>13s}{'faster':>8s}  digest")
    identical = True
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name in names:
            workload = WORKLOADS[name]
            csv_path = work / f"{name}.csv"
            workload.write_input(ROOT, args.seed, csv_path)
            runs = [[] for _ in srcs]
            for pair in range(args.pairs):
                order = range(len(srcs)) if pair % 2 == 0 else reversed(range(len(srcs)))
                for i in order:
                    runs[i].append(run_child(srcs[i], workload, csv_path, work))
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
                    f"{statistics.median(peaks):>9.1f}"
                    f"{f'{min(peaks):.1f}-{max(peaks):.1f}':>13s}"
                    f"{f'{faster}/{len(run_s)}' if i else '-':>8s}"
                    f"  {','.join(sorted({run['digest'] for run in src_runs}))}",
                    flush=True,
                )
            for i, src_runs in enumerate(runs[1:], 1):
                verdict = claim_verdict(first, [run["run_s"] for run in src_runs])
                print(f"{name:22s}{i:>4d}  run_s vs src 0: {verdict}", flush=True)
    for i, src in enumerate(srcs):
        print(f"src {i}: {src}")
    if not identical:
        print("result digests differ", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
