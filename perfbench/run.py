#!/usr/bin/env python3
"""The ecac benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed 0 --seconds 25

Run from the root of a source checkout; ecac is imported from ``src/``.
For ``--seconds`` seconds the benchmark runs the workload's ``ecac``
command again and again, each time in a fresh child process, one at a
time, and checks every output. With ``--trace 1`` it then replays the
command in this process with a span around every layer call. The last
line of standard output is one JSON object: correct, attempted, failed
and the metrics (end-to-end with ``--trace 0``, per-layer with
``--trace 1``). ``--workload all`` runs every workload traced and prints
every metric. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import numpy
import scipy

import checks
from tracing import Tracer, now

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

MIN_CHILDREN = 3  # the determinism check compares runs, so it needs several
CHILD_TIMEOUT_S = 120

END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "nmi": "1", "ri": "1"}
PER_LAYER = {
    "data.load_csv_s": "s",
    "data.index_build_s": "s",
    "density.percentile_s": "s",
    "density.densities_s": "s",
    "density.rho_mean": "count",
    "algorithms.centers_s": "s",
    "algorithms.assign_s": "s",
    "algorithms.assign_matrix_bytes": "B",
    "optimizer.extend_s": "s",
    "optimizer.merge_s": "s",
    "optimizer.steps": "count",
    "optimizer.s_per_n": "1",
    "optimizer.fallbacks": "count",
    "optimizer.useful_step_ratio": "1",
    "metrics.score_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


def log(message: str):
    print(message, flush=True)


def git_commit(root: Path) -> str | None:
    """HEAD's commit id read from .git, or None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class Runner:
    """Spawns one child per run, waits for it, and reads what it recorded."""

    def __init__(self, work: Path):
        self.work = work
        self.count = 0
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
        )

    def run(self, argv: list[str]) -> dict:
        self.count += 1
        run_dir = self.work / f"child{self.count:03d}"
        run_dir.mkdir(parents=True)
        times_path = run_dir / "times.json"
        cmd = [sys.executable, str(HERE / "child.py"), str(times_path), *argv]
        with open(run_dir / "stdout.txt", "w") as out, open(run_dir / "stderr.txt", "w") as err:
            spawned = now()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            try:
                proc.wait(timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                pass  # killed below; the exit code marks the run failed
            finally:
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
        result = {"dir": run_dir, "exit": proc.returncode}
        if proc.returncode == 0 and times_path.is_file():
            times = json.loads(times_path.read_text())
            result["module"] = times["module"]
            result["setup_s"] = times["imported"] - spawned
            result["run_s"] = times["end"] - times["start"]
            result["peak_rss_mb"] = times["peak_rss_kb"] / 1024.0
        return result


def provenance(workload, seed: int, dataset) -> dict:
    import ecac

    return {
        "workload": workload.name,
        "seed": seed,
        "points_sha256": hashlib.sha256(dataset.points.tobytes()).hexdigest(),
        "n": dataset.n,
        "d": dataset.d,
        "k": workload.options["k"],
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "ecac": ecac.__version__,
        "git_commit": git_commit(ROOT),
        "argv": workload.argv(Path("input.csv"), Path("out")),
    }


def run_children(workload, csv_path: Path, n: int, seconds: float, work: Path) -> dict:
    """Untraced runs for ``seconds`` (at least MIN_CHILDREN), each checked."""
    # One output path for every child: the config echo in the result records it.
    out_dir = work / "out"
    output = out_dir / ("result.json" if workload.command == "run" else "ablate.json")
    argv = workload.argv(csv_path, out_dir)
    runner = Runner(work)
    samples, failures = [], []
    content_digests, label_digests = set(), set()
    payload = None
    started = now()
    while runner.count < MIN_CHILDREN or now() - started < seconds:
        child = runner.run(argv)
        errors = []
        if child["exit"] != 0 or "run_s" not in child:
            tail = (child["dir"] / "stderr.txt").read_text()[-400:]
            errors.append(f"exit code {child['exit']}: {tail.strip()}")
        elif not Path(child["module"]).resolve().is_relative_to(SRC.resolve()):
            errors.append(f"imported ecac from {child['module']}, not {SRC}")
        else:
            try:
                payload = json.loads(output.read_text())
                errors += checks.check_payload(workload.command, payload, n, workload.floors)
                content = checks.content_digest(payload)
                labels = checks.label_digest(checks.best_labels(workload.command, payload))
            except (OSError, ValueError, KeyError, TypeError) as exc:
                errors.append(f"unreadable output: {exc!r}")
            else:
                if content_digests and content not in content_digests:
                    errors.append("output differs from an earlier run of the same input")
                content_digests.add(content)
                label_digests.add(labels)
        if errors:
            failures.append(f"child {runner.count}: " + "; ".join(errors))
        else:
            samples.append(child)
        shutil.rmtree(child["dir"])
        shutil.rmtree(out_dir, ignore_errors=True)
    return {
        "attempted": runner.count,
        "samples": samples,
        "failures": failures,
        "payload": payload,
        "label_digests": label_digests,
    }


def end_to_end(workload, children: dict) -> dict:
    samples = children["samples"]
    metrics = {
        "run_s": statistics.median(s["run_s"] for s in samples),
        "setup_s": statistics.median(s["setup_s"] for s in samples),
        # The workload's peak: the largest resident set any child reached.
        "peak_rss_mb": max(s["peak_rss_mb"] for s in samples),
    }
    for name, value in metrics.items():
        values = [s[name] for s in samples]
        log(f"  {name:<14s} {value:.4f} {END_TO_END[name]}"
            f"  (children {len(values)}, min {min(values):.4f}, median"
            f" {statistics.median(values):.4f}, max {max(values):.4f})")
    records = checks.optimized_records(workload.command, children["payload"])
    metrics["nmi"] = min(r["nmi"] for r in records)
    metrics["ri"] = min(r["ri"] for r in records)
    log(f"  nmi / ri, lowest over optimized records: {metrics['nmi']:.4f} / {metrics['ri']:.4f}")
    return metrics


def replay(workload, csv_path: Path, seconds: float, label_digests: set, run_s: float, name: str):
    """Traced replays in this process: at least one, then more until a
    quarter of the run length has passed. Returns (metrics, replays,
    failures, spans); metrics are medians over matching replays."""
    from workloads import layer_metrics, traced_run

    spans, per_replay, failures = [], [], []
    replays = 0
    started = now()
    while replays == 0 or now() - started < seconds / 4:
        replays += 1
        tracer = Tracer(f"{name}-replay{replays}")
        digest = checks.label_digest(traced_run(workload, csv_path, tracer))
        spans.extend(tracer.spans)
        if label_digests == {digest}:
            per_replay.append(layer_metrics(tracer, run_s))
        else:
            failures.append(
                f"traced replay labels {digest} differ from the command's {sorted(label_digests)}"
            )
    log(f"  {len(per_replay)} of {replays} traced replays match label digest {sorted(label_digests)}")
    metrics = {}
    if per_replay:
        metrics = {key: statistics.median(r[key] for r in per_replay) for key in PER_LAYER}
    return metrics, replays, failures, spans


def measure_workload(workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    import ecac

    work.mkdir(parents=True)
    csv_path = work / "input.csv"
    workload.write_input(ROOT, seed, csv_path)
    dataset, _ = ecac.load_csv(csv_path, -1)
    record = provenance(workload, seed, dataset)
    log("provenance " + json.dumps(record, sort_keys=True))

    children = run_children(workload, csv_path, dataset.n, seconds, work)
    attempted, failures = children["attempted"], children["failures"]
    metrics = end_to_end(workload, children) if children["samples"] else {}

    if trace and metrics:
        name = f"{workload.name}-seed{seed}"
        layers, replays, replay_failures, spans = replay(
            workload, csv_path, seconds, children["label_digests"], metrics["run_s"], name
        )
        metrics.update(layers)
        attempted += replays
        failures += replay_failures
        for key in PER_LAYER:
            if key in layers:
                log(f"  {key:<32s} {layers[key]:>14.6g} {PER_LAYER[key]}")
        with open(WORK / f"spans-{name}.jsonl", "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"provenance": record}, sort_keys=True) + "\n")
            for span in spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")

    for failure in failures:
        log("  FAILED " + failure)
    return {"attempted": attempted, "failed": len(failures), "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ecac" / "cli.py").is_file():
        print(f"perfbench: no ecac sources at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    # workloads imports ecac, so it loads only once src/ is on the path.
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload == "all":
        chosen, trace = list(WORKLOADS.values()), True
    elif args.workload in WORKLOADS:
        chosen, trace = [WORKLOADS[args.workload]], bool(args.trace)
    else:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    if args.workload == "all":
        units = {**END_TO_END, **PER_LAYER}
    else:
        units = PER_LAYER if trace else END_TO_END

    attempted = failed = 0
    reported = {}
    complete = True
    for workload in chosen:
        log(f"workload {workload.name} seed={args.seed} seconds={args.seconds} trace={int(trace)}")
        work = WORK / f"{workload.name}-seed{args.seed}-{os.getpid()}"
        try:
            outcome = measure_workload(workload, args.seed, args.seconds, trace, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        attempted += outcome["attempted"]
        failed += outcome["failed"]
        complete = complete and all(key in outcome["metrics"] for key in units)
        prefix = workload.name + "/" if args.workload == "all" else ""
        reported.update({
            prefix + key: {"value": outcome["metrics"][key], "unit": unit}
            for key, unit in units.items()
            if key in outcome["metrics"]
        })

    print(json.dumps({"correct": failed == 0 and complete, "attempted": attempted,
                      "failed": failed, "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
