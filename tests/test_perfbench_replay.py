"""The benchmark's traced replay (``perfbench/workloads.traced_run``) run
in-process against the labels the ``ecac`` command writes, for each
workload on its seed-0 input: a change that breaks the replay's calls
into the package fails here, not only in the benchmark."""

import importlib
import json
from pathlib import Path

import pytest

from ecac.cli import main

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def perfbench(monkeypatch):
    """perfbench's ``checks``, ``tracing`` and ``workloads`` modules, by
    the names ``perfbench/run.py`` imports them under."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    return [importlib.import_module(name) for name in ("checks", "tracing", "workloads")]


@pytest.mark.parametrize(
    "name", ["sweep-spiral-kmeans", "blobs-dpc-capped", "ablate-spiral-global"]
)
def test_traced_replay_matches_the_command(tmp_path, perfbench, name):
    checks, tracing, workloads = perfbench
    workload = workloads.WORKLOADS[name]
    csv_path = tmp_path / "input.csv"
    workload.write_input(ROOT, 0, csv_path)
    out = tmp_path / "out"
    assert main(workload.argv(csv_path, out)) == 0
    output = out / ("result.json" if workload.command == "run" else "ablate.json")
    payload = json.loads(output.read_text())

    tracer = tracing.Tracer(name)
    replayed = workloads.traced_run(workload, csv_path, tracer)
    assert checks.label_digest(replayed) == checks.label_digest(
        checks.best_labels(workload.command, payload)
    )
    # Every per-layer metric, the counters included, comes out of the replay.
    metrics = workloads.layer_metrics(tracer, run_s=0.0)
    assert metrics["optimizer.steps"] > 0
    assert 0 < metrics["optimizer.useful_step_ratio"] <= 1
