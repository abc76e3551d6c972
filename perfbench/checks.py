"""Correctness checks on the JSON an `ecac run` / `ecac ablate` writes."""

from __future__ import annotations

import hashlib
import json

import numpy as np


def strip_timings(obj):
    """Drop every ``timings`` block: the only nondeterministic part of a result."""
    if isinstance(obj, dict):
        return {k: strip_timings(v) for k, v in obj.items() if k != "timings"}
    if isinstance(obj, list):
        return [strip_timings(x) for x in obj]
    return obj


def content_digest(payload: dict) -> str:
    """sha256 of the result with timings removed; equal across runs of one input."""
    text = json.dumps(strip_timings(payload), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def label_digest(label_arrays) -> str:
    """Short sha256 over one or more label vectors, as int64 bytes in order."""
    h = hashlib.sha256()
    for labels in label_arrays:
        h.update(np.asarray(labels, dtype=np.int64).tobytes())
    return h.hexdigest()[:12]


def optimized_records(command: str, payload: dict) -> list[dict]:
    """The optimized records a command writes: the sweep, or every ablation variant."""
    if command == "run":
        return list(payload["sweep"])
    return list(payload["variants"].values())


def best_labels(command: str, payload: dict) -> list[list[int]]:
    """Labels the traced run must reproduce: the chosen δ, or every variant in order."""
    if command == "run":
        return [payload["optimized"]["labels"]]
    return [record["labels"] for record in payload["variants"].values()]


def check_record(record: dict, n: int, errors: list[str], where: str):
    k = record["k"]
    labels = np.asarray(record["labels"], dtype=np.int64)
    if labels.shape != (n,):
        errors.append(f"{where}: {labels.size} labels for n={n}")
        return
    if labels.min() < 0 or labels.max() >= k:
        errors.append(f"{where}: labels outside 0..{k - 1}")
    sets = record["extended_sets"]
    members = [m for group in sets for m in group]
    if record["s"] != len(members) or record["s"] > n:
        errors.append(f"{where}: s={record['s']} with {len(members)} members, n={n}")
    if len(set(members)) != len(members):
        errors.append(f"{where}: extended sets are not disjoint")
    if len(sets) != k or [group[0] for group in sets] != record["center_ids"]:
        errors.append(f"{where}: extended sets do not start with their centers")
    for j, group in enumerate(sets):
        if (labels[np.asarray(group, dtype=np.int64)] != j).any():
            errors.append(f"{where}: a member of set {j} is not labelled {j}")
            break


def check_payload(command: str, payload: dict, n: int, floors: dict) -> list[str]:
    """Every check one run's output must pass; returns the failures found."""
    errors: list[str] = []
    records = optimized_records(command, payload)
    if command == "run":
        check_record(payload["baseline"], n, errors, "baseline")
        check_record(payload["optimized"], n, errors, "optimized")
    for record in records:
        where = f"{record['strategy']}@{record['delta']:.6g}"
        check_record(record, n, errors, where)
        if record["cap"] is None and not record["extras"].get("coverage_complete"):
            errors.append(f"{where}: uncapped run left objects uncovered")
    for metric, floor in floors.items():
        low = min(record[metric] for record in records)
        if not low >= floor:
            errors.append(f"lowest {metric} {low:.4f} is below the floor {floor}")
    return errors
