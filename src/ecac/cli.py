"""Benchmark command line: run, ablate, plot."""

from __future__ import annotations

import argparse
import json
import os
import pickle
import sys
from contextlib import contextmanager
from itertools import groupby
from pathlib import Path

from .algorithms import ALGORITHM_NAMES, build_algorithm
from .config import DEFAULT_SWEEP, RunConfig, parse_config_file
from .density import DEFAULT_PERCENTILE, pairwise_distance_percentiles
from .errors import ConfigError, EcacError, MissingResult, ZeroBaseline
from .metrics import improvement_rate
from .optimizer import (
    NODENSITY, RANDOM, STRATEGY_KINDS, SelectionStrategy, identify_extended_centers, prepare_extension,
    trace_records,
)
from .pipeline import SCHEMA_VERSION, ClusteringResult, compute_centers, run_baseline, run_optimized
from .svg import render_scatter


def _fmt(score) -> str:
    return "n/a" if score is None else f"{score:.4f}"


def _fmt_gain(baseline, optimized) -> str:
    if baseline is None or optimized is None:
        return ""
    try:
        return f" ({improvement_rate(baseline, optimized):+.1f}%)"
    except ZeroBaseline:
        return " (n/a: zero baseline)"


# The most items of a list that one piece of a JSON file encodes. The C
# encoder holds the text of a piece's values until it joins them: writing
# a payload with one record of 10,000 labels traced 0.09 MB in slices of
# this size, against 0.67 MB for the record's ``json.dumps``, and of
# 200,000 labels 0.09 against 3.72 MB.
_JSON_SLICE = 1024

# The types whose values ``_json_pieces`` walks into.
_CONTAINERS = (dict, list, tuple)

# ``json.dumps(value, sort_keys=True)``, without a new encoder per call.
_encode = json.JSONEncoder(sort_keys=True).encode


def _json_pieces(payload: dict):
    """``json.dumps(payload, sort_keys=True) + "\\n"`` in pieces: a dict
    key by key, a run of keys with plain values in one piece; a list
    whose first item is a container (records, sets) item by item; any
    other list in slices of ``_JSON_SLICE`` items, one piece each, so no
    piece holds a record's labels whole. Keys are strings."""
    yield from _pieces(payload)
    yield "\n"


def _pieces(value):
    """The pieces of ``json.dumps(value, sort_keys=True)`` (see
    ``_json_pieces``)."""
    if isinstance(value, dict):
        yield "{"
        sep = ""
        for walked, keys in groupby(sorted(value), lambda key: isinstance(value[key], _CONTAINERS)):
            if walked:
                for key in keys:
                    yield sep + _encode(key) + ": "
                    yield from _pieces(value[key])
                    sep = ", "
            else:
                yield sep + _encode({key: value[key] for key in keys})[1:-1]
                sep = ", "
        yield "}"
    elif isinstance(value, (list, tuple)) and value and isinstance(value[0], _CONTAINERS):
        yield "["
        for i, item in enumerate(value):
            if i:
                yield ", "
            yield from _pieces(item)
        yield "]"
    elif isinstance(value, (list, tuple)):
        yield "["
        for lo in range(0, len(value), _JSON_SLICE):
            yield (", " if lo else "") + _encode(value[lo:lo + _JSON_SLICE])[1:-1]
        yield "]"
    else:
        yield _encode(value)


@contextmanager
def _replacing(path: Path):
    """A text file to write in place of ``path``: a temporary file beside
    it that replaces it once the block ends, so a failed write leaves
    the previous file whole and no temporary file behind. An ``OSError``
    becomes a ``ConfigError`` that names ``path``."""
    temporary = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        try:
            with temporary.open("w", encoding="utf-8") as fh:
                yield fh
            os.replace(temporary, path)
        except BaseException:
            temporary.unlink(missing_ok=True)
            raise
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _write_json(path: Path, payload: dict):
    """Write ``payload`` to ``path`` as one compact line with sorted keys,
    piece by piece (``_json_pieces``): the C encoder holds the text of a
    piece's values until it joins them, so the write holds a slice of a
    list encoded, not a record or the whole payload.
    ``json.dump`` would stream too, but only through the pure-Python
    encoder, several times slower, as ``indent`` would. The file is
    written through ``_replacing``."""
    with _replacing(path) as fh:
        fh.writelines(_json_pieces(payload))


def _write_trace(path: Path, steps):
    """Write the trace columns ``steps`` (``ExtendedSets.steps``) to
    ``path`` through ``_replacing``, one line per step, its record
    (``trace_records``) as ``json.dumps(record, sort_keys=True)`` writes
    it. Records are built ``_JSON_SLICE`` steps at a time, never all."""
    with _replacing(path) as fh:
        for lo in range(0, len(steps[0]), _JSON_SLICE):
            records = trace_records([column[lo:lo + _JSON_SLICE] for column in steps])
            fh.write("".join([_encode(record) + "\n" for record in records]))


def _resolve_deltas(config: RunConfig, dataset, truth) -> list[float]:
    """Turn the delta options into a list of absolute radii to try.

    With no sweep option and no ground truth this is a single radius:
    the explicit value, else the default percentile.
    """
    if config.delta is not None:
        return [float(config.delta)]
    if config.delta_percentile is not None:
        fractions = [config.delta_percentile]
    elif config.delta_sweep is not None:
        fractions = config.delta_sweep
    elif truth is not None:
        fractions = list(DEFAULT_SWEEP)
    else:
        # Without ground truth there is nothing to rank a sweep by.
        fractions = [DEFAULT_PERCENTILE]
    return pairwise_distance_percentiles(dataset, fractions)


def _strategy(config: RunConfig, kind: str, cap: int | None) -> SelectionStrategy:
    seed = config.seed if kind == RANDOM else None
    return SelectionStrategy(kind=kind, seed=seed, cap=cap)


def _usable_cores() -> int:
    """The cores this process may run on; 1 where it cannot fork."""
    if not (hasattr(os, "sched_getaffinity") and hasattr(os, "fork")):
        return 1
    return len(os.sched_getaffinity(0))


def _run_share(job, items: list, share: range):
    """``job`` over the share's items, stopping at the first failure.

    Returns the ``(index, result)`` pairs computed and the failure as
    ``(index, exception)``, or None.
    """
    done = []
    for i in share:
        try:
            done.append((i, job(items[i])))
        except Exception as exc:
            return done, (i, exc)
    return done, None


def _send_share(job, items: list, share: range, write_fd: int):
    """A forked worker: run the share, pickle the outcome into the pipe
    and exit. It never returns, which would resume the caller's stack
    (under pytest, the test run) in the child."""
    status = 1
    try:
        with os.fdopen(write_fd, "wb") as pipe:
            pipe.write(pickle.dumps(_run_share(job, items, share), pickle.HIGHEST_PROTOCOL))
        status = 0
    finally:
        os._exit(status)


def _fan_out(job, items: list, what: str) -> list:
    """``[job(item) for item in items]`` on up to one process per usable core.

    The items are dealt round-robin: this process runs the first share
    and a forked child each other one, sending its results back through
    a pipe. A child inherits this process's memory copy-on-write, so what
    the jobs share is best built before the call. Results come back in
    input order, and the failure with the lowest index is raised, as the
    plain loop would raise it; a child that dies gives an error naming
    ``what`` it ran (``sweep``, ``ablate``). With one core or one item
    nothing is forked.
    """
    workers = min(len(items), _usable_cores())
    shares = [range(first, len(items), workers) for first in range(workers)]
    children = []  # (pid, read end of its pipe, share)
    payloads = []
    statuses = []
    try:
        for share in shares[1:]:
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                _send_share(job, items, share, write_fd)
            # Closed here, so a worker that dies gives EOF.
            os.close(write_fd)
            children.append((pid, os.fdopen(read_fd, "rb"), share))
        outcomes = [_run_share(job, items, shares[0])]
        # Every pipe is read before any wait: a worker blocks on a full pipe.
        payloads = [pipe.read() for _, pipe, _ in children]
    finally:
        for pid, pipe, _ in children:
            pipe.close()
            statuses.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))

    for (pid, _, share), payload, status in zip(children, payloads, statuses):
        if payload:
            outcomes.append(pickle.loads(payload))
        else:
            ended = f"exit status {status}" if status >= 0 else f"signal {-status}"
            error = EcacError(f"{what} worker {pid} ended without a result ({ended})")
            outcomes.append(([], (share[0], error)))
    results = [None] * len(items)
    failures = []
    for done, failure in outcomes:
        for i, result in done:
            results[i] = result
        if failure is not None:
            failures.append(failure)
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    return results


def cmd_run(config: RunConfig, dump_trace: bool = False, quiet: bool = False) -> dict:
    """Baseline and optimized pipelines on shared centers; persists JSON.

    The delta sweep runs on up to one process per usable core
    (``os.sched_getaffinity``) and never on more processes than delta
    values: this process runs its share of the values and forked workers,
    which inherit the dataset, its index and the centers, run the rest.
    The results are identical to trying the values one after another,
    which is what a run on one core (``taskset -c 0``) or at one delta
    does. The sweep keeps the first value with the highest NMI.
    """
    dataset, truth = config.load_dataset()
    algorithm = build_algorithm(config.algo, seed=config.seed, max_iter=config.max_iter, d_c=config.d_c)
    centers, extras = compute_centers(dataset, algorithm, config.k)

    baseline = run_baseline(dataset, algorithm, config.k, centers=centers)
    baseline.extras.update(extras)
    baseline.attach_metrics(truth)

    strategy = _strategy(config, config.strategy, config.cap)

    def optimize(delta):
        return run_optimized(
            dataset, algorithm, config.k, delta=delta, strategy=strategy, centers=centers
        ).attach_metrics(truth)

    sweep = _fan_out(optimize, _resolve_deltas(config, dataset, truth), "sweep")
    # The first record with the highest NMI; its dict is built once, for
    # both "optimized" and "sweep".
    pick = max(range(len(sweep)), key=lambda i: sweep[i].nmi_score) if truth is not None else 0
    best = sweep[pick]
    records = [r.to_dict() for r in sweep]

    payload = {
        "schema_version": SCHEMA_VERSION,
        "config": config.echo(),
        "baseline": baseline.to_dict(),
        "optimized": records[pick],
        "sweep": records,
    }
    out = Path(config.out)
    _write_json(out / "result.json", payload)
    if dump_trace:
        _write_trace(out / "trace.jsonl", best.steps)

    if quiet:
        return payload
    rows = [
        ("", ["NMI", "RI"]),
        ("baseline", [_fmt(baseline.nmi_score), _fmt(baseline.ri_score)]),
        ("optimized", [
            _fmt(best.nmi_score) + _fmt_gain(baseline.nmi_score, best.nmi_score),
            _fmt(best.ri_score) + _fmt_gain(baseline.ri_score, best.ri_score),
        ]),
    ]
    # Columns 22 wide, wider if a cell needs it, at least one space apart.
    width = max(22, 1 + max(len(cell) for _, cells in rows for cell in cells))
    print(f"dataset: n={dataset.n} d={dataset.d}  algo={config.algo} k={config.k}")
    print(f"sweep: {len(sweep)} delta value(s); best delta={best.delta:.6g} (s={best.s})")
    for name, cells in rows:
        print(f"{name:11s}" + "".join(f"{cell:>{width}s}" for cell in cells))
    return payload


def cmd_ablate(config: RunConfig, variants: list[str], dump_trace: bool = False, quiet: bool = False) -> dict:
    """Run several strategies on identical centers and delta; compare.

    The variants run on up to one process per usable core, as ``run``'s
    sweep does (``_fan_out``). Before the fork this process builds what
    every variant reads at their one delta, the neighbour count and the
    candidate runs (``prepare_extension``), and, for a count-matched
    comparison, runs the probe that sets the cap; the workers share
    these copy-on-write, and no variant builds them again. The results
    are identical to running the variants one after another, which is
    what a run on one core does.
    """
    if len(variants) < 2:
        raise ConfigError("ablate needs at least two variants")
    for v in variants:
        if v not in STRATEGY_KINDS:
            raise ConfigError(f"unknown variant {v!r}")
    repeated = sorted({v for v in variants if variants.count(v) > 1})
    if repeated:
        # Records, trace files and the JSON are keyed by strategy name.
        raise ConfigError(f"variant listed more than once: {', '.join(repeated)}")
    if config.delta_sweep is not None:
        raise ConfigError("ablate compares at a single delta, not a sweep")

    dataset, truth = config.load_dataset()
    algorithm = build_algorithm(config.algo, seed=config.seed, max_iter=config.max_iter, d_c=config.d_c)
    centers, _ = compute_centers(dataset, algorithm, config.k)
    (delta,) = _resolve_deltas(config, dataset, truth=None)
    prepare_extension(dataset, delta)

    cap = config.cap
    if cap is None and NODENSITY in variants:
        # Count-matched comparison: cap every variant at the mean per-set
        # extension of an uncapped local extension on this dataset, so the
        # compared runs identify the same number of extended-centers.
        probe = identify_extended_centers(dataset, centers, delta)
        cap = max(1, -(-(probe.s - config.k) // config.k))

    def optimize(kind):
        return run_optimized(
            dataset, algorithm, config.k, delta=delta, strategy=_strategy(config, kind, cap),
            centers=centers,
        ).attach_metrics(truth)

    records = _fan_out(optimize, variants, "ablate")

    payload = {
        "schema_version": SCHEMA_VERSION,
        "config": config.echo(),
        "delta": delta,
        "cap": cap,
        "variants": {r.strategy: r.to_dict() for r in records},
    }
    out = Path(config.out)
    _write_json(out / "ablate.json", payload)
    if dump_trace:
        for r in records:
            _write_trace(out / f"trace-{r.strategy}.jsonl", r.steps)

    if quiet:
        return payload
    print(f"dataset: n={dataset.n} d={dataset.d}  algo={config.algo} k={config.k} delta={delta:.6g} cap={cap}")
    print(f"{'variant':12s}{'NMI':>10s}{'RI':>10s}{'s':>8s}{'extend_ms':>12s}{'fallbacks':>11s}")
    for r in records:
        print(
            f"{r.strategy:12s}{_fmt(r.nmi_score):>10s}{_fmt(r.ri_score):>10s}"
            f"{r.s:>8d}{r.timings.get('extend_ms', 0.0):>12.1f}{r.fallback_count:>11d}"
        )
    return payload


def cmd_plot(result_path, mode: str, out_path=None) -> Path:
    """Render a persisted run result as an SVG scatter plot."""
    result_path = Path(result_path)
    if not result_path.exists():
        raise MissingResult(f"no result file at {result_path}")
    try:
        payload = json.loads(result_path.read_text(encoding="utf-8"))
        if not isinstance(payload, dict) or not isinstance(payload.get("config"), dict):
            raise TypeError("no config table")
        config = RunConfig.from_sources(payload["config"], {})
        result = ClusteringResult.from_dict(payload["optimized"])
    except (KeyError, TypeError, ValueError) as exc:
        raise MissingResult(f"{result_path} is not a run result: {exc}") from None
    dataset, _ = config.load_dataset()
    svg = render_scatter(
        dataset.points,
        result.labels,
        result.center_ids,
        mode=mode,
        extended_sets=result.extended_sets,
    )
    if out_path is None:
        out_path = result_path.parent / f"plot-{mode}.svg"
    out_path = Path(out_path)
    with _replacing(out_path) as fh:
        fh.write(svg)
    print(f"wrote {out_path}")
    return out_path


def _label_col(value: str):
    try:
        return int(value)
    except ValueError:
        return value


def _add_common_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--config", help="TOML config file (top-level keys)")
    parser.add_argument("--data", help="CSV dataset path")
    parser.add_argument("--label-col", type=_label_col, dest="label_col",
                        help="label column index or header name")
    parser.add_argument("--algo", choices=ALGORITHM_NAMES)
    parser.add_argument("--k", type=int)
    parser.add_argument("--delta", type=float, help="absolute neighborhood radius")
    parser.add_argument("--delta-percentile", type=float, dest="delta_percentile",
                        help="radius as a pairwise-distance percentile in (0,1)")
    parser.add_argument("--delta-sweep", dest="delta_sweep",
                        help="comma-separated percentile fractions to sweep")
    parser.add_argument("--strategy", choices=STRATEGY_KINDS)
    parser.add_argument("--cap", type=int, help="max extended-centers per set")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--d-c", type=float, dest="d_c", help="DPC cutoff distance")
    parser.add_argument("--max-iter", type=int, dest="max_iter")
    parser.add_argument("--normalize", action="store_const", const=True, default=None,
                        help="min-max scale features to [0,1]")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--trace", action="store_true",
                        help="also dump the per-selection trace as JSON lines")


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    file_values = parse_config_file(args.config) if args.config else None
    fields = RunConfig.__dataclass_fields__
    flags = {key: value for key, value in vars(args).items() if key in fields}
    return RunConfig.from_sources(file_values, flags)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ecac",
        description="Benchmark center-based clustering with extended-center optimization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="baseline vs optimized on one dataset")
    _add_common_flags(p_run)

    p_ablate = sub.add_parser("ablate", help="compare selection strategies")
    _add_common_flags(p_ablate)
    p_ablate.add_argument(
        "--variants", default="local,global",
        help="comma-separated strategies to compare (>= 2)",
    )

    p_plot = sub.add_parser("plot", help="render a result.json as SVG")
    p_plot.add_argument("result", help="path to result.json")
    p_plot.add_argument("--mode", choices=["clusters", "extended-sets"],
                        default="clusters")
    p_plot.add_argument("--out", help="output SVG path")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            cmd_run(_config_from_args(args), dump_trace=args.trace)
        elif args.command == "ablate":
            variants = [v.strip() for v in args.variants.split(",") if v.strip()]
            cmd_ablate(_config_from_args(args), variants, dump_trace=args.trace)
        elif args.command == "plot":
            cmd_plot(args.result, args.mode, args.out)
    except EcacError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
