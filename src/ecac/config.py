"""Run configuration: TOML config files plus flag overrides."""

from __future__ import annotations

from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from .algorithms import ALGORITHM_NAMES
from .data import Dataset, GroundTruth, generate_gaussian_mixture, load_csv
from .density import DEFAULT_PERCENTILE  # noqa: F401  (perfbench/workloads.py imports it from here)
from .errors import ConfigError
from .optimizer import STRATEGY_KINDS

# Percentiles swept when no delta option is given and ground truth is
# available to rank the sweep.
DEFAULT_SWEEP = (0.005, 0.01, 0.02, 0.04, 0.08)


def parse_config_file(path) -> dict:
    """The top-level keys of a TOML file; an unreadable or malformed file
    is a ``ConfigError`` that names it."""
    # Imported here, not at module level: the benchmark's workloads pass
    # flags only, so `import ecac.cli` must not pay for loading tomllib.
    import tomllib

    try:
        with open(path, "rb") as fh:
            return tomllib.load(fh)
    except (OSError, tomllib.TOMLDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None


def _parse_sweep(value) -> list[float]:
    """``delta_sweep`` as a list of floats, from a list or a comma string."""
    entries = value.split(",") if isinstance(value, str) else value
    if not isinstance(entries, list) or not entries:
        raise ConfigError(
            f"delta_sweep must be a nonempty list or comma-separated string, got {value!r}"
        )
    try:
        return [float(p) for p in entries]
    except (TypeError, ValueError):
        raise ConfigError(f"delta_sweep entries must be numbers, got {value!r}") from None


@dataclass
class RunConfig:
    """Everything a benchmark run needs, resolvable from file and flags."""

    data: str | None = None
    label_col: int | str | None = None
    gen_k: int | None = None
    gen_n: object = None  # int or per-cluster list
    gen_means: object = None  # "x,y | x,y | ..." or nested list
    gen_stddev: object = 1.0
    gen_seed: int = 0
    algo: str = "kmeans"
    k: int = 0
    delta: float | None = None
    delta_percentile: float | None = None
    delta_sweep: list[float] | None = None
    strategy: str = "local"
    cap: int | None = None
    seed: int = 0
    d_c: float | None = None
    max_iter: int = 300
    normalize: bool = False
    out: str = "results"

    @classmethod
    def from_sources(cls, file_values: dict | None, flag_values: dict) -> "RunConfig":
        """Config file first, then flags; flags win."""
        config = cls()
        known = set(config.__dataclass_fields__)
        for source, values in (("config file", file_values or {}), ("flag", flag_values)):
            for key, value in values.items():
                if value is None:
                    continue
                if key not in known:
                    raise ConfigError(f"unknown {source} key {key!r}")
                setattr(config, key, value)
        config.validate()
        return config

    def validate(self):
        """Reject bad or conflicting values; parse ``delta_sweep`` to floats."""
        for keys, kinds, what in (
            (("k", "cap", "seed", "max_iter", "gen_k", "gen_seed"), int, "an integer"),
            (("delta", "delta_percentile", "d_c"), (int, float), "a number"),
            (("label_col",), (int, str), "a column number or name"),
        ):
            for key in keys:
                value = getattr(self, key)
                if value is not None and (isinstance(value, bool) or not isinstance(value, kinds)):
                    raise ConfigError(f"{key} must be {what}, got {value!r}")
        if not isinstance(self.normalize, bool):
            raise ConfigError(f"normalize must be true or false, got {self.normalize!r}")
        if (self.data is None) == (self.gen_k is None):
            raise ConfigError(
                "exactly one dataset source required: 'data' or a gen_* block"
            )
        for key, least in (("k", 1), ("seed", 0), ("gen_seed", 0), ("max_iter", 1)):
            if getattr(self, key) < least:
                raise ConfigError(f"{key} must be >= {least}, got {getattr(self, key)}")
        if self.data is not None and (not isinstance(self.data, str) or not self.data):
            raise ConfigError(f"data must be a nonempty file path, got {self.data!r}")
        if self.delta_sweep is not None:
            self.delta_sweep = _parse_sweep(self.delta_sweep)
        given = [
            name
            for name, value in (
                ("delta", self.delta),
                ("delta_percentile", self.delta_percentile),
                ("delta_sweep", self.delta_sweep),
            )
            if value is not None
        ]
        if len(given) > 1:
            raise ConfigError(f"choose one delta option, got {given}")
        if self.algo not in ALGORITHM_NAMES:
            raise ConfigError(
                f"algo must be one of {', '.join(ALGORITHM_NAMES)}, got {self.algo!r}"
            )
        if self.strategy not in STRATEGY_KINDS:
            raise ConfigError(f"unknown strategy {self.strategy!r}")

    def echo(self) -> dict:
        """The determinism-relevant part of the config, for result records."""
        record = asdict(self)
        return {key: value for key, value in record.items() if value is not None}

    def _generator_spec(self):
        means = self.gen_means
        if means is None:
            raise ConfigError("generator block needs gen_means")
        if isinstance(means, str):
            try:
                means = [
                    [float(x) for x in group.split(",")]
                    for group in means.split("|")
                    if group.strip()
                ]
            except ValueError:
                raise ConfigError(f"gen_means entries must be numbers, got {means!r}") from None
        counts = self.gen_n if self.gen_n is not None else 100
        return self.gen_k, counts, means, self.gen_stddev, self.gen_seed

    def load_dataset(self) -> tuple[Dataset, GroundTruth | None]:
        if self.data is not None:
            path = Path(self.data)
            if not path.exists():
                raise ConfigError(f"dataset file not found: {path}")
            if not path.is_file():
                raise ConfigError(f"dataset path is not a file: {path}")
            dataset, truth = load_csv(path, self.label_col)
        else:
            dataset, truth = generate_gaussian_mixture(*self._generator_spec())
        if self.normalize:
            dataset = min_max_normalize(dataset)
        return dataset, truth


def min_max_normalize(dataset: Dataset) -> Dataset:
    """Scale each feature to [0, 1]; constant features map to 0."""
    pts = dataset.points
    lo = pts.min(axis=0)
    span = pts.max(axis=0) - lo
    span = np.where(span > 0, span, 1.0)
    return Dataset((pts - lo) / span)
