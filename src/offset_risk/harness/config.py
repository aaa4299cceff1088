"""Experiment configuration: JSON-loadable, hashable, validated up front."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import numbers
from dataclasses import dataclass
from pathlib import Path

from ..estimators import MIRROR_MAPS
from ..instances import rate_study_instance
from ..model import Dictionary, DiscreteDistribution, load_instance, load_instance_file

__all__ = ["CHECK_IDS", "ExperimentConfig", "config_hash", "resolve_instance"]

_COMMANDS = ("aggregate", "complexity", "concentration", "mirror", "verify")
_ESTIMATORS = ("erm", "star", "midpoint")
# The verify checks, in run order; verify looks up check_<id> for each.
CHECK_IDS = (
    "star_offset",
    "self_localization",
    "offset_vs_local",
    "sparse_identity",
    "sparse_shape",
    "mgf_bound",
    "tail_bound",
    "aggregation_rate",
    "mirror_descent",
    "duality",
)


def _is_a(value, kind) -> bool:
    """isinstance for loaded JSON values, where a bool is not a number."""
    return isinstance(value, kind) and not isinstance(value, bool)


@dataclass(frozen=True)
class ExperimentConfig:
    command: str = "verify"
    seed: int = 0
    n_grid: tuple[int, ...] = (64, 128, 256, 512, 1024, 2048, 4096)
    replicates: int = 1000
    delta: float = 0.05
    estimator: str = "star"
    gamma: float | None = None
    epsilon: float = 0.05
    c1: float = 4.0
    step: float = 1e-3
    mirror_map: str = "euclidean"
    instance: dict | str | None = None
    checks: tuple[str, ...] | None = None  # verify: subset of check ids to run

    def __post_init__(self) -> None:
        if self.command not in _COMMANDS:
            raise ValueError(f"unknown command {self.command!r}; expected one of {_COMMANDS}")
        if self.estimator not in _ESTIMATORS:
            raise ValueError(f"unknown estimator {self.estimator!r}")
        for name in ("seed", "replicates"):
            if not _is_a(getattr(self, name), numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        for name in ("gamma", "delta", "epsilon", "c1", "step"):
            value = getattr(self, name)
            if not (_is_a(value, numbers.Real) or name == "gamma" and value is None):
                raise ValueError(f"{name} must be a number, got {value!r}")
        for name in ("n_grid", "checks"):
            value = getattr(self, name)
            if not (isinstance(value, (list, tuple)) or name == "checks" and value is None):
                raise ValueError(f"{name} must be a list, got {value!r}")
        if len(self.n_grid) == 0:
            raise ValueError("n_grid must be nonempty")
        if not all(_is_a(n, numbers.Integral) for n in self.n_grid):
            raise ValueError(f"n_grid must hold integers, got {self.n_grid!r}")
        grid = tuple(int(n) for n in self.n_grid)
        if any(b <= a for a, b in zip(grid, grid[1:])) or grid[0] < 1:
            raise ValueError("n_grid must be strictly increasing and positive")
        object.__setattr__(self, "n_grid", grid)
        if self.replicates < 1:
            raise ValueError("replicates must be at least 1")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie strictly between 0 and 1")
        for name in ("gamma", "epsilon", "step", "c1"):
            value = getattr(self, name)
            if value is not None and not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        if not isinstance(self.mirror_map, str) or self.mirror_map not in MIRROR_MAPS:
            raise ValueError(
                f"unknown mirror map {self.mirror_map!r}; expected one of {tuple(MIRROR_MAPS)}"
            )
        if not (self.instance is None or isinstance(self.instance, (str, dict))):
            raise ValueError(
                f"instance must be a file path or an instance document, got {self.instance!r}"
            )
        if isinstance(self.instance, str) and not Path(self.instance).exists():
            raise ValueError(f"instance file {self.instance!r} does not exist")
        if self.instance is not None:
            resolve_instance(self)  # a malformed instance fails here, at load
        if self.checks is not None:
            checks = tuple(self.checks)
            if not checks:
                raise ValueError("checks must name at least one check; leave it out to run all")
            unknown = [c for c in checks if c not in CHECK_IDS]
            if unknown:
                raise ValueError(f"unknown check ids: {sorted(unknown, key=str)}")
            object.__setattr__(self, "checks", checks)

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(doc) - known
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        return cls(**doc)

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def replaced(self, **overrides) -> "ExperimentConfig":
        return dataclasses.replace(self, **overrides)


def config_hash(config: ExperimentConfig) -> str:
    """Short stable digest of the full configuration, for provenance."""
    doc = dataclasses.asdict(config)
    blob = json.dumps(doc, sort_keys=True, default=str).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:12]


def resolve_instance(
    config: ExperimentConfig,
) -> tuple[DiscreteDistribution, Dictionary]:
    """Materialize the configured instance; defaults to the rate-study one."""
    if config.instance is None:
        return rate_study_instance()
    if isinstance(config.instance, dict):
        return load_instance(config.instance)
    return load_instance_file(config.instance)
