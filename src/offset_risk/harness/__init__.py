"""Experiment harness: configuration, rate studies, outputs, verification, CLI."""

from .aggregate import AggregateStudy, RateFit, fit_rate, run_aggregate
from .config import CHECK_IDS, ExperimentConfig, config_hash, resolve_instance
from .outputs import emit_outputs, read_csv, write_csv, write_json, write_svg
from .verify import CheckResult, run_verify

__all__ = [
    "AggregateStudy",
    "RateFit",
    "fit_rate",
    "run_aggregate",
    "ExperimentConfig",
    "config_hash",
    "resolve_instance",
    "emit_outputs",
    "read_csv",
    "write_csv",
    "write_json",
    "write_svg",
    "CHECK_IDS",
    "CheckResult",
    "run_verify",
]
