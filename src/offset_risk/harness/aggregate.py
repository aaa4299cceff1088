"""Excess-risk rate study: replicated fits across a sample-size grid.

For each n in the grid, ``replicates`` independent trials draw a sample, fit
the configured estimator (one batch over their atom counts), and record the
exact excess risk. The per-n readout is the empirical (1 - delta)-quantile
(the natural statistic for a deviation claim), alongside mean and median; a
log-log least-squares line through the quantile column summarizes the decay
rate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..estimators import _fit_rows
from ..model import Dictionary, DiscreteDistribution, replicate_counts, squared_loss
from ..risk import population_minimizer, population_risk_of_values
from .config import ExperimentConfig, resolve_instance

__all__ = ["RateFit", "AggregateStudy", "fit_rate", "run_aggregate"]


@dataclass(frozen=True)
class RateFit:
    points: tuple[tuple[int, float], ...]
    slope: float
    intercept: float
    r_squared: float


@dataclass(frozen=True)
class AggregateStudy:
    estimator: str
    delta: float
    rows: list[tuple[int, int, float]]  # (n, replicate, excess risk)
    summary: list[dict]
    rate: RateFit | None  # None where fit_rate would refuse the quantile points


def _rate_problem(points: list[tuple[int, float]]) -> str | None:
    """Why ``fit_rate`` cannot fit these points, or None when it can."""
    if len(points) < 2:
        return f"rate fit needs at least two points, got {len(points)}"
    if len({n for n, _ in points}) < 2:
        return f"rate fit needs at least two distinct n, got only n = {int(points[0][0])}"
    bad = [int(n) for n, s in points if not 0 < s < np.inf]
    if bad:
        return f"rate fit needs positive finite statistics; nonpositive or not finite at n = {bad}"
    return None


def fit_rate(points: list[tuple[int, float]]) -> RateFit:
    """Least squares on log-log transformed (n, statistic) points; needs two or more n."""
    problem = _rate_problem(points)
    if problem is not None:
        raise ValueError(problem)
    ns = np.array([p[0] for p in points], dtype=float)
    stats = np.array([p[1] for p in points], dtype=float)
    lx, ly = np.log(ns), np.log(stats)
    slope, intercept = np.polyfit(lx, ly, 1)
    fitted = slope * lx + intercept
    ss_res = float(np.sum((ly - fitted) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return RateFit(
        points=tuple((int(n), float(s)) for n, s in points),
        slope=float(slope),
        intercept=float(intercept),
        r_squared=r2,
    )


def run_aggregate(
    config: ExperimentConfig,
    dist: DiscreteDistribution | None = None,
    dictionary: Dictionary | None = None,
) -> AggregateStudy:
    if dist is None or dictionary is None:
        dist, dictionary = resolve_instance(config)
    loss = squared_loss(dist.b)
    gstar_risk = population_minimizer(dist, loss, dictionary).gstar_risk

    rows = []
    summary = []
    points = []
    for n in config.n_grid:
        tag = f"aggregate-{config.estimator}-n{n}"
        counts, _ = replicate_counts(config.seed, tag, config.replicates, n, dist)
        weights = _fit_rows(counts, dist, loss, dictionary,
                            config.estimator, config.delta, config.c1)[2]
        vals = population_risk_of_values(dist, loss, weights @ dictionary.values) - gstar_risk
        rows.extend((n, rep, float(ex)) for rep, ex in enumerate(vals))
        q = float(np.quantile(vals, 1.0 - config.delta))
        summary.append(
            {
                "n": int(n),
                "mean": float(vals.mean()),
                "median": float(np.median(vals)),
                "quantile": q,
                "quantile_level": 1.0 - config.delta,
            }
        )
        points.append((n, q))
    rate = None if _rate_problem(points) else fit_rate(points)
    return AggregateStudy(
        estimator=config.estimator,
        delta=config.delta,
        rows=rows,
        summary=summary,
        rate=rate,
    )
