"""Exact population and empirical risk functionals over finite supports.

Population quantities are finite sums over the support, so "population" here
means exact, not estimated. Empirical quantities average over an atom-id
sample. The Bernstein-condition checker reports per-function margins instead
of a bare boolean so that failures on non-convex classes are inspectable and
so that feeding it the empirical measure reproduces the offset-condition
check (the two conditions swap the roles of empirical and population terms).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .complexity import _lowest_best
from .model import (
    Dictionary,
    DiscreteDistribution,
    LossSpec,
    PredictorWeights,
    Sample,
    predict_all,
)

__all__ = [
    "ReferenceSolution",
    "BernsteinReport",
    "population_risk_of_values",
    "empirical_risk_of_values",
    "population_minimizer",
    "excess_risk",
    "empirical_measure",
    "bernstein_check",
]


@dataclass(frozen=True)
class ReferenceSolution:
    """Population risk minimizer over the dictionary rows; ties to the lowest index."""

    gstar_index: int
    gstar_risk: float


@dataclass(frozen=True)
class BernsteinReport:
    """Per-function margins of E(f - g*)^2 <= (1/gamma) E[loss_f - loss_g*].

    ``margins[j] = rhs_j - lhs_j``; the condition holds for function j when
    its margin is >= -1e-12.
    """

    lhs: np.ndarray
    rhs: np.ndarray
    margins: np.ndarray
    holds: bool
    gamma: float


def population_risk_of_values(
    dist: DiscreteDistribution, loss: LossSpec, values: np.ndarray
) -> np.ndarray:
    """Exact risks of predictors given their values at every atom.

    The support is the last axis of ``values``; the result drops it, so a
    (..., s) value table gives (...) risks and one length-s row one risk.
    """
    return loss.eval(values, dist.ys) @ dist.probs


def empirical_risk_of_values(
    sample: Sample, dist: DiscreteDistribution, loss: LossSpec, values: np.ndarray
) -> float:
    """Average loss of a predictor over the sample, given atom values.

    The sample enters through its atom counts: count(a) / n weighs atom a.
    """
    return float(sample.counts(dist)[0] @ loss.eval(values, dist.ys) / sample.n)


def population_minimizer(
    dist: DiscreteDistribution, loss: LossSpec, dictionary: Dictionary
) -> ReferenceSolution:
    """Best dictionary row by exact risk; ties: lowest index within relative 1e-12."""
    dictionary.validate_for(dist)
    risks = population_risk_of_values(dist, loss, dictionary.values)
    j = int(_lowest_best(risks))
    return ReferenceSolution(gstar_index=j, gstar_risk=float(risks[j]))


def excess_risk(
    dist: DiscreteDistribution,
    loss: LossSpec,
    dictionary: Dictionary,
    predictor: PredictorWeights,
) -> float:
    """Risk of the predictor minus the best dictionary risk; never clamped.

    Negative values are meaningful: a predictor outside the dictionary can
    beat every row.
    """
    ref = population_minimizer(dist, loss, dictionary)
    risk = population_risk_of_values(dist, loss, predict_all(dictionary, predictor))
    return float(risk) - ref.gstar_risk


def empirical_measure(sample: Sample, dist: DiscreteDistribution) -> DiscreteDistribution:
    """The sample's empirical measure, as a reweighting of the same support.

    Atom a receives mass count(a)/n. Reusing the support keeps every
    atom-indexed evaluation table valid for the new measure, which is what
    makes the empirical/population duality checks exact.
    """
    probs = sample.counts(dist)[0] / sample.n
    return DiscreteDistribution(xs=dist.xs, ys=dist.ys, probs=probs, b=dist.b)


def bernstein_check(
    dist: DiscreteDistribution,
    loss: LossSpec,
    class_values: np.ndarray,
    gstar_values: np.ndarray,
    gamma: float,
) -> BernsteinReport:
    """Check E(f - g*)^2 <= (1/gamma) E[loss_f - loss_g*] for every class row.

    ``class_values`` is a (k, s) evaluation table of the class members over
    the support; ``gstar_values`` is the length-s table of the reference
    minimizer. Feeding the empirical measure of a sample as ``dist`` together
    with the empirical risk minimizer as ``gstar_values`` turns this into the
    deterministic offset-condition check with the roles of empirical and
    population quantities interchanged.
    """
    if not 0 < gamma < np.inf:
        raise ValueError(f"gamma must be positive and finite, got {gamma!r}")
    class_values = np.atleast_2d(np.asarray(class_values, dtype=np.float64))
    gstar_values = np.asarray(gstar_values, dtype=np.float64).ravel()
    if class_values.shape[1] != dist.size or gstar_values.shape[0] != dist.size:
        raise ValueError("evaluation tables must match the support size")
    diff = class_values - gstar_values[None, :]
    lhs = (diff**2) @ dist.probs
    risk_gap = (
        loss.eval(class_values, dist.ys[None, :]) - loss.eval(gstar_values, dist.ys)[None, :]
    ) @ dist.probs
    rhs = risk_gap / gamma
    margins = rhs - lhs
    return BernsteinReport(
        lhs=lhs,
        rhs=rhs,
        margins=margins,
        holds=bool(np.all(margins >= -1e-12)),
        gamma=gamma,
    )
