"""Synthetic instance generators used by the test and verification suites.

All generators are pure functions of the numpy Generator handed to them, so
the harness can key every instance off (master seed, check id, index).
"""

from __future__ import annotations

import numpy as np

from .complexity import FiniteClassSpec
from .concentration import MultiplierSetup
from .model import Dictionary, DiscreteDistribution, Sample

__all__ = [
    "random_instance",
    "random_linear_instance",
    "random_star_class",
    "random_multiplier_setup",
    "rate_study_instance",
]


def _normalized_probs(rng: np.random.Generator, size: int) -> np.ndarray:
    probs = rng.dirichlet(np.ones(size))
    return probs / probs.sum()


def random_instance(
    rng: np.random.Generator,
    max_atoms: int = 12,
    max_m: int = 10,
    b: float = 1.0,
) -> tuple[DiscreteDistribution, Dictionary]:
    """A random finite-support joint law plus a random bounded dictionary."""
    s = int(rng.integers(2, max_atoms + 1))
    d = int(rng.integers(1, 4))
    xs = rng.normal(size=(s, d))
    ys = rng.uniform(-b, b, size=s)
    probs = _normalized_probs(rng, s)
    m = int(rng.integers(1, max_m + 1))
    values = rng.uniform(-b, b, size=(m, s))
    return (
        DiscreteDistribution(xs=xs, ys=ys, probs=probs, b=b),
        Dictionary(values=values, b=b),
    )


def random_linear_instance(
    rng: np.random.Generator, positive: bool = False
) -> tuple[DiscreteDistribution, Sample, np.ndarray, np.ndarray]:
    """A random linear mirror-descent problem: (dist, sample, w_star, w0).

    4 to 15 equally likely atoms with Gaussian features in 2 to 4 dimensions
    and responses uniform on [-1, 1]; the sample holds every atom once. With
    ``positive`` (the negative-entropy map's domain) w_star is uniform on
    [0, 0.8] and w0 on [0.2, 1], otherwise both are N(0, 0.25) per coordinate.
    Draws run s, d, xs, ys, w_star, w0.
    """
    s = int(rng.integers(4, 16))
    d = int(rng.integers(2, 5))
    xs = rng.normal(size=(s, d))
    ys = rng.uniform(-1, 1, size=s)
    dist = DiscreteDistribution(xs=xs, ys=ys, probs=np.full(s, 1 / s), b=1.0)
    if positive:
        w_star = rng.uniform(0.0, 0.8, size=d)
        w0 = rng.uniform(0.2, 1.0, size=d)
    else:
        w_star = rng.normal(scale=0.5, size=d)
        w0 = rng.normal(scale=0.5, size=d)
    return dist, Sample(indices=np.arange(s)), w_star, w0


def random_star_class(rng: np.random.Generator) -> tuple[DiscreteDistribution, FiniteClassSpec]:
    """A random law on 2 to 12 atoms with the star hull of 1 to 6 functions over it.

    Function values are uniform on [-1, 1].
    """
    s = int(rng.integers(2, 13))
    k = int(rng.integers(1, 7))
    xs = np.arange(s, dtype=np.float64)[:, None]
    ys = np.zeros(s)
    probs = _normalized_probs(rng, s)
    base = rng.uniform(-1.0, 1.0, size=(k, s))
    dist = DiscreteDistribution(xs=xs, ys=ys, probs=probs, b=1.0)
    return dist, FiniteClassSpec(base=base)


def random_multiplier_setup(rng: np.random.Generator) -> MultiplierSetup:
    """A random joint (atom, multiplier) law on 2 to 8 atoms, 1 to 4 base functions.

    The multiplier is an arbitrary deterministic function of the atom, so
    genuinely dependent joints are covered; product laws arise as the special
    case where atoms replicate feature points across multiplier values.
    Multipliers are uniform on [-1.5, 1.5], function values on [-1, 1] and
    gamma on [0.1, 2].
    """
    s = int(rng.integers(2, 9))
    k = int(rng.integers(1, 5))
    zeta = rng.uniform(-1.5, 1.5, size=s)
    probs = _normalized_probs(rng, s)
    base = rng.uniform(-1.0, 1.0, size=(k, s))
    g = float(rng.uniform(0.1, 2.0))
    joint = DiscreteDistribution(
        xs=np.arange(s, dtype=np.float64)[:, None],
        ys=zeta,
        probs=probs,
        b=float(max(1.0, np.max(np.abs(zeta)))),
    )
    return MultiplierSetup(joint=joint, class_spec=FiniteClassSpec(base=base), gamma=g)


def rate_study_instance() -> tuple[DiscreteDistribution, Dictionary]:
    """Multi-resolution dictionary-contains-truth instance for rate studies.

    The regression function is the zero row of the dictionary; observations
    are +-0.5 around it, at 8 equally likely features. The remaining 11 rows
    are random sign patterns over the features (pattern seed 20240217) with
    amplitudes 0.55 * 2^(-k/2), k = 0..10, so at every sample size in a
    dyadic grid there are candidate rows whose squared distance is comparable
    to 1/n. That keeps the deviation quantiles of aggregation estimators
    decaying at the 1/n rate across the whole grid instead of collapsing to
    zero once the gap at a single scale is resolved.
    """
    n_features, n_scales, noise = 8, 11, 0.5
    coarsest, ratio = 0.55, 0.70710678118654752
    rng = np.random.default_rng(20240217)
    b = 1.0
    xs = np.repeat(np.arange(n_features, dtype=np.float64), 2)[:, None]
    ys = np.tile([noise, -noise], n_features)
    probs = np.full(2 * n_features, 1.0 / (2 * n_features))
    rows = [np.zeros(2 * n_features)]
    for k in range(n_scales):
        pattern = rng.choice([-1.0, 1.0], size=n_features)
        amplitude = coarsest * ratio**k
        rows.append(np.repeat(pattern * amplitude, 2))
    values = np.array(rows)
    return (
        DiscreteDistribution(xs=xs, ys=ys, probs=probs, b=b),
        Dictionary(values=values, b=b),
    )
