"""Aggregation estimators and the geometric condition they are built around.

The estimators here (empirical risk minimizer, two-point star mixtures, the
midpoint over almost-minimizers, early-stopped mirror descent) share one
design target: after fitting, the empirical risk gap to a reference function
should be dominated by a negative multiple of the averaged squared empirical
distance to it, up to a tolerance. ``check_offset`` evaluates that inequality
and reports the margin instead of asserting, so callers can distinguish
"holds with room" from "holds barely".

Normalization convention: the quadratic penalty is always the averaged
empirical square norm (1/n) sum_i (f(X_i) - g(X_i))^2, matching the averaged
empirical risk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .complexity import _lowest_best, star_hull_sup
from .model import (
    Dictionary,
    DiscreteDistribution,
    LossSpec,
    PredictorWeights,
    Sample,
    predict_all,
)
from .risk import empirical_risk_of_values

__all__ = [
    "StarSolution",
    "MidpointSolution",
    "OffsetReport",
    "MirrorDescentTrace",
    "DivergenceError",
    "erm",
    "star",
    "midpoint",
    "check_offset",
    "offset_report_from_values",
    "mirror_descent",
]

_HOLD_TOL = 1e-12


@dataclass(frozen=True)
class StarSolution:
    erm_index: int
    partner_index: int
    lam: float
    weights: PredictorWeights
    empirical_risk: float


@dataclass(frozen=True)
class MidpointSolution:
    erm_index: int
    partner_index: int
    weights: PredictorWeights
    almost_minimizer_set: tuple[int, ...]


@dataclass(frozen=True)
class OffsetReport:
    """Margin report for R_n(f) - R_n(g) <= -gamma * |f - g|_n^2 + epsilon."""

    lhs: float
    quadratic: float
    gamma: float
    epsilon: float
    rhs: float
    margin: float
    holds: bool


@dataclass
class MirrorDescentTrace:
    mirror_map: str
    w_path: list[tuple[float, np.ndarray]]
    delta_path: list[tuple[float, float]]
    bregman_path: list[tuple[float, float]]
    t_star: float | None
    bregman_initial: float
    epsilon: float
    step: float
    euler_excess: float
    offset: OffsetReport | None


class DivergenceError(RuntimeError):
    """Mirror descent iterates blew up; the partial trace is attached."""

    def __init__(self, message: str, trace: MirrorDescentTrace):
        super().__init__(message)
        self.trace = trace


# Rows per chunk of the batched fit are capped so that each (rows, m, s)
# temporary holds at most this many float64 values (1 MB).
_FIT_CHUNK_ELEMENTS = 2**17


def _fit_rows(counts: np.ndarray, dist: DiscreteDistribution, loss: LossSpec,
              dictionary: Dictionary, estimator: str, delta: float = 0.05, c1: float = 4.0):
    """Fit ``erm``, ``star`` or ``midpoint`` on every row of (R, s) atom counts.

    Returns per row the empirical minimizer e, the partner p, the (R, m)
    weights of the fit (lam on e, 1 - lam on p) and, for midpoint only, the
    (R, m) almost-minimizer mask. Atom a weighs count(a)/n. Rows go in
    chunks, so no (rows, m, s) temporary grows with R.
    """
    chunk = max(1, _FIT_CHUNK_ELEMENTS // dictionary.values.size)
    if counts.shape[0] > chunk:
        parts = [_fit_rows(counts[lo : lo + chunk], dist, loss, dictionary, estimator, delta, c1)
                 for lo in range(0, counts.shape[0], chunk)]
        return tuple(None if part[0] is None else np.concatenate(part) for part in zip(*parts))
    values, ys, m = dictionary.values, dist.ys, dictionary.m
    rows = np.arange(counts.shape[0])
    n = counts.sum(axis=1, keepdims=True)
    w = (counts / n)[:, None, :]
    risks = (w * loss.eval(values, ys)).sum(axis=-1)
    e = _lowest_best(risks)
    p, lam, near = e, 1.0, None
    if estimator != "erm":
        g_e = values[e][:, None, :]
        diff = values - g_e  # g_f - g_e at every atom
        sq_dist = (w * diff**2).sum(axis=-1)  # B_f = |g_f - g_e|_n^2
    if estimator == "midpoint":
        log_term = np.log(2.0 * m / delta)
        d_emp = np.sqrt(sq_dist * log_term / n) + dictionary.b * log_term / n
        near = risks <= risks[rows, e][:, None] + c1 * loss.lipschitz * d_emp
        mid_risks = (w * loss.eval(0.5 * (g_e + values), ys)).sum(axis=-1)
        p, lam = _lowest_best(np.where(near, mid_risks, np.inf)), 0.5
    elif estimator == "star":
        # g_e + mu (g_f - g_e) has risk R_n(e) - [mu A_f - mu^2 B_f] with
        # A_f = -2 <g_f - g_e, g_e - y>_n: the star-hull kernel's sup.
        linear = -2.0 * (w * diff * (g_e - ys)).sum(axis=-1)
        p, mu, _ = star_hull_sup(linear, sq_dist)
        lam = 1.0 - mu
    weights = np.zeros((rows.size, m))
    weights[rows, e] = lam
    weights[rows, p] += 1.0 - lam
    return e, p, weights, near


def erm(
    sample: Sample, dist: DiscreteDistribution, loss: LossSpec, dictionary: Dictionary
) -> int:
    """Index of the row with smallest empirical risk; ties: lowest within relative 1e-12."""
    dictionary.validate_for(dist)
    return int(_fit_rows(sample.counts(dist), dist, loss, dictionary, "erm")[0][0])


def star(
    sample: Sample, dist: DiscreteDistribution, loss: LossSpec, dictionary: Dictionary
) -> StarSolution:
    """Two-step segment-search aggregation over the dictionary.

    First takes the empirical risk minimizer e, then jointly minimizes the
    empirical risk of lam*g_e + (1-lam)*g_f over partners f and lam in [0,1],
    exactly, by the star-hull kernel. Ties go to the lowest partner index
    within relative 1e-12. A partner equal to e on the sample takes lam = 1,
    and f = e is always feasible, so the result never does worse than e.
    """
    dictionary.validate_for(dist)
    e, p, weights, _ = _fit_rows(sample.counts(dist), dist, loss, dictionary, "star")
    w = weights[0]
    return StarSolution(
        erm_index=int(e[0]),
        partner_index=int(p[0]),
        lam=float(w[e[0]]),
        weights=PredictorWeights(weights=w),
        empirical_risk=empirical_risk_of_values(sample, dist, loss, w @ dictionary.values),
    )


def midpoint(
    sample: Sample,
    dist: DiscreteDistribution,
    loss: LossSpec,
    dictionary: Dictionary,
    delta: float,
    c1: float = 4.0,
) -> MidpointSolution:
    """Halfway-point aggregation over a set of almost empirical minimizers.

    A row g is an almost minimizer when its empirical risk exceeds the best
    by at most c1 * L * d(e, g), where d is the empirical distance

        d(g, g') = sqrt(|g - g'|_n^2 * log(2m/delta) / n) + b log(2m/delta) / n

    and L is the loss's Lipschitz constant. Among almost minimizers, the
    returned partner minimizes the empirical risk of (g_e + g)/2, ties to the
    lowest index within relative 1e-12. The minimizer e is always admissible.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie strictly between 0 and 1")
    if c1 <= 0:
        raise ValueError("c1 must be positive")
    dictionary.validate_for(dist)
    e, p, weights, near = _fit_rows(sample.counts(dist), dist, loss, dictionary, "midpoint",
                                    delta, c1)
    return MidpointSolution(
        erm_index=int(e[0]),
        partner_index=int(p[0]),
        weights=PredictorWeights(weights=weights[0]),
        almost_minimizer_set=tuple(int(j) for j in np.flatnonzero(near[0])),
    )


def offset_report_from_values(
    risk_gap: float, quadratic: float, gamma: float, epsilon: float
) -> OffsetReport:
    """Assemble the margin report from precomputed empirical quantities."""
    if not 0 < gamma < np.inf:
        raise ValueError(f"gamma must be positive and finite, got {gamma!r}")
    if not 0 <= epsilon < np.inf:
        raise ValueError(f"epsilon must be nonnegative and finite, got {epsilon!r}")
    rhs = -gamma * quadratic + epsilon
    margin = rhs - risk_gap
    return OffsetReport(
        lhs=risk_gap,
        quadratic=quadratic,
        gamma=gamma,
        epsilon=epsilon,
        rhs=rhs,
        margin=margin,
        holds=bool(margin >= -_HOLD_TOL),
    )


def _offset_terms(weights, pred, loss, ys, refs):
    """(R_n(f) - R_n(g), |f - g|_n^2): floats for one (s,) row ``refs``, (r,) arrays for (r, s)."""
    gap = (loss.eval(pred, ys) - loss.eval(refs, ys)) @ weights
    quadratic = (pred - refs) ** 2 @ weights
    return (float(gap), float(quadratic)) if refs.ndim == 1 else (gap, quadratic)


def check_offset(
    sample: Sample,
    dist: DiscreteDistribution,
    loss: LossSpec,
    dictionary: Dictionary,
    predictor: PredictorWeights,
    gstar_index: int,
    gamma: float,
    epsilon: float = 0.0,
) -> OffsetReport:
    """Evaluate the offset inequality for a fitted predictor versus one row.

    lhs is R_n(predictor) - R_n(g); quadratic is the averaged empirical
    square norm (1/n) sum (predictor(X_i) - g(X_i))^2; g is row ``gstar_index``,
    an integer in [0, m). A gamma outside (0, inf) or an epsilon outside
    [0, inf) is rejected by :func:`offset_report_from_values`.
    """
    if (not isinstance(gstar_index, (int, np.integer)) or isinstance(gstar_index, bool)
            or not 0 <= gstar_index < dictionary.m):
        raise ValueError(
            f"gstar_index must be an integer in [0, {dictionary.m}), got {gstar_index!r}"
        )
    dictionary.validate_for(dist)
    return offset_report_from_values(*_offset_terms(
        sample.counts(dist)[0] / sample.n, predict_all(dictionary, predictor), loss, dist.ys,
        dictionary.values[gstar_index]), gamma, epsilon)


# ---------------------------------------------------------------------------
# Early-stopped mirror descent on linear predictors
# ---------------------------------------------------------------------------


def _euclidean_to_dual(w: np.ndarray) -> np.ndarray:
    return w


def _euclidean_from_dual(theta: np.ndarray) -> np.ndarray:
    return theta


def _euclidean_bregman(a: np.ndarray, b: np.ndarray) -> float:
    diff = a - b
    return 0.5 * float(diff @ diff)


def _entropy_to_dual(w: np.ndarray) -> np.ndarray:
    return np.log(w)


def _entropy_from_dual(theta: np.ndarray) -> np.ndarray:
    return np.exp(theta)


def _entropy_bregman(a: np.ndarray, b: np.ndarray) -> float:
    # Generalized KL on the positive orthant; 0 log 0 = 0.
    terms = np.where(a > 0, a * np.log(np.where(a > 0, a, 1.0) / b), 0.0)
    return float(np.sum(terms - a + b))


MIRROR_MAPS = {
    "euclidean": (_euclidean_to_dual, _euclidean_from_dual, _euclidean_bregman),
    "negative_entropy": (_entropy_to_dual, _entropy_from_dual, _entropy_bregman),
}


def mirror_descent(
    sample: Sample,
    dist: DiscreteDistribution,
    loss: LossSpec,
    w_star: np.ndarray,
    w0: np.ndarray,
    mirror_map: str = "euclidean",
    epsilon: float = 1e-2,
    step: float = 1e-3,
) -> MirrorDescentTrace:
    """Integrate the mirror flow on the empirical risk and stop early.

    Linear predictors x -> <w, x> on the support features ``dist.xs``; the
    sample enters through its atom counts, atom a weighing count(a)/n, so
    R_n(w) = sum_a (count(a)/n) loss(<w, x_a>, y_a). The flow is
    discretized by explicit Euler in the dual coordinates theta = grad psi(w):
    theta <- theta - step * grad R_n(w). The run stops at the first time t
    with

        delta(t) = R_n(w_t) - R_n(w*) + (c/2) (1/n) sum <w_t - w*, X_i>^2
                 <= epsilon,

    where c is the loss's strong-convexity modulus. The trace records, per
    step, delta and the divergence to the reference point, plus the
    accumulated positive Euler excess

        e_k = step * <g_k, w_k - w_{k+1}> - D(w_{k+1}, w_k),

    which is the exact per-step slack in the continuous-time descent
    identity; every discrete statement about the run holds up to the sum of
    these terms. The horizon is 2 (D(w*, w0) + excess) / epsilon plus one
    step, the continuous-time stop guarantee widened by the measured
    discretization error. A non-finite iterate (an overflow included) or one
    beyond the scale guard raises :class:`DivergenceError` with the partial
    trace and an infinite excess on overflow.
    """
    if not step > 0:
        raise ValueError(f"step must be positive, got {step!r}")
    if not 0 < epsilon < np.inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon!r}")
    if mirror_map not in MIRROR_MAPS:
        raise ValueError(f"unknown mirror map {mirror_map!r}")
    to_dual, from_dual, bregman = MIRROR_MAPS[mirror_map]
    weights = sample.counts(dist)[0] / sample.n
    xs, ys = dist.xs, dist.ys
    w_star = np.asarray(w_star, dtype=np.float64).ravel()
    w0 = np.array(w0, dtype=np.float64).ravel()  # a copy: the path keeps it
    if w_star.shape != w0.shape or w_star.shape[0] != xs.shape[1]:
        raise ValueError("w_star and w0 must match the feature dimension")
    if not (np.isfinite(w_star).all() and np.isfinite(w0).all()):
        raise ValueError("w_star and w0 must be finite")
    if mirror_map == "negative_entropy":
        if np.any(w0 <= 0):
            raise ValueError("negative-entropy map requires strictly positive w0")
        if np.any(w_star < 0):
            raise ValueError("negative-entropy map requires nonnegative w_star")
    half_curve = 0.5 * loss.strong_convexity
    p_star = xs @ w_star
    risk_ref = float(weights @ loss.eval(p_star, ys))

    def evaluate(w: np.ndarray) -> tuple[float, float, np.ndarray]:
        """R_n(w) - R_n(w*), |w - w*|_n^2 and grad R_n(w), from one prediction."""
        p = xs @ w
        risk_gap = float(weights @ loss.eval(p, ys)) - risk_ref
        return risk_gap, float(weights @ (p - p_star) ** 2), xs.T @ (weights * loss.grad(p, ys))

    d0 = bregman(w_star, w0)
    scale_guard = 1e6 * float(np.sqrt(w0.dot(w0))) + 1e6
    w, theta, t, excess = w0, to_dual(w0), 0.0, 0.0
    risk_gap, quadratic, g = evaluate(w)
    delta = risk_gap + half_curve * quadratic
    w_path, delta_path, bregman_path = [(0.0, w)], [(0.0, delta)], [(0.0, d0)]
    t_star = 0.0 if delta <= epsilon else None
    diverged = False
    with np.errstate(over="ignore"):  # an overflow is a non-finite iterate
        while t_star is None and t < 2.0 * (d0 + excess) / epsilon + step:
            theta = theta - step * g
            w_new = from_dual(theta)
            t += step
            finite = bool(np.isfinite(w_new).all())
            moved = bregman(w_new, w) if finite else math.inf
            step_excess = step * float(g @ (w - w_new)) - moved
            excess += max(0.0, step_excess) if math.isfinite(step_excess) else math.inf
            w = w_new
            if not finite or np.sqrt(w.dot(w)) > scale_guard:
                diverged = True
                break
            risk_gap, quadratic, g = evaluate(w)
            delta = risk_gap + half_curve * quadratic
            w_path.append((t, w))
            delta_path.append((t, delta))
            bregman_path.append((t, bregman(w_star, w)))
            if delta <= epsilon:
                t_star = t
    offset = None if t_star is None else offset_report_from_values(
        risk_gap, quadratic, half_curve, epsilon)
    trace = MirrorDescentTrace(
        mirror_map=mirror_map,
        w_path=w_path,
        delta_path=delta_path,
        bregman_path=bregman_path,
        t_star=t_star,
        bregman_initial=d0,
        epsilon=epsilon,
        step=step,
        euler_excess=float(excess),
        offset=offset,
    )
    if diverged:
        raise DivergenceError("mirror descent iterates diverged", trace)
    return trace
