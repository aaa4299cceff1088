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

from dataclasses import dataclass

import numpy as np

from .model import (
    Dictionary,
    DiscreteDistribution,
    LossSpec,
    PredictorWeights,
    Sample,
    predict_all,
)

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


def _sampled_values(
    sample: Sample, dist: DiscreteDistribution, dictionary: Dictionary
) -> tuple[np.ndarray, np.ndarray]:
    dictionary.validate_for(dist)
    sample.validate_for(dist)
    idx = sample.indices
    return dictionary.values[:, idx], dist.ys[idx]


def _empirical_risks(
    sample: Sample, dist: DiscreteDistribution, loss: LossSpec, dictionary: Dictionary
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Sampled values, labels, per-row empirical risks and their argmin (first on ties)."""
    vals_at, y_at = _sampled_values(sample, dist, dictionary)
    risks = loss.eval(vals_at, y_at[None, :]).mean(axis=1)
    return vals_at, y_at, risks, int(np.argmin(risks))


def erm(
    sample: Sample, dist: DiscreteDistribution, loss: LossSpec, dictionary: Dictionary
) -> int:
    """Index of the dictionary row with smallest empirical risk (first on ties)."""
    return _empirical_risks(sample, dist, loss, dictionary)[3]


def _ternary_lambda(
    mix_risk, lo: float = 0.0, hi: float = 1.0, tol: float = 1e-10, max_iter: int = 200
) -> float:
    """Minimize a convex 1-D slice over [0, 1] by ternary search."""
    for _ in range(max_iter):
        if hi - lo < tol:
            break
        third = (hi - lo) / 3.0
        a, b = lo + third, hi - third
        if mix_risk(a) <= mix_risk(b):
            hi = b
        else:
            lo = a
    return 0.5 * (lo + hi)


def star(
    sample: Sample, dist: DiscreteDistribution, loss: LossSpec, dictionary: Dictionary
) -> StarSolution:
    """Two-step segment-search aggregation over the dictionary.

    First takes the empirical risk minimizer e, then jointly minimizes the
    empirical risk of lam*g_e + (1-lam)*g_f over partners f and lam in [0,1].
    For the squared loss the lam-minimization is an exact quadratic solve
    clamped to [0,1]; for other convex losses a ternary search is used. Ties
    go to the lowest partner index. The partner f = e is always feasible
    (canonical lam = 1 there), so the result never does worse than e.
    """
    vals_at, y_at, risks, e = _empirical_risks(sample, dist, loss, dictionary)
    m = vals_at.shape[0]
    if loss.kind == "squared":
        seg = vals_at[e][None, :] - vals_at  # g_e - g_f at the sample
        resid = vals_at - y_at[None, :]
        quad = np.mean(seg**2, axis=1)
        lin = np.mean(seg * resid, axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            lams = np.where(quad > 0, np.clip(-lin / quad, 0.0, 1.0), 1.0)
        mix_risks = lams**2 * quad + 2.0 * lams * lin + risks
    else:
        lams = np.empty(m)
        mix_risks = np.empty(m)
        for f in range(m):
            if np.array_equal(vals_at[f], vals_at[e]):
                lams[f], mix_risks[f] = 1.0, risks[e]
                continue

            def mix_risk(lam: float, f: int = f) -> float:
                mixed = lam * vals_at[e] + (1.0 - lam) * vals_at[f]
                return float(np.mean(loss.eval(mixed, y_at)))

            lams[f] = _ternary_lambda(mix_risk)
            mix_risks[f] = mix_risk(lams[f])
    p = int(np.argmin(mix_risks))
    lam = float(lams[p])
    w = np.zeros(m)
    w[e] += lam
    w[p] += 1.0 - lam
    mixed = lam * vals_at[e] + (1.0 - lam) * vals_at[p]
    return StarSolution(
        erm_index=e,
        partner_index=p,
        lam=lam,
        weights=PredictorWeights(weights=w),
        empirical_risk=float(np.mean(loss.eval(mixed, y_at))),
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
    lowest index. The minimizer e itself is always admissible.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie strictly between 0 and 1")
    if c1 <= 0:
        raise ValueError("c1 must be positive")
    vals_at, y_at, risks, e = _empirical_risks(sample, dist, loss, dictionary)
    m, n = vals_at.shape
    log_term = np.log(2.0 * m / delta)
    sq_dist = np.mean((vals_at - vals_at[e][None, :]) ** 2, axis=1)
    d_emp = np.sqrt(sq_dist * log_term / n) + dictionary.b * log_term / n
    admissible = np.flatnonzero(risks <= risks[e] + c1 * loss.lipschitz * d_emp)
    mids = 0.5 * (vals_at[e][None, :] + vals_at[admissible])
    mid_risks = loss.eval(mids, y_at[None, :]).mean(axis=1)
    p = int(admissible[int(np.argmin(mid_risks))])
    w = np.zeros(m)
    w[e] += 0.5
    w[p] += 0.5
    return MidpointSolution(
        erm_index=e,
        partner_index=p,
        weights=PredictorWeights(weights=w),
        almost_minimizer_set=tuple(int(j) for j in admissible),
    )


def offset_report_from_values(
    risk_gap: float, quadratic: float, gamma: float, epsilon: float
) -> OffsetReport:
    """Assemble the margin report from precomputed empirical quantities."""
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
    square norm (1/n) sum (predictor(X_i) - g(X_i))^2.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    vals_at, y_at = _sampled_values(sample, dist, dictionary)
    pred_at = predict_all(dictionary, predictor)[sample.indices]
    g_at = vals_at[gstar_index]
    risk_gap = float(np.mean(loss.eval(pred_at, y_at)) - np.mean(loss.eval(g_at, y_at)))
    quadratic = float(np.mean((pred_at - g_at) ** 2))
    return offset_report_from_values(risk_gap, quadratic, gamma, epsilon)


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
    t_max: float | None = None,
) -> MirrorDescentTrace:
    """Integrate the mirror flow on the empirical risk and stop early.

    Linear predictors x -> <w, x> on the sampled feature rows. The flow is
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
    these terms. Without an explicit ``t_max``, the horizon is
    2 (D(w*, w0) + excess) / epsilon plus one step, the continuous-time stop
    guarantee widened by the measured discretization error.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if mirror_map not in MIRROR_MAPS:
        raise ValueError(f"unknown mirror map {mirror_map!r}")
    to_dual, from_dual, bregman = MIRROR_MAPS[mirror_map]
    sample.validate_for(dist)
    X = dist.xs[sample.indices]
    y = dist.ys[sample.indices]
    n = X.shape[0]
    w_star = np.asarray(w_star, dtype=np.float64).ravel()
    w0 = np.asarray(w0, dtype=np.float64).ravel()
    if w_star.shape != w0.shape or w_star.shape[0] != X.shape[1]:
        raise ValueError("w_star and w0 must match the feature dimension")
    if mirror_map == "negative_entropy":
        if np.any(w0 <= 0):
            raise ValueError("negative-entropy map requires strictly positive w0")
        if np.any(w_star < 0):
            raise ValueError("negative-entropy map requires nonnegative w_star")
    curve = loss.strong_convexity

    def risk(w: np.ndarray) -> float:
        return float(np.mean(loss.eval(X @ w, y)))

    def grad_risk(w: np.ndarray) -> np.ndarray:
        return X.T @ loss.grad(X @ w, y) / n

    risk_ref = risk(w_star)

    def gap(w: np.ndarray) -> float:
        return risk(w) - risk_ref + 0.5 * curve * float(np.mean((X @ (w - w_star)) ** 2))

    d0 = bregman(w_star, w0)
    scale_guard = 1e6 * float(np.linalg.norm(w0)) + 1e6
    w = w0.copy()
    theta = to_dual(w)
    t = 0.0
    excess = 0.0
    w_path = [(0.0, w0.copy())]
    delta_path = [(0.0, gap(w0))]
    bregman_path = [(0.0, d0)]
    t_star: float | None = None
    if delta_path[0][1] <= epsilon:
        t_star = 0.0

    def horizon() -> float:
        if t_max is not None:
            return t_max
        return 2.0 * (d0 + excess) / epsilon + step

    diverged = False
    while t_star is None and t < horizon():
        g = grad_risk(w)
        theta = theta - step * g
        with np.errstate(over="raise"):
            try:
                w_new = from_dual(theta)
            except FloatingPointError:
                w_new = np.full_like(w, np.inf)
        t += step
        step_excess = step * float(g @ (w - w_new)) - (
            bregman(w_new, w) if np.all(np.isfinite(w_new)) else np.inf
        )
        excess += max(0.0, step_excess) if np.isfinite(step_excess) else np.inf
        w = w_new
        if not np.all(np.isfinite(w)) or np.linalg.norm(w) > scale_guard:
            diverged = True
            break
        w_path.append((t, w.copy()))
        d_now = gap(w)
        delta_path.append((t, d_now))
        bregman_path.append((t, bregman(w_star, w)))
        if d_now <= epsilon:
            t_star = t
    offset = None
    if t_star is not None:
        w_stop = w_path[-1][1] if t_star > 0 else w0
        risk_gap = risk(w_stop) - risk_ref
        quadratic = float(np.mean((X @ (w_stop - w_star)) ** 2))
        offset = offset_report_from_values(risk_gap, quadratic, 0.5 * curve, epsilon)
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
