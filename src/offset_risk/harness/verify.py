"""The verification suite: every headline claim as an executable check.

Each check returns a CheckResult with a pass flag, a headline statistic, and
the margin to its threshold (positive means room to spare). ``run_verify``
executes the registry in a fixed order and assembles a JSON-ready manifest;
the manifest is deterministic for a given (config, seed) -- wall-clock
runtimes are reported alongside but kept out of the manifest so that two runs
with the same seed produce byte-identical files.

Deterministic inequalities are checked exactly (tolerance 1e-10 or tighter);
Monte-Carlo claims carry the confidence slack stated in their check.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..complexity import (
    SparseClassSpec,
    hat_matrix,
    local_complexity_fixed_point,
    offset_complexity_mc,
    sparse_offset_bound_check,
    sparse_offset_values,
)
from ..concentration import mgf_verify, self_localization_check, tail_verify
from ..estimators import check_offset, erm, mirror_descent, star
from ..instances import (
    random_instance,
    random_multiplier_setup,
    random_star_class,
    rate_study_instance,
)
from ..model import (
    DiscreteDistribution,
    PredictorWeights,
    Sample,
    draw_atom_ids,
    rng_stream,
    squared_loss,
)
from ..risk import bernstein_check, empirical_measure, population_minimizer
from .aggregate import run_aggregate
from .config import CHECK_IDS, ExperimentConfig, config_hash

__all__ = ["CheckResult", "run_verify", "SPARSE_RATIO_BOUND"]

# Fitted once over the d x k x gamma sweep of the sparse-shape check
# (observed maximum 0.315 with Gaussian features, n = 64, 1000 sign draws)
# and frozen; the check asserts the sweep never exceeds it.
SPARSE_RATIO_BOUND = 0.40

# Log-log slope acceptance band for the rate study: wide enough for
# Monte-Carlo noise around the 1/n law, decisively excluding a 1/sqrt(n)
# decay.
SLOPE_BAND = (-1.25, -0.80)


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    description: str
    passed: bool
    statistic: float
    margin: float
    detail: dict
    runtime_s: float


def _result(check_id, description, passed, statistic, margin, detail, t0) -> CheckResult:
    return CheckResult(
        check_id=check_id,
        description=description,
        passed=bool(passed),
        statistic=float(statistic),
        margin=float(margin),
        detail=detail,
        runtime_s=time.perf_counter() - t0,
    )


def check_star_offset(config: ExperimentConfig) -> CheckResult:
    """Two-step mixture margin versus every row, coefficient 1/18, exact."""
    t0 = time.perf_counter()
    gamma = config.gamma if config.gamma is not None else 1.0 / 18.0
    loss = squared_loss(1.0)
    worst = np.inf
    worst_vs_reference = np.inf  # margin against the best row only
    failures = 0
    for trial in range(1000):
        rng = rng_stream(config.seed, "verify-star-offset", trial)
        dist, dictionary = random_instance(rng, max_atoms=12, max_m=10, b=1.0)
        n = int(rng.integers(2, 51))
        sample = Sample(indices=draw_atom_ids(dist, n, rng))
        sol = star(sample, dist, loss, dictionary)
        ref = population_minimizer(dist, loss, dictionary).gstar_index
        for g in range(dictionary.m):
            report = check_offset(sample, dist, loss, dictionary, sol.weights, g,
                                  gamma=gamma, epsilon=0.0)
            worst = min(worst, report.margin)
            if g == ref:
                worst_vs_reference = min(worst_vs_reference, report.margin)
            if report.margin < -1e-10:
                failures += 1
    return _result(
        "star_offset",
        f"two-step mixture offset margin vs every row (coef {gamma:.6g}, 1000 instances)",
        failures == 0,
        worst,
        worst + 1e-10,
        {"failures": failures, "instances": 1000, "gamma": gamma,
         "worst_margin_vs_reference": float(worst_vs_reference)},
        t0,
    )


def check_self_localization(config: ExperimentConfig) -> CheckResult:
    """Quadratic mass at the maximizer never exceeds the supremum, exact."""
    t0 = time.perf_counter()
    worst = np.inf
    failures = 0
    for trial in range(10_000):
        rng = rng_stream(config.seed, "verify-self-localization", trial)
        setup = random_multiplier_setup(rng)
        n = int(rng.integers(1, 16))
        idx = draw_atom_ids(setup.joint, n, rng)
        holds, margin = self_localization_check(setup, idx)
        worst = min(worst, margin)
        failures += 0 if holds else 1
    return _result(
        "self_localization",
        "maximizer quadratic mass bounded by the supremum (10000 setups)",
        failures == 0,
        worst,
        worst + 1e-10,
        {"failures": failures, "setups": 10_000},
        t0,
    )


def check_offset_vs_local(config: ExperimentConfig) -> CheckResult:
    """Offset complexity below the localized fixed point, 3-SE slack."""
    t0 = time.perf_counter()
    passes = 0
    gaps = []
    instances, needed = 50, 48
    for trial in range(instances):
        rng = rng_stream(config.seed, "verify-offset-local", trial)
        dist, spec = random_star_class(rng)
        gamma = float(rng.uniform(0.3, 1.5))
        n = int(rng.integers(4, 24))
        off = offset_complexity_mc(dist, spec, gamma, n, replicates=10_000,
                                   seed=config.seed + 31 * trial)
        loc = local_complexity_fixed_point(dist, spec, gamma, n, mc_replicates=10_000,
                                           r_tol=1e-6, seed=config.seed + 31 * trial + 1)
        slack = 3.0 * float(np.hypot(off.std_error, loc.std_error))
        gap = loc.value + slack - off.value
        gaps.append(gap)
        passes += 1 if gap >= 0 else 0
    return _result(
        "offset_vs_local",
        "offset complexity below localized fixed point + 3 SE (50 classes)",
        passes >= needed,
        passes,
        passes - needed,
        {"passes": passes, "instances": instances, "min_gap": float(min(gaps))},
        t0,
    )


def check_sparse_identity(config: ExperimentConfig) -> CheckResult:
    """Projector quadratic form versus dense solves; projector invariants."""
    t0 = time.perf_counter()
    worst_dev = 0.0
    worst_invariant = 0.0
    for trial in range(100):
        rng = rng_stream(config.seed, "verify-sparse-identity", trial)
        n = int(rng.integers(6, 17))
        d = int(rng.integers(2, 7))
        size = int(rng.integers(1, min(4, d) + 1))
        subset = tuple(sorted(rng.choice(d, size=size, replace=False)))
        phi = rng.normal(size=(n, d))
        if rng.random() < 0.3 and size >= 2:
            phi[:, subset[1]] = 2.0 * phi[:, subset[0]]  # force rank deficiency
        sigma = rng.choice([-1.0, 1.0], size=n)
        gamma = float(rng.uniform(0.3, 2.0))
        H = hat_matrix(phi[:, subset])
        value = float(sigma @ H @ sigma) / (4.0 * gamma)
        cols = phi[:, subset]
        gram = cols.T @ cols
        rhs = cols.T @ sigma
        w, *_ = np.linalg.lstsq(2.0 * gamma * gram, rhs, rcond=None)
        oracle = float(w @ rhs - gamma * w @ gram @ w)
        worst_dev = max(worst_dev, abs(value - oracle))
        worst_invariant = max(
            worst_invariant,
            float(np.max(np.abs(H - H.T))),
            float(np.max(np.abs(H @ H - H))),
            max(0.0, float(np.sum(H * H)) - size),
        )
    passed = worst_dev <= 1e-8 and worst_invariant <= 1e-8
    return _result(
        "sparse_identity",
        "projector quadratic form matches dense solves; projector invariants (100 draws)",
        passed,
        worst_dev,
        1e-8 - max(worst_dev, worst_invariant),
        {"max_oracle_dev": worst_dev, "max_invariant_dev": worst_invariant},
        t0,
    )


def check_sparse_shape(config: ExperimentConfig) -> CheckResult:
    """Sweep ratios below the frozen constant; exact inverse-gamma scaling."""
    t0 = time.perf_counter()
    max_ratio = 0.0
    scaling_dev = 0.0
    for d in (8, 16, 32):
        for k in (1, 2, 4):
            rng = rng_stream(config.seed, f"verify-sparse-shape-d{d}-k{k}")
            phi = rng.normal(size=(64, d))
            for gamma in (0.5, 1.0, 2.0):
                spec = SparseClassSpec(features=phi, k=k, gamma=gamma)
                report = sparse_offset_bound_check(spec, sigma_replicates=1000,
                                                   seed=config.seed + 7)
                max_ratio = max(max_ratio, report.ratio)
            sig_rng = rng_stream(config.seed, f"verify-sparse-scaling-d{d}-k{k}")
            sigmas = sig_rng.integers(0, 2, size=(8, 64)) * 2.0 - 1.0
            v1 = sparse_offset_values(SparseClassSpec(features=phi, k=k, gamma=1.0), sigmas)
            v2 = sparse_offset_values(SparseClassSpec(features=phi, k=k, gamma=2.0), sigmas)
            scale = np.maximum(1.0, np.abs(v1))
            scaling_dev = max(scaling_dev, float(np.max(np.abs(2.0 * v2 - v1) / scale)))
    passed = max_ratio <= SPARSE_RATIO_BOUND and scaling_dev <= 1e-10
    return _result(
        "sparse_shape",
        f"sweep ratio vs k log(ed/k)/(gamma n) bounded by {SPARSE_RATIO_BOUND}",
        passed,
        max_ratio,
        SPARSE_RATIO_BOUND - max_ratio,
        {"max_ratio": max_ratio, "inverse_gamma_scaling_dev": scaling_dev},
        t0,
    )


def _mgf_setups(seed: int):
    for trial in range(10):
        rng = rng_stream(seed, "verify-mgf-setups", trial)
        yield trial, random_multiplier_setup(rng), int(rng.integers(4, 9))


def check_mgf_bound(config: ExperimentConfig) -> CheckResult:
    """Bootstrap lower band of the log-MGF never crosses the sub-gamma curve."""
    t0 = time.perf_counter()
    total_violations = 0
    failures = 0
    max_excess = -np.inf
    for trial, setup, n in _mgf_setups(config.seed):
        report = mgf_verify(setup, n=n, replicates=100_000,
                            seed=config.seed + 997 * trial, bootstrap_resamples=1000)
        total_violations += len(report.violations)
        failures += report.self_localization_failures
        max_excess = max(max_excess, float(np.max(report.log_mgf_ci_lower - report.bound)))
    passed = total_violations == 0 and failures == 0
    return _result(
        "mgf_bound",
        "log-MGF of the supremum below its variance-by-mean curve (10 setups)",
        passed,
        total_violations,
        -max_excess,
        {"violations": total_violations, "self_localization_failures": failures,
         "max_ci_excess": max_excess},
        t0,
    )


def check_tail_bound(config: ExperimentConfig) -> CheckResult:
    """Exceedance of 2*mean + (3/2) eta log(1/delta) within binomial slack."""
    t0 = time.perf_counter()
    worst = -np.inf
    all_hold = True
    deltas = np.array([0.1, 0.01])
    for trial, setup, n in _mgf_setups(config.seed):
        report = tail_verify(setup, n=n, replicates=100_000, delta_grid=deltas,
                             seed=config.seed + 997 * trial)
        worst = max(worst, float(np.max(report.exceed_freq - report.allowed)))
        all_hold = all_hold and report.holds
    return _result(
        "tail_bound",
        "deviation-form exceedance frequencies within allowance (same 10 setups)",
        all_hold,
        worst,
        -worst,
        {"max_freq_minus_allowed": worst},
        t0,
    )


def check_aggregation_rate(config: ExperimentConfig) -> CheckResult:
    """Log-log slope of the 0.95-quantile excess risk close to -1."""
    t0 = time.perf_counter()
    dist, dictionary = rate_study_instance()
    slopes = {}
    for estimator in ("star", "midpoint"):
        study = run_aggregate(
            config.replaced(command="aggregate", estimator=estimator, delta=0.05,
                            replicates=1000,
                            n_grid=(64, 128, 256, 512, 1024, 2048, 4096)),
            dist, dictionary,
        )
        slopes[estimator] = study.rate.slope if study.rate is not None else np.nan
    lo, hi = SLOPE_BAND
    finite = all(np.isfinite(s) for s in slopes.values())
    passed = finite and all(lo <= s <= hi for s in slopes.values())
    margin = min(min(s - lo, hi - s) for s in slopes.values()) if finite else -np.inf
    return _result(
        "aggregation_rate",
        f"quantile excess-risk slopes within [{lo}, {hi}] for star and midpoint",
        passed,
        slopes["star"],
        margin,
        {"slopes": slopes},
        t0,
    )


def check_mirror_descent(config: ExperimentConfig) -> CheckResult:
    """Stopping-time bound, divergence containment, offset margin; analytic flow."""
    t0 = time.perf_counter()
    loss = squared_loss(1.0)
    step = 2e-4
    worst = np.inf
    failures = 0
    for trial in range(100):
        rng = rng_stream(config.seed, "verify-mirror", trial)
        mirror_map = "euclidean" if trial % 2 == 0 else "negative_entropy"
        s = int(rng.integers(4, 16))
        d = int(rng.integers(2, 5))
        xs = rng.normal(size=(s, d))
        ys = rng.uniform(-1, 1, size=s)
        dist = DiscreteDistribution(xs=xs, ys=ys, probs=np.full(s, 1 / s), b=1.0)
        sample = Sample(indices=np.arange(s))
        if mirror_map == "negative_entropy":
            w_star = rng.uniform(0.0, 0.8, size=d)
            w0 = rng.uniform(0.2, 1.0, size=d)
        else:
            w_star = rng.normal(scale=0.5, size=d)
            w0 = rng.normal(scale=0.5, size=d)
        trace = mirror_descent(sample, dist, loss, w_star, w0, mirror_map=mirror_map,
                               epsilon=0.05, step=step)
        if trace.t_star is None or trace.offset is None:
            failures += 1
            continue
        slack_t = trace.euler_excess / trace.epsilon + step
        c1_margin = (2.0 * trace.bregman_initial / trace.epsilon + slack_t) - trace.t_star
        c2_margin = (trace.bregman_initial + trace.euler_excess + 1e-9) - trace.bregman_path[-1][1]
        c3_margin = trace.offset.margin + 1e-12
        worst = min(worst, c1_margin, c2_margin, c3_margin)
        if min(c1_margin, c2_margin, c3_margin) < 0:
            failures += 1
    # Analytic scalar flow: w_t = exp(-2t).
    dist1 = DiscreteDistribution(xs=[[1.0]], ys=[0.0], probs=[1.0], b=1.0)
    trace1 = mirror_descent(Sample(indices=[0]), dist1, loss, [0.0], [1.0],
                            epsilon=0.05, step=1e-3)
    ts = np.array([t for t, _ in trace1.w_path])
    ws = np.array([w[0] for _, w in trace1.w_path])
    analytic_dev = float(np.max(np.abs(ws - np.exp(-2.0 * ts))))
    analytic_ok = analytic_dev <= 5.0 * 1e-3
    passed = failures == 0 and analytic_ok
    return _result(
        "mirror_descent",
        "early-stopping conditions with measured Euler slack (100 runs) + analytic flow",
        passed,
        worst,
        worst,
        {"failures": failures, "analytic_dev": analytic_dev, "step": step},
        t0,
    )


def check_duality(config: ExperimentConfig) -> CheckResult:
    """Offset margins for the empirical minimizer equal scaled Bernstein margins."""
    t0 = time.perf_counter()
    loss = squared_loss(1.0)
    worst = 0.0
    for trial in range(100):
        rng = rng_stream(config.seed, "verify-duality", trial)
        dist, dictionary = random_instance(rng)
        n = int(rng.integers(3, 40))
        sample = Sample(indices=draw_atom_ids(dist, n, rng))
        gamma = float(rng.uniform(0.05, 2.0)) if trial % 2 else 1.0
        e = erm(sample, dist, loss, dictionary)
        pn = empirical_measure(sample, dist)
        bern = bernstein_check(pn, loss, dictionary.values, dictionary.values[e], gamma)
        w = PredictorWeights(weights=np.eye(dictionary.m)[e])
        for g in range(dictionary.m):
            off = check_offset(sample, dist, loss, dictionary, w, g, gamma)
            worst = max(worst, abs(off.margin - gamma * bern.margins[g]))
    passed = worst <= 1e-12
    return _result(
        "duality",
        "offset margins for the empirical minimizer match Bernstein margins at "
        "the empirical measure (100 instances)",
        passed,
        worst,
        1e-12 - worst,
        {"max_margin_dev": worst},
        t0,
    )


_CHECKS = {check_id: globals()[f"check_{check_id}"] for check_id in CHECK_IDS}


def run_verify(config: ExperimentConfig) -> tuple[dict, list[CheckResult]]:
    """Run the (selected) checks; returns (manifest, results).

    The manifest is deterministic given (config, seed): runtimes live only in
    the returned results. Exit-code policy is the caller's: all_pass is False
    iff any executed check failed.
    """
    selected = config.checks if config.checks is not None else CHECK_IDS
    results = [_CHECKS[check_id](config) for check_id in CHECK_IDS if check_id in selected]
    manifest = {
        "config_hash": config_hash(config),
        "seed": config.seed,
        "checks": [
            {
                "check_id": r.check_id,
                "description": r.description,
                "status": "pass" if r.passed else "fail",
                "statistic": r.statistic,
                "margin": r.margin,
                "detail": r.detail,
            }
            for r in results
        ],
        "all_pass": all(r.passed for r in results),
    }
    return manifest, results
