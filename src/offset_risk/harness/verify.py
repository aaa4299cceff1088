"""The verification suite: every headline claim as an executable check.

Each check returns a CheckResult with a pass flag, a headline statistic, and
the margin to its threshold (positive means room to spare). ``run_verify``
executes the registry in a fixed order and assembles a JSON-ready manifest;
the manifest is deterministic for a given (config, seed) -- runtimes and peak
RSS (the CLI's ``verify_timings.json``) are kept out of it, so two runs with
the same seed produce byte-identical files.

Every check but ``sparse_shape`` and ``aggregation_rate`` is keyed: its
instance i is built from ``rng_stream(seed, tag, i)`` alone by a module-level
evaluator ``(config, rng, index) -> row``, and the check reduces the stacked
rows. Its ``detail["worst_key"]`` is the ``[seed, tag, index]`` of the first
instance that sets the margin, so ``evaluate(config, rng_stream(*key),
key[2])`` rebuilds that instance's row alone. ``sparse_shape`` instead names
the first ``[d, k, gamma]`` cell with its largest ratio, ``detail["worst_cell"]``.

Deterministic inequalities are checked exactly (tolerance 1e-10 or tighter);
Monte-Carlo claims carry the confidence slack stated in their check.
"""

from __future__ import annotations

import functools
import resource
import time
from dataclasses import dataclass

import numpy as np

from ..complexity import (
    SparseClassSpec,
    local_complexity_fixed_point,
    offset_complexity_mc,
    sparse_offset_bound_check,
    sparse_offset_values,
    subset_family,
)
from ..concentration import mgf_verify, self_localization_check, tail_verify
from ..estimators import check_offset, erm, mirror_descent, star
from ..instances import (
    random_instance,
    random_linear_instance,
    random_multiplier_setup,
    random_star_class,
    rate_study_instance,
)
from ..model import (DiscreteDistribution, PredictorWeights, Sample, draw_atom_ids, rng_stream,
                     squared_loss)
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

_LOSS = squared_loss(1.0)
_MIRROR_STEP = 2e-4


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    description: str
    passed: bool
    statistic: float
    margin: float
    detail: dict
    runtime_s: float
    peak_rss_kb: int  # the process's ru_maxrss when the check ended (kilobytes on Linux)


def _timed(body):
    """Time a ``check_<id>`` body returning (description, passed, statistic, margin, detail)."""

    @functools.wraps(body)
    def check(config: ExperimentConfig) -> CheckResult:
        t0 = time.perf_counter()
        description, passed, statistic, margin, detail = body(config)
        return CheckResult(body.__name__.removeprefix("check_"), description, bool(passed),
                           float(statistic), float(margin), detail, time.perf_counter() - t0,
                           resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)

    return check


def _keyed(config: ExperimentConfig, tag: str, count: int, evaluate):
    """Rows of ``evaluate(config, rng_stream(seed, tag, i), i)`` for i < count.

    Returns the rows stacked as a (count, columns) float array, and
    ``key(i) -> [seed, tag, i]``, the key that rebuilds instance i alone.
    """
    rows = [evaluate(config, rng_stream(config.seed, tag, i), i) for i in range(count)]
    return (np.array(rows, dtype=np.float64).reshape(count, -1),
            lambda i: [config.seed, tag, int(i)])


def _star_gamma(config: ExperimentConfig) -> float:
    return config.gamma if config.gamma is not None else 1.0 / 18.0


def _star_offset_row(config, rng, index):
    """(worst margin over every row, margin vs the best row, rows below -1e-10)."""
    dist, dictionary = random_instance(rng, max_atoms=12, max_m=10, b=1.0)
    n = int(rng.integers(2, 51))
    sample = Sample(indices=draw_atom_ids(dist, n, rng))
    sol = star(sample, dist, _LOSS, dictionary)
    ref = population_minimizer(dist, _LOSS, dictionary).gstar_index
    margins = np.array([check_offset(sample, dist, _LOSS, dictionary, sol.weights, g,
                                     _star_gamma(config)).margin for g in range(dictionary.m)])
    return margins.min(), margins[ref], np.sum(margins < -1e-10)


@_timed
def check_star_offset(config: ExperimentConfig):
    """Two-step mixture margin versus every row, coefficient 1/18, exact."""
    rows, key = _keyed(config, "verify-star-offset", 1000, _star_offset_row)
    worst = rows[:, 0].min()
    failures = int(rows[:, 2].sum())
    gamma = _star_gamma(config)
    return (f"two-step mixture offset margin vs every row (coef {gamma:.6g}, 1000 instances)",
            failures == 0, worst, worst + 1e-10,
            {"failures": failures, "instances": 1000, "gamma": gamma,
             "worst_margin_vs_reference": float(rows[:, 1].min()),
             "worst_key": key(rows[:, 0].argmin())})


def _self_localization_row(config, rng, index):
    """(margin, holds) of the self-localization inequality on one sample."""
    setup = random_multiplier_setup(rng)
    n = int(rng.integers(1, 16))
    holds, margin = self_localization_check(setup, draw_atom_ids(setup.joint, n, rng))
    return margin, holds


@_timed
def check_self_localization(config: ExperimentConfig):
    """Quadratic mass at the maximizer never exceeds the supremum, exact."""
    rows, key = _keyed(config, "verify-self-localization", 10_000, _self_localization_row)
    worst = rows[:, 0].min()
    failures = int((rows[:, 1] == 0).sum())
    return ("maximizer quadratic mass bounded by the supremum (10000 setups)",
            failures == 0, worst, worst + 1e-10,
            {"failures": failures, "setups": 10_000, "worst_key": key(rows[:, 0].argmin())})


def _offset_vs_local_row(config, rng, index):
    """Localized fixed point + 3 SE minus the offset complexity on one class."""
    dist, spec = random_star_class(rng)
    gamma = float(rng.uniform(0.3, 1.5))
    n = int(rng.integers(4, 24))
    seed = config.seed + 31 * index
    off = offset_complexity_mc(dist, spec, gamma, n, replicates=10_000, seed=seed)
    loc = local_complexity_fixed_point(dist, spec, gamma, n, mc_replicates=10_000,
                                       r_tol=1e-6, seed=seed + 1)
    return loc.value + 3.0 * float(np.hypot(off.std_error, loc.std_error)) - off.value


@_timed
def check_offset_vs_local(config: ExperimentConfig):
    """Offset complexity below the localized fixed point, 3-SE slack."""
    instances, needed = 50, 48
    rows, key = _keyed(config, "verify-offset-local", instances, _offset_vs_local_row)
    gaps = rows[:, 0]
    passes = int((gaps >= 0).sum())
    return ("offset complexity below localized fixed point + 3 SE (50 classes)",
            passes >= needed, passes, passes - needed,
            {"passes": passes, "instances": instances, "min_gap": float(gaps.min()),
             "worst_key": key(gaps.argmin())})


def _dense_support_value(cols, sigma, gamma):
    """max over w of <cols w, sigma> - gamma w' G w with G = cols' cols, by a dense solve."""
    gram = cols.T @ cols
    rhs = cols.T @ sigma
    w, *_ = np.linalg.lstsq(2.0 * gamma * gram, rhs, rcond=None)
    return float(w @ rhs - gamma * w @ gram @ w)


def _sparse_identity_row(config, rng, index):
    """Relative deviation of the sparse kernel from per-support dense solves on one draw."""
    n = int(rng.integers(6, 17))
    d = int(rng.integers(2, 7))
    size = int(rng.integers(1, min(4, d) + 1))
    subset = tuple(sorted(rng.choice(d, size=size, replace=False)))
    phi = rng.normal(size=(n, d))
    if rng.random() < 0.3 and size >= 2:
        phi[:, subset[1]] = 2.0 * phi[:, subset[0]]  # force rank deficiency
    sigma = rng.choice([-1.0, 1.0], size=n)
    gamma = float(rng.uniform(0.3, 2.0))
    value = sparse_offset_values(SparseClassSpec(features=phi, k=size, gamma=gamma),
                                 sigma[None, :])[0]
    ref = max(_dense_support_value(phi[:, support], sigma, gamma)
              for support in subset_family(d, size))
    return abs(value - ref) / max(1.0, abs(ref))


@_timed
def check_sparse_identity(config: ExperimentConfig):
    """Sparse kernel versus the largest per-support dense solve, relative 1e-8."""
    rows, key = _keyed(config, "verify-sparse-identity", 100, _sparse_identity_row)
    worst = float(rows[:, 0].max())
    return ("sparse offset kernel matches per-support dense solves (100 draws)",
            worst <= 1e-8, worst, 1e-8 - worst,
            {"max_relative_dev": worst, "worst_key": key(rows[:, 0].argmax())})


def _sparse_ratios(report) -> list[float]:
    """Sweep ratios at gamma = 0.5, 1, 2 from one gamma = 1 bound report.

    Dividing by a power of two is exact, so each is bit for bit the ratio of
    a sparse_offset_bound_check call at that gamma, at a third of the cost.
    """
    return [float((report.per_sigma / g).mean() / (report.benchmark / g)) for g in (0.5, 1.0, 2.0)]


@_timed
def check_sparse_shape(config: ExperimentConfig):
    """Sweep ratios below the frozen constant; exact inverse-gamma scaling."""
    cells = []  # (ratio, [d, k, gamma])
    scaling_dev = 0.0
    for d in (8, 16, 32):
        for k in (1, 2, 4):
            rng = rng_stream(config.seed, f"verify-sparse-shape-d{d}-k{k}")
            phi = rng.normal(size=(64, d))
            report = sparse_offset_bound_check(SparseClassSpec(features=phi, k=k, gamma=1.0),
                                               sigma_replicates=1000, seed=config.seed + 7)
            cells += [(r, [d, k, g]) for g, r in zip((0.5, 1.0, 2.0), _sparse_ratios(report))]
            sig_rng = rng_stream(config.seed, f"verify-sparse-scaling-d{d}-k{k}")
            sigmas = sig_rng.integers(0, 2, size=(8, 64)) * 2.0 - 1.0
            v1 = sparse_offset_values(SparseClassSpec(features=phi, k=k, gamma=1.0), sigmas)
            v2 = sparse_offset_values(SparseClassSpec(features=phi, k=k, gamma=2.0), sigmas)
            scale = np.maximum(1.0, np.abs(v1))
            scaling_dev = max(scaling_dev, float(np.max(np.abs(2.0 * v2 - v1) / scale)))
    max_ratio, worst_cell = max(cells, key=lambda cell: cell[0])  # the first largest
    return (f"sweep ratio vs k log(ed/k)/(gamma n) bounded by {SPARSE_RATIO_BOUND}",
            max_ratio <= SPARSE_RATIO_BOUND and scaling_dev <= 1e-10,
            max_ratio, SPARSE_RATIO_BOUND - max_ratio,
            {"max_ratio": max_ratio, "inverse_gamma_scaling_dev": scaling_dev,
             "worst_cell": worst_cell})


def _multiplier_row(config, rng, index):
    """(MGF violations, failures, CI excess, tail excess, tail holds) from one simulation."""
    setup = random_multiplier_setup(rng)
    n, seed = int(rng.integers(4, 9)), config.seed + 997 * index
    mgf = mgf_verify(setup, n=n, replicates=100_000, seed=seed, bootstrap_resamples=1000)
    tail = tail_verify(setup, n=n, replicates=100_000, delta_grid=np.array([0.1, 0.01]), seed=seed)
    return (len(mgf.violations), mgf.self_localization_failures,
            np.max(mgf.log_mgf_ci_lower - mgf.bound),
            np.max(tail.exceed_freq - tail.allowed), tail.holds)


@functools.lru_cache(maxsize=1)
def _multiplier_rows(seed: int):
    """mgf_bound's and tail_bound's rows of the 10 setups, kept read-only for the last seed;
    a test that patches mgf_verify or tail_verify must call cache_clear() first."""
    rows, key = _keyed(ExperimentConfig(seed=seed), "verify-mgf-setups", 10, _multiplier_row)
    rows.flags.writeable = False
    return rows, key


@_timed
def check_mgf_bound(config: ExperimentConfig):
    """Bootstrap lower band of the log-MGF never crosses the sub-gamma curve."""
    rows, key = _multiplier_rows(config.seed)
    violations, failures = (int(v) for v in rows[:, :2].sum(axis=0))
    max_excess = float(rows[:, 2].max())
    return ("log-MGF of the supremum below its variance-by-mean curve (10 setups)",
            violations == 0 and failures == 0, violations, -max_excess,
            {"violations": violations, "self_localization_failures": failures,
             "max_ci_excess": max_excess, "worst_key": key(rows[:, 2].argmax())})


@_timed
def check_tail_bound(config: ExperimentConfig):
    """Exceedance of 2*mean + (3/2) eta log(1/delta) within binomial slack."""
    rows, key = _multiplier_rows(config.seed)
    worst = float(rows[:, 3].max())
    return ("deviation-form exceedance frequencies within allowance (same 10 setups)",
            rows[:, 4].all(), worst, -worst,
            {"max_freq_minus_allowed": worst, "worst_key": key(rows[:, 3].argmax())})


@_timed
def check_aggregation_rate(config: ExperimentConfig):
    """Log-log slope of the 0.95-quantile excess risk close to -1."""
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
    margin = min(min(s - lo, hi - s) for s in slopes.values()) if finite else -np.inf
    return (f"quantile excess-risk slopes within [{lo}, {hi}] for star and midpoint",
            finite and all(lo <= s <= hi for s in slopes.values()),
            slopes["star"], margin, {"slopes": slopes})


def _mirror_row(config, rng, index):
    """(smallest stopping margin, failed, t*) on one run; inf and nan when t* is never reached."""
    positive = index % 2 == 1
    dist, sample, w_star, w0 = random_linear_instance(rng, positive=positive)
    trace = mirror_descent(sample, dist, _LOSS, w_star, w0,
                           mirror_map="negative_entropy" if positive else "euclidean",
                           epsilon=0.05, step=_MIRROR_STEP)
    if trace.t_star is None or trace.offset is None:
        return np.inf, True, np.nan
    slack_t = trace.euler_excess / trace.epsilon + _MIRROR_STEP
    c1_margin = (2.0 * trace.bregman_initial / trace.epsilon + slack_t) - trace.t_star
    c2_margin = (trace.bregman_initial + trace.euler_excess + 1e-9) - trace.bregman_path[-1][1]
    c3_margin = trace.offset.margin + 1e-12
    worst = min(c1_margin, c2_margin, c3_margin)
    return worst, worst < 0, trace.t_star


@_timed
def check_mirror_descent(config: ExperimentConfig):
    """Stopping-time bound, divergence containment, offset margin; analytic flow."""
    rows, key = _keyed(config, "verify-mirror", 100, _mirror_row)
    worst = rows[:, 0].min()
    failures = int(rows[:, 1].sum())
    stepping = np.flatnonzero(rows[:, 2] > 0)  # a t* = 0 run's margin is the 1e-9 slack
    step_at = stepping[rows[stepping, 0].argmin()] if stepping.size else None
    # Analytic scalar flow: w_t = exp(-2t).
    dist1 = DiscreteDistribution(xs=[[1.0]], ys=[0.0], probs=[1.0], b=1.0)
    trace1 = mirror_descent(Sample(indices=[0]), dist1, _LOSS, [0.0], [1.0],
                            epsilon=0.05, step=1e-3)
    ts = np.array([t for t, _ in trace1.w_path])
    ws = np.array([w[0] for _, w in trace1.w_path])
    analytic_dev = float(np.max(np.abs(ws - np.exp(-2.0 * ts))))
    return ("early-stopping conditions with measured Euler slack (100 runs) + analytic flow",
            failures == 0 and analytic_dev <= 5.0 * 1e-3, worst, worst,
            {"failures": failures, "analytic_dev": analytic_dev, "step": _MIRROR_STEP,
             "worst_key": key(rows[:, 0].argmin()),
             "worst_stepping_margin": None if step_at is None else float(rows[step_at, 0]),
             "worst_stepping_key": None if step_at is None else key(step_at)})


def _duality_row(config, rng, index):
    """Largest |offset margin - gamma * Bernstein margin| over one instance's rows."""
    dist, dictionary = random_instance(rng)
    n = int(rng.integers(3, 40))
    sample = Sample(indices=draw_atom_ids(dist, n, rng))
    gamma = float(rng.uniform(0.05, 2.0)) if index % 2 else 1.0
    e = erm(sample, dist, _LOSS, dictionary)
    pn = empirical_measure(sample, dist)
    bern = bernstein_check(pn, _LOSS, dictionary.values, dictionary.values[e], gamma)
    w = PredictorWeights(weights=np.eye(dictionary.m)[e])
    margins = np.array([check_offset(sample, dist, _LOSS, dictionary, w, g, gamma).margin
                        for g in range(dictionary.m)])
    return np.abs(margins - gamma * bern.margins).max()


@_timed
def check_duality(config: ExperimentConfig):
    """Offset margins for the empirical minimizer equal scaled Bernstein margins."""
    rows, key = _keyed(config, "verify-duality", 100, _duality_row)
    worst = float(rows[:, 0].max())
    return ("offset margins for the empirical minimizer match Bernstein margins at "
            "the empirical measure (100 instances)",
            worst <= 1e-12, worst, 1e-12 - worst,
            {"max_margin_dev": worst, "worst_key": key(rows[:, 0].argmax())})


_CHECKS = {check_id: globals()[f"check_{check_id}"] for check_id in CHECK_IDS}


def run_verify(config: ExperimentConfig) -> tuple[dict, list[CheckResult]]:
    """Run the (selected) checks; returns (manifest, results).

    The manifest is deterministic given (config, seed): runtimes and peak
    RSS live only in the returned results. Exit-code policy is the caller's: all_pass is False
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
