"""Supremum of offset multiplier processes and its concentration behavior.

The object of study is, for a finite star-hulled class and a joint finite law
of (feature atom, multiplier value),

    U = sup over the hull of  [ A(h) - B(h) ],
    A(h) = sum_i (zeta_i h(X_i) - E[zeta h]),
    B(h) = gamma * sum_i (E[h^2] + h(X_i)^2),

with both expectations exact over the support. Because A scales linearly and
B quadratically along the hull, the supremum is exact (no grids), U >= 0 on
every draw, and the maximizer's quadratic mass can never exceed U itself --
the self-localization identity checked here draw by draw.

The Monte-Carlo side verifies that U concentrates like a sub-gamma variable
whose variance factor is proportional to its own mean: with
eta = 8 (s^2 / gamma + gamma * k^2), where s bounds |zeta| and k bounds the
class sup-norm on the support,

    log E exp(lam (U - E U)) <= lam^2 * eta * E U / (2 (1 - eta lam)),

plus the derived tail form U <= 2 E U + (3/2) eta log(1/delta). Both are
tested one-sidedly against bootstrap confidence bands.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .complexity import FiniteClassSpec, _std_error, star_hull_sup
from .model import DiscreteDistribution, _count_chunks, _id_array, _sample_counts, rng_stream

__all__ = [
    "MultiplierSetup",
    "MultiplierSupResult",
    "ConcentrationReport",
    "TailReport",
    "multiplier_sup",
    "self_localization_check",
    "simulate_sup_draws",
    "mgf_verify",
    "tail_verify",
]

# Slack of the self-localization inequality B(h_max) <= U, per draw.
_SELF_LOC_TOL = 1e-10


@dataclass(frozen=True)
class MultiplierSetup:
    """A joint finite law of (feature atom, multiplier) plus a hulled class.

    ``joint`` reuses the discrete-distribution container with the atom's y
    value playing the role of the multiplier; ``class_spec`` holds the value
    tables of the base functions over the same atoms, whose star hull the
    supremum ranges over. The scale constants are computed from the data,
    never asserted: ``kappa`` is the largest |h| over positive-probability
    atoms, ``multiplier_bound`` the largest |zeta| there, and

        eta = 8 * (multiplier_bound^2 / gamma + gamma * kappa^2),

    which must be positive: a setup whose multipliers and class both vanish
    on the live atoms (or are so small that eta underflows) is rejected with
    a ``ValueError``.

    The multiplier is a function of the atom, so every sum over a sample is
    its atom counts times one read-only table ``[zeta * h; h^2]`` of shape
    (2k, s), built here once along with the table's population mean
    ``[E zeta h; E h^2]``. The setup also keeps the result of its last
    :func:`simulate_sup_draws` call, so checks that read the same draws
    (``mgf_verify`` then ``tail_verify``) simulate them once.
    """

    joint: DiscreteDistribution
    class_spec: FiniteClassSpec
    gamma: float
    kappa: float = field(init=False)
    multiplier_bound: float = field(init=False)
    eta: float = field(init=False)
    _table: np.ndarray = field(init=False, repr=False, compare=False)
    _table_mean: np.ndarray = field(init=False, repr=False, compare=False)
    _last_sim: tuple | None = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self) -> None:
        if not 0 < self.gamma < np.inf:
            raise ValueError(f"gamma must be positive and finite, got {self.gamma!r}")
        if self.class_spec.base.shape[1] != self.joint.size:
            raise ValueError("class value tables must match the joint support size")
        live = self.joint.probs > 0
        kappa = float(np.max(np.abs(self.class_spec.base[:, live])))
        mult = float(np.max(np.abs(self.joint.ys[live])))
        eta = 8.0 * (mult**2 / self.gamma + self.gamma * kappa**2)
        if not eta > 0:
            raise ValueError("eta = 0: the multipliers and the class vanish (or their squares "
                             "underflow) on every positive-probability atom, so the MGF grid "
                             "is undefined")
        table = np.vstack([self.class_spec.base * self.zeta, self.class_spec._base_sq])
        table_mean = table @ self.joint.probs
        table.flags.writeable = table_mean.flags.writeable = False
        object.__setattr__(self, "kappa", kappa)
        object.__setattr__(self, "multiplier_bound", mult)
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "_table", table)
        object.__setattr__(self, "_table_mean", table_mean)

    @property
    def zeta(self) -> np.ndarray:
        return self.joint.ys


@dataclass(frozen=True)
class MultiplierSupResult:
    value: float
    argmax_index: int
    argmax_lam: float
    linear_at_max: float  # A evaluated at the maximizing hull element
    quad_at_max: float  # B evaluated at the maximizing hull element


@dataclass(frozen=True)
class ConcentrationReport:
    mean_sup: float
    mean_sup_se: float
    lambda_grid: np.ndarray
    log_mgf: np.ndarray
    log_mgf_ci_lower: np.ndarray
    log_mgf_ci_upper: np.ndarray
    bound: np.ndarray
    violations: tuple[float, ...]  # lambdas whose CI lower bound exceeds the bound
    self_localization_failures: int
    replicates: int


@dataclass(frozen=True)
class TailReport:
    deltas: np.ndarray
    thresholds: np.ndarray
    exceed_freq: np.ndarray
    allowed: np.ndarray  # delta + 3 binomial standard errors
    holds: bool


def _sup_kernel(setup: MultiplierSetup, counts: np.ndarray, n: int) -> tuple[np.ndarray, ...]:
    """(argmax, lam, U) per row of (R, s) counts of n atom draws, then the (R, k) A and B."""
    k = setup.class_spec.base.shape[0]
    sums = counts @ setup._table.T  # (R, 2k)
    linear = sums[:, :k] - n * setup._table_mean[:k]
    quad = setup.gamma * (n * setup._table_mean[k:] + sums[:, k:])
    return (*star_hull_sup(linear, quad), linear, quad)


def multiplier_sup(setup: MultiplierSetup, atom_ids: np.ndarray) -> MultiplierSupResult:
    """Exact supremum on one sample: the one-row case of the simulate_sup_draws kernel."""
    idx = _id_array(atom_ids)
    counts = _sample_counts(idx, setup.joint.size)
    best, lam, value, linear, quad = _sup_kernel(setup, counts, idx.size)
    j, lam = int(best[0]), float(lam[0])
    return MultiplierSupResult(
        value=float(value[0]),
        argmax_index=j,
        argmax_lam=lam,
        linear_at_max=lam * float(linear[0, j]),
        quad_at_max=lam**2 * float(quad[0, j]),
    )


def self_localization_check(
    setup: MultiplierSetup, atom_ids: np.ndarray
) -> tuple[bool, float]:
    """Verify B(h_max) <= U exactly on one sample; returns (holds, margin)."""
    res = multiplier_sup(setup, atom_ids)
    margin = res.value - res.quad_at_max
    return margin >= -_SELF_LOC_TOL, margin


def simulate_sup_draws(
    setup: MultiplierSetup, n: int, replicates: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Replicated draws of (U, B at the maximizer), vectorized over replicates.

    Each replicate owns a keyed stream, so results are independent of
    batching and execution order; the kernel reads their atom counts only,
    one chunk of replicates at a time as it is drawn, so the two (R,) result
    arrays are all that grows with R. For R > 1 and n <= 10,922 draws,
    where a full chunk holds three or more replicates, every chunk has at
    least two rows (see ``model._replicate_words``), so BLAS multiplies it
    with the matrix-matrix kernel it uses for all R rows at once, and the
    values are bit for bit those of one kernel call on ``replicate_counts``.
    A BLAS that also picks kernels by size can part them in the last bit:
    OpenBLAS on AVX-512 takes a small-matrix kernel for products of at most
    1,200 entries over 32 or more atoms, which chunks reach only past
    n = 27 draws. The result is read-only and kept on ``setup``: a call
    with the same (n, replicates, seed) as the setup's last one returns the
    same arrays without drawing.
    """
    key = (n, replicates, seed)
    if setup._last_sim is not None and setup._last_sim[0] == key:
        return setup._last_sim[1]
    sups, quad_at_max = np.empty(replicates), np.empty(replicates)
    for lo, counts, _ in _count_chunks(seed, "multiplier-sample", replicates, n, setup.joint):
        hi = lo + counts.shape[0]
        best, lam, sups[lo:hi], _, quad = _sup_kernel(setup, counts, n)
        quad_at_max[lo:hi] = lam**2 * quad[np.arange(hi - lo), best]
    sups.flags.writeable = quad_at_max.flags.writeable = False
    object.__setattr__(setup, "_last_sim", (key, (sups, quad_at_max)))
    return sups, quad_at_max


def _bootstrap_log_mgf(
    sups: np.ndarray, lambdas: np.ndarray, resamples: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Percentile bootstrap bands for the centered empirical log-MGF.

    Each resample recenters at its own mean. Since
    log mean_b exp(lam (U - U_bar_b)) = log mean_b exp(lam U) - lam U_bar_b,
    every resample statistic is a counted average of one table
    ``[U, exp(lam (U - max U))]``. The draws take only u distinct values, and
    a resample's counts over them are Multinomial(r, c_j / r) for their
    multiplicities c_j, so each resample is one count row over the u values.
    Cost: O(resamples * u) binomial draws and multiply-adds, with memory
    O(chunk * u) for chunk = 2**24 // r resamples at once, where
    u <= min(r, C(n + s - 1, n)) for samples of size n over s atoms.
    """
    r = sups.shape[0]
    shift = sups.max()  # fixed exponent shift for overflow safety
    values, weights = np.unique(sups, return_counts=True)
    table = np.column_stack([values, np.exp(np.outer(values - shift, lambdas))])  # (u, 1 + L)
    rng = rng_stream(seed, "mgf-bootstrap")
    stats = np.empty((resamples, lambdas.size))
    chunk = max(1, int(2**24 // max(1, r)))
    done = 0
    while done < resamples:
        batch = min(chunk, resamples - done)
        sums = rng.multinomial(r, weights / r, size=batch) @ table / r  # (batch, 1 + L)
        means = sums[:, :1]
        log_mgf_raw = np.log(sums[:, 1:])  # log mean exp(lam(U - shift))
        stats[done : done + batch] = log_mgf_raw + lambdas[None, :] * (shift - means)
        done += batch
    lower = np.percentile(stats, 2.5, axis=0)
    upper = np.percentile(stats, 97.5, axis=0)
    return lower, upper


def mgf_verify(
    setup: MultiplierSetup,
    n: int,
    replicates: int,
    seed: int = 0,
    bootstrap_resamples: int = 1000,
) -> ConcentrationReport:
    """One-sided empirical check of the sub-gamma MGF bound for U.

    The lambda grid is eight evenly spaced points in [1/(16 eta), 1/(2 eta)].
    A grid point counts as a violation only when the bootstrap lower
    confidence bound of the empirical log-MGF exceeds the theoretical curve
    lam^2 eta E_hat[U] / (2 (1 - eta lam)). MGF estimates near the 1/eta
    pole are heavy-tailed, which is why the grid stays at half the
    admissible range.
    """
    if replicates < 1000:
        raise ValueError("use at least 1000 replicates for MGF estimation")
    if bootstrap_resamples < 1:
        raise ValueError(f"bootstrap_resamples must be at least 1, got {bootstrap_resamples!r}")
    eta = setup.eta
    lambdas = np.linspace(1.0 / (16.0 * eta), 1.0 / (2.0 * eta), 8)
    sups, quad_at_max = simulate_sup_draws(setup, n, replicates, seed)
    failures = int(np.sum(quad_at_max > sups + _SELF_LOC_TOL))
    mean_sup = float(sups.mean())
    mean_se = _std_error(sups)
    centered = sups - mean_sup
    log_mgf = np.array([np.log(np.mean(np.exp(lam * centered))) for lam in lambdas])
    lower, upper = _bootstrap_log_mgf(sups, lambdas, bootstrap_resamples, seed)
    bound = lambdas**2 * eta * mean_sup / (2.0 * (1.0 - eta * lambdas))
    violations = tuple(float(lambdas[j]) for j in np.flatnonzero(lower > bound))
    return ConcentrationReport(
        mean_sup=mean_sup,
        mean_sup_se=mean_se,
        lambda_grid=lambdas,
        log_mgf=log_mgf,
        log_mgf_ci_lower=lower,
        log_mgf_ci_upper=upper,
        bound=bound,
        violations=violations,
        self_localization_failures=failures,
        replicates=replicates,
    )


def tail_verify(
    setup: MultiplierSetup,
    n: int,
    replicates: int,
    delta_grid: np.ndarray,
    seed: int = 0,
) -> TailReport:
    """Exceedance frequencies of U over 2 E_hat[U] + (3/2) eta log(1/delta).

    The claim is one-sided, so each frequency is only required to stay below
    delta plus three binomial standard errors at that delta.
    """
    deltas = np.asarray(delta_grid, dtype=np.float64).ravel()
    if deltas.size == 0:
        raise ValueError("delta_grid must hold at least one delta")
    if not np.all((deltas > 0) & (deltas <= 1)):
        raise ValueError("every delta must lie in (0, 1]")
    sups, _ = simulate_sup_draws(setup, n, replicates, seed)
    mean_sup = float(sups.mean())
    thresholds = 2.0 * mean_sup + 1.5 * setup.eta * np.log(1.0 / deltas)
    freq = np.array([float(np.mean(sups > thr)) for thr in thresholds])
    allowed = deltas + 3.0 * np.sqrt(deltas * (1.0 - deltas) / replicates)
    return TailReport(
        deltas=deltas,
        thresholds=thresholds,
        exceed_freq=freq,
        allowed=allowed,
        holds=bool(np.all(freq <= allowed)),
    )
