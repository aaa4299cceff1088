"""Offset and local Rademacher complexity over finite function classes.

The central trick used throughout: for a finite base class, the supremum over
a star hull of a "linear minus quadratic" functional is available in closed
form. Writing the candidate as lam*h with lam in [0,1], the objective is
lam*A(h) - lam^2*B(h) with B(h) >= 0, so the per-h optimum is

    lam* = clip(A(h) / (2 B(h)), 0, 1)        (B(h) > 0)
    lam* = 1{A(h) > 0}                        (B(h) = 0)

and the overall supremum is the max over h. No lambda grids anywhere; the
deterministic inequality checks in this package rely on that exactness.

Monte-Carlo draws are keyed per replicate, so estimates never depend on
execution order, and calls sharing a seed share their draws (common random
numbers), which turns several qualitative monotonicity claims into exact
per-draw inequalities.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import comb, isnan, log, nextafter, prod

import numpy as np

from .model import (DiscreteDistribution, _count_product, _id_array, _sample_counts,
                    replicate_counts)

__all__ = [
    "FiniteClassSpec",
    "ComplexityEstimate",
    "SparseClassSpec",
    "SparseBoundReport",
    "star_hull_sup",
    "offset_complexity_draws",
    "offset_complexity_mc",
    "empirical_offset_complexity",
    "local_sup_stats",
    "phi_from_stats",
    "local_complexity_fixed_point",
    "subset_family",
    "sparse_offset_values",
    "sparse_offset_bound_check",
]

_EXACT_ROW_CAP = 2**20  # largest exact law of per-atom sign sums
_SUBSET_FAMILY_CAP = 10**6  # largest sparse subset family enumerated
# Rank cut of the sparse Gram factors: a column whose Cholesky residual square
# norm is at most this times its own is dropped as dependent. The Gram squares
# conditioning, so an exactly dependent column keeps a rounding residual near
# 1e-16 / (smallest kept one) <= 1e-9 of its own; residual norms above 3.2e-4 stay.
_GRAM_REL_TOL = 1e-7
_FIT_CHUNK_ELEMENTS = 2**18  # float64 values per (subsets, signs) block of the sparse kernel


@dataclass(frozen=True)
class FiniteClassSpec:
    """Star hull of a finite base class of atom-indexed functions.

    ``base`` has shape (k, s): row j is the value table of function j over
    the s support atoms. Suprema range over the star hull
    {lam * h : h in base, lam in [0, 1]}, which always contains zero.
    The squared table ``base**2`` is built once and kept, read-only.
    """

    base: np.ndarray
    _base_sq: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        base = np.atleast_2d(np.asarray(self.base, dtype=np.float64))
        if base.shape[0] < 1:
            raise ValueError("base class must be nonempty")
        if not np.isfinite(base).all():
            raise ValueError("base class values must be finite")
        base = np.array(base, copy=True)
        base.flags.writeable = False
        base_sq = base**2
        base_sq.flags.writeable = False
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "_base_sq", base_sq)


@dataclass(frozen=True)
class ComplexityEstimate:
    value: float
    std_error: float
    replicates: int
    gamma: float
    kind: str  # offset | local_fixed_point | empirical_offset | sparse_exact


@dataclass(frozen=True)
class SparseClassSpec:
    """k-sparse linear predictors over fixed feature rows.

    ``features`` has shape (n, d); predictors are x -> <w, x> with at most k
    nonzero weight entries. The subset family {S : |S| <= k} is enumerated
    exhaustively, so its size is capped.
    """

    features: np.ndarray
    k: int
    gamma: float

    def __post_init__(self) -> None:
        feats = np.atleast_2d(np.asarray(self.features, dtype=np.float64))
        if not np.isfinite(feats).all():
            raise ValueError("features must be finite")
        object.__setattr__(self, "features", feats)
        d = feats.shape[1]
        if not 1 <= self.k <= d:
            raise ValueError("sparsity level k must satisfy 1 <= k <= d")
        if not 0 < self.gamma < np.inf:
            raise ValueError(f"gamma must be positive and finite, got {self.gamma!r}")
        family_size = sum(comb(d, i) for i in range(1, self.k + 1))
        if family_size > _SUBSET_FAMILY_CAP:
            raise ValueError(
                f"subset family has {family_size} members, above the cap "
                f"{_SUBSET_FAMILY_CAP}; reduce d or k"
            )

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class SparseBoundReport:
    estimate: ComplexityEstimate
    benchmark: float  # (1/gamma) * k * log(e d / k) / n
    ratio: float
    per_sigma: np.ndarray


def _lowest_best(values: np.ndarray, largest: bool = False) -> np.ndarray:
    """Lowest index along the last axis within relative 1e-12 of the min (or max).

    The slack is 1e-12 |best|: a best of 0 ties only exactly, and +inf never
    ties with a finite minimum.
    """
    best = (values.max if largest else values.min)(axis=-1, keepdims=True)
    slack = 1e-12 * np.abs(best)
    return (values >= best - slack if largest else values <= best + slack).argmax(axis=-1)


def star_hull_sup(
    linear: np.ndarray, quad: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact sup over the star hull of lam*linear[..., h] - lam^2*quad[..., h].

    Works over the last axis and returns (argmax, lam, value) with that axis
    dropped: lam = clip(linear / (2 quad), 0, 1), or 1{linear > 0} where
    quad = 0. The argmax is the lowest h index within relative 1e-12 of the
    best value, and the value is always >= 0 because lam = 0 is feasible.
    The arguments are checked here; the package's own callers, whose quad is
    nonnegative by construction, call the row kernel behind it directly.
    """
    linear = np.asarray(linear, dtype=np.float64)
    quad = np.asarray(quad, dtype=np.float64)
    if linear.shape != quad.shape:
        raise ValueError("linear and quadratic coefficient arrays must align")
    if quad.min(initial=0.0) < 0:
        raise ValueError("quadratic coefficients must be nonnegative")
    k = linear.shape[-1]
    rows = _star_hull_rows(linear.reshape(-1, k), quad.reshape(-1, k))
    return tuple(part.reshape(linear.shape[:-1])[()] for part in rows)


def _star_hull_rows(
    linear: np.ndarray, quad: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`star_hull_sup` of each row of (R, k) ``linear``; ``quad`` broadcasts to it, >= 0."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # clip(linear / (2 quad), 0, 1); at quad = 0 the ratio is +-inf, or
        # NaN when linear = 0 too, which fmax sends to 0.
        lam = np.minimum(np.fmax(linear / (2.0 * quad), 0.0), 1.0)
    values = lam * linear - lam**2 * quad
    j = _lowest_best(values, largest=True)
    rows = np.arange(j.size)
    return j, lam[rows, j], values[rows, j]


def _per_draw_sups(
    class_spec: FiniteClassSpec,
    gamma: float,
    n: int,
    signed: np.ndarray,
    counts: np.ndarray,
    pop_sq: np.ndarray | None,
) -> np.ndarray:
    """Per-draw normalized suprema of the offset Rademacher functional.

    With ``pop_sq`` given, each draw evaluates
    (1/n) sup_h sum_i [s_i h(X_i) - gamma h(X_i)^2 - gamma E h^2]; without it
    the population penalty is omitted (the sample-conditional variant).
    Each draw's sums depend on its n atom ids only through its signed and
    plain atom counts: ``signed`` is (R, s), and ``counts`` is (R, s) or one
    (1, s) row that every draw shares. So memory is O(R (s + k)), not the
    O(R n k) of a gather; ``model.replicate_counts`` holds no (R, n) ids.
    """
    quad = gamma * _count_product(counts, class_spec._base_sq)
    if pop_sq is not None:
        quad = quad + gamma * n * pop_sq[None, :]
    return _star_hull_rows(_count_product(signed, class_spec.base), quad)[2] / n


def offset_complexity_draws(
    dist: DiscreteDistribution,
    class_spec: FiniteClassSpec,
    gamma: float,
    n: int,
    replicates: int,
    seed: int,
) -> np.ndarray:
    """Per-replicate values behind the offset complexity estimate."""
    if not 0 <= gamma < np.inf:
        raise ValueError(f"gamma must be nonnegative and finite, got {gamma!r}")
    if class_spec.base.shape[1] != dist.size:
        raise ValueError("class value tables must match the support size")
    counts, signed = replicate_counts(seed, "offset-complexity", replicates, n, dist, signs=True)
    return _per_draw_sups(class_spec, gamma, n, signed, counts, class_spec._base_sq @ dist.probs)


def _std_error(values: np.ndarray) -> float:
    r = values.shape[0]
    return float(values.std(ddof=1) / np.sqrt(r)) if r > 1 else 0.0


def _mc_estimate(values: np.ndarray, gamma: float, kind: str) -> ComplexityEstimate:
    return ComplexityEstimate(
        value=float(values.mean()), std_error=_std_error(values),
        replicates=values.shape[0], gamma=gamma, kind=kind,
    )


def offset_complexity_mc(
    dist: DiscreteDistribution,
    class_spec: FiniteClassSpec,
    gamma: float,
    n: int,
    replicates: int,
    seed: int,
) -> ComplexityEstimate:
    """Monte-Carlo offset complexity with exact per-draw suprema.

    gamma = 0 degrades to the plain Rademacher average of the star hull.
    Estimates sharing (seed, n, replicates) share draws, so the estimate is
    pointwise nonincreasing in gamma, not merely on average.
    """
    vals = offset_complexity_draws(dist, class_spec, gamma, n, replicates, seed)
    return _mc_estimate(vals, gamma, "offset")


def empirical_offset_complexity(
    sample_x: np.ndarray,
    class_spec: FiniteClassSpec,
    gamma: float,
    sigma_replicates: int,
    seed: int,
    exact: bool = False,
) -> ComplexityEstimate:
    """Offset complexity conditional on a fixed X-sample (no population term).

    ``sample_x`` holds atom ids into the class value tables. Exact mode sums
    over the prod(c_a + 1) outcomes of the atoms' sign sums, 2 Binomial(c_a,
    1/2) - c_a for an atom drawn c_a times (at most 2^20 rows); std_error is 0.
    """
    if not 0 <= gamma < np.inf:
        raise ValueError(f"gamma must be nonnegative and finite, got {gamma!r}")
    idx = _id_array(sample_x)
    n, s = idx.size, class_spec.base.shape[1]
    if n < 1:
        raise ValueError("the sample needs at least one atom id")
    counts = _sample_counts(idx, s)  # one row for every sign row
    if exact:
        hit = np.flatnonzero(counts[0])
        c = counts[0, hit]
        rows = prod((c + 1).tolist())  # Python ints: an int64 product can wrap
        if rows > _EXACT_ROW_CAP:
            raise ValueError(f"the exact law has {rows} rows of sign sums, above {_EXACT_ROW_CAP}")
        log_fact = np.concatenate([[0.0], np.cumsum(np.log(np.arange(1, c.max() + 1)))])
        log_w = np.full(1, -n * log(2.0))  # log pmfs, summed over the rows' grid
        for a in c.tolist():
            log_w = np.add.outer(log_w, log_fact[a] - log_fact[: a + 1] - log_fact[a::-1]).ravel()
        heads = np.indices(c + 1).reshape(c.size, rows).T  # (rows, hits), in log_w's order
        values = _per_draw_sups(FiniteClassSpec(base=class_spec.base[:, hit]), gamma, n,
                                2.0 * heads - c, c[None, :], None)
        return ComplexityEstimate(float(np.exp(log_w) @ values), 0.0, rows, gamma,
                                  "empirical_offset")
    if sigma_replicates < 1:
        raise ValueError("need at least one sign replicate outside exact mode")
    _, signs = replicate_counts(seed, "empirical-offset-sigma", sigma_replicates, n, signs=True)
    signed = signs @ (idx[:, None] == np.arange(s))  # integer sums, so exact in any order
    del signs  # the largest array here; the suprema read counts only
    values = _per_draw_sups(class_spec, gamma, n, signed, counts, None)
    return _mc_estimate(values, gamma, "empirical_offset")


def local_sup_stats(
    dist: DiscreteDistribution,
    class_spec: FiniteClassSpec,
    n: int,
    replicates: int,
    seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Draws for the localized Rademacher functional, reusable across radii.

    Returns (S, pop_sq) where S[r, h] = (1/n) sum_i s_i h(X_i) for replicate
    r and pop_sq[h] = E h^2. Every radius evaluation reuses these statistics,
    which is what makes the estimated fixed-point curve monotone in r. S is
    column-major: each radius takes a max over the k classes of every row,
    which numpy computes an order of magnitude faster over k contiguous
    columns than along the short rows of a C-ordered (R, k) table.
    """
    if class_spec.base.shape[1] != dist.size:
        raise ValueError("class value tables must match the support size")
    _, signed = replicate_counts(seed, "local-complexity", replicates, n, dist, signs=True)
    stats = np.asfortranarray(_count_product(signed, class_spec.base) / n)
    return stats, class_spec._base_sq @ dist.probs


def phi_from_stats(
    S: np.ndarray, pop_sq: np.ndarray, gamma: float, r: float
) -> tuple[float, np.ndarray]:
    """Localized Rademacher average at radius r from precomputed statistics.

    The feasible scalings are {lam h : lam in [0,1], E (lam h)^2 <= r/gamma},
    so per base function lam_max = min(1, sqrt(r / (gamma E h^2))) and the
    per-draw supremum is max(0, max_h lam_max(h) * S[., h]). ``S`` is the
    (R, k) table of :func:`local_sup_stats`, one column per entry of ``pop_sq``.
    """
    if not 0 < gamma < np.inf:
        raise ValueError(f"gamma must be positive and finite, got {gamma!r}")
    if S.ndim != 2 or S.shape[1] != pop_sq.size:
        raise ValueError(
            f"S must be (R, {pop_sq.size}), one column per class, got shape {S.shape}"
        )
    if isnan(r):
        raise ValueError("radius r must be a number, got nan")
    if r <= 0:
        return 0.0, np.zeros(S.shape[0])
    with np.errstate(divide="ignore", invalid="ignore"):
        lam_max = np.where(pop_sq > 0, np.minimum(1.0, np.sqrt(r / (gamma * pop_sq))), 1.0)
    per_draw = np.maximum(0.0, np.max(lam_max[None, :] * S, axis=1))
    return float(per_draw.mean()), per_draw


def local_complexity_fixed_point(
    dist: DiscreteDistribution,
    class_spec: FiniteClassSpec,
    gamma: float,
    n: int,
    mc_replicates: int,
    r_tol: float,
    seed: int,
) -> ComplexityEstimate:
    """Smallest r with phi(r) <= r, where phi is the localized average.

    Solved by bisection on the Monte-Carlo curve; all radius evaluations use
    common random numbers so the estimated phi is nondecreasing in r and the
    crossing is unique. The bracket stops within r_tol, or earlier where lo
    and hi are adjacent doubles. The reported std_error is the Monte-Carlo
    standard error of phi at the returned radius.
    """
    if not 0 < gamma < np.inf:
        raise ValueError(f"gamma must be positive and finite, got {gamma!r}")
    if not 0 < r_tol < np.inf:
        raise ValueError(f"r_tol must be positive and finite, got {r_tol!r}")
    S, pop_sq = local_sup_stats(dist, class_spec, n, mc_replicates, seed)

    def phi(r: float) -> float:
        return phi_from_stats(S, pop_sq, gamma, r)[0]

    hi = float(gamma * pop_sq.max()) if pop_sq.max() > 0 else r_tol
    hi = max(hi, r_tol)
    # hi >= gamma * max E h^2: from there on every lam_max is exactly 1 and phi
    # is constant, so the bracket doubles hi until it reaches that value.
    top = phi(hi)
    while hi < top:
        hi *= 2.0
    lo = 0.0
    floor = max(r_tol * 1e-3, 1e-300)
    degenerate = phi(floor) <= floor
    if degenerate:
        # Degenerate class: the curve starts below the diagonal.
        lo = hi = floor
    # Stop at r_tol, or where no double lies strictly between lo and hi.
    while hi - lo > r_tol and nextafter(lo, hi) < hi:
        mid = 0.5 * (lo + hi)
        if phi(mid) <= mid:
            hi = mid
        else:
            lo = mid
    _, per_draw = phi_from_stats(S, pop_sq, gamma, hi)
    value = 0.0 if degenerate and per_draw.max() == 0.0 else float(hi)
    return ComplexityEstimate(
        value=value,
        std_error=_std_error(per_draw),
        replicates=mc_replicates,
        gamma=gamma,
        kind="local_fixed_point",
    )


def subset_family(d: int, k: int) -> list[tuple[int, ...]]:
    """All index subsets of {0..d-1} with size 1..k, in lexicographic order."""
    return list(itertools.chain.from_iterable(
        itertools.combinations(range(d), size) for size in range(1, k + 1)))


def _subset_factors(features: np.ndarray, k: int) -> list[tuple[np.ndarray, ...]]:
    """Per support size, (members, parent, rows) of its subsets in lexicographic order.

    ``parent[i]`` indexes ``members[i, :-1]`` one size down (the empty subset
    for size 1). ``rows[i]`` is the last row of the inverse of its Gram's
    Cholesky factor (zero if cut): its last coordinate is rows[i] @ c[members[i]].
    """
    d = features.shape[1]
    gram = features.T @ features
    diag = gram.diagonal()
    levels, last, inverse = [], np.array([-1]), np.zeros((1, 0, 0))
    for size in range(1, k + 1):
        count = comb(d, size)  # the size's slice of subset_family(d, k)
        subsets = itertools.chain.from_iterable(itertools.combinations(range(d), size))
        members = np.fromiter(subsets, dtype=np.intp, count=count * size).reshape(count, size)
        # The children of each parent are contiguous: it plus every later column.
        parent = np.repeat(np.arange(last.size), d - 1 - last)
        prior = inverse[parent]  # (M, size - 1, size - 1)
        new = members[:, -1]
        column = np.einsum("mij,mj->mi", prior, gram[members[:, :-1], new[:, None]])
        resid = diag[new] - np.einsum("mi,mi->m", column, column)
        keep = resid > _GRAM_REL_TOL * diag[new]
        pivot = np.where(keep, 1.0 / np.sqrt(np.where(keep, resid, 1.0)), 0.0)[:, None]
        rows = np.hstack([np.einsum("mi,mij->mj", column, prior) * -pivot, pivot])
        levels.append((members, parent, rows))
        last = new
        if size < k:  # the next size's parent factors, [[prior, 0], [rows]]
            inverse = np.concatenate([np.pad(prior, ((0, 0), (0, 0), (0, 1))), rows[:, None]], 1)
    return levels


def sparse_offset_values(spec: SparseClassSpec, sigmas: np.ndarray) -> np.ndarray:
    """Exact unnormalized sparse offset suprema, one per row of ``sigmas``.

    Over all supports S with |S| <= k, and over all weight vectors on S, the
    supremum of <Phi_S w, sigma> - gamma w' Phi_S' Phi_S w equals
    c_S' G_S^+ c_S / (4 gamma) with c = sigma Phi and G = Phi' Phi; the value
    is the max over supports. Divide by n for the complexity normalization.

    A support's c_S' G_S^+ c_S is its parent's plus one new coordinate squared:
    O(supports x k^2) to factor per call, then one length-d row of a BLAS
    product per support and sign. Per block of signs the sizes run in order, one
    size's values kept as the next one's parents; blocks of supports, their dense
    factors and the kept values hold at most _FIT_CHUNK_ELEMENTS floats each (a
    size with more supports than that is kept one sign at a time).
    """
    sigmas = np.atleast_2d(np.asarray(sigmas, dtype=np.float64))
    if sigmas.shape[1] != spec.n:
        raise ValueError("sigma must have one entry per feature row")
    levels = _subset_factors(spec.features, spec.k)
    coords = (sigmas @ spec.features).T  # (d, B): c = sigma Phi per column
    out = np.zeros(sigmas.shape[0])  # 0 is the empty support's value
    held = max((members.shape[0] for members, _, _ in levels[:-1]), default=1)
    width = max(1, _FIT_CHUNK_ELEMENTS // held)
    for lo in range(0, out.size, width):
        block, best = coords[:, lo : lo + width], out[lo : lo + width]
        step = max(1, _FIT_CHUNK_ELEMENTS // max(block.shape[1], spec.d))
        values = np.zeros((1, block.shape[1]))  # the parents of size 1: the empty support
        for size, (members, parent, rows) in enumerate(levels, 1):
            # A column cut from a support can leave it below one of its
            # subsets, so every size's maxima count; the last is not kept.
            kept = np.empty((members.shape[0], block.shape[1])) if size < spec.k else None
            for a in range(0, members.shape[0], step):
                b = min(members.shape[0], a + step)
                factor = np.zeros((b - a, spec.d))  # each support's row, dense over d
                np.put_along_axis(factor, members[a:b], rows[a:b], axis=1)
                coord = np.matmul(factor, block, out=None if kept is None else kept[a:b])
                np.square(coord, out=coord)
                coord += values.take(parent[a:b], axis=0)
                np.maximum(best, coord.max(axis=0), out=best)
            values = kept
    return out / (4.0 * spec.gamma)


def sparse_offset_bound_check(
    spec: SparseClassSpec, sigma_replicates: int, seed: int
) -> SparseBoundReport:
    """Monte-Carlo sparse offset complexity against its k log(ed/k)/(gamma n) shape.

    The reported ratio is estimate / [(1/gamma) k log(e d / k) / n]; across a
    configuration sweep the maximum ratio plays the role of the fitted
    universal constant.
    """
    n = spec.n
    _, sigmas = replicate_counts(seed, "sparse-offset-sigma", sigma_replicates, n, signs=True)
    per_sigma = sparse_offset_values(spec, sigmas) / n
    estimate = _mc_estimate(per_sigma, spec.gamma, "sparse_exact")
    benchmark = (1.0 / spec.gamma) * spec.k * log(np.e * spec.d / spec.k) / n
    return SparseBoundReport(
        estimate=estimate,
        benchmark=benchmark,
        ratio=estimate.value / benchmark,
        per_sigma=per_sigma,
    )
