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
from dataclasses import dataclass, field, replace
from math import comb, log

import numpy as np

from .model import DiscreteDistribution, _atom_counts, _id_array, replicate_draws

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
    "hat_matrix",
    "subset_family",
    "sparse_offset_exact",
    "sparse_offset_values",
    "sparse_offset_bound_check",
]

_EXACT_SIGMA_CAP = 20  # 2^20 sign patterns is the largest exhaustive mode
_SUBSET_FAMILY_CAP = 10**6  # largest sparse subset family enumerated
# Rank cut of hat_matrix and of every subset basis: singular values at or
# below this times the largest count as zero.
_RANK_REL_TOL = 1e-10


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
    """
    linear = np.asarray(linear, dtype=np.float64)
    quad = np.asarray(quad, dtype=np.float64)
    if linear.shape != quad.shape:
        raise ValueError("linear and quadratic coefficient arrays must align")
    if quad.min(initial=0.0) < 0:
        raise ValueError("quadratic coefficients must be nonnegative")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # clip(linear / (2 quad), 0, 1); at quad = 0 the ratio is +-inf, or
        # NaN when linear = 0 too, which fmax sends to 0.
        lam = np.minimum(np.fmax(linear / (2.0 * quad), 0.0), 1.0)
    values = lam * linear - lam**2 * quad
    j = _lowest_best(values, largest=True)
    at_j = np.arange(0, values.size, values.shape[-1]).reshape(j.shape) + j  # flat indices
    return j, lam.ravel()[at_j], values.ravel()[at_j]


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
    (1, s) row that every draw shares. So memory is O(R s), not the
    O(R n k) of a gather.
    """
    quad = gamma * (counts @ class_spec._base_sq.T)
    if pop_sq is not None:
        quad = quad + gamma * n * pop_sq[None, :]
    linear = signed @ class_spec.base.T
    return star_hull_sup(linear, np.broadcast_to(quad, linear.shape))[2] / n


def offset_complexity_draws(
    dist: DiscreteDistribution,
    class_spec: FiniteClassSpec,
    gamma: float,
    n: int,
    replicates: int,
    seed: int,
    include_population_term: bool = True,
) -> np.ndarray:
    """Per-replicate values behind the offset complexity estimate."""
    if not 0 <= gamma < np.inf:
        raise ValueError(f"gamma must be nonnegative and finite, got {gamma!r}")
    if class_spec.base.shape[1] != dist.size:
        raise ValueError("class value tables must match the support size")
    idx, signs = replicate_draws(seed, "offset-complexity", replicates, n, dist, signs=True)
    # Both counts come from one flat id array (model._atom_counts builds its own).
    size = replicates * dist.size
    flat = (idx + np.arange(0, size, dist.size)[:, None]).ravel()
    signed = np.bincount(flat, weights=signs.ravel(), minlength=size).reshape(replicates, -1)
    counts = np.bincount(flat, minlength=size).reshape(replicates, -1)
    pop_sq = class_spec._base_sq @ dist.probs if include_population_term else None
    return _per_draw_sups(class_spec, gamma, n, signed, counts, pop_sq)


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


def _exact_sign_patterns(n: int) -> np.ndarray:
    """All 2^n sign rows: entry (r, i) is +1 where bit i of r is set, else -1."""
    bits = np.arange(2**n, dtype=np.uint32)[:, None] >> np.arange(n, dtype=np.uint32)
    return (bits & 1) * 2.0 - 1.0


def empirical_offset_complexity(
    sample_x: np.ndarray,
    class_spec: FiniteClassSpec,
    gamma: float,
    sigma_replicates: int,
    seed: int,
    exact: bool = False,
) -> ComplexityEstimate:
    """Offset complexity conditional on a fixed X-sample (no population term).

    ``sample_x`` holds atom ids into the class value tables. In exact mode
    all 2^n sign patterns are enumerated (n <= 20) and std_error is 0.
    """
    if not 0 <= gamma < np.inf:
        raise ValueError(f"gamma must be nonnegative and finite, got {gamma!r}")
    idx = _id_array(sample_x)
    n = idx.size
    s = class_spec.base.shape[1]
    if idx.min() < 0 or idx.max() >= s:
        raise ValueError(f"atom ids must lie in [0, {s})")
    if exact:
        if n > _EXACT_SIGMA_CAP:
            raise ValueError(f"exact sign enumeration is capped at n = {_EXACT_SIGMA_CAP}")
        signs = _exact_sign_patterns(n)  # (2^n, n)
    else:
        if sigma_replicates < 1:
            raise ValueError("need at least one sign replicate outside exact mode")
        _, signs = replicate_draws(seed, "empirical-offset-sigma", sigma_replicates, n,
                                   signs=True)
    one_hot = np.eye(s)[idx]  # (n, s): row i marks atom idx[i]
    signed = signs @ one_hot  # integer sums, so exact in any order
    del signs  # the largest array here; the suprema read counts only
    counts = one_hot.sum(axis=0, keepdims=True)  # one row for every sign row
    values = _per_draw_sups(class_spec, gamma, n, signed, counts, None)
    estimate = _mc_estimate(values, gamma, "empirical_offset")
    return replace(estimate, std_error=0.0) if exact else estimate


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
    which is what makes the estimated fixed-point curve monotone in r.
    """
    if class_spec.base.shape[1] != dist.size:
        raise ValueError("class value tables must match the support size")
    idx, signs = replicate_draws(seed, "local-complexity", replicates, n, dist, signs=True)
    S = (_atom_counts(idx, dist.size, signs) @ class_spec.base.T) / n
    pop_sq = class_spec._base_sq @ dist.probs
    return S, pop_sq


def phi_from_stats(
    S: np.ndarray, pop_sq: np.ndarray, gamma: float, r: float
) -> tuple[float, np.ndarray]:
    """Localized Rademacher average at radius r from precomputed statistics.

    The feasible scalings are {lam h : lam in [0,1], E (lam h)^2 <= r/gamma},
    so per base function lam_max = min(1, sqrt(r / (gamma E h^2))) and the
    per-draw supremum is max(0, max_h lam_max(h) * S[., h]).
    """
    if not 0 < gamma < np.inf:
        raise ValueError(f"gamma must be positive and finite, got {gamma!r}")
    if r <= 0:
        zeros = np.zeros(S.shape[0])
        return 0.0, zeros
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
    crossing is unique. The reported std_error is the Monte-Carlo standard
    error of phi at the returned radius.
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
    for _ in range(200):
        if phi(hi) <= hi:
            break
        hi *= 2.0
    else:
        raise RuntimeError("failed to bracket the fixed point from above")
    lo = 0.0
    floor = max(r_tol * 1e-3, 1e-300)
    degenerate = phi(floor) <= floor
    if degenerate:
        # Degenerate class: the curve starts below the diagonal.
        lo = hi = floor
    while hi - lo > r_tol:
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


def hat_matrix(columns: np.ndarray) -> np.ndarray:
    """Orthogonal projector onto the column space of the given matrix.

    Built from an SVD basis; singular values at or below 1e-10 times the
    largest are treated as zero (rank-revealing cut).
    """
    columns = np.atleast_2d(np.asarray(columns, dtype=np.float64))
    u, sv, _ = np.linalg.svd(columns, full_matrices=False)
    if sv.size == 0 or sv[0] == 0.0:
        return np.zeros((columns.shape[0], columns.shape[0]))
    keep = sv > _RANK_REL_TOL * sv[0]
    basis = u[:, keep]
    return basis @ basis.T


def subset_family(d: int, k: int) -> list[tuple[int, ...]]:
    """All index subsets of {0..d-1} with size 1..k, in lexicographic order."""
    out: list[tuple[int, ...]] = []
    for size in range(1, k + 1):
        out.extend(itertools.combinations(range(d), size))
    return out


def sparse_offset_exact(spec: SparseClassSpec, sigma: np.ndarray) -> float:
    """Exact unnormalized supremum of the sparse offset functional.

    Over all supports S with |S| <= k, and over all weight vectors on S, the
    supremum of <Phi_S w, sigma> - gamma w' Phi_S' Phi_S w equals
    sigma' H_S sigma / (4 gamma) with H_S the projector onto the columns of
    Phi_S; the overall value is the max over supports. Divide by n externally
    for the complexity normalization. Computed as the one-row case of
    :func:`sparse_offset_values`.
    """
    sigma = np.asarray(sigma, dtype=np.float64).ravel()
    if sigma.shape[0] != spec.n:
        raise ValueError("sigma must have one entry per feature row")
    return float(sparse_offset_values(spec, sigma[None, :])[0])


# Subsets per batched SVD are capped so that the stacked (subsets, n, size)
# input holds at most this many float64 values (8 MB).
_SVD_CHUNK_ELEMENTS = 2**20

# One slot, {"entry": (key, bases)}, so at most one basis set is resident: a
# gamma sweep reuses it, any other (features, k) replaces it. The key is the
# feature content, not the array's identity, so an in-place edit of the
# features misses the slot.
_basis_slot: dict = {}


def _build_subset_bases(features: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    n, d = features.shape
    family = subset_family(d, k)
    # Upper bound on the total rank; rows past the actual total stay unwritten.
    rows = np.empty((sum(comb(d, size) * min(n, size) for size in range(1, k + 1)), n))
    ranks: list[np.ndarray] = []
    filled = 0
    first = 0
    for size in range(1, k + 1):
        members = np.array(family[first : first + comb(d, size)], dtype=np.intp)
        first += members.shape[0]
        chunk = max(1, _SVD_CHUNK_ELEMENTS // (n * size))
        for lo in range(0, members.shape[0], chunk):
            cols = features[:, members[lo : lo + chunk]].transpose(1, 0, 2)
            u, sv, _ = np.linalg.svd(cols, full_matrices=False)
            # Same rank cut as hat_matrix; an all-zero subset keeps nothing.
            keep = sv > _RANK_REL_TOL * sv[:, :1]
            block = u.transpose(0, 2, 1)[keep]
            rows[filled : filled + block.shape[0]] = block
            filled += block.shape[0]
            # Rank-zero subsets contribute exactly 0 and are dropped here;
            # the caller clamps the overall maximum at 0, and empty segments
            # would corrupt the segmented reduction.
            rank = keep.sum(axis=1)
            ranks.append(rank[rank > 0])
    sizes = np.concatenate(ranks)
    starts = np.zeros(sizes.size, dtype=np.int64)
    np.cumsum(sizes[:-1], out=starts[1:])
    return rows[:filled], starts


def _stacked_subset_bases(spec: SparseClassSpec) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal bases of all subset column spaces, stacked for batching.

    Returns (basis_rows, segment_starts): basis_rows is (total_rank, n) with
    the transposed bases stacked; segment_starts delimits each subset's rows
    for segmented reduction. Each subset size takes one batched SVD per
    chunk. The result is kept for the next call with the same feature
    content and k; both arrays are read-only because later calls share them.
    """
    feats = spec.features
    key = (feats.shape, feats.tobytes(), spec.k)
    cached = _basis_slot.get("entry")
    if cached is not None and cached[0] == key:
        return cached[1]
    _basis_slot.clear()
    bases = _build_subset_bases(feats, spec.k)
    for arr in bases:
        arr.flags.writeable = False
    _basis_slot["entry"] = (key, bases)
    return bases


def sparse_offset_values(spec: SparseClassSpec, sigmas: np.ndarray) -> np.ndarray:
    """Unnormalized sparse offset suprema for a batch of sign vectors.

    Same quantity as :func:`sparse_offset_exact` per row of ``sigmas``,
    computed with stacked subset bases so that sweeps stay affordable.
    """
    sigmas = np.atleast_2d(np.asarray(sigmas, dtype=np.float64))
    basis_rows, starts = _stacked_subset_bases(spec)
    if basis_rows.shape[0] == 0:
        return np.zeros(sigmas.shape[0])
    out = np.empty(sigmas.shape[0])
    chunk = max(1, int(2**22 // max(1, basis_rows.shape[0])))
    for lo in range(0, sigmas.shape[0], chunk):
        batch = sigmas[lo : lo + chunk]
        proj = batch @ basis_rows.T  # (B, total_rank)
        sq = np.add.reduceat(proj**2, starts, axis=1)  # (B, n_subsets)
        out[lo : lo + chunk] = np.maximum(sq.max(axis=1), 0.0)
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
    _, sigmas = replicate_draws(seed, "sparse-offset-sigma", sigma_replicates, n, signs=True)
    per_sigma = sparse_offset_values(spec, sigmas) / n
    estimate = _mc_estimate(per_sigma, spec.gamma, "sparse_exact")
    benchmark = (1.0 / spec.gamma) * spec.k * log(np.e * spec.d / spec.k) / n
    return SparseBoundReport(
        estimate=estimate,
        benchmark=benchmark,
        ratio=estimate.value / benchmark,
        per_sigma=per_sigma,
    )
