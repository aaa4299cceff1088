"""Complexity estimators against exhaustive-enumeration and dense oracles."""

import itertools
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from math import comb

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from offset_risk import complexity, model
from offset_risk.complexity import (
    FiniteClassSpec,
    SparseClassSpec,
    empirical_offset_complexity,
    local_complexity_fixed_point,
    local_sup_stats,
    offset_complexity_draws,
    offset_complexity_mc,
    phi_from_stats,
    sparse_offset_bound_check,
    sparse_offset_values,
    star_hull_sup,
    subset_family,
)
from offset_risk.concentration import MultiplierSetup, multiplier_sup, simulate_sup_draws
from offset_risk.instances import random_star_class
from offset_risk.model import DiscreteDistribution, replicate_counts
from stream_reference import loop_draws


def uniform_dist(s):
    return DiscreteDistribution(
        xs=np.arange(s, dtype=float)[:, None],
        ys=np.zeros(s),
        probs=np.full(s, 1.0 / s),
        b=1.0,
    )


def all_sign_patterns(n):
    return np.array(list(itertools.product([-1.0, 1.0], repeat=n)))


@st.composite
def coefficient_rows(draw):
    """(R, k) linear and quadratic star-hull coefficients with ties and quad == 0."""
    rows = draw(st.integers(1, 5))
    cols = draw(st.integers(1, 5))
    linear_values = st.one_of(st.sampled_from([-1.5, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0]),
                              st.floats(-6.0, 6.0))
    quad_values = st.one_of(st.sampled_from([0.0, 0.0, 0.25, 1.0, 2.0]), st.floats(0.0, 4.0))
    linear = np.array(draw(st.lists(linear_values, min_size=rows * cols,
                                    max_size=rows * cols))).reshape(rows, cols)
    quad = np.array(draw(st.lists(quad_values, min_size=rows * cols,
                                  max_size=rows * cols))).reshape(rows, cols)
    if cols > 1 and draw(st.booleans()):
        # A later column repeats an earlier one: an exact tie.
        src, dst = sorted(draw(st.lists(st.integers(0, cols - 1), min_size=2, max_size=2,
                                        unique=True)))
        linear[:, dst], quad[:, dst] = linear[:, src], quad[:, src]
    return linear, quad


def gather_moments(base, idx, weights):
    """Reference sums over a sample: gather h at every draw, then sum.

    Returns the (R, k) sums sum_i w_i h(X_i) and sum_i h(X_i)^2 over (R, n)
    atom ids; the package forms both from atom counts instead.
    """
    h_at = base.T[idx]  # (R, n, k)
    return np.einsum("rn,rnk->rk", weights, h_at), np.einsum("rnk,rnk->rk", h_at, h_at)


@st.composite
def sampled_classes(draw):
    """A law with zero-probability atoms, a class on its support, and a sampling plan.

    The atom's y value doubles as the multiplier zeta; with few draws, some
    positive-probability atoms are never drawn either.
    """
    s, k = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    values = st.floats(-3.0, 3.0)
    base = np.array(draw(st.lists(values, min_size=k * s, max_size=k * s))).reshape(k, s)
    live = draw(st.lists(st.integers(0, s - 1), min_size=1, max_size=s, unique=True))
    probs = np.zeros(s)
    probs[live] = draw(st.lists(st.floats(0.1, 1.0), min_size=len(live), max_size=len(live)))
    zeta = np.array(draw(st.lists(st.floats(-1.5, 1.5), min_size=s, max_size=s)))
    dist = DiscreteDistribution(xs=np.arange(s, dtype=float)[:, None], ys=zeta,
                                probs=probs / probs.sum(), b=2.0)
    plan = dict(n=draw(st.integers(1, 6)), replicates=draw(st.integers(1, 4)),
                seed=draw(st.integers(0, 2**16)), gamma=draw(st.floats(0.05, 2.0)))
    return dist, FiniteClassSpec(base=base), plan


def gather_empirical_offset(spec, sample_x, gamma):
    """Reference exact empirical offset complexity: gather h at the sample, all signs."""
    signs = all_sign_patterns(sample_x.size)  # (2^n, n)
    h_at = spec.base[:, sample_x]  # (k, n)
    linear = signs @ h_at.T
    quad = np.broadcast_to(gamma * np.sum(h_at**2, axis=1), linear.shape)
    return (star_hull_sup(linear, quad)[2] / sample_x.size).mean()


def assert_sums_close(got, ref, base, n):
    scale = n * max(1.0, np.abs(base).max()) ** 2
    np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12 * scale)


class TestCountsMatchTheGather:
    """Every sum over a sample reads atom counts; a per-draw gather is the reference."""

    @settings(max_examples=100, deadline=None)
    @given(sampled_classes(), st.booleans())
    def test_offset_draws_match_the_gather(self, case, with_population):
        dist, spec, plan = case
        n, gamma = plan["n"], plan["gamma"]
        idx, signs = loop_draws(plan["seed"], "offset-complexity", plan["replicates"], n,
                                dist, signs=True)
        linear, quad = gather_moments(spec.base, idx, signs)
        quad = gamma * quad
        if with_population:
            quad = quad + gamma * n * ((spec.base**2) @ dist.probs)
        ref = star_hull_sup(linear, quad)[2] / n
        if with_population:
            got = offset_complexity_draws(dist, spec, gamma, n, plan["replicates"], plan["seed"])
        else:
            # The sample-conditional variant: the same draws, no population penalty.
            counts, signed = replicate_counts(plan["seed"], "offset-complexity",
                                              plan["replicates"], n, dist, signs=True)
            got = complexity._per_draw_sups(spec, gamma, n, signed, counts, None)
        assert got.shape == (plan["replicates"],)
        assert_sums_close(got, ref, spec.base, 1)

    @settings(max_examples=100, deadline=None)
    @given(sampled_classes())
    def test_multiplier_sums_match_the_gather(self, case):
        dist, spec, plan = case
        n, reps = plan["n"], plan["replicates"]
        live, gamma = dist.probs > 0, plan["gamma"]
        kappa, mult = np.abs(spec.base[:, live]).max(), np.abs(dist.ys[live]).max()
        if mult**2 / gamma + gamma * kappa**2 == 0:
            # Multipliers and class vanish (or their squares underflow) on the
            # live atoms: eta = 0 is rejected.
            with pytest.raises(ValueError, match="eta = 0"):
                MultiplierSetup(joint=dist, class_spec=spec, gamma=plan["gamma"])
            return
        setup = MultiplierSetup(joint=dist, class_spec=spec, gamma=plan["gamma"])
        idx, _ = loop_draws(plan["seed"], "multiplier-sample", reps, n, dist, signs=False)
        cross, quad_emp = gather_moments(spec.base, idx, setup.zeta[idx])
        mean_cross = (spec.base * setup.zeta) @ dist.probs
        A = cross - n * mean_cross  # (R, k)
        B = setup.gamma * (n * ((spec.base**2) @ dist.probs) + quad_emp)
        ref_sup = star_hull_sup(A, B)[2]
        sups, quad_at_max = simulate_sup_draws(setup, n, reps, plan["seed"])
        assert_sums_close(sups, ref_sup, spec.base, n)
        for r in range(reps):
            res = multiplier_sup(setup, idx[r])
            j, lam = res.argmax_index, res.argmax_lam
            assert_sums_close(res.value, ref_sup[r], spec.base, n)
            # A and B at the kernel's own maximizer, against the gathered tables.
            assert_sums_close(res.linear_at_max, lam * A[r, j], spec.base, n)
            assert_sums_close(res.quad_at_max, lam**2 * B[r, j], spec.base, n)
            assert_sums_close(quad_at_max[r], res.quad_at_max, spec.base, n)

    def test_single_draw_is_exact(self):
        # n = 1, h(X) = -2: the sign pattern +1 gives A = -2 (sup 0), the
        # pattern -1 gives A = 2, B = 0.25 * 4 = 1, so lam = 1 and the sup is 1.
        spec = FiniteClassSpec(base=np.array([[0.5, -2.0, 3.0]]))
        est = empirical_offset_complexity([1], spec, 0.25, 0, seed=0, exact=True)
        assert (est.value, est.std_error) == (0.5, 0.0)

    def test_empirical_offset_exact_matches_the_gather(self):
        rng = np.random.default_rng(8)
        spec = FiniteClassSpec(base=rng.uniform(-2, 2, size=(4, 6)))
        sample_x = rng.integers(0, 6, size=9)
        est = empirical_offset_complexity(sample_x, spec, 0.3, 0, seed=0, exact=True)
        assert est.value == pytest.approx(gather_empirical_offset(spec, sample_x, 0.3),
                                          rel=1e-12)

    def test_empirical_offset_exact_counts_the_fixed_sample_once(self):
        # The 3,240 rows of the law of the per-atom sign sums share the
        # sample's one plain count row. The traced peak is 1.1 MB; the bound
        # also held the 2^16-row sign table this mode once built (16.8 MB).
        rng = np.random.default_rng(1)
        spec = FiniteClassSpec(base=rng.uniform(-1, 1, size=(5, 7)))
        sample_x = rng.integers(0, 7, size=16)
        tracemalloc.start()
        try:
            est = empirical_offset_complexity(sample_x, spec, 0.5, 0, seed=0, exact=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 24e6
        assert est.value == pytest.approx(gather_empirical_offset(spec, sample_x, 0.5),
                                          rel=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_exact_mode_matches_the_gather_on_random_samples(self, seed):
        # Repeated atoms in every sample; seeds 0, 2, 4, 6 zero one class row.
        rng = np.random.default_rng(seed)
        s = int(rng.integers(1, 8))
        base = rng.uniform(-2, 2, size=(int(rng.integers(1, 5)), s))
        if seed % 2 == 0:
            base[rng.integers(base.shape[0])] = 0.0
        sample_x = rng.integers(0, s, size=int(rng.integers(s + 1, 17)))
        gamma = float(rng.uniform(0.0, 1.5))
        spec = FiniteClassSpec(base=base)
        est = empirical_offset_complexity(sample_x, spec, gamma, 0, seed=0, exact=True)
        assert est.value == pytest.approx(gather_empirical_offset(spec, sample_x, gamma),
                                          rel=1e-12)
        counts = np.bincount(sample_x)
        assert (est.std_error, est.replicates) == (0.0, np.prod(counts[counts > 0] + 1))

    def test_exact_value_ignores_the_sample_order(self):
        rng = np.random.default_rng(12)
        spec = FiniteClassSpec(base=rng.uniform(-1, 1, size=(4, 5)))
        sample_x = rng.integers(0, 5, size=14)
        est = empirical_offset_complexity(sample_x, spec, 0.4, 0, seed=0, exact=True)
        for _ in range(3):
            shuffled = rng.permutation(sample_x)
            assert empirical_offset_complexity(shuffled, spec, 0.4, 0, seed=0, exact=True) == est

    def test_zero_probability_atoms_through_the_estimators(self):
        dist = DiscreteDistribution(xs=np.arange(5.0)[:, None], ys=np.zeros(5),
                                    probs=[0.5, 0.0, 0.3, 0.0, 0.2], b=1.0)
        spec = FiniteClassSpec(base=np.random.default_rng(1).uniform(-1, 1, (3, 5)))
        n, reps, gamma = 9, 400, 0.6
        idx, signs = loop_draws(4, "offset-complexity", reps, n, dist, signs=True)
        linear, quad_emp = gather_moments(spec.base, idx, signs)
        pop_sq = (spec.base**2) @ dist.probs
        ref = star_hull_sup(linear, gamma * quad_emp + gamma * n * pop_sq)[2] / n
        got = offset_complexity_draws(dist, spec, gamma, n, reps, seed=4)
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-14)
        idx, signs = loop_draws(4, "local-complexity", reps, n, dist, signs=True)
        S, _ = local_sup_stats(dist, spec, n, reps, seed=4)
        np.testing.assert_allclose(S, gather_moments(spec.base, idx, signs)[0] / n,
                                   rtol=1e-12, atol=1e-14)

    def test_memory_scales_with_counts_not_the_gather(self):
        # Gathering h at every draw would hold R * n * k = 26.2M float64
        # values (210 MB) here; the count path keeps the (R, s) counts and
        # one chunk of draws.
        rng = np.random.default_rng(0)
        dist = uniform_dist(16)
        spec = FiniteClassSpec(base=rng.uniform(-1, 1, size=(64, 16)))
        tracemalloc.start()
        try:
            draws = offset_complexity_draws(dist, spec, 0.5, n=2048, replicates=200, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert draws.shape == (200,)
        assert peak < 40e6

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss in KiB on Linux")
    def test_peak_rss_stays_flat_in_the_replicate_count(self):
        # Holding the (R, n) ids and signs once made the peak grow by 332 MB
        # from R = 500 to R = 4000; counted chunk by chunk, it grows by a few MB.
        script = (
            "import resource, sys\n"
            "from offset_risk.complexity import local_complexity_fixed_point, "
            "offset_complexity_mc\n"
            "from offset_risk.harness.cli import _instance_class\n"
            "from offset_risk.harness.config import ExperimentConfig\n"
            "dist, _, _, spec = _instance_class(ExperimentConfig(command='complexity'))\n"
            "R = int(sys.argv[1])\n"
            "offset_complexity_mc(dist, spec, 0.5, 4096, R, 0)\n"
            "local_complexity_fixed_point(dist, spec, 0.5, 4096, R, 1e-6, 0)\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
        )
        src = str(Path(complexity.__file__).resolve().parents[1])
        peaks = []
        for replicates in (500, 4000):
            res = subprocess.run([sys.executable, "-c", script, str(replicates)],
                                 capture_output=True, text=True, check=True,
                                 env={**os.environ, "PYTHONPATH": src})
            peaks.append(int(res.stdout) / 1024)  # MiB
        assert peaks[1] - peaks[0] < 16


def multiplier_law(s, k, seed):
    """A uniform s-atom law with random multipliers, and a random k-function class."""
    rng = np.random.default_rng(seed)
    dist = DiscreteDistribution(xs=np.arange(s, dtype=float)[:, None], ys=rng.uniform(-1, 1, s),
                                probs=np.full(s, 1.0 / s), b=1.0)
    return dist, FiniteClassSpec(base=rng.uniform(-1, 1, (k, s)))


def keyed_entry_points(dist, spec, n, replicates, seed):
    """The three keyed Monte-Carlo entry points on one law, as per-replicate arrays."""
    setup = MultiplierSetup(joint=dist, class_spec=spec, gamma=0.5)
    return (offset_complexity_draws(dist, spec, 0.5, n, replicates, seed),
            local_sup_stats(dist, spec, n, replicates, seed)[0],
            *simulate_sup_draws(setup, n, replicates, seed))


# Prints one digest of the entry points' bytes on 40- and 64-atom laws.
ENTRY_POINT_DIGEST = """
import hashlib
from test_complexity import keyed_entry_points, multiplier_law
digest = hashlib.sha256()
for s, k in [(40, 4), (64, 6)]:
    for arr in keyed_entry_points(*multiplier_law(s, k, s), 30, 3000, 1):
        digest.update(arr.tobytes())
print(digest.hexdigest())
"""


# Prints a digest of one count product whose 32-row blocks would take
# 32 * 2000 * 19 = 1.2M multiply-adds each unsplit, which OpenBLAS threads.
LARGE_PRODUCT_DIGEST = """
import hashlib
import numpy as np
from offset_risk.model import _count_product
rng = np.random.default_rng(0)
rows = rng.integers(0, 5, (100, 2000))
print(hashlib.sha256(_count_product(rows, rng.uniform(-1, 1, (19, 2000))).tobytes()).hexdigest())
"""


def block_product(rows, table):
    """rows @ table.T as whole 32-row blocks, the rows padded with zeros: one product, no split."""
    r, s = rows.shape
    padded = np.zeros((-(-r // model._PRODUCT_ROWS) * model._PRODUCT_ROWS, s))
    padded[:r] = rows
    return (padded.reshape(-1, model._PRODUCT_ROWS, s) @ table.T).reshape(-1, table.shape[0])[:r]


class TestCountProduct:
    """Every keyed count product goes through model._count_product's fixed row blocks."""

    @pytest.mark.parametrize("seed", range(6))
    def test_every_prefix_and_offset_is_the_rows_of_the_full_call(self, seed):
        rng = np.random.default_rng(seed)
        r, s, k = int(rng.integers(1, 100)), int(rng.integers(1, 90)), int(rng.integers(1, 20))
        if seed == 0:
            r = 2 * model._PRODUCT_ROWS  # whole blocks, no tail
        rows = rng.integers(-6, 7, (r, s))  # int64, as atom counts are
        table = rng.uniform(-1, 1, (k, s))
        full = model._count_product(rows, table)
        np.testing.assert_allclose(full, rows @ table.T, rtol=1e-12, atol=1e-12 * s)
        for i in range(r):
            assert model._count_product(rows[: i + 1], table).tobytes() == full[: i + 1].tobytes()
            assert model._count_product(rows[i:], table).tobytes() == full[i:].tobytes()

    @pytest.mark.parametrize("s", [32, 40, 64])
    def test_keyed_values_do_not_depend_on_the_replicate_count(self, s):
        # On 32 or more atoms BLAS picks its kernel by product size; a plain
        # product parted the first 20 rows at R = 20 and 5,000 by up to 5e-16.
        dist, spec = multiplier_law(s, 4, s)
        for n in (8, 50):
            short = keyed_entry_points(dist, spec, n, 20, 3)
            long = keyed_entry_points(dist, spec, n, 5000, 3)
            for a, b in zip(short, long):
                assert a.tobytes() == b[:20].tobytes()

    @pytest.mark.parametrize("r", [1, 31, 32, 40, 64])
    def test_a_table_is_split_only_past_the_block_budget(self, r):
        # 32 * 2048 * 4 is exactly 2**18 multiply-adds: one product. A fifth
        # function makes two groups of functions, 4 and 1.
        rng = np.random.default_rng(r)
        rows = rng.integers(0, 4, (r, 2048))
        table = rng.uniform(-1, 1, (5, 2048))
        assert model._count_product(rows, table[:4]).tobytes() == \
            block_product(rows, table[:4]).tobytes()
        split = model._count_product(rows, table)
        assert split.tobytes() == np.hstack([block_product(rows, table[:4]),
                                             block_product(rows, table[4:])]).tobytes()
        np.testing.assert_allclose(split, rows @ table.T, rtol=1e-12, atol=1e-9)

    def test_a_large_table_does_not_depend_on_the_blas_thread_count(self):
        src = str(Path(complexity.__file__).resolve().parents[1])
        digests = []
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads}
            res = subprocess.run([sys.executable, "-c", LARGE_PRODUCT_DIGEST],
                                 capture_output=True, text=True, check=True, env=env)
            digests.append(res.stdout)
        assert digests[0] == digests[1]

    def test_keyed_values_do_not_depend_on_the_blas_thread_count(self):
        tests = str(Path(__file__).resolve().parent)
        src = str(Path(complexity.__file__).resolve().parents[1])
        digests = []
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, tests]),
                   "OPENBLAS_NUM_THREADS": threads}
            res = subprocess.run([sys.executable, "-c", ENTRY_POINT_DIGEST],
                                 capture_output=True, text=True, check=True, env=env)
            digests.append(res.stdout)
        assert digests[0] == digests[1]


class TestStarHullSup:
    def test_clamped_vertex(self):
        j, lam, value = star_hull_sup([2.0], [1.0])
        assert (j, lam, value) == (0, 1.0, 1.0)

    def test_interior_vertex(self):
        j, lam, value = star_hull_sup([1.0], [1.0])
        assert (j, lam, value) == (0, 0.5, 0.25)

    def test_nonpositive_slope(self):
        j, lam, value = star_hull_sup([-3.0], [0.7])
        assert (j, lam, value) == (0, 0.0, 0.0)

    def test_zero_quadratic_coefficient(self):
        _, lam, value = star_hull_sup([2.5], [0.0])
        assert (lam, value) == (1.0, 2.5)
        _, lam, value = star_hull_sup([-2.5], [0.0])
        assert (lam, value) == (0.0, 0.0)

    def test_tie_goes_to_lowest_index(self):
        j, _, value = star_hull_sup([1.0, 1.0], [1.0, 1.0])
        assert j == 0 and value == 0.25

    def test_negative_quadratic_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            star_hull_sup([1.0], [-0.1])
        quad = np.ones((2, 3, 4))
        quad[1, 2, 3] = -0.1
        with pytest.raises(ValueError, match="nonnegative"):
            star_hull_sup(np.ones((2, 3, 4)), quad)

    def test_subnormal_quadratic_clips_without_warning(self):
        # linear / (2 quad) overflows to inf; lam is clipped to 1 silently.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            j, lam, value = star_hull_sup([1.0], [1e-310])
        assert (j, lam, value) == (0, 1.0, 1.0)

    def test_matches_dense_lambda_grid(self):
        rng = np.random.default_rng(0)
        lams = np.linspace(0, 1, 100_001)
        for _ in range(25):
            a = rng.normal(scale=3)
            b = rng.uniform(0, 3)
            _, _, value = star_hull_sup([a], [b])
            grid_best = np.max(lams * a - lams**2 * b)
            assert value >= grid_best - 1e-12
            assert value <= grid_best + 1e-9

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="align"):
            star_hull_sup(np.zeros((2, 3)), np.zeros((3, 2)))
        # The row kernel behind it broadcasts quad; the public function does not.
        with pytest.raises(ValueError, match="align"):
            star_hull_sup(np.ones((3, 2)), np.ones((1, 2)))

    def test_any_leading_shape_is_its_rows(self):
        rng = np.random.default_rng(9)
        linear, quad = rng.normal(size=(2, 3, 4)), rng.uniform(0, 2, (2, 3, 4))
        quad[0, 1] = 0.0
        flat = star_hull_sup(linear.reshape(6, 4), quad.reshape(6, 4))
        for got, rows in zip(star_hull_sup(linear, quad), flat):
            assert got.shape == (2, 3)
            assert got.tobytes() == rows.reshape(2, 3).tobytes()
        # One row in, numpy scalars out.
        assert all(np.ndim(part) == 0 and not isinstance(part, np.ndarray)
                   for part in star_hull_sup(linear[0, 0], quad[0, 0]))

    @settings(max_examples=60, deadline=None)
    @given(coefficient_rows())
    # Column 0 is within relative 1e-12 of column 2's maximum, so it wins.
    @example(coeffs=(np.array([[0.999999999999998, -0.5, 1.0]]), np.array([[0.5, 0.0, 0.5]])))
    def test_rows_agree_with_single_row_calls_and_grid(self, coeffs):
        linear, quad = coeffs
        j, lam, value = star_hull_sup(linear, quad)
        assert j.shape == lam.shape == value.shape == (linear.shape[0],)
        lams = np.linspace(0.0, 1.0, 100_001)
        for r in range(linear.shape[0]):
            # Each row alone gives the same answer, bit for bit.
            j_r, lam_r, value_r = star_hull_sup(linear[r], quad[r])
            assert (int(j_r), float(lam_r), float(value_r)) == (j[r], lam[r], value[r])
            # The value is the supremum over lam in [0, 1], within grid error.
            grid_best = max(np.max(lams * a - lams**2 * b) for a, b in zip(linear[r], quad[r]))
            assert abs(value[r] - grid_best) <= 1e-9
            # The argmax is the lowest column within relative 1e-12 of the best.
            per_column = np.array([float(star_hull_sup(linear[r, h:h + 1], quad[r, h:h + 1])[2])
                                   for h in range(linear.shape[1])])
            best = per_column.max()
            assert j[r] == np.flatnonzero(per_column >= best - 1e-12 * abs(best))[0]
            assert value[r] == per_column[j[r]]


class TestOffsetComplexityMc:
    # An infinite gamma used to return NaN draws.
    @pytest.mark.parametrize("estimate", [offset_complexity_draws, offset_complexity_mc])
    @pytest.mark.parametrize("gamma", [float("nan"), float("inf"), -1.0])
    def test_gamma_must_be_nonnegative_and_finite(self, estimate, gamma):
        spec = FiniteClassSpec(base=np.ones((1, 3)))
        with pytest.raises(ValueError, match="gamma must be nonnegative and finite"):
            estimate(uniform_dist(3), spec, gamma, 4, 8, 0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_base_rejected(self, value):
        # A NaN in base used to give value=nan from offset_complexity_mc, and
        # the "eta = 0" error from a MultiplierSetup.
        base = np.ones((2, 3))
        base[1, 2] = value
        with pytest.raises(ValueError, match="base class values must be finite"):
            FiniteClassSpec(base=base)

    def test_zero_class_is_exactly_zero(self):
        dist = uniform_dist(3)
        spec = FiniteClassSpec(base=np.zeros((1, 3)))
        est = offset_complexity_mc(dist, spec, gamma=0.5, n=8, replicates=64, seed=0)
        assert est.value == 0.0 and est.std_error == 0.0

    def test_gamma_zero_single_atom_vs_exhaustive_signs(self):
        # One support atom, one function: the per-draw supremum collapses to
        # max(0, h0 * mean sigma); enumerate all 2^n sign patterns exactly.
        n, h0 = 10, -0.8
        dist = uniform_dist(1)
        spec = FiniteClassSpec(base=np.array([[h0]]))
        signs = all_sign_patterns(n)
        exact = np.mean(np.maximum(0.0, h0 * signs.mean(axis=1)))
        est = offset_complexity_mc(dist, spec, gamma=0.0, n=n, replicates=4000, seed=7)
        assert abs(est.value - exact) <= 4.0 * est.std_error

    def test_pointwise_monotone_in_gamma_under_shared_draws(self):
        rng = np.random.default_rng(3)
        dist, spec = random_star_class(rng)
        lo = offset_complexity_draws(dist, spec, 0.1, n=12, replicates=300, seed=5)
        hi = offset_complexity_draws(dist, spec, 0.5, n=12, replicates=300, seed=5)
        assert np.all(hi <= lo + 1e-12)
        assert hi.mean() <= lo.mean() + 1e-12

    def test_per_draw_nonnegative_on_star_hull(self):
        rng = np.random.default_rng(4)
        dist, spec = random_star_class(rng)
        draws = offset_complexity_draws(dist, spec, 0.7, n=9, replicates=200, seed=2)
        assert np.all(draws >= 0.0)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(9)
        dist, spec = random_star_class(rng)
        a = offset_complexity_mc(dist, spec, 0.3, n=6, replicates=50, seed=1)
        b = offset_complexity_mc(dist, spec, 0.3, n=6, replicates=50, seed=1)
        assert a == b

    def test_scaling_duality_per_draw(self):
        # Scaling the class by lam and gamma by 1/lam rescales every draw
        # of the supremum by exactly lam.
        rng = np.random.default_rng(12)
        dist, spec = random_star_class(rng)
        for lam in (0.25, 0.5, 0.9, 1.0):
            scaled = FiniteClassSpec(base=lam * spec.base)
            v = offset_complexity_draws(dist, spec, 0.8, n=10, replicates=100, seed=3)
            v_scaled = offset_complexity_draws(
                dist, scaled, 0.8 / lam, n=10, replicates=100, seed=3
            )
            np.testing.assert_allclose(v, v_scaled / lam, atol=1e-12)


class TestEmpiricalOffsetComplexity:
    def test_zero_class(self):
        spec = FiniteClassSpec(base=np.zeros((2, 4)))
        est = empirical_offset_complexity([0, 1, 2], spec, 0.4, 100, seed=0)
        assert est.value == 0.0

    def test_exact_mode_matches_monte_carlo(self):
        rng = np.random.default_rng(21)
        spec = FiniteClassSpec(base=rng.uniform(-1, 1, size=(3, 5)))
        sample_x = rng.integers(0, 5, size=10)
        exact = empirical_offset_complexity(sample_x, spec, 0.6, 0, seed=0, exact=True)
        assert exact.std_error == 0.0
        mc = empirical_offset_complexity(sample_x, spec, 0.6, 100_000, seed=13)
        assert abs(mc.value - exact.value) <= 4.0 * mc.std_error

    @pytest.mark.parametrize("ids", [[-1, 0], [3, 0]])
    def test_atom_ids_outside_support_rejected(self, ids):
        spec = FiniteClassSpec(base=np.random.default_rng(5).uniform(-1, 1, size=(2, 3)))
        with pytest.raises(ValueError, match="atom ids"):
            empirical_offset_complexity(ids, spec, 0.5, 10, seed=0)

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("ids", [[0.5, 1.0], [True, False], np.array([2.0, 0.0])])
    def test_non_integer_atom_ids_rejected(self, ids, exact):
        spec = FiniteClassSpec(base=np.random.default_rng(5).uniform(-1, 1, size=(2, 3)))
        with pytest.raises(ValueError, match="atom ids must be integers"):
            empirical_offset_complexity(ids, spec, 0.5, 10, seed=0, exact=exact)

    def test_one_hot_table_is_linear_in_the_support(self):
        # An (s, s) identity gathered to (n, s) peaked at 30.7 MiB here, and
        # grew as s^2; the (n, s) table itself is 160 kB.
        spec = FiniteClassSpec(base=np.random.default_rng(6).uniform(-1, 1, size=(3, 2000)))
        sample_x = np.arange(0, 2000, 200)
        tracemalloc.start()
        try:
            est = empirical_offset_complexity(sample_x, spec, 0.5, 10, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20
        sub = FiniteClassSpec(base=spec.base[:, sample_x])  # the same draws on the 10 atoms
        assert est.value == pytest.approx(
            empirical_offset_complexity(np.arange(10), sub, 0.5, 10, seed=0).value, rel=1e-12)

    def test_exact_mode_cap(self):
        # The cap is on the law's rows, prod(c_a + 1): 21 atoms hit once each
        # give 2^21 rows, while 21 draws of one atom give 22.
        spec = FiniteClassSpec(base=np.ones((1, 21)))
        with pytest.raises(ValueError, match="has 2097152 rows"):
            empirical_offset_complexity(np.arange(21), spec, 0.5, 0, 0, exact=True)
        est = empirical_offset_complexity(np.zeros(21, dtype=int), spec, 0.5, 0, 0, exact=True)
        assert est.replicates == 22

    def test_exact_mode_admits_long_samples_on_few_atoms(self):
        # n = 60 over 3 atoms is a law of 21 * 26 * 16 rows, where the sign
        # patterns number 2^60.
        rng = np.random.default_rng(60)
        spec = FiniteClassSpec(base=rng.uniform(-1, 1, size=(4, 3)))
        sample_x = rng.permutation(np.repeat([0, 1, 2], [20, 25, 15]))
        exact = empirical_offset_complexity(sample_x, spec, 0.5, 0, seed=0, exact=True)
        assert (exact.std_error, exact.replicates) == (0.0, 21 * 26 * 16)
        mc = empirical_offset_complexity(sample_x, spec, 0.5, 100_000, seed=3)
        assert abs(mc.value - exact.value) <= 4.0 * mc.std_error

    @pytest.mark.parametrize("gamma", [float("nan"), float("inf"), -1.0])
    def test_gamma_must_be_nonnegative_and_finite(self, gamma):
        spec = FiniteClassSpec(base=np.ones((1, 3)))
        with pytest.raises(ValueError, match="gamma must be nonnegative and finite"):
            empirical_offset_complexity([0, 1], spec, gamma, 10, seed=0)

    def test_population_term_dominated_per_draw(self):
        # Dropping the nonnegative population penalty can only increase each
        # draw, which under common random numbers gives the population-vs-
        # average-empirical inequality exactly, draw by draw.
        rng = np.random.default_rng(31)
        dist, spec = random_star_class(rng)
        with_pop = offset_complexity_draws(dist, spec, 0.5, n=8, replicates=400, seed=17)
        counts, signed = replicate_counts(17, "offset-complexity", 400, 8, dist, signs=True)
        without = complexity._per_draw_sups(spec, 0.5, 8, signed, counts, None)
        assert np.all(with_pop <= without + 1e-12)
        pop_est = offset_complexity_mc(dist, spec, 0.5, n=8, replicates=400, seed=17)
        assert pop_est.value == with_pop.mean()
        combined = np.hypot(pop_est.std_error, without.std(ddof=1) / np.sqrt(without.size))
        assert pop_est.value <= without.mean() + 3.0 * combined


class TestLocalFixedPoint:
    # r_tol = 0 used to bisect forever, NaN to skip the bisection, and an
    # infinite gamma to fail bracketing with a RuntimeError.
    @pytest.mark.parametrize("name, value", [
        ("r_tol", 0.0), ("r_tol", -1e-6), ("r_tol", float("nan")), ("r_tol", float("inf")),
        ("gamma", float("inf")), ("gamma", float("nan")), ("gamma", 0.0),
    ])
    def test_bad_gamma_and_r_tol_rejected(self, name, value):
        args = dict(dist=uniform_dist(4), class_spec=FiniteClassSpec(base=np.ones((1, 4))),
                    gamma=0.5, n=6, mc_replicates=16, r_tol=1e-6, seed=0)
        args[name] = value
        with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
            local_complexity_fixed_point(**args)

    @pytest.mark.parametrize("gamma", [float("nan"), float("inf"), 0.0, -1.0])
    def test_phi_from_stats_rejects_bad_gamma(self, gamma):
        # NaN used to give a NaN curve value and inf a silent 0.
        S, pop_sq = np.array([[0.5, -0.25], [0.1, 0.3]]), np.array([0.5, 0.2])
        with pytest.raises(ValueError, match="gamma must be positive and finite"):
            phi_from_stats(S, pop_sq, gamma, 0.1)

    @pytest.mark.parametrize("S", [np.ones((5, 1)), np.ones((5, 3)), np.ones(2),
                                   np.ones((2, 2, 1))],
                             ids=["too-few-columns", "too-many-columns", "1-d", "3-d"])
    def test_phi_from_stats_rejects_a_misshapen_table(self, S):
        # (5, 1) against two classes used to broadcast to a curve value of 0.632.
        with pytest.raises(ValueError, match="one column per class"):
            phi_from_stats(S, np.array([0.5, 0.25]), 1.0, 0.1)

    def test_stats_are_column_major_and_unchanged(self):
        rng = np.random.default_rng(12)
        for trial in range(5):
            dist, spec = random_star_class(rng)
            n, reps = int(rng.integers(2, 30)), 3000
            S, pop_sq = local_sup_stats(dist, spec, n, reps, seed=trial)
            _, signed = replicate_counts(trial, "local-complexity", reps, n, dist, signs=True)
            assert S.flags.f_contiguous
            assert S.tobytes(order="F") == (signed @ spec.base.T / n).tobytes(order="F")
            c_order = np.ascontiguousarray(S)
            for r in (0.0, 1e-4, 0.01, 0.3, 5.0):
                value, per_draw = phi_from_stats(S, pop_sq, 0.7, r)
                c_value, c_per_draw = phi_from_stats(c_order, pop_sq, 0.7, r)
                assert value == c_value and per_draw.tobytes() == c_per_draw.tobytes()

    def test_zero_class(self):
        dist = uniform_dist(4)
        spec = FiniteClassSpec(base=np.zeros((1, 4)))
        est = local_complexity_fixed_point(dist, spec, 1.0, n=6, mc_replicates=64,
                                           r_tol=1e-6, seed=0)
        assert est.value == 0.0

    @pytest.mark.parametrize("scale, gamma, r_tol", [(1e-100, 1.0, 1e-250), (1e12, 1e-20, 1e-6)],
                             ids=["needs-330-doublings", "r_tol-below-double-spacing"])
    def test_a_bounded_curve_is_bracketed_and_bisected_to_an_end(self, scale, gamma, r_tol):
        # From gamma * max E h^2 on, phi is constant. The first case used to
        # stop doubling after 200 steps and raise; the second, whose fixed
        # point (about 1.4e11) has doubles 3e-5 apart, used to bisect forever.
        dist = uniform_dist(4)
        spec = FiniteClassSpec(base=scale * np.array([[1.0, -1.0, 1.0, 1.0]]))
        est = local_complexity_fixed_point(dist, spec, gamma, n=8, mc_replicates=1000,
                                           r_tol=r_tol, seed=0)
        S, pop_sq = local_sup_stats(dist, spec, 8, 1000, 0)
        assert 0.0 < est.value and phi_from_stats(S, pop_sq, gamma, est.value)[0] <= est.value

    def test_single_function_matches_grid_scan(self):
        # For one base function the curve is min(1, sqrt(r / (g v))) * K with
        # K the mean positive part; scan a fine r grid built from the same
        # draws and compare crossings.
        dist = uniform_dist(5)
        rng = np.random.default_rng(2)
        spec = FiniteClassSpec(base=rng.uniform(-1, 1, size=(1, 5)))
        gamma, n, reps, seed, r_tol = 0.8, 10, 2000, 4, 1e-6
        est = local_complexity_fixed_point(dist, spec, gamma, n, reps, r_tol, seed)
        S, pop_sq = local_sup_stats(dist, spec, n, reps, seed)
        grid = np.linspace(r_tol, max(4 * est.value, 1e-3), 40_000)
        phis = np.array([phi_from_stats(S, pop_sq, gamma, r)[0] for r in grid])
        crossing = grid[np.argmax(phis <= grid)]
        assert abs(est.value - crossing) <= r_tol + grid[1] - grid[0]

    def test_phi_over_sqrt_r_nonincreasing_per_draw(self):
        rng = np.random.default_rng(6)
        dist, spec = random_star_class(rng)
        S, pop_sq = local_sup_stats(dist, spec, n=8, replicates=100, seed=3)
        rs = np.geomspace(1e-4, 10.0, 25)
        prev = None
        for r in rs:
            _, per_draw = phi_from_stats(S, pop_sq, 0.7, r)
            ratio = per_draw / np.sqrt(r)
            if prev is not None:
                assert np.all(ratio <= prev + 1e-12)
            prev = ratio

    def test_offset_below_local_on_random_instances(self):
        rng = np.random.default_rng(8)
        for trial in range(5):
            dist, spec = random_star_class(rng)
            off = offset_complexity_mc(dist, spec, 0.9, n=16, replicates=3000,
                                       seed=100 + trial)
            loc = local_complexity_fixed_point(dist, spec, 0.9, n=16, mc_replicates=3000,
                                               r_tol=1e-6, seed=200 + trial)
            combined = np.hypot(off.std_error, loc.std_error)
            assert off.value <= loc.value + 3.0 * combined


def dense_subset_oracle(features, subset, sigma, gamma):
    """Maximize <Phi_S w, sigma> - gamma w' (Phi_S' Phi_S) w by a dense solve."""
    cols = features[:, subset]
    gram = cols.T @ cols
    rhs = cols.T @ sigma
    w, *_ = np.linalg.lstsq(2.0 * gamma * gram, rhs, rcond=None)
    return float(w @ rhs - gamma * w @ gram @ w)


# Rank cut of hat_matrix: singular values at or below this times the largest
# count as zero.
_RANK_REL_TOL = 1e-10


def hat_matrix(columns):
    """Orthogonal projector onto the column space of the given matrix.

    Built from an SVD basis, with the rank-revealing cut _RANK_REL_TOL.
    """
    columns = np.atleast_2d(np.asarray(columns, dtype=np.float64))
    u, sv, _ = np.linalg.svd(columns, full_matrices=False)
    if sv.size == 0 or sv[0] == 0.0:
        return np.zeros((columns.shape[0], columns.shape[0]))
    basis = u[:, sv > _RANK_REL_TOL * sv[0]]
    return basis @ basis.T


def loop_sparse_offset_exact(spec, sigma):
    """Per-subset projector loop: the reference for the batched sparse kernel."""
    best = 0.0
    for subset in subset_family(spec.d, spec.k):
        H = hat_matrix(spec.features[:, subset])
        best = max(best, float(sigma @ H @ sigma))
    return best / (4.0 * spec.gamma)


class TestSparseOffset:
    def test_rank_one_formula(self):
        rng = np.random.default_rng(14)
        phi = rng.normal(size=(7, 1))
        sigma = rng.choice([-1.0, 1.0], size=7)
        spec = SparseClassSpec(features=phi, k=1, gamma=0.5)
        expected = (phi[:, 0] @ sigma) ** 2 / (phi[:, 0] @ phi[:, 0]) / (4 * 0.5)
        assert sparse_offset_values(spec, sigma[None, :])[0] == pytest.approx(expected, rel=1e-12)

    def test_orthonormal_full_sparsity(self):
        rng = np.random.default_rng(15)
        q, _ = np.linalg.qr(rng.normal(size=(8, 3)))
        sigma = rng.choice([-1.0, 1.0], size=8)
        spec = SparseClassSpec(features=q, k=3, gamma=1.25)
        expected = (q.T @ sigma) @ (q.T @ sigma) / (4 * 1.25)
        assert sparse_offset_values(spec, sigma[None, :])[0] == pytest.approx(expected, rel=1e-10)

    def test_zero_matrix(self):
        spec = SparseClassSpec(features=np.zeros((5, 3)), k=2, gamma=1.0)
        sigma = np.ones(5)
        assert sparse_offset_values(spec, sigma[None, :])[0] == 0.0
        report = sparse_offset_bound_check(spec, sigma_replicates=10, seed=0)
        assert report.estimate.value == 0.0 and report.ratio == 0.0

    def test_matches_dense_quadratic_oracle(self):
        rng = np.random.default_rng(16)
        for _ in range(10):
            n, d, k = 9, 5, 2
            phi = rng.normal(size=(n, d))
            sigma = rng.choice([-1.0, 1.0], size=n)
            gamma = float(rng.uniform(0.3, 2.0))
            spec = SparseClassSpec(features=phi, k=k, gamma=gamma)
            oracle = max(
                dense_subset_oracle(phi, s, sigma, gamma) for s in subset_family(d, k)
            )
            assert sparse_offset_values(spec, sigma[None, :])[0] == pytest.approx(oracle, abs=1e-8)

    def test_batched_values_match_single_sigma_path(self):
        rng = np.random.default_rng(17)
        phi = rng.normal(size=(8, 4))
        spec = SparseClassSpec(features=phi, k=2, gamma=0.7)
        sigmas = rng.choice([-1.0, 1.0], size=(6, 8))
        batched = sparse_offset_values(spec, sigmas)
        singles = np.array([sparse_offset_values(spec, s[None, :])[0] for s in sigmas])
        looped = np.array([loop_sparse_offset_exact(spec, s) for s in sigmas])
        np.testing.assert_allclose(singles, batched, rtol=1e-13)
        np.testing.assert_allclose(batched, looped, atol=1e-10)

    def test_batched_values_with_rank_zero_column(self):
        # A zero feature column creates rank-zero supports, which must
        # contribute 0 rather than corrupt the segmented reduction.
        rng = np.random.default_rng(23)
        phi = rng.normal(size=(8, 4))
        phi[:, 0] = 0.0
        spec = SparseClassSpec(features=phi, k=2, gamma=0.8)
        sigmas = rng.choice([-1.0, 1.0], size=(5, 8))
        batched = sparse_offset_values(spec, sigmas)
        singles = np.array([sparse_offset_values(spec, s[None, :])[0] for s in sigmas])
        looped = np.array([loop_sparse_offset_exact(spec, s) for s in sigmas])
        np.testing.assert_allclose(singles, batched, rtol=1e-13)
        np.testing.assert_allclose(batched, looped, atol=1e-10)

    def test_inverse_gamma_scaling_per_sigma(self):
        rng = np.random.default_rng(18)
        phi = rng.normal(size=(6, 4))
        sigma = rng.choice([-1.0, 1.0], size=6)
        v1 = sparse_offset_values(SparseClassSpec(features=phi, k=2, gamma=1.0), sigma[None, :])[0]
        v2 = sparse_offset_values(SparseClassSpec(features=phi, k=2, gamma=2.0), sigma[None, :])[0]
        assert v2 == pytest.approx(0.5 * v1, rel=1e-12)

    def test_exact_matches_projector_loop_with_collinear_columns(self):
        rng = np.random.default_rng(24)
        phi = rng.normal(size=(9, 5))
        phi[:, 3] = -1.5 * phi[:, 1]
        for k in (1, 2, 3):
            spec = SparseClassSpec(features=phi, k=k, gamma=0.6)
            for sigma in rng.choice([-1.0, 1.0], size=(4, 9)):
                assert sparse_offset_values(spec, sigma[None, :])[0] == pytest.approx(
                    loop_sparse_offset_exact(spec, sigma), rel=1e-12
                )

    def test_hat_matrix_invariants(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            cols = rng.normal(size=(10, 3))
            H = hat_matrix(cols)
            np.testing.assert_allclose(H, H.T, atol=1e-10)
            np.testing.assert_allclose(H @ H, H, atol=1e-8)
            eig = np.linalg.eigvalsh(H)
            assert np.all((np.abs(eig) < 1e-8) | (np.abs(eig - 1) < 1e-8))
            assert np.sum(H * H) <= 3 + 1e-10

    def test_hat_matrix_rank_deficient_columns(self):
        col = np.array([[1.0], [2.0], [0.0]])
        cols = np.hstack([col, 2 * col])  # rank one
        H = hat_matrix(cols)
        assert np.sum(H * H) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("gamma", [float("nan"), float("inf"), 0.0])
    def test_gamma_must_be_positive_and_finite(self, gamma):
        with pytest.raises(ValueError, match="gamma must be positive and finite"):
            SparseClassSpec(features=np.ones((4, 3)), k=1, gamma=gamma)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_features_rejected(self, value):
        # A non-finite feature used to give NaN values after a matmul warning.
        features = np.ones((4, 3))
        features[2, 1] = value
        with pytest.raises(ValueError, match="features must be finite"):
            SparseClassSpec(features=features, k=1, gamma=1.0)

    def test_enumeration_cap(self):
        # C(50, 1) + ... + C(50, 4) = 251,175 subsets stay under the 10^6 cap;
        # adding the C(50, 5) = 2,118,760 five-subsets goes over it.
        SparseClassSpec(features=np.zeros((4, 50)), k=4, gamma=1.0)
        with pytest.raises(ValueError, match="cap"):
            SparseClassSpec(features=np.zeros((4, 50)), k=5, gamma=1.0)

    def test_bound_check_ratio_definition(self):
        rng = np.random.default_rng(20)
        phi = rng.normal(size=(16, 6))
        spec = SparseClassSpec(features=phi, k=2, gamma=1.0)
        report = sparse_offset_bound_check(spec, sigma_replicates=50, seed=3)
        assert report.benchmark == pytest.approx(
            2 * np.log(np.e * 6 / 2) / 16, rel=1e-12
        )
        assert report.ratio == pytest.approx(report.estimate.value / report.benchmark)


def _collinear_features():
    phi = np.random.default_rng(30).normal(size=(10, 6))
    phi[:, 2] = 3.0 * phi[:, 0]
    phi[:, 5] = phi[:, 0] - phi[:, 4]
    return phi, 3


def _zero_column_features():
    phi = np.random.default_rng(31).normal(size=(7, 5))
    phi[:, 1] = 0.0
    return phi, 2


def _zero_features():
    return np.zeros((6, 4)), 3


def _block_crossing_features():
    # 4845 four-subsets at n = 64: more than one block at _BLOCK_SIGNS signs.
    return np.random.default_rng(32).normal(size=(64, 20)), 4


_BLOCK_SIGNS = 60


def _sparse_spec():
    return SparseClassSpec(features=np.random.default_rng(2).normal(size=(6, 3)), k=2,
                           gamma=1.0)


_STATS = (np.array([[0.5, -0.25], [0.1, 0.3]]), np.array([0.5, 0.2]))


@pytest.mark.parametrize("call, message", [
    # numpy's "zero-size array to reduction operation minimum"
    (lambda: empirical_offset_complexity([], FiniteClassSpec(base=np.ones((1, 3))), 0.5, 10,
                                         seed=0), "needs at least one atom id"),
    (lambda: empirical_offset_complexity(np.array([], dtype=int),
                                         FiniteClassSpec(base=np.ones((1, 3))), 0.5, 0,
                                         seed=0, exact=True), "needs at least one atom id"),
    # a matmul gufunc error
    (lambda: sparse_offset_values(_sparse_spec(), np.ones((2, 5))), "one entry per feature row"),
    (lambda: sparse_offset_values(_sparse_spec(), np.ones(7)), "one entry per feature row"),
    (lambda: sparse_offset_values(_sparse_spec(), np.ones(5)), "one entry per feature row"),
    # a silent NaN curve
    (lambda: phi_from_stats(*_STATS, 0.5, float("nan")), "r must be a number"),
    (lambda: phi_from_stats(*_STATS, 0.5, np.float64("nan")), "r must be a number"),
], ids=["empty-sample", "empty-sample-exact", "sigma-rows-narrow", "sigma-wide",
        "sigma-narrow", "nan-radius", "nan-radius-numpy"])
def test_readable_input_errors(call, message):
    with pytest.raises(ValueError, match=message):
        call()


class TestSubsetGramFactors:
    @pytest.mark.parametrize(
        "make",
        [_collinear_features, _zero_column_features, _zero_features, _block_crossing_features],
        ids=["collinear", "zero-column", "all-zero", "block-crossing"],
    )
    def test_matches_projector_loop(self, make):
        phi, k = make()
        spec = SparseClassSpec(features=phi, k=k, gamma=0.75)
        sigmas = np.random.default_rng(38).choice([-1.0, 1.0], size=(_BLOCK_SIGNS, phi.shape[0]))
        got = sparse_offset_values(spec, sigmas)
        looped = np.array([loop_sparse_offset_exact(spec, s) for s in sigmas[:6]])
        np.testing.assert_allclose(got[:6], looped, rtol=1e-12, atol=0.0)
        singles = np.array([sparse_offset_values(spec, s[None, :])[0] for s in sigmas])
        np.testing.assert_allclose(got, singles, rtol=1e-13, atol=0.0)

    def test_block_case_crosses_a_block_boundary(self):
        phi, k = _block_crossing_features()
        assert comb(phi.shape[1], k) * _BLOCK_SIGNS > complexity._FIT_CHUNK_ELEMENTS

    @pytest.mark.parametrize("signs", [4, 20])
    def test_tiny_blocks_match_one_block(self, monkeypatch, signs):
        # The 126 four-subsets of 9 columns are the most supports kept as
        # parents. At 8 values per block that makes blocks of one sign, and
        # d = 9 blocks of one support; at 256, blocks of 2 signs and 28
        # supports, so the 36 two-subsets span two blocks.
        rng = np.random.default_rng(41)
        spec = SparseClassSpec(features=rng.normal(size=(12, 9)), k=5, gamma=1.0)
        sigmas = rng.choice([-1.0, 1.0], size=(signs, 12))
        whole = sparse_offset_values(spec, sigmas)
        for budget in (8, 256):
            monkeypatch.setattr(complexity, "_FIT_CHUNK_ELEMENTS", budget)
            np.testing.assert_allclose(sparse_offset_values(spec, sigmas), whole, rtol=1e-13,
                                       atol=0.0)

    @pytest.mark.parametrize("seed", range(39, 44))
    def test_near_dependent_column_is_kept_and_exact_dependence_dropped(self, seed):
        # Column 1 leaves a residual of 1e-3 of its norm off column 0, and
        # columns 2 = 2 col0 - col1 and 3 = col0 + 300 (col1 - col0) are
        # exactly dependent. The Gram squares column 1's conditioning, so its
        # coordinate carries a relative rounding error of a few 1e-16 / 1e-6
        # (2.7e-10 measured), and a dependent column's residual keeps rounding
        # of either sign; it must add nothing rather than amplify that rounding.
        rng = np.random.default_rng(seed)
        a = rng.normal(size=12)
        e = rng.normal(size=12)
        e -= (e @ a) / (a @ a) * a
        e *= np.linalg.norm(a) / np.linalg.norm(e)
        b = a + 1e-3 * e
        phi = np.stack([a, b, 2.0 * a - b, a + 300.0 * (b - a), rng.normal(size=12)], axis=1)
        sigmas = rng.choice([-1.0, 1.0], size=(8, 12))
        for k in (2, 3):
            spec = SparseClassSpec(features=phi, k=k, gamma=1.0)
            looped = np.array([loop_sparse_offset_exact(spec, s) for s in sigmas])
            np.testing.assert_allclose(sparse_offset_values(spec, sigmas), looped, rtol=1e-8)
        pair = SparseClassSpec(features=phi[:, :2], k=2, gamma=1.0)
        trio = SparseClassSpec(features=phi[:, :3], k=3, gamma=1.0)
        # Columns 0 and 1 span column 2 as well, so it adds no value.
        np.testing.assert_allclose(sparse_offset_values(trio, sigmas),
                                   sparse_offset_values(pair, sigmas), rtol=1e-8)
        # Column 1's own direction counts: (sigma . e_unit)^2 / 4 on top of column 0's.
        single = SparseClassSpec(features=phi[:, :1], k=1, gamma=1.0)
        gain = (sigmas @ (e / np.linalg.norm(e))) ** 2 / 4.0
        np.testing.assert_allclose(sparse_offset_values(pair, sigmas)
                                   - sparse_offset_values(single, sigmas), gain, rtol=1e-8)
        # A residual of 3e-5 of the norm (9e-10 squared) is within the cut:
        # pairing that column with column 0 adds nothing over the singles.
        within = np.stack([a, a + 3e-5 * e], axis=1)
        np.testing.assert_allclose(
            sparse_offset_values(SparseClassSpec(features=within, k=2, gamma=1.0), sigmas),
            sparse_offset_values(SparseClassSpec(features=within, k=1, gamma=1.0), sigmas),
            rtol=1e-13)

    @pytest.mark.parametrize("signs", [50, 1000])
    def test_traced_peak_is_bounded(self, signs):
        # The kernel holds blocks of supports, their dense (supports, d)
        # factors and one size's kept values, each of at most
        # _FIT_CHUNK_ELEMENTS floats, and a per-call factor of O(supports x k)
        # values (about 10 MiB here); stacked subset bases held 159,744 rows
        # of 64 floats (a 153-159 MiB peak).
        rng = np.random.default_rng(40)
        spec = SparseClassSpec(features=rng.normal(size=(64, 32)), k=4, gamma=1.0)
        sigmas = rng.choice([-1.0, 1.0], size=(signs, 64))
        tracemalloc.start()
        try:
            values = sparse_offset_values(spec, sigmas)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert values.shape == (signs,) and np.all(values > 0)
        assert peak < 32 * 2**20

    @pytest.mark.parametrize("d", [300, 600])
    def test_one_sign_row_peak_is_bounded_in_d(self, d):
        # One block held every pair's values and dense (pairs, d) factor
        # once the signs were few: 105 MiB traced at d = 300 and 834 MiB at
        # d = 600. The factor now shares the block budget (6 and 17 MiB).
        rng = np.random.default_rng(42)
        spec = SparseClassSpec(features=rng.normal(size=(64, d)), k=2, gamma=1.0)
        sigma = rng.choice([-1.0, 1.0], size=(1, 64))
        tracemalloc.start()
        try:
            value = sparse_offset_values(spec, sigma)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert value.shape == (1,) and value[0] > 0
        assert peak < 32 * 2**20

    def test_each_support_row_is_built_once(self, monkeypatch):
        # Blocks once rebuilt their prefixes' rows: 47,498 rows here.
        rows = []

        class CountingNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            def put_along_axis(self, arr, indices, values, axis):
                rows.append(arr.shape[0])
                return np.put_along_axis(arr, indices, values, axis)

        monkeypatch.setattr(complexity, "np", CountingNumpy())
        rng = np.random.default_rng(40)
        spec = SparseClassSpec(features=rng.normal(size=(64, 32)), k=4, gamma=1.0)
        sparse_offset_values(spec, rng.choice([-1.0, 1.0], size=(50, 64)))
        assert sum(rows) == sum(comb(32, size) for size in range(1, 5)) == 41_448

    @pytest.fixture
    def enumerations(self, monkeypatch):
        """(d, size) of every ``itertools.combinations(range(d), size)`` the module makes."""
        calls = []

        class CountingItertools:
            def __getattr__(self, name):
                return getattr(itertools, name)

            def combinations(self, pool, size):
                calls.append((len(pool), size))
                return itertools.combinations(pool, size)

        monkeypatch.setattr(complexity, "itertools", CountingItertools())
        return calls

    def test_each_call_enumerates_the_family_once(self, enumerations):
        # One pass over the subsets of each size 1..k per call, and nothing kept.
        phi = np.random.default_rng(37).normal(size=(6, 4))
        sigmas = np.ones((2, 6))
        for k in (1, 2, 2, 3):
            sparse_offset_values(SparseClassSpec(features=phi, k=k, gamma=1.0), sigmas)
        assert enumerations == [(4, 1), (4, 1), (4, 2), (4, 1), (4, 2), (4, 1), (4, 2), (4, 3)]

    @pytest.mark.parametrize("d, k", [(1, 1), (5, 3), (7, 7), (12, 2)])
    def test_members_are_the_family_in_order(self, d, k):
        levels = complexity._subset_factors(np.random.default_rng(d).normal(size=(9, d)), k)
        members = [tuple(row) for level in levels for row in level[0].tolist()]
        assert members == subset_family(d, k)

    def test_values_follow_in_place_edit_of_features(self):
        rng = np.random.default_rng(33)
        phi = rng.normal(size=(8, 5))
        sigmas = rng.choice([-1.0, 1.0], size=(6, 8))
        spec = SparseClassSpec(features=phi, k=2, gamma=1.0)
        assert spec.features is phi
        first = sparse_offset_values(spec, sigmas)
        assert np.array_equal(sparse_offset_values(spec, sigmas), first)
        phi[:, 2] = phi[:, 0]
        edited = sparse_offset_values(spec, sigmas)
        looped = np.array([loop_sparse_offset_exact(spec, s) for s in sigmas])
        np.testing.assert_allclose(edited, looped, atol=1e-10)
        assert not np.allclose(edited, first)

    def test_values_follow_change_of_k(self):
        rng = np.random.default_rng(34)
        phi = rng.normal(size=(8, 5))
        sigmas = rng.choice([-1.0, 1.0], size=(6, 8))
        for k in (2, 3, 2):
            spec = SparseClassSpec(features=phi, k=k, gamma=0.9)
            looped = np.array([loop_sparse_offset_exact(spec, s) for s in sigmas])
            np.testing.assert_allclose(sparse_offset_values(spec, sigmas), looped, atol=1e-10)

    def test_inverse_gamma_scaling_is_exact(self):
        rng = np.random.default_rng(35)
        phi = rng.normal(size=(12, 6))
        sigmas = rng.choice([-1.0, 1.0], size=(10, 12))
        gammas = (0.5, 1.0, 2.0, 4.0)
        values = [sparse_offset_values(SparseClassSpec(features=phi.copy(), k=3, gamma=g), sigmas)
                  for g in gammas]
        for g, v in zip(gammas, values):
            np.testing.assert_array_equal(g * v, values[1])

    def test_module_keeps_no_mutable_state(self):
        mutable = {name for name, value in vars(complexity).items()
                   if isinstance(value, (dict, list, set, np.ndarray))
                   and name not in ("__all__", "__builtins__")}
        assert mutable == set()
