"""Shifted multiplier process: exact suprema, self-localization, MGF/tails."""

import dataclasses
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from offset_risk import concentration, model
from offset_risk.complexity import FiniteClassSpec
from offset_risk.concentration import (
    MultiplierSetup,
    _bootstrap_log_mgf,
    _sup_kernel,
    mgf_verify,
    multiplier_sup,
    self_localization_check,
    simulate_sup_draws,
    tail_verify,
)
from offset_risk.instances import random_multiplier_setup
from offset_risk.model import DiscreteDistribution, replicate_counts, rng_stream
from stream_reference import loop_draws


def make_setup(zeta, probs, base, gamma):
    zeta = np.asarray(zeta, dtype=float)
    joint = DiscreteDistribution(
        xs=np.arange(zeta.size, dtype=float)[:, None],
        ys=zeta,
        probs=probs,
        b=float(max(1.0, np.max(np.abs(zeta)))),
    )
    return MultiplierSetup(joint=joint, class_spec=FiniteClassSpec(base=base), gamma=gamma)


class TestMultiplierSup:
    def test_zero_class(self):
        setup = make_setup([1.0, -1.0], [0.5, 0.5], np.zeros((1, 2)), gamma=0.7)
        res = multiplier_sup(setup, [0, 1, 1])
        assert res.value == 0.0

    def test_zero_multipliers(self):
        rng = np.random.default_rng(0)
        setup = make_setup([0.0, 0.0], [0.5, 0.5], rng.uniform(-1, 1, (3, 2)), gamma=0.5)
        res = multiplier_sup(setup, [0, 1, 0])
        assert res.value == 0.0 and res.argmax_lam == 0.0

    def test_matches_dense_lambda_grid(self):
        rng = np.random.default_rng(1)
        lams = np.linspace(0, 1, 100_001)
        for _ in range(10):
            s = int(rng.integers(2, 5))
            base = rng.uniform(-1, 1, size=(int(rng.integers(1, 3)), s))
            setup = make_setup(
                rng.uniform(-1, 1, s), np.full(s, 1 / s), base, float(rng.uniform(0.2, 1.5))
            )
            idx = rng.integers(0, s, size=int(rng.integers(1, 4)))
            res = multiplier_sup(setup, idx)
            n = idx.size
            mean_cross = (base * setup.zeta) @ setup.joint.probs
            mean_sq = (base**2) @ setup.joint.probs
            grid_best = -np.inf
            for j in range(base.shape[0]):
                a = base[j, idx] @ setup.zeta[idx] - n * mean_cross[j]
                bq = setup.gamma * (n * mean_sq[j] + np.sum(base[j, idx] ** 2))
                grid_best = max(grid_best, np.max(lams * a - lams**2 * bq))
            assert res.value == pytest.approx(grid_best, abs=1e-6)
            assert res.value >= grid_best - 1e-12

    @pytest.mark.parametrize("bad", [[0, 2], [-1, 1]])
    def test_atom_ids_outside_the_support_rejected(self, bad):
        # Never a silent wrap to the last atom or a spill into another row,
        # and the error names the support size.
        setup = make_setup([1.0, -1.0], [0.5, 0.5], np.ones((1, 2)), gamma=0.5)
        for check in (multiplier_sup, self_localization_check):
            with pytest.raises(ValueError, match=r"atom ids outside the support \[0, 2\)"):
                check(setup, bad)

    @pytest.mark.parametrize("check", [multiplier_sup, self_localization_check])
    @pytest.mark.parametrize("bad", [[0.5, 1.0], [True, False], np.array([0.0, 1.0])])
    def test_non_integer_atom_ids_rejected(self, check, bad):
        # Never truncated: id 0.5 is not atom 0.
        setup = make_setup([1.0, -1.0], [0.5, 0.5], np.ones((1, 2)), gamma=0.5)
        with pytest.raises(ValueError, match="atom ids must be integers"):
            check(setup, bad)

    @pytest.mark.parametrize("gamma", [float("nan"), float("inf"), 0.0])
    def test_gamma_must_be_positive_and_finite(self, gamma):
        with pytest.raises(ValueError, match="gamma must be positive and finite"):
            make_setup([1.0, -1.0], [0.5, 0.5], np.ones((1, 2)), gamma=gamma)

    def test_eta_computed_from_data(self):
        base = np.array([[0.5, -0.25]])
        setup = make_setup([1.5, -0.5], [0.5, 0.5], base, gamma=0.4)
        assert setup.kappa == 0.5
        assert setup.multiplier_bound == 1.5
        assert setup.eta == pytest.approx(8 * (1.5**2 / 0.4 + 0.4 * 0.25), rel=1e-12)

    def test_degenerate_setup_rejected(self):
        # Zero multipliers and a zero class on the live atoms give eta = 0,
        # and mgf_verify's lambda grid used to divide by it. A nonzero value
        # on a zero-probability atom does not count.
        with pytest.raises(ValueError, match="eta = 0"):
            make_setup([0.0, 0.0, 2.0], [0.5, 0.5, 0.0], np.array([[0.0, 0.0, 1.0]]), gamma=0.5)
        assert make_setup([0.0, 1e-3], [0.5, 0.5], np.zeros((1, 2)), gamma=0.5).eta > 0

    @pytest.mark.parametrize("field", ["kappa", "multiplier_bound", "eta"])
    def test_scale_constants_are_not_constructor_arguments(self, field):
        setup = make_setup([1.0, -1.0], [0.5, 0.5], np.array([[0.5, -0.25]]), gamma=0.4)
        with pytest.raises(TypeError, match="unexpected keyword"):
            MultiplierSetup(joint=setup.joint, class_spec=setup.class_spec, gamma=0.4,
                            **{field: 1.0})

    def test_eta_grows_when_gamma_shrinks_in_multiplier_dominant_regime(self):
        base = np.array([[0.1, -0.1]])
        s1 = make_setup([2.0, -2.0], [0.5, 0.5], base, gamma=0.5)
        s2 = make_setup([2.0, -2.0], [0.5, 0.5], base, gamma=0.25)
        assert s2.eta > s1.eta
        assert s2.eta == pytest.approx(2 * s1.eta, rel=0.01)

    def test_zero_probability_atoms_ignored_for_bounds(self):
        base = np.array([[0.5, 9.0]])
        zeta = np.array([1.0, 9.0])
        joint = DiscreteDistribution(
            xs=[[0.0], [1.0]], ys=zeta, probs=[1.0, 0.0], b=9.0
        )
        setup = MultiplierSetup(joint=joint, class_spec=FiniteClassSpec(base=base), gamma=1.0)
        assert setup.kappa == 0.5 and setup.multiplier_bound == 1.0


class TestSelfLocalization:
    def test_zero_class_margin_zero(self):
        setup = make_setup([1.0, -1.0], [0.5, 0.5], np.zeros((1, 2)), gamma=1.0)
        holds, margin = self_localization_check(setup, [0, 1])
        assert holds and margin == 0.0

    def test_holds_on_random_setups(self):
        rng = np.random.default_rng(2)
        for trial in range(300):
            setup = random_multiplier_setup(rng)
            n = int(rng.integers(1, 12))
            idx = rng.integers(0, setup.joint.size, size=n)
            holds, margin = self_localization_check(setup, idx)
            assert holds and margin >= -1e-10

    def test_interior_maximizer_binds_exactly(self):
        # When the overall maximizer's scaling is interior, the quadratic
        # mass at the maximizer equals the supremum itself, so the margin
        # vanishes: lam* = A/(2B) gives lam*^2 B = A^2/(4B) = U.
        rng = np.random.default_rng(3)
        seen_interior = 0
        for trial in range(200):
            setup = random_multiplier_setup(rng)
            idx = rng.integers(0, setup.joint.size, size=int(rng.integers(2, 10)))
            res = multiplier_sup(setup, idx)
            if 0.0 < res.argmax_lam < 1.0:
                seen_interior += 1
                assert res.quad_at_max == pytest.approx(res.value, rel=1e-10, abs=1e-12)
        assert seen_interior > 20

    def test_shrinking_the_base_never_increases_the_supremum(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            setup = random_multiplier_setup(rng)
            idx = rng.integers(0, setup.joint.size, size=6)
            shrink = float(rng.uniform(0.1, 1.0))
            shrunk = MultiplierSetup(
                joint=setup.joint,
                class_spec=FiniteClassSpec(base=shrink * setup.class_spec.base),
                gamma=setup.gamma,
            )
            assert multiplier_sup(shrunk, idx).value <= multiplier_sup(setup, idx).value + 1e-12


class TestSimulation:
    def test_replicates_deterministic_and_batch_invariant(self):
        rng = np.random.default_rng(5)
        setup = random_multiplier_setup(rng)
        a, qa = simulate_sup_draws(setup, n=7, replicates=50, seed=9)
        b, qb = simulate_sup_draws(setup, n=7, replicates=50, seed=9)
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(qa, qb)
        # The first 20 replicates of a longer run coincide with a shorter run.
        c, _ = simulate_sup_draws(setup, n=7, replicates=20, seed=9)
        np.testing.assert_array_equal(a[:20], c)

    def test_one_sample_sup_is_a_row_of_the_replicated_kernel(self):
        rng = np.random.default_rng(8)
        for seed in range(20):
            setup = random_multiplier_setup(rng)
            n, reps = int(rng.integers(1, 12)), 30
            sups, quad_at_max = simulate_sup_draws(setup, n=n, replicates=reps, seed=seed)
            idx, _ = loop_draws(seed, "multiplier-sample", reps, n, setup.joint, signs=False)
            for r in range(reps):
                res = multiplier_sup(setup, idx[r])
                # One row goes through a different BLAS path than many rows.
                assert res.value == pytest.approx(sups[r], rel=1e-13, abs=1e-14)
                assert res.quad_at_max == pytest.approx(quad_at_max[r], rel=1e-13, abs=1e-14)

    def test_sup_draws_nonnegative(self):
        rng = np.random.default_rng(6)
        setup = random_multiplier_setup(rng)
        sups, _ = simulate_sup_draws(setup, n=5, replicates=200, seed=1)
        assert np.all(sups >= 0.0)


def one_shot_sup_draws(setup, n, replicates, seed):
    """The kernel applied once to all (R, s) replicate counts."""
    counts, _ = replicate_counts(seed, "multiplier-sample", replicates, n, setup.joint)
    best, lam, sups, _, quad = _sup_kernel(setup, counts, n)
    return sups, lam**2 * quad[np.arange(replicates), best]


class TestChunkedSimulation:
    # 8,193 replicates of n = 4 are one full 8,192-row chunk plus one row
    # unless the chunks are even; a one-row product goes through BLAS's
    # matrix-vector kernel, whose last bits differ from the matrix kernel's
    # on 6 of these 40 setups (OpenBLAS 0.3.31 on x86-64).
    @pytest.mark.parametrize("n, replicates, setups", [
        (4, 8193, 40), (6, 20_000, 4), (5, 97, 4), (1, 3, 4), (11, 1, 4),
    ])
    @pytest.mark.parametrize("chunk_words", [model._CHUNK_WORDS, 64])
    def test_equals_the_one_shot_kernel_bit_for_bit(self, n, replicates, setups, chunk_words,
                                                    monkeypatch):
        monkeypatch.setattr(model, "_CHUNK_WORDS", chunk_words)  # counts do not change
        rng = np.random.default_rng(n * replicates)
        for trial in range(setups):
            setup = random_multiplier_setup(rng)
            want = one_shot_sup_draws(setup, n, replicates, seed=trial)
            got = simulate_sup_draws(setup, n, replicates, seed=trial)
            for a, b in zip(got, want):
                assert a.tobytes() == b.tobytes()

    def test_results_are_read_only(self):
        setup = random_multiplier_setup(np.random.default_rng(3))
        sups, quad_at_max = simulate_sup_draws(setup, n=5, replicates=300, seed=2)
        for arr in (sups, quad_at_max):
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1.0

    def test_mgf_then_tail_draws_once(self, monkeypatch):
        calls = []
        real_chunks = concentration._count_chunks

        def spy(*args, **kwargs):
            calls.append(args)
            return real_chunks(*args, **kwargs)

        monkeypatch.setattr(concentration, "_count_chunks", spy)
        setup = random_multiplier_setup(np.random.default_rng(4))
        deltas = np.array([0.1, 0.01])
        mgf_verify(setup, n=5, replicates=2000, seed=7, bootstrap_resamples=20)
        tail = tail_verify(setup, n=5, replicates=2000, delta_grid=deltas, seed=7)
        assert len(calls) == 1
        fresh = tail_verify(dataclasses.replace(setup), n=5, replicates=2000,
                            delta_grid=deltas, seed=7)
        np.testing.assert_array_equal(tail.exceed_freq, fresh.exceed_freq)
        assert len(calls) == 2  # a new setup object keeps nothing
        # Any other (n, R, seed) draws again and replaces the kept result.
        for n, replicates, seed in [(5, 2000, 8), (6, 2000, 8), (6, 2500, 8), (5, 2000, 7)]:
            tail_verify(setup, n=n, replicates=replicates, delta_grid=deltas, seed=seed)
        assert len(calls) == 6
        simulate_sup_draws(setup, 5, 2000, 7)
        assert len(calls) == 6

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss in KiB on Linux")
    def test_peak_rss_grows_by_the_outputs_only(self):
        # Holding the (R, s) counts and the (R, 2k) and (R, k) kernel blocks
        # made the peak grow by 110 MB from R = 20k to 400k at s = 8, k = 4;
        # the two float64 outputs take 6.4 MB at 400k.
        script = (
            "import resource, sys\n"
            "import numpy as np\n"
            "from offset_risk.complexity import FiniteClassSpec\n"
            "from offset_risk.concentration import MultiplierSetup, simulate_sup_draws\n"
            "from offset_risk.model import DiscreteDistribution\n"
            "rng = np.random.default_rng(0)\n"
            "joint = DiscreteDistribution(xs=np.arange(8.0)[:, None], "
            "ys=rng.uniform(-1, 1, 8), probs=np.full(8, 1 / 8), b=1.0)\n"
            "setup = MultiplierSetup(joint=joint, "
            "class_spec=FiniteClassSpec(base=rng.uniform(-1, 1, (4, 8))), gamma=0.5)\n"
            "simulate_sup_draws(setup, 6, int(sys.argv[1]), 0)\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
        )
        src = str(Path(concentration.__file__).resolve().parents[1])
        peaks = []
        for replicates in (20_000, 400_000):
            res = subprocess.run([sys.executable, "-c", script, str(replicates)],
                                 capture_output=True, text=True, check=True,
                                 env={**os.environ, "PYTHONPATH": src})
            peaks.append(int(res.stdout) * 1024 / 1e6)  # MB
        outputs = 2 * 400_000 * 8 / 1e6
        assert peaks[1] - peaks[0] <= outputs + 16


class TestMgfVerify:
    def test_zero_class_no_violations(self):
        setup = make_setup([1.0, -1.0], [0.5, 0.5], np.zeros((1, 2)), gamma=0.5)
        report = mgf_verify(setup, n=4, replicates=1000, seed=0, bootstrap_resamples=50)
        np.testing.assert_allclose(report.log_mgf, 0.0, atol=1e-12)
        assert np.all(report.bound >= 0.0)
        assert report.violations == ()
        assert report.self_localization_failures == 0

    @pytest.mark.parametrize("resamples", [0, -5])
    def test_bootstrap_resamples_below_one_rejected(self, resamples):
        setup = make_setup([1.0, -1.0], [0.5, 0.5], np.ones((1, 2)), gamma=0.5)
        with pytest.raises(ValueError, match="bootstrap_resamples must be at least 1"):
            mgf_verify(setup, n=4, replicates=1000, seed=0, bootstrap_resamples=resamples)

    def test_two_point_law_matches_exact_mgf(self):
        # Singleton class, n = 1, two atoms: U takes one of two enumerable
        # values, so the exact centered log-MGF is available in closed form.
        base = np.array([[0.8, -0.6]])
        probs = np.array([0.3, 0.7])
        setup = make_setup([1.2, -0.4], probs, base, gamma=0.9)
        values = []
        mean_cross = float((base[0] * setup.zeta) @ probs)
        mean_sq = float((base[0] ** 2) @ probs)
        for atom in (0, 1):
            a = base[0, atom] * setup.zeta[atom] - mean_cross
            bq = setup.gamma * (mean_sq + base[0, atom] ** 2)
            lam = np.clip(a / (2 * bq), 0.0, 1.0)
            values.append(lam * a - lam**2 * bq)
        values = np.array(values)
        exact_mean = float(values @ probs)
        report = mgf_verify(setup, n=1, replicates=40_000, seed=3,
                            bootstrap_resamples=300)
        assert report.mean_sup == pytest.approx(exact_mean, abs=4 * report.mean_sup_se)
        exact_log_mgf = np.array(
            [
                np.log(probs @ np.exp(lam * (values - exact_mean)))
                for lam in report.lambda_grid
            ]
        )
        assert np.all(exact_log_mgf <= report.bound + 1e-12)
        inside = (report.log_mgf_ci_lower - 0.05 <= exact_log_mgf) & (
            exact_log_mgf <= report.log_mgf_ci_upper + 0.05
        )
        assert np.all(inside)
        assert report.violations == ()

    def test_no_violations_on_random_setups(self):
        rng = np.random.default_rng(7)
        for trial in range(3):
            setup = random_multiplier_setup(rng)
            report = mgf_verify(setup, n=6, replicates=4000, seed=50 + trial,
                                bootstrap_resamples=200)
            assert report.violations == ()
            assert report.self_localization_failures == 0

    def test_empirical_log_mgf_convex_in_lambda(self):
        rng = np.random.default_rng(8)
        setup = random_multiplier_setup(rng)
        report = mgf_verify(setup, n=5, replicates=2000, seed=11,
                            bootstrap_resamples=50)
        second_diff = np.diff(report.log_mgf, n=2)
        assert np.all(second_diff >= -1e-10)

    def test_replicate_floor(self):
        rng = np.random.default_rng(9)
        setup = random_multiplier_setup(rng)
        with pytest.raises(ValueError, match="replicates"):
            mgf_verify(setup, n=4, replicates=10, seed=0)

    def test_fixed_lambda_grid(self):
        rng = np.random.default_rng(9)
        setup = random_multiplier_setup(rng)
        report = mgf_verify(setup, n=4, replicates=1000, seed=0, bootstrap_resamples=20)
        expected = np.linspace(1.0 / (16.0 * setup.eta), 1.0 / (2.0 * setup.eta), 8)
        np.testing.assert_array_equal(report.lambda_grid, expected)


def _bands(stats):
    return np.percentile(stats, 2.5, axis=0), np.percentile(stats, 97.5, axis=0)


def index_bootstrap_log_mgf(sups, lambdas, resamples, seed):
    """The index bootstrap the count-row bootstrap replaced: r index draws per resample."""
    r = sups.shape[0]
    shift = sups.max()
    exp_cols = np.exp(np.outer(sups - shift, lambdas))
    rng = rng_stream(seed, "mgf-bootstrap")
    stats = np.empty((resamples, lambdas.size))
    for b in range(resamples):
        counts = np.bincount(rng.integers(0, r, size=r), minlength=r).astype(float)
        stats[b] = np.log(counts @ exp_cols / r) + lambdas * (shift - counts @ sups / r)
    return _bands(stats)


def one_call_bootstrap_log_mgf(sups, lambdas, resamples, seed):
    """Every resample's multinomial count row drawn in one call, no chunks."""
    r = sups.shape[0]
    shift = sups.max()
    values, weights = np.unique(sups, return_counts=True)
    counts = rng_stream(seed, "mgf-bootstrap").multinomial(r, weights / r, size=resamples)
    means = counts @ values / r
    log_mgf_raw = np.log(counts @ np.exp(np.outer(values - shift, lambdas)) / r)
    return _bands(log_mgf_raw + lambdas[None, :] * (shift - means[:, None]))


def _sup_draws(trial, replicates):
    setup = random_multiplier_setup(np.random.default_rng(100 + trial))
    sups, _ = simulate_sup_draws(setup, n=6, replicates=replicates, seed=trial)
    return sups, np.linspace(1.0 / (16.0 * setup.eta), 1.0 / (2.0 * setup.eta), 8)


class TestBootstrap:
    def test_memory_stays_small_at_verify_scale(self):
        # The index bootstrap held a (167, 100000) float count block: 141.7 MB.
        sups, lambdas = _sup_draws(0, 100_000)
        tracemalloc.start()
        try:
            _bootstrap_log_mgf(sups, lambdas, 1000, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6

    def test_chunks_match_one_multinomial_call(self):
        # r = 100000 gives chunks of 167 resamples, so 1000 resamples take 6.
        # Only the reduction's summation order differs, and the statistic
        # cancels, so the tolerance is relative 1e-6, not bit for bit.
        sups, lambdas = _sup_draws(1, 100_000)
        got = _bootstrap_log_mgf(sups, lambdas, 1000, seed=1)
        want = one_call_bootstrap_log_mgf(sups, lambdas, 1000, seed=1)
        np.testing.assert_allclose(got, want, rtol=1e-6, atol=0.0)

    @pytest.mark.parametrize("trial", range(6))
    def test_same_law_as_the_index_bootstrap(self, trial):
        # Two draws of one bootstrap law: the bands differ by resampling
        # noise only, a few hundredths of the band width at 1000 resamples
        # (at most 0.087, median 0.037, over 30 such setups).
        sups, lambdas = _sup_draws(trial, 4000)
        lower, upper = _bootstrap_log_mgf(sups, lambdas, 1000, seed=trial)
        ref_lower, ref_upper = index_bootstrap_log_mgf(sups, lambdas, 1000, seed=trial)
        width = ref_upper - ref_lower
        assert np.all(width > 0)
        assert np.all(np.abs(lower - ref_lower) <= 0.2 * width)
        assert np.all(np.abs(upper - ref_upper) <= 0.2 * width)

    def test_all_distinct_values_give_finite_bands(self):
        sups = np.random.default_rng(12).exponential(0.5, size=5000)
        assert np.unique(sups).size == sups.size
        lambdas = np.linspace(0.05, 0.4, 8)
        lower, upper = _bootstrap_log_mgf(sups, lambdas, 200, seed=0)
        assert np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))
        assert np.all(lower <= upper)


class TestTailVerify:
    def test_delta_one_threshold_trivial(self):
        rng = np.random.default_rng(10)
        setup = random_multiplier_setup(rng)
        report = tail_verify(setup, n=5, replicates=500, delta_grid=np.array([1.0]), seed=0)
        assert report.holds and report.exceed_freq[0] <= 1.0

    @pytest.mark.parametrize("deltas", [[1.5, 0.0], [0.1, -0.2], [np.nan]])
    def test_deltas_outside_unit_interval_rejected(self, deltas):
        rng = np.random.default_rng(10)
        setup = random_multiplier_setup(rng)
        with pytest.raises(ValueError, match="delta"):
            tail_verify(setup, n=5, replicates=500, delta_grid=np.array(deltas), seed=0)

    def test_empty_delta_grid_rejected(self):
        # An empty grid used to report holds=True with nothing checked.
        setup = random_multiplier_setup(np.random.default_rng(10))
        with pytest.raises(ValueError, match="at least one delta"):
            tail_verify(setup, n=5, replicates=500, delta_grid=np.array([]), seed=0)

    def test_zero_class_never_exceeds(self):
        setup = make_setup([1.0, -1.0], [0.5, 0.5], np.zeros((1, 2)), gamma=0.5)
        report = tail_verify(setup, n=4, replicates=500,
                             delta_grid=np.array([0.1, 0.01]), seed=0)
        np.testing.assert_array_equal(report.exceed_freq, 0.0)

    def test_random_setups_within_allowance(self):
        rng = np.random.default_rng(11)
        for trial in range(3):
            setup = random_multiplier_setup(rng)
            report = tail_verify(setup, n=6, replicates=20_000,
                                 delta_grid=np.array([0.1, 0.01]), seed=trial)
            assert report.holds
