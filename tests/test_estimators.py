"""Aggregation estimators: exact solves, feasibility, offset margins, duality."""

import dataclasses
import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from offset_risk import estimators
from offset_risk.complexity import _lowest_best
from offset_risk.estimators import (
    _fit_rows,
    _offset_terms,
    check_offset,
    erm,
    midpoint,
    offset_report_from_values,
    star,
)
from offset_risk.harness.aggregate import run_aggregate
from offset_risk.harness.config import ExperimentConfig
from offset_risk.instances import random_instance, rate_study_instance
from offset_risk.model import (
    DiscreteDistribution,
    Dictionary,
    LossSpec,
    PredictorWeights,
    Sample,
    draw_sample,
    predict_all,
    replicate_counts,
    squared_loss,
)
from offset_risk.risk import (
    bernstein_check,
    empirical_measure,
    empirical_risk_of_values,
    population_minimizer,
)
from stream_reference import loop_draws

LOSS = squared_loss(1.0)


# Per-sample references: the star and midpoint estimators as they were before
# the count-row batch, gathering (m, n) sample values, with the tie rule.


def _sample_risks(sample, dist, loss, dictionary):
    idx = sample.indices
    vals_at, y_at = dictionary.values[:, idx], dist.ys[idx]
    risks = loss.eval(vals_at, y_at[None, :]).mean(axis=1)
    return vals_at, y_at, risks, int(_lowest_best(risks))


def loop_star(sample, dist, loss, dictionary):
    """(erm, partner, lam) of the per-sample squared-loss star solve."""
    vals_at, y_at, risks, e = _sample_risks(sample, dist, loss, dictionary)
    seg = vals_at[e][None, :] - vals_at  # g_e - g_f at the sample
    resid = vals_at - y_at[None, :]
    quad = np.mean(seg**2, axis=1)
    lin = np.mean(seg * resid, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        lams = np.where(quad > 0, np.clip(-lin / quad, 0.0, 1.0), 1.0)
    mix_risks = lams**2 * quad + 2.0 * lams * lin + risks
    p = int(_lowest_best(mix_risks))
    return e, p, float(lams[p])


def loop_midpoint(sample, dist, loss, dictionary, delta, c1=4.0):
    """(erm, partner, almost-minimizer set) of the per-sample midpoint."""
    vals_at, y_at, risks, e = _sample_risks(sample, dist, loss, dictionary)
    m, n = vals_at.shape
    log_term = np.log(2.0 * m / delta)
    sq_dist = np.mean((vals_at - vals_at[e][None, :]) ** 2, axis=1)
    d_emp = np.sqrt(sq_dist * log_term / n) + dictionary.b * log_term / n
    admissible = np.flatnonzero(risks <= risks[e] + c1 * loss.lipschitz * d_emp)
    mids = 0.5 * (vals_at[e][None, :] + vals_at[admissible])
    mid_risks = loss.eval(mids, y_at[None, :]).mean(axis=1)
    p = int(admissible[int(_lowest_best(mid_risks))])
    return e, p, tuple(int(j) for j in admissible)


def loop_excess(estimator, sample, dist, dictionary, delta, c1):
    """Exact excess risk of one per-sample reference fit."""
    if estimator == "erm":
        e, p, lam = _sample_risks(sample, dist, LOSS, dictionary)[3], 0, 1.0
    elif estimator == "star":
        e, p, lam = loop_star(sample, dist, LOSS, dictionary)
    else:
        (e, p, _), lam = loop_midpoint(sample, dist, LOSS, dictionary, delta, c1), 0.5
    w = np.zeros(dictionary.m)
    w[e] += lam
    w[p] += 1.0 - lam
    risk = LOSS.eval(w @ dictionary.values, dist.ys) @ dist.probs
    return risk - population_minimizer(dist, LOSS, dictionary).gstar_risk


def noisy_constant_instance():
    # Two outputs +-0.5 at each of four feature points; rows are constants.
    s = 4
    xs = np.repeat(np.arange(s, dtype=float), 2)[:, None]
    ys = np.tile([0.5, -0.5], s)
    probs = np.full(2 * s, 1 / (2 * s))
    dist = DiscreteDistribution(xs=xs, ys=ys, probs=probs, b=1.0)
    rows = np.array([
        np.full(2 * s, 0.4),
        np.full(2 * s, -0.38),
        np.full(2 * s, 0.9),
    ])
    return dist, Dictionary(values=rows, b=1.0)


class TestErm:
    def test_single_row(self):
        dist, dictionary = random_instance(np.random.default_rng(0), max_m=1)
        sample = draw_sample(dist, 10, seed=1)
        assert erm(sample, dist, LOSS, dictionary) == 0

    def test_zero_risk_row_wins(self):
        dist = DiscreteDistribution(xs=[[0.0], [1.0]], ys=[0.2, -0.6],
                                    probs=[0.5, 0.5], b=1.0)
        dictionary = Dictionary(values=[[1.0, 1.0], [0.2, -0.6]], b=1.0)
        sample = Sample(indices=[0, 1, 1])
        assert erm(sample, dist, LOSS, dictionary) == 1

    def test_tie_goes_to_lowest_index(self):
        dist = DiscreteDistribution(xs=[[0.0]], ys=[0.0], probs=[1.0], b=1.0)
        dictionary = Dictionary(values=[[0.5], [-0.5]], b=1.0)
        assert erm(Sample(indices=[0, 0]), dist, LOSS, dictionary) == 0


class TestStar:
    def test_single_row_canonical_lambda(self):
        dist, dictionary = random_instance(np.random.default_rng(1), max_m=1)
        sample = draw_sample(dist, 8, seed=2)
        sol = star(sample, dist, LOSS, dictionary)
        assert sol.lam == 1.0 and sol.partner_index == sol.erm_index == 0
        base = empirical_risk_of_values(sample, dist, LOSS, dictionary.values[0])
        assert sol.empirical_risk == pytest.approx(base, abs=1e-12)

    def test_closed_form_lambda_matches_fine_grid(self):
        rng = np.random.default_rng(3)
        lams = np.linspace(0.0, 1.0, 1_000_001)
        for trial in range(10):
            dist, dictionary = random_instance(rng, max_atoms=8, max_m=5)
            sample = draw_sample(dist, 12, seed=trial)
            sol = star(sample, dist, LOSS, dictionary)
            idx = sample.indices
            e_vals = dictionary.values[sol.erm_index, idx]
            p_vals = dictionary.values[sol.partner_index, idx]
            y = dist.ys[idx]
            grid_risks = np.mean(
                (lams[:, None] * e_vals + (1 - lams[:, None]) * p_vals - y) ** 2, axis=1
            )
            if sol.partner_index == sol.erm_index:
                # The segment is a single point, so every lam attains the grid
                # minimum; the contract is the canonical lam = 1.
                assert sol.lam == 1.0
            else:
                assert abs(sol.lam - lams[np.argmin(grid_risks)]) <= 2e-6
            assert sol.empirical_risk <= grid_risks.min() + 1e-12

    def test_never_worse_than_erm_or_any_row(self):
        rng = np.random.default_rng(4)
        for trial in range(25):
            dist, dictionary = random_instance(rng)
            sample = draw_sample(dist, int(rng.integers(2, 30)), seed=1000 + trial)
            sol = star(sample, dist, LOSS, dictionary)
            assert 0.0 <= sol.lam <= 1.0
            assert sol.weights.sparsity <= 2
            risks = [empirical_risk_of_values(sample, dist, LOSS, row)
                     for row in dictionary.values]
            assert sol.empirical_risk <= min(risks) + 1e-12
            recomputed = empirical_risk_of_values(sample, dist, LOSS,
                                                  predict_all(dictionary, sol.weights))
            assert sol.empirical_risk == pytest.approx(recomputed, abs=1e-12)

    def test_star_offset_condition_versus_every_row(self):
        # The two-step mixture satisfies the margin inequality with
        # coefficient 1/18 against every dictionary row, deterministically.
        rng = np.random.default_rng(6)
        for trial in range(100):
            dist, dictionary = random_instance(rng)
            sample = draw_sample(dist, int(rng.integers(2, 50)), seed=2000 + trial)
            sol = star(sample, dist, LOSS, dictionary)
            for g in range(dictionary.m):
                report = check_offset(
                    sample, dist, LOSS, dictionary, sol.weights, g,
                    gamma=1.0 / 18.0, epsilon=0.0,
                )
                assert report.margin >= -1e-10


class TestMidpoint:
    def test_single_row(self):
        dist, dictionary = random_instance(np.random.default_rng(7), max_m=1)
        sample = draw_sample(dist, 6, seed=3)
        sol = midpoint(sample, dist, LOSS, dictionary, delta=0.1)
        assert sol.partner_index == sol.erm_index == 0
        assert sol.weights.weights[0] == 1.0

    def test_erm_always_admissible_and_never_worse(self):
        rng = np.random.default_rng(8)
        for trial in range(25):
            dist, dictionary = random_instance(rng)
            sample = draw_sample(dist, int(rng.integers(2, 30)), seed=3000 + trial)
            sol = midpoint(sample, dist, LOSS, dictionary, delta=0.05)
            assert sol.erm_index in sol.almost_minimizer_set
            erm_risk = empirical_risk_of_values(sample, dist, LOSS,
                                                dictionary.values[sol.erm_index])
            mid_risk = empirical_risk_of_values(sample, dist, LOSS,
                                                predict_all(dictionary, sol.weights))
            assert mid_risk <= erm_risk + 1e-12
            if sol.partner_index != sol.erm_index:
                w = sol.weights.weights
                assert sorted(w[w != 0]) == [0.5, 0.5]

    def test_partner_is_population_minimizer_on_designed_instance(self):
        dist, dictionary = noisy_constant_instance()
        gstar = population_minimizer(dist, LOSS, dictionary).gstar_index
        assert gstar == 1
        found = False
        for seed in range(40):
            sample = draw_sample(dist, 60, seed=seed)
            if erm(sample, dist, LOSS, dictionary) != 0:
                continue
            found = True
            sol = midpoint(sample, dist, LOSS, dictionary, delta=0.1)
            assert gstar in sol.almost_minimizer_set
            # Brute force over admissible midpoints confirms the argmin.
            idx = sample.indices
            y = dist.ys[idx]
            e_vals = dictionary.values[sol.erm_index, idx]
            best = min(
                sol.almost_minimizer_set,
                key=lambda g: np.mean((0.5 * (e_vals + dictionary.values[g, idx]) - y) ** 2),
            )
            assert sol.partner_index == best == gstar
        assert found

    def test_probabilistic_offset_condition_with_frozen_constant(self):
        # The halfway-point estimator satisfies, with probability 1 - delta
        # over samples, the offset inequality against the best row with
        # coefficient c/64 and tolerance C * L^2/c * log(2m/delta)/n. The
        # constant C = 0.02 was fitted once on 4000 calibration replicates
        # (observed maximum 0.0095) and is frozen here.
        frozen_c = 0.02
        delta = 0.1
        gamma_off = LOSS.strong_convexity / 64.0
        failures = 0
        trials = 500
        rng_master = np.random.default_rng(777)
        for _ in range(trials):
            dist, dictionary = random_instance(rng_master, max_atoms=12, max_m=10)
            n = int(rng_master.integers(5, 60))
            sample = draw_sample(dist, n, seed=int(rng_master.integers(2**31)))
            sol = midpoint(sample, dist, LOSS, dictionary, delta=delta, c1=4.0)
            gstar = population_minimizer(dist, LOSS, dictionary).gstar_index
            eps = (
                frozen_c
                * LOSS.lipschitz**2
                / LOSS.strong_convexity
                * np.log(2 * dictionary.m / delta)
                / n
            )
            rep = check_offset(sample, dist, LOSS, dictionary, sol.weights, gstar,
                               gamma_off, eps)
            failures += 0 if rep.holds else 1
        allowed = delta + 3.0 * np.sqrt(delta * (1 - delta) / trials)
        assert failures / trials <= allowed

    def test_delta_validation(self):
        dist, dictionary = random_instance(np.random.default_rng(9))
        sample = draw_sample(dist, 5, seed=0)
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                midpoint(sample, dist, LOSS, dictionary, delta=bad)
        with pytest.raises(ValueError):
            midpoint(sample, dist, LOSS, dictionary, delta=0.1, c1=0.0)

    @pytest.mark.parametrize("c1", [float("nan"), float("inf"), 0.0, -1.0])
    def test_c1_must_be_positive_and_finite(self, c1):
        # A NaN c1 once passed `c1 <= 0` and returned an empty almost-minimizer
        # set, without the minimizer, where c1 = 4 gives (0, 1, 2, 3).
        dist, dictionary = random_instance(np.random.default_rng(0))
        sample = draw_sample(dist, 20, seed=0)
        with pytest.raises(ValueError, match="c1 must be positive"):
            midpoint(sample, dist, LOSS, dictionary, delta=0.1, c1=c1)


class TestCheckOffset:
    @pytest.mark.parametrize("bad", [-1, 3, True, np.True_, 1.0, np.float64(0.0), "0", None])
    def test_gstar_index_must_be_an_integer_row(self, bad):
        # -1 must not wrap to the last row, nor a bool act as a row index.
        dist = DiscreteDistribution(xs=[[0.0], [1.0]], ys=[-0.5, 0.5], probs=[0.5, 0.5], b=1.0)
        dictionary = Dictionary(values=[[0.0, 0.0], [0.5, 0.5], [-0.5, 0.5]], b=1.0)
        sample, w = Sample(indices=[0, 1, 1]), PredictorWeights(weights=[1.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="gstar_index"):
            check_offset(sample, dist, LOSS, dictionary, w, bad, gamma=0.5)
        # Row 2 fits every atom exactly, so the gap to it is the whole risk of row 0.
        report = check_offset(sample, dist, LOSS, dictionary, w, np.int64(2), gamma=0.5)
        assert (report.lhs, report.quadratic) == (0.25, 0.25)

    def test_predictor_equal_to_reference(self):
        dist, dictionary = random_instance(np.random.default_rng(10), max_m=3)
        sample = draw_sample(dist, 9, seed=4)
        w = PredictorWeights(weights=np.eye(dictionary.m)[0])
        report = check_offset(sample, dist, LOSS, dictionary, w, 0, gamma=0.5)
        assert report.lhs == 0.0 and report.quadratic == 0.0
        assert report.holds and report.margin == 0.0

    def test_erm_lhs_nonpositive_against_all_rows(self):
        rng = np.random.default_rng(11)
        for trial in range(20):
            dist, dictionary = random_instance(rng)
            sample = draw_sample(dist, 14, seed=4000 + trial)
            e = erm(sample, dist, LOSS, dictionary)
            w = PredictorWeights(weights=np.eye(dictionary.m)[e])
            for g in range(dictionary.m):
                report = check_offset(sample, dist, LOSS, dictionary, w, g, gamma=1e-9)
                assert report.lhs <= 1e-12

    def test_gamma_validation(self):
        dist, dictionary = random_instance(np.random.default_rng(12))
        sample = draw_sample(dist, 5, seed=0)
        w = PredictorWeights(weights=np.eye(dictionary.m)[0])
        with pytest.raises(ValueError):
            check_offset(sample, dist, LOSS, dictionary, w, 0, gamma=0.0)

    @pytest.mark.parametrize("gamma", [float("nan"), float("inf")])
    def test_non_finite_gamma_rejected(self, gamma):
        # NaN used to give holds=False, as if the inequality failed.
        dist, dictionary = random_instance(np.random.default_rng(12))
        sample = draw_sample(dist, 5, seed=0)
        w = PredictorWeights(weights=np.eye(dictionary.m)[0])
        with pytest.raises(ValueError, match="gamma must be positive and finite"):
            check_offset(sample, dist, LOSS, dictionary, w, 0, gamma=gamma)

    @pytest.mark.parametrize("gamma", [float("nan"), float("inf"), 0.0, -1.0])
    def test_report_from_values_rejects_bad_gamma(self, gamma):
        # NaN used to report margin=nan, holds=False.
        with pytest.raises(ValueError, match="gamma must be positive and finite"):
            offset_report_from_values(0.0, 1.0, gamma, 0.0)

    @pytest.mark.parametrize("epsilon", [float("nan"), float("inf"), -1e-3])
    def test_non_finite_or_negative_epsilon_rejected(self, epsilon):
        # NaN used to report margin=nan, holds=False, and inf to hold vacuously.
        dist, dictionary = random_instance(np.random.default_rng(12))
        sample = draw_sample(dist, 5, seed=0)
        w = PredictorWeights(weights=np.eye(dictionary.m)[0])
        with pytest.raises(ValueError, match="epsilon must be nonnegative and finite"):
            check_offset(sample, dist, LOSS, dictionary, w, 0, gamma=1.0, epsilon=epsilon)

    @pytest.mark.parametrize("epsilon", [float("nan"), float("inf"), -1e-3])
    def test_report_from_values_rejects_bad_epsilon(self, epsilon):
        with pytest.raises(ValueError, match="epsilon must be nonnegative and finite"):
            offset_report_from_values(0.0, 1.0, 1.0, epsilon)


def parent_offset_terms(sample, dist, loss, dictionary, predictor, g):
    """check_offset's terms as one expression per row, as written before ``_offset_terms``."""
    w = sample.counts(dist)[0] / sample.n
    pred = predict_all(dictionary, predictor)
    ref = dictionary.values[g]
    return (float(w @ (loss.eval(pred, dist.ys) - loss.eval(ref, dist.ys))),
            float(w @ (pred - ref) ** 2))


class TestOffsetTerms:
    def random_fits(self, seed, count):
        """(sample, dist, dictionary, weights) of star, ERM and random mixtures."""
        rng = np.random.default_rng(seed)
        for trial in range(count):
            dist, dictionary = random_instance(rng)
            sample = draw_sample(dist, int(rng.integers(1, 40)), seed=seed + trial)
            fits = [star(sample, dist, LOSS, dictionary).weights,
                    PredictorWeights(weights=np.eye(dictionary.m)[erm(sample, dist, LOSS,
                                                                       dictionary)]),
                    PredictorWeights(weights=rng.dirichlet(np.ones(dictionary.m)))]
            for w in fits:
                yield sample, dist, dictionary, w

    def test_check_offset_is_row_g_of_one_stack_evaluation(self):
        # Bit for bit row g of one _offset_terms call on the (m, s) stack; the
        # expression per row that it replaced agrees within 1e-15.
        gamma = 1.0 / 18.0
        for sample, dist, dictionary, w in self.random_fits(70, 100):
            pred = predict_all(dictionary, w)
            gap, quadratic = _offset_terms(sample.counts(dist)[0] / sample.n, pred,
                                           dictionary.values, LOSS.eval(pred, dist.ys),
                                           LOSS.eval(dictionary.values, dist.ys))
            assert gap.shape == quadratic.shape == (dictionary.m,)
            for g in range(dictionary.m):
                report = check_offset(sample, dist, LOSS, dictionary, w, g, gamma)
                assert report_bits(report)[:2] == (gap[g].hex(), quadratic[g].hex())
                assert report.margin.hex() == ((-gamma * quadratic[g] + 0.0) - gap[g]).hex()
                lhs, quad = parent_offset_terms(sample, dist, LOSS, dictionary, w, g)
                assert abs(report.lhs - lhs) <= 1e-15 and abs(report.quadratic - quad) <= 1e-15

    def test_a_fit_checked_against_every_row_is_evaluated_once(self, monkeypatch):
        real, shapes = estimators._offset_terms, []

        def spy(weights, pred, refs, pred_loss, ref_loss):
            shapes.append(refs.shape)
            return real(weights, pred, refs, pred_loss, ref_loss)

        monkeypatch.setattr(estimators, "_offset_terms", spy)
        estimators._last_fit = None
        sample, dist, dictionary, w = next(self.random_fits(72, 1))
        for g in range(dictionary.m):
            check_offset(sample, dist, LOSS, dictionary, w, g, 0.5)
        assert shapes == [dictionary.values.shape]


class HalvedLoss(LossSpec):
    """Half the squared loss: a loss object whose values differ from LOSS's."""

    def eval(self, p, y):
        return 0.5 * super().eval(p, y)


def report_bits(report):
    """A report's fields, each float by its bits, so -0.0 and 0.0 differ."""
    return tuple(v.hex() if isinstance(v, float) else v for v in dataclasses.astuple(report))


class TestCheckOffsetMemo:
    """check_offset keeps its last fit's evaluation; every report equals a fresh one."""

    GAMMA = 1.0 / 18.0

    def argument_sets(self):
        """A base (sample, dist, loss, dictionary, predictor) and seven sets differing in one.

        The two laws share a support size, so both samples and predictors fit
        either; one predictor equals the base's in value but is another object.
        """
        rng = np.random.default_rng(80)
        s, m = 7, 5
        dists = [DiscreteDistribution(xs=rng.normal(size=(s, 2)), ys=rng.uniform(-1, 1, s),
                                      probs=rng.dirichlet(np.ones(s)), b=1.0) for _ in range(2)]
        dictionaries = [Dictionary(values=rng.uniform(-1, 1, (m, s)), b=1.0) for _ in range(2)]
        samples = [Sample(indices=rng.integers(0, s, n)) for n in (6, 11)]
        weights = rng.dirichlet(np.ones(m), size=2)
        predictors = [PredictorWeights(weights=w) for w in weights]
        twin = PredictorWeights(weights=weights[0].copy())
        base = (samples[0], dists[0], LOSS, dictionaries[0], predictors[0])
        swaps = [(0, samples[1]), (1, dists[1]), (2, squared_loss(1.0)), (2, HalvedLoss(1.0)),
                 (3, dictionaries[1]), (4, predictors[1]), (4, twin)]
        return base, [base[:i] + (obj,) + base[i + 1:] for i, obj in swaps], m

    def fresh(self, args, g):
        estimators._last_fit = None
        return report_bits(check_offset(*args, g, self.GAMMA))

    def test_interleaved_calls_equal_fresh_evaluations_bit_for_bit(self):
        base, others, m = self.argument_sets()
        for other in others:
            expected = {id(args): [self.fresh(args, g) for g in range(m)] for args in (base, other)}
            estimators._last_fit = None
            # A-B-A with every row per set (the memo hits), then per row (it misses).
            for args in (base, other, base):
                for g in range(m):
                    assert report_bits(check_offset(*args, g, self.GAMMA)) == expected[id(args)][g]
            for g in range(m):
                for args in (base, other, base):
                    assert report_bits(check_offset(*args, g, self.GAMMA)) == expected[id(args)][g]

    def test_the_memo_holds_only_the_last_call(self):
        base, others, _ = self.argument_sets()
        sample, predictor = Sample(indices=[0, 3, 3]), PredictorWeights(weights=base[4].weights)
        check_offset(sample, *base[1:4], predictor, 0, self.GAMMA)
        gone = [weakref.ref(sample), weakref.ref(predictor)]
        del sample, predictor
        check_offset(*others[0], 1, self.GAMMA)
        gc.collect()
        assert all(ref() is None for ref in gone)
        assert all(a is b for a, b in zip(estimators._last_fit[1], others[0]))


class TestOffsetBernsteinDuality:
    def test_margins_match_through_empirical_measure(self):
        # Checking the offset inequality for the empirical minimizer against
        # row g is the same computation as the Bernstein margin of g under
        # the empirical measure, scaled by gamma.
        rng = np.random.default_rng(13)
        for trial in range(50):
            dist, dictionary = random_instance(rng)
            sample = draw_sample(dist, int(rng.integers(3, 30)), seed=5000 + trial)
            gamma = float(rng.uniform(0.05, 2.0))
            e = erm(sample, dist, LOSS, dictionary)
            pn = empirical_measure(sample, dist)
            bern = bernstein_check(
                pn, LOSS, dictionary.values, dictionary.values[e], gamma
            )
            w = PredictorWeights(weights=np.eye(dictionary.m)[e])
            for g in range(dictionary.m):
                off = check_offset(sample, dist, LOSS, dictionary, w, g, gamma)
                assert off.margin == pytest.approx(gamma * bern.margins[g], abs=1e-12)
            # With gamma = 1 the two margins are literally the same numbers.
            bern_unit = bernstein_check(
                pn, LOSS, dictionary.values, dictionary.values[e], 1.0
            )
            for g in range(dictionary.m):
                off = check_offset(sample, dist, LOSS, dictionary, w, g, 1.0)
                assert off.margin == pytest.approx(bern_unit.margins[g], abs=1e-12)


class TestTieRule:
    def test_near_ties_within_1e_12_go_to_the_lowest_index(self):
        assert _lowest_best(np.array([1.0 + 5e-13, 1.0, 2.0])) == 0
        assert _lowest_best(np.array([1.0 - 5e-13, 1.0]), largest=True) == 0

    def test_gaps_past_1e_12_are_not_ties(self):
        assert _lowest_best(np.array([1.0 + 2e-12, 1.0])) == 1
        assert _lowest_best(np.array([1.0 - 2e-12, 1.0]), largest=True) == 1

    def test_slack_is_relative_to_the_magnitude_of_negative_values(self):
        assert _lowest_best(np.array([-1.0 + 5e-13, -1.0])) == 0
        assert _lowest_best(np.array([-1.0 + 2e-12, -1.0])) == 1
        assert _lowest_best(np.array([-1.0 - 5e-13, -1.0]), largest=True) == 0
        assert _lowest_best(np.array([-1.0 - 2e-12, -1.0]), largest=True) == 1

    def test_zero_best_ties_only_exactly(self):
        assert _lowest_best(np.array([1e-300, 0.0])) == 1
        assert _lowest_best(np.array([0.0, 0.0, 1.0])) == 0

    def test_infinite_entries_never_tie_with_a_finite_best(self):
        # Masked midpoint partners carry +inf.
        assert _lowest_best(np.array([np.inf, 2.0, 1.0, np.inf])) == 2
        assert _lowest_best(np.array([np.inf, 1.0, 1.0 + 1e-13])) == 1

    def test_rows_are_independent(self):
        values = np.array([[3.0, 1.0, 1.0 + 1e-13], [0.5, 0.5 + 1e-11, 0.2]])
        np.testing.assert_array_equal(_lowest_best(values), [1, 2])
        np.testing.assert_array_equal(_lowest_best(values, largest=True), [0, 1])


def _fit_cases():
    """(dist, dictionary, (R, n) ids) on random instances and the rate instance."""
    rng = np.random.default_rng(21)
    cases = []
    for trial in range(30):
        dist, dictionary = random_instance(rng)
        n = int(rng.integers(1, 40))
        idx, _ = loop_draws(trial, "fit-rows", 6, n, dist, signs=False)
        cases.append((dist, dictionary, idx))
    # Single-atom samples: n = 1, and n draws of one atom.
    dist, dictionary = random_instance(np.random.default_rng(22))
    cases.append((dist, dictionary, np.arange(dist.size)[:, None]))
    cases.append((dist, dictionary, np.repeat(np.arange(dist.size)[:, None], 7, axis=1)))
    dist, dictionary = rate_study_instance()
    cases.append((dist, dictionary, loop_draws(5, "fit-rows", 40, 64, dist, signs=False)[0]))
    return cases


class TestFitRows:
    @pytest.mark.parametrize("estimator, loss", [("erm", LOSS), ("star", LOSS),
                                                 ("midpoint", LOSS)])
    def test_each_row_equals_the_one_row_fit(self, estimator, loss):
        for dist, dictionary, idx in _fit_cases():
            counts = (idx[:, :, None] == np.arange(dist.size)).sum(axis=1)
            e, p, weights, near = _fit_rows(counts, dist, loss, dictionary, estimator, 0.1, 4.0)
            for r, row in enumerate(idx):
                sample = Sample(indices=row)
                if estimator == "erm":
                    assert e[r] == p[r] == erm(sample, dist, loss, dictionary)
                    np.testing.assert_array_equal(weights[r], np.eye(dictionary.m)[e[r]])
                    continue
                if estimator == "star":
                    sol = star(sample, dist, loss, dictionary)
                else:
                    sol = midpoint(sample, dist, loss, dictionary, delta=0.1)
                    assert tuple(np.flatnonzero(near[r])) == sol.almost_minimizer_set
                assert (e[r], p[r]) == (sol.erm_index, sol.partner_index)
                np.testing.assert_allclose(weights[r], sol.weights.weights, rtol=0, atol=1e-12)

    def test_star_matches_the_per_sample_reference(self):
        # The picks differ only on ties: where several mixtures interpolate
        # the sample (one distinct atom, say), all have risk 0 up to rounding;
        # the reference then follows the rounding of near-zero risks, the
        # kernel the tie rule on gains over R_n(e).
        for dist, dictionary, idx in _fit_cases():
            for row in idx:
                sample = Sample(indices=row)
                sol = star(sample, dist, LOSS, dictionary)
                e, p, lam = loop_star(sample, dist, LOSS, dictionary)
                assert sol.erm_index == e
                if sol.partner_index == p:
                    assert sol.lam == pytest.approx(lam, rel=0, abs=1e-12)
                    continue
                w = np.zeros(dictionary.m)
                w[e] += lam
                w[p] += 1.0 - lam
                ref = empirical_risk_of_values(sample, dist, LOSS, w @ dictionary.values)
                assert max(sol.empirical_risk, ref) <= 1e-12

    def test_midpoint_matches_the_per_sample_reference(self):
        for dist, dictionary, idx in _fit_cases():
            for row in idx:
                sample = Sample(indices=row)
                sol = midpoint(sample, dist, LOSS, dictionary, delta=0.1)
                e, p, admissible = loop_midpoint(sample, dist, LOSS, dictionary, 0.1)
                assert (sol.erm_index, sol.partner_index) == (e, p)
                assert sol.almost_minimizer_set == admissible

    def test_star_partner_at_lam_one_is_the_lowest_index(self):
        # Trial 3 of the closed-form test: no mixture beats the minimizer, so
        # every partner ties at lam = 1. Float noise in the mixed risks once
        # picked partner 2; the tie rule gives the lowest index.
        rng = np.random.default_rng(3)
        for _ in range(4):
            dist, dictionary = random_instance(rng, max_atoms=8, max_m=5)
        sol = star(draw_sample(dist, 12, seed=3), dist, LOSS, dictionary)
        assert (sol.erm_index, sol.partner_index, sol.lam) == (0, 0, 1.0)

    @pytest.mark.parametrize("estimator", ["star", "midpoint"])
    def test_memory_bounded_over_many_rows(self, estimator):
        dist, dictionary = rate_study_instance()
        counts, _ = replicate_counts(0, "fit-memory", 20_000, 64, dist)
        tracemalloc.start()
        try:
            _fit_rows(counts, dist, LOSS, dictionary, estimator)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 * 2**20

    @pytest.mark.parametrize("estimator", ["erm", "star", "midpoint"])
    def test_run_aggregate_rows_match_per_sample_fits(self, estimator):
        dist, dictionary = rate_study_instance()
        cfg = ExperimentConfig(command="aggregate", estimator=estimator,
                               n_grid=(16, 256), replicates=60, seed=3)
        rows = run_aggregate(cfg, dist, dictionary).rows
        for n in cfg.n_grid:
            idx, _ = loop_draws(cfg.seed, f"aggregate-{estimator}-n{n}",
                                cfg.replicates, n, dist, signs=False)
            got = [ex for n_row, _, ex in rows if n_row == n]
            want = [loop_excess(estimator, Sample(indices=row), dist, dictionary,
                                cfg.delta, cfg.c1) for row in idx]
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)
