"""Risk functionals: exact population sums, empirical averages, margins."""

import numpy as np
import pytest

from offset_risk.estimators import erm
from offset_risk.model import (
    DiscreteDistribution,
    Dictionary,
    PredictorWeights,
    Sample,
    squared_loss,
)
from offset_risk.risk import (
    bernstein_check,
    empirical_measure,
    empirical_risk_of_values,
    excess_risk,
    population_minimizer,
    population_risk_of_values,
)

LOSS = squared_loss(1.0)


def constant_predictor_setup():
    dist = DiscreteDistribution(
        xs=[[0.0], [1.0]], ys=[-1.0, 1.0], probs=[0.5, 0.5], b=1.0
    )
    ones = Dictionary(values=[[1.0, 1.0]], b=1.0)
    return dist, ones


class TestPopulationRisk:
    def test_perfect_fit_is_zero(self):
        dist = DiscreteDistribution(xs=[[0.0], [1.0]], ys=[0.3, -0.7], probs=[0.4, 0.6], b=1.0)
        dictionary = Dictionary(values=[[0.3, -0.7]], b=1.0)
        assert population_risk_of_values(dist, LOSS, dictionary.values[0]) == 0.0

    def test_single_atom(self):
        dist = DiscreteDistribution(xs=[[0.0]], ys=[1.0], probs=[1.0], b=1.0)
        dictionary = Dictionary(values=[[1.0]], b=1.0)
        assert population_risk_of_values(dist, LOSS, 0.0 * dictionary.values[0]) == 1.0

    def test_symmetric_two_atoms_vs_grid_search(self):
        # Risk of the constant predictor c is 1 + c^2; a grid scan over c
        # recovers both the formula and the minimizer c = 0.
        dist, ones = constant_predictor_setup()
        grid = np.linspace(-1, 1, 201)
        risks = population_risk_of_values(dist, LOSS, grid[:, None] * ones.values[0])
        np.testing.assert_allclose(risks, 1.0 + grid**2, atol=1e-12)
        assert grid[np.argmin(risks)] == pytest.approx(0.0, abs=1e-12)


class TestEmpiricalRisk:
    def test_single_point(self):
        dist = DiscreteDistribution(xs=[[0.0]], ys=[1.0], probs=[1.0], b=1.0)
        dictionary = Dictionary(values=[[1.0]], b=1.0)
        sample = Sample(indices=[0])
        assert empirical_risk_of_values(sample, dist, LOSS, 0.0 * dictionary.values[0]) == 1.0

    def test_prob_proportional_sample_matches_population(self):
        dist = DiscreteDistribution(
            xs=[[0.0], [1.0], [2.0]], ys=[0.1, -0.4, 0.9], probs=[0.25, 0.5, 0.25], b=1.0
        )
        dictionary = Dictionary(values=[[0.2, 0.2, 0.2]], b=1.0)
        sample = Sample(indices=[0, 1, 1, 2])  # multiplicities proportional to probs
        emp = empirical_risk_of_values(sample, dist, LOSS, dictionary.values[0])
        pop = population_risk_of_values(dist, LOSS, dictionary.values[0])
        assert emp == pytest.approx(pop, abs=1e-12)

    def test_duplication_invariance(self):
        dist, ones = constant_predictor_setup()
        values = 0.37 * ones.values[0]
        sample = Sample(indices=[0, 1, 1])
        doubled = Sample(indices=np.repeat([0, 1, 1], 2))
        a = empirical_risk_of_values(sample, dist, LOSS, values)
        b = empirical_risk_of_values(doubled, dist, LOSS, values)
        assert a == pytest.approx(b, abs=1e-14)

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            Sample(indices=[])


class TestPopulationMinimizer:
    def test_single_row(self):
        dist, ones = constant_predictor_setup()
        assert population_minimizer(dist, LOSS, ones).gstar_index == 0

    def test_regression_row_selected(self):
        dist = DiscreteDistribution(xs=[[0.0], [1.0]], ys=[0.4, -0.2], probs=[0.5, 0.5], b=1.0)
        dictionary = Dictionary(values=[[1.0, 1.0], [0.4, -0.2], [0.0, 0.0]], b=1.0)
        ref = population_minimizer(dist, LOSS, dictionary)
        assert ref.gstar_index == 1 and ref.gstar_risk == 0.0

    def test_tie_goes_to_lowest_index(self):
        dist, _ = constant_predictor_setup()
        dictionary = Dictionary(values=[[0.5, 0.5], [-0.5, -0.5]], b=1.0)
        assert population_minimizer(dist, LOSS, dictionary).gstar_index == 0

    def test_near_tie_follows_the_erm_rule(self):
        # Risks 0.25 + 1e-14 and 0.25 are within relative 1e-12: row 0 wins,
        # as it does for erm on any sample.
        dist = DiscreteDistribution(xs=[[0.0]], ys=[0.0], probs=[1.0], b=1.0)
        dictionary = Dictionary(values=[[0.5 + 1e-14], [0.5]], b=1.0)
        assert population_minimizer(dist, LOSS, dictionary).gstar_index == 0
        sample = Sample(indices=[0, 0, 0])
        pn = empirical_measure(sample, dist)
        assert population_minimizer(pn, LOSS, dictionary).gstar_index == erm(
            sample, dist, LOSS, dictionary)


class TestExcessRisk:
    def test_gstar_has_zero_excess(self):
        dist = DiscreteDistribution(xs=[[0.0], [1.0]], ys=[0.4, -0.2], probs=[0.5, 0.5], b=1.0)
        dictionary = Dictionary(values=[[0.4, -0.2], [0.0, 0.0]], b=1.0)
        assert excess_risk(dist, LOSS, dictionary, PredictorWeights(weights=[1.0, 0.0])) == 0.0

    def test_rows_have_nonnegative_excess(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            s, m = 6, 4
            dist = DiscreteDistribution(
                xs=rng.normal(size=(s, 1)),
                ys=rng.uniform(-1, 1, s),
                probs=np.full(s, 1 / s),
                b=1.0,
            )
            dictionary = Dictionary(values=rng.uniform(-1, 1, (m, s)), b=1.0)
            for j in range(m):
                w = np.zeros(m)
                w[j] = 1.0
                assert excess_risk(dist, LOSS, dictionary, PredictorWeights(weights=w)) >= -1e-12

    def test_improper_midpoint_can_go_negative(self):
        # Outputs sit exactly halfway between the two rows, so the midpoint
        # mixture beats both and its excess risk must come out negative.
        dist = DiscreteDistribution(xs=[[0.0], [1.0]], ys=[0.0, 0.0], probs=[0.5, 0.5], b=1.0)
        dictionary = Dictionary(values=[[1.0, -1.0], [-1.0, 1.0]], b=1.0)
        value = excess_risk(dist, LOSS, dictionary, PredictorWeights(weights=[0.5, 0.5]))
        assert value == pytest.approx(-1.0, abs=1e-12)
        # Brute force over both rows confirms the reference risk used above.
        rows = [
            excess_risk(dist, LOSS, dictionary, PredictorWeights(weights=w))
            for w in ([1.0, 0.0], [0.0, 1.0])
        ]
        assert min(rows) == 0.0


class TestBernsteinCheck:
    def test_singleton_class_margin_zero(self):
        dist, _ = constant_predictor_setup()
        g = np.array([0.2, -0.2])
        report = bernstein_check(dist, LOSS, g[None, :], g, gamma=1.0)
        assert report.holds
        np.testing.assert_allclose(report.margins, [0.0], atol=1e-15)

    def test_two_point_nonconvex_failure(self):
        # Outputs sit between the two candidate functions; the non-optimal
        # one violates the condition once gamma is not tiny.
        dist = DiscreteDistribution(xs=[[0.0]], ys=[0.1], probs=[1.0], b=1.0)
        class_values = np.array([[1.0], [-1.0]])
        gstar = class_values[0]  # risk 0.81 beats 1.21
        report = bernstein_check(dist, LOSS, class_values, gstar, gamma=1.0)
        assert not report.holds
        # Explicit margins: for f = g*, zero; for the far point,
        # rhs = (1.21 - 0.81) / 1 = 0.4 and lhs = 4.
        np.testing.assert_allclose(report.lhs, [0.0, 4.0], atol=1e-12)
        np.testing.assert_allclose(report.rhs, [0.0, 0.4], atol=1e-12)

    def test_gamma_must_be_positive(self):
        dist, _ = constant_predictor_setup()
        with pytest.raises(ValueError):
            bernstein_check(dist, LOSS, np.zeros((1, 2)), np.zeros(2), gamma=0.0)

    @pytest.mark.parametrize("gamma", [float("nan"), float("inf")])
    def test_non_finite_gamma_rejected(self, gamma):
        dist, _ = constant_predictor_setup()
        with pytest.raises(ValueError, match="gamma must be positive and finite"):
            bernstein_check(dist, LOSS, np.zeros((1, 2)), np.zeros(2), gamma=gamma)

    def test_realizable_grid_hull_holds_with_gamma_one(self):
        # The regression function is itself a grid mixture of the dictionary,
        # so the first-order optimality of g* holds exactly and the condition
        # with gamma = 1 holds with (numerically) zero margins.
        rng = np.random.default_rng(11)
        for _ in range(100):
            s = int(rng.integers(2, 7))
            g1 = rng.uniform(-0.5, 0.5, size=s)
            g2 = rng.uniform(-0.5, 0.5, size=s)
            grid = np.linspace(0.0, 1.0, 11)
            hull = np.array([lam * g1 + (1 - lam) * g2 for lam in grid])
            lam_true = rng.choice(grid)
            mix = lam_true * g1 + (1 - lam_true) * g2
            noise = rng.uniform(0.05, 0.3)
            xs = np.repeat(np.arange(s, dtype=float), 2)[:, None]
            ys = np.concatenate([mix + noise, mix - noise])
            probs = np.full(2 * s, 1 / (2 * s))
            dist = DiscreteDistribution(xs=xs, ys=ys, probs=probs, b=1.0)
            hull_atoms = np.hstack([hull, hull])
            gstar_row = np.argmin(
                [((hv - ys) ** 2 @ probs) for hv in hull_atoms]
            )
            report = bernstein_check(
                dist, LOSS, hull_atoms, hull_atoms[gstar_row], gamma=1.0
            )
            assert report.holds
            assert np.all(np.abs(report.margins) <= 1e-10)


class TestEmpiricalMeasure:
    def test_counts_to_probs(self):
        dist = DiscreteDistribution(
            xs=[[0.0], [1.0], [2.0]], ys=[0.0, 0.5, -0.5], probs=[0.2, 0.3, 0.5], b=1.0
        )
        pn = empirical_measure(Sample(indices=[2, 2, 0, 1]), dist)
        np.testing.assert_allclose(pn.probs, [0.25, 0.25, 0.5])
        np.testing.assert_array_equal(pn.ys, dist.ys)
