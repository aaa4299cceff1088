"""Early-stopped mirror descent: analytic flow, stopping guarantees, divergence."""

import math
import warnings

import numpy as np
import pytest

from offset_risk.estimators import MIRROR_MAPS, DivergenceError, mirror_descent
from offset_risk.instances import random_linear_instance
from offset_risk.model import DiscreteDistribution, Sample, squared_loss

LOSS = squared_loss(1.0)


def scalar_instance():
    # Single observation x = 1, y = 0: R_n(w) = w^2 and the Euclidean flow
    # is w_t = exp(-2t) from w_0 = 1.
    dist = DiscreteDistribution(xs=[[1.0]], ys=[0.0], probs=[1.0], b=1.0)
    return dist, Sample(indices=[0])


class TestAnalyticExample:
    def test_trajectory_matches_exponential_decay(self):
        dist, sample = scalar_instance()
        step = 1e-3
        trace = mirror_descent(
            sample, dist, LOSS, w_star=[0.0], w0=[1.0], mirror_map="euclidean",
            epsilon=0.05, step=step,
        )
        ts = np.array([t for t, _ in trace.w_path])
        ws = np.array([w[0] for _, w in trace.w_path])
        assert np.all(np.abs(ws - np.exp(-2.0 * ts)) <= 5.0 * step)

    def test_gap_curve_and_stopping_time(self):
        dist, sample = scalar_instance()
        step, eps = 1e-4, 0.05
        trace = mirror_descent(
            sample, dist, LOSS, w_star=[0.0], w0=[1.0], epsilon=eps, step=step
        )
        ts = np.array([t for t, _ in trace.delta_path])
        deltas = np.array([v for _, v in trace.delta_path])
        # delta(t) = 2 exp(-4t) for the continuous flow.
        assert np.max(np.abs(deltas - 2.0 * np.exp(-4.0 * ts))) <= 50.0 * step
        expected_tstar = np.log(2.0 / eps) / 4.0
        assert trace.t_star == pytest.approx(expected_tstar, abs=20 * step)
        assert trace.bregman_initial == 0.5
        assert trace.t_star <= 1.0 / eps  # 2 D0 / eps

    def test_euler_excess_scales_with_step(self):
        dist, sample = scalar_instance()
        excesses = []
        for step in (2e-3, 1e-3, 5e-4):
            trace = mirror_descent(
                sample, dist, LOSS, w_star=[0.0], w0=[1.0], epsilon=0.01, step=step
            )
            excesses.append(trace.euler_excess)
        assert excesses[0] > excesses[1] > excesses[2]
        assert excesses[0] <= 8.0 * excesses[2] + 1e-12  # roughly linear in step

    def test_start_at_target(self):
        dist, sample = scalar_instance()
        trace = mirror_descent(
            sample, dist, LOSS, w_star=[0.0], w0=[0.0], epsilon=1e-3, step=1e-3
        )
        assert trace.t_star == 0.0
        assert trace.offset is not None and trace.offset.holds


class TestStoppingGuarantees:
    @pytest.mark.parametrize("mirror_map", ["euclidean", "negative_entropy"])
    def test_three_conditions_on_random_instances(self, mirror_map):
        rng = np.random.default_rng(42 if mirror_map == "euclidean" else 43)
        for _ in range(20):
            dist, sample, w_star, w0 = random_linear_instance(
                rng, positive=mirror_map == "negative_entropy"
            )
            step = 2e-4
            trace = mirror_descent(
                sample, dist, LOSS, w_star, w0, mirror_map=mirror_map,
                epsilon=0.05, step=step,
            )
            assert trace.t_star is not None
            slack_t = trace.euler_excess / trace.epsilon + step
            assert trace.t_star <= 2.0 * trace.bregman_initial / trace.epsilon + slack_t
            stop_div = trace.bregman_path[-1][1]
            assert stop_div <= trace.bregman_initial + trace.euler_excess + 1e-9
            assert trace.offset is not None
            assert trace.offset.gamma == 0.5 * LOSS.strong_convexity
            assert trace.offset.margin >= -1e-12

    def test_bregman_divergence_monotone_up_to_excess(self):
        rng = np.random.default_rng(7)
        dist, sample, w_star, w0 = random_linear_instance(rng)
        trace = mirror_descent(sample, dist, LOSS, w_star, w0, epsilon=0.02, step=1e-4)
        divs = np.array([v for _, v in trace.bregman_path])
        assert np.all(divs <= trace.bregman_initial + trace.euler_excess + 1e-9)

    def test_time_grid_strictly_increasing(self):
        rng = np.random.default_rng(8)
        dist, sample, w_star, w0 = random_linear_instance(rng)
        trace = mirror_descent(sample, dist, LOSS, w_star, w0, epsilon=0.05, step=1e-3)
        ts = np.array([t for t, _ in trace.w_path])
        assert np.all(np.diff(ts) > 0)


class TestValidationAndFailure:
    def test_entropy_requires_positive_start(self):
        dist, sample = scalar_instance()
        with pytest.raises(ValueError, match="positive w0"):
            mirror_descent(sample, dist, LOSS, [0.5], [0.0],
                           mirror_map="negative_entropy", epsilon=0.1, step=1e-3)
        with pytest.raises(ValueError, match="nonnegative w_star"):
            mirror_descent(sample, dist, LOSS, [-0.5], [1.0],
                           mirror_map="negative_entropy", epsilon=0.1, step=1e-3)

    @pytest.mark.parametrize("name", ["step", "epsilon"])
    def test_nan_step_and_epsilon_rejected(self, name):
        # A NaN compares false both ways: it used to pass and stop after 0 steps.
        dist, sample = scalar_instance()
        kwargs = dict(epsilon=0.1, step=1e-3)
        kwargs[name] = float("nan")
        with pytest.raises(ValueError, match=f"{name} must be positive"):
            mirror_descent(sample, dist, LOSS, [0.0], [1.0], **kwargs)

    @pytest.mark.parametrize("epsilon", [float("inf"), 0.0, -0.1])
    def test_infinite_or_nonpositive_epsilon_rejected(self, epsilon):
        # An infinite epsilon used to stop at t = 0 whatever the gap.
        dist, sample = scalar_instance()
        with pytest.raises(ValueError, match="epsilon must be positive and finite"):
            mirror_descent(sample, dist, LOSS, [0.0], [1.0], epsilon=epsilon, step=1e-3)

    @pytest.mark.parametrize("mirror_map", ["euclidean", "negative_entropy"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("name", ["w_star", "w0"])
    def test_non_finite_points_rejected(self, name, value, mirror_map):
        # A NaN w0 used to return a 0-step trace with t* = None ("not
        # reached"), and an infinite one to warn from the first product.
        dist = DiscreteDistribution(xs=[[1.0, 0.5], [0.2, 1.0]], ys=[0.3, -0.2],
                                    probs=[0.5, 0.5], b=1.0)
        points = {"w_star": np.array([0.2, 0.4]), "w0": np.array([0.5, 0.5])}
        points[name][1] = value
        with pytest.raises(ValueError, match="w_star and w0 must be finite"):
            mirror_descent(Sample(indices=[0, 1]), dist, LOSS, points["w_star"], points["w0"],
                           mirror_map=mirror_map, epsilon=0.1, step=1e-3)

    def test_unknown_map_rejected(self):
        dist, sample = scalar_instance()
        with pytest.raises(ValueError, match="mirror map"):
            mirror_descent(sample, dist, LOSS, [0.0], [1.0], mirror_map="hyperbolic",
                           epsilon=0.1, step=1e-3)

    def test_divergence_attaches_trace(self):
        # Step far above the stability threshold of the scalar flow.
        dist, sample = scalar_instance()
        with pytest.raises(DivergenceError) as err:
            mirror_descent(sample, dist, LOSS, [0.0], [1.0], epsilon=1e-12, step=5.0)
        assert err.value.trace.w_path  # partial trajectory is recoverable

    def test_step_and_epsilon_validation(self):
        dist, sample = scalar_instance()
        with pytest.raises(ValueError):
            mirror_descent(sample, dist, LOSS, [0.0], [1.0], epsilon=0.1, step=0.0)
        with pytest.raises(ValueError):
            mirror_descent(sample, dist, LOSS, [0.0], [1.0], epsilon=0.0, step=1e-3)


def gather_reference(sample, dist, loss, w_star, w0, mirror_map, epsilon, step):
    """Per-draw reference loop: the sample's feature rows gathered, one row per draw.

    Returns (t_star, delta_path, bregman_path, euler_excess) of a run that
    neither diverges nor overflows.
    """
    to_dual, from_dual, bregman = MIRROR_MAPS[mirror_map]
    X, y, n = dist.xs[sample.indices], dist.ys[sample.indices], sample.n

    def risk(w):
        return float(loss.eval(X @ w, y).sum() / n)

    def gap(w):
        quad = float(((X @ (w - w_star)) ** 2).sum() / n)
        return risk(w) - risk(w_star) + 0.5 * loss.strong_convexity * quad

    d0 = bregman(w_star, w0)
    w, theta, t, excess = w0, to_dual(w0), 0.0, 0.0
    delta_path, bregman_path = [gap(w0)], [d0]
    t_star = 0.0 if delta_path[0] <= epsilon else None
    while t_star is None and t < 2.0 * (d0 + excess) / epsilon + step:
        g = X.T @ loss.grad(X @ w, y) / n
        theta = theta - step * g
        w_new = from_dual(theta)
        t += step
        excess += max(0.0, step * float(g @ (w - w_new)) - bregman(w_new, w))
        w = w_new
        delta_path.append(gap(w))
        bregman_path.append(bregman(w_star, w))
        if delta_path[-1] <= epsilon:
            t_star = t
    return t_star, np.array(delta_path), np.array(bregman_path), excess


class TestCountWeighting:
    @pytest.mark.parametrize("mirror_map", ["euclidean", "negative_entropy"])
    def test_repeated_atoms_match_the_per_draw_loop(self, mirror_map):
        # random_linear_instance samples each atom once; these samples draw
        # 3s atoms with replacement, so the counts are uneven.
        rng = np.random.default_rng(11 if mirror_map == "euclidean" else 12)
        for _ in range(6):
            dist, _, w_star, w0 = random_linear_instance(
                rng, positive=mirror_map == "negative_entropy"
            )
            sample = Sample(indices=rng.integers(0, dist.size, size=3 * dist.size))
            assert np.bincount(sample.indices).max() > 1
            trace = mirror_descent(sample, dist, LOSS, w_star, w0, mirror_map=mirror_map,
                                   epsilon=0.05, step=1e-3)
            t_star, deltas, divs, excess = gather_reference(
                sample, dist, LOSS, w_star, w0, mirror_map, 0.05, 1e-3
            )
            assert trace.t_star == t_star
            assert len(trace.delta_path) == len(trace.bregman_path) == deltas.size
            np.testing.assert_allclose([v for _, v in trace.delta_path], deltas, rtol=1e-12)
            np.testing.assert_allclose([v for _, v in trace.bregman_path], divs, rtol=1e-12)
            assert trace.euler_excess == pytest.approx(excess, rel=1e-12)


class TestOverflow:
    def test_entropy_overflow_raises_with_infinite_excess_and_no_warning(self):
        # y = 1 > w0 = 0.5 gives grad -1, so the first dual step reaches
        # log(0.5) + 1000 and exp overflows.
        dist = DiscreteDistribution(xs=[[1.0]], ys=[1.0], probs=[1.0], b=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError) as err:
                mirror_descent(Sample(indices=[0]), dist, LOSS, [1.0], [0.5],
                               mirror_map="negative_entropy", epsilon=0.1, step=1000.0)
        trace = err.value.trace
        assert trace.euler_excess == math.inf
        assert trace.t_star is None and trace.offset is None
        assert [t for t, _ in trace.w_path] == [0.0]
        assert trace.w_path[0][1].tolist() == [0.5]
        assert trace.delta_path == [(0.0, 0.5)]
