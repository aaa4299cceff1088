"""Per-object invariants computed once: a sample's atom counts, a class's
squared table and a multiplier setup's population moments."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from offset_risk.complexity import FiniteClassSpec
from offset_risk.estimators import check_offset, erm, midpoint, star
from offset_risk.instances import random_instance, random_multiplier_setup
from offset_risk.model import DiscreteDistribution, Sample, draw_atom_ids, squared_loss
from offset_risk.risk import empirical_measure

LOSS = squared_loss(1.0)


def uniform_dist(s):
    return DiscreteDistribution(xs=np.arange(s, dtype=float)[:, None], ys=np.zeros(s),
                                probs=np.full(s, 1.0 / s), b=1.0)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestSampleCounts:
    def test_counts_equal_bincount(self):
        ids = np.array([3, 0, 3, 11, 5, 3])
        counts = Sample(indices=ids).counts(uniform_dist(12))
        assert same_bits(counts, np.bincount(ids, minlength=12)[None, :])

    def test_counts_are_read_only_and_kept(self):
        sample, dist = Sample(indices=[1, 1, 0]), uniform_dist(4)
        counts = sample.counts(dist)
        assert not counts.flags.writeable
        with pytest.raises(ValueError):
            counts[0, 0] = 7
        assert sample.counts(dist) is counts
        assert sample.counts(uniform_dist(4)) is counts  # keyed by support size

    def test_another_support_size_is_checked_and_counted_again(self):
        sample = Sample(indices=[0, 7, 11])
        assert sample.counts(uniform_dist(12)).shape == (1, 12)
        with pytest.raises(ValueError, match="outside the support"):
            sample.counts(uniform_dist(5))
        wider = sample.counts(uniform_dist(16))
        assert same_bits(wider, np.bincount([0, 7, 11], minlength=16)[None, :])

    @pytest.mark.parametrize("bad", [-1, 5, 10**15])
    def test_id_outside_the_support_names_it(self, bad):
        # One bincount checks: a negative id makes it raise, a larger one
        # lengthens its result, and a far larger one fails to allocate it.
        with pytest.raises(ValueError, match=r"outside the support \[0, 5\)"):
            Sample(indices=[0, bad]).counts(uniform_dist(5))

    def test_counting_is_lazy(self):
        assert Sample(indices=[0, 2])._counts is None


def fits(sample, dist, dictionary):
    """Every per-sample result that reads the sample's counts, as comparable bytes."""
    sol = star(sample, dist, LOSS, dictionary)
    mid = midpoint(sample, dist, LOSS, dictionary, delta=0.1)
    reports = [check_offset(sample, dist, LOSS, dictionary, sol.weights, g, gamma=0.3,
                            epsilon=0.01) for g in range(dictionary.m)]
    pn = empirical_measure(sample, dist)
    return (
        erm(sample, dist, LOSS, dictionary),
        (sol.erm_index, sol.partner_index, sol.lam, sol.empirical_risk,
         sol.weights.weights.tobytes()),
        (mid.erm_index, mid.partner_index, mid.almost_minimizer_set,
         mid.weights.weights.tobytes()),
        [(r.lhs, r.quadratic, r.margin, r.holds) for r in reports],
        pn.probs.tobytes(),
    )


class TestCachedCountsChangeNoResult:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 50))
    def test_fresh_and_cached_samples_agree_bit_for_bit(self, seed, n):
        rng = np.random.default_rng(seed)
        dist, dictionary = random_instance(rng)
        ids = draw_atom_ids(dist, n, rng)
        fresh = fits(Sample(indices=ids), dist, dictionary)
        cached = Sample(indices=ids)
        cached.counts(dist)
        assert fits(cached, dist, dictionary) == fresh
        assert fits(cached, dist, dictionary) == fresh  # and on a third use


class TestClassAndSetupTables:
    @pytest.mark.parametrize("seed", range(5))
    def test_squared_table_equals_recomputation(self, seed):
        spec = FiniteClassSpec(base=np.random.default_rng(seed).uniform(-3, 3, size=(4, 7)))
        assert same_bits(spec._base_sq, spec.base**2)
        assert not spec._base_sq.flags.writeable

    @pytest.mark.parametrize("seed", range(5))
    def test_setup_moments_equal_recomputation(self, seed):
        setup = random_multiplier_setup(np.random.default_rng(seed))
        base, probs = setup.class_spec.base, setup.joint.probs
        k = base.shape[0]
        # One stacked table [zeta h; h^2] and its population mean [E zeta h; E h^2].
        assert same_bits(setup._table, np.vstack([base * setup.zeta[None, :], base**2]))
        assert same_bits(setup._table_mean, setup._table @ probs)
        np.testing.assert_allclose(setup._table_mean[:k], (base * setup.zeta) @ probs,
                                   rtol=1e-14, atol=1e-15)
        np.testing.assert_allclose(setup._table_mean[k:], (base**2) @ probs,
                                   rtol=1e-14, atol=1e-15)
        assert not setup._table.flags.writeable
        assert not setup._table_mean.flags.writeable
