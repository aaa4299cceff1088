"""Data-model contracts: sampling, prediction, losses, validation, JSON."""

import json

import numpy as np
import pytest

from offset_risk.model import (
    DiscreteDistribution,
    Dictionary,
    PredictorWeights,
    Sample,
    draw_sample,
    load_instance,
    predict_all,
    rng_stream,
    squared_loss,
)


def single_atom_dist():
    return DiscreteDistribution(xs=[[0.0]], ys=[0.5], probs=[1.0], b=1.0)


def two_atom_dist():
    return DiscreteDistribution(xs=[[0.0], [1.0]], ys=[-1.0, 1.0], probs=[0.5, 0.5], b=1.0)


class TestDrawSample:
    def test_single_atom_always_zero(self):
        s = draw_sample(single_atom_dist(), 5, seed=3)
        assert s.indices.tolist() == [0, 0, 0, 0, 0]

    def test_two_equal_atoms_frequency(self):
        # Binomial 4-sigma interval at p = 0.5, n = 1e4 gives 0.5 +- 0.02.
        s = draw_sample(two_atom_dist(), 10_000, seed=1)
        freq = np.mean(s.indices == 0)
        assert abs(freq - 0.5) <= 0.02

    def test_determinism(self):
        d = two_atom_dist()
        a = draw_sample(d, 257, seed=42)
        b = draw_sample(d, 257, seed=42)
        assert a.indices.tobytes() == b.indices.tobytes()

    def test_distinct_seeds_differ(self):
        d = two_atom_dist()
        a = draw_sample(d, 257, seed=1)
        b = draw_sample(d, 257, seed=2)
        assert a.indices.tolist() != b.indices.tolist()

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            draw_sample(two_atom_dist(), 0, seed=0)


class TestDistributionValidation:
    def test_probs_must_normalize(self):
        with pytest.raises(ValueError, match="sum"):
            DiscreteDistribution(xs=[[0.0], [1.0]], ys=[0.0, 0.0], probs=[0.6, 0.6], b=1.0)

    def test_negative_prob_rejected(self):
        with pytest.raises(ValueError):
            DiscreteDistribution(xs=[[0.0], [1.0]], ys=[0.0, 0.0], probs=[1.5, -0.5], b=1.0)

    def test_y_must_respect_bound(self):
        with pytest.raises(ValueError, match="bounded"):
            DiscreteDistribution(xs=[[0.0]], ys=[2.0], probs=[1.0], b=1.0)

    @pytest.mark.parametrize("field, xs, ys, probs", [
        ("xs", [[np.inf], [1.0]], [0.0, 0.0], [0.5, 0.5]),
        ("ys", [[0.0], [1.0]], [np.nan, 0.0], [0.5, 0.5]),
        ("probs", [[0.0], [1.0]], [0.0, 0.0], [np.nan, 1.0]),
    ])
    def test_non_finite_fields_rejected(self, field, xs, ys, probs):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            DiscreteDistribution(xs=xs, ys=ys, probs=probs, b=1.0)

    def test_non_finite_bound_rejected(self):
        with pytest.raises(ValueError, match="range bound b"):
            DiscreteDistribution(xs=[[0.0]], ys=[0.0], probs=[1.0], b=np.nan)

    def test_empty_support_rejected(self):
        with pytest.raises(ValueError):
            DiscreteDistribution(xs=np.zeros((0, 1)), ys=[], probs=[], b=1.0)

    def test_immutable_after_construction(self):
        d = two_atom_dist()
        with pytest.raises(ValueError):
            d.probs[0] = 0.3


class TestPredict:
    def setup_method(self):
        self.dist = two_atom_dist()
        self.dictionary = Dictionary(values=[[1.0, -1.0], [-1.0, 1.0]], b=1.0)

    def test_unit_vector_recovers_row(self):
        w = PredictorWeights(weights=[1.0, 0.0])
        assert predict_all(self.dictionary, w).tolist() == [1.0, -1.0]

    def test_zero_weights(self):
        w = PredictorWeights(weights=[0.0, 0.0])
        assert predict_all(self.dictionary, w)[0] == 0.0
        assert w.sparsity == 0

    def test_symmetric_mixture_cancels(self):
        w = PredictorWeights(weights=[0.5, 0.5])
        assert predict_all(self.dictionary, w)[0] == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            predict_all(self.dictionary, PredictorWeights(weights=[1.0]))

    def test_sparsity_is_recomputed(self):
        w = PredictorWeights(weights=[0.0, 2.0])
        assert w.sparsity == 1

    @pytest.mark.parametrize("ids", [[0.5, 1.7, 2.0], [True, False], np.array([0.0, 1.0]),
                                     np.array([1 + 0j])])
    def test_non_integer_atom_ids_rejected(self, ids):
        # Never truncated to [0, 1, 2] or read as [1, 0].
        with pytest.raises(ValueError, match="atom ids must be integers"):
            Sample(indices=ids)

    @pytest.mark.parametrize("build", [
        lambda: Sample(indices=[0, 1], n=5),
        lambda: Dictionary(values=[[0.5, -0.5]], b=1.0, m=3),
        lambda: PredictorWeights(weights=[0.0, 2.0], sparsity=2),
    ])
    def test_derived_fields_are_not_constructor_arguments(self, build):
        with pytest.raises(TypeError, match="unexpected keyword"):
            build()

    def test_two_sparse_convex_combination_bounded(self):
        rng = np.random.default_rng(7)
        values = rng.uniform(-1, 1, size=(5, 4))
        dictionary = Dictionary(values=values, b=1.0)
        for _ in range(50):
            i, j = rng.integers(0, 5, size=2)
            lam = rng.random()
            w = np.zeros(5)
            w[i] += lam
            w[j] += 1 - lam
            preds = predict_all(dictionary, PredictorWeights(weights=w))
            assert np.all(np.abs(preds) <= 1.0 + 1e-12)


class TestLoss:
    def test_squared_values(self):
        loss = squared_loss(1.0)
        assert loss.eval(1.0, 0.5) == pytest.approx(0.25, abs=1e-15)
        assert loss.eval(0.3, 0.3) == 0.0

    def test_squared_constants(self):
        loss = squared_loss(1.0)
        assert loss.lipschitz == 4.0
        assert loss.strong_convexity == 2.0

    def test_lipschitz_increment_on_grid(self):
        loss = squared_loss(1.0)
        ys = np.linspace(-1, 1, 41)
        gap = np.abs(loss.eval(0.9, ys) - loss.eval(0.1, ys))
        assert np.all(gap <= 4.0 * 0.8 + 1e-12)

    def test_strong_convexity_certificate_on_grid(self):
        # l(lam y1 + (1-lam) y2, y) <= lam l(y1,y) + (1-lam) l(y2,y)
        #   - (c/2) lam (1-lam) (y1-y2)^2 with c = 2 for the squared loss.
        loss = squared_loss(1.0)
        grid = np.linspace(-1, 1, 9)
        lams = np.linspace(0, 1, 7)
        for y in grid:
            for y1 in grid:
                for y2 in grid:
                    for lam in lams:
                        lhs = loss.eval(lam * y1 + (1 - lam) * y2, y)
                        rhs = (
                            lam * loss.eval(y1, y)
                            + (1 - lam) * loss.eval(y2, y)
                            - 0.5 * loss.strong_convexity * lam * (1 - lam) * (y1 - y2) ** 2
                        )
                        assert lhs <= rhs + 1e-12

    @pytest.mark.parametrize("b", [0.0, -1.0, np.nan, np.inf])
    def test_range_bound_must_be_positive_and_finite(self, b):
        with pytest.raises(ValueError, match="range bound b"):
            squared_loss(b)


class TestRngStream:
    def test_repeatable(self):
        a = rng_stream(11, "tag", 3).random(8)
        b = rng_stream(11, "tag", 3).random(8)
        np.testing.assert_array_equal(a, b)

    def test_tag_and_replicate_separate_streams(self):
        base = rng_stream(11, "tag", 3).random(8)
        assert not np.array_equal(base, rng_stream(11, "other", 3).random(8))
        assert not np.array_equal(base, rng_stream(11, "tag", 4).random(8))


class TestInstanceJson:
    def doc(self):
        return {
            "b": 1.0,
            "probs": [0.25, 0.75],
            "atoms": [{"x": [0.0, 1.0], "y": 0.5}, {"y": -0.5, "x": [1.0, 0.0]}],
            "dictionary": [[0.5, -0.5], [1.0, 1.0]],
        }

    def test_round_trip(self):
        dist, dictionary = load_instance(self.doc())
        assert dist.size == 2 and dist.dim == 2
        assert dictionary.m == 2
        np.testing.assert_allclose(dist.probs, [0.25, 0.75])
        np.testing.assert_allclose(dictionary.values[0], [0.5, -0.5])

    def test_field_order_irrelevant(self):
        doc = json.loads(json.dumps(self.doc(), sort_keys=True))
        dist, _ = load_instance(doc)
        assert dist.ys[0] == 0.5

    def test_missing_field(self):
        doc = self.doc()
        del doc["probs"]
        with pytest.raises(ValueError, match="missing"):
            load_instance(doc)

    @pytest.mark.parametrize("atom, field", [({"y": 0.5}, "'x'"), ({"x": [1.0]}, "'y'")])
    def test_atom_missing_field(self, atom, field):
        doc = self.doc()
        doc["atoms"][1] = atom
        with pytest.raises(ValueError, match=f"atom 1 is missing field {field}"):
            load_instance(doc)

    def test_malformed_atoms_rejected(self):
        for atoms in (3, [5, {"x": [0.0], "y": 0.5}], [{"x": "a", "y": 0.5}] * 2):
            doc = self.doc()
            doc["atoms"] = atoms
            with pytest.raises(ValueError, match="atom"):
                load_instance(doc)

    def test_non_finite_dictionary_value_rejected(self):
        with pytest.raises(ValueError, match="dictionary values must be finite"):
            Dictionary(values=[[0.5, np.nan]], b=1.0)

    def test_nan_literal_in_document_rejected(self):
        doc = json.loads(json.dumps(self.doc()).replace("0.75", "NaN"))
        assert np.isnan(doc["probs"][1])
        with pytest.raises(ValueError, match="probs must be finite"):
            load_instance(doc)

    def test_dictionary_width_checked(self):
        doc = self.doc()
        doc["dictionary"] = [[0.5]]
        with pytest.raises(ValueError):
            load_instance(doc)
