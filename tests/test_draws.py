"""Keyed draw layer: block counts against the one-stream-per-replicate loop,
and the inverse CDF against a plain binary search."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from offset_risk import model
from offset_risk.instances import rate_study_instance
from offset_risk.model import DiscreteDistribution, draw_atom_ids, replicate_counts
from stream_reference import loop_draws

DISTS = (
    DiscreteDistribution(xs=[[0.0]], ys=[0.0], probs=[1.0], b=1.0),
    DiscreteDistribution(
        xs=[[0.0], [1.0], [2.0], [3.0], [4.0]],
        ys=[0.0, 0.1, 0.2, 0.3, 0.4],
        probs=[0.1, 0.0, 0.3, 0.6, 0.0],
        b=1.0,
    ),
    DiscreteDistribution(
        xs=np.arange(12.0)[:, None], ys=np.zeros(12), probs=np.full(12, 1.0 / 12.0), b=1.0
    ),
)


def loop_counts(seed, tag, replicates, n, dist, signs):
    """The reference: the stream loop's ids and signs, counted one replicate at a time.

    Without a distribution the draw positions are the atoms, so the signs
    stand as they are.
    """
    idx, sgn = loop_draws(seed, tag, replicates, n, dist, signs)
    if dist is None:
        return None, sgn
    counts = np.array([np.bincount(row, minlength=dist.size) for row in idx])
    if sgn is None:
        return counts, None
    signed = np.array([np.bincount(row, weights=g, minlength=dist.size)
                       for row, g in zip(idx, sgn)])
    return counts, signed


def assert_same_draws(got, want):
    for g, w in zip(got, want):
        if w is None:
            assert g is None
        else:
            assert g.dtype == w.dtype and g.shape == w.shape
            np.testing.assert_array_equal(g, w)


def words_per_replicate(n, dist, signs):
    return (n if dist is not None else 0) + (-(-n // 2) if signs else 0)


draw_cases = st.tuples(
    st.integers(0, 2**64 - 1),  # seeds at and above 2**63 included
    st.text(min_size=0, max_size=8),  # non-ASCII tags included
    st.integers(1, 30),
    st.integers(1, 200),
    st.sampled_from([None, *DISTS]),
    st.booleans(),
).filter(lambda c: c[4] is not None or c[5])


class TestReplicateDraws:
    @settings(max_examples=60, deadline=None)
    @given(case=draw_cases, chunk_words=st.sampled_from([model._CHUNK_WORDS, 7, 64, 300]))
    def test_both_word_paths_match_the_stream_loop(self, case, chunk_words):
        # Small chunks make the replicate counts cross chunk boundaries.
        seed, tag, replicates, n, dist, signs = case
        want = loop_counts(seed, tag, replicates, n, dist, signs)
        for kernel_max_words in (0, 10**9):  # re-keyed native Philox, numpy kernel
            with mock.patch.multiple(model, _CHUNK_WORDS=chunk_words,
                                     _KERNEL_MAX_WORDS=kernel_max_words):
                got = replicate_counts(seed, tag, replicates, n, dist, signs=signs)
            assert_same_draws(got, want)

    @pytest.mark.parametrize("words", [model._KERNEL_MAX_WORDS, model._KERNEL_MAX_WORDS + 1])
    @pytest.mark.parametrize("mode", ["ids", "signs", "both"])
    def test_either_side_of_the_crossover(self, words, mode):
        dist = None if mode == "signs" else DISTS[1]
        signs = mode != "ids"
        n = next(n for n in range(1, 4 * words) if words_per_replicate(n, dist, signs) >= words)
        want = loop_counts(2**63 + 5, "crossover-é", 9, n, dist, signs)
        assert_same_draws(replicate_counts(2**63 + 5, "crossover-é", 9, n, dist, signs), want)

    def test_replicates_past_one_full_chunk(self):
        n = 5  # 8 words per replicate, so a chunk holds _CHUNK_WORDS // 8 replicates
        replicates = model._CHUNK_WORDS // 8 + 3
        want = loop_counts(17, "chunks", replicates, n, DISTS[2], True)
        assert_same_draws(replicate_counts(17, "chunks", replicates, n, DISTS[2], True), want)

    @pytest.mark.parametrize("replicates, words", [(8193, 4), (97, 5), (3, 7), (1, 9),
                                                   (10, 10**5), (65_537, 1)])
    def test_chunks_are_consecutive_runs_of_one_size(self, replicates, words):
        # 8,193 rows of 4 words are one full chunk and a one-row last chunk.
        step = max(1, model._CHUNK_WORDS // words)
        spans = [(lo, block.shape[0]) for lo, block in
                 model._replicate_words(11, replicates, words)]
        assert spans == [(lo, min(step, replicates - lo)) for lo in range(0, replicates, step)]

    def test_zero_probability_atoms_are_never_drawn(self):
        counts, _ = replicate_counts(3, "zero-atoms", 2000, 9, DISTS[1])
        assert not counts[:, [1, 4]].any()
        assert (counts.sum(axis=1) == 9).all()

    @pytest.mark.parametrize("replicates, n", [(0, 4), (4, 0), (-1, 4), (4, -2)])
    def test_empty_shapes_are_rejected(self, replicates, n):
        with pytest.raises(ValueError, match="at least one"):
            replicate_counts(0, "t", replicates, n, DISTS[0], signs=True)

    def test_nothing_to_draw_is_rejected(self):
        with pytest.raises(ValueError, match="nothing to draw"):
            replicate_counts(0, "t", 3, 3)

    def test_memory_is_one_chunk_not_the_draws(self):
        # The (R, n) ids and signs of this call would take 131 MB; counted
        # chunk by chunk, the call holds the (R, s) counts and one chunk.
        dist = DISTS[2]
        tracemalloc.start()
        try:
            counts, signed = replicate_counts(0, "memory", 2000, 4096, dist, signs=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert counts.shape == signed.shape == (2000, dist.size)
        assert peak < 8e6


class _LastUniformRng:
    """Stub generator whose every uniform is the largest double below 1."""

    def random(self, n):
        return np.full(n, 1.0 - 2.0**-53)


def test_uniform_past_the_cdf_goes_to_the_last_positive_atom():
    # The probabilities sum to 1 - 1e-13, so the largest uniform lies past
    # the last cumulative probability; the trailing atom has probability 0.
    dist = DiscreteDistribution(
        xs=[[0.0], [1.0], [2.0]], ys=[0.0, 0.0, 0.0], probs=[0.5, 0.5 - 1e-13, 0.0], b=1.0
    )
    for n in (3, model._GUIDE_MIN_UNIFORMS + 1):  # binary search, guide table
        assert draw_atom_ids(dist, n, _LastUniformRng()).tolist() == [1] * n


def search_ids(dist, u):
    """The reference inverse CDF: one binary search, capped at the last positive atom."""
    return np.minimum(np.searchsorted(dist._cum_probs, u, side="right"), dist._last_atom)


@st.composite
def laws(draw):
    """Laws on 1 to a few hundred atoms with zero, tiny and clustered probabilities."""
    weight = st.one_of(st.just(0.0), st.floats(1e-9, 1e-6), st.floats(1e-3, 1.0))
    weights = draw(st.lists(weight, min_size=1, max_size=250))
    cluster = [draw(st.floats(1e-9, 1e-7))] * draw(st.integers(0, 12))
    at = draw(st.integers(0, len(weights)))
    weights[at:at] = cluster  # several thresholds within one bucket
    lead, trail = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    w = np.array([0.0] * lead + weights + [draw(st.floats(1e-3, 1.0))] + [0.0] * trail)
    probs = w / w.sum()
    probs[np.flatnonzero(probs)[-1]] += draw(st.sampled_from([0.0, 1e-13, -1e-13]))
    s = probs.size
    return DiscreteDistribution(xs=np.arange(s)[:, None], ys=np.zeros(s), probs=probs, b=1.0)


@settings(max_examples=80, deadline=None)
@given(dist=laws(), seed=st.integers(0, 2**32 - 1))
def test_atom_ids_match_the_binary_search(dist, seed):
    cum = dist._cum_probs
    edges = np.concatenate([[0.0, 1.0 - 2.0**-53], cum, np.nextafter(cum, 0.0),
                            np.nextafter(cum, 2.0)])
    edges = edges[(edges >= 0.0) & (edges < 1.0)]
    size = 2 * model._GUIDE_MIN_UNIFORMS + 2 * edges.size
    u = np.random.default_rng(seed).random(size)
    u[::2][: edges.size] = edges
    u[1::2][: edges.size] = edges[::-1]
    want = search_ids(dist, u)
    for shape in ((size,), (2, size // 2)):  # the (rows, n) chunks of replicate_counts
        got = model._atom_ids(dist, u.reshape(shape))
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got.ravel(), want)
    assert dist._guide is not None
    for part in np.array_split(u, 4 * size // model._GUIDE_MIN_UNIFORMS + 1):
        assert part.size < model._GUIDE_MIN_UNIFORMS
        np.testing.assert_array_equal(model._atom_ids(dist, part), search_ids(dist, part))


def test_guide_table_is_built_once_per_distribution_and_only_for_large_draws():
    dist = DISTS[2]
    fresh = DiscreteDistribution(xs=dist.xs, ys=dist.ys, probs=dist.probs, b=dist.b)
    rng = np.random.default_rng(5)
    draw_atom_ids(fresh, model._GUIDE_MIN_UNIFORMS - 1, rng)
    replicate_counts(5, "small", 3, 40, fresh)
    assert fresh._guide is None
    draw_atom_ids(fresh, model._GUIDE_MIN_UNIFORMS, rng)
    table = fresh._guide
    guide, thr, _ = table
    assert not guide.flags.writeable and not thr.flags.writeable
    replicate_counts(5, "large", 100, 50, fresh)
    draw_atom_ids(fresh, 3 * model._GUIDE_MIN_UNIFORMS, rng)
    assert fresh._guide is table


def test_guide_steps_count_the_thresholds_inside_a_bucket():
    # The rate-study law's 16 atoms of probability 1/16 put every threshold
    # on one of the 16 bucket edges, so no uniform needs a correction step.
    guide, _, steps = model._guide_table(rate_study_instance()[0])
    assert steps == 0
    np.testing.assert_array_equal(guide, np.arange(16))
    # Twelve atoms of 1/12 over 16 buckets: thresholds 1/12, 2/12, ... sit
    # inside buckets, at most one to a bucket.
    guide, thr, steps = model._guide_table(DISTS[2])
    assert (guide.size, steps) == (16, 1)
    np.testing.assert_array_equal(guide, np.searchsorted(thr, np.arange(16) / 16, side="right"))
