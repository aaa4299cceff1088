"""Finite-support data model: distributions, samples, dictionaries, losses.

Everything downstream (risk functionals, complexity estimates, concentration
experiments) is built on joint laws with finite support, so that population
expectations are exact finite sums and the deterministic inequalities checked
elsewhere in this package are not polluted by estimation error on the
population side.

Atoms are addressed by integer id throughout; a sample is an array of atom
ids, keyed replicates arrive as their atom counts (``replicate_counts``), and
function classes are evaluation tables over atoms. This keeps the exact
population code and the empirical code on one shared evaluation table.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = [
    "DiscreteDistribution",
    "Sample",
    "Dictionary",
    "LossSpec",
    "PredictorWeights",
    "squared_loss",
    "rng_stream",
    "replicate_counts",
    "draw_atom_ids",
    "draw_sample",
    "predict_all",
    "load_instance",
    "load_instance_file",
]

_PROB_TOL = 1e-12
_MASK64 = 0xFFFFFFFFFFFFFFFF

# Philox4x64-10 constants (Salmon et al., SC 2011): round multipliers and
# the Weyl increments of the two key words.
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_LO32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
# Up to this many words per replicate, the numpy Philox kernel computes a
# whole chunk of replicates at once; above it, one native Philox is re-keyed
# per replicate. On a 2-core x86 VM with numpy 2.4 the kernel costs about
# 75 ns per word and re-keying about 5 us per replicate; the two cross near
# 80 words (6.1 against 6.2 us per replicate).
_KERNEL_MAX_WORDS = 80
# Words per chunk of replicates; bounds the temporaries of both word paths.
_CHUNK_WORDS = 2**15
# From this many uniforms per call, atom ids come from the distribution's
# guide table, built on first use; fewer keep one binary search. On a 2-core
# x86 VM with numpy 2.4, on the 16-atom rate-study law and a 12-atom
# Dirichlet law, a built table beats the search from about 300 uniforms
# per call (at 2,048: 11-21 against 30-40 us), but building it takes
# 20-140 us (16 and 4,096 buckets), so a table pays for itself only over a
# few thousand uniforms. Below this constant lie the exact sweeps' calls of
# at most 50 uniforms, each on a law of its own; above it the chunks of
# about 2**15 words of replicate_counts.
_GUIDE_MIN_UNIFORMS = 2048
# The guide table doubles its bucket count, up to this many, while some
# bucket holds more than one cumulative probability.
_GUIDE_MAX_BUCKETS = 2**16


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=np.float64, copy=True)
    out.flags.writeable = False
    return out


def _fnv1a64(text: str) -> int:
    """FNV-1a hash of a stream tag; stable across platforms and runs."""
    acc = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        acc ^= byte
        acc = (acc * 0x100000001B3) & _MASK64
    return acc


def _stream_key(seed: int, tag: str) -> int:
    """First Philox key word of every stream under (seed, tag)."""
    return (seed & _MASK64) ^ _fnv1a64(tag)


def rng_stream(seed: int, tag: str, replicate: int = 0) -> np.random.Generator:
    """Counter-based generator keyed by (master seed, stream tag, replicate).

    Parallel replicate execution order can never change results because every
    replicate owns its own key; repeated calls with equal arguments return
    generators producing identical streams. :func:`replicate_counts` counts
    the same draws of many replicates of one tag without a generator each.
    """
    key = np.array([_stream_key(seed, tag), replicate & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class DiscreteDistribution:
    """Finite-support joint law of (X, Y) with range bound b.

    Parameters
    ----------
    xs : (s, d) array
        Feature vector of each atom.
    ys : (s,) array
        Output value of each atom; must satisfy ``|y| <= b``.
    probs : (s,) array
        Atom probabilities; nonnegative, summing to one within 1e-12.
    b : float
        Positive range bound shared by outputs and by every predictor that is
        required to be bounded.
    """

    xs: np.ndarray
    ys: np.ndarray
    probs: np.ndarray
    b: float
    _cum_probs: np.ndarray = field(init=False, repr=False, compare=False)
    _last_atom: int = field(init=False, repr=False, compare=False)
    _guide: tuple | None = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self) -> None:
        xs = np.atleast_2d(np.asarray(self.xs, dtype=np.float64))
        ys = np.asarray(self.ys, dtype=np.float64).ravel()
        probs = np.asarray(self.probs, dtype=np.float64).ravel()
        if xs.shape[0] != ys.shape[0] or ys.shape[0] != probs.shape[0]:
            raise ValueError("xs, ys and probs must agree on the number of atoms")
        if ys.shape[0] == 0:
            raise ValueError("support must be nonempty")
        for name, arr in (("xs", xs), ("ys", ys), ("probs", probs)):
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} must be finite")
        if not np.isfinite(self.b) or self.b <= 0:
            raise ValueError("range bound b must be a positive real")
        if np.any(probs < 0):
            raise ValueError("atom probabilities must be nonnegative")
        if abs(probs.sum() - 1.0) > _PROB_TOL:
            raise ValueError(
                f"atom probabilities sum to {probs.sum():.17g}, expected 1 within {_PROB_TOL}"
            )
        if np.any(np.abs(ys) > self.b + 1e-15):
            raise ValueError("every |y| must be bounded by b")
        object.__setattr__(self, "xs", _freeze(xs))
        object.__setattr__(self, "ys", _freeze(ys))
        object.__setattr__(self, "probs", _freeze(probs))
        object.__setattr__(self, "_cum_probs", _freeze(np.cumsum(probs)))
        object.__setattr__(self, "_last_atom", int(np.flatnonzero(probs > 0)[-1]))

    @property
    def size(self) -> int:
        return self.ys.shape[0]

    @property
    def dim(self) -> int:
        return self.xs.shape[1]


def _id_array(ids) -> np.ndarray:
    """``ids`` as a flat int64 array; ids of a non-integer dtype raise, never truncate.

    The check reads the dtype only, so it costs nothing per id.
    """
    arr = np.asarray(ids)
    if arr.size and arr.dtype.kind not in "iu":
        raise ValueError(f"atom ids must be integers, got dtype {arr.dtype}")
    return arr.astype(np.int64, copy=False).ravel()


@dataclass(frozen=True)
class Sample:
    """Indices of atoms drawn from an owning DiscreteDistribution."""

    indices: np.ndarray
    n: int = field(init=False)
    _counts: np.ndarray | None = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self) -> None:
        idx = _id_array(self.indices)
        if idx.size < 1:
            raise ValueError("sample size must be at least 1")
        idx = np.array(idx, copy=True)
        idx.flags.writeable = False
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "n", int(idx.size))

    def counts(self, dist: DiscreteDistribution) -> np.ndarray:
        """Read-only (1, s) counts of the sample's atom ids over the support of ``dist``.

        The ids are checked against ``dist`` and counted on the first call
        for a support size; the counts are kept on the sample, so later
        calls with that size return the same array.
        """
        counts = self._counts
        if counts is None or counts.shape[1] != dist.size:
            # A copy owns its data: one array per sample, not a view and its base.
            counts = _sample_counts(self.indices, dist.size).copy()
            counts.flags.writeable = False
            object.__setattr__(self, "_counts", counts)
        return counts


@dataclass(frozen=True)
class Dictionary:
    """Finite reference class stored as an m-by-s evaluation table.

    Entry ``values[j, a]`` is the value of reference function j at atom a.
    """

    values: np.ndarray
    b: float
    m: int = field(init=False)

    def __post_init__(self) -> None:
        vals = np.atleast_2d(np.asarray(self.values, dtype=np.float64))
        if vals.shape[0] < 1:
            raise ValueError("dictionary must contain at least one function")
        if not np.isfinite(self.b) or self.b <= 0:
            raise ValueError("dictionary bound b must be positive")
        if not np.isfinite(vals).all():
            raise ValueError("dictionary values must be finite")
        if np.any(np.abs(vals) > self.b + 1e-15):
            raise ValueError("dictionary values must be bounded by b in absolute value")
        object.__setattr__(self, "values", _freeze(vals))
        object.__setattr__(self, "m", int(vals.shape[0]))

    def validate_for(self, dist: DiscreteDistribution) -> None:
        if self.values.shape[1] != dist.size:
            raise ValueError(
                "dictionary evaluation table has "
                f"{self.values.shape[1]} columns but the support has {dist.size} atoms"
            )


@dataclass(frozen=True)
class LossSpec:
    """The squared loss (p - y)^2 for predictions and outcomes in [-b, b].

    ``eval`` and ``grad`` (the derivative in the prediction argument) are
    vectorized over numpy arrays. ``lipschitz`` = 4b is the worst-case
    derivative of (p - y)^2 in p over [-b, b]^2, and ``strong_convexity``
    = 2 is its curvature modulus.
    """

    b: float

    def __post_init__(self) -> None:
        if not 0 < self.b < np.inf:
            raise ValueError(f"range bound b must be positive and finite, got {self.b!r}")

    def eval(self, p, y) -> np.ndarray:
        return (np.asarray(p, dtype=np.float64) - y) ** 2

    def grad(self, p, y) -> np.ndarray:
        return 2.0 * (np.asarray(p, dtype=np.float64) - y)

    @property
    def lipschitz(self) -> float:
        return 4.0 * self.b

    @property
    def strong_convexity(self) -> float:
        return 2.0


def squared_loss(b: float) -> LossSpec:
    """Squared loss on [-b, b]: Lipschitz constant 4b, curvature modulus 2."""
    return LossSpec(b=b)


@dataclass(frozen=True)
class PredictorWeights:
    """Linear combination of dictionary rows; tracks its own sparsity."""

    weights: np.ndarray
    sparsity: int = field(init=False)

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=np.float64).ravel()
        w = np.array(w, copy=True)
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "sparsity", int(np.count_nonzero(w)))


def _guide_table(dist: DiscreteDistribution) -> tuple[np.ndarray, np.ndarray, int]:
    """The guide table (Chen & Asau 1974) of ``dist``, built on first use.

    Returns ``(guide, thr, steps)``. ``thr`` is the cumulative probabilities
    up to the last positive atom, with that atom's entry set to +inf, so the
    first id whose threshold exceeds u is min(searchsorted(cum, u, "right"),
    last atom). ``guide[b]`` is that id at u = b / len(guide), and a uniform
    in bucket b is at most ``steps`` thresholds past it. The bucket count is
    the smallest power of two at or above the atom count, doubled while some
    bucket holds more than one threshold, up to ``_GUIDE_MAX_BUCKETS``
    (equal thresholds, from atoms of zero probability, never part).
    """
    if dist._guide is None:
        thr = np.array(dist._cum_probs[: dist._last_atom + 1])
        thr[-1] = np.inf
        buckets = 1 << (thr.size - 1).bit_length()
        while True:
            # Edges b / buckets are exact. A threshold on a bucket's lower edge
            # is in its guide entry already, so steps counts those strictly inside.
            edges = np.arange(buckets + 1) / buckets
            guide = np.searchsorted(thr, edges[:-1], side="right")
            steps = int((np.searchsorted(thr, edges[1:], side="left") - guide).max())
            if steps <= 1 or buckets >= _GUIDE_MAX_BUCKETS:
                break
            buckets *= 2
        guide.flags.writeable = False
        thr.flags.writeable = False
        object.__setattr__(dist, "_guide", (guide, thr, steps))
    return dist._guide


def _atom_ids(dist: DiscreteDistribution, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF map of uniforms in [0, 1) to atom ids.

    A uniform at or past the last cumulative probability, which may fall
    short of 1 by rounding, goes to the last atom of positive probability,
    so a zero-probability atom is never drawn. From ``_GUIDE_MIN_UNIFORMS``
    uniforms on, the guide table gives the same ids as the binary search:
    ``u * len(guide)`` is exact and below ``len(guide)``, and each step moves
    an id past one threshold at or below its uniform.
    """
    if u.size < _GUIDE_MIN_UNIFORMS:
        return np.minimum(np.searchsorted(dist._cum_probs, u, side="right"), dist._last_atom)
    guide, thr, steps = _guide_table(dist)
    ids = guide[(u * guide.size).astype(np.intp)]
    for _ in range(steps):
        ids += thr[ids] <= u
    return ids


def _sample_counts(idx: np.ndarray, size: int) -> np.ndarray:
    """(1, size) counts of one sample's flat int64 atom ids; an id outside [0, size) raises.

    One bincount counts and checks: it rejects a negative id, and an id at
    or past ``size`` lengthens its result, or, when far past, fails to
    allocate it.
    """
    try:
        counts = np.bincount(idx, minlength=size)
    except (ValueError, MemoryError):
        counts = None
    if counts is None or counts.size > size:
        raise ValueError(f"atom ids outside the support [0, {size})")
    return counts.reshape(1, size)


def draw_atom_ids(dist: DiscreteDistribution, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n atom ids i.i.d. from the atom law via inverse-CDF sampling."""
    return _atom_ids(dist, rng.random(n))


def _mulhilo(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of the 128-bit products m * x, from 32-bit limbs."""
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    x_lo, x_hi = x & _LO32, x >> _SHIFT32
    lo_lo = m_lo * x_lo
    hi_lo = m_hi * x_lo
    lo_hi = m_lo * x_hi
    carry = ((lo_lo >> _SHIFT32) + (hi_lo & _LO32) + (lo_hi & _LO32)) >> _SHIFT32
    hi = m_hi * x_hi + (hi_lo >> _SHIFT32) + (lo_hi >> _SHIFT32) + carry
    return hi, np.uint64(m) * x


def _philox4x64(key0: int, replicates: np.ndarray, blocks: int) -> np.ndarray:
    """Philox4x64-10 words of counters 1..blocks under keys (key0, r).

    ``replicates`` is a uint64 array of replicate ids. Returns a
    (len(replicates), 4 * blocks) uint64 array whose row for r is
    what ``np.random.Philox(key=[key0, r]).random_raw(4 * blocks)`` returns.
    """
    x0 = np.arange(1, blocks + 1, dtype=np.uint64)[None, :]
    x1 = x2 = x3 = np.zeros((1, 1), dtype=np.uint64)
    k1 = replicates[:, None]
    for i in range(10):
        k0 = np.uint64((key0 + i * _PHILOX_W[0]) & _MASK64)
        k1_i = k1 + np.uint64((i * _PHILOX_W[1]) & _MASK64)
        hi0, lo0 = _mulhilo(_PHILOX_M[0], x0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], x2)
        x0, x1, x2, x3 = hi1 ^ x1 ^ k0, lo1, hi0 ^ x3 ^ k1_i, lo0
    words = np.stack(np.broadcast_arrays(x0, x1, x2, x3), axis=-1)
    return words.reshape(replicates.size, 4 * blocks)


def _replicate_words(key0: int, replicates: int, words: int):
    """First ``words`` Philox words of replicates 0..R-1, chunk by chunk.

    Yields (first, block) pairs; row i of the uint64 block holds the words of
    the stream keyed (key0, first + i). Few words per replicate go through
    the numpy kernel, many through one re-keyed native Philox. The chunks
    split R evenly, so their row counts differ by at most one: a short last
    chunk, down to one row, never occurs unless every chunk is that short.
    """
    chunks = -(-replicates // max(1, _CHUNK_WORDS // words))
    spans = ((i * replicates // chunks, (i + 1) * replicates // chunks) for i in range(chunks))
    if words <= _KERNEL_MAX_WORDS:
        blocks = -(-words // 4)
        for lo, hi in spans:
            ids = np.arange(lo, hi, dtype=np.uint64)
            yield lo, _philox4x64(key0, ids, blocks)[:, :words]
        return
    bitgen = np.random.Philox(key=np.array([key0, 0], dtype=np.uint64))
    state = bitgen.state  # counter 0 and an empty buffer: a fresh stream
    for lo, hi in spans:
        block = np.empty((hi - lo, words), dtype=np.uint64)
        for i in range(block.shape[0]):
            state["state"]["key"][1] = lo + i
            bitgen.state = state
            block[i] = bitgen.random_raw(words)
        yield lo, block


def _count_chunks(
    seed: int,
    tag: str,
    replicates: int,
    n: int,
    dist: DiscreteDistribution | None = None,
    signs: bool = False,
):
    """Checked arguments of :func:`replicate_counts`, then its rows chunk by chunk.

    Returns an iterator of ``(first, counts, signed)``: rows first, first + 1,
    ... of what ``replicate_counts`` returns with the same arguments (None
    where it returns None). A caller that reduces each chunk as it arrives
    holds no (R, s) array; the chunks follow ``_replicate_words``.
    """
    if replicates < 1 or n < 1:
        raise ValueError("need at least one replicate and one draw per replicate")
    if dist is None and not signs:
        raise ValueError("nothing to draw: give a distribution, signs=True, or both")
    first_sign = 0 if dist is None else n
    words = first_sign + (-(-n // 2) if signs else 0)
    size = n if dist is None else dist.size

    def chunks():
        for lo, block in _replicate_words(_stream_key(seed, tag), replicates, words):
            cells = block.shape[0] * size
            counts = sgn = None
            if dist is not None:
                ids = _atom_ids(dist, (block[:, :n] >> np.uint64(11)) * 2.0**-53)
                # One flat id array, offset by size per row, serves both bincounts.
                flat = (ids + np.arange(0, cells, size)[:, None]).ravel()
                counts = np.bincount(flat, minlength=cells).reshape(-1, size)
            if signs:
                # As little-endian 32-bit halves, each word's low half comes first.
                halves = block[:, first_sign:].astype("<u8", copy=False).view("<u4")
                sgn = (halves[:, :n] >> 31) * 2.0 - 1.0
                if dist is not None:
                    sgn = np.bincount(flat, sgn.ravel(), cells).reshape(-1, size)
            yield lo, counts, sgn

    return chunks()


def replicate_counts(
    seed: int,
    tag: str,
    replicates: int,
    n: int,
    dist: DiscreteDistribution | None = None,
    signs: bool = False,
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Atom counts and/or signed atom counts of replicates 0..R-1 of one keyed stream.

    Returns ``(counts, signed)``: with ``dist``, the (R, s) int64 atom counts
    of each replicate's n draws and (with ``signs``) the (R, s) per-atom sums
    of their +-1 signs; without it the n positions are the atoms, so counts
    is None and signed holds the (R, n) signs. Each chunk is counted as it is
    drawn. Row r counts what ``rng = rng_stream(seed, tag, r)`` gives from
    ``draw_atom_ids(dist, n, rng)``, then ``rng.integers(0, 2, size=n)``: the
    Philox4x64-10 words of key (seed ^ fnv1a64(tag), r), counters 1, 2, ...
    of four words each, where uniform j is ``(w[j] >> 11) * 2**-53`` and sign
    j the top bit of the low (j even) or high (j odd) 32-bit half of
    ``w[m + j // 2]``, with m = n when atoms are drawn and 0 otherwise.
    """
    chunks = _count_chunks(seed, tag, replicates, n, dist, signs)
    size = n if dist is None else dist.size
    counts = None if dist is None else np.empty((replicates, size), dtype=np.int64)
    signed = np.empty((replicates, size)) if signs else None
    for lo, *rows in chunks:
        for out, chunk in zip((counts, signed), rows):
            if out is not None:
                out[lo : lo + chunk.shape[0]] = chunk
    return counts, signed


def draw_sample(dist: DiscreteDistribution, n: int, seed: int) -> Sample:
    """Draw an i.i.d. sample of n atom ids; pure function of (dist, n, seed)."""
    if n < 1:
        raise ValueError("sample size must be at least 1")
    rng = rng_stream(seed, "draw_sample")
    return Sample(indices=draw_atom_ids(dist, n, rng))


def predict_all(dictionary: Dictionary, w: PredictorWeights) -> np.ndarray:
    """Values of the weighted combination at every atom, as a length-s array."""
    if w.weights.shape[0] != dictionary.m:
        raise ValueError(
            f"weight vector has length {w.weights.shape[0]} "
            f"but the dictionary has {dictionary.m} functions"
        )
    return w.weights @ dictionary.values


def load_instance(doc: dict) -> tuple[DiscreteDistribution, Dictionary]:
    """Build a distribution and dictionary from a JSON-style document.

    Expected shape::

        {"atoms": [{"x": [...], "y": ...}, ...],
         "probs": [...], "b": ..., "dictionary": [[...], ...]}

    Field order is irrelevant; all numbers are parsed as 64-bit floats.
    """
    try:
        atoms = doc["atoms"]
        probs = doc["probs"]
        b = float(doc["b"])
        table = doc["dictionary"]
    except KeyError as missing:
        raise ValueError(f"instance document is missing field {missing}") from None
    except TypeError as err:
        raise ValueError(f"malformed instance document: {err}") from None
    if not isinstance(atoms, list):
        raise ValueError(f"instance field 'atoms' must be a list, got {atoms!r}")
    xs, ys = [], []
    for i, atom in enumerate(atoms):
        try:
            xs.append(np.atleast_1d(np.asarray(atom["x"], dtype=np.float64)))
            ys.append(float(atom["y"]))
        except KeyError as missing:
            raise ValueError(f"instance atom {i} is missing field {missing}") from None
        except (TypeError, ValueError) as err:
            raise ValueError(f"instance atom {i} is malformed: {err}") from None
    xs, ys = np.array(xs), np.array(ys)
    dist = DiscreteDistribution(xs=xs, ys=ys, probs=np.asarray(probs, dtype=np.float64), b=b)
    dictionary = Dictionary(values=np.asarray(table, dtype=np.float64), b=b)
    dictionary.validate_for(dist)
    return dist, dictionary


def load_instance_file(path: str | Path) -> tuple[DiscreteDistribution, Dictionary]:
    with open(path, "r", encoding="utf-8") as fh:
        return load_instance(json.load(fh))
