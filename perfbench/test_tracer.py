"""Self-tests of the benchmark's span tracer.

Run from the repository root with ``python3 -m pytest perfbench/test_tracer.py``.
"""

import inspect
import sys
import time
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402

import offset_risk  # noqa: E402,F401
import offset_risk.harness  # noqa: E402,F401
from offset_risk import complexity, concentration, estimators, instances, model  # noqa: E402
from tracer import (  # noqa: E402
    BOOTSTRAP_BLOCK_ELEMENTS,
    DETERMINISTIC_COUNTERS,
    LAYERS,
    Tracer,
    layer_metrics,
)


@pytest.fixture
def tracer():
    tr = Tracer()
    tr.install()
    yield tr
    tr.uninstall()


def test_every_layer_function_is_wrapped_at_every_binding_site(tracer):
    for layer in LAYERS:
        mod = sys.modules[f"offset_risk.{layer}"]
        for name in mod.__all__:
            qual = f"{layer}.{name}"
            assert (qual in tracer.wrapped) != (qual in tracer.skipped), qual
            if qual in tracer.skipped:
                assert not isinstance(getattr(mod, name), types.FunctionType), qual
            else:
                assert tracer.wrapped[qual], f"{qual} has no binding site"
                assert f"offset_risk.{layer}.{name}" in tracer.wrapped[qual]
    assert tracer.unwrapped_sites() == []
    # Bindings made by ``from ... import`` in other modules are wrapped too.
    verify = sys.modules["offset_risk.harness.verify"]
    assert verify.star is estimators.star
    assert verify.star.__wrapped__ is not estimators.star
    assert "offset_risk.star" in tracer.wrapped["estimators.star"]


def test_uninstall_restores_the_originals():
    original = estimators.star
    tr = Tracer().install()
    assert estimators.star is not original
    tr.uninstall()
    assert estimators.star is original
    assert sys.modules["offset_risk.harness.verify"].star is original


def test_self_times_sum_to_at_most_the_traced_wall_time():
    rng = np.random.default_rng(3)
    dist, spec = instances.random_star_class(rng)
    dist2, dictionary = instances.random_instance(rng)
    loss = model.squared_loss(1.0)
    sample = model.Sample(indices=model.draw_atom_ids(dist2, 30, rng))
    tracer = Tracer().install()
    try:
        t0 = time.perf_counter()
        complexity.offset_complexity_mc(dist, spec, 0.5, 8, replicates=200, seed=1)
        complexity.local_complexity_fixed_point(dist, spec, 0.5, 8, 200, 1e-6, 2)
        estimators.star(sample, dist2, loss, dictionary)
        wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    own = tracer.self_times()
    assert own.size > 400
    assert own.min() >= -1e-9
    assert own.sum() <= wall
    layers = tracer.summary()["layers"]
    assert sum(row["self_s"] for row in layers.values()) == pytest.approx(own.sum())
    assert layers["model"]["calls"] >= 400  # one stream and one draw per replicate


STUB_INNER = """
import time
__all__ = ["nap", "LIMIT"]
LIMIT = 3
def nap(seconds):
    time.sleep(seconds)
"""

STUB_OUTER = """
import time
__all__ = ["work"]
def work():
    time.sleep(0.06)
    nap(0.03)
    nap(0.02)
"""


def _stub_package():
    pkg = types.ModuleType("stubpkg")
    pkg.__path__ = []
    inner = types.ModuleType("stubpkg.inner")
    outer = types.ModuleType("stubpkg.outer")
    exec(STUB_INNER, inner.__dict__)
    exec(STUB_OUTER, outer.__dict__)
    outer.nap = inner.nap  # as ``from .inner import nap`` would bind it
    pkg.work = outer.work
    mods = {"stubpkg": pkg, "stubpkg.inner": inner, "stubpkg.outer": outer}
    return mods


def test_stub_layer_with_known_sleeps_gets_back_its_self_times(monkeypatch):
    for name, mod in _stub_package().items():
        monkeypatch.setitem(sys.modules, name, mod)
    tr = Tracer(package="stubpkg", layers=("outer", "inner"), probes={}).install()
    try:
        assert tr.skipped == {"inner.LIMIT": "not a function (int)"}
        assert sorted(tr.wrapped["inner.nap"]) == ["stubpkg.inner.nap", "stubpkg.outer.nap"]
        sys.modules["stubpkg"].work()
    finally:
        tr.uninstall()
    layers = tr.summary()["layers"]
    assert layers["outer"]["calls"] == 1 and layers["inner"]["calls"] == 2
    assert 0.06 <= layers["outer"]["self_s"] < 0.06 + 0.03
    assert 0.05 <= layers["inner"]["self_s"] < 0.05 + 0.03


def test_counters_repeat_and_basis_reuse_is_measured():
    rng = np.random.default_rng(5)
    dist, spec = instances.random_star_class(rng)
    sparse = complexity.SparseClassSpec(features=rng.normal(size=(12, 4)), k=2, gamma=1.0)
    sigmas = rng.integers(0, 2, size=(3, 12)) * 2.0 - 1.0

    def traced_counters():
        tr = Tracer().install()
        try:
            complexity.offset_complexity_mc(dist, spec, 0.5, 6, replicates=100, seed=4)
            complexity.sparse_offset_values(sparse, sigmas)
            complexity.sparse_offset_values(sparse, sigmas)
        finally:
            tr.uninstall()
        return layer_metrics(tr)

    first, second = traced_counters(), traced_counters()
    assert {k: first[k] for k in DETERMINISTIC_COUNTERS} == {
        k: second[k] for k in DETERMINISTIC_COUNTERS}
    assert first["model.streams"] == 100
    assert first["model.atoms_drawn"] == 600
    assert first["complexity.replicates"] == 100
    assert first["complexity.gather_mb"] == 100 * 6 * spec.base.shape[0] * 8 / 1e6
    assert first["complexity.subset_bases"] == 2 * (4 + 6)
    assert first["complexity.basis_reuse"] == 0.5


def test_bootstrap_block_matches_the_package_chunk_rule():
    # concentration.bootstrap_block_mb is computed from the chunk rule, not
    # measured; this fails when the package changes that rule.
    source = inspect.getsource(concentration._bootstrap_log_mgf)
    assert "chunk = max(1, int(2**24 // max(1, r)))" in source
    assert BOOTSTRAP_BLOCK_ELEMENTS == 2**24
