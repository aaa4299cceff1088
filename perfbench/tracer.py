"""Span tracer that times calls into the package's layers from outside.

A layer is one module of the package. Installing the tracer replaces every
function listed in a layer module's ``__all__`` with a timing wrapper, at
every attribute of every loaded package module that binds it, so calls made
from inside the package (``offset_complexity_mc`` calling
``offset_complexity_draws`` through its module globals, ``verify`` calling
``star`` through its own import) are recorded as well as the benchmark's own
calls. Nothing in the package changes; uninstalling restores the originals.

Spans (function, start, end, parent span, task id) are kept in flat arrays in
memory and written out by the caller when the run ends. A span's self time is
its duration minus the durations of its direct children; because the package
is single-threaded, children never overlap one another, so self times of all
spans add up to the traced wall time at most.

A few counters need a call's arguments or result, such as the ``n`` of a
draw or the steps of a mirror-descent run. They are taken by the probes in
``PROBES`` right after the call returns, outside the span.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import sys
from array import array
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

LAYERS = (
    "model",
    "risk",
    "estimators",
    "complexity",
    "concentration",
    "instances",
    "harness.aggregate",
    "harness.outputs",
    "harness.cli",
)

# Estimator fits counted by estimators.fits and timed by estimators.us_per_fit.
FIT_FUNCTIONS = ("estimators.erm", "estimators.star", "estimators.midpoint")

# Elements of the bootstrap count block mgf_verify builds at once. This
# models the chunk rule of concentration._bootstrap_log_mgf as it stands and
# must change with it; test_tracer.py fails when the two part.
BOOTSTRAP_BLOCK_ELEMENTS = 2**24


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _class_rows(class_spec) -> int:
    return int(class_spec.base.shape[0])


def _probe_draw_atom_ids(tr, args, kwargs, result):
    tr.counts["model.atoms_drawn"] += int(_arg(args, kwargs, 1, "n"))


def _probe_mirror_descent(tr, args, kwargs, result):
    tr.counts["estimators.mirror_steps"] += len(result.w_path) - 1


def _gather(tr, replicates: int, n: int, k: int) -> None:
    tr.counts["complexity.replicates"] += replicates
    tr.maxima["complexity.gather_mb"] = max(
        tr.maxima["complexity.gather_mb"], replicates * n * k * 8 / 1e6
    )


def _probe_offset_draws(tr, args, kwargs, result):
    spec = _arg(args, kwargs, 1, "class_spec")
    n = int(_arg(args, kwargs, 3, "n"))
    _gather(tr, int(_arg(args, kwargs, 4, "replicates")), n, _class_rows(spec))


def _probe_local_stats(tr, args, kwargs, result):
    spec = _arg(args, kwargs, 1, "class_spec")
    n = int(_arg(args, kwargs, 2, "n"))
    _gather(tr, int(_arg(args, kwargs, 3, "replicates")), n, _class_rows(spec))


def _probe_empirical_offset(tr, args, kwargs, result):
    tr.counts["complexity.replicates"] += int(result.replicates)


def _probe_sparse_bound(tr, args, kwargs, result):
    tr.counts["complexity.replicates"] += int(result.estimate.replicates)


def _probe_subset_family(tr, args, kwargs, result):
    tr.counts["complexity.subset_bases"] += len(result)
    tr.counts["complexity.basis_builds"] += 1


def _probe_sparse_spec(tr, args, kwargs, result):
    spec = _arg(args, kwargs, 0, "spec")
    digest = hashlib.sha1(np.ascontiguousarray(spec.features).tobytes()).hexdigest()
    tr.keys["complexity.basis_keys"].add((digest, int(spec.k)))


def _probe_simulate(tr, args, kwargs, result):
    setup = _arg(args, kwargs, 0, "setup")
    n = int(_arg(args, kwargs, 1, "n"))
    replicates = int(_arg(args, kwargs, 2, "replicates"))
    seed = int(_arg(args, kwargs, 3, "seed"))
    tr.counts["concentration.replicates"] += replicates
    tr.counts["concentration.sim_calls"] += 1
    tr.keys["concentration.sim_keys"].add((id(setup), n, replicates, seed))


def _probe_mgf(tr, args, kwargs, result):
    replicates = int(_arg(args, kwargs, 2, "replicates"))
    resamples = int(_arg(args, kwargs, 5, "bootstrap_resamples", 1000))
    rows = min(resamples, max(1, BOOTSTRAP_BLOCK_ELEMENTS // max(1, replicates)))
    tr.maxima["concentration.bootstrap_block_mb"] = max(
        tr.maxima["concentration.bootstrap_block_mb"], rows * replicates * 8 / 1e6
    )


def _probe_written(tr, args, kwargs, result):
    tr.counts["harness.outputs.bytes"] += Path(result).stat().st_size


PROBES = {
    "model.draw_atom_ids": _probe_draw_atom_ids,
    "estimators.mirror_descent": _probe_mirror_descent,
    "complexity.offset_complexity_draws": _probe_offset_draws,
    "complexity.local_sup_stats": _probe_local_stats,
    "complexity.empirical_offset_complexity": _probe_empirical_offset,
    "complexity.sparse_offset_bound_check": _probe_sparse_bound,
    "complexity.subset_family": _probe_subset_family,
    "complexity.sparse_offset_values": _probe_sparse_spec,
    "complexity.sparse_offset_exact": _probe_sparse_spec,
    "concentration.simulate_sup_draws": _probe_simulate,
    "concentration.mgf_verify": _probe_mgf,
    "harness.outputs.write_csv": _probe_written,
    "harness.outputs.write_json": _probe_written,
    "harness.outputs.write_svg": _probe_written,
}


class Tracer:
    """Wraps the package's layer functions and records one span per call."""

    def __init__(self, package: str = "offset_risk", layers=LAYERS, probes=None):
        self.package = package
        self.layers = tuple(layers)
        self.probes = PROBES if probes is None else probes
        self.names: list[str] = []  # span function names, indexed by name id
        self.fn_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.task = array("i")
        self.task_id = -1
        self.counts: Counter = Counter()
        self.maxima: defaultdict = defaultdict(float)
        self.keys: defaultdict = defaultdict(set)
        self.wrapped: dict[str, list[str]] = {}  # function -> binding sites
        self.skipped: dict[str, str] = {}  # __all__ name -> why it is not wrapped
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def _package_modules(self) -> list:
        prefix = self.package + "."
        return [
            mod
            for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == self.package or name.startswith(prefix))
        ]

    def install(self) -> "Tracer":
        if self._patched:
            raise RuntimeError("tracer is already installed")
        targets = []
        for layer in self.layers:
            mod = importlib.import_module(f"{self.package}.{layer}")
            for attr in mod.__all__:
                obj = getattr(mod, attr)
                qual = f"{layer}.{attr}"
                if not inspect.isfunction(obj):
                    self.skipped[qual] = f"not a function ({type(obj).__name__})"
                elif obj.__module__ != mod.__name__:
                    self.skipped[qual] = f"re-exported from {obj.__module__}"
                else:
                    targets.append((obj, qual))
        modules = self._package_modules()
        for original, qual in targets:
            wrapper = self._wrap(original, qual)
            sites = []
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))
                        sites.append(f"{mod.__name__}.{attr}")
            self.wrapped[qual] = sites
        return self

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def unwrapped_sites(self) -> list[str]:
        """Attributes of package modules that still bind an original function."""
        originals = {id(orig) for _, _, orig in self._patched}
        found = []
        for mod in self._package_modules():
            for attr, value in vars(mod).items():
                if id(value) in originals:
                    found.append(f"{mod.__name__}.{attr}")
        return found

    def _wrap(self, fn, qual: str):
        if qual not in self.names:
            self.names.append(qual)
        fid = self.names.index(qual)  # reinstalling keeps one id per function
        probe = self.probes.get(qual)
        stack = self._stack
        fn_ids, starts, ends, parents, tasks = (
            self.fn_id, self.start, self.end, self.parent, self.task,
        )
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            fn_ids.append(fid)
            parents.append(stack[-1] if stack else -1)
            tasks.append(tracer.task_id)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(i)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[i] = t0
                ends[i] = t1
            if probe is not None:
                probe(tracer, args, kwargs, result)
            return result

        return traced

    # -- analysis ----------------------------------------------------------

    def layer_of(self, fid: int) -> str:
        return self.names[fid].rsplit(".", 1)[0]

    def self_times(self) -> np.ndarray:
        """Per-span duration minus the durations of its direct children."""
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = end - start
        own = dur.copy()
        has_parent = parent >= 0
        np.subtract.at(own, parent[has_parent], dur[has_parent])
        return own

    def summary(self) -> dict:
        """Per-layer self time and calls plus per-function totals."""
        fid = np.frombuffer(self.fn_id, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        own = self.self_times()
        nf = len(self.names)
        fn_calls = np.bincount(fid, minlength=nf)
        fn_self = np.bincount(fid, weights=own, minlength=nf)
        fn_total = np.bincount(fid, weights=end - start, minlength=nf)
        layers = {layer: {"self_s": 0.0, "calls": 0} for layer in self.layers}
        functions = {}
        for i, name in enumerate(self.names):
            layer = self.layer_of(i)
            layers[layer]["self_s"] += float(fn_self[i])
            layers[layer]["calls"] += int(fn_calls[i])
            if fn_calls[i]:
                functions[name] = {
                    "calls": int(fn_calls[i]),
                    "self_s": float(fn_self[i]),
                    "total_s": float(fn_total[i]),
                }
        return {"layers": layers, "functions": functions}

    def save(self, path: Path) -> None:
        """Write every span as flat arrays; function names index ``fn_id``."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            fn_id=np.frombuffer(self.fn_id, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            task=np.frombuffer(self.task, dtype=np.int32),
        )


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics the benchmark reports from one traced run."""
    summ = tracer.summary()
    fns = summ["functions"]

    def calls(name):
        return fns.get(name, {}).get("calls", 0)

    def total(name):
        return fns.get(name, {}).get("total_s", 0.0)

    out: dict[str, float] = {}
    for layer, row in summ["layers"].items():
        out[f"{layer}.self_s"] = row["self_s"]
        out[f"{layer}.calls"] = row["calls"]
    streams = calls("model.rng_stream")
    out["model.streams"] = streams
    out["model.us_per_stream"] = 1e6 * total("model.rng_stream") / streams if streams else 0.0
    out["model.atoms_drawn"] = tracer.counts["model.atoms_drawn"]
    fits = sum(calls(f) for f in FIT_FUNCTIONS)
    out["estimators.fits"] = fits
    out["estimators.us_per_fit"] = (
        1e6 * sum(total(f) for f in FIT_FUNCTIONS) / fits if fits else 0.0
    )
    out["estimators.mirror_steps"] = tracer.counts["estimators.mirror_steps"]
    out["estimators.offset_checks"] = calls("estimators.offset_report_from_values")
    out["complexity.gather_mb"] = tracer.maxima["complexity.gather_mb"]
    out["complexity.replicates"] = tracer.counts["complexity.replicates"]
    out["complexity.bisection_evals"] = calls("complexity.phi_from_stats")
    out["complexity.subset_bases"] = tracer.counts["complexity.subset_bases"]
    builds = tracer.counts["complexity.basis_builds"]
    out["complexity.basis_reuse"] = (
        len(tracer.keys["complexity.basis_keys"]) / builds if builds else 0.0
    )
    out["concentration.replicates"] = tracer.counts["concentration.replicates"]
    sims = tracer.counts["concentration.sim_calls"]
    out["concentration.sim_reuse"] = (
        len(tracer.keys["concentration.sim_keys"]) / sims if sims else 0.0
    )
    out["concentration.bootstrap_s"] = fns.get("concentration.mgf_verify", {}).get("self_s", 0.0)
    out["concentration.bootstrap_block_mb"] = tracer.maxima["concentration.bootstrap_block_mb"]
    out["harness.outputs.bytes"] = tracer.counts["harness.outputs.bytes"]
    return out


# Counters that must repeat exactly across runs with the same seed.
DETERMINISTIC_COUNTERS = (
    "model.streams",
    "model.atoms_drawn",
    "estimators.fits",
    "estimators.mirror_steps",
    "complexity.bisection_evals",
    "complexity.subset_bases",
    "concentration.replicates",
)
