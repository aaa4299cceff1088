"""The benchmark's three workloads, built from a seed as lists of tasks.

A task is one closed-loop call into the package plus the check that its
output obeys the inequality the matching ``verify`` check asserts. ``run``
holds only the package calls and is what the benchmark times; ``check`` runs
after the clock stops and returns the task's results (the numbers compared
against the stored reference and folded into the results digest) and a
failure reason, or None.

Every input is generated here from a key (workload seed, pass index): each
pass of a run gets inputs of its own, so that no pass can reuse results an
earlier pass left in a cache, and the same key always gives the same inputs.
The package receives only those inputs, never the key itself. Package
functions are looked up through their modules at call time, so the tracer's
wrappers see every call.

Why these workloads (see README.md for the full table):

* ``grid_large_n``: the three rate-study CLI commands at default config.
  Large samples, few streams: time goes to estimator work per sample and to
  the ``(R, n, k)`` gather of ``complexity``, which also sets the memory peak.
* ``mc_small_n``: tiny samples with huge replicate counts, shaped like the
  ``offset_vs_local`` and ``mgf_bound``/``tail_bound`` checks. Time goes to
  building one keyed stream per replicate, to the bootstrap and to the
  repeated simulation in ``tail_verify``.
* ``exact_sweeps``: the deterministic sweeps as many tiny calls, plus the
  only subset-SVD and Euler-loop paths. A kernel that speeds up large
  samples by adding cost per call shows that cost here.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from offset_risk import complexity as C
from offset_risk import concentration as K
from offset_risk import estimators as E
from offset_risk import instances as I
from offset_risk import model as M
from offset_risk import risk as R
from offset_risk.harness import cli, outputs

# Workloads whose first pass runs slower than the next (the aggregate
# commands, by about a tenth): an untimed warm-up pass comes first.
WARMUP = frozenset({"grid_large_n"})

# Statistical checks may miss at the share the verify suite allows
# (offset_vs_local passes with 48 of 50); every other check allows none.
ALLOWED_MISS_SHARE = {"offset_vs_local": 2 / 50}

# grid_large_n: the CLI's default n grid and replicate count.
GRID_N = (64, 128, 256, 512, 1024, 2048, 4096)
GRID_REPLICATES = 1000

# mc_small_n: per pass, MC_CLASSES star classes at R = 10k and MC_SETUPS
# multiplier setups at R = 100k with 1000 bootstrap resamples (verify scale).
MC_CLASSES = 4
MC_SETUPS = 1
MC_CLASS_REPLICATES = 10_000
MC_SETUP_REPLICATES = 100_000
MC_BOOTSTRAP = 1000

# exact_sweeps: tiny instances per pass, each run on several samples so
# that the tiny calls take more than half of a pass, the full sparse
# (d, k, gamma) sweep with fewer sign draws than verify, and mirror descent
# with a coarser step than verify, so that many short runs average out their
# spread of lengths.
STAR_INSTANCES = 1000
STAR_SAMPLES = 12
DUALITY_INSTANCES = 400
DUALITY_SAMPLES = 12
SELF_LOC_SETUPS = 1000
SELF_LOC_SAMPLES = 48
SPARSE_D = (8, 16, 32)
SPARSE_K = (1, 2, 4)
SPARSE_GAMMAS = (0.5, 1.0, 2.0)
SPARSE_N = 64
SPARSE_SIGMAS = 50
SPARSE_RATIO_BOUND = 0.40  # the frozen constant of the sparse_shape check
MIRROR_RUNS = 40
MIRROR_STEP = 2e-3
MIRROR_EPSILON = 0.05

STAR_GAMMA = 1.0 / 18.0


@dataclass
class Task:
    name: str
    kind: str  # the verify check whose inequality ``check`` asserts, or cli_<task>
    run: Callable[[], object]
    check: Callable[[object], tuple[dict, str | None]]


def _rng(key: tuple[int, ...], *parts: int) -> np.random.Generator:
    return np.random.default_rng([*key, *parts])


def _seed_from(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


def _nonfinite(results: dict) -> str | None:
    for key, value in results.items():
        vals = value if isinstance(value, list) else [value]
        if any(isinstance(v, float) and not math.isfinite(v) for v in vals):
            return f"non-finite {key}"
    return None


def _floats(values) -> list[float]:
    return [float(v) for v in np.asarray(values, dtype=np.float64).ravel()]


# -- grid_large_n --------------------------------------------------------------


def _strict_json(path: Path) -> dict:
    def reject(token):
        raise ValueError(f"invalid JSON constant {token}")

    return json.loads(path.read_text(encoding="utf-8"), parse_constant=reject)


def _cli_task(name: str, argv: list[str], out: Path, basename: str, rows: int) -> Task:
    csv_path = out / f"{basename}.csv"
    json_path = out / f"{basename}.json"

    def run():
        csv_path.unlink(missing_ok=True)
        json_path.unlink(missing_ok=True)
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def check(rc):
        if rc != 0:
            return {"exit_code": int(rc)}, f"exit code {rc}"
        header, table = outputs.read_csv(csv_path)
        doc = _strict_json(json_path)
        per_n = doc["summary"]["per_n"]
        results: dict = {"csv_rows": len(table), "csv_columns": len(header),
                         "per_n_rows": len(per_n)}
        if basename == "complexity":
            results["reference_index"] = int(doc["summary"]["reference_index"])
            for key in ("offset", "offset_se", "local_fixed_point", "local_se"):
                results[key] = [float(row[key]) for row in per_n]
        else:
            column = header.index("excess_risk")
            results["excess_sum"] = math.fsum(float(row[column]) for row in table)
            for key in ("quantile", "mean", "median"):
                results[key] = [float(row[key]) for row in per_n]
            rate = doc["summary"]["rate"]
            results["slope"] = float(rate["slope"]) if rate else float("nan")
        if len(table) != rows or len(per_n) != len(GRID_N):
            return results, f"read back {len(table)} csv rows and {len(per_n)} grid rows"
        return results, _nonfinite(results)

    return Task(name, f"cli_{name}", run, check)


def _grid_large_n(key: tuple[int, ...], workdir: Path) -> list[Task]:
    out = workdir / "out"
    midpoint_config = workdir / "midpoint.json"
    midpoint_config.write_text(json.dumps({"estimator": "midpoint"}), encoding="utf-8")
    cli_seed = _seed_from(_rng(key, 0))
    common = ["--seed", str(cli_seed), "--out", str(out), "--format", "csv,json"]
    agg_rows = len(GRID_N) * GRID_REPLICATES
    return [
        _cli_task("aggregate_star", ["aggregate", *common], out, "aggregate_star", agg_rows),
        _cli_task("aggregate_midpoint",
                  ["aggregate", "--config", str(midpoint_config), *common],
                  out, "aggregate_midpoint", agg_rows),
        _cli_task("complexity", ["complexity", *common], out, "complexity", len(GRID_N)),
    ]


# -- mc_small_n ----------------------------------------------------------------


def _class_task(i: int, rng: np.random.Generator) -> Task:
    dist, spec = I.random_star_class(rng)
    gamma = float(rng.uniform(0.3, 1.5))
    n = int(rng.integers(4, 24))
    mc_seed = _seed_from(rng)

    def run():
        off = C.offset_complexity_mc(dist, spec, gamma, n, replicates=MC_CLASS_REPLICATES,
                                     seed=mc_seed)
        loc = C.local_complexity_fixed_point(dist, spec, gamma, n,
                                             mc_replicates=MC_CLASS_REPLICATES,
                                             r_tol=1e-6, seed=mc_seed + 1)
        return off, loc

    def check(res):
        off, loc = res
        slack = 3.0 * float(np.hypot(off.std_error, loc.std_error))
        gap = loc.value + slack - off.value
        results = {"offset": off.value, "offset_se": off.std_error,
                   "local": loc.value, "local_se": loc.std_error,
                   "replicates": [off.replicates, loc.replicates], "holds": gap >= 0}
        bad = _nonfinite(results)
        return results, bad or (None if gap >= 0 else f"offset exceeds local + 3 SE by {-gap:.3g}")

    return Task(f"class{i:02d}", "offset_vs_local", run, check)


def _setup_tasks(i: int, rng: np.random.Generator) -> list[Task]:
    setup = I.random_multiplier_setup(rng)
    n = int(rng.integers(4, 9))
    mc_seed = _seed_from(rng)
    deltas = np.array([0.1, 0.01])

    def run_mgf():
        return K.mgf_verify(setup, n=n, replicates=MC_SETUP_REPLICATES, seed=mc_seed,
                            bootstrap_resamples=MC_BOOTSTRAP)

    def check_mgf(rep):
        results = {"mean_sup": rep.mean_sup, "mean_sup_se": rep.mean_sup_se,
                   "log_mgf": _floats(rep.log_mgf), "ci_lower": _floats(rep.log_mgf_ci_lower),
                   "ci_upper": _floats(rep.log_mgf_ci_upper), "bound": _floats(rep.bound),
                   "violations": len(rep.violations),
                   "self_localization_failures": rep.self_localization_failures}
        bad = _nonfinite(results)
        if not bad and (rep.violations or rep.self_localization_failures):
            bad = (f"{len(rep.violations)} MGF violations, "
                   f"{rep.self_localization_failures} self-localization failures")
        return results, bad

    def run_tail():
        return K.tail_verify(setup, n=n, replicates=MC_SETUP_REPLICATES, delta_grid=deltas,
                             seed=mc_seed)

    def check_tail(rep):
        results = {"thresholds": _floats(rep.thresholds), "exceed_freq": _floats(rep.exceed_freq),
                   "holds": bool(rep.holds)}
        bad = _nonfinite(results)
        return results, bad or (None if rep.holds else "tail exceedance above allowance")

    return [Task(f"mgf{i:02d}", "mgf_bound", run_mgf, check_mgf),
            Task(f"tail{i:02d}", "tail_bound", run_tail, check_tail)]


def _mc_small_n(key: tuple[int, ...], workdir: Path) -> list[Task]:
    class_rng = _rng(key, 1)
    tasks = [_class_task(i, class_rng) for i in range(MC_CLASSES)]
    setup_rng = _rng(key, 2)
    for i in range(MC_SETUPS):
        tasks.extend(_setup_tasks(i, setup_rng))
    return tasks


# -- exact_sweeps --------------------------------------------------------------


def _star_task(i: int, rng: np.random.Generator, loss) -> Task:
    dist, dictionary = I.random_instance(rng, max_atoms=12, max_m=10, b=1.0)
    samples = [M.Sample(indices=M.draw_atom_ids(dist, int(rng.integers(2, 51)), rng))
               for _ in range(STAR_SAMPLES)]

    def run():
        ref = R.population_minimizer(dist, loss, dictionary).gstar_index
        fits = []
        for sample in samples:
            sol = E.star(sample, dist, loss, dictionary)
            margins = [E.check_offset(sample, dist, loss, dictionary, sol.weights, g,
                                      gamma=STAR_GAMMA, epsilon=0.0).margin
                       for g in range(dictionary.m)]
            fits.append((sol, min(margins)))
        return ref, fits

    def check(res):
        ref, fits = res
        worst = min(margin for _, margin in fits)
        results = {"indices": [ref, *(i for sol, _ in fits
                                      for i in (sol.erm_index, sol.partner_index))],
                   "lam_sum": math.fsum(sol.lam for sol, _ in fits), "worst_margin": worst}
        bad = _nonfinite(results)
        return results, bad or (None if worst >= -1e-10 else f"offset margin {worst:.3g}")

    return Task(f"star{i:04d}", "star_offset", run, check)


def _duality_task(i: int, rng: np.random.Generator, loss) -> Task:
    dist, dictionary = I.random_instance(rng)
    samples = [M.Sample(indices=M.draw_atom_ids(dist, int(rng.integers(3, 40)), rng))
               for _ in range(DUALITY_SAMPLES)]
    gamma = float(rng.uniform(0.05, 2.0)) if i % 2 else 1.0

    def run():
        out = []
        for sample in samples:
            e = E.erm(sample, dist, loss, dictionary)
            pn = R.empirical_measure(sample, dist)
            bern = R.bernstein_check(pn, loss, dictionary.values, dictionary.values[e], gamma)
            w = M.PredictorWeights(weights=np.eye(dictionary.m)[e])
            offs = [E.check_offset(sample, dist, loss, dictionary, w, g, gamma).margin
                    for g in range(dictionary.m)]
            out.append((e, bern, offs))
        return out

    def check(res):
        dev = max(float(np.max(np.abs(np.array(offs) - gamma * bern.margins)))
                  for _, bern, offs in res)
        results = {"erm_index": [int(e) for e, _, _ in res], "max_margin_dev": dev}
        bad = _nonfinite(results)
        return results, bad or (None if dev <= 1e-12 else f"duality deviation {dev:.3g}")

    return Task(f"duality{i:04d}", "duality", run, check)


def _self_loc_task(i: int, rng: np.random.Generator) -> Task:
    setup = I.random_multiplier_setup(rng)
    draws = [M.draw_atom_ids(setup.joint, int(rng.integers(1, 16)), rng)
             for _ in range(SELF_LOC_SAMPLES)]

    def run():
        return [K.self_localization_check(setup, idx) for idx in draws]

    def check(res):
        margins = [float(margin) for _, margin in res]
        holds = sum(bool(h) for h, _ in res)
        results = {"holds": holds, "margin_sum": math.fsum(margins),
                   "min_margin": min(margins)}
        bad = _nonfinite(results)
        if not bad and holds < len(res):
            bad = f"self-localization fails on {len(res) - holds} samples, margin {min(margins):.3g}"
        return results, bad

    return Task(f"selfloc{i:04d}", "self_localization", run, check)


def _sparse_task(d: int, k: int, rng: np.random.Generator) -> Task:
    phi = rng.normal(size=(SPARSE_N, d))
    sigma_seed = _seed_from(rng)

    def run():
        return [C.sparse_offset_bound_check(C.SparseClassSpec(features=phi, k=k, gamma=g),
                                            sigma_replicates=SPARSE_SIGMAS, seed=sigma_seed)
                for g in SPARSE_GAMMAS]

    def check(reports):
        # Every gamma draws the same signs, so gamma times the per-sign value
        # must not depend on gamma: the exact 1/gamma scaling of verify.
        ratios = [rep.ratio for rep in reports]
        base = reports[SPARSE_GAMMAS.index(1.0)].per_sigma
        scaling = max(float(np.max(np.abs(g * rep.per_sigma - base)
                                   / np.maximum(np.abs(base), np.finfo(np.float64).tiny)))
                      for g, rep in zip(SPARSE_GAMMAS, reports))
        results = {"ratios": _floats(ratios), "values": _floats(base),
                   "inverse_gamma_scaling_dev": scaling}
        bad = _nonfinite(results)
        if not bad and max(ratios) > SPARSE_RATIO_BOUND:
            bad = f"sparse ratio {max(ratios):.4f} above {SPARSE_RATIO_BOUND}"
        if not bad and scaling > 1e-10:
            bad = f"inverse-gamma scaling off by {scaling:.3g}"
        return results, bad

    return Task(f"sparse_d{d}_k{k}", "sparse_shape", run, check)


def _mirror_task(i: int, rng: np.random.Generator, loss) -> Task:
    mirror_map = "euclidean" if i % 2 == 0 else "negative_entropy"
    s = int(rng.integers(4, 16))
    d = int(rng.integers(2, 5))
    dist = M.DiscreteDistribution(xs=rng.normal(size=(s, d)), ys=rng.uniform(-1, 1, size=s),
                                  probs=np.full(s, 1 / s), b=1.0)
    sample = M.Sample(indices=np.arange(s))
    if mirror_map == "negative_entropy":
        w_star, w0 = rng.uniform(0.0, 0.8, size=d), rng.uniform(0.2, 1.0, size=d)
    else:
        w_star, w0 = rng.normal(scale=0.5, size=d), rng.normal(scale=0.5, size=d)

    def run():
        return E.mirror_descent(sample, dist, loss, w_star, w0, mirror_map=mirror_map,
                                epsilon=MIRROR_EPSILON, step=MIRROR_STEP)

    def check(trace):
        if trace.t_star is None or trace.offset is None:
            return {"steps": len(trace.w_path) - 1}, "stopping time not reached"
        stop = (2.0 * trace.bregman_initial / trace.epsilon
                + trace.euler_excess / trace.epsilon + MIRROR_STEP) - trace.t_star
        divergence = (trace.bregman_initial + trace.euler_excess + 1e-9) - trace.bregman_path[-1][1]
        offset = trace.offset.margin + 1e-12
        results = {"steps": len(trace.w_path) - 1, "t_star": trace.t_star,
                   "euler_excess": trace.euler_excess,
                   "margins": [stop, divergence, offset]}
        bad = _nonfinite(results)
        if not bad and min(stop, divergence, offset) < 0:
            bad = f"stopping margins {stop:.3g}, {divergence:.3g}, {offset:.3g}"
        return results, bad

    return Task(f"mirror{i:03d}", "mirror_descent", run, check)


def _exact_sweeps(key: tuple[int, ...], workdir: Path) -> list[Task]:
    loss = M.squared_loss(1.0)
    tasks: list[Task] = []
    rng = _rng(key, 3)
    tasks += [_star_task(i, rng, loss) for i in range(STAR_INSTANCES)]
    rng = _rng(key, 4)
    tasks += [_duality_task(i, rng, loss) for i in range(DUALITY_INSTANCES)]
    rng = _rng(key, 5)
    tasks += [_self_loc_task(i, rng) for i in range(SELF_LOC_SETUPS)]
    for d in SPARSE_D:
        for k in SPARSE_K:
            tasks.append(_sparse_task(d, k, _rng(key, 6, d, k)))
    rng = _rng(key, 7)
    tasks += [_mirror_task(i, rng, loss) for i in range(MIRROR_RUNS)]
    return tasks


_TASK_LISTS = {
    "grid_large_n": _grid_large_n,
    "mc_small_n": _mc_small_n,
    "exact_sweeps": _exact_sweeps,
}


def build(workload: str, seed: int, pass_index: int, workdir: Path) -> list[Task]:
    """The tasks of one pass; ``workdir`` holds any files they use."""
    return _TASK_LISTS[workload]((seed, pass_index), workdir)
