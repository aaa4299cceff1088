"""Command-line front end: offset-risk <command> --config path.json ...

Commands
--------
aggregate      excess-risk rate study over the sample-size grid
complexity     offset / localized complexity estimates for the instance class
concentration  multiplier-process MGF and tail verification; exit code 1 on
               any MGF violation or tail failure, 2 on a degenerate setup
mirror         early-stopped mirror descent trace on the instance features;
               exit code 1 when the stopping time t* is not reached, a
               diverging run included
verify         full verification suite; exit code 0 iff every check passes

All outputs embed the config hash and master seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from ..complexity import FiniteClassSpec, local_complexity_fixed_point, offset_complexity_mc
from ..concentration import MultiplierSetup, mgf_verify, tail_verify
from ..estimators import DivergenceError, mirror_descent
from ..model import Sample, squared_loss
from ..risk import population_minimizer
from .aggregate import run_aggregate
from .config import ExperimentConfig, config_hash, resolve_instance
from .outputs import emit_outputs, write_json
from .verify import run_verify

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="offset-risk",
        description="Estimators, complexity measures and concentration checks "
        "for offset-penalized risk localization.",
    )
    parser.add_argument(
        "command",
        choices=("aggregate", "complexity", "concentration", "mirror", "verify"),
    )
    parser.add_argument("--config", type=str, default=None, help="JSON config path")
    parser.add_argument("--seed", type=int, default=None, help="master seed override")
    parser.add_argument("--out", type=str, default="out", help="output directory")
    parser.add_argument(
        "--format",
        type=str,
        default="csv,json",
        help="comma-separated subset of csv,json,svg",
    )
    return parser


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    config = (
        ExperimentConfig.from_file(args.config)
        if args.config
        else ExperimentConfig(command=args.command)
    )
    overrides: dict = {"command": args.command}
    if args.seed is not None:
        overrides["seed"] = args.seed
    return config.replaced(**overrides)


def _provenance(config: ExperimentConfig) -> dict:
    return {"config_hash": config_hash(config), "seed": config.seed}


def _instance_class(config: ExperimentConfig):
    """Star hull of the recentered dictionary (rows minus the best row)."""
    dist, dictionary = resolve_instance(config)
    loss = squared_loss(dist.b)
    ref = population_minimizer(dist, loss, dictionary)
    base = dictionary.values - dictionary.values[ref.gstar_index][None, :]
    return dist, dictionary, ref, FiniteClassSpec(base=base)


def _cmd_aggregate(config: ExperimentConfig, out: Path, formats: list[str]) -> int:
    study = run_aggregate(config)
    prov = _provenance(config)
    rows = [(n, rep, ex) for n, rep, ex in study.rows]
    summary = {
        "estimator": study.estimator,
        "delta": study.delta,
        "per_n": study.summary,
        "rate": None if study.rate is None else dataclasses.asdict(study.rate),
    }
    series = {
        stat: ([s["n"] for s in study.summary], [s[stat] for s in study.summary])
        for stat in ("quantile", "mean", "median")
    }
    emit_outputs(
        out, f"aggregate_{study.estimator}", ("n", "replicate", "excess_risk"),
        rows, summary, prov, formats,
        svg_series=series,
        svg_title=f"excess risk vs n ({study.estimator})",
        svg_log_log=True,
    )
    if study.rate is None:
        why = "one grid point" if len(config.n_grid) < 2 else "degenerate quantiles"
        print(f"aggregate[{study.estimator}]: {why}, no rate fit")
    else:
        print(
            f"aggregate[{study.estimator}]: slope {study.rate.slope:+.3f} "
            f"(r^2 {study.rate.r_squared:.3f}) over n = {config.n_grid}"
        )
    return 0


def _cmd_complexity(config: ExperimentConfig, out: Path, formats: list[str]) -> int:
    dist, _, ref, spec = _instance_class(config)
    gamma = config.gamma if config.gamma is not None else 0.5
    rows = []
    for n in config.n_grid:
        off = offset_complexity_mc(dist, spec, gamma, n, config.replicates, config.seed)
        loc = local_complexity_fixed_point(
            dist, spec, gamma, n, config.replicates, 1e-6, config.seed
        )
        rows.append((n, off.value, off.std_error, loc.value, loc.std_error))
    summary = {
        "gamma": gamma,
        "reference_index": ref.gstar_index,
        "per_n": [
            {"n": r[0], "offset": r[1], "offset_se": r[2],
             "local_fixed_point": r[3], "local_se": r[4]}
            for r in rows
        ],
    }
    emit_outputs(
        out, "complexity",
        ("n", "offset", "offset_se", "local_fixed_point", "local_se"),
        rows, summary, _provenance(config), formats,
        svg_series={
            "offset": ([r[0] for r in rows], [max(r[1], 1e-12) for r in rows]),
            "local": ([r[0] for r in rows], [max(r[3], 1e-12) for r in rows]),
        },
        svg_title="complexity vs n",
        svg_log_log=True,
    )
    for r in rows:
        print(f"complexity[n={r[0]}]: offset {r[1]:.5g} (se {r[2]:.2g}), "
              f"local fixed point {r[3]:.5g}")
    return 0


def _cmd_concentration(config: ExperimentConfig, out: Path, formats: list[str]) -> int:
    dist, _, ref, spec = _instance_class(config)
    gamma = config.gamma if config.gamma is not None else 0.5
    try:
        setup = MultiplierSetup(joint=dist, class_spec=spec, gamma=gamma)
    except ValueError as err:  # a degenerate instance: eta = 0
        print(f"config error: {err}", file=sys.stderr)
        return 2
    n = config.n_grid[0]
    replicates = max(config.replicates, 1000)
    report = mgf_verify(setup, n=n, replicates=replicates, seed=config.seed)
    tails = tail_verify(setup, n=n, replicates=replicates,
                        delta_grid=np.array([0.1, 0.01]), seed=config.seed)
    rows = [
        (float(lam), float(lm), float(lo), float(hi), float(bd))
        for lam, lm, lo, hi, bd in zip(
            report.lambda_grid, report.log_mgf, report.log_mgf_ci_lower,
            report.log_mgf_ci_upper, report.bound,
        )
    ]
    summary = {
        "eta": setup.eta,
        "gamma": gamma,
        "n": n,
        "replicates": replicates,
        "mean_sup": report.mean_sup,
        "violations": list(report.violations),
        "self_localization_failures": report.self_localization_failures,
        "tail": {
            "deltas": tails.deltas,
            "exceed_freq": tails.exceed_freq,
            "allowed": tails.allowed,
            "holds": tails.holds,
        },
    }
    emit_outputs(
        out, "concentration",
        ("lambda", "log_mgf", "ci_lower", "ci_upper", "bound"),
        rows, summary, _provenance(config), formats,
        svg_series={
            "log_mgf": (report.lambda_grid, report.log_mgf),
            "bound": (report.lambda_grid, report.bound),
        },
        svg_title="log-MGF vs sub-gamma bound",
    )
    status = "ok" if not report.violations and tails.holds else "VIOLATIONS"
    print(
        f"concentration: eta {setup.eta:.4g}, mean sup {report.mean_sup:.5g}, "
        f"{len(report.violations)} MGF violations, tail holds {tails.holds} [{status}]"
    )
    return 0 if status == "ok" else 1


def _cmd_mirror(config: ExperimentConfig, out: Path, formats: list[str]) -> int:
    dist, _, _, _ = _instance_class(config)
    d = dist.dim
    # Reference point: population least squares over the support features.
    gram = (dist.xs * dist.probs[:, None]).T @ dist.xs
    rhs = (dist.xs * dist.probs[:, None]).T @ dist.ys
    w_star, *_ = np.linalg.lstsq(gram, rhs, rcond=None)
    if config.mirror_map == "negative_entropy":
        w_star = np.abs(w_star)
    w0 = np.full(d, 0.5)
    sample = Sample(indices=np.arange(dist.size))
    diverged = False
    try:
        trace = mirror_descent(
            sample, dist, squared_loss(dist.b), w_star, w0,
            mirror_map=config.mirror_map, epsilon=config.epsilon, step=config.step,
        )
    except DivergenceError as err:  # report the iterates up to the blow-up
        trace, diverged = err.trace, True
    rows = [
        (t, delta, div)
        for (t, delta), (_, div) in zip(trace.delta_path, trace.bregman_path)
    ]
    summary = {
        "mirror_map": trace.mirror_map,
        "t_star": trace.t_star,
        "bregman_initial": trace.bregman_initial,
        "euler_excess": None if diverged else trace.euler_excess,
        "epsilon": trace.epsilon,
        "step": trace.step,
        "offset_holds": None if trace.offset is None else trace.offset.holds,
        "stop_bound": 2.0 * trace.bregman_initial / trace.epsilon,
    }
    emit_outputs(
        out, "mirror", ("t", "delta", "bregman_to_reference"),
        rows, summary, _provenance(config), formats,
        svg_series={
            "delta": ([r[0] for r in rows], [r[1] for r in rows]),
            "bregman": ([r[0] for r in rows], [r[2] for r in rows]),
        },
        svg_title=f"mirror descent ({trace.mirror_map})",
    )
    if diverged:
        print(f"mirror[{trace.mirror_map}]: iterates diverged after t = {rows[-1][0]:.4g} "
              f"(step {trace.step:.4g}), t* = not reached")
        return 1
    stopped = "not reached" if trace.t_star is None else f"{trace.t_star:.4g}"
    print(
        f"mirror[{trace.mirror_map}]: t* = {stopped} "
        f"(bound {2 * trace.bregman_initial / trace.epsilon:.4g}), "
        f"euler excess {trace.euler_excess:.3g}"
    )
    return 0 if trace.t_star is not None else 1


def _cmd_verify(config: ExperimentConfig, out: Path, formats: list[str]) -> int:
    manifest, results = run_verify(config)
    out.mkdir(parents=True, exist_ok=True)
    write_json(out / "verify_manifest.json", manifest)
    for r in results:
        line = "pass" if r.passed else "FAIL"
        # A failing keyed check names the instance that sets its margin.
        key = r.detail.get("worst_key")
        replay = f" worst_key {json.dumps(key)}" if key is not None and not r.passed else ""
        print(
            f"[{line}] {r.check_id}: statistic {r.statistic:.6g}, "
            f"margin {r.margin:.3g} ({r.runtime_s:.1f}s){replay}"
        )
    print(f"manifest: {out / 'verify_manifest.json'} "
          f"(all_pass={manifest['all_pass']})")
    return 0 if manifest["all_pass"] else 1


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _load_config(args)
    except (ValueError, OSError, json.JSONDecodeError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    formats = [f.strip() for f in args.format.split(",") if f.strip()]
    unknown = set(formats) - {"csv", "json", "svg"}
    if unknown:
        print(f"unknown output formats: {sorted(unknown)}", file=sys.stderr)
        return 2
    out = Path(args.out)
    dispatch = {
        "aggregate": _cmd_aggregate,
        "complexity": _cmd_complexity,
        "concentration": _cmd_concentration,
        "mirror": _cmd_mirror,
        "verify": _cmd_verify,
    }
    return dispatch[config.command](config, out, formats)


if __name__ == "__main__":
    sys.exit(main())
