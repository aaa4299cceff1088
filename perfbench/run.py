"""Benchmark runner for offset-risk: one workload per process, closed loop.

Usage (from the repository root)::

    python3 perfbench/run.py --workload grid_large_n --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 36 --trace 0

Each run builds the workload's tasks from ``--seed``, then runs whole passes
over them, one call after another with no added threads, for about
``--seconds`` seconds: timed passes, each started only while it is
expected to end inside the budget, after an untimed warm-up pass on the
workloads whose first pass is measurably slow; at least one timed pass
always runs. Each pass has inputs of its own, made from the seed and the
pass index, so no pass can reuse what an earlier one left in a cache. The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones: ``wall_s`` (median
timed-pass time), ``setup_s`` (imports plus the median time to build a
pass's inputs), ``peak_rss_mb`` and ``pass_frac``. With ``--trace 1`` the
run ends by tracing the first timed pass again and reports the per-layer
metrics instead, with ``trace.overhead_frac`` against the untraced passes.
The unit of every metric is the one ``BENCHMARK.json`` gives it.

See README.md in this directory for the workloads, metrics and layer table.
"""

import time

_T0 = time.perf_counter()  # the set-up clock starts before the first import

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE_DIR = HERE / "reference"
OUT_DIR = ROOT / ".bench_out"
TMP_DIR = ROOT / ".bench_tmp"

WORKLOAD_NAMES = ("grid_large_n", "mc_small_n", "exact_sweeps")
REFERENCE_SEED = 0
# Floats in the stored reference must match within this; integers, flags
# and counts must match exactly.
REL_TOL = 1e-9
ABS_TOL = 1e-12
# A traced pass is assumed to take at most this many untraced passes when
# deciding whether it still fits the time budget.
TRACE_ALLOWANCE = 1.5
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=int, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--update-reference", action="store_true",
                        help=f"store this run's results as the seed-{REFERENCE_SEED} reference")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.update_reference and args.seed != REFERENCE_SEED:
        parser.error(f"--update-reference needs --seed {REFERENCE_SEED}")
    return args


def _cap_threads() -> int:
    """Cap BLAS threads at the usable core count; the package's own fan-out stays off."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        current = os.environ.get(var, "")
        if not current.isdigit() or not 1 <= int(current) <= nproc:
            os.environ[var] = str(nproc)
    os.environ.pop("OFFSET_RISK_THREADS", None)
    return nproc


def _import_package():
    """Import the checkout's own package; refuse to fall back to another copy."""
    if not (SRC / "offset_risk" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {SRC / 'offset_risk'}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import offset_risk

    if Path(offset_risk.__file__).resolve().parent != (SRC / "offset_risk").resolve():
        raise SystemExit(f"error: imported offset_risk from {offset_risk.__file__}")
    import workloads

    return workloads


def _units() -> dict[str, str]:
    """Unit of every metric, end-to-end and per-layer, as BENCHMARK.json gives it."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in (*spec["end_to_end"], *spec["per_layer"])}


def _machine(nproc: int) -> dict:
    import numpy as np

    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "OFFSET_RISK_THREADS": os.environ.get("OFFSET_RISK_THREADS", "unset"),
        "machine": platform.machine(),
        "cpu": _cpu_model(),
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


# -- passes --------------------------------------------------------------------


class Pass:
    """One timed pass over every task, followed by the untimed checks."""

    def __init__(self, tasks, tracer=None, build_s=0.0):
        self.build_s = build_s  # time taken to make ``tasks``, not part of wall_s
        raw = []
        self.kinds = [task.kind for task in tasks]
        self.task_s = []
        if tracer is not None:
            tracer.install()
        try:
            for index, task in enumerate(tasks):
                if tracer is not None:
                    tracer.task_id = index
                t_task = time.perf_counter()
                try:
                    raw.append((task.run(), None))
                except Exception as exc:  # a raising task is a failed task
                    raw.append((None, f"raised {type(exc).__name__}: {exc}"))
                self.task_s.append(time.perf_counter() - t_task)
            self.wall_s = math.fsum(self.task_s)
        finally:
            if tracer is not None:
                tracer.uninstall()
        self.results: dict = {}
        self.failures: dict = {}  # task name -> (kind, reason)
        for task, (out, err) in zip(tasks, raw):
            if err is None:
                try:
                    self.results[task.name], err = task.check(out)
                except Exception as exc:  # outputs that cannot be read back
                    err = f"check raised {type(exc).__name__}: {exc}"
            if err is not None:
                self.failures[task.name] = (task.kind, err)
        self.digest = hashlib.sha256(
            json.dumps(self.results, sort_keys=True).encode("utf-8")
        ).hexdigest()

    def kind_s(self) -> dict:
        """Time spent per check kind in this pass."""
        out: dict = {}
        for kind, seconds in zip(self.kinds, self.task_s):
            out[kind] = out.get(kind, 0.0) + seconds
        return out


def _built_pass(build, index: int) -> Pass:
    t_build = time.perf_counter()
    tasks = build(index)
    return Pass(tasks, build_s=time.perf_counter() - t_build)


def _run_passes(build, seconds: float, warmup: bool, traced_tail: bool) -> list:
    """Untimed warm-up pass if asked for, then timed untraced passes.

    ``build(i)`` makes the tasks of pass i; every pass gets inputs of its own.
    The passes run for about ``seconds`` seconds, counted from the start of
    the process. On the workloads that ask for it, the warm-up pass lets lazy
    set-up finish and the process heap reach its working size before the
    first timed pass: the first pass of the aggregate commands is slower than
    the next, those of the other workloads are not. The warm-up pass is
    checked like any other, but its time is left out of ``wall_s``.
    Returns every pass, the warm-up pass first when there is one.
    """
    passes = [_built_pass(build, 0)] if warmup else []
    timed = []
    while True:
        timed.append(_built_pass(build, len(passes)))
        passes.append(timed[-1])
        typical = statistics.median(p.wall_s + p.build_s for p in timed)
        reserve = TRACE_ALLOWANCE * typical if traced_tail else 0.0
        if time.perf_counter() - _T0 + typical + reserve > seconds:
            return passes


# -- reference -----------------------------------------------------------------


def _mismatches(ref, got, path: str = "") -> list[str]:
    """Paths where ``got`` departs from ``ref``: ints exactly, floats within tolerance."""
    if isinstance(ref, dict) and isinstance(got, dict):
        if set(ref) != set(got):
            return [f"{path}: keys differ"]
        out = []
        for key in sorted(ref):
            out += _mismatches(ref[key], got[key], f"{path}/{key}")
        return out
    if isinstance(ref, list) and isinstance(got, list):
        if len(ref) != len(got):
            return [f"{path}: length {len(got)} != {len(ref)}"]
        out = []
        for i, (a, b) in enumerate(zip(ref, got)):
            out += _mismatches(a, b, f"{path}[{i}]")
        return out
    if isinstance(ref, float) or isinstance(got, float):
        if isinstance(ref, bool) or isinstance(got, bool):
            return [] if ref == got else [f"{path}: {got!r} != {ref!r}"]
        if math.isclose(float(got), float(ref), rel_tol=REL_TOL, abs_tol=ABS_TOL):
            return []
        return [f"{path}: {got!r} != {ref!r}"]
    return [] if ref == got and type(ref) is type(got) else [f"{path}: {got!r} != {ref!r}"]


def _reference_check(workload: str, results: dict, counters: dict | None,
                     update: bool) -> list[str]:
    path = REFERENCE_DIR / f"{workload}.json"
    doc = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    if update:
        doc["seed"] = REFERENCE_SEED
        doc["results"] = results
        if counters is not None:
            doc["counters"] = counters
        REFERENCE_DIR.mkdir(exist_ok=True)
        path.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n",
                        encoding="utf-8")
        return []
    if "results" not in doc:
        return [f"no stored reference in {path.name}"]
    problems = _mismatches(doc["results"], results, "results")
    if counters is not None:
        if "counters" not in doc:
            problems.append(f"no stored counters in {path.name}")
        else:
            problems += _mismatches(doc["counters"], counters, "counters")
    return problems


# -- one workload ----------------------------------------------------------------


def _verdict(passes) -> tuple[int, int, list[str]]:
    """(attempted, failed, reasons the run is not correct)."""
    from workloads import ALLOWED_MISS_SHARE

    attempts: dict[str, int] = {}
    misses: dict[str, list[str]] = {}
    for p in passes:
        for kind in p.kinds:
            attempts[kind] = attempts.get(kind, 0) + 1
        for name, (kind, reason) in p.failures.items():
            misses.setdefault(kind, []).append(f"{name}: {reason}")
    problems = []
    for kind, found in misses.items():
        if len(found) > math.floor(ALLOWED_MISS_SHARE.get(kind, 0.0) * attempts[kind]):
            problems.append(f"{len(found)}/{attempts[kind]} {kind} tasks failed ({found[0]})")
    attempted = sum(attempts.values())
    failed = sum(len(found) for found in misses.values())
    return attempted, failed, problems


def run_workload(args, nproc: int) -> int:
    wl = _import_package()
    from tracer import DETERMINISTIC_COUNTERS, Tracer, layer_metrics

    import_s = time.perf_counter() - _T0
    units = _units()
    machine = _machine(nproc)
    warmup = args.workload in wl.WARMUP
    workdir = TMP_DIR / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)

    def build(pass_index):
        return wl.build(args.workload, args.seed, pass_index, workdir)

    tracer = traced = None
    try:
        all_passes = _run_passes(build, args.seconds, warmup, traced_tail=bool(args.trace))
        first, passes = all_passes[0], all_passes[int(warmup):]
        if args.trace:
            # Trace the first timed pass again, building its inputs under the
            # tracer too (that is where ``instances`` is called), so the
            # counters and the results digest can be compared run to run.
            tracer = Tracer().install()
            tracer.task_id = -2
            try:
                tasks = build(int(warmup))
            finally:
                tracer.uninstall()
            traced = Pass(tasks, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    untraced_wall = statistics.median(p.wall_s for p in passes)
    # Set-up is paid once per run for the imports and once per pass for the
    # inputs; the median over the passes stands for the latter.
    setup_s = import_s + statistics.median(p.build_s for p in all_passes)
    attempted, failed, problems = _verdict([*all_passes, *([traced] if traced else [])])
    if traced is not None and traced.digest != passes[0].digest:
        problems.append("results differ with tracing on and off")
    kind_s = [p.kind_s() for p in passes]
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine, "tasks": len(first.kinds),
              "import_s": import_s, "build_s": [p.build_s for p in all_passes],
              "pass_walls_s": [p.wall_s for p in passes],
              "digests": [p.digest for p in all_passes],
              "kind_s": {k: statistics.median(d[k] for d in kind_s) for k in kind_s[0]},
              "failures": {f"pass{i}/{name}": reason
                           for i, p in enumerate(all_passes)
                           for name, (_, reason) in p.failures.items()}}
    if warmup:
        record.update(warmup_wall_s=first.wall_s, warmup_kind_s=first.kind_s())
    counters = None
    if traced is not None:
        layer = layer_metrics(tracer)
        layer["trace.overhead_frac"] = traced.wall_s / untraced_wall - 1.0
        counters = {name: layer[name] for name in DETERMINISTIC_COUNTERS}
        metrics = {name: {"value": value, "unit": units[name]} for name, value in layer.items()}
        record.update(traced_wall_s=traced.wall_s, skipped_by_tracer=tracer.skipped,
                      functions=tracer.summary()["functions"])
    else:
        pass_frac = (attempted - failed) / attempted
        values = {
            "wall_s": untraced_wall,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "pass_frac": pass_frac,
        }
        metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    if args.seed == REFERENCE_SEED:
        problems += _reference_check(args.workload, first.results, counters,
                                     args.update_reference)
    record.update(metrics=metrics, problems=problems, attempted=attempted, failed=failed)
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n",
                                         encoding="utf-8")
    if tracer is not None:
        tracer.save(stem.with_suffix(".spans.npz"))

    for problem in problems:
        print(f"# problem: {problem}")
    print(f"# machine: {json.dumps(machine, sort_keys=True)}")
    print(f"# {args.workload}: {'warm-up and ' if warmup else ''}{len(passes)} timed passes of "
          f"{len(first.kinds)} tasks, fail_frac {failed / attempted:.4g} ({failed}/{attempted})")
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0



# -- every workload ----------------------------------------------------------------


def run_all(args) -> int:
    """Run each workload in its own process and print every metric by name."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            print(f"# {workload}: exit code {proc.returncode}", file=sys.stderr)
            return 1
        for line in lines[:-1]:
            print(line)
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = _parse_args(argv)
    nproc = _cap_threads()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args, nproc)


if __name__ == "__main__":
    sys.exit(main())
