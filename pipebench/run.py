#!/usr/bin/env python3
"""Stage-timed benchmark of the mortboost batch pipeline.

Run from the root of a source checkout; it imports the package from src/:

    python3 pipebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py): swiss_closed_loop, walkthrough_rh, cod_5y.
Each run is one single-threaded process: BLAS and OpenMP are pinned to one
thread before numpy loads. The run repeats the workload's pass until S
seconds have gone (at least three passes) and checks every pass's outputs.

--trace 0 reports the end-to-end metrics:
  pipeline_s    median wall seconds per pass
  setup_s       median of 5 fresh processes that import the package and
                build the inputs
  peak_rss_mb   peak resident set of this process
  fit_deviance  Poisson deviance of the last model fitted, summed over genders
  ok_frac       operations that succeeded over operations attempted

--trace 1 alternates untraced and traced passes and reports the per-layer
metrics of tracer.py, medians over the traced passes, plus the traced and
untraced pass times and their difference, the tracing overhead.

Lines before the last describe the run (provenance, pass times, problems).
The last line is the result: {"correct", "attempted", "failed", "metrics"}.
"""

import os

# before numpy loads; the set-up child processes inherit it
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".pipebench_work"
REFERENCE = HERE / "reference.json"

SETUP_REPEATS = 5
MIN_PASSES = 3
# deviance may not rise above the reference by more than this share; a
# drop of more than DEVIANCE_DROP means the fit computed something else
DEVIANCE_RISE = 1e-6
DEVIANCE_DROP = 1e-3

END_TO_END = [
    ("pipeline_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("fit_deviance", "1"),
    ("ok_frac", "ratio"),
]
HARNESS_METRICS = [
    ("harness.traced_pass_s", "s"),
    ("harness.untraced_pass_s", "s"),
    ("harness.trace_overhead_s", "s"),
]

# counts at the default seeds, measured when the benchmark was defined
SEED_COUNTS = {
    "walkthrough_rh": {"rh_iterations": [109, 870], "solves": 1061, "deviance_evals": 5959},
    "swiss_closed_loop": {"splits": [93, 126, 173, 245, 311], "scan_calls_cp_5e-4": 1220},
}


def import_package():
    """Import mortboost from this checkout's src/, or exit non-zero."""
    if not (SRC / "mortboost" / "__init__.py").is_file():
        sys.exit(f"pipebench: no package source under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import mortboost

    if not Path(mortboost.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"pipebench: imported mortboost from {mortboost.__file__}, not {SRC}")
    return mortboost


def blas_threads():
    """Thread count the bundled OpenBLAS reports, or None if not found."""
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def provenance(mortboost) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads(),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "kernel_backend": getattr(mortboost, "kernel_backend", None),
    }


def time_setups(args) -> list[float]:
    """Wall seconds of fresh processes that only import and build inputs."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
            "--workload", args.workload, "--seed", str(args.seed)]
    if args.small:
        argv.append("--small")
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        child = subprocess.Popen(argv, stdout=subprocess.DEVNULL)
        # wait() with a timeout polls in sleeps of up to 50 ms, which would
        # quantise the measurement; block instead and kill from a timer
        killer = threading.Timer(120, child.kill)
        killer.start()
        try:
            code = child.wait()
        finally:
            killer.cancel()
        times.append(time.perf_counter() - start)
        if code != 0:
            raise subprocess.CalledProcessError(code, argv)
    return times


def tail_percentile(samples: list[float]) -> dict | None:
    """The highest of p75/p90/p95/p99 with at least ten samples above it."""
    best = None
    for p in (75, 90, 95, 99):
        if len(samples) * (100 - p) / 100 >= 10:
            best = {"p": p, "value": statistics.quantiles(samples, n=100)[p - 1]}
    return best


def reference_problems(ref: dict | None, outcome) -> list[str]:
    """Compare a pass against the outputs recorded when the benchmark was defined."""
    if ref is None:
        return []
    problems = []
    for name, digest in ref["digests"].items():
        got = outcome.digests.get(name)
        if got != digest:
            problems.append(f"{name}: digest {got} differs from reference {digest}")
    for g, want in ref["deviance"].items():
        got = outcome.deviance.get(g)
        if got is None or not want * (1 - DEVIANCE_DROP) <= got <= want * (1 + DEVIANCE_RISE):
            problems.append(f"{g}: deviance {got!r} not within tolerance of reference {want!r}")
    return problems


def seed_counts(workload: str, tracer) -> dict:
    if workload == "walkthrough_rh":
        return {
            "rh_iterations": [n["iterations"] for n in tracer.notes["renshawhaberman.fit_rh"]],
            "solves": tracer.calls("numpy.linalg.solve"),
            "deviance_evals": tracer.calls("renshawhaberman.poisson_surface_deviance"),
        }
    trees = tracer.scans_per_tree()
    return {
        "splits": [splits for splits, _ in trees],
        "scan_calls_cp_5e-4": trees[2][1] if len(trees) > 2 else None,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true", help="reduced grids (harness self-test)")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    mortboost = import_package()
    import tracer as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        inputs = workload.setup(args.seed, args.small, workdir)
        if args.setup_only:
            return 0
        setup_times = [] if args.trace else time_setups(args)
        ref = None
        if not args.small:
            key = "any" if workload.fixed_input else str(args.seed)
            ref = json.loads(REFERENCE.read_text()).get(args.workload, {}).get(key)

        plain, traced, layers, problems = [], [], [], []
        attempted = failed = 0
        failed_ops: dict[str, int] = {}
        first_digests = None
        deviance = None
        counts = None
        silent: set[str] = set()
        deadline = time.perf_counter() + args.seconds
        i = 0
        while True:
            with_trace = bool(args.trace) and i % 2 == 1
            passdir = workdir / f"pass{i}"
            start = time.perf_counter()
            if with_trace:
                with tracing.Tracer() as tracer:
                    raw = workload.run(inputs, passdir)
            else:
                raw = workload.run(inputs, passdir)
            elapsed = time.perf_counter() - start

            outcome = workload.check(inputs, raw, passdir)
            shutil.rmtree(passdir, ignore_errors=True)
            pass_problems = outcome.problems + reference_problems(ref, outcome)
            if first_digests is None:
                first_digests = outcome.digests
            elif outcome.digests != first_digests:
                changed = sorted(
                    k for k in set(first_digests) | set(outcome.digests)
                    if first_digests.get(k) != outcome.digests.get(k)
                )
                pass_problems.append(f"outputs differ from the first pass: {changed}")
            problems += [f"pass {i}: {p}" for p in pass_problems]
            attempted += len(outcome.ops)
            # each output-check problem is charged to one more operation
            failed += min(len(outcome.ops), len(outcome.failed_ops) + len(pass_problems))
            for name in outcome.failed_ops:
                failed_ops[name] = failed_ops.get(name, 0) + 1
            deviance = outcome.fit_deviance

            if with_trace:
                traced.append(elapsed)
                layers.append(tracing.layer_values(tracer, elapsed))
                silent |= set(tracer.silent_entries(args.workload))
                if args.workload in SEED_COUNTS and not args.small and (
                    workload.fixed_input or args.seed == 0
                ):
                    counts = seed_counts(args.workload, tracer)
            else:
                plain.append(elapsed)
            i += 1
            enough = len(plain) >= MIN_PASSES or (args.trace and traced and plain)
            if time.perf_counter() >= deadline and enough:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "small": args.small,
        "passes": {"untraced": len(plain), "traced": len(traced)},
        "pass_s_tail": tail_percentile(plain),
        "pass_s": {"untraced": plain, "traced": traced},
        "setup_s_samples": setup_times,
        # seeds without a recorded reference get structural and rerun checks only
        "reference_checked": ref is not None,
        "failed_ops": failed_ops,
        "problems": problems[:20],
        "provenance": provenance(mortboost),
    }
    if args.trace:
        info["silent_entry_points"] = sorted(silent)
        if counts is not None:
            expected = SEED_COUNTS[args.workload]
            info["seed_counts"] = {"expected": expected, "observed": counts,
                                   "match": counts == expected}
    print(json.dumps(info))

    if args.trace:
        values = {
            name: statistics.median(row[name] for row in layers)
            for name, _ in tracing.LAYER_METRICS
        }
        values["harness.traced_pass_s"] = statistics.median(traced)
        values["harness.untraced_pass_s"] = statistics.median(plain)
        values["harness.trace_overhead_s"] = (
            values["harness.traced_pass_s"] - values["harness.untraced_pass_s"]
        )
        units = tracing.LAYER_METRICS + HARNESS_METRICS
    else:
        values = {
            "pipeline_s": statistics.median(plain),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "fit_deviance": deviance,
            "ok_frac": (attempted - failed) / attempted,
        }
        units = END_TO_END
    # a failed fit leaves no deviance; JSON has no NaN
    values = {k: v if math.isfinite(v) else None for k, v in values.items()}
    result = {
        "correct": not problems and not silent,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
