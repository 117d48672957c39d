"""Benchmark harness for bfoutage.

Run one workload from the repository root; the last line of standard output
is the JSON result:

    python3 bench/run.py --workload verify --seed 1 --seconds 25 --trace 0

With --trace 0 the run reports the end-to-end metrics of BENCHMARK.json; with
--trace 1 it reports the per-layer metrics from a traced pass.  Every run also
writes a record (metadata, per-operation outcomes and, when traced, all spans)
to bench/out/.  See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread: the Monte Carlo workers are the only parallelism.
# Set before numpy is first imported, here and in every child process.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

SETUP_REPS = 8  # fresh-process imports before and again after the passes
POINT_REPS = 3  # fresh-process CLI single points per traced run
KERNEL_REPS = 5  # timed sweeps over each kernel element set
CHILD_TIMEOUT_S = 60

#: Fresh-process single point for cli.point_s.
POINT_ARGV = ("analytic", "--scheme", "miso-pbf", "--nt", "4", "--snr-db", "10",
              "--rho", "0.9", "--eval", "closed,quadrature")


def _linspace(a: float, b: float, n: int) -> list[float]:
    return [a + (b - a) * k / (n - 1) for k in range(n)]


#: Kernel micro-measure: (half_dof, half_noncentrality, half_argument)
#: triples shaped like the quadrature grids at 10 dB, where half_argument is
#: the outage threshold beta (6.3 at rho 0.9, 60.3 at rho 0.99) and the
#: noncentrality sweeps mu * gain, on either side of the delta = 700 switch
#: between the vectorized grid path and the per-element scalar fallback.
KERNEL_SETS = {
    "delta-lt-700": [(1, dv, 6.3) for dv in _linspace(0.5, 128.0, 24)]
    + [(4, dv, 60.3) for dv in _linspace(1.0, 690.0, 24)],
    "delta-gt-700": [(1, dv, 60.3) for dv in _linspace(710.0, 1500.0, 24)]
    + [(4, dv, 60.3) for dv in _linspace(710.0, 1500.0, 24)],
}


def _timed_child(argv: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    start = time.perf_counter()
    proc = subprocess.run(argv, env=dict(os.environ, PYTHONPATH=str(SRC)), cwd=ROOT,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=False)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[1:]} exited {proc.returncode}: {proc.stderr.strip()}")
    return elapsed, proc


def measure_setup(warm_up: bool = False) -> list[float]:
    """Times for SETUP_REPS fresh interpreters to import the package; with
    warm_up, after one discarded import that fills the bytecode cache.
    Not scaled by the calibration kernel, which runs in this process and not
    in the importing child: scaled, their run-to-run spread was wider."""
    argv = [sys.executable, "-c", "import bfoutage, bfoutage.cli"]
    if warm_up:
        _timed_child(argv)
    return [_timed_child(argv)[0] for _ in range(SETUP_REPS)]


def measure_cli_point() -> float:
    argv = [sys.executable, "-m", "bfoutage.cli", *POINT_ARGV]
    times = []
    for _ in range(POINT_REPS):
        elapsed, proc = _timed_child(argv)
        if len(proc.stdout.splitlines()) != 3:
            raise RuntimeError(f"unexpected single-point output: {proc.stdout!r}")
        times.append(elapsed)
    return statistics.median(times)


def measure_kernel() -> dict[str, float]:
    """Microseconds per element of the public scalar kernel on each set."""
    from bfoutage import specfun

    out = {}
    for name, elements in KERNEL_SETS.items():
        times = []
        for _ in range(KERNEL_REPS):
            start = time.perf_counter()
            for d, delta, beta in elements:
                specfun.noncentral_chi2_cdf(d, delta, beta)
            times.append(time.perf_counter() - start)
        out[f"specfun.ncx2.us_per_elem.{name}"] = 1e6 * statistics.median(times) / len(elements)
    return out


def metadata() -> dict:
    import numpy
    import scipy

    files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    loc = 0
    for path in files:
        data = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        loc += data.count(b"\n")
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_loc": loc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def _values(result) -> list[tuple]:
    return [(o.name, o.values) for o in result.outcomes]


def run_untraced(name: str, seed: int, seconds: float) -> dict:
    """Whole passes of the workload until another would overrun the budget
    (at least one); timings are medians over passes.  Passes are timed on a
    calibrated clock and reported at the reference machine speed (see
    calibration.py).  Set-up is sampled before and after the passes, so its
    median spans the whole run."""
    from calibration import CalibratedClock, checkpoints
    from tracing import NullTracer
    from workloads import WORKLOADS

    setup = measure_setup(warm_up=True)
    run = WORKLOADS[name](seed)
    clock = CalibratedClock()
    passes = []
    begin = time.perf_counter()
    with checkpoints(clock):
        while True:
            start = time.perf_counter()
            clock.begin()
            result = run(NullTracer())
            clock.checkpoint()
            passes.append({"result": result, "wall_s": sum(clock.scaled_s),
                           "wall_raw_s": sum(clock.raw_s), "stretches": len(clock.stretches),
                           "calibration_s": statistics.median(clock.calibration_s)})
            longest = time.perf_counter() - start
            if time.perf_counter() - begin + longest > seconds:
                break
    setup += measure_setup()
    first = passes[0]["result"]
    errors = list(first.errors)
    if any(_values(p["result"]) != _values(first) for p in passes[1:]):
        errors.append("repeated passes returned different outputs")
    failed = sum(not o.ok for o in first.outcomes)
    attempted = len(first.outcomes)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "pass_frac": (attempted - failed) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    info = {"wall_raw_s": statistics.median(p["wall_raw_s"] for p in passes),
            "passes": [{k: v for k, v in p.items() if k != "result"} for p in passes],
            "setup_s": setup, "failed_frac": f"{failed}/{attempted}"}
    if first.mc_trials:
        # mc-arbiter passes are Monte Carlo but for 7 closed forms of ~1 ms.
        info["mc_trials_per_s"] = statistics.median(
            p["result"].mc_trials / p["wall_raw_s"] for p in passes)
    return {"first": first, "errors": errors, "metrics": metrics, "info": info}


def run_traced(name: str, seed: int) -> dict:
    """One untraced pass, then the same pass traced.  The tracing overhead
    is the difference in pass time, and both passes must return identical
    outputs."""
    import tracing
    from workloads import WORKLOADS, grid_points, mc_points

    run = WORKLOADS[name](seed)
    start = time.perf_counter()
    base = run(tracing.NullTracer())
    untraced_s = time.perf_counter() - start

    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        start = time.perf_counter()
        result = run(tracer)
        traced_s = time.perf_counter() - start
    errors = list(result.errors)
    identical = _values(result) == _values(base)
    if not identical:
        errors.append("traced pass returned different outputs than the untraced pass")

    one_worker_spans = []
    if name == "mc-arbiter":
        # Same trials on one worker: the outage counts must not change.
        single = tracing.Tracer()
        with tracing.installed(single):
            one = run(single, workers=1)
        one_worker_spans = single.spans
        result.outcomes = [
            o if o.values[0] == o1.values[0] else replace(
                o, ok=False, detail=f"{o.detail}; 1-worker count {o1.values[0]} differs")
            for o, o1 in zip(result.outcomes, one.outcomes)
        ]

    metrics = tracing.layer_metrics(tracer, tracer.spans + one_worker_spans,
                                    [p[0] for p in mc_points()],
                                    [p[0] for p in grid_points()])
    metrics.update(measure_kernel())
    metrics["cli.point_s"] = measure_cli_point()
    metrics["trace.overhead_s"] = traced_s - untraced_s
    info = {"untraced_wall_s": untraced_s, "traced_wall_s": traced_s,
            "outputs_identical": identical,
            "spans": tracing.span_rows(tracer.spans), "counts": dict(tracer.counts),
            "one_worker_spans": tracing.span_rows(one_worker_spans)}
    return {"first": result, "errors": errors, "metrics": metrics, "info": info}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "bfoutage" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: run from a bfoutage checkout; {SRC / 'bfoutage'} or {spec_path} "
              "is missing", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    meta = metadata()
    if args.trace:
        run = run_traced(args.workload, args.seed)
    else:
        run = run_untraced(args.workload, args.seed, args.seconds)

    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(run["metrics"]) != set(units):
        missing = sorted(set(units) ^ set(run["metrics"]))
        raise RuntimeError(f"measured metrics do not match BENCHMARK.json: {missing}")
    first = run["first"]
    result = {
        "correct": not run["errors"],
        "attempted": len(first.outcomes),
        "failed": sum(not o.ok for o in first.outcomes),
        "metrics": {k: {"value": float(run["metrics"][k]), "unit": units[k]} for k in units},
    }

    OUT_DIR.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "meta": meta, "result": result, "errors": run["errors"],
              "outcomes": [[o.name, o.ok, o.detail] for o in first.outcomes],
              **run["info"]}
    record_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record) + "\n")

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}; "
          f"record {record_path.relative_to(ROOT)}")
    for error in run["errors"]:
        print(f"INCORRECT: {error}")
    for outcome in first.outcomes:
        if not outcome.ok:
            print(f"failed: {outcome.name}  [{outcome.detail}]")
    print(f"failed_frac = {result['failed']}/{result['attempted']}")
    for key, unit in (("wall_raw_s", "s"), ("mc_trials_per_s", "1/s"), ("untraced_wall_s", "s"),
                      ("traced_wall_s", "s")):
        if key in run["info"]:
            print(f"{key} = {run['info'][key]:.6g} {unit}")
    if args.trace:
        print(f"traced outputs identical to untraced: {run['info']['outputs_identical']}")
    for key, metric in result["metrics"].items():
        print(f"{key} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
