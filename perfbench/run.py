"""Benchmark of the rasch-lmmse command-line interface.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload ml100k_like --seed 1 --seconds 20 --trace 0

A run sets up the workload five times, each in a fresh interpreter
(make_inputs.py: import plus seeded input files; the median CPU time is
`setup_s`).
It then times repetitions of the workload's CLI commands, each in a fresh
interpreter that calls `rasch_lmmse.cli.main(argv)` in-process (rep.py),
starting another repetition while one more fits in `--seconds` (always at
least one).  Every repetition's outputs are checked afterwards, outside
the timed section.

--trace 0 prints the end-to-end metrics: the median repetition's CPU time
(user plus system), the set-up CPU time, and the peak RSS of the processes
that ran the commands.  --trace 1 runs one untraced and one traced
repetition and prints the per-layer metrics from spans recorded around the
package's layer functions (spans.py); the spans go to .perfbench_out/.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the line before it holds
the run's record (machine, input shape, per-command times, quality
numbers, failures).  The program is imported from `src/` next to this
directory; without it the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("ml100k_like", "sim_gibbs", "sim_known_d")
SETUP_REPEATS = 5
MAX_REPS = 20
# A run must end within 180 s; no single child may use all of it.
CHILD_TIMEOUT_S = 150

# Wall time of each repetition is in the record line, not here: on a shared
# 2-vCPU VM, hypervisor steal moved the wall time of identical runs minutes
# apart by more than half, while their CPU time moved by about a tenth.
# So no bound covers a change in parallelism (thread pools, BLAS threads)
# that leaves CPU time flat; the per-layer cli.*.wall_s and
# cli.wall_per_cpu show it without a bound.
END_TO_END_UNITS = {
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics: span name -> fields.  Derived fields are computed in
# layer_metrics; the rest are span sums.
LAYER_FIELDS = {
    "specfun.binorm_cdf": ("calls", "evals", "self_s", "evals_per_s"),
    "linear_probit.sign_covariance": ("calls", "self_s"),
    "linear_probit.sparse_cy": ("calls", "self_s", "nnz"),
    "linear_probit.lmmse_fit_sparse": ("calls", "self_s"),
    "rasch.rasch_design_matrix": ("calls", "self_s"),
    "rasch.rasch_fast_lmmse_fit": ("calls", "self_s"),
    "rasch.known_difficulty_fit": ("calls", "self_s"),
    "rasch.known_difficulty_predicted_mse": ("calls", "self_s"),
    "baselines.pm_gibbs": ("calls", "steps", "self_s", "us_per_step"),
    "baselines.map_fit": ("calls", "self_s", "ms_per_call"),
    "data.load_triplets": ("calls", "rows", "self_s", "rows_per_s"),
    "experiments.run_synthetic": ("calls", "self_s", "cpu_per_wall"),
    "experiments.run_cross_validation": ("calls", "self_s", "cpu_per_wall"),
    "experiments.fit_response_set": ("calls", "self_s"),
    "cli.main": ("calls", "self_s"),
}
FIELD_UNITS = {
    "calls": "count", "evals": "count", "nnz": "count", "steps": "count",
    "rows": "count", "self_s": "s", "wall_s": "s", "evals_per_s": "1/s",
    "rows_per_s": "1/s", "us_per_step": "us", "ms_per_call": "ms",
    "cpu_per_wall": "ratio",
}
COMMAND_KINDS = ("fit", "crossval", "simulate", "analyze")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def child(script, *args):
    """Run a perfbench script in a fresh interpreter; its last stdout line as JSON."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, script), *map(str, args)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=False,
    )
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"{script} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_revision():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return {"revision": None, "dirty": None, "note": "not a git checkout"}

    def git(*args):
        return subprocess.run(["git", "-C", ROOT, *args], capture_output=True,
                              text=True, timeout=30, check=False).stdout.strip()

    status = git("status", "--porcelain", "--untracked-files=no")
    return {"revision": git("rev-parse", "HEAD") or None, "dirty": bool(status)}


def machine_record():
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version")}
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "mem_total_mb": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**20,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "git": git_revision(),
        "threads_flag": "CLI default (machine parallelism)",
    }


def layer_metrics(summary):
    metrics = {}
    for span, fields in LAYER_FIELDS.items():
        rec = summary.get(span, {})
        self_s = rec.get("self_s", 0.0)
        derived = {
            "evals_per_s": rec.get("evals", 0) / self_s if self_s else 0.0,
            "rows_per_s": rec.get("rows", 0) / self_s if self_s else 0.0,
            "us_per_step": 1e6 * self_s / rec["steps"] if rec.get("steps") else 0.0,
            "ms_per_call": 1e3 * self_s / rec["calls"] if rec.get("calls") else 0.0,
            "cpu_per_wall": rec["cpu_s"] / rec["wall_s"] if rec.get("wall_s") else 0.0,
        }
        for field in fields:
            value = derived[field] if field in derived else rec.get(field, 0)
            if FIELD_UNITS[field] == "count":
                value = int(value)
            metrics[f"{span}.{field}"] = {"value": value, "unit": FIELD_UNITS[field]}
    return metrics


def trace_metrics(untraced, traced):
    metrics = layer_metrics(traced["layers"])
    metrics["trace.overhead_ratio"] = {
        "value": traced["wall_s"] / untraced["wall_s"] - 1.0, "unit": "ratio"}
    metrics["cli.wall_per_cpu"] = {
        "value": untraced["wall_s"] / untraced["cpu_s"], "unit": "ratio"}
    metrics["cli.minor_faults"] = {"value": untraced["minor_faults"], "unit": "count"}
    for kind in COMMAND_KINDS:
        metrics[f"cli.{kind}.wall_s"] = {
            "value": sum(t for label, t, _ in untraced["commands"]
                         if label.split()[0] == kind),
            "unit": "s"}
    return metrics


def run(args):
    sys.path.insert(0, SRC)
    import workloads
    from rasch_lmmse import cli
    from rep import run_cli

    wl = workloads.WORKLOADS[args.workload]
    run_id = f"{args.workload}-s{args.seed}-p{os.getpid()}"
    work = os.path.join(ROOT, ".perfbench_work", run_id)
    in_dir = os.path.join(work, "inputs")
    trace_path = os.path.join(ROOT, ".perfbench_out", f"trace-{run_id}.json")
    record = {"workload": args.workload, "seed": args.seed, "run_id": run_id}
    checks = workloads.Checks()
    try:
        # A traced run reports no set-up time, so it sets up only once.
        setups = [child("make_inputs.py", args.workload, args.seed, in_dir, SRC)
                  for _ in range(1 if args.trace else SETUP_REPEATS)]
        record["inputs"] = setups[-1].pop("summary")
        for setup in setups[:-1]:
            del setup["summary"]
        record["setup"] = setups
        record["machine"] = machine_record()
        if args.trace:
            os.makedirs(os.path.dirname(trace_path), exist_ok=True)

        reps = []
        t_begin = time.perf_counter()
        while True:
            k = len(reps)
            traced = 1 if args.trace and k == 1 else 0
            reps.append(child("rep.py", args.workload, args.seed, in_dir,
                              os.path.join(work, f"rep{k}"), SRC, traced, run_id,
                              trace_path))
            if len(reps) >= (2 if args.trace else MAX_REPS):
                break
            per_rep = (time.perf_counter() - t_begin) / len(reps)
            if not args.trace and time.perf_counter() - t_begin + per_rep > args.seconds:
                break
        record["reps"] = [{k: v for k, v in r.items() if k != "layers"} for r in reps]

        cache = wl.prepare(args.seed, in_dir)
        for k, rep in enumerate(reps):
            checks.prefix = f"rep{k} "
            for label, _, rc in rep["commands"]:
                checks.op(label, rc == 0, f"exit {rc}")
            try:
                found = wl.check(args.seed, in_dir, os.path.join(work, f"rep{k}"),
                                 checks, cache)
            except Exception as exc:  # a broken output fails the run, not the benchmark
                traceback.print_exc()
                checks.op("outputs", False, f"{type(exc).__name__}: {exc}")
                found = {}
            record.setdefault("quality", found)
        checks.prefix = ""
        wl.extra_ops(args.seed, in_dir, work, lambda argv: run_cli(cli, argv), checks)
        record["failures"] = checks.failures

        if args.trace:
            record["layers"] = reps[1]["layers"]
            metrics = trace_metrics(*reps)
        else:
            values = {
                "cpu_s": statistics.median(r["cpu_s"] for r in reps),
                "setup_s": statistics.median(s["setup_s"] for s in setups),
                "peak_rss_mb": max(r["peak_rss_mb"] for r in reps),
            }
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in END_TO_END_UNITS.items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failures = checks.failures
    for line in failures:
        print(f"check failed: {line}", file=sys.stderr)
    print(json.dumps(record, default=str))
    print(json.dumps({
        "correct": not failures,
        "attempted": checks.attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "rasch_lmmse", "cli.py")):
        print(f"error: no program source at {SRC}/rasch_lmmse; run from a full "
              "checkout", file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
