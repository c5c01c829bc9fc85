#!/usr/bin/env python3
"""Benchmark of the bispade command line, end to end and layer by layer.

Run from the root of a checkout:

  python3 perfbench/run.py --workload sweep_k12 --seed 1 --seconds 20 --trace 0

With --trace 0 it measures set-up (seven fresh processes, median), then runs
the workload's jobs through ``bispade.cli.main`` in one fresh process for
--seconds (and at least the workload's min_jobs), checks every output table
and prints the end-to-end metrics. No job starts so late that the run could
overrun RUN_LIMIT_S; jobs a slow program did not reach are not attempted and
are counted in the "info" line. Times are normalized by the reference
kernel (reference.py) timed next to them, so fits_per_s and setup_s read as on
a machine where that kernel takes reference.NOMINAL_S; the raw figures are in
the "info" line. With --trace 1 it runs the first min_jobs/2 jobs
twice in fresh processes, untraced and then traced, checks that both wrote
identical tables, prints the per-layer metrics and writes the spans to
.perfbench_out/. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. The exit code is 0 only when
every fit passed the output check.
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
from pathlib import Path

import layers
import reference
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 7
MAX_JOBS = 1000
SETUP_KEYS = ("command", "gamma", "modes_k", "modes_l", "probe_d")
RUN_LIMIT_S = 170.0  # a run must end within 180 s
# no job starts later than this before the limit: room for the job then running
# (a sweep_k51 job takes about 5 s on a 2-core x86 box) and for checking the tables
JOB_MARGIN_S = 30.0
# share of the time left that the untraced half of a traced run may take
PLAIN_SHARE = 0.4
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(Exception):
    """A worker process failed or ran out of time."""


def environment(workload: str, seed: int, env: dict) -> dict:
    import numpy

    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = done.stdout.strip() or None
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "threads": {name: env.get(name) for name in THREAD_VARS},
        "git_commit": commit,
        "src_sha256": wl.src_digest(ROOT / "src"),
    }


def worker_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # one process and no library threads: the box is shared and has two cores
    for name in THREAD_VARS:
        env.setdefault(name, "1")
    return env


def run_worker(args: list[str], env: dict, limit: float) -> str:
    """Run worker.py; `limit` is the perf_counter time by which it must have ended."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, limit - time.perf_counter()))
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        raise BenchError(f"worker timed out after {exc.timeout:.0f} s") from exc
    if done.stderr:
        sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise BenchError(f"worker exited with code {done.returncode}")
    return done.stdout


def prepare(workload: wl.Workload, seed: int, work: Path, seconds: float, min_jobs: int,
            max_jobs: int, sample_during_jobs: bool) -> tuple[dict, list[float]]:
    """Inputs from the seed, written before any clock starts, plus the bound per separation."""
    import numpy as np

    if workload.command == "compare":
        pool = [wl.compare_argv(workload)]
        seeds = wl.job_seeds(workload, seed, max_jobs)
    else:
        probabilities = wl.true_probabilities(workload, np)
        pool = [wl.estimate_argv(workload, wl.write_counts_files(
                    workload, probabilities, seed, job, work / "in" / f"set{job:02d}", np))
                for job in range(workload.min_jobs)]
        seeds = None
    spec = {
        "command": workload.command,
        "gamma": workload.gamma,
        "modes_k": wl.MODES_K,
        "modes_l": wl.MODES_L,
        "probe_d": workload.separations[0],
        "seconds": seconds,
        "min_jobs": min_jobs,
        "max_jobs": max_jobs,
        "sample_during_jobs": sample_during_jobs,
        "pool": pool,
        "seeds": seeds,
        "out_root": str(work / "out"),
    }
    return spec, wl.bound_sd(workload)


def execute(workload: wl.Workload, spec: dict, sd: list[float], work: Path, env: dict,
            limit: float, share: float = 1.0, trace: bool = False) -> dict:
    """One fresh worker process over the spec's jobs, then the check of every job it ran.

    Jobs start only within `share` of the time left before `limit`, less JOB_MARGIN_S.
    """
    spec_path = work / "spec.json"
    report_path = work / "report.json"
    left = limit - time.perf_counter()
    spec_path.write_text(json.dumps({**spec, "deadline_s": share * (left - JOB_MARGIN_S)}))
    run_worker(["--spec", str(spec_path), "--report", str(report_path)]
               + (["--trace"] if trace else []), env, limit)
    report = json.loads(report_path.read_text())
    attempted = failed = 0
    accuracy, problems, rates, norm_rates, tables = [], [], [], [], []
    for job in report["jobs"]:
        out_dir = wl.job_out_dir(spec, job["index"])
        result = wl.check_job(workload, job["rc"], out_dir, sd)
        attempted += result.attempted
        failed += result.failed
        problems += result.problems
        if job["index"] < workload.min_jobs:
            accuracy += result.accuracy
        rates.append(result.attempted / job["seconds"])
        norm_rates.append(rates[-1] * job["ref_s"] / reference.NOMINAL_S)
        tables.append([path.read_bytes() for path in sorted(out_dir.glob("*.csv"))])
        shutil.rmtree(out_dir, ignore_errors=True)
    report.update(attempted=attempted, failed=failed, accuracy=accuracy, problems=problems,
                  rates=rates, norm_rates=norm_rates, tables=tables,
                  unfinished=max(0, spec["min_jobs"] - len(report["jobs"])))
    return report


def end_to_end(workload: wl.Workload, seed: int, seconds: float, work: Path, env: dict,
               limit: float):
    spec, sd = prepare(workload, seed, work, seconds, workload.min_jobs, MAX_JOBS, True)
    setup_spec = work / "setup.json"
    setup_spec.write_text(json.dumps({k: v for k, v in spec.items() if k in SETUP_KEYS}))
    probes = [json.loads(run_worker(["--setup-only", "--spec", str(setup_spec)], env, limit))
              for _ in range(SETUP_PROBES)]
    setup = [p["setup_s"] * reference.NOMINAL_S / p["ref_s"] for p in probes]
    report = execute(workload, spec, sd, work, env, limit)
    attempted, failed = report["attempted"], report["failed"]
    metrics = {
        "fits_per_s": (statistics.median(report["norm_rates"]), "1/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (report["peak_rss_mb"], "MB"),
        "pass_frac": ((attempted - failed) / attempted, "frac"),
        "err_over_crlb": (wl.err_over_crlb(report["accuracy"]), "ratio"),
    }
    info = {"jobs": len(report["jobs"]), "unfinished_jobs": report["unfinished"],
            "fail_frac": failed / attempted,
            "raw_fits_per_s": statistics.median(report["rates"]),
            "raw_setup_s": statistics.median(p["setup_s"] for p in probes),
            "job_rates_per_s": report["rates"], "job_ref_s": [j["ref_s"] for j in report["jobs"]]}
    return attempted, failed, report["problems"], metrics, info


def per_layer(workload: wl.Workload, seed: int, seconds: float, work: Path, env: dict,
              limit: float):
    # Half the accuracy set: the traced run needs no err_over_crlb, and the run
    # stays well inside its time limit on a slow machine. Speed is sampled only
    # between jobs, so that no span holds kernel time and both runs are alike.
    jobs = max(1, workload.min_jobs // 2)
    spec, sd = prepare(workload, seed, work, seconds, jobs, jobs, False)
    plain = execute(workload, spec, sd, work, env, limit, PLAIN_SHARE)
    traced = execute(workload, spec, sd, work, env, limit, trace=True)
    attempted = plain["attempted"] + traced["attempted"]
    failed = plain["failed"] + traced["failed"]
    problems = plain["problems"] + traced["problems"]
    both = min(len(plain["tables"]), len(traced["tables"]))
    if traced["tables"][:both] != plain["tables"][:both]:
        problems.append("the traced run wrote different tables than the untraced run")
        failed = attempted
    record = traced["trace"]
    metrics = layers.metrics(record)
    untraced_rate = statistics.median(plain["norm_rates"])
    traced_rate = statistics.median(traced["norm_rates"])
    metrics["trace.fits_per_s_untraced"] = (untraced_rate, "1/s")
    metrics["trace.fits_per_s_traced"] = (traced_rate, "1/s")
    metrics["trace.overhead_frac"] = (untraced_rate / traced_rate - 1.0, "frac")
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    trace_path = out / f"trace_{workload.name}_seed{seed}.json"
    trace_path.write_text(json.dumps({
        "env": environment(workload.name, seed, env),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        **record,
    }))
    info = {"jobs": len(traced["jobs"]),
            "unfinished_jobs": {"untraced": plain["unfinished"], "traced": traced["unfinished"]},
            "fail_frac": failed / attempted,
            "absent": sorted(name for name, (value, _) in metrics.items() if value is None),
            "trace_file": str(trace_path.relative_to(ROOT)), "spans": len(record["spans"])}
    return attempted, failed, problems, metrics, info


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="smallest scale the commands accept (for the benchmark's tests)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "bispade" / "__init__.py").is_file():
        print(f"run.py: no bispade source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = wl.WORKLOADS[args.workload]
    if args.smoke:
        workload = workload.smoke()
    env = worker_env()
    work = ROOT / ".perfbench_work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    started = time.perf_counter()
    try:
        measure = per_layer if args.trace else end_to_end
        attempted, failed, problems, metrics, info = measure(
            workload, args.seed, args.seconds, work, env, started + RUN_LIMIT_S)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    correct = failed == 0 and not problems
    print(json.dumps({"env": environment(workload.name, args.seed, env)}))
    print(json.dumps({"info": {**info, "wall_s": time.perf_counter() - started}}))
    for name, (value, unit) in metrics.items():
        print(f"{workload.name:>12}  {name:<40} {_show(value):>14} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        # the result line carries numbers only; an absent metric reads 0 here and is
        # named in the "absent" list above and null in the trace file
        "metrics": {name: {"value": 0 if value is None else value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


def _show(value) -> str:
    return "absent" if value is None else f"{value:.6g}"


if __name__ == "__main__":
    sys.exit(main())
