"""One benchmark process: set up bispade, then run command-line jobs through it.

Started by run.py with the checkout's ``src`` on PYTHONPATH; never imported by
it. Two uses:

  worker.py --setup-only --spec SPEC   print the cold set-up time and a reference time
  worker.py --spec SPEC --report OUT   run the jobs and write a JSON report

Nothing but the standard library is imported before the set-up clock starts,
so set-up includes importing bispade and numpy. Slices of the reference
kernel run before, during and after each job (reference.Sampler); their time
is taken off the job's time.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import reference
import workloads


def set_up(spec: dict) -> float:
    """Import bispade, build the workload's forward maps and evaluate each once."""
    start = time.perf_counter()
    import bispade as bp
    import bispade.cli  # noqa: F401  (the entry point every job runs through)

    model = bp.SchmidtModel.from_gamma(spec["gamma"])
    forwards = [bp.spade_forward(model, bp.ModeSpace.grid(spec["modes_k"], spec["modes_l"]))]
    if spec["command"] == "compare":
        grid = bp.PixelGrid()
        forwards += [bp.direct_forward(model, grid, kind) for kind in ("gaussian", "spdc")]
    for forward in forwards:
        forward(spec["probe_d"])
    return time.perf_counter() - start


def run_jobs(spec: dict, tracer=None) -> list[dict]:
    """Run jobs in order until min_jobs are done and `seconds` have passed.

    Past `deadline_s` no further job starts, even short of min_jobs, so that a
    slow program still ends in time and reports the jobs it finished.
    """
    from bispade import cli

    jobs = []
    sampler = reference.Sampler(periodic=spec["sample_during_jobs"])
    budget_start = time.perf_counter()
    for index in range(spec["max_jobs"]):
        elapsed = time.perf_counter() - budget_start
        if index and elapsed >= spec["deadline_s"]:
            break
        if index >= spec["min_jobs"] and elapsed >= spec["seconds"]:
            break
        argv = workloads.job_argv(spec, index)
        workloads.job_out_dir(spec, index).mkdir(parents=True, exist_ok=True)
        sink = io.StringIO()
        with sampler:
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(sink):
                    if tracer is None:
                        rc = cli.main(argv)
                    else:
                        with tracer.span("cli.main"):
                            rc = cli.main(argv)
            except Exception:  # a crash fails this job's fits; the run goes on
                traceback.print_exc()
                rc = -1
            seconds = time.perf_counter() - start - sampler.inside
        jobs.append({"index": index, "rc": rc, "seconds": seconds, "ref_s": sampler.kernel_s()})
    return jobs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--spec", required=True)
    parser.add_argument("--report")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    spec = json.loads(Path(args.spec).read_text())

    setup_s = set_up(spec)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s,
                          "ref_s": 0.5 * (reference.timed() + reference.timed())}))
        return 0
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        jobs = run_jobs(spec, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    report = {
        "setup_s": setup_s,
        "jobs": jobs,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "trace": None if tracer is None else tracer.record(),
    }
    Path(args.report).write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
