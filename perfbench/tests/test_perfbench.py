"""Tests of the benchmark itself: metric names, output check, tracer robustness.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import bispade as bp  # noqa: E402
import bispade.cli  # noqa: E402
import layers  # noqa: E402
import make_truth  # noqa: E402
import worker  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int) -> tuple[int, dict]:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    return done.returncode, json.loads(done.stdout.strip().splitlines()[-1])


def test_declared_workloads_are_the_benchmarks():
    assert [w["name"] for w in DECLARED["workloads"]] == list(wl.WORKLOADS)


@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_emits_declared_metrics(workload, trace):
    rc, result = _run(workload, trace)
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert rc == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(result["metrics"][m["name"]]["value"], (int, float))


def test_run_refuses_a_tree_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep_k12", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def _estimate_output(tmp_path: Path) -> tuple[wl.Workload, Path, list[float]]:
    workload = wl.WORKLOADS["estimate_cal"].smoke()
    files = wl.write_counts_files(workload, wl.true_probabilities(workload, np), 3, 0,
                                  tmp_path / "in", np)
    out = tmp_path / "out"
    assert bispade.cli.main(wl.estimate_argv(workload, files) + ["--out-dir", str(out)]) == 0
    return workload, out, wl.bound_sd(workload)


def _corrupt(path: Path, row: int, edit) -> None:
    lines = path.read_text().splitlines()
    data = [i for i, line in enumerate(lines) if line and not line.startswith("#")][1:]
    lines[data[row]] = edit(lines[data[row]])
    path.write_text("\n".join(lines) + "\n")


def test_check_accepts_a_good_estimate_table(tmp_path):
    workload, out, sd = _estimate_output(tmp_path)
    result = wl.check_job(workload, 0, out, sd)
    assert (result.attempted, result.failed, result.problems) == (3, 0, [])
    assert len(result.accuracy) == 3


@pytest.mark.parametrize("edit", [
    lambda row: row[: len(row) // 2],  # truncated row
    lambda row: ",".join([row.split(",")[0], "nan", *row.split(",")[2:]]),  # NaN d_hat
    lambda row: ",".join([row.split(",")[0], "2.5", "5.0", *row.split(",")[3:]]),  # out of bounds
    lambda row: ",".join(row.split(",")[:5] + ["error:singular"]),  # error row
])
def test_check_rejects_a_corrupted_estimate_row(tmp_path, edit):
    workload, out, sd = _estimate_output(tmp_path)
    _corrupt(out / "estimates.csv", 1, edit)
    result = wl.check_job(workload, 0, out, sd)
    assert result.failed == 1 and result.problems


def test_check_rejects_a_short_table_and_a_failed_exit(tmp_path):
    workload, out, sd = _estimate_output(tmp_path)
    assert wl.check_job(workload, 2, out, sd).failed == workload.fits_per_job
    lines = (out / "estimates.csv").read_text().splitlines()
    (out / "estimates.csv").write_text("\n".join(lines[:-1]) + "\n")
    assert wl.check_job(workload, 0, out, sd).failed == workload.fits_per_job


def test_check_rejects_a_nan_std_err_in_compare(tmp_path):
    workload = wl.WORKLOADS["sweep_k12"].smoke()
    out = tmp_path / "out"
    argv = wl.compare_argv(workload) + ["--seed", "5", "--out-dir", str(out)]
    assert bispade.cli.main(argv) == 0
    sd = wl.bound_sd(workload)
    assert wl.check_job(workload, 0, out, sd).failed == 0
    _corrupt(out / "compare.csv", 0,
             lambda row: ",".join(row.split(",")[:3] + ["nan"] + row.split(",")[4:]))
    assert wl.check_job(workload, 0, out, sd).failed == workload.trials


@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
def test_stored_truth_matches_the_program(workload):
    # fails when the forward map or fisher_numeric changes what they compute;
    # then either the change is wrong or truth.json must be rewritten on purpose
    stored = wl.truth(wl.WORKLOADS[workload])
    now = make_truth.compute(wl.WORKLOADS[workload], bp, np)
    assert stored.keys() == now.keys()
    for key in stored:
        np.testing.assert_allclose(now[key], stored[key], rtol=1e-6, atol=1e-12)


def test_worker_starts_no_job_past_its_deadline(tmp_path):
    workload = wl.WORKLOADS["sweep_k12"].smoke()
    spec = {"pool": [wl.compare_argv(workload)], "seeds": wl.job_seeds(workload, 1, 3),
            "out_root": str(tmp_path), "min_jobs": 3, "max_jobs": 3, "seconds": 0.0,
            "deadline_s": 0.0, "sample_during_jobs": False}
    jobs = worker.run_jobs(spec)
    assert [job["index"] for job in jobs] == [0] and jobs[0]["rc"] == 0


def test_tracer_counts_calls_into_a_layer_and_restores_it():
    model = bp.SchmidtModel.from_gamma(0.15)
    space = bp.ModeSpace.grid()
    original = bispade.model.displaced_overlap
    tracer = Tracer()
    tracer.install()
    try:
        bp.model.prob_matrix(0.3, space, model)
    finally:
        tracer.uninstall()
    assert bispade.model.displaced_overlap is original
    assert tracer.counts["model.prob_matrix"] == 1
    # 49 projections x two signs; the m > n recursion stays inside the outer call
    assert tracer.counts["overlap.displaced_overlap"] == 98
    values = layers.metrics(tracer.record())
    assert values["model.prob_matrix_calls"] == (1, "count")
    assert values["inference.mle_estimate_ms_p50"] == (None, "ms")


def test_tracer_survives_a_public_name_that_disappeared(monkeypatch):
    # callers keep their own binding, as after a refactor that stops exporting these
    monkeypatch.delattr(bispade.specfun, "laguerre")
    monkeypatch.delattr(bispade.specfun, "hg1d_batch")
    tracer = Tracer()
    tracer.install()
    try:
        bp.model.prob_matrix(0.3, bp.ModeSpace.grid(), bp.SchmidtModel.from_gamma(0.15))
    finally:
        tracer.uninstall()
    assert {"specfun.laguerre", "specfun.hg1d_batch"} <= set(tracer.absent)
    values = layers.metrics(tracer.record())
    assert values["specfun.laguerre_calls"] == (0, "count")
    assert values["model.pixel_probs_spdc_us_p50"] == (None, "us")
    assert values["model.prob_matrix_calls"] == (1, "count")
    assert values["overlap.displaced_overlap_calls"] == (98, "count")
