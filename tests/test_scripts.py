"""Smoke tests of the experiment scripts, run in-process on a temporary directory."""
import hashlib
import importlib.util
import json
import re
from pathlib import Path


SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_reproduce_figures_quick(tmp_path, capsys):
    out = tmp_path / "out"
    assert _load("reproduce_figures").run(["--quick", "--out-dir", str(out)]) == 0
    written = sorted(path.name for path in out.iterdir())
    assert written == ["compare.csv", "crlb_curves.csv"] + [f"matrix_{i:02d}.csv" for i in range(5)]
    rows = [line for line in (out / "compare.csv").read_text().splitlines()
            if line and not line.startswith("#")]
    assert len(rows) == 1 + 5 * 3


def test_synthetic_estimation_run_calibrates(tmp_path, capsys):
    assert _load("synthetic_estimation_run").run(["--out-dir", str(tmp_path)]) == 0
    report = capsys.readouterr().out
    slope = float(re.search(r"calibrated: slope (\S+),", report).group(1))
    assert 0.97 <= slope <= 1.03
    assert len(list((tmp_path / "counts").glob("counts_*.csv"))) == 30


def test_output_digest_lines(capsys):
    assert _load("output_digest").run([]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert all(re.fullmatch(r"[\w./-]+ [0-9a-f]{64}", line) for line in lines)
    names = [line.split()[0] for line in lines]
    assert len(set(names)) == len(names)
    for name in ("compare-default/compare.csv", "estimate-calibrate/estimates.csv",
                 "matrices/matrix_04.csv", "crlb-curves/crlb_curves.csv", "estimate-help/stdout",
                 "compare-sweep_k51-seed3/compare.csv", "compare-seed-2-96/compare.csv",
                 "error-negative-seed/stderr"):
        assert name in names
    # a nan separation label is a data error: exit code 2
    exit_two = hashlib.sha256(b"2").hexdigest()
    assert f"error-nan-separation-label/exit {exit_two}" in lines
    # estimate at a gamma with too little in-space mass is a numerical failure: exit code 3
    exit_three = hashlib.sha256(b"3").hexdigest()
    assert f"error-estimate-numerical/exit {exit_three}" in lines
    # every reader error is a data error, and a hand-edited or reordered file is read
    digest = _load("output_digest")
    for name in digest.READER_ERRORS:
        assert f"error-counts-{name.replace('_', '-')}/exit {exit_two}" in lines
    for name in ("abc-separation-label", "unreadable-counts"):
        assert f"error-{name}/exit {exit_two}" in lines
    # a setting out of range, in a flag or a config file, or an output table that cannot
    # be written is a config error: exit code 1
    exit_one = hashlib.sha256(b"1").hexdigest()
    for name in ("negative-modes-k", "zero-sep-step", "one-trial", "sep-stop-below-start",
                 "negative-sep-start", "config-line-without-equals", "output-is-a-directory",
                 "write-fails-part-way"):
        assert f"error-{name}/exit {exit_one}" in lines
    # a write that fails part-way leaves none of the run's tables
    assert not any(name.startswith("error-write-fails-part-way/matrix_") for name in names)
    exit_zero = hashlib.sha256(b"0").hexdigest()
    assert f"estimate-hand-edited/exit {exit_zero}" in lines
    assert f"estimate-reordered/exit {exit_zero}" in lines
    assert f"estimate-config-calibrate-no/exit {exit_zero}" in lines
    assert f"compare-seed-2-96/exit {exit_zero}" in lines
    # a measurement revisited in the same process writes the same table
    digests = dict(line.split() for line in lines)
    assert (digests["compare-sweep_k12-seed1-again/compare.csv"]
            == digests["compare-sweep_k12-seed1/compare.csv"])


def test_bench_runs_every_item_once(tmp_path, monkeypatch, capsys):
    # one call per timed item and one sweep job: the timings mean nothing, but
    # every layer entry point the harness calls runs with its current signature
    bench = _load("bench")
    def once(fn, samples, calls, unit="us"):
        fn()
        return bench._summary([0.0], unit)

    monkeypatch.setattr(bench, "_time", once)
    monkeypatch.setattr(bench, "SWEEP_JOBS", range(1, 3))
    monkeypatch.setattr(bench, "ESTIMATE_JOBS", 2)
    out = tmp_path / "bench.json"
    assert bench.run(["--label", "smoke", "--out", str(out)]) == 0
    (result,) = json.loads(out.read_text())["runs"]["smoke"]
    assert len(result["layers"]) == 42 and len(result["end_to_end"]) == 2
    for item in ("inference._trial_states[18x8 trials]", "inference._cell_results[18x8 trials]",
                 "cli._read_counts_files[29 files]", "overlap._overlap_amplitudes[6]",
                 "model._pixel_probs[spdc,48]", "inference._fit[spade,1 of 48 sweep_k12 job rows]"):
        assert item in result["layers"]
    assert result["environment"]["cpu_count"] >= 1
    counts = result["counts"]
    for kind in ("direct", "spade"):
        for job in ("cold_job", "warm_job"):
            for item in ("passes", "forward_calls", "forward_rows"):
                assert counts[f"{kind}_{item}_per_sweep_k12_{job}"] > 0
        # a warm sweep job evaluates its truth rows and its fits' later passes, not
        # the grid tables a cold job builds (the passes, and so the calls, vary by seed)
        assert (counts[f"{kind}_forward_rows_per_sweep_k12_cold_job"]
                > counts[f"{kind}_forward_rows_per_sweep_k12_warm_job"] + 200)
    # a warm estimate --calibrate job evaluates its calibration rows and later passes,
    # not the grid table a cold job builds
    for item in ("calls", "rows"):
        cold = counts[f"spade_forward_{item}_per_estimate_cold_job"]
        warm = counts[f"spade_forward_{item}_per_estimate_warm_job"]
        assert cold > warm > 0
    assert counts["spade_forward_rows_per_estimate_cold_job"] > 200
    assert len(counts) == 2 * 2 * 3 + 2 * 2
