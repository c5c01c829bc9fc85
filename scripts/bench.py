#!/usr/bin/env python3
"""Time each layer of the bispade stack on fixed inputs, and two runs end to end.

The layers, bottom up: the overlap table (``overlap._overlap_amplitudes``), the
forward maps (``model._spade_probs``, ``model._pixel_probs``), the grid table
of a fresh map (``inference._ForwardMap.log_probs``, built cold on a new
``_ForwardMap(f.batch, f.shape)`` per call, because the constructors return
one shared map per measurement whose table is built once), the batched fit
(``inference._fit``), the multinomial draw (``Generator.multinomial``), the
seeding pass of a compare job (``inference._cell_masters`` and
``inference._trial_states``), the Monte-Carlo cells (``inference._mc_cells``,
on trial states seeded beforehand), their summary (``inference._cell_results``)
and the counts-file reader on 29 labeled counts files, one file per call
(``cli.read_counts_file``) and all in one batch (``cli._read_counts_files``,
as ``estimate`` reads them). End to end it times
``bispade.cli.main`` on the full default ``compare`` and on an
``estimate --calibrate`` of the same 29 files. It also counts, per map kind
(spade, direct imaging), the lockstep refinement passes of the fits and the
forward evaluations (``model._spade_probs`` and ``model._pixel_probs`` calls,
and the separations they evaluate) of ``compare`` jobs at the benchmark's
sweep_k12 setting, and the spade forward evaluations of an ``estimate
--calibrate`` job over the 29 files. Each is counted for the first job on
emptied map caches, then as the mean of more jobs in the same process: 29
more sweep jobs at other seeds, 10 more estimate jobs.

The overlap table and the forward maps are timed at 1, 6, 48 and 200
separations, and the fit at 1, 6 and 48 count rows of a sweep_k12 job
(``PASS_ROWS``): the row counts of the refinement passes in that job's fits.

Every timing uses ``time.perf_counter`` on inputs fixed in this file, after
one untimed call. A sample is the mean of a fixed number of calls. Each item
reports its sample count and median; with at least 40 samples it also
reports the highest percentile that has at least ten samples above it.

The results, with the core count, the library versions and the thread
variables, are appended to the list ``runs.<label>`` of the JSON file --out;
everything else in the file is kept. On a shared machine the medians of one
run move by tens of percent, so compare two source trees by alternating runs
of each:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=<old checkout>/src python scripts/bench.py \
        --label parent --out bench.json
    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python scripts/bench.py --label change --out bench.json
"""
import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import bispade as bp
from bispade import cli, inference, model, overlap
from bispade.cli import main as cli_main, read_counts_file, write_counts_file

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
GAMMA = 0.15
PHOTONS = 37_000
STEP = 0.0465
# the benchmark's sweep_k12 jobs: every fifth point of the default grid from 0.0465
SWEEP = ["compare", "--gamma", "0.15", "--modes-k", "6", "--modes-l", "0", "--photons",
         "37000", "--trials", "8", "--sep-start", "0.0465", "--sep-stop", "1.209",
         "--sep-step", "0.2325"]
# seeds of the counted sweep jobs: the first is the cold job, the others warm jobs
SWEEP_JOBS = range(1, 31)
# warm estimate --calibrate jobs counted after the cold one
ESTIMATE_JOBS = 10
# rows of the refinement passes of a warm sweep_k12 job's fits: 48 (its 6 cells of 8
# trials) in the first passes, then fewer, down to 1 in the last
PASS_ROWS = (1, 6, 48)


def _summary(samples: list[float], unit: str) -> dict:
    out = {"unit": unit, "samples": len(samples), "p50": statistics.median(samples)}
    if len(samples) >= 40:
        q = int(100 * (1 - 10 / len(samples)))
        out[f"p{q}"] = float(np.percentile(samples, q))
    return out


def _time(fn, samples: int, calls: int, unit: str = "us") -> dict:
    scale = {"us": 1e6, "ms": 1e3, "s": 1.0}[unit]
    fn()
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        times.append((time.perf_counter() - start) / calls * scale)
    return _summary(times, unit)


def _draws(forward, seps, trials: int, seed: int) -> np.ndarray:
    # count rows of `trials` draws at each separation of seps
    truths = forward(np.asarray(seps))
    return np.array([
        np.random.default_rng(bp.trial_seed(seed, t)).multinomial(PHOTONS,
                                                                  truth.ravel() / truth.sum())
        for truth in truths for t in range(trials)
    ], dtype=float)


def layers(files: list[Path]) -> dict:
    m = bp.SchmidtModel.from_gamma(GAMMA)
    space = bp.ModeSpace.grid()
    grid = bp.PixelGrid()
    one = np.array([0.3])
    many = np.linspace(0.0, 2.0, 200)
    # the space's largest mode order and its plan, built once as a forward map builds it
    setup = model._spade_setup(space, m.gamma)
    items = {}
    sizes = [(str(rows), np.linspace(STEP, 26 * STEP, rows)) for rows in PASS_ROWS[1:]]
    for label, d in [("1", one), *sizes, ("200", many)]:
        calls = 200 if len(d) == 1 else 50 if len(d) < 200 else 10
        items[f"overlap._overlap_amplitudes[{label}]"] = _time(
            lambda d=d: overlap._overlap_amplitudes(7, d), 100, calls)
        items[f"model._spade_probs[{label}]"] = _time(
            lambda d=d: model._spade_probs(d, *setup, True, derivative=True), 100, calls)
        for kind in ("gaussian", "spdc"):
            items[f"model._pixel_probs[{kind},{label}]"] = _time(
                lambda d=d, s=model._psf_scale(m, kind): model._pixel_probs(d, grid, s, True),
                100, calls)
    forwards = {method: inference._method_forward(method, m, space, grid)
                for method in bp.METHODS}
    for method, f in forwards.items():
        items[f"inference._ForwardMap.log_probs[{method}]"] = _time(
            lambda f=f: inference._ForwardMap(f.batch, f.shape).log_probs, 40, 2, "ms")
    for method, forward in forwards.items():
        # a sweep_k12 job's fit: 8 trials at each of its 6 separations, and the first
        # trial of each separation or of the first alone
        job = _draws(forward, STEP * np.arange(1, 27, 5), 8, seed=9)
        for rows, obs in zip(PASS_ROWS, (job[:1], job[::8], job)):
            items[f"inference._fit[{method},{rows} of 48 sweep_k12 job rows]"] = _time(
                lambda f=forward, o=obs: inference._fit(o, f), 40, 1, "ms")
        cell = _draws(forward, [STEP], 48, seed=5)
        sweep = _draws(forward, STEP * np.arange(1, 30, 4), 50, seed=6)
        items[f"inference._fit[{method},48 rows,d=0.0465]"] = _time(
            lambda f=forward, o=cell: inference._fit(o, f), 40, 1, "ms")
        items[f"inference._fit[{method},400 rows]"] = _time(
            lambda f=forward, o=sweep: inference._fit(o, f), 20, 1, "ms")
    weights = forwards["spade"](0.3).ravel()
    weights = weights / weights.sum()
    items["Generator.multinomial[49 outcomes]"] = _time(
        lambda: np.random.default_rng(12345).multinomial(PHOTONS, weights), 100, 50)
    seps = STEP * np.arange(1, 27, 5)
    # the seeding pass of a sweep_k12 job: 3 methods x 6 cells of 8 trials
    items["inference._trial_states[18x8 trials]"] = _time(
        lambda: inference._trial_states(inference._cell_masters(7, len(forwards), len(seps)), 8),
        100, 10)
    states = inference._trial_states(list(range(len(seps))), 8)
    for method, forward in forwards.items():
        items[f"inference._mc_cells[{method},6x8 trials]"] = _time(
            lambda method=method, f=forward: inference._mc_cells(method, PHOTONS, seps, states, f),
            40, 1, "ms")
    estimates = 2.0 * np.array([inference._fit(_draws(forward, seps, 8, seed=8), forward).d_hat
                                for forward in forwards.values()]).reshape(-1, 8)
    flags = estimates > 0.5
    all_seps = np.tile(seps, len(forwards))
    items["inference._cell_results[18x8 trials]"] = _time(
        lambda: inference._cell_results("spade", PHOTONS, all_seps, estimates, flags, ~flags),
        100, 10)
    items["cli.read_counts_file[29 files]"] = _time(
        lambda: [read_counts_file(path, space) for path in files], 100, 1, "ms")
    items["cli._read_counts_files[29 files]"] = _time(
        lambda: list(cli._read_counts_files(files, space)), 100, 1, "ms")
    return items


def _counts_files(directory: Path) -> list[Path]:
    # labeled counts files: d = 0.0465 k for k = 1..29, an attenuation of 0.8
    # and a background of 0.01 baked in
    m = bp.SchmidtModel.from_gamma(GAMMA)
    space = bp.ModeSpace.grid()
    imperfection = bp.CalibrationModel(alpha=np.full(space.shape, 0.8),
                                       beta=np.full(space.shape, 0.01))
    directory.mkdir(parents=True)
    files = []
    for k in range(1, 30):
        matrix = bp.apply_calibration(bp.prob_matrix(STEP * k, space, m), imperfection)
        counts = bp.sample_counts(matrix, PHOTONS, seed=bp.trial_seed(2024, k))
        files.append(write_counts_file(directory / f"counts_{k:02d}.csv", space,
                                       counts.counts, separation=STEP * k))
    return files


def _run(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli_main(argv)
    if code != 0:
        raise SystemExit(f"bench: {' '.join(argv[:1])} exited with {code}")


def end_to_end(root: Path, files: list[Path]) -> dict:
    files = list(map(str, files))
    out = str(root / "out")
    return {
        "cli.main[compare default]": _time(lambda: _run(["compare", "--out-dir", out]),
                                           5, 1, "s"),
        "cli.main[estimate --calibrate, 29 files]": _time(
            lambda: _run(["estimate", *files, "--calibrate", "--gamma", "0.15",
                          "--out-dir", out]), 20, 1, "ms"),
    }


@contextlib.contextmanager
def _counting_forward(counts: dict):
    # counts[f"{kind}_forward_calls"] and [f"{kind}_forward_rows"] grow with every
    # evaluation of the forward cores, kind spade or direct, while the block runs
    cores = {"_spade_probs": "spade", "_pixel_probs": "direct"}
    saved = {name: getattr(inference, name) for name in cores}

    def counting(kind, core):
        def evaluate(d, *args):
            counts[f"{kind}_forward_calls"] += 1
            counts[f"{kind}_forward_rows"] += len(d)
            return core(d, *args)
        return evaluate

    for name, kind in cores.items():
        setattr(inference, name, counting(kind, saved[name]))
    try:
        yield
    finally:
        for name, core in saved.items():
            setattr(inference, name, core)


def sweep_counts(root: Path) -> dict:
    # lockstep passes of each _fit call: every pass adds one iteration to each row
    # still refining, so the passes are the most iterations of any row; a pixel
    # map has 1-D outcomes, a mode-space map 2-D ones. The first job starts on
    # emptied map caches, as in a fresh process, so that the layer timings above
    # do not warm it; the later jobs run on the maps it left.
    fit = inference._fit
    counts = {}

    def counting_fit(obs, forward):
        fits = fit(obs, forward)
        counts["direct_passes" if len(forward.shape) == 1 else "spade_passes"] += int(
            fits.iterations.max())
        return fits

    bp.spade_forward.cache_clear()
    bp.direct_forward.cache_clear()
    out = {}
    inference._fit = counting_fit
    try:
        for label, seeds in (("cold_job", SWEEP_JOBS[:1]), ("warm_job", SWEEP_JOBS[1:])):
            counts.update({f"{kind}_{item}": 0 for kind in ("direct", "spade")
                           for item in ("passes", "forward_calls", "forward_rows")})
            with _counting_forward(counts):
                for seed in seeds:
                    _run([*SWEEP, "--seed", str(seed), "--out-dir", str(root / "sweep")])
            out.update({f"{name}_per_sweep_k12_{label}": count / len(seeds)
                        for name, count in counts.items()})
    finally:
        inference._fit = fit
    return out


def estimate_counts(root: Path, files: list[Path]) -> dict:
    # spade forward calls and rows of one estimate --calibrate job over the counts
    # files on emptied map caches, then per job of ESTIMATE_JOBS more in the same process
    argv = ["estimate", *map(str, files), "--calibrate", "--gamma", "0.15",
            "--out-dir", str(root / "estimate")]
    bp.spade_forward.cache_clear()
    bp.direct_forward.cache_clear()
    out = {}
    for label, jobs in (("cold_job", 1), ("warm_job", ESTIMATE_JOBS)):
        counts = {"spade_forward_calls": 0, "spade_forward_rows": 0}
        with _counting_forward(counts):
            for _ in range(jobs):
                _run(argv)
        out.update({f"{name}_per_estimate_{label}": count / jobs
                    for name, count in counts.items()})
    return out


def environment() -> dict:
    package = Path(bp.__file__).parent
    digest = hashlib.sha256()
    for path in sorted(package.glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "threads": {name: os.environ.get(name) for name in THREAD_VARS},
        "bispade_version": bp.__version__,
        "src_sha256": digest.hexdigest(),
    }


def run(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--label", required=True, help="key of this run in the JSON file")
    parser.add_argument("--out", required=True, help="JSON file to write or merge into")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        files = _counts_files(root / "inputs")
        result = {"environment": environment(), "layers": layers(files),
                  "end_to_end": end_to_end(root, files),
                  "counts": {**sweep_counts(root), **estimate_counts(root, files)}}
    path = Path(args.out)
    data = json.loads(path.read_text()) if path.exists() else {}
    data.setdefault("harness", "scripts/bench.py")
    data.setdefault("runs", {}).setdefault(args.label, []).append(result)
    path.write_text(json.dumps(data, indent=2) + "\n")
    print(json.dumps(result, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(run())
