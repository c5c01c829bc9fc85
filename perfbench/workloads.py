"""Workloads of the bispade benchmark: inputs made from a seed, output checks, accuracy.

Every workload runs the ``bispade`` command line at N = 37,000 photon pairs
on the 7x7 mode space with l = 0 (and the 50-pixel array for direct imaging).
A run is a sequence of jobs, one command-line invocation each. Jobs differ
only in seeded inputs, so every job does the same amount of work and the
median job rate is a steady throughput figure.

The separations are fixed points of the command's default grid (0..1.35 in
steps of 0.0465); only the sampled counts depend on the seed. Accuracy
relative to the bound varies with d, so drawing d from the seed would add
that variation to the seed-to-seed spread of err_over_crlb.
"""
from __future__ import annotations

import functools
import hashlib
import json
import math
import random
import statistics
from dataclasses import dataclass, replace
from pathlib import Path

PHOTONS = 37_000
MODES_K = 6
MODES_L = 0
GRID_STEP = 0.0465
METHODS = ("spade", "direct_gaussian", "direct_spdc")
# d search interval of the command line; d_hat and delta_hat/2 must lie in it
SEARCH_BOUNDS = (0.0, 2.0)
# a fit whose error exceeds this many bound standard deviations is wrong, not unlucky
MAX_Z = 10.0
ESTIMATE_COLUMNS = "label,d_hat,delta_hat,log_likelihood,crlb,flags"
COMPARE_COLUMNS = "d,delta,method,std_err,mean,boundary_fraction"
# stored probabilities and bounds the accuracy is judged by (written by make_truth.py)
TRUTH_PATH = Path(__file__).resolve().parent / "truth.json"


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "compare" or "estimate"
    gamma: float
    grid_points: tuple[int, ...]  # separations d = GRID_STEP * k, k from this tuple
    min_jobs: int  # every run makes at least these; err_over_crlb is taken over them
    trials: int = 0  # compare only
    alpha: float = 1.0  # estimate only: detector imperfection baked into the files
    beta: float = 0.0

    @property
    def separations(self) -> list[float]:
        return [GRID_STEP * k for k in self.grid_points]

    @property
    def fits_per_job(self) -> int:
        if self.command == "compare":
            return len(self.grid_points) * len(METHODS) * self.trials
        return len(self.grid_points)

    def smoke(self) -> "Workload":
        """The same workload at the smallest scale the command accepts."""
        return replace(self, grid_points=self.grid_points[:3], min_jobs=1,
                       trials=min(self.trials, 2))


# Every fifth grid point from the first non-zero one: 0.0465 .. 1.209.
_SWEEP_POINTS = tuple(range(1, 27, 5))

WORKLOADS = {
    w.name: w
    for w in (
        # The paper's setting (K ~ 11.6): spade prob_matrix and the direct_spdc
        # marginal split the fit time.
        Workload("sweep_k12", "compare", 0.15, _SWEEP_POINTS, min_jobs=8, trials=8),
        # K ~ 51.5: the SPDC marginal sums 77 modes instead of 36, so direct
        # imaging dominates while spade cost barely moves.
        Workload("sweep_k51", "compare", 0.07, _SWEEP_POINTS, min_jobs=10, trials=8),
        # Spade only, no sampling: counts-file parsing, fit_calibration and the
        # calibrated likelihood, one forward shared by all files of a job.
        Workload("estimate_cal", "estimate", 0.15, tuple(range(1, 30)), min_jobs=16,
                 alpha=0.8, beta=0.01),
    )
}


def job_seeds(workload: Workload, seed: int, count: int) -> list[int]:
    rng = random.Random(f"bispade-bench:{workload.name}:{seed}")
    return [rng.randrange(2**31) for _ in range(count)]


def compare_argv(workload: Workload) -> list[str]:
    seps = workload.separations
    step = seps[1] - seps[0] if len(seps) > 1 else 1.0
    return [
        "compare", "--gamma", repr(workload.gamma),
        "--modes-k", str(MODES_K), "--modes-l", str(MODES_L),
        "--photons", str(PHOTONS), "--trials", str(workload.trials),
        "--sep-start", repr(seps[0]), "--sep-stop", repr(seps[-1]), "--sep-step", repr(step),
    ]


def estimate_argv(workload: Workload, files: list[Path]) -> list[str]:
    return [
        "estimate", *map(str, files), "--calibrate", "--gamma", repr(workload.gamma),
        "--modes-k", str(MODES_K), "--modes-l", str(MODES_L),
    ]


def job_out_dir(spec: dict, index: int) -> Path:
    return Path(spec["out_root"]) / f"job{index:04d}"


def job_argv(spec: dict, index: int) -> list[str]:
    """Job `index` of a run: a pooled command line, its seed if any, its own output directory."""
    argv = list(spec["pool"][index % len(spec["pool"])])
    if spec["seeds"] is not None:
        argv += ["--seed", str(spec["seeds"][index])]
    return argv + ["--out-dir", str(job_out_dir(spec, index))]


def src_digest(src: Path) -> str:
    """sha256 over the names and bytes of the package's modules."""
    digest = hashlib.sha256()
    for path in sorted((src / "bispade").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


@functools.cache
def _stored() -> dict:
    return json.loads(TRUTH_PATH.read_text())["workloads"]


def truth(workload: Workload) -> dict:
    """The stored values of the workload's separations (a smoke workload takes a prefix)."""
    entry = _stored()[workload.name]
    count = len(workload.grid_points)
    if tuple(entry["grid_points"][:count]) != workload.grid_points:
        raise ValueError(f"{TRUTH_PATH.name} does not hold the {workload.name} separations")
    return {key: values[:count] for key, values in entry.items()}


def true_probabilities(workload: Workload, np) -> list:
    """Outcome probabilities the counts files are drawn from, one matrix per separation.

    The stored spade matrices with the workload's affine imperfection applied;
    they do not depend on the program under test.
    """
    out = []
    for entries in truth(workload)["probabilities"]:
        p = workload.alpha * np.asarray(entries) + workload.beta
        out.append(p / p.sum())
    return out


def write_counts_files(workload: Workload, probabilities, seed: int, job: int, directory: Path,
                       np) -> list[Path]:
    """Labeled counts files in the documented long format, drawn from the seed."""
    directory.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, job])
    pairs = [(k, l) for l in range(MODES_L + 1) for k in range(MODES_K + 1)]
    paths = []
    for index, (d, p) in enumerate(zip(workload.separations, probabilities)):
        counts = rng.multinomial(PHOTONS, p.ravel()).reshape(p.shape)
        lines = [f"# separation = {d!r}", "k_idler,l_idler,k_signal,l_signal,count"]
        for i, (k, l) in enumerate(pairs):
            for j, (kp, lp) in enumerate(pairs):
                lines.append(f"{k},{l},{kp},{lp},{int(counts[i, j])}")
        path = directory / f"counts_{index:02d}.csv"
        path.write_text("\n".join(lines) + "\n")
        paths.append(path)
    return paths


def bound_sd(workload: Workload) -> list[float]:
    """Stored sqrt(CRLB) on delta of the configured measurement, per separation.

    From fisher_numeric when the benchmark was defined (make_truth.py), so
    that the program under test cannot move its own yardstick.
    """
    return truth(workload)["sd"]


@dataclass
class JobCheck:
    attempted: int
    failed: int
    accuracy: list[float]  # spade std_err/sqrt(CRLB) per cell, or z per file
    problems: list[str]


def _table(path: Path, columns: str) -> list[str]:
    lines = [line for line in path.read_text().splitlines() if line and not line.startswith("#")]
    if not lines or lines[0] != columns:
        raise ValueError(f"{path.name}: column line is not {columns!r}")
    return lines[1:]


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {text!r}")
    return value


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-9 * max(1.0, abs(b))


def check_job(workload: Workload, rc: int, out_dir: Path, sd: list[float]) -> JobCheck:
    """Check one job's exit code and output table; every fit in a bad cell or row fails."""
    fits = workload.fits_per_job
    if rc != 0:
        return JobCheck(fits, fits, [], [f"exit code {rc}"])
    if workload.command == "compare":
        return _check_compare(workload, out_dir / "compare.csv", sd)
    return _check_estimate(workload, out_dir / "estimates.csv", sd)


def _check_compare(workload: Workload, path: Path, sd: list[float]) -> JobCheck:
    fits = workload.fits_per_job
    try:
        rows = _table(path, COMPARE_COLUMNS)
    except (OSError, ValueError) as exc:
        return JobCheck(fits, fits, [], [str(exc)])
    expected = [(d, s, m) for d, s in zip(workload.separations, sd) for m in METHODS]
    if len(rows) != len(expected):
        return JobCheck(fits, fits, [], [f"{len(rows)} rows, expected {len(expected)}"])
    failed, ratios, problems = 0, [], []
    lo, hi = 2.0 * SEARCH_BOUNDS[0], 2.0 * SEARCH_BOUNDS[1]
    for row, (d, s, method) in zip(rows, expected):
        try:
            fields = row.split(",")
            if len(fields) != 6:
                raise ValueError(f"{len(fields)} fields")
            d_out, delta, std_err, mean, boundary = (_finite(fields[i]) for i in (0, 1, 3, 4, 5))
            if fields[2] != method or not _close(d_out, d) or not _close(delta, 2.0 * d):
                raise ValueError("cell is not the expected (d, method)")
            if not (std_err >= 0.0 and lo <= mean <= hi and 0.0 <= boundary <= 1.0):
                raise ValueError("value outside its range")
            if method == "spade":
                if abs(mean - 2.0 * d) > MAX_Z * s:
                    raise ValueError(f"mean {mean} is more than {MAX_Z} bound sd from {2 * d}")
                ratios.append(std_err / s)
        except ValueError as exc:
            failed += workload.trials
            problems.append(f"{path.name}: row {row!r}: {exc}")
    return JobCheck(fits, failed, ratios, problems)


def _check_estimate(workload: Workload, path: Path, sd: list[float]) -> JobCheck:
    fits = workload.fits_per_job
    try:
        rows = _table(path, ESTIMATE_COLUMNS)
    except (OSError, ValueError) as exc:
        return JobCheck(fits, fits, [], [str(exc)])
    if len(rows) != fits:
        return JobCheck(fits, fits, [], [f"{len(rows)} rows, expected {fits}"])
    failed, zs, problems = 0, [], []
    for row, d, s in zip(rows, workload.separations, sd):
        try:
            fields = row.split(",", 5)
            if len(fields) != 6:
                raise ValueError(f"{len(fields)} fields")
            if fields[5].startswith("error:"):
                raise ValueError("error row")
            label, d_hat, delta_hat, loglik, crlb = (_finite(f) for f in fields[:5])
            if not _close(label, d) or not _close(delta_hat, 2.0 * d_hat):
                raise ValueError("label or delta_hat does not match")
            if not (SEARCH_BOUNDS[0] <= d_hat <= SEARCH_BOUNDS[1] and crlb > 0.0):
                raise ValueError("value outside its range")
            z = (delta_hat - 2.0 * d) / s
            if abs(z) > MAX_Z:
                raise ValueError(f"delta_hat is {z:.1f} bound sd from {2 * d}")
            zs.append(z)
        except ValueError as exc:
            failed += 1
            problems.append(f"{path.name}: row {row!r}: {exc}")
    return JobCheck(fits, failed, zs, problems)


def err_over_crlb(accuracy: list[float]) -> float:
    """RMS of the per-cell spade std_err/sqrt(CRLB) (sweeps) or of the per-file z (estimate_cal).

    For the sweeps this is the pooled efficiency; over the same cells its
    seed-to-seed spread is about two thirds that of the median.
    """
    if not accuracy:
        return float("nan")
    return math.sqrt(statistics.fmean(x * x for x in accuracy))
