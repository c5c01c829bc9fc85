"""The public surface of the package.

The number of public names is a measure of the package's size: a name added
to `bispade.__all__` must be added here too, on purpose.
"""
import ast
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import bispade

PUBLIC = [
    "__version__",
    "PARAMETERIZATION",
    "LIKELIHOOD_FLOOR",
    "METHODS",
    "CountMatrix",
    "FisherReport",
    "EstimationResult",
    "MonteCarloResult",
    "fisher_numeric",
    "fi_closed_form",
    "fi_total_1d",
    "fi_branch_totals_2d",
    "fi_total_2d",
    "crlb",
    "gaussian_hg1_prob",
    "sample_counts",
    "mle_estimate",
    "fit_calibration",
    "mc_standard_error",
    "spade_forward",
    "direct_forward",
    "trial_seed",
    "ModeSpace",
    "ProbabilityMatrix",
    "CalibrationModel",
    "PixelGrid",
    "coincidence_prob",
    "small_sep_prob",
    "prob_matrix",
    "apply_calibration",
    "displaced_overlap",
    "quad_overlap",
    "NumericalError",
    "SchmidtModel",
    "gamma_from_physical",
    "schmidt_coeff",
    "schmidt_number",
]


# parameter names of every public callable, '*' before the keyword-only ones; a
# parameter removed from the package must not come back unnoticed
SIGNATURES = {
    "CountMatrix": "counts, separation",
    "FisherReport": "contributions, total, skipped, parameterization",
    "EstimationResult": "d_hat, delta_hat, log_likelihood, refine_iterations, converged, flags, "
                        "parameterization",
    "MonteCarloResult": "method, d, n_photons, trials, mean, std_err, boundary_fraction, "
                        "flat_fraction, estimates",
    "fisher_numeric": "prob_fn, d, step, floor",
    "fi_closed_form": "k, l, gamma, branch",
    "fi_total_1d": "gamma",
    "fi_branch_totals_2d": "gamma",
    "fi_total_2d": "gamma",
    "crlb": "schmidt_k, n_photons",
    "gaussian_hg1_prob": "d",
    "sample_counts": "probabilities, n_photons, seed",
    "mle_estimate": "counts, forward, calibration",
    "fit_calibration": "datasets, forward",
    "mc_standard_error": "method, gamma, n_photons, d, trials, seed, *, forward, model",
    "spade_forward": "model, space, renormalize",
    "direct_forward": "model, grid, kind",
    "trial_seed": "master_seed, trial",
    "ModeSpace": "idler, signal",
    "ModeSpace.grid": "max_k, max_l",
    "ProbabilityMatrix": "space, entries, d, in_space_mass",
    "CalibrationModel": "alpha, beta, degenerate",
    "PixelGrid": "count, span",
    "coincidence_prob": "k, l, kp, lp, d, model",
    "small_sep_prob": "k, l, kp, lp, d, model",
    "prob_matrix": "d, space, model, renormalize",
    "apply_calibration": "matrix, cal",
    "displaced_overlap": "m, n, d, sign",
    "quad_overlap": "m, n, shift",
    "SchmidtModel": "gamma",
    "SchmidtModel.from_gamma": "gamma",
    "gamma_from_physical": "pump_waist, crystal_length, pump_wavelength",
    "schmidt_coeff": "m, n, gamma",
    "schmidt_number": "gamma",
}


def _parameter_names(fn):
    names = []
    for parameter in inspect.signature(fn).parameters.values():
        if parameter.kind is parameter.KEYWORD_ONLY and "*" not in names:
            names.append("*")
        names.append(parameter.name)
    return ", ".join(names)


def _public_callables():
    for name in bispade.__all__:
        value = getattr(bispade, name)
        if not callable(value) or isinstance(value, type) and issubclass(value, Exception):
            continue
        yield name, value
        if isinstance(value, type):
            for attr, member in vars(value).items():
                if not attr.startswith("_") and isinstance(member, classmethod):
                    yield f"{name}.{attr}", getattr(value, attr)


def _imported_modules(path):
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module


def test_public_names_are_pinned():
    assert bispade.__all__ == PUBLIC


def test_readme_lists_the_public_names():
    # the "Public names" section of the README: its count, and every backticked
    # name of its list, each once
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Public names\n", 1)[1].split("\n## ", 1)[0]
    intro, listing = section.split("\n- ", 1)
    names = re.findall(r"`([^`]+)`", listing)
    assert re.search(r"holds (\d+) names", intro)[1] == str(len(bispade.__all__))
    assert sorted(names) == sorted(bispade.__all__)


def test_every_public_name_resolves():
    for name in bispade.__all__:
        assert hasattr(bispade, name), name


def test_public_signatures_are_pinned():
    assert {name: _parameter_names(fn) for name, fn in _public_callables()} == SIGNATURES


def test_package_imports_no_test_code():
    sources = sorted(Path(bispade.__file__).parent.glob("*.py"))
    assert sources
    for path in sources:
        roots = {name.split(".")[0] for name in _imported_modules(path)}
        assert not roots & {"oracles", "tests", "conftest"}, path.name


def _fresh_stdout(code, *args):
    # standard output of code run with args in a fresh interpreter on this package
    env = dict(os.environ, PYTHONPATH=str(Path(bispade.__file__).parent.parent))
    run = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                         text=True, check=True)
    return run.stdout


def test_import_leaves_numpy_random_unloaded():
    # numpy.random loads on the first draw, not at import: it would add to every
    # command's start-up time and memory
    assert _fresh_stdout("import sys, bispade; print('numpy.random' in sys.modules)") == "False\n"


_JOBS = """
import sys
from pathlib import Path
import numpy as np
import bispade as bp
from bispade.cli import main, write_counts_file

out = Path(sys.argv[1])
space, model = bp.ModeSpace.grid(), bp.SchmidtModel.from_gamma(0.15)
files = [str(write_counts_file(out / f"counts_{i}.csv", space,
                               np.round(bp.prob_matrix(d, space, model).entries * 20_000), d))
         for i, d in enumerate((0.2, 0.5, 0.8))]
codes = [
    main(["compare", "--photons", "2000", "--trials", "4", "--sep-start", "0.05",
          "--sep-stop", "0.65", "--sep-step", "0.3", "--out-dir", str(out / "compare")]),
    main(["estimate", *files, "--calibrate", "--out-dir", str(out / "estimate")]),
]
print(codes, "numpy.ma" in sys.modules)
"""


def test_jobs_leave_numpy_ma_unloaded(tmp_path):
    # numpy.ma, which np.unique and np.isin import, adds about 1 MB to the peak
    # memory of a process that runs jobs
    assert _fresh_stdout(_JOBS, str(tmp_path)).splitlines()[-1] == "[0, 0] False"
