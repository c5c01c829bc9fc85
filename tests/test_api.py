"""The public surface of the package.

The number of public names is a measure of the package's size: a name added
to `bispade.__all__` must be added here too, on purpose.
"""
import ast
import inspect
from pathlib import Path

import bispade

PUBLIC = [
    "__version__",
    "NumericalError",
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
    "pixel_probs",
    "displaced_overlap",
    "quad_overlap",
    "SourceParams",
    "SchmidtModel",
    "coefficient_ratio",
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
    "pixel_probs": "d, grid, model, kind",
    "displaced_overlap": "m, n, d, sign",
    "quad_overlap": "m, n, shift",
    "SourceParams": "pump_waist, crystal_length, pump_wavelength",
    "SchmidtModel": "gamma",
    "SchmidtModel.from_gamma": "gamma",
    "coefficient_ratio": "gamma",
    "gamma_from_physical": "params",
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
