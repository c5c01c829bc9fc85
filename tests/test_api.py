"""The public surface of the package.

The number of public names is a measure of the package's size: a name added
to `bispade.__all__` must be added here too, on purpose.
"""
import ast
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


def test_package_imports_no_test_code():
    sources = sorted(Path(bispade.__file__).parent.glob("*.py"))
    assert sources
    for path in sources:
        roots = {name.split(".")[0] for name in _imported_modules(path)}
        assert not roots & {"oracles", "tests", "conftest"}, path.name
