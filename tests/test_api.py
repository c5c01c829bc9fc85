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
    "LIKELIHOOD_FLOOR",
    "METHODS",
    "PARAMETERIZATION",
    "CountMatrix",
    "EstimationResult",
    "FisherReport",
    "MonteCarloResult",
    "crlb",
    "direct_forward",
    "fi_branch_totals_2d",
    "fi_closed_form",
    "fi_total_1d",
    "fi_total_2d",
    "fisher_numeric",
    "fit_calibration",
    "gaussian_hg1_prob",
    "mc_standard_error",
    "mle_estimate",
    "sample_counts",
    "spade_forward",
    "trial_seed",
    "CalibrationModel",
    "ModeSpace",
    "PixelGrid",
    "ProbabilityMatrix",
    "apply_calibration",
    "coincidence_prob",
    "marginal_intensity",
    "pixel_probs",
    "prob_matrix",
    "small_sep_prob",
    "Displacement",
    "adimensional_shift",
    "displaced_overlap",
    "overlap_first_order",
    "physical_shift",
    "quad_overlap",
    "SchmidtModel",
    "SourceParams",
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
