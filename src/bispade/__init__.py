"""Separation super-resolution with entangled photon pairs.

Models joint Hermite-Gauss mode projections of a two-photon source whose
signal arm carries an incoherent lateral displacement, computes the Fisher
information and Cramer-Rao bounds of the measurement, simulates photon-count
experiments, and recovers separations by maximum likelihood, benchmarked
against direct imaging.
"""

__version__ = "0.1.0"

from .errors import NumericalError
from .inference import (
    LIKELIHOOD_FLOOR,
    METHODS,
    PARAMETERIZATION,
    CountMatrix,
    EstimationResult,
    FisherReport,
    MonteCarloResult,
    crlb,
    direct_forward,
    fi_branch_totals_2d,
    fi_closed_form,
    fi_total_1d,
    fi_total_2d,
    fisher_numeric,
    fit_calibration,
    gaussian_hg1_prob,
    mc_standard_error,
    mle_estimate,
    sample_counts,
    spade_forward,
    trial_seed,
)
from .model import (
    CalibrationModel,
    ModeSpace,
    PixelGrid,
    ProbabilityMatrix,
    apply_calibration,
    coincidence_prob,
    marginal_intensity,
    pixel_probs,
    prob_matrix,
    small_sep_prob,
)
from .overlap import (
    Displacement,
    adimensional_shift,
    displaced_overlap,
    overlap_first_order,
    physical_shift,
    quad_overlap,
)
from .source import (
    SchmidtModel,
    SourceParams,
    coefficient_ratio,
    gamma_from_physical,
    schmidt_coeff,
    schmidt_number,
)
__all__ = [
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
