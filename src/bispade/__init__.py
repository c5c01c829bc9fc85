"""Separation super-resolution with entangled photon pairs.

Models joint Hermite-Gauss mode projections of a two-photon source whose
signal arm carries an incoherent lateral displacement, computes the Fisher
information and Cramer-Rao bounds of the measurement, simulates photon-count
experiments, and recovers separations by maximum likelihood, benchmarked
against direct imaging.
"""

__version__ = "0.1.0"

from . import inference, model, overlap, source
from .inference import *
from .model import *
from .overlap import *
from .source import *

__all__ = [
    "__version__",
    *inference.__all__,
    *model.__all__,
    *overlap.__all__,
    *source.__all__,
]
