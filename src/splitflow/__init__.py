"""Solvers and diagnostics for gradient flows with two dissipation mechanisms.

The library builds trajectories for generalized gradient systems whose dual
dissipation potential is a sum of two parts, by time splitting (concatenated
single-mechanism flows), by Alternating Minimizing Movements, by staggered
block schemes, and by the effective inf-convolution flow, and checks every
run through energy-dissipation-balance diagnostics.
"""

__version__ = "0.1.0"

from . import diagnostics, energies, models, partitions, potentials, solvers
from .errors import (
    ConfigurationError,
    InputError,
    InvariantError,
    NumericalError,
    SplitflowError,
)

__all__ = [
    "__version__",
    "potentials",
    "energies",
    "partitions",
    "solvers",
    "diagnostics",
    "models",
    "SplitflowError",
    "InputError",
    "ConfigurationError",
    "InvariantError",
    "NumericalError",
]
