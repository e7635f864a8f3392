"""Mixed fractional Brownian motion, rough path lifts, signatures, and RDEs.

Core objects:

- :mod:`roughmix.gmfbm` — process specification, exact Gaussian samplers
  (Cholesky and circulant embedding), covariance utilities.
- :mod:`roughmix.tensor` — truncated tensor algebra: products, exp/log,
  shuffles, group-likeness.
- :mod:`roughmix.lift` — level-2 rough path lifts, Chen composition,
  p-variation, dyadic convergence diagnostics.
- :mod:`roughmix.signature` — truncated path signatures and signature-moment
  experiments.
- :mod:`roughmix.rde` — Davie-scheme RDE solving, linear propagators,
  convergence/stability harnesses.
- :mod:`roughmix.estimate` — Hurst and mixing-coefficient estimation.
"""

__version__ = "0.2.0"

from .errors import (
    CompositionError,
    ConfigurationError,
    NonPositiveDefiniteError,
    NumericsError,
)
from .estimate import FitReport, fit_mixture, fit_single, structure_function
from .gmfbm import GmfbmSpec, SamplePath, TimeGrid, sample, sample_batch
from .lift import (
    Level2RoughPath,
    PartitionSchedule,
    chen_compose,
    dyadic_approx,
    lift_piecewise_linear,
    p_variation,
)
from .rde import RdeSolution, VectorField, davie_step, linear_field, solve
from .signature import log_signature, signature
from .tensor import TruncatedTensor

__all__ = [
    "__version__",
    "CompositionError",
    "ConfigurationError",
    "NonPositiveDefiniteError",
    "NumericsError",
    "FitReport",
    "fit_mixture",
    "fit_single",
    "structure_function",
    "GmfbmSpec",
    "SamplePath",
    "TimeGrid",
    "sample",
    "sample_batch",
    "Level2RoughPath",
    "PartitionSchedule",
    "chen_compose",
    "dyadic_approx",
    "lift_piecewise_linear",
    "p_variation",
    "RdeSolution",
    "VectorField",
    "davie_step",
    "linear_field",
    "solve",
    "log_signature",
    "signature",
    "TruncatedTensor",
]
