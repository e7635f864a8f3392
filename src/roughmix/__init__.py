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

Importing the package loads none of them: each name in ``__all__``, and
each submodule, resolves on first access (PEP 562), so a program loads only
the modules it uses. ``roughmix.signature`` is the function; the submodule
of that name is reached by ``from roughmix.signature import ...``.
"""

import importlib
import sys
import types

__version__ = "0.9.0"

# the submodule that defines each public name
_HOME = {
    **dict.fromkeys(["CompositionError", "ConfigurationError",
                     "NonPositiveDefiniteError", "NumericsError"], "errors"),
    **dict.fromkeys(["FitReport", "fit_mixture", "fit_single",
                     "structure_function"], "estimate"),
    **dict.fromkeys(["GmfbmSpec", "SamplePath", "TimeGrid", "sample",
                     "sample_batch"], "gmfbm"),
    **dict.fromkeys(["Level2RoughPath", "PartitionSchedule", "chen_compose",
                     "dyadic_approx", "lift_piecewise_linear", "p_variation"], "lift"),
    **dict.fromkeys(["RdeSolution", "VectorField", "davie_step", "linear_field",
                     "solve"], "rde"),
    **dict.fromkeys(["log_signature", "signature"], "signature"),
    "TruncatedTensor": "tensor",
}
_SUBMODULES = set(_HOME.values()) - {"signature"}  # that name is the function

__all__ = ["__version__", *_HOME]


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)  # the import binds it
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})


class _Package(types.ModuleType):
    def __setattr__(self, name, value):
        # loading the submodule ``signature`` binds it on its package, over
        # the function of that name; the package keeps the function
        if name == "signature" and isinstance(value, types.ModuleType):
            return
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
