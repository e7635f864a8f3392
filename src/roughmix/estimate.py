"""Hurst and mixing-coefficient estimation via multi-scale second moments.

The lag-indexed mean squared increment (structure function) of a GMFBM
behaves as sum_k a_k^2 |dt|^{2H_k}. A single component is a log-log line;
mixtures are fit by nonnegative least squares over a grid of candidate
Hurst exponents, refined by coordinate descent on the exponents.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError
from .gmfbm import SamplePath

__all__ = [
    "FitReport",
    "structure_function",
    "default_lags",
    "fit_single",
    "fit_single_from_table",
    "fit_mixture",
    "fit_mixture_from_table",
]

# candidate Hurst exponents for the initial NNLS fit of a mixture
_H_GRID = np.round(np.arange(0.05, 0.975, 0.0125), 12)


@dataclass
class FitReport:
    hursts_hat: np.ndarray
    coeffs_sq_hat: np.ndarray
    residual: float
    dts: np.ndarray
    stderr_hursts: np.ndarray | None = None
    stderr_coeffs_sq: np.ndarray | None = None
    flags: list[str] = field(default_factory=list)

    def __post_init__(self):
        order = np.argsort(self.hursts_hat)
        self.hursts_hat = np.asarray(self.hursts_hat, dtype=float)[order]
        self.coeffs_sq_hat = np.asarray(self.coeffs_sq_hat, dtype=float)[order]
        if self.stderr_hursts is not None:
            self.stderr_hursts = np.asarray(self.stderr_hursts, dtype=float)[order]
        if self.stderr_coeffs_sq is not None:
            self.stderr_coeffs_sq = np.asarray(
                self.stderr_coeffs_sq, dtype=float
            )[order]
        if np.any(self.coeffs_sq_hat < 0):
            raise ValueError("squared coefficients must be nonnegative")
        if np.any((self.hursts_hat <= 0) | (self.hursts_hat >= 1)):
            raise ValueError("fitted Hurst exponents must lie in (0, 1)")

    def to_json_dict(self) -> dict:
        return {
            "hursts_hat": self.hursts_hat.tolist(),
            "coeffs_sq_hat": self.coeffs_sq_hat.tolist(),
            "residual": self.residual,
            "dts": self.dts.tolist(),
            "stderr_hursts": None
            if self.stderr_hursts is None
            else self.stderr_hursts.tolist(),
            "stderr_coeffs_sq": None
            if self.stderr_coeffs_sq is None
            else self.stderr_coeffs_sq.tolist(),
            "flags": self.flags,
        }


def _uniform_dt(path: SamplePath) -> float:
    if len(path.grid) < 2 or not path.grid.is_uniform:
        raise ValueError("structure function requires a uniform grid of >= 2 points")
    return float(path.grid.points[1] - path.grid.points[0])


def default_lags(n_points: int) -> list[int]:
    """Dyadic lags 1, 2, 4, ..., up to n/64."""
    lags = []
    lag = 1
    while lag <= max(1, (n_points - 1) // 64):
        lags.append(lag)
        lag *= 2
    return lags


def structure_function(path: SamplePath, lags) -> tuple[np.ndarray, np.ndarray]:
    """Mean squared increment per lag, averaged over offsets and coordinates.

    Returns (dt_per_lag, values).
    """
    dt = _uniform_dt(path)
    lags = [int(l) for l in lags]
    n = len(path.grid)
    if any(l < 1 or l >= n for l in lags):
        raise ValueError("lags must be in [1, n_points - 1]")
    values = np.array(
        [np.mean((path.values[l:] - path.values[:-l]) ** 2) for l in lags]
    )
    return np.array(lags, dtype=float) * dt, values


def fit_single_from_table(dts, values) -> tuple[float, float]:
    """Log-log least squares: slope/2 is H, exp(intercept) is a^2."""
    dts = np.asarray(dts, dtype=float)
    values = np.asarray(values, dtype=float)
    if dts.size < 2:
        raise ValueError("need at least 2 lags")
    if np.any(values <= 0):
        raise ValueError("structure values must be positive to fit")
    slope, intercept = np.polyfit(np.log(dts), np.log(values), 1)
    return float(slope / 2.0), float(np.exp(intercept))


def fit_single(path: SamplePath, lags=None) -> tuple[float, float]:
    lags = default_lags(len(path.grid)) if lags is None else lags
    dts, values = structure_function(path, lags)
    return fit_single_from_table(dts, values)


# --------------------------------------------------------------------------- #
# mixtures


def _design(dts: np.ndarray, hursts: np.ndarray) -> np.ndarray:
    return dts[:, None] ** (2.0 * hursts[None, :])


def _row_weights(dts: np.ndarray, values: np.ndarray) -> np.ndarray:
    # relative error per lag, downweighted by the sqrt(lag) growth of the
    # structure-function sampling error (fewer effective blocks per lag)
    return 1.0 / (values * np.sqrt(dts))


def _weighted_nnls(dts, values, hursts):
    """Row-weighted NNLS of the structure values against the power-law design."""
    # imported on use, so that importing roughmix does not load scipy.optimize
    from scipy.optimize import nnls

    weights = _row_weights(dts, values)
    a = _design(dts, hursts) * weights[:, None]
    w, rnorm = nnls(a, values * weights)
    return w, rnorm


def fit_mixture_from_table(
    dts,
    values,
    n_components: int,
    refine_iters: int = 4,
) -> FitReport:
    from scipy.optimize import minimize_scalar

    dts = np.asarray(dts, dtype=float)
    values = np.asarray(values, dtype=float)
    if n_components < 1:
        raise ConfigurationError("n_components must be >= 1")
    if dts.size < 2 * n_components:
        raise ConfigurationError(
            f"{n_components} components need at least {2 * n_components} lags"
        )
    if np.any(values <= 0):
        raise ValueError("structure values must be positive to fit")

    flags: list[str] = []
    w, _ = _weighted_nnls(dts, values, _H_GRID)
    # strongest candidates; merge adjacent grid picks into one component
    active = np.flatnonzero(w > 0)
    groups: list[list[int]] = []
    for idx in active:
        if groups and idx - groups[-1][-1] <= 1:
            groups[-1].append(idx)
        else:
            groups.append([idx])
    cands = sorted(
        groups, key=lambda g: -sum(w[i] for i in g)
    )[:n_components]
    hursts = [float(np.average([_H_GRID[i] for i in g],
                               weights=[w[i] for i in g])) for g in cands]
    while len(hursts) < n_components:
        flags.append("underdetermined-initialization")
        hursts.append(float(np.clip(np.median(_H_GRID), 0.05, 0.95)))
    hursts = np.array(sorted(hursts))

    # coordinate descent on exponents, convex NNLS in the weights
    def objective(hs):
        _, rnorm = _weighted_nnls(dts, values, np.asarray(hs))
        return rnorm

    for _ in range(refine_iters):
        for k in range(len(hursts)):
            def f(hk, k=k):
                trial = hursts.copy()
                trial[k] = hk
                return objective(trial)

            res = minimize_scalar(f, bounds=(0.01, 0.99), method="bounded",
                                  options={"xatol": 1e-8})
            hursts[k] = res.x

    # collapse components whose exponents coincide (non-identifiable)
    hursts = np.sort(hursts)
    keep = [0]
    for k in range(1, len(hursts)):
        if hursts[k] - hursts[keep[-1]] < 0.02:
            flags.append("non-identifiable: duplicate Hurst components merged")
        else:
            keep.append(k)
    hursts = hursts[keep]

    weights, rnorm = _weighted_nnls(dts, values, hursts)
    return FitReport(
        hursts_hat=hursts,
        coeffs_sq_hat=weights,
        residual=float(rnorm),
        dts=dts,
        flags=flags,
    )


def fit_mixture(
    path: SamplePath,
    lags=None,
    n_components: int = 2,
    n_bootstrap: int = 0,
    bootstrap_seed: int = 0,
) -> FitReport:
    """Fit (H_k, a_k^2) from a sampled path.

    With ``n_bootstrap`` > 0, per-parameter standard errors are estimated by
    resampling lag rows of the structure table and refitting.
    """
    lags = default_lags(len(path.grid)) if lags is None else list(lags)
    dts, values = structure_function(path, lags)
    report = fit_mixture_from_table(dts, values, n_components)
    if n_bootstrap > 0:
        rng = np.random.default_rng(bootstrap_seed)
        hs, ws = [], []
        n_comp_eff = report.hursts_hat.size
        for _ in range(n_bootstrap):
            pick = np.sort(rng.integers(0, dts.size, size=dts.size))
            pick = np.unique(pick)
            if pick.size < 2 * n_comp_eff:
                continue
            try:
                rep = fit_mixture_from_table(
                    dts[pick], values[pick], n_comp_eff, refine_iters=2,
                )
            except (ValueError, ConfigurationError):
                continue
            if rep.hursts_hat.size == n_comp_eff:
                hs.append(rep.hursts_hat)
                ws.append(rep.coeffs_sq_hat)
        if len(hs) >= 2:
            report.stderr_hursts = np.std(hs, axis=0, ddof=1)
            report.stderr_coeffs_sq = np.std(ws, axis=0, ddof=1)
    return report
