"""Hurst and mixing-coefficient estimation via multi-scale second moments.

The lag-indexed mean squared increment (structure function) of a GMFBM
behaves as sum_k a_k^2 |dt|^{2H_k}. A single component is a log-log line;
mixtures are fit by nonnegative least squares over a grid of candidate
Hurst exponents, refined by coordinate descent on the exponents: each
exponent in turn is moved to the minimiser of the NNLS residual found by a
bounded Brent search (golden section with parabolic steps) on [0.01, 0.99].
"""

from __future__ import annotations

import math
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
# absolute tolerance and evaluation cap of the bounded Brent refinement
_BRENT_XATOL = 1e-8
_BRENT_MAXFUN = 500


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


def _bounded_brent(f, lo: float, hi: float) -> float:
    """Minimiser of a scalar f on [lo, hi] by Brent's bounded search.

    A port of scipy's ``minimize_scalar(method="bounded")`` (Forsythe,
    Malcolm and Moler's ``fminbound``) on plain floats with xatol
    ``_BRENT_XATOL`` and at most ``_BRENT_MAXFUN`` evaluations: the same
    golden mean, tolerances and returned point, so it returns the same
    float bit for bit without scipy's per-call wrapping.
    """
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = lo, hi
    fulc = a + golden_mean * (b - a)
    nfc = xf = fulc
    rat = e = 0.0
    fx = float(f(xf))
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + _BRENT_XATOL / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:  # try a parabolic fit
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                rat = p / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    rat = tol1 if xm >= xf else -tol1
            else:
                golden = True
        if golden:
            e = (a - xf) if xf >= xm else (b - xf)
            rat = golden_mean * e
        x = xf + (-1.0 if rat < 0 else 1.0) * max(abs(rat), tol1)
        fu = float(f(x))
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + _BRENT_XATOL / 3.0
        tol2 = 2.0 * tol1
        if num >= _BRENT_MAXFUN:
            break
    return xf


def fit_mixture_from_table(
    dts,
    values,
    n_components: int,
    refine_iters: int = 4,
) -> FitReport:
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

            hursts[k] = _bounded_brent(f, 0.01, 0.99)

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

    With ``n_bootstrap`` > 0, per-parameter standard errors are the spread of
    refits on resampled lag rows of the structure table. Each replicate draws
    rows with replacement and then keeps the distinct ones (``np.unique``),
    so it refits a subsample without repeats rather than a true bootstrap
    sample; replicates with fewer than two rows per component, or whose fit
    fails or loses a component, are skipped.
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
