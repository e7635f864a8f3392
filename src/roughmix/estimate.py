"""Hurst and mixing-coefficient estimation via multi-scale second moments.

The lag-indexed mean squared increment (structure function) of a GMFBM
behaves as sum_k a_k^2 |dt|^{2H_k}. A single component is a log-log line.
Mixtures of k <= 2 components are fit by variable projection (Golub and
Pereyra, 1973): for given exponents the weights a_k^2 are an exact,
closed-form nonnegative least-squares fit, so only the exponents are
searched. The best k-subset of a grid of exponents starts a joint Newton
polish of the projected residual on [0.01, 0.99]. numpy is the only
dependency.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, NumericsError
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

# candidate Hurst exponents of the grid start of a mixture fit
_H_GRID = np.round(np.arange(0.05, 0.975, 0.0125), 12)
# the polish keeps exponents in [_H_LO, _H_HI] and adjacent ones _H_GAP apart
_H_LO, _H_HI, _H_GAP = 0.01, 0.99, 0.02
# finite-difference step of the Newton stencil; the polish stops when its
# step is below _H_TOL or after _NEWTON_MAXITER iterations
_FD_STEP, _H_TOL, _NEWTON_MAXITER = 1e-5, 1e-9, 100
# smallest |curvature| a Newton step divides by, relative to the largest
_CURV_FLOOR = 1e-6


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
    # an overflow gives inf, which the fits reject as a NumericsError
    with np.errstate(over="ignore"):
        values = np.array(
            [np.mean((path.values[l:] - path.values[:-l]) ** 2) for l in lags]
        )
    return np.array(lags, dtype=float) * dt, values


def fit_single_from_table(dts, values) -> tuple[float, float]:
    """Log-log least squares: slope/2 is H, exp(intercept) is a^2."""
    dts = np.asarray(dts, dtype=float)
    values = np.asarray(values, dtype=float)
    if np.unique(dts).size < 2:
        raise ConfigurationError("a line needs at least 2 distinct lags")
    if not np.isfinite(values).all():
        raise NumericsError("structure values must be finite to fit")
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


def _weighted(dts: np.ndarray, values: np.ndarray, hursts: np.ndarray):
    """Row-weighted columns dts^{2H} of a (..., k) exponent batch, and the target.

    Returns the columns, shape (..., n, k), and the weighted values, shape (n,).
    """
    # relative error per lag, downweighted by the sqrt(lag) growth of the
    # structure-function sampling error (fewer effective blocks per lag)
    weights = 1.0 / (values * np.sqrt(dts))
    cols = weights[:, None] * dts[:, None] ** (2.0 * hursts[..., None, :])
    return cols, values * weights


def _nnls(diag, cross, corr, bb: float):
    """Exact min ||X w - b|| over w >= 0 on k <= 2 columns x_j, for a batch of B.

    Takes diag = x_j.x_j and corr = x_j.b (k, B), all positive here, cross =
    x_0.x_1 (B,) and bb = b.b. The optimum is the least-squares fit on the
    best support with nonnegative weights: one column or, for k = 2, both.
    Returns the weights (k, B) and the squared residuals (B,).
    """
    single = corr / diag
    gain = single * corr  # how far each one-column fit lowers bb
    if len(corr) == 1:
        return single, bb - gain[0]
    second = gain[1] > gain[0]
    w = single * np.array([~second, second])
    (d0, d1), (c0, c1) = diag, corr
    pair = np.array([d1 * c0 - cross * c1, d0 * c1 - cross * c0])
    pair /= d0 * d1 - cross * cross
    pair_gain = pair[0] * c0 + pair[1] * c1
    # both columns where that is feasible and strictly better, so that a
    # rounding-level gain keeps a weight at 0
    gain = np.maximum(gain[0], gain[1])
    both = (pair[0] >= 0) & (pair[1] >= 0) & (pair_gain > gain)
    return np.where(both, pair, w), bb - np.where(both, pair_gain, gain)


def _project(dts, values, hursts):
    """NNLS weights (k, B) and residual norms (B,) for a (B, k) exponent batch."""
    cols, b = _weighted(dts, values, hursts)
    w, _ = _nnls(np.einsum("bik,bik->kb", cols, cols),
                 np.einsum("bi,bi->b", cols[..., 0], cols[..., -1]),
                 np.einsum("bik,i->kb", cols, b), float(b @ b))
    # the residual from its vector: bb - w.c cancels to a few digits of it
    r = b - np.einsum("bik,kb->bi", cols, w)
    return w, np.sqrt(np.einsum("bi,bi->b", r, r))


def _feasible(hursts: np.ndarray) -> np.ndarray:
    """Nearest sorted exponents in [_H_LO, _H_HI], adjacent ones _H_GAP apart."""
    h = np.clip(np.sort(hursts), _H_LO, _H_HI)
    if h.size == 2 and h[1] - h[0] < _H_GAP:
        mid = np.clip(h.mean(), _H_LO + _H_GAP / 2, _H_HI - _H_GAP / 2)
        h = np.array([mid - _H_GAP / 2, mid + _H_GAP / 2])
    return h


def _newton_step(f: np.ndarray, hursts: np.ndarray) -> np.ndarray:
    """Projected Newton step from squared residuals f on the 3^k stencil.

    Central differences give the gradient and the Hessian. The step keeps
    the constraints that hold with equality and that the gradient pushes
    against; each eigen-direction of the Hessian on the rest takes
    |curvature|, so the step descends where it is not positive definite.
    """
    k, h, c = hursts.size, _FD_STEP, f.size // 2
    place = 3 ** np.arange(k)[::-1]  # index distance of a unit move per axis
    up, down = f[c + place], f[c - place]
    grad = (up - down) / (2 * h)
    hess = np.diag((up - 2 * f[c] + down) / h ** 2)
    if k == 2:  # f[8], f[6], f[2], f[0] at offsets (+, +), (+, -), (-, +), (-, -)
        hess[0, 1] = hess[1, 0] = (f[8] - f[6] - f[2] + f[0]) / (4 * h ** 2)
    # constraints a.h >= l: h_1 >= lo, h_k <= hi, h_2 - h_1 >= gap
    eye = np.eye(k)
    rows = np.vstack([eye[:1], -eye[-1:], np.diff(eye, axis=0)])
    bounds = np.array([_H_LO, -_H_HI, _H_GAP][:k + 1])
    blocking = rows[(rows @ hursts - bounds < 1e-12) & (rows @ grad > 0)]
    # an orthonormal basis of the directions that keep them
    free = np.linalg.svd(blocking)[2][len(blocking):].T if len(blocking) else eye
    lam, vec = np.linalg.eigh(free.T @ hess @ free)
    lam = np.abs(lam)
    lam = np.maximum(lam, _CURV_FLOOR * lam.max(initial=0.0))
    # a direction with no curvature at all is one the residual ignores (a
    # component of weight 0): the step leaves it
    along = np.divide(vec.T @ (free.T @ grad), lam,
                      out=np.zeros(lam.size), where=lam > 0)
    return -free @ (vec @ along)


def _polish(dts, values, hursts: np.ndarray) -> np.ndarray:
    """Joint Newton descent of the projected residual from feasible exponents.

    Each trial point's 3^k stencil is one batched call; its centre accepts
    the trial if the residual drops, or else the step is halved.
    """
    k = hursts.size
    offsets = _FD_STEP * (np.indices((3,) * k).reshape(k, -1).T - 1)
    centre = offsets.shape[0] // 2
    f = _project(dts, values, hursts + offsets)[1] ** 2
    for _ in range(_NEWTON_MAXITER):
        step = _newton_step(f, hursts)
        while True:
            if np.abs(step).max() < _H_TOL:
                return hursts
            trial = _feasible(hursts + step)
            ft = _project(dts, values, trial + offsets)[1] ** 2
            if ft[centre] < f[centre]:
                break
            step /= 2
        hursts, f = trial, ft
    return hursts


def fit_mixture_from_table(dts, values, n_components: int) -> FitReport:
    """Fit 1 or 2 power laws to a structure table by variable projection.

    Only the exponents are searched; their weights are an exact NNLS. A
    component whose final weight is 0 is dropped.
    """
    dts = np.asarray(dts, dtype=float)
    values = np.asarray(values, dtype=float)
    if n_components not in (1, 2):
        raise ConfigurationError("n_components must be 1 or 2")
    if np.unique(dts).size < 2 * n_components:
        raise ConfigurationError(
            f"{n_components} components need at least {2 * n_components} "
            "distinct lags"
        )
    if not np.isfinite(values).all():
        raise NumericsError("structure values must be finite to fit")
    if np.any(values <= 0):
        raise ValueError("structure values must be positive to fit")

    # start: the best grid point or grid pair two steps (0.025 >= _H_GAP)
    # apart or more, from one Gram matrix of the grid's columns
    cols, b = _weighted(dts, values, _H_GRID)
    gram, corr = cols.T @ cols, cols.T @ b
    n = _H_GRID.size
    subsets = (np.arange(n)[None] if n_components == 1
               else np.array(np.triu_indices(n, 2)))
    _, res = _nnls(np.diagonal(gram)[subsets], gram[subsets[0], subsets[-1]],
                   corr[subsets], float(b @ b))
    hursts = _polish(dts, values, _H_GRID[subsets[:, np.argmin(res)]])

    weights, rnorm = _project(dts, values, hursts[None])
    keep = weights[:, 0] > 0
    merged = ["non-identifiable: duplicate Hurst components merged"]
    return FitReport(
        hursts_hat=hursts[keep],
        coeffs_sq_hat=weights[keep, 0],
        residual=float(rnorm[0]),
        dts=dts,
        flags=[] if keep.all() else merged,
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
    refits on bootstrap samples of the lag rows of the structure table: each
    replicate draws as many rows as the table has, with replacement, and
    refits all of them, so a row drawn twice counts twice. Replicates with
    fewer than two distinct rows per component, or whose fit loses a
    component, are skipped.
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
            if np.unique(pick).size < 2 * n_comp_eff:
                continue
            rep = fit_mixture_from_table(dts[pick], values[pick], n_comp_eff)
            if rep.hursts_hat.size == n_comp_eff:
                hs.append(rep.hursts_hat)
                ws.append(rep.coeffs_sq_hat)
        if len(hs) >= 2:
            report.stderr_hursts = np.std(hs, axis=0, ddof=1)
            report.stderr_coeffs_sq = np.std(ws, axis=0, ddof=1)
    return report
