"""Hurst and mixing-coefficient estimation via multi-scale second moments.

The lag-indexed mean squared increment (structure function) of a GMFBM
behaves as sum_k a_k^2 |dt|^{2H_k}. A single component is a log-log line.
Mixtures of k <= 2 components are fit by variable projection (Golub and
Pereyra, 1973): for given exponents the weights a_k^2 are an exact,
closed-form nonnegative least-squares fit, so only the exponents are
searched. The best k-subset of a grid of exponents starts a joint Newton
polish of the projected residual on [0.01, 0.99]. numpy is the only
dependency.

A bootstrap replicate is the same table with integer row counts, a row
drawn twice weighing twice, so the kernels take a leading replicate axis:
every replicate scores the grid by its row counts times per-row products
of the table, and one lockstep polish runs them all, each with its own
steps and stop test. A single fit is the case of one replicate with every
count 1.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ConfigurationError, NumericsError
from .gmfbm import SamplePath, _check_seed, _distinct

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
# a Newton step halved _STALL times in a row without a decrease came from a
# stencil that straddles a kink of the residual (a weight reaching 0 between
# its points); the polish then goes on once on stencils _FD_STEP / _FD_FINE wide
_STALL, _FD_FINE = 10, 100
# smallest |curvature| a Newton step divides by, relative to the largest
_CURV_FLOOR = 1e-6
# the grid start scores a slice of the grid pairs in about _START_ENTRIES
# float64 entries, n row products per pair and about 16 temporaries per
# (pair, replicate), and a bootstrap draws and fits _BLOCK replicates at
# once, so that neither one's memory grows with the number of replicates
# (nor the start's with the number of lags)
_START_ENTRIES, _BLOCK = 2 ** 17, 64


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
        for name in ("hursts_hat", "coeffs_sq_hat", "stderr_hursts", "stderr_coeffs_sq"):
            if getattr(self, name) is not None:
                setattr(self, name, np.asarray(getattr(self, name), dtype=float)[order])
        if np.any(self.coeffs_sq_hat < 0):
            raise ValueError("squared coefficients must be nonnegative")
        if np.any((self.hursts_hat <= 0) | (self.hursts_hat >= 1)):
            raise ValueError("fitted Hurst exponents must lie in (0, 1)")

    def to_json_dict(self) -> dict:
        """Each field by name, in field order; arrays as lists."""
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in values.items()}


def _uniform_dt(path: SamplePath) -> float:
    if len(path.grid) < 2 or not path.grid.is_uniform:
        raise ValueError("structure function requires a uniform grid of >= 2 points")
    return float(path.grid.points[1] - path.grid.points[0])


def default_lags(n_points: int) -> list[int]:
    """Dyadic lags 1, 2, 4, ..., up to n/64."""
    return [2 ** q for q in range(max(1, (n_points - 1) // 64).bit_length())]


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


def _table(dts, values, n_lags: int) -> tuple[np.ndarray, np.ndarray]:
    """The structure table as float arrays, checked for a fit that needs
    ``n_lags`` distinct lags and finite, positive values."""
    dts = np.asarray(dts, dtype=float)
    values = np.asarray(values, dtype=float)
    if _distinct(dts) < n_lags:
        raise ConfigurationError(f"the fit needs at least {n_lags} distinct lags")
    if not np.isfinite(values).all():
        raise NumericsError("structure values must be finite to fit")
    if np.any(values <= 0):
        raise ValueError("structure values must be positive to fit")
    return dts, values


def fit_single_from_table(dts, values) -> tuple[float, float]:
    """Log-log least squares: slope/2 is H, exp(intercept) is a^2."""
    dts, values = _table(dts, values, 2)
    slope, intercept = np.polyfit(np.log(dts), np.log(values), 1)
    return float(slope / 2.0), float(np.exp(intercept))


def fit_single(path: SamplePath, lags=None) -> tuple[float, float]:
    lags = default_lags(len(path.grid)) if lags is None else lags
    dts, values = structure_function(path, lags)
    return fit_single_from_table(dts, values)


# --------------------------------------------------------------------------- #
# mixtures


def _weighted(dts, values, counts, hursts):
    """Row-weighted columns dts^{2H} of a batch of exponents, and the targets.

    Row j of counts (B, n) holds the row counts of the table that batch
    member j fits: a row counted c times weighs sqrt(c), as c copies of it
    would. Takes exponents (B, k), or (k,) for all members alike, and
    returns the columns, shape (B, n, k), and the weighted values (B, n).
    """
    # relative error per lag, downweighted by the sqrt(lag) growth of the
    # structure-function sampling error (fewer effective blocks per lag)
    weights = np.sqrt(counts) / (values * np.sqrt(dts))
    cols = weights[..., None] * dts[:, None] ** (2.0 * hursts[..., None, :])
    return cols, values * weights


def _pair(diag, cross, corr, one):
    """Least-squares weights (w0, w1) on both columns, how far they lower b.b,
    and where they are the nonnegative optimum.

    Takes diag = x_j.x_j and corr = x_j.b (2, ...), cross = x_0.x_1 (...)
    and ``one``, the most that a single column lowers b.b (...).
    """
    (d0, d1), (c0, c1) = diag, corr
    det = d0 * d1 - cross * cross
    w0, w1 = (d1 * c0 - cross * c1) / det, (d0 * c1 - cross * c0) / det
    gain = w0 * c0 + w1 * c1
    # both columns where that is feasible and strictly better, so that a
    # rounding-level gain keeps a weight at 0
    return (w0, w1), gain, (w0 >= 0) & (w1 >= 0) & (gain > one)


def _nnls(diag, cross, corr):
    """Exact argmin ||X w - b|| over w >= 0 on k <= 2 columns x_j, for a batch.

    Takes diag = x_j.x_j and corr = x_j.b (k, ...), all positive here, and
    cross = x_0.x_1 (...). The optimum is the least-squares fit on the best
    support with nonnegative weights: one column or, for k = 2, both.
    Returns the weights (k, ...).
    """
    single = corr / diag
    gain = single * corr  # how far each one-column fit lowers b.b
    if len(corr) == 1:
        return single
    second = gain[1] > gain[0]
    pair, _, both = _pair(diag, cross, corr, np.maximum(gain[0], gain[1]))
    return np.where(both, pair, single * np.array([~second, second]))


def _project(dts, values, counts, hursts):
    """NNLS weights (k, B) and residual norms (B,) for a (B, k) exponent batch.

    Member j fits the table with row counts counts[j], shape (B, n).
    """
    cols, b = _weighted(dts, values, counts, hursts)
    w = _nnls(np.einsum("bik,bik->kb", cols, cols),
              np.einsum("bi,bi->b", cols[..., 0], cols[..., -1]),
              np.einsum("bik,bi->kb", cols, b))
    # the residual from its vector: b.b - w.c cancels to a few digits of it
    r = b - np.einsum("bik,kb->bi", cols, w)
    return w, np.sqrt(np.einsum("bi,bi->b", r, r))


# the exponent pairs that the grid start scores: two grid steps (0.025 >=
# _H_GAP) apart or more
_PAIRS = np.array(np.triu_indices(_H_GRID.size, 2))


def _grid_start(dts, values, counts, k: int) -> np.ndarray:
    """Each replicate's best grid subset: the least NNLS residual b.b - gain.

    Row r of counts (R, n) is replicate r's row counts, and a row counted c
    times weighs sqrt(c), so each of its products x_j.x_l, x_j.b and b.b is
    its counts times the per-row products of the table's grid columns at
    count 1. Scores the grid pairs in slices of about _START_ENTRIES
    entries of working memory. Returns (R, k).
    """
    reps, n = counts.shape
    cols, b = _weighted(dts, values, 1.0, _H_GRID)
    cols, counts = cols.T.copy(), counts.T  # (grid, n), (n, R)
    diag, corr, bb = (cols * cols) @ counts, (cols * b) @ counts, (b * b) @ counts
    gain = corr / diag * corr  # (grid, R): how far each one-column fit lowers b.b
    if k == 1:
        return _H_GRID[np.argmax(gain, axis=0)][:, None]
    per_grid = np.stack([diag, corr, gain])
    step = max(1, _START_ENTRIES // (n + 16 * reps))
    least, picks = [], []
    for lo in range(0, _PAIRS.shape[1], step):
        i, j = _PAIRS[:, lo:lo + step]
        # take, not fancy indexing: several times faster on these rows
        (d0, c0, g0), (d1, c1, g1) = per_grid.take(i, axis=1), per_grid.take(j, axis=1)
        x0, x1 = cols.take(i, axis=0), cols.take(j, axis=0)
        one = np.maximum(g0, g1)
        _, pair_gain, both = _pair((d0, d1), (x0 * x1) @ counts, (c0, c1), one)
        res = bb - np.where(both, pair_gain, one)
        least.append(res.min(axis=0))
        picks.append(lo + res.argmin(axis=0))
    best = np.array(picks)[np.argmin(least, axis=0), np.arange(reps)]
    return _H_GRID[_PAIRS[:, best]].T


def _feasible(hursts: np.ndarray) -> np.ndarray:
    """Nearest sorted exponents (R, k) in [_H_LO, _H_HI], adjacent ones _H_GAP apart."""
    h = np.clip(np.sort(hursts, axis=1), _H_LO, _H_HI)
    if h.shape[1] == 2:
        close = h[:, 1] - h[:, 0] < _H_GAP
        if close.any():
            mid = np.clip(h[close].mean(axis=1), _H_LO + _H_GAP / 2, _H_HI - _H_GAP / 2)
            h[close] = mid[:, None] + [-_H_GAP / 2, _H_GAP / 2]
    return h


# the polish's constraints h @ A >= l for k = 1 and 2, as (A, l), one column
# of A per constraint: h_1 >= lo, h_k <= hi and h_2 - h_1 >= gap
_CONSTRAINTS = {
    1: (np.array([[1.0, -1.0]]), np.array([_H_LO, -_H_HI])),
    2: (np.array([[1.0, 0.0, -1.0], [0.0, -1.0, 1.0]]),
        np.array([_H_LO, -_H_HI, _H_GAP])),
}
# for k = 2, the direction that each constraint leaves free when it alone blocks
_LINES = np.array([[0.0, 1.0], [1.0, 0.0], [np.sqrt(0.5), np.sqrt(0.5)]])
_PLUS_MINUS = np.array([[1.0], [-1.0]])


def _newton_step(f: np.ndarray, hursts: np.ndarray, h=_FD_STEP) -> np.ndarray:
    """Projected Newton steps (R, k) from squared residuals f (R, 3^k) on
    stencils of offsets h, a scalar or one per row (R,).

    Central differences give the gradient and the Hessian. The step keeps
    the constraints that hold with equality and that the gradient pushes
    against; each eigen-direction of the Hessian on the rest takes
    |curvature|, floored at _CURV_FLOOR of the largest, so the step descends
    where it is not positive definite. A direction with no curvature at all
    is one the residual ignores (a component of weight 0): the step leaves
    it. For k <= 2 the rest is the whole plane (a 2x2 eigen-split), one
    line (the curvature u.Hu along it) or a point (no step).
    """
    rows, bounds = _CONSTRAINTS[hursts.shape[1]]
    tight = hursts @ rows - bounds < 1e-12
    if hursts.shape[1] == 1:  # f[:, 2], f[:, 1], f[:, 0] at offsets +, 0, -
        h = np.asarray(h)[..., None]
        grad = (f[:, 2:] - f[:, :1]) / (2 * h)
        lam = np.abs((f[:, 2:] - 2 * f[:, 1:2] + f[:, :1]) / h ** 2)
        free = (lam > 0) & ~(tight & (grad @ rows > 0)).any(axis=1, keepdims=True)
        return -np.divide(grad, lam, out=np.zeros_like(lam), where=free)
    # f[:, 3 i + j] at offsets (i - 1, j - 1) steps of h
    g0, g1 = (f[:, 7] - f[:, 1]) / (2 * h), (f[:, 5] - f[:, 3]) / (2 * h)
    a = (f[:, 7] - 2 * f[:, 4] + f[:, 1]) / h ** 2
    d = (f[:, 5] - 2 * f[:, 4] + f[:, 3]) / h ** 2
    b = (f[:, 8] - f[:, 6] - f[:, 2] + f[:, 0]) / (4 * h ** 2)
    # [[a, b], [b, d]] has eigenvalues m + r and m - r, with eigenvectors
    # (cos, sin) and (-sin, cos) at half the angle of (a - d, 2b)
    m, t = (a + d) / 2, (a - d) / 2
    r = np.hypot(t, b)
    angle = np.arctan2(b, t) / 2
    cos, sin = np.cos(angle), np.sin(angle)
    lam = np.abs(m + _PLUS_MINUS * r)
    lam = np.maximum(lam, _CURV_FLOOR * (np.abs(m) + r))  # |m| + r is the largest
    inv = np.divide(1.0, lam, out=np.zeros_like(lam), where=lam > 0)
    p, q = (cos * g0 + sin * g1) * inv[0], (cos * g1 - sin * g0) * inv[1]
    step = np.array([sin * q - cos * p, -sin * p - cos * q]).T
    if tight.any():
        blocked = tight & (np.column_stack([g0, g1]) @ rows > 0)
        n_blocked = blocked.sum(axis=1)
        step[n_blocked > 1] = 0.0  # two constraints leave a point
        line = n_blocked == 1
        u = _LINES[blocked[line].argmax(axis=1)]
        u0, u1 = u.T
        lam = np.abs(u0 * u0 * a[line] + 2 * u0 * u1 * b[line] + u1 * u1 * d[line])
        along = np.divide(u0 * g0[line] + u1 * g1[line], lam,
                          out=np.zeros_like(lam), where=lam > 0)
        step[line] = -u * along[:, None]
    return step


def _polish(dts, values, counts, hursts: np.ndarray):
    """Joint Newton descent of each replicate's projected residual, in lockstep.

    Row r of counts (R, n) and of hursts (R, k) are replicate r's row counts
    and feasible start. Each round projects the 3^k stencils at every live
    replicate's trial point in one batched call. A replicate accepts its
    trial if the residual at its centre drops, or else halves its step; it
    stops when its step is below _H_TOL or after _NEWTON_MAXITER accepted
    steps. One whose step fell below _H_TOL after _STALL halvings in a row
    goes on once more, on stencils _FD_FINE times narrower. So each
    replicate follows the iterates it would follow alone. Returns the
    exponents (R, k), their NNLS weights (R, k) and the residual norms (R,).
    """
    k = hursts.shape[1]
    unit = np.indices((3,) * k).reshape(k, -1).T - 1  # stencil offsets of 1
    size = len(unit)
    centre = size // 2
    counts = np.repeat(counts, size, axis=0)  # one row per stencil point

    def stencils(counts, centres, fd):
        """Weights (R, k) at the centres and squared residuals (R, 3^k) on
        stencils of offsets fd (R,) around them."""
        points = centres[:, None] + fd[:, None, None] * unit
        w, rnorm = _project(dts, values, counts, points.reshape(-1, k))
        return w[:, centre::size].T, rnorm.reshape(-1, size) ** 2

    rows = np.arange(len(hursts))
    out_h, out_w, out_f = np.empty_like(hursts), np.empty_like(hursts), np.empty(len(hursts))
    fd = np.full(len(hursts), _FD_STEP)
    w, f = stencils(counts, hursts, fd)
    step = _newton_step(f, hursts, fd)
    # each live replicate takes one trial per round, so it has accepted
    # rounds - rejected steps; streak counts its rejections in a row
    rejected, streak = np.zeros(len(hursts), dtype=int), np.zeros(len(hursts), dtype=int)
    for rounds in itertools.count():
        small = np.abs(step).max(axis=1) < _H_TOL
        stalled = small & (streak >= _STALL) & (fd == _FD_STEP)
        if stalled.any():
            fd[stalled] /= _FD_FINE
            w[stalled], f[stalled] = stencils(counts[stalled.repeat(size)], hursts[stalled],
                                              fd[stalled])
            step[stalled] = _newton_step(f[stalled], hursts[stalled], fd[stalled])
            small = np.abs(step).max(axis=1) < _H_TOL
        live = ~small & (rounds - rejected < _NEWTON_MAXITER)
        if not live.all():  # the finished leave the lockstep
            done = rows[~live]
            out_h[done], out_w[done], out_f[done] = hursts[~live], w[~live], f[~live, centre]
            rows, hursts, step, w, f, rejected, streak, fd = (
                x[live] for x in (rows, hursts, step, w, f, rejected, streak, fd))
            counts = counts[live.repeat(size)]
            if not rows.size:
                return out_h, out_w, np.sqrt(out_f)
        trial = _feasible(hursts + step)
        wt, ft = stencils(counts, trial, fd)
        better = (ft[:, centre] < f[:, centre])[:, None]
        rejected += ~better[:, 0]
        streak = np.where(better[:, 0], 0, streak + 1)
        hursts, w, f = (np.where(better, new, old)
                        for new, old in ((trial, hursts), (wt, w), (ft, f)))
        # a round in which every replicate rejects needs no Newton step
        newton = _newton_step(f, hursts, fd) if better.any() else 0.0
        step = np.where(better, newton, step / 2)


def _fit(dts, values, counts, k: int):
    """Fit k exponents to each replicate, row r of the row counts (R, n).

    Returns the sorted exponents (R, k), their NNLS weights (R, k) and the
    residual norms (R,).
    """
    return _polish(dts, values, counts, _grid_start(dts, values, counts, k))


def fit_mixture_from_table(dts, values, n_components: int) -> FitReport:
    """Fit 1 or 2 power laws to a structure table by variable projection.

    Only the exponents are searched; their weights are an exact NNLS. A
    component whose final weight is 0 is dropped.
    """
    if n_components not in (1, 2):
        raise ConfigurationError("n_components must be 1 or 2")
    dts, values = _table(dts, values, 2 * n_components)
    (hursts,), (weights,), (rnorm,) = _fit(dts, values, np.ones((1, dts.size)),
                                           n_components)
    keep = weights > 0
    merged = ["non-identifiable: duplicate Hurst components merged"]
    return FitReport(
        hursts_hat=hursts[keep],
        coeffs_sq_hat=weights[keep],
        residual=float(rnorm),
        dts=dts,
        flags=[] if keep.all() else merged,
    )


def _draw_counts(rng: np.random.Generator, size: int, n: int) -> np.ndarray:
    """Row counts (size, n) of replicates that each draw n of n rows with replacement.

    The rows are those of ``size`` calls of ``rng.integers(0, n, size=n)``.
    """
    picks = rng.integers(0, n, size=(size, n)) + n * np.arange(size)[:, None]
    return np.bincount(picks.ravel(), minlength=size * n).reshape(size, n)


# why _bootstrap skips a replicate
_KEPT, _FEW_LAGS, _LOST = 0, 1, 2


def _bootstrap(dts, values, k: int, n_bootstrap: int, seed: int):
    """Refit k components to n_bootstrap replicates of the table's rows.

    Replicates are drawn by ``_draw_counts`` from ``default_rng(seed)`` and
    drawn and fit _BLOCK at a time, each block in one lockstep fit. Returns
    each replicate's exponents and weights (R, k), its residual norm (R,)
    and why it is skipped (R,): _KEPT, _FEW_LAGS (fewer than 2k distinct
    lags; its rows stay NaN) or _LOST (its fit gives a component weight 0).
    """
    rng = np.random.default_rng(seed)
    lag = np.unique(dts, return_inverse=True)[1]
    rows_of_lag = lag[:, None] == np.arange(lag.max() + 1)
    hursts = np.full((n_bootstrap, k), np.nan)
    weights = np.full((n_bootstrap, k), np.nan)
    rnorm = np.full(n_bootstrap, np.nan)
    skip = np.full(n_bootstrap, _FEW_LAGS)
    for lo in range(0, n_bootstrap, _BLOCK):
        counts = _draw_counts(rng, min(_BLOCK, n_bootstrap - lo), dts.size)
        enough = np.count_nonzero(counts @ rows_of_lag, axis=1) >= 2 * k
        if not enough.any():
            continue
        at = lo + np.flatnonzero(enough)
        hursts[at], weights[at], rnorm[at] = _fit(dts, values, counts[enough], k)
        skip[at] = np.where((weights[at] > 0).all(axis=1), _KEPT, _LOST)
    return hursts, weights, rnorm, skip


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
    replicate draws as many rows as the table has, with replacement, and is
    refit as the table with those row counts, so a row drawn twice weighs
    twice. All replicates are fit together, in blocks of a fixed size.
    Replicates with fewer than two distinct lags per component, or whose
    fit loses a component, are skipped, and a flag counts them; a flag
    also says when fewer than two replicates are left, so that the
    standard errors stay None.
    """
    if not np.issubdtype(type(n_bootstrap), np.integer) or n_bootstrap < 0:
        raise ValueError(f"n_bootstrap must be an int >= 0, got {n_bootstrap!r}")
    _check_seed(bootstrap_seed)
    lags = default_lags(len(path.grid)) if lags is None else list(lags)
    dts, values = structure_function(path, lags)
    report = fit_mixture_from_table(dts, values, n_components)
    if n_bootstrap > 0:
        hursts, weights, _, skip = _bootstrap(dts, values, report.hursts_hat.size,
                                              n_bootstrap, bootstrap_seed)
        few, lost = np.count_nonzero(skip == _FEW_LAGS), np.count_nonzero(skip == _LOST)
        if few + lost:
            report.flags.append(
                f"bootstrap: {few + lost} of {n_bootstrap} replicates skipped "
                f"({few} with too few distinct lags, {lost} that lost a component)"
            )
        kept = skip == _KEPT
        if kept.sum() >= 2:
            report.stderr_hursts = np.std(hursts[kept], axis=0, ddof=1)
            report.stderr_coeffs_sq = np.std(weights[kept], axis=0, ddof=1)
        else:
            report.flags.append(
                f"bootstrap: {kept.sum()} of {n_bootstrap} replicates kept, fewer "
                "than the 2 a standard error needs, so stderr_* are null"
            )
    return report
