"""Level-2 rough path lifts of piecewise-linear paths.

A sampled path is treated as the polyline through its grid points. Its
level-2 iterated integrals have a closed form: within a segment with
increment D the contribution is D (x) D / 2, and across segments the
pieces compose by Chen's identity. Prefix sums make the increment pair
(X^1, X^2) over any grid subinterval an O(1) lookup.

Also here: dyadic piecewise-linear approximations, p-variation functionals
(dyadic partitions plus an exact dynamic-programming oracle on small
grids), and the empirical convergence and sharpness diagnostics for dyadic
lifts of GMFBM.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import CompositionError
from .gmfbm import GmfbmSpec, SamplePath, TimeGrid, dumps, sample

__all__ = [
    "Level2RoughPath",
    "PartitionSchedule",
    "dyadic_approx",
    "lift_piecewise_linear",
    "chen_compose",
    "cross_level2",
    "subsampled_lift",
    "p_variation",
    "cauchy_diagnostic",
    "sharpness_probe",
]


@dataclass
class Level2RoughPath:
    """Per-interval first-level increments and level-2 tensors on a grid."""

    grid: TimeGrid
    inc1: np.ndarray  # (n_intervals, d)
    inc2: np.ndarray  # (n_intervals, d, d)
    _prefix1: np.ndarray = field(init=False, repr=False)
    _prefix2: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.inc1 = np.asarray(self.inc1, dtype=float)
        self.inc2 = np.asarray(self.inc2, dtype=float)
        n = len(self.grid) - 1
        if self.inc1.shape[0] != n or self.inc2.shape[:1] != (n,):
            raise ValueError("one increment per grid interval required")
        d = self.inc1.shape[1]
        if self.inc2.shape != (n, d, d):
            raise ValueError("inc2 must be (n_intervals, d, d)")
        self._build_prefix()

    def _build_prefix(self):
        n, d = self.inc1.shape
        a = np.zeros((n + 1, d))
        np.cumsum(self.inc1, axis=0, out=a[1:])
        b = np.zeros((n + 1, d, d))
        # Chen accumulation: X2(0, j+1) = X2(0, j) + inc2_j + X1(0, j) (x) inc1_j
        cross = a[:-1, :, None] * self.inc1[:, None, :]
        np.cumsum(self.inc2 + cross, axis=0, out=b[1:])
        self._prefix1 = a
        self._prefix2 = b

    @property
    def dim(self) -> int:
        return self.inc1.shape[1]

    @property
    def n_intervals(self) -> int:
        return self.inc1.shape[0]

    def over(self, i, j) -> tuple[np.ndarray, np.ndarray]:
        """(X^1, X^2) over [t_i, t_j] via Chen's identity on the prefixes.

        ``i`` and ``j`` may be integer arrays of one shape; the results then
        carry that shape as leading axes, (..., d) and (..., d, d).
        """
        a, b = self._prefix1, self._prefix2
        x1 = a[j] - a[i]
        x2 = b[j] - b[i] - a[i][..., :, None] * x1[..., None, :]
        return x1, x2

    def total(self) -> tuple[np.ndarray, np.ndarray]:
        return self.over(0, self.n_intervals)

    def levy_area(self) -> np.ndarray:
        """Antisymmetric part of the level-2 increment over the whole interval."""
        _, x2 = self.total()
        return 0.5 * (x2 - x2.T)

    def check_chen(self, tol: float = 1e-10) -> float:
        """Largest defect of X_{0,k+1} = X_{0,k} (x) X_{k,k+1} over all nodes k.

        X_{0,k} is looked up from the prefixes and X_{k,k+1} is the stored
        increment, so a prefix entry that disagrees with them shows.
        """
        k = np.arange(self.n_intervals)
        x1l, x2l = self.over(0, k)
        x1, x2 = self.over(0, k + 1)
        chen2 = x2l + self.inc2 + x1l[:, :, None] * self.inc1[:, None, :]
        worst = max(
            float(np.abs(x1l + self.inc1 - x1).max(initial=0.0)),
            float(np.abs(chen2 - x2).max(initial=0.0)),
        )
        if worst > tol:
            raise AssertionError(f"Chen defect {worst} exceeds {tol}")
        return worst

    def restricted(self, i: int, j: int) -> "Level2RoughPath":
        return Level2RoughPath(
            grid=TimeGrid(self.grid.points[i:j + 1] - self.grid.points[i]),
            inc1=self.inc1[i:j],
            inc2=self.inc2[i:j],
        )

    def to_json(self) -> str:
        return dumps(
            {
                "grid": self.grid.points.tolist(),
                "inc1": self.inc1.tolist(),
                "inc2": self.inc2.reshape(self.n_intervals, -1).tolist(),
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "Level2RoughPath":
        obj = json.loads(text)
        try:
            grid, inc1, inc2 = (np.asarray(obj[k], dtype=float)
                                for k in ("grid", "inc1", "inc2"))
        except KeyError as err:
            raise ValueError(f"level-2 JSON is missing {err}") from err
        except TypeError as err:
            raise ValueError(f"malformed level-2 JSON: {err}") from err
        if not all(np.isfinite(a).all() for a in (grid, inc1, inc2)):
            raise ValueError("level-2 JSON holds non-finite values")
        if inc1.ndim != 2 or inc2.shape != (inc1.shape[0], inc1.shape[1] ** 2):
            raise ValueError("level-2 JSON needs inc1 as (n, d) and inc2 as (n, d*d)")
        d = inc1.shape[1]
        return cls(grid=TimeGrid(grid), inc1=inc1, inc2=inc2.reshape(-1, d, d))


@dataclass(frozen=True)
class PartitionSchedule:
    """Family of partitions over which p-variation sums are maximized."""

    family: str = "dyadic"  # dyadic | all_subsets_dp
    max_depth: int = 10

    def __post_init__(self):
        if self.family not in ("dyadic", "all_subsets_dp"):
            raise ValueError(f"unknown partition family {self.family!r}")


# --------------------------------------------------------------------------- #
# construction


def dyadic_approx(path: SamplePath, m: int) -> SamplePath:
    """Piecewise-linear interpolation of the path at dyadic points k 2^-m T.

    The result is evaluated on the path's own grid; values at dyadic nodes
    agree with the input, values in between are linear.
    """
    if m < 0:
        raise ValueError("dyadic level m must be >= 0")
    t = path.grid.points
    horizon = t[-1]
    anchors = np.linspace(0.0, horizon, 2 ** m + 1)
    # every dyadic point must be on the sample grid
    idx = np.searchsorted(t, anchors)
    idx = np.clip(idx, 0, t.size - 1)
    near = np.where(
        np.abs(t[np.maximum(idx - 1, 0)] - anchors)
        < np.abs(t[idx] - anchors),
        np.maximum(idx - 1, 0),
        idx,
    )
    if not np.allclose(t[near], anchors, rtol=1e-9, atol=1e-12 * max(horizon, 1.0)):
        raise ValueError(
            f"grid does not contain the dyadic points at level m={m}"
        )
    values = np.empty_like(path.values)
    for c in range(path.dim):
        values[:, c] = np.interp(t, t[near], path.values[near, c])
    # anchor rows exactly, interp may round
    values[near] = path.values[near]
    return SamplePath(grid=path.grid, values=values, spec=path.spec, seed=path.seed)


def lift_piecewise_linear(path_or_values, grid: TimeGrid | None = None) -> Level2RoughPath:
    """Exact level-2 lift of the polyline through the sample points."""
    if isinstance(path_or_values, SamplePath):
        grid = path_or_values.grid
        values = path_or_values.values
    else:
        values = np.atleast_2d(np.asarray(path_or_values, dtype=float))
        if grid is None:
            grid = TimeGrid.uniform(values.shape[0] - 1)
    if values.shape[0] < 2:
        raise ValueError("need at least 2 grid points to lift")
    inc1 = np.diff(values, axis=0)
    inc2 = 0.5 * inc1[:, :, None] * inc1[:, None, :]
    return Level2RoughPath(grid=grid, inc1=inc1, inc2=inc2)


def chen_compose(a: Level2RoughPath, b: Level2RoughPath) -> Level2RoughPath:
    """Concatenate two rough paths; a must end where b begins."""
    if a.dim != b.dim:
        raise CompositionError("dimension mismatch")
    # grids are relative (they start at 0); b is translated to a's endpoint
    b_points = b.grid.points + a.grid.points[-1]
    grid = TimeGrid(np.concatenate([a.grid.points, b_points[1:]]))
    return Level2RoughPath(
        grid=grid,
        inc1=np.concatenate([a.inc1, b.inc1]),
        inc2=np.concatenate([a.inc2, b.inc2]),
    )


def cross_level2(x_values: np.ndarray, y_values: np.ndarray) -> np.ndarray:
    """Exact int (X_u - X_0) (x) dY_u for two polylines on a common grid.

    Values are (..., n_points, d) with any leading batch axes; a 1-d input
    is one coordinate, (n_points, 1). Returns (..., d_x, d_y).
    """
    x, y = (np.asarray(v, dtype=float) for v in (x_values, y_values))
    x, y = (v[:, None] if v.ndim == 1 else v for v in (x, y))
    dx = np.diff(x, axis=-2)
    dy = np.diff(y, axis=-2)
    left = x[..., :-1, :] - x[..., :1, :]
    return (np.einsum("...ka,...kb->...ab", left, dy)
            + 0.5 * np.einsum("...ka,...kb->...ab", dx, dy))


def subsampled_lift(path: SamplePath, stride: int) -> Level2RoughPath:
    """Piecewise-linear lift of every ``stride``-th point of the path."""
    return lift_piecewise_linear(
        path.values[::stride], TimeGrid(path.grid.points[::stride])
    )


# --------------------------------------------------------------------------- #
# p-variation


def _partition_indices(n_intervals: int, max_depth: int):
    """Yield the dyadic partitions into min(2^q, n) blocks, q = 0..max_depth.

    Each partition is an array of node indices including both endpoints.
    """
    for q in range(max_depth + 1):
        k = min(2 ** q, n_intervals)
        yield np.unique(np.round(np.linspace(0, n_intervals, k + 1)).astype(int))


def _partition_sum(blocks: np.ndarray, power: float) -> float:
    """Sum of |block|^power over a partition's blocks, stacked on axis 0.

    |.| is the Euclidean norm of the flattened block (Frobenius for level 2).
    """
    norms = np.linalg.norm(blocks.reshape(blocks.shape[0], -1), axis=1)
    return float(np.sum(norms ** power))


def _variation_dp(rp: Level2RoughPath, level: int, power: float) -> float:
    """Exact sup over ALL grid partitions of sum |X^level|^power (O(n^2) DP)."""
    n = rp.n_intervals
    if n + 1 > 64:
        raise ValueError("exact DP oracle limited to grids of <= 64 points")
    best = np.zeros(n + 1)
    for j in range(1, n + 1):
        blocks = rp.over(np.arange(j), j)[level - 1]
        w = np.linalg.norm(blocks.reshape(j, -1), axis=1)
        best[j] = np.max(best[:j] + w ** power)
    return float(best[n])


def _check_p(p: float) -> None:
    if not 1.0 <= p < np.inf:
        raise ValueError(f"p must be finite and >= 1, got {p}")


def p_variation(rp: Level2RoughPath, p: float,
                schedule: PartitionSchedule | None = None,
                levels: tuple[int, ...] = (1, 2)) -> float:
    """Inhomogeneous p-variation norm over the schedule's partition family.

    Returns max over k in ``levels`` of sup_D (sum |X^k_{u,v}|^{p/k})^{k/p}.
    The level-2 term requires p >= 2 and is skipped for smaller p.
    """
    _check_p(p)
    if not set(levels) <= {1, 2}:
        raise ValueError("levels must be drawn from (1, 2)")
    schedule = schedule or PartitionSchedule()
    use_levels = [k for k in levels if k == 1 or p >= 2.0]
    out = 0.0
    if schedule.family == "all_subsets_dp":
        for k in use_levels:
            s = _variation_dp(rp, k, p / k)
            out = max(out, s ** (k / p))
        return out
    for idx in _partition_indices(rp.n_intervals, schedule.max_depth):
        blocks = rp.over(idx[:-1], idx[1:])
        for k in use_levels:
            out = max(out, _partition_sum(blocks[k - 1], p / k) ** (k / p))
    return out


# --------------------------------------------------------------------------- #
# diagnostics shadowing the dyadic-lift convergence and sharpness results


def _dp_distance(fine_m: SamplePath, fine_m1: SamplePath, p: float) -> float:
    """Computable proxy for the p-variation distance between two dyadic lifts.

    Sup-norm of the level-1 difference plus the (p/2)-variation of the
    level-2 difference over the dyadic partition family of the common grid.
    """
    lvl1 = float(np.linalg.norm(fine_m.values - fine_m1.values, axis=1).max())
    ra = lift_piecewise_linear(fine_m)
    rb = lift_piecewise_linear(fine_m1)
    n = ra.n_intervals
    best = 0.0
    for idx in _partition_indices(n, int(np.round(np.log2(n)))):
        diff = ra.over(idx[:-1], idx[1:])[1] - rb.over(idx[:-1], idx[1:])[1]
        best = max(best, _partition_sum(diff, p / 2.0) ** (2.0 / p))
    return lvl1 + best


def cauchy_diagnostic(
    spec: GmfbmSpec,
    m_max: int,
    p: float,
    seeds,
) -> dict:
    """Distances between consecutive dyadic lifts, per seed and per level m.

    Samples each seed once on the dyadic grid at level m_max + 1 and
    measures d_p(lift_m, lift_{m+1}) for m = 1..m_max. Reductions follow
    the given seed order.
    """
    _check_p(p)
    seeds = list(seeds)
    if not seeds:
        raise ValueError("need at least 1 seed")
    if p <= 1.0 / spec.min_hurst:
        warnings.warn(
            f"p={p} is at or below 1/min(H)={1.0 / spec.min_hurst:.3f}; "
            "convergence is not expected in this regime",
            RuntimeWarning,
        )
    m_fine = m_max + 1
    grid = TimeGrid.dyadic(m_fine, spec.horizon)
    rows = []  # (m, seed, d_p)
    for seed in seeds:
        path = sample(spec, grid, seed)
        approx = {m: dyadic_approx(path, m) for m in range(1, m_fine + 1)}
        for m in range(1, m_max + 1):
            rows.append((m, int(seed), _dp_distance(approx[m], approx[m + 1], p)))
    ms = sorted({m for m, _, _ in rows})
    medians = {
        m: float(np.median([d for mm, _, d in rows if mm == m])) for m in ms
    }
    ratios = {
        m: medians[m + 1] / medians[m] for m in ms[:-1] if medians[m] > 0
    }
    return {
        "rows": rows,
        "medians": medians,
        "ratios": ratios,
        "monotone_decreasing": all(
            medians[a] > medians[b] for a, b in zip(ms[:-1], ms[1:])
        ),
    }


def sharpness_probe(
    h_small: float,
    m_max: int,
    seeds,
    m_min: int = 1,
) -> dict:
    """Variance across seeds of the dyadic-lift Levy area of a 2-d fBm at each m.

    Below Hurst 1/4 the statistic must grow with the dyadic level; above it,
    stabilize.
    """
    if not (0.0 < h_small < 0.5):
        raise ValueError("h_small must lie in (0, 0.5)")
    seeds = list(seeds)
    if len(seeds) < 2:
        raise ValueError("need at least 2 seeds for a variance")
    spec = GmfbmSpec((h_small,), (1.0,), dim=2, horizon=1.0)
    grid = TimeGrid.dyadic(m_max, 1.0)
    areas = {m: [] for m in range(m_min, m_max + 1)}
    n = len(grid) - 1
    for seed in seeds:
        path = sample(spec, grid, seed)
        for m in range(m_min, m_max + 1):
            rp = subsampled_lift(path, n // (2 ** m))
            areas[m].append(rp.levy_area()[0, 1])
    variances = {m: float(np.var(v, ddof=1)) for m, v in areas.items()}
    return {"hurst": h_small, "variances": variances, "areas": areas}
