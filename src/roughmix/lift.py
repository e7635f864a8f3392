"""Level-2 rough path lifts of piecewise-linear paths.

A sampled path is treated as the polyline through its grid points. Its
level-2 iterated integrals have a closed form: within a segment with
increment D the contribution is D (x) D / 2, and across segments the
pieces compose by Chen's identity. Prefix sums make the increment pair
(X^1, X^2) over any grid subinterval an O(1) lookup. The prefixes are kept
words-first, (d, n + 1) and (d, d, n + 1), so the products and sums that
build them, and the gathers of ``over``, run along the intervals; the public
increments ``inc1`` and ``inc2`` and every result of ``over`` keep the
interval-first (n, d) and (n, d, d) layout.

Also here: dyadic piecewise-linear approximations, p-variation functionals
(every dyadic partition at once, as one stack of blocks whose norms are
summed per partition, plus an exact dynamic-programming oracle on small
grids), and the empirical convergence and sharpness diagnostics for dyadic
lifts of GMFBM.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import CompositionError
from .gmfbm import (GmfbmSpec, SamplePath, TimeGrid, _median, _seeds, dumps, path_values,
                    sample)

__all__ = [
    "Level2RoughPath",
    "PartitionSchedule",
    "dyadic_approx",
    "lift_piecewise_linear",
    "chen_compose",
    "cross_level2",
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
        w1 = self.inc1.T.copy()
        a = self._prefix1 = np.zeros((d, n + 1))
        np.cumsum(w1, axis=1, out=a[:, 1:])
        # Chen accumulation: X2(0, j+1) = X2(0, j) + inc2_j + X1(0, j) (x) inc1_j
        self._prefix2 = np.zeros((d, d, n + 1))
        b = self._prefix2[:, :, 1:]
        np.multiply(a[:, None, :-1], w1[None], out=b)
        b += self.inc2.transpose(1, 2, 0)
        np.cumsum(b, axis=2, out=b)

    @property
    def dim(self) -> int:
        return self.inc1.shape[1]

    @property
    def n_intervals(self) -> int:
        return self.inc1.shape[0]

    def over(self, i, j) -> tuple[np.ndarray, np.ndarray]:
        """(X^1, X^2) over [t_i, t_j] via Chen's identity on the prefixes.

        ``i`` and ``j`` may be integer arrays that broadcast together; the
        results then carry their broadcast shape as leading axes, (..., d)
        and (..., d, d), C-ordered.
        """
        i, j = np.broadcast_arrays(i, j)
        a, b = self._prefix1, self._prefix2
        ai = a.take(i, axis=1)
        x1 = a.take(j, axis=1) - ai
        x2 = b.take(j, axis=2) - b.take(i, axis=2) - ai[:, None] * x1[None]
        # C order, as callers sum along rows and numpy's summation order
        # for a row of 8 or more entries depends on its layout
        batch = range(1, i.ndim + 1)
        return (np.ascontiguousarray(x1.transpose(*batch, 0)),
                np.ascontiguousarray(x2.transpose(*(k + 1 for k in batch), 0, 1)))

    def total(self) -> tuple[np.ndarray, np.ndarray]:
        return self.over(0, self.n_intervals)

    def levy_area(self) -> np.ndarray:
        """Antisymmetric part of the level-2 increment over the whole interval."""
        _, x2 = self.total()
        return 0.5 * (x2 - x2.T)

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
        if not np.issubdtype(type(self.max_depth), np.integer) or self.max_depth < 0:
            raise ValueError(f"max_depth must be an int >= 0, got {self.max_depth!r}")


# --------------------------------------------------------------------------- #
# construction


def dyadic_approx(path: SamplePath, m: int) -> SamplePath:
    """Level-m dyadic approximation: the path's values at the points k 2^-m T.

    The result is on a grid of those 2^m + 1 nodes, so its polyline is the
    piecewise-linear interpolation. Each node is the first grid point at or
    above its dyadic point less ``tol``, and must lie within ``tol`` of it.
    """
    if m < 0:
        raise ValueError("dyadic level m must be >= 0")
    t = path.grid.points
    horizon = t[-1]
    anchors = np.linspace(0.0, horizon, 2 ** m + 1)
    tol = 1e-9 * anchors + 1e-12 * max(horizon, 1.0)
    # searching t[:-1] keeps every index on the grid, even for a NaN anchor
    near = np.searchsorted(t[:-1], anchors - tol)
    if not (np.abs(t[near] - anchors) <= tol).all():
        raise ValueError(
            f"grid does not contain the dyadic points at level m={m}"
        )
    return SamplePath(grid=TimeGrid(t[near]), values=path.values[near])


def lift_piecewise_linear(path_or_values, grid: TimeGrid | None = None) -> Level2RoughPath:
    """Exact level-2 lift of the polyline through the sample points."""
    if isinstance(path_or_values, SamplePath):
        grid = path_or_values.grid
        values = path_or_values.values
    else:
        values = path_values(path_or_values)
        if grid is None:
            grid = TimeGrid.uniform(values.shape[0] - 1)
    if values.shape[0] < 2:
        raise ValueError("need at least 2 grid points to lift")
    inc1 = np.diff(values, axis=0)
    w1 = inc1.T.copy()
    # D (x) D / 2 along intervals, written into the (n, d, d) layout of inc2
    inc2 = np.empty(inc1.shape + inc1.shape[1:])
    np.multiply(0.5 * w1[:, None], w1[None], out=inc2.transpose(1, 2, 0))
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
    is one coordinate, (n_points, 1). Returns (..., d_x, d_y): the sum over
    segments k of ((X_k + X_{k+1}) / 2 - X_0) (x) (Y_{k+1} - Y_k).
    """
    x, y = path_values(x_values), path_values(y_values)
    mid = x[..., :-1, :] + x[..., 1:, :]
    mid *= 0.5
    mid -= x[..., :1, :]
    return np.einsum("...ka,...kb->...ab", mid, np.diff(y, axis=-2))


# --------------------------------------------------------------------------- #
# p-variation


def _dyadic_blocks(n: int, max_depth: int):
    """Stacked blocks of the partitions into k = min(2^q, n) blocks, q <= max_depth.

    Nodes are round(j n / k), j = 0..k, and each k is kept once. Returns the
    ``lo`` and ``hi`` node indices of every block and each partition's offset.
    """
    if n < 1:
        raise ValueError("p-variation needs at least 1 interval")
    ks = np.minimum(2 ** np.arange(min(max_depth, (n - 1).bit_length()) + 1), n)
    starts = np.cumsum(ks) - ks
    j = np.arange(ks.sum()) - np.repeat(starts, ks)
    lo, hi = np.round(np.stack([j, j + 1]) * np.repeat(n / ks, ks)).astype(int)
    return lo, hi, starts


def _block_norms(blocks: np.ndarray) -> np.ndarray:
    """Euclidean norm of each flattened block (Frobenius at level 2), on axis 0."""
    return np.linalg.norm(blocks.reshape(blocks.shape[0], -1), axis=1)


def _max_partition_sum(blocks: np.ndarray, starts: np.ndarray, power: float) -> float:
    """Largest sum of |block|^power over stacked partitions beginning at ``starts``."""
    return float(np.add.reduceat(_block_norms(blocks) ** power, starts).max())


def _variation_dp(rp: Level2RoughPath, level: int, power: float) -> float:
    """Exact sup over ALL grid partitions of sum |X^level|^power (O(n^2) DP)."""
    n = rp.n_intervals
    if n + 1 > 64:
        raise ValueError("exact DP oracle limited to grids of <= 64 points")
    best = np.zeros(n + 1)
    for j in range(1, n + 1):
        w = _block_norms(rp.over(np.arange(j), j)[level - 1])
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
    if schedule.family == "all_subsets_dp":
        sums = [_variation_dp(rp, k, p / k) for k in use_levels]
    else:
        lo, hi, starts = _dyadic_blocks(rp.n_intervals, schedule.max_depth)
        blocks = rp.over(lo, hi)
        sums = [_max_partition_sum(blocks[k - 1], starts, p / k) for k in use_levels]
    return max((s ** (k / p) for k, s in zip(use_levels, sums)), default=0.0)


# --------------------------------------------------------------------------- #
# diagnostics shadowing the dyadic-lift convergence and sharpness results


def _dp_distance(coarse: SamplePath, fine: SamplePath, p: float) -> float:
    """Computable proxy for the p-variation distance between two dyadic lifts.

    ``coarse`` is evaluated at ``fine``'s nodes; both polylines are linear on
    its cells, so its grid serves both: sup-norm of the level-1 difference plus
    the (p/2)-variation of the level-2 difference over its dyadic partitions.
    """
    t = fine.grid.points
    on_fine = np.column_stack([np.interp(t, coarse.grid.points, coarse.values[:, c])
                               for c in range(coarse.dim)])
    lvl1 = float(np.linalg.norm(on_fine - fine.values, axis=1).max())
    ra, rb = lift_piecewise_linear(on_fine, fine.grid), lift_piecewise_linear(fine)
    lo, hi, starts = _dyadic_blocks(ra.n_intervals, round(np.log2(ra.n_intervals)))
    diff = ra.over(lo, hi)[1] - rb.over(lo, hi)[1]
    return lvl1 + _max_partition_sum(diff, starts, p / 2.0) ** (2.0 / p)


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
    if m_max < 1:
        raise ValueError(f"need m_max >= 1 for a level to compare, got {m_max}")
    seeds = _seeds(seeds)
    if p <= 1.0 / spec.min_hurst:
        warnings.warn(
            f"p={p} is at or below 1/min(H)={1.0 / spec.min_hurst:.3f}; "
            "convergence is not expected in this regime",
            RuntimeWarning,
        )
    m_fine = m_max + 1
    grid = TimeGrid.dyadic(m_fine, spec.horizon)
    dist = np.empty((len(seeds), m_max))  # d_p(lift_m, lift_{m+1}) at [seed, m - 1]
    for row, seed in zip(dist, seeds):
        path = sample(spec, grid, seed)
        approx = [dyadic_approx(path, m) for m in range(1, m_fine + 1)]
        row[:] = [_dp_distance(a, b, p) for a, b in zip(approx[:-1], approx[1:])]
    return {
        "rows": [(m, int(seed), d) for seed, ds in zip(seeds, dist.tolist())
                 for m, d in enumerate(ds, 1)],
        "medians": dict(enumerate(_median(dist).tolist(), 1)),
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
    if not 1 <= m_min <= m_max:
        raise ValueError(f"need 1 <= m_min <= m_max, got m_min={m_min}, "
                         f"m_max={m_max}")
    seeds = _seeds(seeds, least=2)
    spec = GmfbmSpec((h_small,), (1.0,), dim=2, horizon=1.0)
    grid = TimeGrid.dyadic(m_max, 1.0)
    areas = {m: [] for m in range(m_min, m_max + 1)}
    for seed in seeds:
        path = sample(spec, grid, seed)
        for m in range(m_min, m_max + 1):
            rp = lift_piecewise_linear(dyadic_approx(path, m))
            areas[m].append(rp.levy_area()[0, 1])
    return {"variances": {m: float(np.var(v, ddof=1)) for m, v in areas.items()}}
