"""Generalized mixed fractional Brownian motion (GMFBM).

The model is a weighted sum of N independent fractional Brownian motions,
``M_t = sum_k a_k * B^{H_k}_t``, sampled exactly on arbitrary time grids via
Cholesky factorization of the per-component covariance, or via circulant
embedding (Davies-Harte) on uniform grids.

Randomness is counter-based (Philox) with stream splitting by
``(seed, component index, coordinate index)``, so results are reproducible
and independent of batching or thread count.
"""

from __future__ import annotations

import io
import json
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lapack

from .errors import NonPositiveDefiniteError

__all__ = [
    "GmfbmSpec",
    "TimeGrid",
    "SamplePath",
    "covariance",
    "increment_variance",
    "increment_cross_covariance",
    "self_similarity_rescale",
    "sample",
    "sample_batch",
]


@dataclass(frozen=True)
class GmfbmSpec:
    """Model parameters: Hurst vector, mixing coefficients, dimension, horizon."""

    hursts: tuple[float, ...]
    coeffs: tuple[float, ...]
    dim: int = 1
    horizon: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "hursts", tuple(float(h) for h in self.hursts))
        object.__setattr__(self, "coeffs", tuple(float(a) for a in self.coeffs))
        if len(self.hursts) != len(self.coeffs):
            raise ValueError("hursts and coeffs must have the same length")
        if len(self.hursts) == 0:
            raise ValueError("at least one component is required")
        if any(not (0.0 < h < 1.0) for h in self.hursts):
            raise ValueError("every Hurst parameter must lie in (0, 1)")
        if not all(np.isfinite(self.coeffs)):
            raise ValueError("coefficients must be finite")
        if all(a == 0.0 for a in self.coeffs):
            raise ValueError("coefficients must not all be zero")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if not 0.0 < self.horizon < np.inf:
            raise ValueError("horizon must be positive and finite")

    @property
    def n_components(self) -> int:
        return len(self.hursts)

    @property
    def min_hurst(self) -> float:
        return min(self.hursts)

    def to_json(self) -> str:
        return json.dumps(
            {
                "hursts": list(self.hursts),
                "coeffs": list(self.coeffs),
                "dim": self.dim,
                "horizon": self.horizon,
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "GmfbmSpec":
        obj = json.loads(text)
        if not isinstance(obj, dict):
            raise ValueError("spec must be a JSON object")
        missing = [k for k in ("hursts", "coeffs") if k not in obj]
        if missing:
            raise ValueError(f"spec is missing {', '.join(missing)}")
        try:
            return cls(
                hursts=tuple(obj["hursts"]),
                coeffs=tuple(obj["coeffs"]),
                dim=int(obj.get("dim", 1)),
                horizon=float(obj.get("horizon", 1.0)),
            )
        except TypeError as err:
            raise ValueError(f"malformed spec: {err}") from err


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing time points starting at 0."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        object.__setattr__(self, "points", pts)
        if pts.ndim != 1 or pts.size < 1:
            raise ValueError("grid must be a 1-d array with at least one point")
        if pts[0] != 0.0:
            raise ValueError("grid must start at 0")
        if pts.size > 1 and not np.all(np.diff(pts) > 0):
            raise ValueError("grid must be strictly increasing")

    def __len__(self) -> int:
        return self.points.size

    @property
    def horizon(self) -> float:
        return float(self.points[-1])

    @property
    def is_uniform(self) -> bool:
        if len(self) < 3:
            return True
        d = np.diff(self.points)
        return bool(np.allclose(d, d[0], rtol=1e-8, atol=0.0))

    @classmethod
    def uniform(cls, n_intervals: int, horizon: float = 1.0) -> "TimeGrid":
        if n_intervals < 1:
            raise ValueError(f"need at least 1 interval, got {n_intervals}")
        return cls(np.linspace(0.0, horizon, n_intervals + 1))

    @classmethod
    def dyadic(cls, m: int, horizon: float = 1.0) -> "TimeGrid":
        """Grid of dyadic points k * 2^-m * T."""
        return cls.uniform(2 ** m, horizon)


def format_csv(header: str, rows) -> str:
    """CSV text: the header line, then one line per row; floats as %.17g."""
    lines = [header] + [
        ",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row)
        for row in rows
    ]
    return "\n".join(lines) + "\n"


@dataclass
class SamplePath:
    """A d-dimensional path on a time grid, with sampling provenance.

    ``components[k]`` holds the k-th fBm component path (same shape as
    ``values``), retained so that cross-term experiments can decompose the
    mixture. ``used_fallback`` is set when the circulant method fell back
    to Cholesky.
    """

    grid: TimeGrid
    values: np.ndarray
    spec: GmfbmSpec | None = None
    seed: int | None = None
    components: np.ndarray | None = field(default=None, repr=False)
    used_fallback: bool = False

    def __post_init__(self):
        self.values = np.atleast_2d(np.asarray(self.values, dtype=float))
        if self.values.shape[0] == 1 and len(self.grid) > 1:
            self.values = self.values.T
        if self.values.shape[0] != len(self.grid):
            raise ValueError("values row count must equal grid length")

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def to_csv(self) -> str:
        header = "t," + ",".join(f"x{i + 1}" for i in range(self.dim))
        rows = np.column_stack([self.grid.points, self.values]).tolist()
        return format_csv(header, rows)

    @classmethod
    def from_csv(cls, text: str) -> "SamplePath":
        data = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1, ndmin=2)
        if not np.isfinite(data).all():
            raise ValueError("path CSV holds non-finite values")
        return cls(grid=TimeGrid(data[:, 0]), values=data[:, 1:])


def _check_times(*times: float) -> None:
    for t in times:
        if t < 0.0:
            raise ValueError(f"time must be nonnegative, got {t}")


def covariance(spec: GmfbmSpec, s: float, t: float) -> float:
    """E[M_s M_t] = (1/2) sum_k a_k^2 (t^{2H_k} + s^{2H_k} - |t-s|^{2H_k})."""
    _check_times(s, t)
    total = 0.0
    for h, a in zip(spec.hursts, spec.coeffs):
        total += a * a * (t ** (2 * h) + s ** (2 * h) - abs(t - s) ** (2 * h))
    return 0.5 * total


def increment_variance(spec: GmfbmSpec, s: float, t: float) -> float:
    """E[(M_t - M_s)^2] = sum_k a_k^2 |t-s|^{2H_k} for 0 <= s <= t."""
    _check_times(s, t)
    if s > t:
        raise ValueError("requires s <= t")
    return sum(a * a * (t - s) ** (2 * h) for h, a in zip(spec.hursts, spec.coeffs))


def increment_cross_covariance(
    spec: GmfbmSpec, u: float, v: float, s: float, t: float
) -> float:
    """Covariance of the increments over [u, v] and [s, t], for u <= v <= s <= t."""
    _check_times(u, v, s, t)
    if not (u <= v <= s <= t):
        raise ValueError("requires 0 <= u <= v <= s <= t")
    total = 0.0
    for h, a in zip(spec.hursts, spec.coeffs):
        total += a * a * (
            abs(t - u) ** (2 * h)
            + abs(s - v) ** (2 * h)
            - abs(t - v) ** (2 * h)
            - abs(s - u) ** (2 * h)
        )
    return 0.5 * total


def self_similarity_rescale(spec: GmfbmSpec, h: float) -> GmfbmSpec:
    """Spec whose law matches t -> M_{h t}: coefficients become a_k * h^{H_k}."""
    if h <= 0.0:
        raise ValueError("scaling factor must be positive")
    return GmfbmSpec(
        hursts=spec.hursts,
        coeffs=tuple(a * h ** hk for hk, a in zip(spec.hursts, spec.coeffs)),
        dim=spec.dim,
        horizon=spec.horizon,
    )


# --------------------------------------------------------------------------- #
# exact Gaussian sampling


def _stream(seed: int, component: int, coord: int) -> np.random.Generator:
    """Counter-based stream for one (component, coordinate) pair."""
    ss = np.random.SeedSequence(entropy=int(seed) & 0xFFFFFFFFFFFFFFFF,
                                spawn_key=(component, coord))
    return np.random.Generator(np.random.Philox(ss))


def _fbm_covariance(hurst: float, times: np.ndarray) -> np.ndarray:
    t = times[:, None]
    s = times[None, :]
    return 0.5 * (
        t ** (2 * hurst) + s ** (2 * hurst) - np.abs(t - s) ** (2 * hurst)
    )


def _cholesky_factor(cov: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor with a one-shot jitter retry before erroring."""
    c, info = lapack.dpotrf(cov, lower=1)
    if info == 0:
        return np.tril(c)
    n = cov.shape[0]
    jitter = 1e-12 * np.trace(cov) / n
    c, info = lapack.dpotrf(cov + jitter * np.eye(n), lower=1)
    if info == 0:
        return np.tril(c)
    raise NonPositiveDefiniteError(int(info))


def _fgn_circulant_sqrt_eigs(hurst: float, n: int) -> np.ndarray | None:
    """Square-root eigenvalues of the circulant embedding of unit-spacing fGn.

    Returns None when the embedding is not positive semidefinite.
    """
    k = np.arange(n)
    gamma = 0.5 * (
        (k + 1.0) ** (2 * hurst) - 2.0 * k ** (2 * hurst)
        + np.abs(k - 1.0) ** (2 * hurst)
    )
    first_row = np.concatenate([gamma, [0.0], gamma[1:][::-1]])
    eigs = np.fft.fft(first_row).real
    if eigs.min() < -1e-10 * max(1.0, eigs.max()):
        return None
    return np.sqrt(np.clip(eigs, 0.0, None))


def _fgn_circulant(sqrt_eigs: np.ndarray, n: int, rng: np.random.Generator,
                   size: int) -> np.ndarray:
    """(size, n) exact fractional Gaussian noise at unit spacing."""
    two_n = sqrt_eigs.size
    # one complex buffer filled in place: the same values as
    # (a + 1j b) * sqrt_eigs without its three (size, 2n) temporaries
    w = np.empty((size, two_n), dtype=complex)
    w.real = rng.standard_normal((size, two_n))
    w.imag = rng.standard_normal((size, two_n))
    w *= sqrt_eigs
    fgn = np.fft.ifft(w, axis=1).real[:, :n]
    return fgn * np.sqrt(two_n)


def _component_paths(
    spec: GmfbmSpec, grid: TimeGrid, seed: int, method: str, size: int
) -> tuple[np.ndarray, bool]:
    """Per-component fBm paths, shape (N, size, n_points, dim)."""
    if method not in ("cholesky", "circulant"):
        raise ValueError(f"unknown sampling method: {method!r}")
    n_pts = len(grid)
    comps = np.zeros((spec.n_components, size, n_pts, spec.dim))
    fallback = False
    if n_pts < 2:
        return comps, fallback

    use_circulant = method == "circulant"
    if use_circulant and not grid.is_uniform:
        raise ValueError("circulant sampling requires a uniform grid")

    dt = grid.points[1] - grid.points[0] if use_circulant else None
    times = grid.points[1:]

    for k, hurst in enumerate(spec.hursts):
        factor = None
        sqrt_eigs = None
        comp_fallback = False
        if use_circulant:
            sqrt_eigs = _fgn_circulant_sqrt_eigs(hurst, n_pts - 1)
            if sqrt_eigs is None:
                warnings.warn(
                    f"circulant embedding not positive definite for H={hurst}; "
                    "falling back to Cholesky",
                    RuntimeWarning,
                )
                comp_fallback = True
                fallback = True
        if not use_circulant or comp_fallback:
            factor = _cholesky_factor(_fbm_covariance(hurst, times))
        for coord in range(spec.dim):
            rng = _stream(seed, k, coord)
            if factor is not None:
                z = rng.standard_normal((size, n_pts - 1))
                comps[k, :, 1:, coord] = z @ factor.T
            else:
                fgn = _fgn_circulant(sqrt_eigs, n_pts - 1, rng, size)
                comps[k, :, 1:, coord] = np.cumsum(fgn, axis=1) * dt ** hurst
    return comps, fallback


def sample(
    spec: GmfbmSpec,
    grid: TimeGrid,
    seed: int,
    method: str = "cholesky",
) -> SamplePath:
    """Draw one exact GMFBM path on the grid.

    Deterministic given (spec, grid, seed, method). The per-component fBm
    paths are kept on the returned object.
    """
    if grid.horizon > spec.horizon * (1 + 1e-12):
        raise ValueError("grid extends beyond the spec horizon")
    comps, fallback = _component_paths(spec, grid, seed, method, size=1)
    comps = comps[:, 0]  # (N, n, d)
    coeffs = np.asarray(spec.coeffs)
    values = np.tensordot(coeffs, comps, axes=(0, 0))
    return SamplePath(
        grid=grid,
        values=values,
        spec=spec,
        seed=seed,
        components=comps,
        used_fallback=fallback,
    )


def sample_batch(
    spec: GmfbmSpec,
    grid: TimeGrid,
    seed: int,
    n_paths: int,
    method: str = "cholesky",
    return_components: bool = False,
):
    """Draw ``n_paths`` independent paths at once; values shape (n_paths, n, d).

    Used by Monte Carlo harnesses; each (component, coordinate) stream emits
    its draws in a fixed order, so results are reproducible regardless of
    how callers parallelize downstream reductions.
    """
    comps, _ = _component_paths(spec, grid, seed, method, size=n_paths)
    coeffs = np.asarray(spec.coeffs)
    values = np.tensordot(coeffs, comps, axes=(0, 0))
    if return_components:
        return values, comps
    return values
