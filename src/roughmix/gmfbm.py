"""Generalized mixed fractional Brownian motion (GMFBM).

The model is a weighted sum of N independent fractional Brownian motions,
``M_t = sum_k a_k * B^{H_k}_t``, sampled exactly: by circulant embedding
(Davies-Harte) on uniform grids, by Cholesky factorization of the
per-component covariance otherwise (``method="auto"``, the default).
Cholesky sampling builds a dense covariance, so it is refused above
``MAX_CHOLESKY_POINTS`` grid points.

Randomness is counter-based (Philox), one stream per ``(seed, component,
coordinate)``, handed out path by path: path k of a batch does not depend on
the batch size (bit for bit under circulant sampling, to rounding under
Cholesky, whose matrix product blocks by rows drawn at once). The streams
are independent, so they are drawn in parallel over the usable CPUs, each in
chunks of at most ``CHUNK_ENTRIES`` normals; a draw whose streams each fit
in one chunk runs on the calling thread. Each stream's draws stay in order,
so the output does not depend on the number of workers.
"""

from __future__ import annotations

import functools
import io
import itertools
import json
import os
import threading
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, NonPositiveDefiniteError, NumericsError

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
        return dumps(
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
    """CSV text: the header line, then one line per row.

    Rows have equal length and each column one type, as in the first row: a
    float column is written as %.17g, any other column by ``str``. A
    non-finite float raises NumericsError.
    """
    rows = list(rows)
    if not rows:
        return header + "\n"
    floats = [isinstance(v, float) for v in rows[0]]
    flat = tuple(itertools.chain.from_iterable(rows))
    values = np.fromiter(itertools.compress(flat, itertools.cycle(floats)), float)
    if not np.isfinite(values).all():
        bad = values[~np.isfinite(values)][0]
        raise NumericsError(f"refusing to write the non-finite value {bad}")
    line = ",".join("%.17g" if f else "%s" for f in floats) + "\n"
    return header + "\n" + (line * len(rows)) % flat


def dumps(obj, **kw) -> str:
    """JSON text of ``obj``; a non-finite float raises NumericsError."""
    try:
        return json.dumps(obj, allow_nan=False, **kw)
    except ValueError as err:
        raise NumericsError("refusing to write a non-finite value") from err


def path_values(values) -> np.ndarray:
    """Path values as a float (..., n_points, d) array; a 1-d array is one
    coordinate, (n_points, 1)."""
    values = np.atleast_1d(np.asarray(values, dtype=float))
    return values[:, None] if values.ndim == 1 else values


@dataclass
class SamplePath:
    """A d-dimensional path on a time grid, with sampling provenance.

    ``components[k]`` holds the k-th fBm component path (same shape as
    ``values``), retained so that cross-term experiments can decompose the
    mixture. ``method`` is the sampling method used; ``used_fallback`` is
    set when the circulant method fell back to Cholesky.
    """

    grid: TimeGrid
    values: np.ndarray
    spec: GmfbmSpec | None = None
    seed: int | None = None
    components: np.ndarray | None = field(default=None, repr=False)
    method: str | None = None
    used_fallback: bool = False

    def __post_init__(self):
        self.values = path_values(self.values)
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
        with warnings.catch_warnings():
            # an input without data rows is rejected just below
            warnings.simplefilter("ignore", UserWarning)
            data = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1, ndmin=2)
        if data.shape[0] < 1 or data.shape[1] < 2:
            raise ValueError("path CSV needs a data row and a value column after t")
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


# grid points (t = 0 included) above which Cholesky sampling is refused: its
# dense covariance grows as the square (4096 points: 128 MiB)
MAX_CHOLESKY_POINTS = 4096


def _cholesky_factor(cov: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor with a one-shot jitter retry before erroring."""
    n = cov.shape[0]
    jitter = 1e-12 * np.trace(cov) / n
    for shift in (0.0, jitter):
        try:
            return np.linalg.cholesky(cov + shift * np.eye(n) if shift else cov)
        except np.linalg.LinAlgError:
            pass
    raise NonPositiveDefiniteError(f"covariance matrix of order {n} not "
                                   f"positive definite, even with jitter {jitter:.3g}")


# (hurst, n) pairs whose circulant eigenvalues stay memoised
_EIGS_CACHE_SIZE = 32


@functools.lru_cache(maxsize=_EIGS_CACHE_SIZE)
def _fgn_circulant_sqrt_eigs(hurst: float, n: int) -> np.ndarray | None:
    """Square roots of the n + 1 distinct eigenvalues of the circulant
    embedding [g(0) .. g(n), g(n-1) .. g(1)] of n unit-spacing fGn steps.

    It is positive semidefinite for fGn at every Hurst parameter; None marks
    a failure of that, as a safety net. Results are memoised per (hurst, n)
    and returned read-only, so no caller can change a cached array.
    """
    k = np.arange(n + 1.0)
    gamma = 0.5 * (
        (k + 1.0) ** (2 * hurst) - 2.0 * k ** (2 * hurst)
        + np.abs(k - 1.0) ** (2 * hurst)
    )
    eigs = np.fft.rfft(np.concatenate([gamma, gamma[n - 1:0:-1]])).real
    if eigs.min() < -1e-10 * max(1.0, eigs.max()):
        return None
    sqrt_eigs = np.sqrt(np.clip(eigs, 0.0, None))
    sqrt_eigs.flags.writeable = False
    return sqrt_eigs


def _fgn_circulant(sqrt_eigs: np.ndarray, rng: np.random.Generator,
                   size: int) -> np.ndarray:
    """(size, n) exact unit-spacing fGn; row r is the stream's r-th 2n normals.

    They fill a Hermitian half-spectrum: bins 0 and n real, bins 1 .. n-1
    complex with a sqrt(1/2) factor, which ``scale`` folds in.
    """
    n = sqrt_eigs.size - 1
    z = rng.standard_normal((size, 2 * n)).view(complex)  # (size, n)
    w = np.empty((size, n + 1), dtype=complex)
    w[:, 1:n] = z[:, 1:]
    w[:, 0] = z[:, 0].real
    w[:, n] = z[:, 0].imag
    # irfft divides by 2n: a real bin needs sqrt(2n eig), a complex one sqrt(n eig)
    scale = np.sqrt(n) * sqrt_eigs
    scale[[0, n]] *= np.sqrt(2.0)
    w *= scale
    return np.fft.irfft(w, n=2 * n, axis=1)[:, :n]


def _circulant_rows(sqrt_eigs: np.ndarray, step_scale: float,
                    rng: np.random.Generator, out: np.ndarray) -> None:
    """Fill ``out`` (rows, n) with the stream's next fBm rows: fGn, cumsum, scale."""
    np.cumsum(_fgn_circulant(sqrt_eigs, rng, out.shape[0]), axis=1, out=out)
    out *= step_scale


def _cholesky_rows(factor: np.ndarray, rng: np.random.Generator,
                   out: np.ndarray) -> None:
    """Fill ``out`` (rows, n) with the stream's next fBm rows: normals times L^T."""
    np.matmul(rng.standard_normal(out.shape), factor.T, out=out)


def _fill_stream(fill, rng: np.random.Generator, out: np.ndarray, rows: int) -> None:
    """Draw one stream's (size, n) rows in order, ``rows`` at a time."""
    for start in range(0, out.shape[0], rows):
        fill(rng, out[start:start + rows])


# Entries per sampling chunk, counting 2n normals per row of n steps (512 KiB
# of float64): bounds each stream's temporaries. A draw whose streams each
# fit in one chunk runs on the calling thread; larger ones fan out.
CHUNK_ENTRIES = 2 ** 16

_pool = None
_pool_lock = threading.Lock()


def _executor():
    """The module's thread pool, created on first use, one worker per usable CPU."""
    global _pool
    with _pool_lock:
        if _pool is None:
            from concurrent.futures import ThreadPoolExecutor

            if hasattr(os, "sched_getaffinity"):
                workers = len(os.sched_getaffinity(0))
            else:
                workers = os.cpu_count() or 1
            _pool = ThreadPoolExecutor(max_workers=workers,
                                       thread_name_prefix="roughmix-sample")
        return _pool


def _forget_pool() -> None:
    # a forked child inherits the pool object but none of its threads
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _component_paths(
    spec: GmfbmSpec, grid: TimeGrid, seed: int, method: str, size: int
) -> tuple[np.ndarray, str, bool]:
    """Per-component fBm paths (N, size, n_points, dim), the method used and
    whether circulant sampling fell back to Cholesky for some component.

    Everything that can warn or raise runs first, on the calling thread;
    then each (component, coordinate) stream fills its own slice of the
    result, on the pool when some stream spans more than one chunk.
    """
    if method not in ("auto", "cholesky", "circulant"):
        raise ValueError(f"unknown sampling method: {method!r}")
    if grid.horizon > spec.horizon * (1 + 1e-12):
        raise ValueError("grid extends beyond the spec horizon")
    if method == "auto":
        method = "circulant" if grid.is_uniform else "cholesky"
    elif method == "circulant" and not grid.is_uniform:
        raise ValueError("circulant sampling requires a uniform grid")
    n = len(grid) - 1
    comps = np.zeros((spec.n_components, size, n + 1, spec.dim))
    fallback = False
    if n < 1:
        return comps, method, fallback

    rows = max(1, CHUNK_ENTRIES // (2 * n))
    jobs = []
    for k, hurst in enumerate(spec.hursts):
        sqrt_eigs = None
        if method == "circulant":
            sqrt_eigs = _fgn_circulant_sqrt_eigs(hurst, n)
            if sqrt_eigs is None:
                warnings.warn(
                    f"circulant embedding not positive definite for H={hurst}; "
                    "falling back to Cholesky",
                    RuntimeWarning,
                )
                fallback = True
        if sqrt_eigs is None:
            if n + 1 > MAX_CHOLESKY_POINTS:
                raise ConfigurationError(
                    f"Cholesky sampling on {n + 1} grid points needs a dense "
                    f"{n} x {n} covariance (cap {MAX_CHOLESKY_POINTS} points)"
                )
            factor = _cholesky_factor(_fbm_covariance(hurst, grid.points[1:]))
            fill = functools.partial(_cholesky_rows, factor)
        else:
            step_scale = (grid.points[1] - grid.points[0]) ** hurst
            fill = functools.partial(_circulant_rows, sqrt_eigs, step_scale)
        jobs += [functools.partial(_fill_stream, fill, _stream(seed, k, coord),
                                   comps[k, :, 1:, coord], rows)
                 for coord in range(spec.dim)]

    if size * 2 * n <= CHUNK_ENTRIES:
        for job in jobs:
            job()
    else:
        futures = [_executor().submit(job) for job in jobs]
        for future in futures:
            future.result()
    return comps, method, fallback


def sample(
    spec: GmfbmSpec,
    grid: TimeGrid,
    seed: int,
    method: str = "auto",
) -> SamplePath:
    """Draw one exact GMFBM path on the grid: path 0 of ``sample_batch``.

    ``method`` is ``"auto"`` (circulant on uniform grids, Cholesky
    otherwise), ``"circulant"`` or ``"cholesky"``. The per-component fBm
    paths are kept on the returned object.
    """
    comps, method, fallback = _component_paths(spec, grid, seed, method, size=1)
    comps = comps[:, 0]  # (N, n, d)
    return SamplePath(
        grid=grid,
        values=np.tensordot(np.asarray(spec.coeffs), comps, axes=(0, 0)),
        spec=spec,
        seed=seed,
        components=comps,
        method=method,
        used_fallback=fallback,
    )


def sample_batch(
    spec: GmfbmSpec,
    grid: TimeGrid,
    seed: int,
    n_paths: int,
    method: str = "auto",
) -> np.ndarray:
    """Draw ``n_paths`` independent paths at once; values shape (n_paths, n, d).

    Path k is the same for every ``n_paths`` > k: each (component,
    coordinate) stream hands out its draws path by path.
    """
    comps, _, _ = _component_paths(spec, grid, seed, method, size=n_paths)
    return np.tensordot(np.asarray(spec.coeffs), comps, axes=(0, 0))
