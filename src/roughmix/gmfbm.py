"""Generalized mixed fractional Brownian motion (GMFBM).

The model is a weighted sum of N independent fractional Brownian motions,
``M_t = sum_k a_k * B^{H_k}_t``, sampled exactly: by circulant embedding
(Davies-Harte) on uniform grids, by Cholesky factorization of the
per-component covariance otherwise (``method="auto"``, the default). The
circulant embedding is nonnegative definite at every Hurst parameter, so it
has no fallback. Cholesky sampling builds a dense covariance, so it is
refused above ``MAX_CHOLESKY_POINTS`` grid points.

Randomness comes from one SFC64 stream per ``(seed, component,
coordinate)``, seeded by ``SeedSequence(seed, spawn_key=(component,
coordinate))`` and handed out path by path: path k of a batch does not
depend on the batch size (bit for bit under circulant sampling, to rounding
under Cholesky, whose matrix product blocks by rows drawn at once). The
coordinates are independent, so they are drawn in parallel over the usable
CPUs, one job per coordinate, on the process's one sampling pool, made by
the first draw that needs it, whose idle workers wait between draws; a draw
whose streams each fit in one chunk runs on the calling thread. A job walks
its rows in chunks of at most ``CHUNK_ENTRIES`` normals, into buffers it
makes once, and adds the components chunk by chunk in component order, a_k
times component k into the output, so each entry is 0 + a_0 c_0 + a_1 c_1 +
... and no array holds every component of a batch. Each stream's draws stay
in order, so the output does not depend on the number of workers. A seed is
an int in [0, 2^64).

A circulant row of n steps takes the stream's next 2n normals z_0 ..
z_{2n-1}. They fill a Hermitian half-spectrum: bin 0 is z_0 and bin n is z_1,
both real; bin j in 1 .. n-1 is z_{2j} + i z_{2j+1}. Bin j is scaled by
sqrt(c_j n lambda_j) dt^H, where lambda_j is the j-th eigenvalue of the
circulant embedding of fGn, c_j is 2 for bins 0 and n and 1 otherwise, and dt
is the grid step; the first n values of its inverse real FFT of length 2n are
the fGn steps (``_circulant_fgn``). A component with H exactly 1/2 has
independent N(0, dt) steps, so on a uniform grid it takes the white map
instead: a row of n steps is the stream's next n normals, each times
sqrt(dt), with no spectrum and no FFT. ``rde.stability_probe``, which shifts
every H and needs common random numbers, keeps the circulant map at H = 1/2.
``_chunk_drawer`` is the one map from a stream's normals to rows, picked by
the rank of the stream's parameter: white or circulant fGn steps or Cholesky
fBm rows, in buffers made only for the maps it serves. ``_draw`` cumulates
the steps into fBm rows in place; ``signature.cross_term_scaling`` draws the
steps of its first component only, and of its second the one normal per row
that scales the cross integral's conditional law.
"""

from __future__ import annotations

import functools
import io
import itertools
import json
import numbers
import os
import threading
import warnings
from dataclasses import asdict, dataclass, replace

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
        # float() would also take a bool or a numeric string
        reals = (*self.hursts, *self.coeffs, self.horizon)
        if any(isinstance(x, bool) or not isinstance(x, numbers.Real) for x in reals):
            raise ValueError("hursts, coeffs and horizon must be real numbers")
        object.__setattr__(self, "hursts", tuple(float(h) for h in self.hursts))
        object.__setattr__(self, "coeffs", tuple(float(a) for a in self.coeffs))
        object.__setattr__(self, "horizon", float(self.horizon))
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
        if not np.issubdtype(type(self.dim), np.integer) or self.dim < 1:
            raise ValueError(f"dim must be an integer >= 1, got {self.dim!r}")
        object.__setattr__(self, "dim", int(self.dim))
        if not 0.0 < self.horizon < np.inf:
            raise ValueError("horizon must be positive and finite")

    @property
    def n_components(self) -> int:
        return len(self.hursts)

    @property
    def min_hurst(self) -> float:
        return min(self.hursts)

    def to_json(self) -> str:
        return dumps(asdict(self))

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
                dim=obj.get("dim", 1),
                horizon=obj.get("horizon", 1.0),
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
        return bool((np.abs(d - d[0]) <= 1e-8 * abs(d[0])).all())

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


def path_csv(points, values: np.ndarray, name: str) -> str:
    """Path CSV text: a ``t`` column of the points, then one column per
    coordinate of the (n_points, d) values, headed ``name`` 1 .. d."""
    header = "t," + ",".join(f"{name}{i + 1}" for i in range(values.shape[1]))
    return format_csv(header, np.column_stack([points, values]).tolist())


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
    """A d-dimensional path on a time grid, with how it was sampled.

    ``method`` is the sampling method used; ``used_fallback`` is always
    False (circulant sampling has no fallback), kept for its readers.
    """

    grid: TimeGrid
    values: np.ndarray
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
        return path_csv(self.grid.points, self.values, "x")

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


def _power_sum(spec: GmfbmSpec, x: float) -> float:
    """sum_k a_k^2 |x|^{2H_k}: the variance of an increment over a span |x|."""
    return sum(a * a * abs(x) ** (2 * h) for h, a in zip(spec.hursts, spec.coeffs))


def covariance(spec: GmfbmSpec, s: float, t: float) -> float:
    """E[M_s M_t] = (1/2) sum_k a_k^2 (t^{2H_k} + s^{2H_k} - |t-s|^{2H_k})."""
    _check_times(s, t)
    return 0.5 * (_power_sum(spec, t) + _power_sum(spec, s) - _power_sum(spec, t - s))


def increment_variance(spec: GmfbmSpec, s: float, t: float) -> float:
    """E[(M_t - M_s)^2] = sum_k a_k^2 |t-s|^{2H_k} for 0 <= s <= t."""
    _check_times(s, t)
    if s > t:
        raise ValueError("requires s <= t")
    return _power_sum(spec, t - s)


def increment_cross_covariance(
    spec: GmfbmSpec, u: float, v: float, s: float, t: float
) -> float:
    """Covariance of the increments over [u, v] and [s, t], for u <= v <= s <= t."""
    _check_times(u, v, s, t)
    if not (u <= v <= s <= t):
        raise ValueError("requires 0 <= u <= v <= s <= t")
    return 0.5 * (_power_sum(spec, t - u) + _power_sum(spec, s - v)
                  - _power_sum(spec, t - v) - _power_sum(spec, s - u))


def self_similarity_rescale(spec: GmfbmSpec, h: float) -> GmfbmSpec:
    """Spec whose law matches t -> M_{h t}: coefficients become a_k * h^{H_k}."""
    if h <= 0.0:
        raise ValueError("scaling factor must be positive")
    return replace(spec, coeffs=tuple(a * h ** hk for hk, a in zip(spec.hursts, spec.coeffs)))


# --------------------------------------------------------------------------- #
# exact Gaussian sampling


def _check_seed(seed, span: int = 1) -> None:
    """Seeds ``seed`` .. ``seed + span - 1`` must be ints in [0, 2^64)."""
    if not np.issubdtype(type(seed), np.integer) or not 0 <= int(seed) <= 2 ** 64 - span:
        top = "2^64)" if span == 1 else f"2^64 - {span}] for {span} seeds"
        raise ValueError(f"seed must be an int in [0, {top}, got {seed!r}")


def _distinct(values) -> int:
    """``np.unique(values).size``; asking for the inverse skips the
    masked-array check of the bare call, which imports ``numpy.ma``."""
    return np.unique(values, return_inverse=True)[0].size


def _median(values):
    """``np.median(values, axis=0)`` bit for bit, NaN included, without the
    NaN check of numpy's own, which imports ``numpy.ma``: the same partition,
    the mean of the same middle entries, and NaN where the partition put a
    NaN last."""
    n = len(values)
    part = np.partition(values, sorted({(n - 1) // 2, n // 2}) + [-1], axis=0)
    median = part[(n - 1) // 2:n // 2 + 1].mean(axis=0)
    nan = np.isnan(part[-1])
    if not nan.any():
        return median
    if isinstance(median, np.generic):
        return part[-1]
    np.copyto(median, part[-1], where=nan)
    return median


def _seeds(seeds, least: int = 1) -> list:
    """The seeds as a list of at least ``least``, each checked by ``_check_seed``."""
    seeds = list(seeds)
    if len(seeds) < least:
        raise ValueError(f"need at least {least} seed{'s' if least > 1 else ''}")
    for seed in seeds:
        _check_seed(seed)
    return seeds


def _stream(seed: int, component: int, coord: int) -> np.random.Generator:
    """SFC64 stream for one (component, coordinate) pair."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(component, coord))
    return np.random.Generator(np.random.SFC64(ss))


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


def _fgn_autocovariance(hurst: float, n: int) -> np.ndarray:
    """Autocovariance g(0) .. g(n) of unit-spacing fGn, to a few ulps at every lag.

    g(1) = 2^{2H-1} - 1; for k >= 2, g(k) = (1/2) k^{2H} f(1/k) with f(x) =
    (1+x)^{2H} + (1-x)^{2H} - 2 = 2 sum_{j>=1} C(2H, 2j) x^{2j}, 40 terms by
    Horner. They share one sign and shrink by 4 at least, so nothing cancels
    as it does in the second difference of k^{2H} (log10(k^2) digits lost).
    """
    a = 2.0 * hurst
    j = np.arange(2.0, 81.0, 2.0)
    binom = np.cumprod((a - j + 2) * (a - j + 1) / ((j - 1) * j))  # C(a, j)
    k = np.arange(2.0, n + 1.0)
    x2 = 1.0 / (k * k)
    half_f = 0.0  # f(1/k) / 2 = sum_j C(a, 2j) x2^j
    for c in binom[::-1]:
        half_f = x2 * (c + half_f)
    head = [1.0, np.expm1((a - 1.0) * np.log(2.0))]
    return np.concatenate([head, k ** a * half_f])[:n + 1]


@functools.lru_cache(maxsize=_EIGS_CACHE_SIZE)
def _fgn_circulant_sqrt_eigs(hurst: float, n: int) -> np.ndarray:
    """Square roots of the n + 1 distinct eigenvalues of the circulant
    embedding [g(0) .. g(n), g(n-1) .. g(1)] of n unit-spacing fGn steps.

    It is nonnegative definite at every H. For H <= 1/2, g <= 0 off lag 0,
    so each eigenvalue is at least sum_{k in Z} g(k) >= 0 (Craigmile, J. Time
    Ser. Anal. 2003); for H > 1/2, g is positive, decreasing and convex from
    lag 1, so each eigenvalue is a Fejer-weighted sum of second differences.
    An eigenvalue below -1e-10 of the largest raises NumericsError. Results are
    memoised per (hurst, n), read-only, so no caller can change a cached array.
    """
    gamma = _fgn_autocovariance(hurst, n)
    eigs = np.fft.rfft(np.concatenate([gamma, gamma[n - 1:0:-1]])).real
    if eigs.min() < -1e-10 * max(1.0, eigs.max()):
        raise NumericsError(f"circulant embedding of fGn with H={hurst} on {n} "
                            f"steps is indefinite (eigenvalue {eigs.min():.3g})")
    sqrt_eigs = np.sqrt(np.clip(eigs, 0.0, None))
    sqrt_eigs.flags.writeable = False
    return sqrt_eigs


def _circulant_scale(hurst: float, grid: TimeGrid, white: bool = False):
    """Per-bin factors of the half-spectrum of an fBm of index ``hurst`` on
    the uniform grid, times its step scale dt^H; with ``white`` and H = 1/2,
    the scalar sqrt(dt) of the white map.

    irfft divides by 2n: a real bin needs sqrt(2n eig), a complex one sqrt(n eig).
    """
    dt = grid.points[1] - grid.points[0]
    if white and hurst == 0.5:
        return np.sqrt(dt)
    n = len(grid) - 1
    step_scale = dt ** hurst
    scale = (np.sqrt(n) * step_scale) * _fgn_circulant_sqrt_eigs(hurst, n)
    scale[[0, n]] *= np.sqrt(2.0)
    return scale


def _circulant_fgn(normals: np.ndarray, scale: np.ndarray,
                   spectrum: np.ndarray) -> np.ndarray:
    """The fGn steps (rows, n) of ``normals`` (rows, 2n), as a view of ``normals``.

    The map of the module docstring, through ``spectrum`` (rows, n + 1),
    complex; the inverse transform overwrites ``normals``.
    """
    n = spectrum.shape[1] - 1
    z = normals.view(complex)  # (rows, n)
    spectrum[:, 1:n] = z[:, 1:]
    spectrum[:, 0] = z[:, 0].real
    spectrum[:, n] = z[:, 0].imag
    spectrum *= scale
    np.fft.irfft(spectrum, n=2 * n, axis=1, out=normals)
    return normals[:, :n]


# Entries per sampling chunk, counting 2n normals per row of n steps (512 KiB
# of float64): bounds each job's buffers. A draw whose streams each
# fit in one chunk runs on the calling thread; larger ones fan out.
CHUNK_ENTRIES = 2 ** 16


def _chunk_rows(n: int) -> int:
    """Rows of n steps per sampling chunk."""
    return max(1, CHUNK_ENTRIES // (2 * n))


_pool_lock = threading.Lock()
_process_pool = None  # the sampling pool, once a draw has needed it


def _pool():
    """The process's one sampling pool, made by the first draw that fans out,
    with one worker per usable CPU, counted then. Its idle workers wait
    between draws; a forked child forgets it and makes its own."""
    global _process_pool
    with _pool_lock:
        if _process_pool is None:
            from concurrent.futures import ThreadPoolExecutor

            if hasattr(os, "sched_getaffinity"):
                workers = len(os.sched_getaffinity(0))
            else:
                workers = os.cpu_count() or 1
            _process_pool = ThreadPoolExecutor(max_workers=workers,
                                               thread_name_prefix="roughmix-sample")
        return _process_pool


def _forget_pool() -> None:
    """In a forked child: drop the parent's pool, whose threads do not exist
    here, and its lock, which a parent thread may have held at the fork."""
    global _process_pool, _pool_lock
    _process_pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _run(jobs, size: int, n: int) -> None:
    """Run the jobs, whose streams each draw ``size`` rows of n steps: on the
    calling thread when those fit in one chunk, otherwise on ``_pool()``.

    It waits for every job before it returns or raises the error of the
    first job that failed, in job order, so no job of a failed call still
    writes into its output. No job may call ``_run``: a job that waits on
    the pool it runs on deadlocks the pool once every worker waits so.
    """
    if size * 2 * n <= CHUNK_ENTRIES:
        for job in jobs:
            job()
        return
    from concurrent.futures import wait

    pool, futures = _pool(), []
    try:
        for job in jobs:
            futures.append(pool.submit(job))
    finally:
        wait(futures)
    for future in futures:
        future.result()


def _chunk_drawer(params, rows: int, n: int):
    """``draw(rng, param, m)``: the stream ``rng``'s next m <= ``rows`` rows
    of normals, mapped to m rows of n values by the rank of ``param``: 0, the
    white map, n normals per row times the scalar sqrt(dt), and 1, the
    spectrum factors of ``_circulant_fgn``, to fGn steps; 2, the transposed
    Cholesky factor, to fBm rows. The rows are a view of buffers made once,
    only those the maps of ``params`` use, and overwritten by the next draw.
    """
    ranks = {np.ndim(param) for param in params}
    normals = np.empty((rows, 2 * n if 1 in ranks else n))
    spectrum = np.empty((rows, n + 1), complex) if 1 in ranks else None
    fbm = np.empty((rows, n)) if 2 in ranks else None

    def draw(rng, param, m):
        rank = np.ndim(param)
        if rank == 0:
            z = rng.standard_normal(out=normals.reshape(-1)[:m * n].reshape(m, n))
            return np.multiply(z, param, out=z)
        z = rng.standard_normal(out=normals[:m])
        if rank == 1:
            return _circulant_fgn(z, param, spectrum[:m])
        return np.matmul(z, param.T, out=fbm[:m])
    return draw


def _draw(spec: GmfbmSpec, grid: TimeGrid, seed: int, method: str,
          size: int, *, white: bool = True) -> tuple[np.ndarray, str]:
    """Paths (size, n_points, dim) and the method used.

    Everything that can raise runs first, on the calling thread. Then one
    job per coordinate c walks its rows a chunk at a time with one
    ``_chunk_drawer``. For each chunk it takes the components k in order,
    draws stream (k, c)'s next rows, cumulates them in place if they are fGn
    steps, scales them by a_k in place and adds them to the output, so each
    entry is 0 + a_0 c_0 + a_1 c_1 + ..., in that order. A white row is thus
    a_k times the cumulative sum of sqrt(dt) z_i. The jobs run by ``_run``.
    ``white=False`` keeps the circulant map at H = 1/2.
    """
    if method not in ("auto", "cholesky", "circulant"):
        raise ValueError(f"unknown sampling method: {method!r}")
    _check_seed(seed)
    if grid.horizon > spec.horizon * (1 + 1e-12):
        raise ValueError("grid extends beyond the spec horizon")
    if method == "auto":
        method = "circulant" if grid.is_uniform else "cholesky"
    elif method == "circulant" and not grid.is_uniform:
        raise ValueError("circulant sampling requires a uniform grid")
    n = len(grid) - 1
    if method == "cholesky" and n + 1 > MAX_CHOLESKY_POINTS:
        raise ConfigurationError(
            f"Cholesky sampling on {n + 1} grid points needs a dense "
            f"{n} x {n} covariance (cap {MAX_CHOLESKY_POINTS} points)"
        )
    values = np.zeros((size, n + 1, spec.dim))
    if n < 1:
        return values, method
    if method == "circulant":
        params = [_circulant_scale(hurst, grid, white) for hurst in spec.hursts]
    else:
        params = [_cholesky_factor(_fbm_covariance(hurst, grid.points[1:]))
                  for hurst in spec.hursts]
    rows = max(1, min(_chunk_rows(n), size))

    def job(c: int) -> None:
        draw = _chunk_drawer(params, rows, n)
        streams = [_stream(seed, k, c) for k in range(spec.n_components)]
        for start in range(0, size, rows):
            out = values[start:start + rows, 1:, c]
            for a, param, rng in zip(spec.coeffs, params, streams):
                part = draw(rng, param, len(out))
                if np.ndim(param) < 2:  # fGn steps
                    np.cumsum(part, axis=1, out=part)
                out += np.multiply(a, part, out=part)

    _run([functools.partial(job, c) for c in range(spec.dim)], size, n)
    return values, method


def sample(
    spec: GmfbmSpec,
    grid: TimeGrid,
    seed: int,
    method: str = "auto",
) -> SamplePath:
    """Draw one exact GMFBM path on the grid: path 0 of ``sample_batch``.

    ``method`` is ``"auto"`` (circulant on uniform grids, Cholesky
    otherwise), ``"circulant"`` or ``"cholesky"``; the returned path records
    the one used.
    """
    values, method = _draw(spec, grid, seed, method, 1)
    return SamplePath(grid=grid, values=values[0], method=method)


def sample_batch(
    spec: GmfbmSpec,
    grid: TimeGrid,
    seed: int,
    n_paths: int,
    method: str = "auto",
) -> np.ndarray:
    """Draw ``n_paths`` independent paths at once; values shape (n_paths, n, d).

    Path k is the same for every ``n_paths`` > k: each (component,
    coordinate) stream hands out its draws path by path. Memory is the
    output plus one chunk's buffers per coordinate, those of the maps its
    components take (at 64 steps about 1.2 MiB, 0.4 MiB if every H is 1/2).
    """
    return _draw(spec, grid, seed, method, n_paths)[0]
