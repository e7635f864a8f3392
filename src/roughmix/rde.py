"""Rough differential equations driven by level-2 rough paths.

The workhorse is the Davie second-order one-step scheme
``y <- y + f(y) X^1 + Df(y)f(y) : X^2`` applied interval by interval. For a
linear field f(y)[:, a] = A_a y the step is the matrix product P_k y with
P_k = I + sum_a A_a X^1_a + sum_{a,b} A_b A_a X^2_{ab}, so ``solve`` builds
every interval's propagator at once and loops only over y <- P_k y; other
fields (sigmoid, constant, wrapped callables) take one ``davie_step`` per
interval. ``linear_exact`` uses the same propagator kernel with the
truncated tensor exponential of the log-lift in place of (X^1, X^2).
Harnesses measure empirical convergence rates, solution Holder regularity,
and parameter stability.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import NumericsError
from .gmfbm import (GmfbmSpec, SamplePath, TimeGrid, _draw, _median, _seeds, path_csv,
                    path_values, sample)
from .lift import Level2RoughPath, dyadic_approx, lift_piecewise_linear

__all__ = [
    "VectorField",
    "RdeSolution",
    "vector_field",
    "linear_field",
    "constant_field",
    "sigmoid_field",
    "davie_step",
    "solve",
    "linear_exact",
    "convergence_rate",
    "smooth_driver_rate",
    "holder_estimate",
    "stability_probe",
]


@dataclass
class VectorField:
    """Vector field f: R^e -> L(R^d, R^e) with its Davie-scheme contraction.

    ``eval(y)`` returns the e x d matrix f(y). ``jacobian_apply(y, g)``
    returns the e-vector with components
    sum_{a,b,l} d_l f_{i b}(y) f_{l a}(y) g_{a b}, the contraction of
    Df(y)f(y) against a d x d level-2 tensor g. ``mats`` holds the (d, e, e)
    generators A_a of a linear field f(y)[:, a] = A_a y and is None for
    every other field.
    """

    eval: Callable[[np.ndarray], np.ndarray]
    jacobian_apply: Callable[[np.ndarray, np.ndarray], np.ndarray]
    mats: np.ndarray | None = None


def vector_field(f: Callable[[np.ndarray], np.ndarray]) -> VectorField:
    """Wrap a plain f(y) -> (e, d) callable; the Jacobian term is finite-differenced."""

    def jac_apply(y, g, h=1e-6):
        fy = f(y)
        out = np.zeros(fy.shape[0])
        # one central difference of f along each column f(y)[:, a], whose
        # (e, d) result contracts with row a of g
        for a in range(fy.shape[1]):
            direction = fy[:, a]
            df = (f(y + h * direction) - f(y - h * direction)) / (2 * h)
            out += df @ g[a]
        return out

    return VectorField(eval=f, jacobian_apply=jac_apply)


def linear_field(mats) -> VectorField:
    """f(y)[:, a] = A_a y for a list of e x e generator matrices, one per driver coordinate."""
    mats = [np.atleast_2d(np.asarray(m, dtype=float)) for m in mats]
    if not mats:
        raise ValueError("linear_field needs at least one generator matrix")
    stacked = np.stack(mats, axis=0)  # (d, e, e)
    if stacked.ndim != 3 or stacked.shape[1] != stacked.shape[2] or stacked.size == 0:
        raise ValueError("generators must be non-empty square matrices, "
                         f"got shape {stacked.shape[1:]}")

    def ev(y):
        return np.einsum("aij,j->ia", stacked, y)

    def jac_apply(y, g):
        # sum_{a,b} (A_b A_a y) g_{a b}
        ay = np.einsum("aij,j->ai", stacked, y)  # (d, e)
        return np.einsum("bik,ak,ab->i", stacked, ay, g)

    return VectorField(eval=ev, jacobian_apply=jac_apply, mats=stacked)


def constant_field(c) -> VectorField:
    """Additive noise: f(y) = c constant, Jacobian term vanishes."""
    c = np.atleast_2d(np.asarray(c, dtype=float))

    def ev(y):
        return c

    def jac_apply(y, g):
        return np.zeros(c.shape[0])

    return VectorField(eval=ev, jacobian_apply=jac_apply)


def sigmoid_field(scale: float = 1.0, d: int = 1) -> VectorField:
    """Bounded smooth field f(y)_{ia} = scale * tanh(y_i + a), e = y.size; C_b^infinity."""
    if d < 1:
        raise ValueError(f"sigmoid_field needs d >= 1, got d={d}")

    def ev(y):
        return scale * np.tanh(y[:, None] + np.arange(d)[None, :])

    def jac_apply(y, g):
        th = np.tanh(y[:, None] + np.arange(d)[None, :])
        # d_l f_{i b} = delta_{il} scale (1 - th_{i b}^2)
        return np.einsum("ib,ia,ab->i", scale * (1.0 - th ** 2), scale * th, g)

    return VectorField(eval=ev, jacobian_apply=jac_apply)


@dataclass
class RdeSolution:
    grid: TimeGrid
    states: np.ndarray  # (n_points, e)

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]

    def to_csv(self) -> str:
        return path_csv(self.grid.points, self.states, "y")


# --------------------------------------------------------------------------- #
# schemes


def davie_step(y: np.ndarray, inc1: np.ndarray, inc2: np.ndarray,
               field: VectorField) -> np.ndarray:
    """One Davie update y + f(y) X^1 + Df(y)f(y) : X^2 (no remainder term)."""
    y = np.asarray(y, dtype=float).ravel()
    out = y + field.eval(y) @ inc1 + field.jacobian_apply(y, inc2)
    if out.shape != y.shape:
        raise ValueError(f"field maps a state of shape {y.shape} to {out.shape}")
    if not np.all(np.isfinite(out)):
        raise NumericsError(f"Davie step produced non-finite state from y={y}")
    return out


def _initial_state(field: VectorField, dim: int, y0) -> np.ndarray:
    """y0 as a finite float vector that ``field`` acts on for a ``dim``-d driver.

    A linear field needs one generator per driver coordinate, each acting on
    y0.size entries; any other field must map y0 to a (y0.size, dim) matrix.
    """
    y = np.atleast_1d(np.asarray(y0, dtype=float))
    if not np.all(np.isfinite(y)):
        raise ValueError(f"initial state must be finite, got {y}")
    if field.mats is not None:
        d, e = field.mats.shape[:2]
        if d != dim:
            raise ValueError("need one generator matrix per driver coordinate")
        if y.size != e:
            raise ValueError(f"y0 has {y.size} entries, the field acts on {e}")
    else:
        shape = np.shape(field.eval(y))
        if shape != (y.size, dim):
            raise ValueError(f"the field maps y0 to shape {shape}, need {(y.size, dim)}")
    return y


def _blow_up(k: int, y: np.ndarray) -> NumericsError:
    return NumericsError(
        f"blow-up at interval {k}: non-finite state from y={y} "
        f"(last finite state max-norm {np.abs(y).max():.6g})"
    )


def _propagators(levels: list, mats: np.ndarray) -> np.ndarray:
    """Per-interval propagators sum_n sum_{|w|=n} levels[n][w, k] A_{w_n}...A_{w_1}.

    ``levels[n]`` is words-first, shape (d^n, k) in tensor storage order, as
    the ``tensor`` kernels store it, and ``mats`` has shape (d, e, e); the
    result is (k, e, e). Word matrices are built once and contracted with
    one einsum per level. Overflow is left to the non-finite check in
    ``_propagate``.
    """
    d, e = mats.shape[:2]
    words = np.eye(e)[None]  # words[w] = A_{w_n} ... A_{w_1}
    with np.errstate(over="ignore", invalid="ignore"):
        props = levels[0][0, :, None, None] * np.eye(e)
        for n in range(1, len(levels)):
            words = np.einsum("aij,wjl->wail", mats, words).reshape(d ** n, e, e)
            props += np.einsum("wk,wij->kij", levels[n], words)
    return props


def _propagate(rp: Level2RoughPath, props: np.ndarray, y: np.ndarray) -> RdeSolution:
    """States y_{k+1} = P_k y_k from a checked y; raises at the first non-finite one.

    A scalar state (e = 1) is one running product over [y0, P_0, P_1, ...]:
    each step is the same single multiply as the 1 x 1 ``np.dot``, so the
    states are bit-identical. Larger states loop sequentially.
    """
    states = np.empty((len(props) + 1, y.size))
    states[0] = y
    # a non-finite state stays non-finite under y <- P_k y, so the first
    # non-finite row marks the blow-up
    with np.errstate(over="ignore", invalid="ignore"):
        if y.size == 1:
            states[1:, 0] = props[:, 0, 0]
            np.multiply.accumulate(states[:, 0], out=states[:, 0])
        else:
            for prop, cur, nxt in zip(props, states[:-1], states[1:]):
                np.dot(prop, cur, out=nxt)
    finite = np.isfinite(states).all(axis=1)
    if not finite.all():
        k = int(np.argmin(finite)) - 1
        raise _blow_up(k, states[k])
    return RdeSolution(grid=rp.grid, states=states)


def solve(rp: Level2RoughPath, field: VectorField, y0) -> RdeSolution:
    """Iterate the Davie scheme over the rough path's intervals.

    A linear field (``field.mats`` set) takes every interval's step as a
    propagator P_k = I + sum_a A_a X^1_a + sum_{a,b} A_b A_a X^2_{ab}, all
    built in one batched einsum per level, and loops only over y <- P_k y.
    Every other field calls ``davie_step`` once per interval. A non-finite
    state raises NumericsError naming the interval and the largest absolute
    entry of the last finite state.
    """
    y = _initial_state(field, rp.dim, y0)
    if field.mats is not None:
        k = rp.n_intervals
        levels = [np.ones((1, k)), rp.inc1.T, rp.inc2.reshape(k, rp.dim ** 2).T]
        return _propagate(rp, _propagators(levels, field.mats), y)
    states = np.empty((rp.n_intervals + 1, y.size))
    states[0] = y
    for k in range(rp.n_intervals):
        try:
            y = davie_step(y, rp.inc1[k], rp.inc2[k], field)
        except NumericsError as err:
            raise _blow_up(k, y) from err
        states[k + 1] = y
    return RdeSolution(grid=rp.grid, states=states)


def linear_exact(rp: Level2RoughPath, mats, y0, level: int = 4) -> RdeSolution:
    """Linear RDE dY = A Y dM via per-interval truncated rough exponentials.

    Per interval, the group-like extension of (X^1, X^2) to the configured
    tensor level is contracted against products of the generators; for
    commuting generators this is exact up to the truncation level. One
    batched log and exp give every interval's extension, ``_propagators``
    turns them into propagators P_k, and only y <- P_k y loops. The
    generators are checked as ``linear_field`` checks them.
    """
    from . import tensor as ta

    field = linear_field(mats)
    d, k = rp.dim, rp.n_intervals
    if level < 2:
        raise ValueError("level must be >= 2")
    ta._check_size(d, level)
    y = _initial_state(field, d, y0)
    # words-first, C-ordered: elementwise results inherit their operands' order
    ell = ta._log([np.ones((1, k)), rp.inc1.T.copy(),
                   rp.inc2.reshape(k, d * d).T.copy()])
    # canonical group-like extension: exp of the level-<=2 log part
    g = ta._exp([np.zeros((1, k)), ell[1], ell[2]]
                + [np.zeros((d ** n, k)) for n in range(3, level + 1)])
    return _propagate(rp, _propagators(g, field.mats), y)


# --------------------------------------------------------------------------- #
# harnesses


def _mesh_levels(mesh_levels) -> list[int]:
    """Mesh levels m (meshes of 2^m intervals) in increasing order."""
    mesh_levels = sorted(int(m) for m in mesh_levels)
    if len(mesh_levels) < 3:
        raise ValueError("need at least 3 mesh levels")
    if mesh_levels[0] < 0:
        raise ValueError(f"mesh levels must be >= 0, got {mesh_levels[0]}")
    return mesh_levels


def _subsampled_errors(path: SamplePath, m_ref: int, mesh_levels,
                       field: VectorField, y0) -> tuple[list, float]:
    """Errors of the solves on the level-m dyadic approximations, and their rate.

    ``path`` has 2^m_ref intervals. The reference is the solve on its full
    lift; each error is the max over the coarse grid points, and the rate
    is the log-log slope of error against mesh size 2^-m.
    """
    ref = solve(lift_piecewise_linear(path), field, y0)
    errors = []
    for m in mesh_levels:
        sol = solve(lift_piecewise_linear(dyadic_approx(path, m)), field, y0)
        errors.append(float(np.abs(sol.states - ref.states[::2 ** (m_ref - m)]).max()))
    h = [2.0 ** -m for m in mesh_levels]
    return errors, float(np.polyfit(np.log(h), np.log(errors), 1)[0])


def convergence_rate(
    spec: GmfbmSpec,
    field: VectorField,
    y0,
    mesh_levels,
    seeds,
    ref_factor: int = 4,
) -> dict:
    """Empirical Davie-scheme rate against a fine-mesh reference.

    The driver is sampled once per seed at ``ref_factor`` (an int power of
    two >= 2) times the finest mesh; each coarse driver is its
    ``dyadic_approx``, on the same realization. Errors are max over the
    coarse grid points; the log-log slope is reported per seed together
    with ``predicted`` = 3 min(H) - 1.

    ``predicted`` is the worst-case exponent, not the rate on every field.
    Commutative fields exceed it: for dY = Y dM the per-step log-error is
    -x^3/6 + x^4/8 with x = X^1, and the measured median slope (seeds 0-19,
    meshes 2^6..2^12) is 0.66, 0.94, 1.29 and 1.52 at H = 0.4, 0.5, 0.6 and
    0.75. A noncommutative 2-d linear field meets it at H = 0.5 (0.50), but
    with min(H) > 1/2 it can fall below: 1.01 against 1.25 at H = 0.75. Its
    slopes (0.30, 0.70 and 1.01 at H = 0.4, 0.6 and 0.75) follow
    2 min(H) - 1/2, which fits the coarse piecewise-linear lift dropping
    the Levy area of the path between grid points. The rate in that regime
    is measured here, not promised.
    """
    mesh_levels = _mesh_levels(mesh_levels)
    seeds = _seeds(seeds)
    _initial_state(field, spec.dim, y0)
    if (not np.issubdtype(type(ref_factor), np.integer) or ref_factor < 2
            or ref_factor & (ref_factor - 1)):
        raise ValueError(f"ref_factor must be a power of two >= 2, got {ref_factor!r}")
    m_ref = mesh_levels[-1] + int(ref_factor).bit_length() - 1
    grid = TimeGrid.dyadic(m_ref, spec.horizon)
    slopes = []
    rows = []  # (mesh, seed, error)
    for seed in seeds:
        path = sample(spec, grid, seed)
        errors, slope = _subsampled_errors(path, m_ref, mesh_levels, field, y0)
        rows += [(2 ** m, int(seed), err) for m, err in zip(mesh_levels, errors)]
        slopes.append(slope)
    return {
        "rows": rows,
        "slopes": slopes,
        "median_slope": float(_median(slopes)),
        "predicted": 3.0 * spec.min_hurst - 1.0,
    }


def smooth_driver_rate(field: VectorField, y0, mesh_levels) -> dict:
    """Rate control on the deterministic smooth driver t -> (t, t^2) on [0, 1].

    The reference mesh is 2^3 times the finest; the dyadic nodes of
    ``linspace`` are exact, so each coarse mesh is a subsample of it.
    """
    mesh_levels = _mesh_levels(mesh_levels)
    m_ref = mesh_levels[-1] + 3
    t = np.linspace(0.0, 1.0, 2 ** m_ref + 1)
    path = SamplePath(grid=TimeGrid(t), values=np.column_stack([t, t ** 2]))
    errors, slope = _subsampled_errors(path, m_ref, mesh_levels, field, y0)
    return {"errors": errors, "slope": slope}


def holder_estimate(values) -> dict:
    """Holder exponent estimate from max increment size across dyadic lags.

    ``values`` is (n + 1, d) and finite; a 1-d array is one coordinate. The
    lags are 1, 2, 4, ... up to n/256 of the n increments, so the path needs
    at least 1025 points (n >= 1024) for three lags: a line through two lags
    leaves no residual to estimate a stderr from. The result does not depend
    on the grid step, which would shift every log-lag alike. For each lag the
    maximum absolute increment is normalized by the Gaussian-extremes factor
    sqrt(2 log(#increments)) before the log-log regression; without it the
    slope is biased low by the slowly varying extreme-value correction. The
    slope and its stderr come from ``np.polyfit(..., cov=True)``.
    """
    values = path_values(values)
    n = values.shape[0] - 1
    if n < 1024:
        raise ValueError(f"need at least 1025 points for three lags, got {n + 1}")
    if not np.isfinite(values).all():
        raise ValueError("path values must be finite")
    if np.ptp(values) == 0.0:
        raise ValueError("constant path has no Holder exponent")
    lags = [2 ** q for q in range((n // 256).bit_length())]
    stats = []
    for lag in lags:
        inc = np.linalg.norm(values[lag:] - values[:-lag], axis=1)
        correction = np.sqrt(2.0 * np.log(max(inc.size, 2)))
        stats.append(inc.max() / correction)
    (slope, _), cov = np.polyfit(np.log(lags), np.log(stats), 1, cov=True)
    return {"exponent": float(slope), "stderr": float(np.sqrt(cov[0, 0]))}


def stability_probe(
    spec: GmfbmSpec,
    perturbations,
    field: VectorField,
    y0,
    seeds,
    n_intervals: int = 512,
) -> dict:
    """Solution sensitivity to (H, a, y0) perturbations under common random numbers.

    For each perturbation size eps the spec is shifted by eps in every Hurst
    parameter and relatively in every coefficient, and y0 by eps; the same
    seed reuses the same Gaussian draws, so the difference isolates the
    parameter effect; each seed's unperturbed path is solved once. Reports
    the median (over seeds) sup-norm difference per eps. Every path, base
    or shifted, takes the circulant map, at H = 1/2 too in place of the
    white map, so a shift onto or off H = 1/2 does not change the map.
    """
    perturbed = {}
    for eps in sorted(float(e) for e in perturbations):
        hursts = tuple(h + eps for h in spec.hursts)
        if any(not (0.0 < h < 1.0) for h in hursts):
            raise ValueError(f"perturbation {eps} pushes a Hurst outside (0,1)")
        perturbed[eps] = replace(spec, hursts=hursts,
                                 coeffs=tuple(a * (1.0 + eps) for a in spec.coeffs))
    seeds = _seeds(seeds)
    grid = TimeGrid.uniform(n_intervals, spec.horizon)
    y0 = _initial_state(field, spec.dim, y0)

    def states(sp: GmfbmSpec, seed, start) -> np.ndarray:
        values = _draw(sp, grid, seed, "circulant", 1, white=False)[0][0]
        return solve(lift_piecewise_linear(values, grid), field, start).states

    bases = [states(spec, seed, y0) for seed in seeds]
    table = {}
    for eps, pert in perturbed.items():
        diffs = [float(np.abs(base - states(pert, seed, y0 + eps)).max())
                 for seed, base in zip(seeds, bases)]
        table[eps] = float(_median(diffs))
    sizes = list(table)
    return {
        "table": table,
        "monotone": all(table[a] <= table[b]
                        for a, b in zip(sizes[:-1], sizes[1:])),
    }
