"""Truncated path signatures and signature-moment experiments.

The signature of sampled data is the exact signature of its piecewise-linear
interpolant: the product over segments of exp(increment) in the truncated
tensor algebra, taken by Chen accumulation (a running sum over segments, one
cumsum per level below the top) batched over paths. Each linear segment's
signature is exactly the tensor exponential of its increment, so no
higher-order log corrections are needed; refinement error relative to the
underlying process is measured empirically instead.

A call's working memory is one block: a flat float64 workspace, sized for
the largest chunk and reused by the others, holds every array of the
accumulation as a view, written with ``out=`` in the order of fresh
temporaries, so every level is the same to the bit. glibc maps a block that
large fresh, and freeing it raises its dynamic mmap and trim thresholds
above it (mallopt(3)), so later calls, and other layers' smaller
temporaries, reuse resident heap pages. With a dozen separate 64-256 KiB
temporaries instead, each call on a 4097-point d = 2 path at level 4
faulted about 224 fresh pages in.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import tensor as ta
from .gmfbm import (GmfbmSpec, SamplePath, TimeGrid, _check_seed, _chunk_drawer,
                    _chunk_rows, _circulant_scale, _distinct, _run, _stream,
                    path_values, sample_batch)
from .tensor import TruncatedTensor

__all__ = [
    "signature",
    "log_signature",
    "level_formulas_check",
    "expected_signature_mc",
    "cross_term_scaling",
]

# Entries per chunk, counting a full signature per segment (8 MiB of float64):
# bounds _signature_levels' working memory on long paths and large batches.
# That memory is one workspace block per call, at most about twice a chunk's
# entries, so that freeing it lifts the allocator's thresholds above the
# call's working set (see the module docstring).
CHUNK_ENTRIES = 2 ** 20


def _segment_sum_outer(a: np.ndarray, b: np.ndarray, out=None) -> np.ndarray:
    """sum_j a[..., j] (x) b[..., j] for raw levels (d^i, ..., s) and (d^k, ..., s):
    one matmul over the segment axis per batch entry, words-first (d^(i+k), ...).
    ``out``, if given, is a C-contiguous (..., d^(i+k)) array to compute into."""
    if out is not None:
        out = out.reshape(out.shape[:-1] + (a.shape[0], b.shape[0]))
    prod = np.matmul(np.moveaxis(a, 0, -2), np.moveaxis(b, 0, -1), out=out)
    return np.moveaxis(prod.reshape(prod.shape[:-2] + (-1,)), -1, 0)


def _chunk_shapes(d: int, level: int, shape: tuple) -> list:
    """Shapes of the arrays ``_chunk_signature`` works in, for increments
    (d,) + shape: the increments, one scaled copy, the powers for n < level,
    the running levels 1 .. level - 1, one outer product and one matmul."""
    rows = ([d, d] + [d ** n for n in range(level)]
            + [d ** k for k in range(1, level)])
    return ([(r,) + shape for r in rows]
            + [(d ** (level - 1),) + shape[:-1] + (shape[-1] - 1,),
               shape[:-1] + (d ** level,)])


def _views(work: np.ndarray, shapes: list) -> list:
    """Consecutive C-contiguous views of the flat array ``work``, one per shape."""
    views, used = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(work[used:used + size].reshape(shape))
        used += size
    return views


def _chunk_signature(values: np.ndarray, level: int, work: np.ndarray) -> list:
    """Raw signature levels (d^k, ...) of the polyline through values (..., s + 1, d).

    Chen's identity as a running sum over the segments j:
    S^k(t_{j+1}) = S^k(t_j) + sum_{m=1..k} S^{k-m}(t_j) (x) delta_j^{(x) m} / m!.
    Levels 1 .. level - 1 are one cumsum each; the top level is needed only
    at the end, so it is the segment sum of those outer products, with
    delta_j^{(x) level} / level! taken as (delta_j^{(x) (level-1)} / (level-1)!)
    (x) delta_j / level, as in ``ta._exp_of_increment``. Every array but the
    returned levels is a view of the flat workspace ``work``, laid out by
    ``_chunk_shapes``; the arithmetic is that of fresh temporaries.
    """
    shape = values.shape[:-2] + (values.shape[-2] - 1,)
    delta, scaled, *views = _views(work, _chunk_shapes(values.shape[-1], level, shape))
    powers, running = views[:level], [None] + views[level:2 * level - 1]
    prod, mat = views[2 * level - 1:]
    # words-first increments (d, ..., s), segments along memory
    np.subtract(np.moveaxis(values[..., 1:, :], -1, 0),
                np.moveaxis(values[..., :-1, :], -1, 0), out=delta)
    powers[0].fill(1.0)
    for n in range(1, level):
        ta._outer(powers[n - 1], np.divide(delta, n, out=scaled), out=powers[n])
    # running[k][..., j]: level k of the signature after segment j
    for k in range(1, level):
        step = running[k]
        np.copyto(step, powers[k])
        for m in range(1, k):
            step[..., 1:] += ta._outer(running[k - m][..., :-1], powers[m][..., 1:],
                                       out=prod[:len(step)])
        np.cumsum(step, axis=-1, out=step)
    top = _segment_sum_outer(powers[level - 1], np.divide(delta, level, out=scaled))
    for m in range(1, level):
        top += _segment_sum_outer(running[level - m][..., :-1], powers[m][..., 1:], out=mat)
    return [powers[0][..., 0].copy()] + [lv[..., -1].copy() for lv in running[1:]] + [top]


def _signature_levels(values: np.ndarray, level: int) -> list:
    """Raw signature levels (d^k, ...) of the polylines through values (..., n, d).

    Segments are taken in chunks of at most ``CHUNK_ENTRIES`` stored entries,
    each by Chen accumulation in one workspace sized for the largest chunk,
    and the chunks multiplied left to right.
    """
    d = values.shape[-1]
    ta._check_size(d, level)
    per_segment = values[..., 0, 0].size * sum(d ** k for k in range(level + 1))
    chunk = max(1, CHUNK_ENTRIES // per_segment)
    largest = values.shape[:-2] + (min(chunk, values.shape[-2] - 1),)
    work = np.empty(sum(math.prod(shape) for shape in _chunk_shapes(d, level, largest)))
    acc = None
    for start in range(0, values.shape[-2] - 1, chunk):
        part = _chunk_signature(values[..., start:start + chunk + 1, :], level, work)
        acc = part if acc is None else ta._mul(acc, part)
    return acc


def signature(path_or_values, level: int = 4) -> TruncatedTensor:
    """Truncated signature of the polyline through the sample points."""
    if level < 1:
        raise ValueError("level must be >= 1")
    values = (path_or_values.values if isinstance(path_or_values, SamplePath)
              else path_values(path_or_values))
    if values.shape[0] < 2:
        raise ValueError("need at least 2 grid points")
    return TruncatedTensor(values.shape[1], level, _signature_levels(values, level))


def log_signature(path_or_values, level: int = 4) -> TruncatedTensor:
    return ta.log(signature(path_or_values, level))


def level_formulas_check(path_or_values) -> dict:
    """Residuals tying the signature's first two levels to the level-2 lift.

    For a geometric (piecewise-linear) lift, S^(1) equals the total increment
    and S^(2) equals the lift's level-2 tensor, whose symmetric part already
    carries (1/2) S^(1) (x) S^(1).
    """
    from .lift import lift_piecewise_linear

    sig = signature(path_or_values, level=2)
    rp = lift_piecewise_linear(path_or_values)
    x1, x2 = rp.total()
    _, viol = ta.is_group_like(sig)
    return {
        "level1_residual": float(np.abs(sig.level_array(1) - x1).max()),
        "level2_residual_geometric": float(
            np.abs(sig.level_array(2, reshape=True) - x2).max()
        ),
        "shuffle_violation": float(viol),
    }


def expected_signature_mc(
    spec: GmfbmSpec,
    grid: TimeGrid,
    level: int,
    n_paths: int,
    seed: int,
) -> tuple[TruncatedTensor, TruncatedTensor]:
    """Monte Carlo mean of path signatures, with per-entry standard errors.

    Returns (mean, standard_error) as tensors of matching shape.
    """
    if n_paths < 2:
        raise ValueError("need at least 2 paths")
    ta._check_size(spec.dim, level)
    values = sample_batch(spec, grid, seed, n_paths)
    levels = _signature_levels(values, level)
    means = [lv.mean(axis=-1) for lv in levels]
    ses = [np.sqrt(np.clip((lv ** 2).mean(axis=-1) - m ** 2, 0.0, None) / n_paths)
           for lv, m in zip(levels, means)]
    return tuple(TruncatedTensor(spec.dim, level, lv) for lv in (means, ses))


def cross_term_scaling(
    h_i: float,
    h_j: float,
    t_scales,
    n_paths: int,
    seed: int,
    n_steps: int = 256,
) -> dict:
    """Log-log slope of E|int int dB^{H_i} (x) dB^{H_j}|^2 against interval length.

    The double integral is computed exactly from piecewise-linear
    interpolants of the two independent fBm components on a common grid.
    The prediction for the slope, 2 (H_i + H_j), is exact on this discrete
    grid too: the grid scales with the interval, so by self-similarity the
    discrete moment is exactly a constant times t^{2 (H_i + H_j)}, and the
    slope's error is Monte Carlo noise alone.

    Scale si draws its two components from the streams of seed + si, as
    ``sample_batch`` does, on the sampling pool, one job per scale. Each
    job draws its two streams a sampling chunk of rows at a time with one
    ``gmfbm._chunk_drawer``, as fGn steps xi and eta (by the white map at
    H = 1/2, as ``sample_batch`` draws them), and reduces each chunk
    to its squared cross integrals, so memory does not grow with
    ``n_paths``. The integral over a row is sum_k (X_{k+1} - xi_k / 2) eta_k,
    with X the one cumulative sum of xi: ``lift.cross_level2`` on the two
    fBm rows, to rounding. X and the midpoints go into a row buffer of the
    job's, as drawing eta overwrites xi.
    """
    if h_i + h_j <= 0.5:
        raise ValueError(
            "H_i + H_j must exceed 1/2 for the cross Young integral to exist"
        )
    if n_paths < 2:
        raise ValueError("need at least 2 paths")
    t_scales = np.asarray(sorted(float(t) for t in t_scales))
    if _distinct(t_scales) < 3:
        raise ValueError("need at least 3 distinct interval lengths")
    _check_seed(seed, span=t_scales.size)  # scale si draws from seed + si
    # the spectra of both components at every scale, checked before any draw
    factors = []
    for t in t_scales:
        spec = GmfbmSpec((h_i, h_j), (1.0, 1.0), horizon=t)
        grid = TimeGrid.uniform(n_steps, t)
        factors.append([_circulant_scale(h, grid, white=True) for h in spec.hursts])
    rows = min(_chunk_rows(n_steps), n_paths)
    sq = np.empty((t_scales.size, n_paths))

    def fill(si: int) -> None:
        draw = _chunk_drawer("circulant", rows, n_steps)
        streams = [_stream(seed + si, k, 0) for k in (0, 1)]
        mid = np.empty((rows, n_steps))
        for start in range(0, n_paths, rows):
            m = min(rows, n_paths - start)
            xi = draw(streams[0], factors[si][0], m)
            x = np.cumsum(xi, axis=1, out=mid[:m])
            x += np.multiply(xi, -0.5, out=xi)  # the midpoints (X_k + X_{k+1}) / 2
            eta = draw(streams[1], factors[si][1], m)  # overwrites xi
            sq[si, start:start + m] = np.einsum("pk,pk->p", x, eta) ** 2

    _run([functools.partial(fill, si) for si in range(t_scales.size)], n_paths, n_steps)
    moments = sq.mean(axis=1)
    ses = sq.std(axis=1, ddof=1) / np.sqrt(n_paths)
    slope = np.polyfit(np.log(t_scales), np.log(moments), 1)[0]
    return {
        "t_scales": t_scales.tolist(),
        "moments": moments.tolist(),
        "stderrs": ses.tolist(),
        "slope": float(slope),
        "expected_slope": 2.0 * (h_i + h_j),
    }
