"""Truncated path signatures and signature-moment experiments.

The signature of sampled data is the exact signature of its piecewise-linear
interpolant: the product over segments of exp(increment) in the truncated
tensor algebra, taken as a balanced Chen product tree batched over paths.
Each linear segment's signature is exactly the tensor exponential of its
increment, so no higher-order log corrections are needed; refinement error
relative to the underlying process is measured empirically instead.
"""

from __future__ import annotations

import numpy as np

from . import tensor as ta
from .gmfbm import GmfbmSpec, SamplePath, TimeGrid, sample_batch
from .lift import cross_level2, lift_piecewise_linear
from .tensor import TruncatedTensor

__all__ = [
    "signature",
    "log_signature",
    "level_formulas_check",
    "expected_signature_mc",
    "cross_term_scaling",
]

# Stored entries per chunk of segment exponentials (8 MiB of float64): bounds
# _signature_levels' working memory on long paths and large batches.
CHUNK_ENTRIES = 2 ** 20


def _signature_levels(values: np.ndarray, level: int) -> list:
    """Raw signature levels (..., d^k) of the polylines through values (..., n, d).

    Chen's identity is associative, so segment exponentials are multiplied
    pairwise, log2(n) batched products with an odd tail carried up, in chunks
    of at most ``CHUNK_ENTRIES`` stored entries folded left to right.
    """
    deltas = np.diff(values, axis=-2)
    d = deltas.shape[-1]
    ta._check_size(d, level)
    per_segment = values[..., 0, 0].size * sum(d ** k for k in range(level + 1))
    chunk = max(1, CHUNK_ENTRIES // per_segment)
    acc = None
    for start in range(0, deltas.shape[-2], chunk):
        part = ta._exp_of_increment(deltas[..., start:start + chunk, :], level)
        while (m := part[0].shape[-2]) > 1:
            prod = ta._mul([lv[..., 0:m - 1:2, :] for lv in part],
                           [lv[..., 1:m:2, :] for lv in part])
            if m % 2:
                prod = [np.concatenate([p, lv[..., -1:, :]], axis=-2)
                        for p, lv in zip(prod, part)]
            part = prod
        part = [lv[..., 0, :] for lv in part]
        acc = part if acc is None else ta._mul(acc, part)
    return acc


def signature(path_or_values, level: int = 4) -> TruncatedTensor:
    """Truncated signature of the polyline through the sample points."""
    if level < 1:
        raise ValueError("level must be >= 1")
    values = (
        path_or_values.values
        if isinstance(path_or_values, SamplePath)
        else np.atleast_2d(np.asarray(path_or_values, dtype=float))
    )
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
    values = sample_batch(spec, grid, seed, n_paths)
    levels = _signature_levels(values, level)
    means = [lv.mean(axis=0) for lv in levels]
    ses = [np.sqrt(np.clip((lv ** 2).mean(axis=0) - m ** 2, 0.0, None) / n_paths)
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
    The continuum prediction for the slope is 2 (H_i + H_j).
    """
    if h_i + h_j <= 0.5:
        raise ValueError(
            "H_i + H_j must exceed 1/2 for the cross Young integral to exist"
        )
    if n_paths < 2:
        raise ValueError("need at least 2 paths")
    t_scales = np.asarray(sorted(float(t) for t in t_scales))
    if np.unique(t_scales).size < 3:
        raise ValueError("need at least 3 distinct interval lengths")
    moments = []
    ses = []
    for si, t in enumerate(t_scales):
        spec = GmfbmSpec((h_i, h_j), (1.0, 1.0), dim=1, horizon=t)
        grid = TimeGrid.uniform(n_steps, t)
        _, comps = sample_batch(spec, grid, seed + si, n_paths,
                                return_components=True)
        # comps is (component, path, point, 1); one cross integral per path
        cross = cross_level2(comps[0], comps[1])[:, 0, 0]
        sq = cross ** 2
        moments.append(sq.mean())
        ses.append(sq.std(ddof=1) / np.sqrt(n_paths))
    logs = np.log(t_scales)
    logm = np.log(moments)
    slope, intercept = np.polyfit(logs, logm, 1)
    return {
        "t_scales": t_scales.tolist(),
        "moments": [float(m) for m in moments],
        "stderrs": [float(s) for s in ses],
        "slope": float(slope),
        "intercept": float(intercept),
        "expected_slope": 2.0 * (h_i + h_j),
    }
