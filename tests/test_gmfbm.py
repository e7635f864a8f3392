import concurrent.futures
import functools
import importlib
import json
import multiprocessing
import sys
import threading
import time
import tracemalloc
import warnings
from concurrent.futures import Future, ThreadPoolExecutor
from decimal import Decimal

import numpy as np
import pytest
from exact_moments import fgn_autocovariance_decimal, fgn_covariance
from hypothesis import given, settings
from hypothesis import strategies as st

from roughmix import gmfbm
from roughmix.errors import ConfigurationError, NonPositiveDefiniteError, NumericsError
from roughmix.estimate import fit_mixture
from roughmix.gmfbm import (
    MAX_CHOLESKY_POINTS,
    GmfbmSpec,
    SamplePath,
    TimeGrid,
    _circulant_fgn,
    _circulant_scale,
    _fgn_autocovariance,
    _fgn_circulant_sqrt_eigs,
    _median,
    covariance,
    dumps,
    format_csv,
    increment_cross_covariance,
    increment_variance,
    sample,
    sample_batch,
    self_similarity_rescale,
)
from roughmix.lift import cauchy_diagnostic, cross_level2, sharpness_probe
from roughmix.rde import convergence_rate, linear_field, stability_probe
from roughmix.signature import _variance_weights, cross_term_scaling, expected_signature_mc

TWO_COMP = GmfbmSpec(hursts=(0.5, 0.75), coeffs=(1.0, 2.0))
BROWNIAN = GmfbmSpec(hursts=(0.5,), coeffs=(1.0,))


# --------------------------------------------------------------------------- #
# spec / grid validation


def test_spec_rejects_bad_parameters():
    with pytest.raises(ValueError):
        GmfbmSpec(hursts=(0.5,), coeffs=(1.0, 2.0))
    with pytest.raises(ValueError):
        GmfbmSpec(hursts=(1.2,), coeffs=(1.0,))
    with pytest.raises(ValueError):
        GmfbmSpec(hursts=(0.5,), coeffs=(0.0,))
    with pytest.raises(ValueError):
        GmfbmSpec(hursts=(0.5,), coeffs=(1.0,), dim=0)
    with pytest.raises(ValueError):
        GmfbmSpec(hursts=(0.5,), coeffs=(1.0,), horizon=0.0)
    with pytest.raises(ValueError, match="at least one component"):
        GmfbmSpec(hursts=(), coeffs=())
    with pytest.raises(ValueError, match="JSON object"):
        GmfbmSpec.from_json("[1, 2]")


def test_spec_takes_python_and_numpy_reals():
    spec = GmfbmSpec(hursts=np.array([0.25, 0.75]), coeffs=(1, np.float32(2.0)),
                     horizon=2)
    assert spec.hursts == (0.25, 0.75) and spec.coeffs == (1.0, 2.0)
    assert isinstance(spec.horizon, float) and spec.horizon == 2.0
    spec = GmfbmSpec(hursts=(0.5,), coeffs=(1.0,), dim=np.int64(2))
    assert type(spec.dim) is int and GmfbmSpec.from_json(spec.to_json()) == spec


def test_spec_accepts_duplicate_hursts():
    spec = GmfbmSpec(hursts=(0.5, 0.5), coeffs=(1.0, 1.0))
    assert spec.n_components == 2


def test_spec_json_round_trip():
    text = TWO_COMP.to_json()
    back = GmfbmSpec.from_json(text)
    assert back == TWO_COMP
    assert json.loads(text)["hursts"] == [0.5, 0.75]


def test_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(np.array([0.1, 0.5]))  # must start at 0
    with pytest.raises(ValueError):
        TimeGrid(np.array([0.0, 0.5, 0.5]))  # strictly increasing
    with pytest.raises(ValueError, match="1-d"):
        TimeGrid(np.zeros((2, 2)))
    with pytest.raises(ValueError, match="row count"):
        SamplePath(grid=TimeGrid.uniform(4), values=np.zeros((4, 1)))
    g = TimeGrid.uniform(8, 2.0)
    assert len(g) == 9 and g.horizon == 2.0 and g.is_uniform
    assert len(TimeGrid.dyadic(3).points) == 9


def test_long_uniform_grid_is_uniform():
    # linspace rounding spreads the spacings by ~2e-10 relative at this size
    assert TimeGrid.uniform(3_000_000).is_uniform


def _stretched_grid(rel, horizon=1.0, n=8):
    """n equal steps over the horizon, the last one stretched by ``rel``."""
    steps = np.full(n, horizon / n)
    steps[-1] *= 1.0 + rel
    return np.concatenate([[0.0], np.cumsum(steps)])


@pytest.mark.parametrize("points", [
    *(_stretched_grid(rel, horizon) for horizon in (1.0, 1e-300, 1e300)
      for rel in (5e-9, 1e-8, 2e-8, -1e-8)),
    np.linspace(0.0, 1e-300, 9), np.linspace(0.0, 1e300, 9),
    np.array([0.0, 1.0, 2.0]), _stretched_grid(2e-8, n=2), np.array([0.0, 1.0, 3.0]),
    np.array([0.0, 1.0, 2.0, np.inf]),
], ids=lambda points: f"{len(points)}-points")
def test_is_uniform_matches_allclose(points):
    steps = np.diff(points)
    assert TimeGrid(points).is_uniform == np.allclose(steps, steps[0], rtol=1e-8, atol=0.0)


# --------------------------------------------------------------------------- #
# covariance structure


def test_covariance_brownian_is_min():
    assert covariance(BROWNIAN, 0.3, 0.7) == pytest.approx(0.3, abs=1e-14)


def test_covariance_zero_at_origin():
    assert covariance(TWO_COMP, 0.0, 1.7) == 0.0


def test_covariance_two_component_at_one():
    # 1*1 + 4*1 = 5
    assert covariance(TWO_COMP, 1.0, 1.0) == pytest.approx(5.0, abs=1e-14)


def test_covariance_rejects_negative_time():
    with pytest.raises(ValueError):
        covariance(BROWNIAN, -0.1, 0.5)


def test_increment_variance_examples():
    assert increment_variance(TWO_COMP, 0.0, 1.0) == pytest.approx(5.0)
    assert increment_variance(TWO_COMP, 0.4, 0.4) == 0.0
    assert increment_variance(BROWNIAN, 0.2, 0.7) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        increment_variance(BROWNIAN, 0.7, 0.2)


@given(
    s=st.floats(0.0, 4.0),
    t=st.floats(0.0, 4.0),
    h1=st.floats(0.05, 0.95),
    h2=st.floats(0.05, 0.95),
)
@settings(max_examples=200, deadline=None)
def test_increment_variance_matches_polarized_covariance(s, t, h1, h2):
    spec = GmfbmSpec(hursts=(h1, h2), coeffs=(1.0, 0.5))
    lo, hi = min(s, t), max(s, t)
    via_cov = (
        covariance(spec, hi, hi)
        - 2 * covariance(spec, lo, hi)
        + covariance(spec, lo, lo)
    )
    direct = increment_variance(spec, lo, hi)
    assert direct == pytest.approx(via_cov, rel=1e-10, abs=1e-10)


@given(s=st.floats(0.0, 4.0), t=st.floats(0.0, 4.0))
@settings(max_examples=100, deadline=None)
def test_covariance_symmetric(s, t):
    assert covariance(TWO_COMP, s, t) == pytest.approx(
        covariance(TWO_COMP, t, s), rel=1e-12, abs=1e-12
    )


def test_increment_cross_covariance_examples():
    # Brownian increments over disjoint intervals are independent
    assert increment_cross_covariance(BROWNIAN, 0.0, 0.3, 0.5, 0.9) == pytest.approx(
        0.0, abs=1e-14
    )
    spec = GmfbmSpec(hursts=(0.75,), coeffs=(1.0,))
    want = 0.5 * (2 ** 1.5 - 2.0)
    assert increment_cross_covariance(spec, 0, 1, 1, 2) == pytest.approx(want)
    assert increment_cross_covariance(spec, 0.5, 0.5, 1, 2) == pytest.approx(0.0)
    with pytest.raises(ValueError):
        increment_cross_covariance(spec, 0.0, 1.0, 0.5, 2.0)


def test_covariance_gram_matrix_positive_semidefinite():
    rng = np.random.default_rng(3)
    for _ in range(5):
        times = np.sort(rng.uniform(0.01, 2.0, size=64))
        gram = np.array(
            [[covariance(TWO_COMP, s, t) for t in times] for s in times]
        )
        eigs = np.linalg.eigvalsh(gram)
        assert eigs.min() > -1e-10 * eigs.max()


def test_self_similarity_rescale():
    assert self_similarity_rescale(TWO_COMP, 1.0) == TWO_COMP
    assert self_similarity_rescale(BROWNIAN, 4.0).coeffs == (2.0,)
    spec = GmfbmSpec(hursts=(0.25, 0.75), coeffs=(1.0, 1.0))
    assert self_similarity_rescale(spec, 16.0).coeffs == pytest.approx((2.0, 8.0))
    with pytest.raises(ValueError):
        self_similarity_rescale(BROWNIAN, 0.0)


# --------------------------------------------------------------------------- #
# sampling


def test_sample_starts_at_zero_and_is_deterministic():
    grid = TimeGrid.uniform(32)
    p1 = sample(TWO_COMP, grid, seed=11)
    p2 = sample(TWO_COMP, grid, seed=11)
    assert np.all(p1.values[0] == 0.0)
    assert np.array_equal(p1.values, p2.values)
    p3 = sample(TWO_COMP, grid, seed=12)
    assert not np.array_equal(p1.values, p3.values)


def test_sample_methods_have_matching_marginal_variance():
    grid = TimeGrid.uniform(64)
    for method in ("cholesky", "circulant"):
        values = sample_batch(TWO_COMP, grid, seed=5, n_paths=4000, method=method)
        var_hat = np.mean(values[:, -1, 0] ** 2)
        se = np.std(values[:, -1, 0] ** 2) / np.sqrt(4000)
        assert abs(var_hat - 5.0) < 4 * se, method


def test_sample_terminal_second_moment_monte_carlo():
    grid = TimeGrid.uniform(16)
    values = sample_batch(TWO_COMP, grid, seed=0, n_paths=10_000)
    sq = values[:, -1, 0] ** 2
    se = sq.std(ddof=1) / np.sqrt(sq.size)
    assert abs(sq.mean() - increment_variance(TWO_COMP, 0.0, 1.0)) < 3 * se


def test_sample_coordinates_independent():
    grid = TimeGrid.uniform(8)
    spec = GmfbmSpec(hursts=(0.5,), coeffs=(1.0,), dim=2)
    values = sample_batch(spec, grid, seed=9, n_paths=20_000)
    x, y = values[:, -1, 0], values[:, -1, 1]
    corr = np.corrcoef(x, y)[0, 1]
    assert abs(corr) < 4.0 / np.sqrt(20_000)


def test_sample_mixes_components_in_order():
    grid = TimeGrid.uniform(16)
    _, c = reference_draw(TWO_COMP, grid, 2, "auto", 1)
    assert c.shape == (2, 1, 17, 1)
    mixed = 1.0 * c[0, 0] + 2.0 * c[1, 0]
    assert np.allclose(mixed, sample(TWO_COMP, grid, seed=2).values)
    # the mix is the elementwise sum a_0 c_0 + a_1 c_1 + ..., in that order
    _, c = reference_draw(THREE_COMP, grid, 2, "auto", 1)
    mixed = 1.0 * c[0, 0] + -0.5 * c[1, 0] + 2.0 * c[2, 0]
    assert np.array_equal(mixed, sample(THREE_COMP, grid, seed=2).values)
    assert np.array_equal(mixed[None], sample_batch(THREE_COMP, grid, 2, 1))


def test_cholesky_retries_a_singular_covariance_with_jitter():
    cov = np.ones((3, 3))  # positive semidefinite, so the first factorization fails
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(cov)
    low = gmfbm._cholesky_factor(cov)
    assert np.abs(low @ low.T - cov).max() <= 1e-11


def test_cholesky_of_an_indefinite_covariance_raises():
    with pytest.raises(NonPositiveDefiniteError, match="even with jitter") as err:
        gmfbm._cholesky_factor(np.array([[1.0, 2.0], [2.0, 1.0]]))
    assert isinstance(err.value, NumericsError)


@pytest.mark.parametrize("method", ["auto", "cholesky"])
def test_cholesky_refused_above_cap(method, monkeypatch):
    # one grid point over the cap, as a non-uniform grid ("auto") and as a
    # Cholesky request: each is refused before its dense covariance is built
    def no_covariance(*args):
        raise AssertionError("covariance built")

    monkeypatch.setattr(gmfbm, "_fbm_covariance", no_covariance)
    grid = TimeGrid.uniform(MAX_CHOLESKY_POINTS)
    if method == "auto":
        grid = TimeGrid(grid.points ** 2)
    with pytest.raises(ConfigurationError, match="cap"):
        sample(BROWNIAN, grid, seed=1, method=method)


@pytest.mark.parametrize("seed", [-1, 2 ** 64, np.int64(-3), 1.0, True, "1", None])
def test_seeds_outside_unsigned_64_bits_rejected(seed, monkeypatch):
    def no_factor(*args, **kwargs):
        raise AssertionError("factorised before checking the seed")

    monkeypatch.setattr(gmfbm, "_cholesky_factor", no_factor)
    spec = GmfbmSpec(hursts=(0.5,), coeffs=(1.0,))
    grid = TimeGrid(np.array([0.0, 0.25, 1.0]))
    with pytest.raises(ValueError, match=r"seed must be an int in \[0, 2\^64\)"):
        sample(spec, grid, seed)
    with pytest.raises(ValueError, match="seed must be"):
        sample_batch(spec, TimeGrid.uniform(8), seed, n_paths=2)


def test_largest_seeds_accepted():
    spec = GmfbmSpec(hursts=(0.5,), coeffs=(1.0,))
    grid = TimeGrid.uniform(8)
    top = sample(spec, grid, 2 ** 64 - 1).values
    assert np.array_equal(sample(spec, grid, np.uint64(2 ** 64 - 1)).values, top)
    assert not np.array_equal(sample(spec, grid, 0).values, top)


def _nothing_drawn_cases():
    field = linear_field([np.eye(1)])
    path = sample(BROWNIAN, TimeGrid.uniform(256), 0)
    bad_seed = ValueError, r"seed must be an int in \[0, 2\^64\)"
    cases = []
    for bad in (-1, 2 ** 64, 1.5, True):
        cases += [pytest.param(call, bad_seed, id=f"{name}-{bad!r}") for name, call in [
            ("cauchy", lambda bad=bad: cauchy_diagnostic(BROWNIAN, 2, 2.1, [0, 1, bad])),
            ("sharpness", lambda bad=bad: sharpness_probe(0.3, 3, [0, 1, bad])),
            ("rate", lambda bad=bad: convergence_rate(BROWNIAN, field, [1.0], [2, 3, 4],
                                                      [0, bad])),
            ("stability", lambda bad=bad: stability_probe(BROWNIAN, [0.01], field, [1.0],
                                                          [0, bad], n_intervals=8)),
            ("bootstrap", lambda bad=bad: fit_mixture(path, n_components=1, n_bootstrap=5,
                                                      bootstrap_seed=bad)),
        ]]
    cases.append(pytest.param(
        lambda: stability_probe(BROWNIAN, [0.01, 0.6], field, [1.0], range(3),
                                n_intervals=8),
        (ValueError, "pushes a Hurst outside"), id="stability-hurst"))
    for level in (0, 30):
        cases.append(pytest.param(
            lambda level=level: expected_signature_mc(
                GmfbmSpec((0.5,), (1.0,), dim=2), TimeGrid.uniform(8), level, 4, 0),
            (ConfigurationError, "level"), id=f"expected-signature-level-{level}"))
    return cases


@pytest.mark.parametrize("call,error", _nothing_drawn_cases())
def test_bad_arguments_rejected_before_any_draw(call, error, monkeypatch):
    def no_draw(*args, **kwargs):
        raise AssertionError("drew before checking the arguments")

    # every harness draws through these names, and every fit through _fit
    for module, name in (("lift", "sample"), ("rde", "sample"), ("rde", "_draw"),
                         ("signature", "sample_batch"), ("estimate", "_fit")):
        monkeypatch.setattr(importlib.import_module(f"roughmix.{module}"), name, no_draw)
    exc, match = error
    with pytest.raises(exc, match=match):
        call()


def test_circulant_requires_uniform_grid():
    grid = TimeGrid(np.array([0.0, 0.1, 0.5, 1.0]))
    with pytest.raises(ValueError):
        sample(BROWNIAN, grid, seed=1, method="circulant")


@pytest.mark.parametrize("grid,method,match", [
    (TimeGrid.uniform(4), "fft", "unknown sampling method"),
    (TimeGrid.uniform(4, 1.5), "auto", "beyond the spec horizon"),
], ids=["unknown-method", "past-horizon"])
def test_sample_rejects_bad_requests(grid, method, match):
    with pytest.raises(ValueError, match=match):
        sample(BROWNIAN, grid, seed=1, method=method)


def test_one_point_grid_samples_a_zero_path():
    grid = TimeGrid(np.array([0.0]))
    path = sample(TWO_COMP, grid, seed=1)
    assert path.values.shape == (1, 1) and path.values[0, 0] == 0.0
    assert not sample_batch(TWO_COMP, grid, seed=1, n_paths=3).any()


FGN_HURSTS = [0.01, 0.1, 0.3, 0.4999, 0.5001, 0.75, 0.95, 0.999]
FGN_LAGS = [*range(1, 40), 100, 1000, 4095, 65535, 262143]


@pytest.mark.parametrize("hurst", [0.1, 0.5, 0.75, 0.95])
def test_circulant_covariance_exact(hurst):
    # the sampler is linear in its 2n normals; feeding it the basis vectors
    # gives its matrix A (the increments of its fBm rows), and A^T A is the
    # covariance it samples; a grid of step 1 leaves the fGn unscaled
    n = 64
    steps = _circulant_fgn(np.eye(2 * n), _circulant_scale(hurst, TimeGrid.uniform(n, n)),
                           np.empty((2 * n, n + 1), dtype=complex))
    responses = np.diff(np.cumsum(steps, axis=1), axis=1, prepend=0.0)
    # against the decimal autocovariance: the float second difference is off
    # by up to 3e-13 at these lags
    assert np.abs(responses.T @ responses - fgn_covariance(hurst, n, n)).max() <= 1e-14


@pytest.mark.parametrize("hurst", FGN_HURSTS)
def test_fgn_autocovariance_matches_decimal_reference(hurst):
    gamma = _fgn_autocovariance(hurst, FGN_LAGS[-1])
    assert gamma[0] == 1.0
    for k in FGN_LAGS:
        want = fgn_autocovariance_decimal(hurst, k)
        assert abs((Decimal(gamma[k]) - want) / want) <= Decimal("4e-15"), k


def test_fgn_autocovariance_vanishes_at_brownian_hurst():
    gamma = _fgn_autocovariance(0.5, 4096)
    assert gamma[0] == 1.0 and not gamma[1:].any()


@pytest.mark.parametrize("hurst", FGN_HURSTS)
def test_fgn_autocovariance_keeps_embedding_nonnegative(hurst):
    # the facts behind a nonnegative definite embedding at every H: negative
    # correlations below H = 1/2; positive, decreasing, convex ones above
    gamma = _fgn_autocovariance(hurst, 1000)
    if hurst < 0.5:
        assert (gamma[1:] < 0).all()
    else:
        assert (gamma > 0).all() and (np.diff(gamma) < 0).all()
        assert (gamma[:-2] - 2 * gamma[1:-1] + gamma[2:] >= 0).all()


def test_long_high_hurst_embedding_is_nonnegative():
    # 2^18 steps at H = 0.999: the second-difference autocovariance put the
    # smallest eigenvalue at -1.2e-8 of the largest; eigenvalues only
    sqrt_eigs = _fgn_circulant_sqrt_eigs.__wrapped__(0.999, 2 ** 18)
    assert sqrt_eigs.size == 2 ** 18 + 1 and np.isfinite(sqrt_eigs).all()


def test_indefinite_embedding_raises_numerics_error(indefinite_embedding):
    with pytest.raises(NumericsError, match="indefinite"):
        sample(TWO_COMP, TimeGrid.uniform(16), seed=1)
    with pytest.raises(NumericsError, match="indefinite"):
        sample_batch(TWO_COMP, TimeGrid.uniform(16), 1, 3)


@given(
    seed=st.integers(0, 2 ** 32),
    n=st.integers(1, 40),
    dim=st.integers(1, 2),
    sizes=st.lists(st.integers(1, 9), min_size=2, max_size=3),
)
@settings(max_examples=40, deadline=None)
def test_paths_do_not_depend_on_batch_size(seed, n, dim, sizes):
    spec = GmfbmSpec(hursts=(0.3, 0.8), coeffs=(1.0, -0.5), dim=dim)
    grid = TimeGrid.uniform(n)
    batches = [sample_batch(spec, grid, seed, b) for b in sizes]
    k = min(sizes)
    for batch in batches:
        assert batch[:k].tobytes() == batches[0][:k].tobytes()
    path = sample(spec, grid, seed)
    assert path.method == "circulant"
    assert path.values.tobytes() == batches[0][0].tobytes()
    # Cholesky rows get the same draws; the matrix product's blocking
    # depends on the batch size, so they agree to rounding
    odd = TimeGrid(grid.points ** 1.5)
    chol = [sample_batch(spec, odd, seed, b) for b in sizes]
    for batch in chol:
        assert np.allclose(batch[:k], chol[0][:k], rtol=1e-12, atol=1e-12)


THREE_COMP = GmfbmSpec(hursts=(0.3, 0.6, 0.9), coeffs=(1.0, -0.5, 2.0), dim=2)
CHUNK_ROWS_64 = gmfbm.CHUNK_ENTRIES // 128  # rows per chunk of a 64-step stream


class _InlineExecutor:
    """Runs each job on the calling thread as it is submitted."""

    def submit(self, fn):
        future = Future()
        future.set_result(fn())
        return future


def test_batch_rows_do_not_depend_on_chunk_boundaries():
    # batch sizes on both sides of one chunk's row count, and a ragged last
    # chunk: every row is drawn as in the largest batch
    grid = TimeGrid.uniform(64)
    sizes = [CHUNK_ROWS_64 - 1, CHUNK_ROWS_64, CHUNK_ROWS_64 + 1,
             2 * CHUNK_ROWS_64 + 7]
    big = sample_batch(THREE_COMP, grid, 4, sizes[-1])
    for size in sizes[:-1]:
        assert sample_batch(THREE_COMP, grid, 4, size).tobytes() == big[:size].tobytes()
    assert sample(THREE_COMP, grid, 4).values.tobytes() == big[0].tobytes()
    # Cholesky rows go through the same chunks, equal to rounding
    odd = TimeGrid(grid.points ** 1.5)
    chol = sample_batch(THREE_COMP, odd, 4, sizes[-1])
    for size in sizes[:-1]:
        assert np.allclose(sample_batch(THREE_COMP, odd, 4, size), chol[:size],
                           rtol=1e-12, atol=1e-12)


def test_output_does_not_depend_on_workers(monkeypatch, pool_of):
    grid, odd = TimeGrid.uniform(64), TimeGrid(TimeGrid.uniform(64).points ** 1.5)
    size = 2 * CHUNK_ROWS_64 + 7
    real = [sample_batch(THREE_COMP, g, 8, size) for g in (grid, odd)]
    for executor in (_InlineExecutor(), pool_of(1)):
        monkeypatch.setattr(gmfbm, "_pool", lambda: executor)
        got = [sample_batch(THREE_COMP, g, 8, size) for g in (grid, odd)]
        assert got[0].tobytes() == real[0].tobytes()
        assert np.allclose(got[1], real[1], rtol=1e-12, atol=1e-12)


def white_rows(grid, seed, component, coord, size):
    """The fBm rows (size, n) of an H = 1/2 stream on a uniform grid: the
    stream's n normals per row, drawn whole, times sqrt(dt), cumulated."""
    n = len(grid) - 1
    z = gmfbm._stream(seed, component, coord).standard_normal((size, n))
    return np.cumsum(np.sqrt(grid.points[1] - grid.points[0]) * z, axis=1)


def reference_draw(spec, grid, seed, method, size):
    """Paths and components as drawn before they were mixed chunk by chunk:
    each (component, coordinate) stream drawn whole, a sampling chunk of rows
    at a time, into its slice of one (N, size, n_points, d) array, then mixed
    by one einsum. An H = 1/2 component under circulant sampling takes the
    white map, by ``white_rows``."""
    if method == "auto":
        method = "circulant" if grid.is_uniform else "cholesky"
    n, rows = len(grid) - 1, gmfbm._chunk_rows(len(grid) - 1)
    comps = np.zeros((spec.n_components, size, n + 1, spec.dim))
    for k, hurst in enumerate(spec.hursts):
        if method == "circulant" and hurst == 0.5:
            for c in range(spec.dim):
                comps[k, :, 1:, c] = white_rows(grid, seed, k, c, size)
            continue
        if method == "circulant":
            scale = gmfbm._circulant_scale(hurst, grid)
        else:
            factor = gmfbm._cholesky_factor(gmfbm._fbm_covariance(hurst, grid.points[1:]))
        for c in range(spec.dim):
            rng = gmfbm._stream(seed, k, c)
            for start in range(0, size, rows):
                out = comps[k, start:start + rows, 1:, c]
                if method == "circulant":
                    z = rng.standard_normal((len(out), 2 * n))
                    steps = _circulant_fgn(z, scale, np.empty((len(out), n + 1), complex))
                    np.cumsum(steps, axis=1, out=out)
                else:
                    np.matmul(rng.standard_normal((len(out), n)), factor.T, out=out)
    return np.einsum("k,k...->...", np.asarray(spec.coeffs), comps), comps


# ids "dim-components"
MIXED_SPECS = {f"{d}-{k}": GmfbmSpec(hursts=(0.3, 0.6, 0.9)[:k],
                                     coeffs=(-0.5, 1.0, 2.0)[:k], dim=d)
               for d in (1, 2, 3) for k in (1, 2, 3)}
# the benchmarks' spec, whose H = 1/2 component no other spec here draws
MIXED_SPECS["bench"] = GmfbmSpec((0.5, 0.75), (1.0, 2.0), dim=2)


@pytest.mark.parametrize("spec", MIXED_SPECS.values(), ids=list(MIXED_SPECS))
def test_draw_equals_whole_streams_mixed_at_once(monkeypatch, pool_of, spec):
    # components added chunk by chunk, one job per coordinate, give the
    # einsum of whole streams bit for bit, at every worker count
    uniform = TimeGrid.uniform(64)
    draws = [(uniform, "circulant"), (uniform, "cholesky"),
             (TimeGrid(uniform.points ** 1.5), "auto")]
    executors = (gmfbm._pool(), _InlineExecutor(), pool_of(1))
    sizes = (1, CHUNK_ROWS_64 - 1, CHUNK_ROWS_64, CHUNK_ROWS_64 + 1)
    for grid, method in draws:
        values = reference_draw(spec, grid, 5, method, 1)[0]
        want = {size: reference_draw(spec, grid, 5, method, size)[0].tobytes()
                for size in sizes}
        for executor in executors:
            monkeypatch.setattr(gmfbm, "_pool", lambda: executor)
            path = sample(spec, grid, 5, method)
            assert path.values.tobytes() == values[0].tobytes()
            for size in sizes:
                assert sample_batch(spec, grid, 5, size, method).tobytes() == want[size]


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("hursts,coeffs", [((0.5,), (1.5,)), ((0.5, 0.75), (-0.5, 2.0))],
                         ids=["brownian", "mixed"])
def test_brownian_rows_are_sqrt_dt_times_cumulated_normals(monkeypatch, pool_of, dim,
                                                           hursts, coeffs):
    # the white map, byte for byte: row p of an H = 1/2 component is the
    # cumulative sum of sqrt(dt) times normals p n .. p n + n - 1 of its
    # stream, times a_0, added to 0 before the H = 0.75 component's rows;
    # dt = 3/64 is not a power of two, so the order of the products shows
    spec = GmfbmSpec(hursts, coeffs, dim=dim, horizon=3.0)
    grid = TimeGrid.uniform(64, 3.0)
    sizes = (CHUNK_ROWS_64 - 1, CHUNK_ROWS_64, CHUNK_ROWS_64 + 1)
    want = {}
    for size in sizes:
        values = np.zeros((size, 65, dim))
        for c in range(dim):
            values[:, 1:, c] += coeffs[0] * white_rows(grid, 9, 0, c, size)
        if len(hursts) > 1:  # the H = 0.75 rows by the circulant oracle
            values += coeffs[1] * reference_draw(spec, grid, 9, "circulant", size)[1][1]
        want[size] = values
    for executor in (_InlineExecutor(), pool_of(1), gmfbm._pool()):
        monkeypatch.setattr(gmfbm, "_pool", lambda: executor)
        for size in sizes:
            got = sample_batch(spec, grid, 9, size, "circulant")
            assert got.tobytes() == want[size].tobytes()
        assert sample(spec, grid, 9).values.tobytes() == want[sizes[0]][0].tobytes()


def test_sample_batch_memory_is_its_output(monkeypatch, pool_of):
    # each coordinate's job holds one chunk's 2n-column normals and spectrum,
    # about 1.2 MiB at 64 steps (peak 2.4 MiB above the output); holding
    # every component of the batch at once peaked at 79 MiB
    two = pool_of(2)
    monkeypatch.setattr(gmfbm, "_pool", lambda: two)
    tracemalloc.start()
    try:
        values = sample_batch(THREE_COMP, TimeGrid.uniform(64), 3, 20_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= values.nbytes + 4 * 2 ** 20, peak


def whole_stream_steps(hurst, grid, seed, component, n_paths):
    """The fGn steps (n_paths, n) of one stream, drawn and mapped in one
    piece: at H = 1/2 by the white map, n normals per row times sqrt(dt)."""
    n = len(grid) - 1
    if hurst == 0.5:
        z = gmfbm._stream(seed, component, 0).standard_normal((n_paths, n))
        return np.sqrt(grid.points[1] - grid.points[0]) * z
    z = gmfbm._stream(seed, component, 0).standard_normal((n_paths, 2 * n))
    return _circulant_fgn(z, gmfbm._circulant_scale(hurst, grid),
                          np.empty((n_paths, n + 1), complex))


def per_scale_cross_term_scaling(h_i, h_j, t_scales, n_paths, seed, n_steps):
    """``cross_term_scaling`` from each scale's whole-stream fGn steps xi and
    stream 1's first n_paths normals z: each squared cross integral is z^2
    times the variance of sum_k (X_{k+1} - xi_k / 2) eta_k given xi, taken
    on the whole arrays by the same weighted sum over the transform."""
    moments, ses = [], []
    for si, t in enumerate(t_scales):
        grid = TimeGrid.uniform(n_steps, t)
        xi = whole_stream_steps(h_i, grid, seed + si, 0, n_paths)
        mid = np.cumsum(xi, axis=1) - xi / 2
        v = np.fft.rfft(mid, n=2 * n_steps, axis=1).view(float)
        var = np.einsum("pk,pk,k->p", v, v, _variance_weights(h_j, grid))
        sq = var * gmfbm._stream(seed + si, 1, 0).standard_normal(n_paths) ** 2
        moments.append(float(sq.mean()))
        ses.append(float(sq.std(ddof=1) / np.sqrt(n_paths)))
    return {
        "t_scales": list(t_scales),
        "moments": moments,
        "stderrs": ses,
        "slope": float(np.polyfit(np.log(t_scales), np.log(moments), 1)[0]),
        "expected_slope": 2.0 * (h_i + h_j),
    }


@pytest.mark.parametrize("n_steps", [1, 5, 64, 256])
@pytest.mark.parametrize("hursts", [(0.5, 0.75), (0.26, 0.25)])
def test_step_reduction_is_the_cross_integral_of_the_paths(n_steps, hursts):
    # path by path, the reduction from the fGn steps equals cross_level2 on
    # the cumulated rows to rounding
    grid = TimeGrid.uniform(n_steps, 0.5)
    xi, eta = (whole_stream_steps(h, grid, 7, k, 50) for k, h in enumerate(hursts))
    x, y = (np.pad(np.cumsum(s, axis=1), ((0, 0), (1, 0)))[..., None] for s in (xi, eta))
    want = cross_level2(x, y)[:, 0, 0]
    got = np.einsum("pk,pk->p", np.cumsum(xi, axis=1) - xi / 2, eta)
    assert np.allclose(got, want, rtol=1e-12, atol=0)


@pytest.mark.parametrize("n_steps", [5, 64, 256, 1000])
def test_cross_term_scaling_equals_one_draw_per_scale(monkeypatch, pool_of, n_steps):
    # chunks of rows reduced as they are drawn, on one pool for all scales:
    # path counts on both sides of one chunk's row count, and 3 to 5 scales,
    # so that a pool of 2 workers runs an odd number of jobs
    rows = gmfbm._chunk_rows(n_steps)
    executors = (gmfbm._pool(), _InlineExecutor(), pool_of(1))
    for i, n_paths in enumerate([2, rows - 1, rows, rows + 1, 1000]):
        scales = [0.125 * 2 ** k for k in range(3 + (i + 2) % 3)]
        want = per_scale_cross_term_scaling(0.5, 0.75, scales, n_paths, 11, n_steps)
        for executor in executors:
            monkeypatch.setattr(gmfbm, "_pool", lambda: executor)
            assert cross_term_scaling(0.5, 0.75, scales, n_paths, 11, n_steps) == want


def test_single_chunk_draws_stay_on_the_calling_thread(monkeypatch):
    def no_pool():
        raise AssertionError("pool used")

    monkeypatch.setattr(gmfbm, "_pool", no_pool)
    sample_batch(THREE_COMP, TimeGrid.uniform(64), 1, CHUNK_ROWS_64)
    sample(TWO_COMP, TimeGrid.uniform(gmfbm.CHUNK_ENTRIES // 2), 1)
    with pytest.raises(AssertionError, match="pool used"):
        sample_batch(THREE_COMP, TimeGrid.uniform(64), 1, CHUNK_ROWS_64 + 1)


def test_parallel_draws_run_on_the_same_workers(monkeypatch):
    # the pool outlives each draw: three pooled draws run their jobs on the
    # threads of one pool, which stay the same from draw to draw
    ran_on, stream = [], gmfbm._stream

    def recording_stream(*args):
        ran_on.append(threading.get_ident())
        return stream(*args)

    monkeypatch.setattr(gmfbm, "_stream", recording_stream)
    pool, workers = gmfbm._pool(), []
    for seed in range(3):
        sample_batch(THREE_COMP, TimeGrid.uniform(64), seed, 2 * CHUNK_ROWS_64)
        assert gmfbm._pool() is pool
        workers.append({t.ident for t in pool._threads if t.is_alive()})
    assert workers[0] == workers[1] == workers[2]
    assert len(ran_on) == 3 * 6 and set(ran_on) <= workers[0]  # 6 streams a draw
    assert threading.get_ident() not in workers[0]


def test_concurrent_draws_match_sequential_ones():
    # two threads draw on the one pool at once: sample_batch and
    # cross_term_scaling, each three times, give the bytes they give alone
    grid, scales = TimeGrid.uniform(64), [0.25, 0.5, 1.0, 2.0]

    def batch():
        return sample_batch(THREE_COMP, grid, 6, 2 * CHUNK_ROWS_64 + 7).tobytes()

    def cross():
        return cross_term_scaling(0.5, 0.75, scales, 2 * CHUNK_ROWS_64, 6, 64)

    want = (batch(), cross())
    start = threading.Barrier(2)

    def three(draw):
        start.wait()
        return [draw() for _ in range(3)]

    with ThreadPoolExecutor(max_workers=2) as callers:
        got = [callers.submit(three, draw) for draw in (batch, cross)]
        assert got[0].result(60) == [want[0]] * 3
        assert got[1].result(60) == [want[1]] * 3


def test_threads_that_draw_first_at_once_make_one_pool(monkeypatch):
    # eight threads ask for the pool at once while none exists, with a short
    # switch interval: a check-then-make without the lock makes several
    made = []

    class Recorded(ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recorded)
    monkeypatch.setattr(gmfbm, "_process_pool", None)
    start, got = threading.Barrier(8), []

    def first_draw():
        start.wait()
        got.append(gmfbm._pool())

    callers = [threading.Thread(target=first_draw) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in callers:
            t.start()
        for t in callers:
            t.join(30)
    finally:
        sys.setswitchinterval(interval)
        for pool in made:
            pool.shutdown()
    assert not any(t.is_alive() for t in callers)
    assert len(made) == 1 and got == made * 8


def test_job_error_is_raised_after_the_other_jobs_finish():
    # a failed call leaves no job writing into its output: the error of the
    # first failed job is raised once the jobs after it have finished
    finished = []

    def fail():
        raise ValueError("job 0 failed")

    def slow(i):
        time.sleep(0.2)
        finished.append(i)

    jobs = [fail] + [functools.partial(slow, i) for i in (1, 2)]
    with pytest.raises(ValueError, match="job 0 failed"):
        gmfbm._run(jobs, gmfbm.CHUNK_ENTRIES, 1)  # two chunks: on the pool
    assert sorted(finished) == [1, 2]


def _send_batch(conn):
    conn.send_bytes(sample_batch(THREE_COMP, TimeGrid.uniform(64), 2,
                                 2 * CHUNK_ROWS_64).tobytes())
    conn.close()


def test_forked_child_samples_on_a_pool_of_its_own():
    # the parent's pool exists, but its threads do not in the child, which
    # forgets it and makes a pool of its own at its first pooled draw
    want = sample_batch(THREE_COMP, TimeGrid.uniform(64), 2, 2 * CHUNK_ROWS_64)
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_send_batch, args=(send,))
    child.start()
    try:
        assert recv.poll(60), "forked child produced no batch"
        assert recv.recv_bytes() == want.tobytes()
        child.join(10)
        assert not child.is_alive() and child.exitcode == 0
    finally:
        if child.is_alive():
            child.kill()


def test_high_hurst_samples_by_circulant():
    spec = GmfbmSpec(hursts=(0.95,), coeffs=(1.0,))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        path = sample(spec, TimeGrid.uniform(64), seed=0)
    assert path.method == "circulant" and not path.used_fallback
    for n in (64, 2048, 4096):
        for hurst in np.linspace(0.05, 0.99, 95):
            _fgn_circulant_sqrt_eigs.__wrapped__(hurst, n)  # raises if indefinite


def test_repeated_samples_are_byte_identical():
    grid = TimeGrid.uniform(512)
    first = sample(TWO_COMP, grid, seed=3).values.tobytes()
    assert sample(TWO_COMP, grid, seed=3).values.tobytes() == first
    assert sample_batch(TWO_COMP, grid, 3, 2)[0].tobytes() == first


def test_sample_is_built_from_the_sfc64_streams():
    # the path by hand, from the module docstring's half-spectrum map: a new
    # generator, seeding or map has to change this test too
    spec = GmfbmSpec(hursts=(0.3, 0.8), coeffs=(1.0, -0.5), dim=2)
    n, seed = 16, 2 ** 64 - 5
    want = np.zeros((n + 1, spec.dim))
    for k, (hurst, a) in enumerate(zip(spec.hursts, spec.coeffs)):
        eigs = _fgn_circulant_sqrt_eigs(hurst, n) ** 2
        real_bin = np.isin(np.arange(n + 1), [0, n])
        for c in range(spec.dim):
            ss = np.random.SeedSequence(seed, spawn_key=(k, c))
            z = np.random.Generator(np.random.SFC64(ss)).standard_normal(2 * n)
            bins = np.concatenate([[z[0]], z[2::2] + 1j * z[3::2], [z[1]]])
            spectrum = bins * np.sqrt(np.where(real_bin, 2, 1) * n * eigs) * (1 / n) ** hurst
            want[1:, c] += a * np.cumsum(np.fft.irfft(spectrum, n=2 * n)[:n])
    got = sample(spec, TimeGrid.uniform(n), seed).values
    assert np.allclose(got, want, rtol=1e-13, atol=1e-15)


def test_cached_circulant_eigenvalues_are_read_only():
    eigs = _fgn_circulant_sqrt_eigs(0.3, 128)
    assert _fgn_circulant_sqrt_eigs(0.3, 128) is eigs
    assert not eigs.flags.writeable
    with pytest.raises(ValueError):
        eigs[0] = 0.0


def test_self_similarity_in_law():
    # second moments of M_{h t} match the rescaled spec
    h = 4.0
    spec = GmfbmSpec(hursts=(0.3, 0.8), coeffs=(1.0, 1.0), horizon=h)
    grid_h = TimeGrid.uniform(8, h)
    values = sample_batch(spec, grid_h, seed=21, n_paths=20_000, method="circulant")
    rescaled = self_similarity_rescale(spec, h)
    for j in (2, 5, 8):
        t = grid_h.points[j] / h
        sq = values[:, j, 0] ** 2
        se = sq.std(ddof=1) / np.sqrt(sq.size)
        want = increment_variance(rescaled, 0.0, t)
        assert abs(sq.mean() - want) < 4 * se


def test_csv_round_trip():
    grid = TimeGrid.uniform(8)
    path = sample(TWO_COMP, grid, seed=3)
    back = SamplePath.from_csv(path.to_csv())
    assert np.array_equal(back.values, path.values)
    assert np.array_equal(back.grid.points, path.grid.points)
    header = path.to_csv().splitlines()[0]
    assert header == "t,x1"


def test_csv_golden_bytes():
    path = SamplePath(TimeGrid(np.array([0.0, 0.5, 1.0])), np.array([0.1, -0.0, 2 / 3]))
    assert path.to_csv() == (
        "t,x1\n0,0.10000000000000001\n0.5,-0\n1,0.66666666666666663\n"
    )
    assert format_csv("m,stat,value", [(3, "median", 0.1)]) == (
        "m,stat,value\n3,median,0.10000000000000001\n"
    )


def _per_field_csv(header, rows):
    """Reference writer: each field on its own, floats as %.17g."""
    def field(v):
        return f"{v:.17g}" if isinstance(v, float) else str(v)

    return "\n".join([header] + [",".join(map(field, row)) for row in rows]) + "\n"


def test_csv_matches_per_field_writer():
    rng = np.random.default_rng(6)
    values = rng.standard_normal((8193, 3)) * 10.0 ** rng.integers(-320, 300, (8193, 3))
    values[::97, 1] = -0.0
    path = SamplePath(TimeGrid.uniform(8192), values)
    rows = np.column_stack([path.grid.points, path.values]).tolist()
    assert path.to_csv() == _per_field_csv("t,x1,x2,x3", rows)
    mixed = [(m, 10 ** (3 * m), "median", np.float64(v), float(-v), True)
             for m, v in enumerate(rng.standard_normal(40))]
    header = "m,big,stat,value,neg,flag"
    assert format_csv(header, mixed) == _per_field_csv(header, mixed)
    assert format_csv("stat,value", []) == "stat,value\n"


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_writers_refuse_non_finite_values(bad):
    with pytest.raises(NumericsError):
        format_csv("t,x1", [(0.0, 1.0), (1.0, bad)])
    with pytest.raises(NumericsError):
        dumps({"levels": [[1.0, bad]]})


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("text", ["", "t,x1\n", "t\n0\n0.5\n1\n"],
                         ids=["empty", "header-only", "t-only"])
def test_from_csv_rejects_missing_rows_or_values(text):
    with pytest.raises(ValueError):
        SamplePath.from_csv(text)


@pytest.mark.parametrize("nans", [0, 1, 2], ids=["finite", "one-nan", "two-nans"])
@pytest.mark.parametrize("shape", [(1,), (2,), (5,), (6,), (1, 3), (4, 3), (7, 3)])
def test_median_is_numpys_bit_for_bit(shape, nans):
    # odd and even sizes, 1-d and 2-d, NaN anywhere along the axis
    rng = np.random.default_rng(len(shape) * 100 + shape[0] * 10 + nans)
    values = rng.normal(size=shape)
    values.flat[rng.choice(values.size, min(nans, values.size), replace=False)] = np.nan
    for given in (values, values.tolist()):
        want, got = np.median(given, axis=0), _median(given)
        assert type(got) is type(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
