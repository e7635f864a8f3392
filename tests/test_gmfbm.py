import json
import multiprocessing
import warnings
from concurrent.futures import Future, ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roughmix import gmfbm
from roughmix.errors import ConfigurationError, NumericsError
from roughmix.gmfbm import (
    MAX_CHOLESKY_POINTS,
    GmfbmSpec,
    SamplePath,
    TimeGrid,
    _fgn_circulant,
    _fgn_circulant_sqrt_eigs,
    covariance,
    dumps,
    format_csv,
    increment_cross_covariance,
    increment_variance,
    sample,
    sample_batch,
    self_similarity_rescale,
)

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
    g = TimeGrid.uniform(8, 2.0)
    assert len(g) == 9 and g.horizon == 2.0 and g.is_uniform
    assert len(TimeGrid.dyadic(3).points) == 9


def test_long_uniform_grid_is_uniform():
    # linspace rounding spreads the spacings by ~2e-10 relative at this size
    assert TimeGrid.uniform(3_000_000).is_uniform


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


def test_sample_components_retained_and_mix():
    grid = TimeGrid.uniform(16)
    path = sample(TWO_COMP, grid, seed=2)
    assert path.components.shape == (2, 17, 1)
    mixed = 1.0 * path.components[0] + 2.0 * path.components[1]
    assert np.allclose(mixed, path.values)


@pytest.mark.parametrize("method", ["auto", "cholesky", "circulant"])
def test_cholesky_refused_above_cap(method, monkeypatch):
    # one grid point over the cap, as a non-uniform grid ("auto"), a Cholesky
    # request and a circulant embedding that falls back: each is refused
    # before its dense covariance is built
    def no_covariance(*args):
        raise AssertionError("covariance built")

    monkeypatch.setattr(gmfbm, "_fbm_covariance", no_covariance)
    monkeypatch.setattr(gmfbm, "_fgn_circulant_sqrt_eigs", lambda hurst, n: None)
    grid = TimeGrid.uniform(MAX_CHOLESKY_POINTS)
    if method == "auto":
        grid = TimeGrid(grid.points ** 2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the fallback's warning
        with pytest.raises(ConfigurationError, match="cap"):
            sample(BROWNIAN, grid, seed=1, method=method)


def test_circulant_requires_uniform_grid():
    grid = TimeGrid(np.array([0.0, 0.1, 0.5, 1.0]))
    with pytest.raises(ValueError):
        sample(BROWNIAN, grid, seed=1, method="circulant")


class _BasisDraws:
    """Stands in for a Generator: its "normals" are the rows of the identity."""

    def standard_normal(self, shape):
        return np.eye(*shape)


@pytest.mark.parametrize("hurst", [0.1, 0.5, 0.75, 0.95])
def test_circulant_covariance_exact(hurst):
    # the sampler is linear in its 2n normals; feeding it the basis vectors
    # gives its matrix A, and A^T A is the covariance it samples
    n = 64
    responses = _fgn_circulant(_fgn_circulant_sqrt_eigs(hurst, n),
                               _BasisDraws(), 2 * n)
    lag = np.abs(np.subtract.outer(np.arange(n), np.arange(n))).astype(float)
    toeplitz = 0.5 * ((lag + 1) ** (2 * hurst) - 2 * lag ** (2 * hurst)
                      + np.abs(lag - 1) ** (2 * hurst))
    assert np.abs(responses.T @ responses - toeplitz).max() <= 1e-14


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


def test_output_does_not_depend_on_workers(monkeypatch):
    grid, odd = TimeGrid.uniform(64), TimeGrid(TimeGrid.uniform(64).points ** 1.5)
    size = 2 * CHUNK_ROWS_64 + 7
    real = [sample_batch(THREE_COMP, g, 8, size) for g in (grid, odd)]
    one_worker = ThreadPoolExecutor(max_workers=1)
    try:
        for executor in (_InlineExecutor(), one_worker):
            monkeypatch.setattr(gmfbm, "_executor", lambda: executor)
            got = [sample_batch(THREE_COMP, g, 8, size) for g in (grid, odd)]
            assert got[0].tobytes() == real[0].tobytes()
            assert np.allclose(got[1], real[1], rtol=1e-12, atol=1e-12)
    finally:
        one_worker.shutdown()


def test_single_chunk_draws_stay_on_the_calling_thread(monkeypatch):
    def no_pool():
        raise AssertionError("pool used")

    monkeypatch.setattr(gmfbm, "_executor", no_pool)
    sample_batch(THREE_COMP, TimeGrid.uniform(64), 1, CHUNK_ROWS_64)
    sample(TWO_COMP, TimeGrid.uniform(gmfbm.CHUNK_ENTRIES // 2), 1)
    with pytest.raises(AssertionError, match="pool used"):
        sample_batch(THREE_COMP, TimeGrid.uniform(64), 1, CHUNK_ROWS_64 + 1)


def _send_batch(conn):
    conn.send_bytes(sample_batch(THREE_COMP, TimeGrid.uniform(64), 2,
                                 2 * CHUNK_ROWS_64).tobytes())
    conn.close()


def test_forked_child_samples_on_a_pool_of_its_own():
    # the child inherits the parent's pool object but none of its threads
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
            assert _fgn_circulant_sqrt_eigs(hurst, n) is not None, (n, hurst)


def test_repeated_samples_are_byte_identical():
    grid = TimeGrid.uniform(512)
    first = sample(TWO_COMP, grid, seed=3).values.tobytes()
    assert sample(TWO_COMP, grid, seed=3).values.tobytes() == first
    assert sample_batch(TWO_COMP, grid, 3, 2)[0].tobytes() == first


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
