import numpy as np
import pytest
from exact_moments import (area_matrix, bilinear_moment, cauchy_increment_matrix,
                           increment_covariance)
from hypothesis import given, settings
from hypothesis import strategies as st
from rough_paths import restricted

from roughmix.errors import CompositionError
from roughmix.gmfbm import GmfbmSpec, SamplePath, TimeGrid, sample, sample_batch
from roughmix.lift import (
    Level2RoughPath,
    PartitionSchedule,
    _dp_distance,
    cauchy_diagnostic,
    chen_compose,
    cross_level2,
    dyadic_approx,
    lift_piecewise_linear,
    p_variation,
    sharpness_probe,
)


def riemann_level2(values, refine=101, rule="midpoint"):
    """Brute-force Riemann sum of int (X_u - X_s) (x) dX_u on a refined polyline."""
    values = np.asarray(values, dtype=float)
    n, d = values.shape
    t = np.arange(n, dtype=float)
    tf = np.linspace(0.0, n - 1.0, (n - 1) * refine + 1)
    fine = np.column_stack([np.interp(tf, t, values[:, c]) for c in range(d)])
    dX = np.diff(fine, axis=0)
    if rule == "midpoint":
        left = 0.5 * (fine[:-1] + fine[1:]) - fine[0]
    else:
        left = fine[:-1] - fine[0]
    return np.einsum("ka,kb->ab", left, dX)


# --------------------------------------------------------------------------- #
# dyadic approximation


def parabola_path(m):
    t = np.linspace(0.0, 1.0, 2 ** m + 1)
    return SamplePath(grid=TimeGrid(t), values=np.column_stack([t, t ** 2]))


def fine_grid_approx(path, m):
    """Reference: the level-m dyadic polyline interpolated onto the path's whole
    grid, which must be dyadic, with the node rows copied exactly."""
    t = path.grid.points
    nodes = np.arange(0, t.size, (t.size - 1) // 2 ** m)
    values = np.column_stack([np.interp(t, t[nodes], path.values[nodes, c])
                              for c in range(path.dim)])
    values[nodes] = path.values[nodes]
    return SamplePath(grid=path.grid, values=values)


def test_dyadic_approx_anchors_and_midpoints():
    path = parabola_path(6)
    approx = dyadic_approx(path, 3)
    anchors = np.arange(0, 65, 8)
    assert np.array_equal(approx.grid.points, path.grid.points[anchors])
    assert np.array_equal(approx.values, path.values[anchors])
    # its polyline on the whole grid is the reference's; the midpoint of a
    # dyadic cell is the average of the cell endpoints
    on_grid = np.column_stack([np.interp(path.grid.points, approx.grid.points,
                                         approx.values[:, c]) for c in range(2)])
    assert np.array_equal(on_grid, fine_grid_approx(path, 3).values)
    assert on_grid[4] == pytest.approx(0.5 * (path.values[0] + path.values[8]))


def test_dyadic_approx_at_full_resolution_is_identity():
    path = parabola_path(5)
    approx = dyadic_approx(path, 5)
    assert np.array_equal(approx.values, path.values)


def test_dyadic_approx_missing_points_rejected():
    t = np.array([0.0, 0.3, 1.0])
    path = SamplePath(grid=TimeGrid(t), values=np.zeros((3, 1)))
    with pytest.raises(ValueError):
        dyadic_approx(path, 1)
    with pytest.raises(ValueError, match="m must be >= 0"):
        dyadic_approx(path, -1)


# --------------------------------------------------------------------------- #
# lift construction


def test_single_segment_lift():
    delta = np.array([1.0, -2.0])
    rp = lift_piecewise_linear(np.vstack([np.zeros(2), delta]))
    x1, x2 = rp.total()
    assert np.allclose(x1, delta)
    assert np.allclose(x2, 0.5 * np.outer(delta, delta))


def test_two_segment_lift_closed_form_and_riemann_oracle():
    d1 = np.array([1.0, 0.5])
    d2 = np.array([-0.3, 2.0])
    values = np.vstack([np.zeros(2), d1, d1 + d2])
    rp = lift_piecewise_linear(values)
    _, x2 = rp.total()
    want = 0.5 * np.outer(d1, d1) + 0.5 * np.outer(d2, d2) + np.outer(d1, d2)
    assert np.allclose(x2, want, atol=1e-14)
    oracle = riemann_level2(values, refine=5000)
    assert np.abs(x2 - oracle).max() < 1e-6


def test_left_point_riemann_error_shrinks_at_first_order():
    rng = np.random.default_rng(1)
    values = np.cumsum(rng.normal(size=(17, 2)), axis=0)
    _, x2 = lift_piecewise_linear(values).total()
    errs = []
    for refine in (100, 400):
        errs.append(np.abs(x2 - riemann_level2(values, refine, rule="left")).max())
    order = np.log(errs[0] / errs[1]) / np.log(4.0)
    assert order >= 0.9


def test_parabola_levy_area():
    rp = lift_piecewise_linear(parabola_path(11))
    area = rp.levy_area()
    # int t d(t^2) = 2/3, int t^2 dt = 1/3, antisymmetric part (2/3-1/3)/2
    assert area[0, 1] == pytest.approx(1.0 / 6.0, abs=1e-6)
    assert area[1, 0] == pytest.approx(-1.0 / 6.0, abs=1e-6)


def check_chen(rp, tol: float = 1e-10) -> float:
    """Largest defect of X_{0,k+1} = X_{0,k} (x) X_{k,k+1} over all nodes k.

    X_{0,k} is looked up from the prefixes and X_{k,k+1} is the stored
    increment, so a prefix entry that disagrees with them shows.
    """
    k = np.arange(rp.n_intervals)
    x1l, x2l = rp.over(0, k)
    x1, x2 = rp.over(0, k + 1)
    chen2 = x2l + rp.inc2 + x1l[:, :, None] * rp.inc1[:, None, :]
    worst = max(
        float(np.abs(x1l + rp.inc1 - x1).max(initial=0.0)),
        float(np.abs(chen2 - x2).max(initial=0.0)),
    )
    if worst > tol:
        raise AssertionError(f"Chen defect {worst} exceeds {tol}")
    return worst


def test_chen_consistency_and_symmetric_part():
    rng = np.random.default_rng(5)
    values = np.cumsum(rng.normal(size=(33, 2)), axis=0)
    rp = lift_piecewise_linear(values)
    assert check_chen(rp, 1e-10) <= 1e-10
    for (i, j) in [(0, 32), (3, 17), (10, 11)]:
        x1, x2 = rp.over(i, j)
        sym = 0.5 * (x2 + x2.T)
        assert np.allclose(sym, 0.5 * np.outer(x1, x1), atol=1e-10)


@given(st.integers(0, 10_000), st.integers(1, 40), st.integers(1, 3),
       st.tuples(st.integers(0, 5), st.integers(1, 4)))
@settings(max_examples=50, deadline=None)
def test_over_on_index_arrays_matches_scalar_calls(seed, n, d, shape):
    rng = np.random.default_rng(seed)
    rp = lift_piecewise_linear(np.cumsum(rng.normal(size=(n + 1, d)), axis=0))
    ends = np.sort(rng.integers(0, n + 1, size=shape + (2,)), axis=-1)
    i, j = ends[..., 0], ends[..., 1]
    x1, x2 = rp.over(i, j)
    assert x1.shape == shape + (d,) and x2.shape == shape + (d, d)
    for pos in np.ndindex(*shape):
        s1, s2 = rp.over(int(i[pos]), int(j[pos]))
        assert np.abs(x1[pos] - s1).max() <= 1e-12
        assert np.abs(x2[pos] - s2).max() <= 1e-12


def _interval_first_over(rp, i, j):
    """(X^1, X^2) from interval-first prefixes, (n + 1, d) and (n + 1, d, d)."""
    n, d = rp.inc1.shape
    a = np.zeros((n + 1, d))
    np.cumsum(rp.inc1, axis=0, out=a[1:])
    b = np.zeros((n + 1, d, d))
    np.cumsum(rp.inc2 + a[:-1, :, None] * rp.inc1[:, None, :], axis=0, out=b[1:])
    x1 = a[j] - a[i]
    return x1, b[j] - b[i] - a[i][..., :, None] * x1[..., None, :]


@pytest.mark.parametrize("d", [1, 2, 3])
def test_over_equals_the_interval_first_prefix_formula(d):
    rng = np.random.default_rng(d)
    rp = lift_piecewise_linear(np.cumsum(rng.normal(size=(65, d)), axis=0))
    lo, hi = np.sort(rng.integers(0, 65, size=(2, 5, 3)), axis=0)
    for i, j in [(0, 64), (7, 7), (3, hi), (lo, 64), (lo, hi)]:
        for got, want in zip(rp.over(i, j), _interval_first_over(rp, i, j)):
            assert got.shape == want.shape and got.flags.c_contiguous
            assert np.array_equal(got, want)


def test_check_chen_detects_corrupted_prefix():
    rng = np.random.default_rng(6)
    rp = lift_piecewise_linear(np.cumsum(rng.normal(size=(17, 2)), axis=0))
    rp._prefix2[0, 1, 7] += 1e-6
    with pytest.raises(AssertionError):
        check_chen(rp, 1e-10)


def test_lift_rejects_short_paths():
    with pytest.raises(ValueError):
        lift_piecewise_linear(np.zeros((1, 2)))


@pytest.mark.parametrize("inc1,inc2,match", [
    (np.zeros((3, 2)), np.zeros((4, 2, 2)), "one increment per grid interval"),
    (np.zeros((4, 2)), np.zeros((4, 2, 3)), r"inc2 must be \(n_intervals, d, d\)"),
], ids=["interval-count", "inc2-shape"])
def test_level2_path_rejects_misshapen_increments(inc1, inc2, match):
    with pytest.raises(ValueError, match=match):
        Level2RoughPath(grid=TimeGrid.uniform(4), inc1=inc1, inc2=inc2)


# --------------------------------------------------------------------------- #
# composition


def test_split_and_recompose():
    rng = np.random.default_rng(9)
    values = np.cumsum(rng.normal(size=(21, 2)), axis=0)
    rp = lift_piecewise_linear(values)
    k = 8
    back = chen_compose(restricted(rp, 0, k), restricted(rp, k, 20))
    assert np.abs(back.inc1 - rp.inc1).max() < 1e-12
    assert np.abs(back.inc2 - rp.inc2).max() < 1e-12
    x1a, x2a = back.total()
    x1b, x2b = rp.total()
    assert np.abs(x1a - x1b).max() < 1e-12 and np.abs(x2a - x2b).max() < 1e-12


def test_compose_two_single_segments_matches_direct_lift():
    d1 = np.array([0.4, 1.0])
    d2 = np.array([2.0, -0.7])
    a = lift_piecewise_linear(np.vstack([np.zeros(2), d1]))
    b = lift_piecewise_linear(np.vstack([np.zeros(2), d2]))
    joined = chen_compose(a, b)
    direct = lift_piecewise_linear(np.vstack([np.zeros(2), d1, d1 + d2]))
    _, x2a = joined.total()
    _, x2b = direct.total()
    assert np.abs(x2a - x2b).max() < 1e-14


def test_compose_dimension_mismatch():
    a = lift_piecewise_linear(np.array([[0.0], [1.0]]))
    b = lift_piecewise_linear(np.zeros((2, 2)) + [[0, 0], [1, 1]])
    with pytest.raises(CompositionError):
        chen_compose(a, b)


def test_level2_json_round_trip():
    rng = np.random.default_rng(2)
    rp = lift_piecewise_linear(np.cumsum(rng.normal(size=(9, 2)), axis=0))
    back = Level2RoughPath.from_json(rp.to_json())
    assert np.array_equal(back.inc1, rp.inc1)
    assert np.array_equal(back.inc2, rp.inc2)
    assert np.array_equal(back.grid.points, rp.grid.points)


def test_mixture_level2_decomposes_into_component_lifts():
    # for M = a*B + b*C (polylines on one grid) the level-2 of M splits into
    # a^2 * lift(B) + b^2 * lift(C) + a*b * (cross integrals both ways)
    grid = TimeGrid.uniform(64)
    bvals, cvals = (sample(GmfbmSpec(hursts=(h,), coeffs=(1.0,), dim=2), grid, seed).values
                    for h, seed in ((0.4, 13), (0.8, 14)))
    a, b = 1.0, 2.0
    _, x2 = lift_piecewise_linear(a * bvals + b * cvals, grid).total()
    _, x2b = lift_piecewise_linear(bvals, grid).total()
    _, x2c = lift_piecewise_linear(cvals, grid).total()
    cross = cross_level2(bvals, cvals) + cross_level2(cvals, bvals)
    want = a * a * x2b + b * b * x2c + a * b * cross
    assert np.abs(x2 - want).max() < 1e-8


def test_cross_level2_single_segment_in_r3():
    dx = np.array([1.0, -2.0, 0.5])
    dy = np.array([0.3, 4.0, -1.5])
    x = np.vstack([np.zeros(3), dx])
    y = np.vstack([np.ones(3), np.ones(3) + dy])
    got = cross_level2(x, y)
    assert got.shape == (3, 3)
    assert np.allclose(got, 0.5 * np.outer(dx, dy), rtol=0.0, atol=1e-15)


# --------------------------------------------------------------------------- #
# p-variation


def test_p_variation_monotone_path():
    values = np.array([[0.0], [0.5], [1.2], [3.0]])
    rp = lift_piecewise_linear(values)
    got = p_variation(rp, 1.0, PartitionSchedule("dyadic", 4), levels=(1,))
    assert got == pytest.approx(3.0)


def test_p_variation_single_increment():
    rp = lift_piecewise_linear(np.array([[0.0], [2.5]]))
    for p in (1.0, 2.0, 3.7):
        assert p_variation(rp, p, levels=(1,)) == pytest.approx(2.5)


def test_p_variation_rejects_small_p():
    rp = lift_piecewise_linear(np.array([[0.0], [1.0]]))
    for p in (0.5, np.nan, np.inf):
        with pytest.raises(ValueError):
            p_variation(rp, p)


@given(st.integers(0, 1000))
@settings(max_examples=25, deadline=None)
def test_dyadic_family_bounded_by_exact_dp(seed):
    rng = np.random.default_rng(seed)
    values = np.cumsum(rng.normal(size=(16, 1)), axis=0)
    rp = lift_piecewise_linear(values)
    dyadic = p_variation(rp, 2.5, PartitionSchedule("dyadic", 6))
    exact = p_variation(rp, 2.5, PartitionSchedule("all_subsets_dp"))
    assert dyadic <= exact + 1e-10


def per_depth_max_sum(blocks_over, n, max_depth, power):
    """Reference: one partition per depth q = 0..max_depth, into min(2^q, n)
    blocks with nodes from ``linspace``; the largest sum of |block|^power."""
    sums = []
    for q in range(max_depth + 1):
        idx = np.unique(np.round(np.linspace(0, n, min(2 ** q, n) + 1)).astype(int))
        blocks = blocks_over(idx[:-1], idx[1:])
        norms = np.linalg.norm(blocks.reshape(len(blocks), -1), axis=1)
        sums.append(np.sum(norms ** power))
    return max(sums)


@pytest.mark.parametrize("n", [1, 2, 3, 17, 100, 1000, 4096])
@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("p", [1.5, 2.5])
def test_stacked_dyadic_sums_match_per_depth_reference(n, d, p):
    rng = np.random.default_rng(1000 * n + 10 * d + int(p))
    grid = TimeGrid.uniform(n)
    a, b = (SamplePath(grid=grid, values=np.cumsum(rng.normal(size=(n + 1, d)), axis=0))
            for _ in range(2))
    ra, rb = lift_piecewise_linear(a), lift_piecewise_linear(b)
    schedule = PartitionSchedule()
    want = max(per_depth_max_sum(lambda i, j: ra.over(i, j)[k - 1], n,
                                 schedule.max_depth, p / k) ** (k / p)
               for k in (1, 2) if k == 1 or p >= 2)
    assert p_variation(ra, p, schedule) == pytest.approx(want, rel=1e-12, abs=0.0)
    assert _dp_distance(a, b, p) == pytest.approx(per_depth_distance(a, b, p),
                                                  rel=1e-12, abs=0.0)


def per_depth_distance(a, b, p):
    """Reference Cauchy distance of two paths on one grid, partitions per depth."""
    ra, rb = lift_piecewise_linear(a), lift_piecewise_linear(b)
    n = ra.n_intervals
    level2_diff = lambda i, j: ra.over(i, j)[1] - rb.over(i, j)[1]  # noqa: E731
    return (np.linalg.norm(a.values - b.values, axis=1).max()
            + per_depth_max_sum(level2_diff, n, int(np.round(np.log2(n))), p / 2)
            ** (2 / p))


@pytest.mark.parametrize("m", [1, 4, 8])
@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("p", [1.5, 2.1, 3.5])
def test_dp_distance_on_nodes_matches_fine_grid_reference(m, d, p):
    # the approximations at levels m and m + 1, lifted on their own nodes,
    # against both interpolated onto and lifted on a 2^10-interval grid
    rng = np.random.default_rng(100 * m + 10 * d + int(p))
    path = SamplePath(grid=TimeGrid.dyadic(10),
                      values=np.cumsum(rng.normal(size=(2 ** 10 + 1, d)), axis=0))
    got = _dp_distance(dyadic_approx(path, m), dyadic_approx(path, m + 1), p)
    want = per_depth_distance(fine_grid_approx(path, m),
                              fine_grid_approx(path, m + 1), p)
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("max_depth", [-1, True, 2.5, "3", None])
def test_partition_schedule_rejects_bad_depth(max_depth):
    with pytest.raises(ValueError, match="max_depth"):
        PartitionSchedule("dyadic", max_depth)


@pytest.mark.parametrize("call,match", [
    (lambda rp: p_variation(rp, 2.5, PartitionSchedule("greedy")), "partition family"),
    (lambda rp: p_variation(rp, 2.5, levels=(1, 3)), "levels"),
    (lambda rp: p_variation(rp, 2.5, PartitionSchedule("all_subsets_dp")), "64 points"),
], ids=["unknown-family", "level-3", "dp-above-64-points"])
def test_p_variation_rejects_bad_requests(call, match):
    rp = lift_piecewise_linear(np.cumsum(np.ones((65, 1)), axis=0))
    with pytest.raises(ValueError, match=match):
        call(rp)


def test_partition_schedule_depth_zero_is_the_trivial_partition():
    rp = lift_piecewise_linear(np.array([[0.0], [2.0], [0.0], [3.0]]))
    assert PartitionSchedule("dyadic", np.int64(3)).max_depth == 3
    assert p_variation(rp, 1.0, PartitionSchedule("dyadic", 0), levels=(1,)) == 3.0


def test_p_variation_rejects_zero_intervals():
    rp = lift_piecewise_linear(np.cumsum(np.ones((5, 2)), axis=0))
    with pytest.raises(ValueError, match="at least 1 interval"):
        p_variation(restricted(rp, 2, 2), 2.5)


# --------------------------------------------------------------------------- #
# convergence and sharpness diagnostics


def test_dp_distance_zero_for_identical_paths():
    path = parabola_path(5)
    assert _dp_distance(path, path, 2.1) == 0.0


def test_dp_distance_zero_path():
    grid = TimeGrid.dyadic(5)
    zero = SamplePath(grid=grid, values=np.zeros((33, 2)))
    a = dyadic_approx(zero, 2)
    b = dyadic_approx(zero, 3)
    assert _dp_distance(a, b, 2.1) == 0.0


def test_smooth_path_dyadic_distances_decay_geometrically():
    path = parabola_path(9)
    dists = [
        _dp_distance(dyadic_approx(path, m), dyadic_approx(path, m + 1), 2.1)
        for m in range(1, 8)
    ]
    ratios = np.array(dists[1:]) / np.array(dists[:-1])
    assert np.all(ratios < 0.6)


def test_cauchy_diagnostic_small_run():
    spec = GmfbmSpec(hursts=(0.6,), coeffs=(1.0,))
    res = cauchy_diagnostic(spec, m_max=6, p=2.1, seeds=range(5))
    ms = sorted(res["medians"])
    assert ms == list(range(1, 7))
    # distances shrink overall even in a tiny run
    assert res["medians"][6] < res["medians"][1]
    assert len(res["rows"]) == 5 * 6


def test_cauchy_diagnostic_warns_outside_young_regime():
    spec = GmfbmSpec(hursts=(0.3,), coeffs=(1.0,))
    with pytest.warns(RuntimeWarning):
        cauchy_diagnostic(spec, m_max=2, p=2.5, seeds=range(2))


def test_sharpness_probe_brownian_area_stabilizes():
    res = sharpness_probe(0.49, m_max=8, seeds=range(30), m_min=4)
    v = res["variances"]
    assert max(v.values()) / min(v.values()) < 2.0


def test_levy_area_is_bilinear_form_of_increments():
    # the identity behind criterion 6's exact variance: the area of the
    # level-m lift is x^T S y with S_ij = sign(j - i) / 2
    path = sample(GmfbmSpec((0.3,), (1.0,), dim=2), TimeGrid.dyadic(8), seed=4)
    for m in (1, 2, 5, 8):
        step = 2 ** (8 - m)
        inc = np.diff(path.values[::step], axis=0)
        got = lift_piecewise_linear(dyadic_approx(path, m)).levy_area()[0, 1]
        assert got == pytest.approx(inc[:, 0] @ area_matrix(2 ** m) @ inc[:, 1],
                                    rel=1e-13, abs=1e-15)


def test_exact_cauchy_increments_of_the_dyadic_lifts():
    # the paper's threshold, exactly: E[(A_{m+1} - A_m)^2] = tr(D C D^T C),
    # with C the increments' covariance, falls by 2^-(4H - 1) per level, so
    # the lifts converge above H = 1/4 and not below it; a mixture falls
    # faster than its min-H rate on coarse levels and tends to that rate
    path = sample(GmfbmSpec((0.3,), (1.0,), dim=2), TimeGrid.dyadic(6), seed=5)
    inc = np.diff(path.values, axis=0)
    areas = [lift_piecewise_linear(dyadic_approx(path, m)).levy_area()[0, 1]
             for m in (5, 6)]
    assert areas[0] - areas[1] == pytest.approx(
        inc[:, 0] @ cauchy_increment_matrix(5) @ inc[:, 1], rel=1e-12, abs=1e-15)

    def rates(hursts, coeffs=(1.0,)):  # log2 of M_m / M_{m-1}, m = 5 .. 8
        moments = []
        for m in range(4, 9):
            sigma = increment_covariance(hursts, coeffs, 2 ** (m + 1))
            moments.append(bilinear_moment(cauchy_increment_matrix(m), sigma, sigma))
        return np.diff(np.log2(moments))

    for hurst in (0.3, 0.5, 0.6, 0.75):
        assert np.abs(rates((hurst,)) + (4 * hurst - 1)).max() <= 0.01, hurst
    assert (rates((0.2,)) > 0).all()
    gap = -0.2 - rates((0.3, 0.7), (1.0, 1.0))
    assert (gap > 0).all() and (np.diff(gap) < 0).all(), gap


def test_sharpness_probe_rejects_large_hurst():
    with pytest.raises(ValueError):
        sharpness_probe(0.6, 5, range(3))


@pytest.mark.parametrize("m_max,m_min", [(0, 1), (-1, 1), (3, 4)])
def test_diagnostics_reject_empty_level_range(m_max, m_min):
    with pytest.raises(ValueError, match="m_max"):
        sharpness_probe(0.2, m_max, range(3), m_min=m_min)
    if m_max < 1:
        spec = GmfbmSpec(hursts=(0.6,), coeffs=(1.0,))
        with pytest.raises(ValueError, match="m_max"):
            cauchy_diagnostic(spec, m_max=m_max, p=2.1, seeds=range(2))


def test_moment_scaling_of_level2():
    # E[ |level-2 over [0,t]|^2 ] scales like t^{4H} for a single component
    h = 0.4
    spec = GmfbmSpec(hursts=(h,), coeffs=(1.0,), dim=2)
    scales = [2.0 ** -q for q in (4, 3, 2, 1)]
    moments = []
    for si, t in enumerate(scales):
        grid = TimeGrid.uniform(128, t)
        spec_t = GmfbmSpec(hursts=(h,), coeffs=(1.0,), dim=2, horizon=t)
        values = sample_batch(spec_t, grid, seed=40 + si, n_paths=400,
                              method="circulant")
        sq = []
        for i in range(values.shape[0]):
            _, x2 = lift_piecewise_linear(values[i], grid).total()
            sq.append(np.sum(x2 ** 2))
        moments.append(np.mean(sq))
    slope = np.polyfit(np.log(scales), np.log(moments), 1)[0]
    assert abs(slope - 4 * h) < 0.25
