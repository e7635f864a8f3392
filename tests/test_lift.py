import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    subsampled_lift,
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


def test_dyadic_approx_anchors_and_midpoints():
    path = parabola_path(6)
    approx = dyadic_approx(path, 3)
    anchors = np.arange(0, 65, 8)
    assert np.array_equal(approx.values[anchors], path.values[anchors])
    # midpoint of a dyadic cell is the average of the cell endpoints
    mid = approx.values[4]
    assert mid == pytest.approx(0.5 * (path.values[0] + path.values[8]))


def test_dyadic_approx_at_full_resolution_is_identity():
    path = parabola_path(5)
    approx = dyadic_approx(path, 5)
    assert np.array_equal(approx.values, path.values)


def test_dyadic_approx_missing_points_rejected():
    t = np.array([0.0, 0.3, 1.0])
    path = SamplePath(grid=TimeGrid(t), values=np.zeros((3, 1)))
    with pytest.raises(ValueError):
        dyadic_approx(path, 1)


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


def test_chen_consistency_and_symmetric_part():
    rng = np.random.default_rng(5)
    values = np.cumsum(rng.normal(size=(33, 2)), axis=0)
    rp = lift_piecewise_linear(values)
    assert rp.check_chen(1e-10) <= 1e-10
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


def test_check_chen_detects_corrupted_prefix():
    rng = np.random.default_rng(6)
    rp = lift_piecewise_linear(np.cumsum(rng.normal(size=(17, 2)), axis=0))
    rp._prefix2[7, 0, 1] += 1e-6
    with pytest.raises(AssertionError):
        rp.check_chen(1e-10)


def test_lift_rejects_short_paths():
    with pytest.raises(ValueError):
        lift_piecewise_linear(np.zeros((1, 2)))


# --------------------------------------------------------------------------- #
# composition


def test_split_and_recompose():
    rng = np.random.default_rng(9)
    values = np.cumsum(rng.normal(size=(21, 2)), axis=0)
    rp = lift_piecewise_linear(values)
    k = 8
    back = chen_compose(rp.restricted(0, k), rp.restricted(k, 20))
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
    spec = GmfbmSpec(hursts=(0.4, 0.8), coeffs=(1.0, 2.0), dim=2)
    grid = TimeGrid.uniform(64)
    path = sample(spec, grid, seed=13)
    bvals, cvals = path.components[0], path.components[1]
    a, b = spec.coeffs
    _, x2 = lift_piecewise_linear(path).total()
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
    dyadic = p_variation(rp, 2.5, PartitionSchedule("dyadic", 6), levels=(1,))
    exact = p_variation(rp, 2.5, PartitionSchedule("all_subsets_dp"), levels=(1,))
    assert dyadic <= exact + 1e-10


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
        i = np.arange(2 ** m)
        s = 0.5 * np.sign(i[None, :] - i[:, None])
        got = subsampled_lift(path, step).levy_area()[0, 1]
        assert got == pytest.approx(inc[:, 0] @ s @ inc[:, 1], rel=1e-13, abs=1e-15)


def test_sharpness_probe_rejects_large_hurst():
    with pytest.raises(ValueError):
        sharpness_probe(0.6, 5, range(3))


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
