import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from rough_paths import restricted
from scipy.linalg import expm

from roughmix import gmfbm, rde
from roughmix.errors import NumericsError
from roughmix.gmfbm import GmfbmSpec, TimeGrid, sample
from roughmix.lift import Level2RoughPath, lift_piecewise_linear
from roughmix.rde import (
    VectorField,
    constant_field,
    convergence_rate,
    davie_step,
    holder_estimate,
    linear_exact,
    linear_field,
    sigmoid_field,
    smooth_driver_rate,
    solve,
    stability_probe,
    vector_field,
)

SCALAR_LINEAR = linear_field([[[1.0]]])
SWAP = [np.eye(2), [[0.0, 1.0], [1.0, 0.0]]]  # generators of a 2-d linear field


def brownian_lift(seed, m=8, hurst=0.5):
    spec = GmfbmSpec(hursts=(hurst,), coeffs=(1.0,))
    path = sample(spec, TimeGrid.dyadic(m), seed, method="circulant")
    return path, lift_piecewise_linear(path)


def random_walk_lift(seed):
    """Lift of a 2-d Gaussian random walk of 16 steps."""
    values = np.cumsum(np.random.default_rng(seed).normal(size=(17, 2)), axis=0)
    return lift_piecewise_linear(values)


# --------------------------------------------------------------------------- #
# vector fields


def check_consistency(field, y: np.ndarray, tol: float = 1e-4,
                      h: float = 1e-6) -> float:
    """Relative deviation of jacobian_apply from a finite-difference probe."""
    y = np.asarray(y, dtype=float)
    f = field.eval(y)
    e, d = f.shape
    dff = np.zeros((e, d, d))  # dff[i, a, b] = sum_l d_l f_{i b} f_{l a}
    for l in range(e):
        step = np.zeros(e)
        step[l] = h
        df_l = (field.eval(y + step) - field.eval(y - step)) / (2 * h)  # (e, d)
        dff += df_l[:, None, :] * f[l][None, :, None]
    g = np.random.default_rng(0).normal(size=(d, d))
    got = field.jacobian_apply(y, g)
    want = np.einsum("iab,ab->i", dff, g)
    scale = max(1.0, float(np.abs(want).max()))
    err = float(np.abs(got - want).max()) / scale
    if err > tol:
        raise AssertionError(
            f"jacobian_apply deviates from finite differences by {err}"
        )
    return err


def test_field_consistency_probes():
    y = np.array([0.7, -0.4])
    check_consistency(linear_field(SWAP), y)
    check_consistency(sigmoid_field(1.3, d=3), y)
    wrapped = vector_field(lambda y: np.outer(np.sin(y), [1.0, 2.0]))
    check_consistency(wrapped, y, tol=1e-4)


def test_consistency_probe_flags_a_wrong_jacobian_term():
    field = linear_field(SWAP)
    skewed = VectorField(eval=field.eval,
                         jacobian_apply=lambda y, g: 1.1 * field.jacobian_apply(y, g))
    with pytest.raises(AssertionError, match="deviates from finite differences"):
        check_consistency(skewed, np.array([0.7, -0.4]))


def test_davie_step_scalar_linear():
    got = davie_step(np.array([1.0]), np.array([0.1]), np.array([[0.005]]),
                     SCALAR_LINEAR)
    assert got[0] == pytest.approx(1.105)


def test_davie_step_zero_increments():
    y = np.array([2.0, -1.0])
    field = sigmoid_field(1.0, d=2)
    got = davie_step(y, np.zeros(2), np.zeros((2, 2)), field)
    assert np.array_equal(got, y)


def test_davie_step_constant_field_is_additive():
    c = np.array([[1.0, 2.0], [0.0, -1.0]])
    inc1 = np.array([0.3, 0.4])
    got = davie_step(np.zeros(2), inc1, np.ones((2, 2)), constant_field(c))
    assert np.allclose(got, c @ inc1)


def test_davie_step_rejects_a_field_of_another_state_size():
    # the 2 x 2 generators broadcast against a 1-entry state into a 2-vector
    with pytest.raises(ValueError, match=r"state of shape \(1,\) to \(2,\)"):
        davie_step(np.array([1.0]), np.array([0.1, 0.2]), np.zeros((2, 2)),
                   linear_field(SWAP))


def test_davie_step_flags_blow_up():
    with pytest.raises(NumericsError):
        davie_step(np.array([1.0]), np.array([np.inf]), np.array([[0.0]]),
                   SCALAR_LINEAR)


# --------------------------------------------------------------------------- #
# solve


def test_zero_field_constant_solution():
    _, rp = brownian_lift(0)
    sol = solve(rp, constant_field(np.zeros((1, 1))), [3.0])
    assert np.all(sol.states == 3.0)


def test_identity_field_is_pure_integrator():
    path, rp = brownian_lift(1)
    field = constant_field(np.eye(1))
    sol = solve(rp, field, [0.5])
    assert np.allclose(sol.states[:, 0], 0.5 + path.values[:, 0], atol=1e-12)


def test_scalar_rough_exponential_refinement():
    errs = []
    for m in (6, 9, 12):
        path, rp = brownian_lift(7, m=m)
        sol = solve(rp, SCALAR_LINEAR, [1.0])
        # same realization at different m differs; use each path's own target
        errs.append(abs(sol.final[0] - np.exp(path.values[-1, 0])))
    assert errs[-1] < 1e-3
    assert errs[-1] < errs[0]


def test_flow_property_bit_level():
    _, rp = brownian_lift(5, m=6)
    whole = solve(rp, SCALAR_LINEAR, [1.0])
    first = solve(restricted(rp, 0, 32), SCALAR_LINEAR, [1.0])
    second = solve(restricted(rp, 32, 64), SCALAR_LINEAR, first.final)
    assert np.array_equal(
        np.vstack([first.states, second.states[1:]]), whole.states
    )


def dot_fold(props, y0):
    """Oracle: y_{k+1} = P_k y_k by one np.dot per interval."""
    states = [np.asarray(y0, dtype=float)]
    for prop in props:
        states.append(np.dot(prop, states[-1]))
    return np.array(states)


def test_scalar_states_equal_sequential_dot_fold(monkeypatch):
    # the scalar running product gives the dot loop's states bit for bit
    props = []
    build = rde._propagators
    monkeypatch.setattr(rde, "_propagators",
                        lambda levels, mats: props.append(build(levels, mats))
                        or props[-1])
    rng = np.random.default_rng(11)
    rp = lift_piecewise_linear(np.cumsum(0.05 * rng.normal(size=(1025, 2)), axis=0),
                               TimeGrid.uniform(1024))
    mats = rng.normal(size=(2, 1, 1))
    y0 = [-0.7]
    got = [solve(rp, linear_field(mats), y0).states,
           linear_exact(rp, mats, y0).states]
    assert len(props) == 2 and props[0].shape == (1024, 1, 1)
    for states, prop in zip(got, props):
        assert np.array_equal(states, dot_fold(prop, y0))


def davie_fold(rp, field, y0):
    """Oracle: one davie_step per interval."""
    states = [np.asarray(y0, dtype=float)]
    for inc1, inc2 in zip(rp.inc1, rp.inc2):
        states.append(davie_step(states[-1], inc1, inc2, field))
    return np.array(states)


@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 64),
       st.booleans(), st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_linear_propagators_match_davie_fold(e, d, k, area, seed):
    rng = np.random.default_rng(seed)
    mats = rng.normal(size=(d, e, e))
    inc1 = 0.2 * rng.normal(size=(k, d))
    inc2 = 0.5 * inc1[:, :, None] * inc1[:, None, :]
    if area:
        a = 0.05 * rng.normal(size=(k, d, d))
        inc2 = inc2 + a - a.transpose(0, 2, 1)
    rp = Level2RoughPath(TimeGrid.uniform(k), inc1, inc2)
    field = linear_field(mats)
    y0 = rng.normal(size=e)
    want = davie_fold(rp, field, y0)
    got = solve(rp, field, y0).states
    assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("field", [
    SCALAR_LINEAR,  # batched propagators
    vector_field(lambda y: y[:, None]),  # one davie_step per interval
])
def test_blow_up_names_interval(field):
    values = np.linspace(0.0, 0.1, 11)[:, None]
    values[6:] += 1e200  # one huge jump on interval 5
    rp = lift_piecewise_linear(values, TimeGrid.uniform(10))
    with pytest.raises(NumericsError, match="blow-up at interval 5:") as err:
        solve(rp, field, [1.0])
    want = solve(restricted(rp, 0, 5), field, [1.0]).final
    assert f"norm {np.linalg.norm(want):.6g}" in str(err.value)


def test_solve_rejects_non_finite_initial_state():
    _, rp = brownian_lift(0, m=3)
    for field in (SCALAR_LINEAR, sigmoid_field()):
        with pytest.raises(ValueError):
            solve(rp, field, [np.nan])


def test_solve_rejects_initial_state_of_another_size():
    # the scalar running product read P_k[0, 0] alone of the 2 x 2 propagators
    with pytest.raises(ValueError, match="y0 has 1 entries, the field acts on 2"):
        solve(random_walk_lift(0), linear_field(SWAP), y0=[1.0])


@pytest.mark.parametrize("field,match", [
    (linear_field([np.eye(2)]), "y0 has 1 entries, the field acts on 2"),
    (linear_field([np.eye(1)] * 2), "one generator matrix per driver coordinate"),
    (sigmoid_field(1.0, 2), r"the field maps y0 to shape \(1, 2\), need \(1, 1\)"),
], ids=["linear-state-size", "linear-generator-count", "sigmoid-driver-dim"])
@pytest.mark.parametrize("harness", ["convergence_rate", "stability_probe"])
def test_harness_checks_field_against_y0_before_any_draw(harness, field, match, monkeypatch):
    draws = []

    def counted(draw):
        def wrapper(*args, **kwargs):
            draws.append(args)
            return draw(*args, **kwargs)
        return wrapper

    # convergence_rate draws through sample, stability_probe through _draw
    for name in ("sample", "_draw"):
        monkeypatch.setattr(rde, name, counted(getattr(rde, name)))
    spec = GmfbmSpec((0.5,), (1.0,), dim=1)
    with pytest.raises(ValueError, match=match):
        if harness == "convergence_rate":
            convergence_rate(spec, field, [1.0], [2, 3, 4], range(3))
        else:
            stability_probe(spec, [0.01], field, [1.0], range(3), n_intervals=8)
    assert not draws


def test_solution_csv_header():
    _, rp = brownian_lift(2, m=3)
    text = solve(rp, SCALAR_LINEAR, [1.0]).to_csv()
    assert text.splitlines()[0] == "t,y1"


# --------------------------------------------------------------------------- #
# linear exact propagator


def test_linear_exact_scalar_matches_davie():
    # deterministic driver: per-step schemes differ only at third order
    t = np.linspace(0.0, 1.0, 2 ** 10 + 1)
    rp = lift_piecewise_linear(t[:, None], TimeGrid(t))
    a = solve(rp, SCALAR_LINEAR, [1.0]).final
    b = linear_exact(rp, [[[1.0]]], [1.0]).final
    assert abs(a[0] - b[0]) < 1e-6
    assert b[0] == pytest.approx(np.e, abs=1e-10)
    # rough driver: agreement at the scheme's own accuracy
    _, rp = brownian_lift(3, m=10)
    a = solve(rp, SCALAR_LINEAR, [1.0]).final
    b = linear_exact(rp, [[[1.0]]], [1.0]).final
    assert abs(a[0] - b[0]) < 1e-2 * max(1.0, abs(b[0]))


def test_linear_exact_rejects_initial_state_of_another_size():
    with pytest.raises(ValueError, match="y0 has 1 entries, the field acts on 2"):
        linear_exact(random_walk_lift(1), [np.eye(2)] * 2, [1.0])


def test_linear_exact_rejects_level_below_2():
    with pytest.raises(ValueError, match="level must be >= 2"):
        linear_exact(random_walk_lift(1), [np.eye(1)] * 2, [1.0], level=1)


def test_linear_exact_needs_one_generator_per_driver_coordinate():
    with pytest.raises(ValueError, match="one generator matrix per driver coordinate"):
        linear_exact(random_walk_lift(2), [np.eye(2)], [1.0, 1.0])


def test_linear_exact_zero_generator():
    _, rp = brownian_lift(4, m=5)
    sol = linear_exact(rp, [np.zeros((2, 2))], np.array([1.0, -2.0]))
    assert np.allclose(sol.states, sol.states[0])


def test_linear_exact_nilpotent_generator():
    nil = np.array([[0.0, 1.0], [0.0, 0.0]])  # nil @ nil == 0
    path, rp = brownian_lift(6, m=5)
    sol = linear_exact(rp, [nil], np.array([1.0, 1.0]))
    dm = path.values[-1, 0]
    # exp(nil * dm) = I + nil * dm, and commuting steps compose exactly
    want = np.array([1.0 + dm, 1.0])
    assert np.allclose(sol.final, want, atol=1e-10)


def test_linear_exact_levy_area_word_order():
    # one interval with area: the truncated exponential is the log-ODE step
    # expm(sum_a l1_a A_a + sum_ab l2_ab A_b A_a); A_a A_b instead is 0.2 off
    mats = [np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[0.0, 0.0], [1.0, 0.0]])]
    x = np.array([0.3, -0.2])
    area = 0.05 * np.array([[0.0, 1.0], [-1.0, 0.0]])
    rp = Level2RoughPath(TimeGrid(np.array([0.0, 1.0])), x[None],
                         (0.5 * np.outer(x, x) + area)[None])
    y0 = np.array([1.0, -2.0])
    gen = sum(x[a] * mats[a] for a in range(2)) + sum(
        area[a, b] * mats[b] @ mats[a] for a in range(2) for b in range(2)
    )
    got = linear_exact(rp, mats, y0, level=12).final
    assert np.abs(got - expm(gen) @ y0).max() <= 1e-11


# --------------------------------------------------------------------------- #
# rates and regularity


def test_smooth_driver_second_order():
    field = linear_field([[[1.0]], [[0.5]]])
    res = smooth_driver_rate(field, [1.0], mesh_levels=range(3, 8))
    assert 1.8 <= res["slope"] <= 2.2


def test_convergence_rate_high_hurst_linear():
    spec = GmfbmSpec(hursts=(0.75,), coeffs=(1.0,))
    res = convergence_rate(spec, SCALAR_LINEAR, [1.0], range(5, 9), range(5))
    assert res["predicted"] == pytest.approx(1.25)
    assert res["median_slope"] >= 0.9


def test_rates_reject_negative_mesh_levels(monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before checking the mesh levels")

    monkeypatch.setattr(rde, "sample", no_sampling)
    spec = GmfbmSpec(hursts=(0.5,), coeffs=(1.0,))
    with pytest.raises(ValueError, match="mesh levels must be >= 0"):
        convergence_rate(spec, SCALAR_LINEAR, [1.0], range(-2, 2), range(2))
    with pytest.raises(ValueError, match="mesh levels must be >= 0"):
        smooth_driver_rate(linear_field([[[1.0]], [[0.5]]]), [1.0], range(-1, 3))


@pytest.mark.parametrize("ref_factor", [3, 5, 6, 2.5, 1, 0, True, 4.0])
def test_convergence_rate_rejects_non_power_of_two_ref_factor(monkeypatch,
                                                             ref_factor):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before checking ref_factor")

    monkeypatch.setattr(rde, "sample", no_sampling)
    spec = GmfbmSpec(hursts=(0.5,), coeffs=(1.0,))
    with pytest.raises(ValueError, match="ref_factor must be a power of two >= 2"):
        convergence_rate(spec, SCALAR_LINEAR, [1.0], range(2, 5), range(2),
                         ref_factor=ref_factor)


@pytest.mark.parametrize("ref_factor,m_ref", [(2, 5), (4, 6), (np.int64(8), 7)])
def test_convergence_rate_reference_mesh_from_ref_factor(monkeypatch, ref_factor,
                                                         m_ref):
    grids = []

    def recording(spec, grid, seed):
        grids.append(len(grid) - 1)
        return sample(spec, grid, seed)

    monkeypatch.setattr(rde, "sample", recording)
    spec = GmfbmSpec(hursts=(0.5,), coeffs=(1.0,))
    convergence_rate(spec, SCALAR_LINEAR, [1.0], range(2, 5), range(1),
                     ref_factor=ref_factor)
    assert grids == [2 ** m_ref]


BAD_GENERATORS = [
    ([], "at least one generator"),
    ([np.eye(0)], "non-empty square"),
    ([np.ones((2, 3))], "non-empty square"),
    ([np.ones((2, 2, 2))], "non-empty square"),
]


@pytest.mark.parametrize("mats,match", BAD_GENERATORS)
def test_linear_field_rejects_empty_or_non_square_generators(mats, match):
    with pytest.raises(ValueError, match=match):
        linear_field(mats)


@pytest.mark.parametrize("mats,match", BAD_GENERATORS)
def test_linear_exact_checks_generators_as_linear_field_does(mats, match):
    with pytest.raises(ValueError, match=match):
        linear_exact(random_walk_lift(1), mats, [1.0])


@pytest.mark.parametrize("d", [0, -3])
def test_sigmoid_field_rejects_empty_dimensions(d):
    with pytest.raises(ValueError, match="d >= 1"):
        sigmoid_field(1.0, d)


def test_holder_line():
    t = np.linspace(0.0, 1.0, 4097)
    res = holder_estimate(t)
    assert res["exponent"] == pytest.approx(1.0, abs=0.02)


def test_holder_known_hurst():
    spec = GmfbmSpec(hursts=(0.7,), coeffs=(1.0,))
    est = []
    for seed in range(5):
        path = sample(spec, TimeGrid.uniform(2 ** 14), seed, method="circulant")
        est.append(holder_estimate(path.values)["exponent"])
    assert 0.6 <= np.median(est) <= 0.8


def test_holder_mixture_tracks_minimum():
    spec = GmfbmSpec(hursts=(0.4, 0.8), coeffs=(1.0, 1.0))
    est = []
    for seed in range(5):
        path = sample(spec, TimeGrid.uniform(2 ** 14), seed, method="circulant")
        est.append(holder_estimate(path.values)["exponent"])
    med = np.median(est)
    assert 0.3 <= med <= 0.5


def test_holder_rejects_constant_path():
    with pytest.raises(ValueError, match="constant"):
        holder_estimate(np.zeros(1025))


def test_holder_rejects_non_finite_values():
    values = np.linspace(0.0, 1.0, 1025)
    values[500] = np.nan
    with pytest.raises(ValueError, match="finite"):
        holder_estimate(values)


@pytest.mark.parametrize("n_points", [64, 100, 511, 513, 600, 1024])
def test_holder_rejects_paths_too_short_for_two_lags(n_points):
    # the slope needs three lags (n >= 1024) to leave a residual for its stderr
    with pytest.raises(ValueError, match="1025 points for three lags"):
        holder_estimate(np.linspace(0.0, 1.0, n_points))


def test_stability_probe_monotone():
    spec = GmfbmSpec(hursts=(0.5,), coeffs=(1.0,))
    res = stability_probe(spec, [0.005, 0.01, 0.02], SCALAR_LINEAR, [1.0],
                          seeds=range(5), n_intervals=256)
    assert res["monotone"]
    assert min(res["table"].values()) > 0.0


def circulant_path(spec, grid, seed):
    """One path with every component, H = 1/2 included, by the circulant
    map: 2n normals per row of n steps, through the half-spectrum."""
    n = len(grid) - 1
    values = np.zeros((n + 1, spec.dim))
    for k, (hurst, a) in enumerate(zip(spec.hursts, spec.coeffs)):
        scale = gmfbm._circulant_scale(hurst, grid)
        for c in range(spec.dim):
            z = gmfbm._stream(seed, k, c).standard_normal((1, 2 * n))
            steps = gmfbm._circulant_fgn(z, scale, np.empty((1, n + 1), complex))
            values[1:, c] += a * np.cumsum(steps[0])
    return values


@pytest.mark.parametrize("hursts,eps", [
    ((0.5,), [0.005, 0.01]), ((0.5, 0.75), [0.01, 0.02]), ((0.49,), [0.01]),
], ids=["brownian", "mixed", "shift-onto-brownian"])
def test_stability_probe_draws_base_and_shifted_paths_by_one_map(hursts, eps):
    # common random numbers: base and shifted paths map each stream by the
    # circulant map, at H = 1/2 too, so a shift onto or off H = 1/2 changes
    # the covariance and not the map
    assert 0.49 + 0.01 == 0.5
    spec = GmfbmSpec(hursts, (1.0, 2.0)[:len(hursts)])
    grid = TimeGrid.uniform(64)

    def states(sp, seed, start):
        rp = lift_piecewise_linear(circulant_path(sp, grid, seed), grid)
        return solve(rp, SCALAR_LINEAR, start).states

    want = {}
    for e in eps:
        shifted = GmfbmSpec(tuple(h + e for h in hursts),
                            tuple(a * (1.0 + e) for a in spec.coeffs))
        want[e] = float(np.median([
            np.abs(states(spec, seed, [1.0]) - states(shifted, seed, [1.0 + e])).max()
            for seed in range(3)]))
    res = stability_probe(spec, eps, SCALAR_LINEAR, [1.0], range(3), n_intervals=64)
    assert res["table"] == want


def test_stability_probe_rejects_empty_seeds():
    spec = GmfbmSpec(hursts=(0.5,), coeffs=(1.0,))
    with pytest.raises(ValueError, match="at least 1 seed"):
        stability_probe(spec, [0.01], SCALAR_LINEAR, [1.0], seeds=[])
    with pytest.raises(ValueError, match="pushes a Hurst outside"):
        stability_probe(spec, [0.5], SCALAR_LINEAR, [1.0], seeds=[0], n_intervals=8)
