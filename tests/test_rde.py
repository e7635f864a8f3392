import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from roughmix.errors import NumericsError
from roughmix.gmfbm import GmfbmSpec, TimeGrid, sample
from roughmix.lift import Level2RoughPath, lift_piecewise_linear
from roughmix.rde import (
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


def brownian_lift(seed, m=8, hurst=0.5):
    spec = GmfbmSpec(hursts=(hurst,), coeffs=(1.0,))
    path = sample(spec, TimeGrid.dyadic(m), seed, method="circulant")
    return path, lift_piecewise_linear(path)


# --------------------------------------------------------------------------- #
# vector fields


def test_field_consistency_probes():
    y = np.array([0.7, -0.4])
    linear_field([np.eye(2), [[0.0, 1.0], [1.0, 0.0]]]).check_consistency(y)
    sigmoid_field(1.3, e=2, d=3).check_consistency(y)
    wrapped = vector_field(lambda y: np.outer(np.sin(y), [1.0, 2.0]))
    wrapped.check_consistency(y, tol=1e-4)


def test_davie_step_scalar_linear():
    got = davie_step(np.array([1.0]), np.array([0.1]), np.array([[0.005]]),
                     SCALAR_LINEAR)
    assert got[0] == pytest.approx(1.105)


def test_davie_step_zero_increments():
    y = np.array([2.0, -1.0])
    field = sigmoid_field(1.0, e=2, d=2)
    got = davie_step(y, np.zeros(2), np.zeros((2, 2)), field)
    assert np.array_equal(got, y)


def test_davie_step_constant_field_is_additive():
    c = np.array([[1.0, 2.0], [0.0, -1.0]])
    inc1 = np.array([0.3, 0.4])
    got = davie_step(np.zeros(2), inc1, np.ones((2, 2)), constant_field(c))
    assert np.allclose(got, c @ inc1)


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
    first = solve(rp.restricted(0, 32), SCALAR_LINEAR, [1.0])
    second = solve(rp.restricted(32, 64), SCALAR_LINEAR, first.final)
    assert np.array_equal(
        np.vstack([first.states, second.states[1:]]), whole.states
    )


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
    want = solve(rp.restricted(0, 5), field, [1.0]).final
    assert f"norm {np.linalg.norm(want):.6g}" in str(err.value)


def test_solve_rejects_non_finite_initial_state():
    _, rp = brownian_lift(0, m=3)
    for field in (SCALAR_LINEAR, sigmoid_field()):
        with pytest.raises(ValueError):
            solve(rp, field, [np.nan])


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


def test_holder_line():
    t = np.linspace(0.0, 1.0, 4097)
    res = holder_estimate(t, dt=t[1])
    assert res["exponent"] == pytest.approx(1.0, abs=0.02)


def test_holder_known_hurst():
    spec = GmfbmSpec(hursts=(0.7,), coeffs=(1.0,))
    est = []
    for seed in range(5):
        path = sample(spec, TimeGrid.uniform(2 ** 14), seed, method="circulant")
        est.append(holder_estimate(path.values, dt=2.0 ** -14)["exponent"])
    assert 0.6 <= np.median(est) <= 0.8


def test_holder_mixture_tracks_minimum():
    spec = GmfbmSpec(hursts=(0.4, 0.8), coeffs=(1.0, 1.0))
    est = []
    for seed in range(5):
        path = sample(spec, TimeGrid.uniform(2 ** 14), seed, method="circulant")
        est.append(holder_estimate(path.values, dt=2.0 ** -14)["exponent"])
    med = np.median(est)
    assert 0.3 <= med <= 0.5


def test_holder_rejects_constant_path():
    with pytest.raises(ValueError):
        holder_estimate(np.zeros(128))


def test_stability_probe_monotone():
    spec = GmfbmSpec(hursts=(0.5,), coeffs=(1.0,))
    res = stability_probe(spec, [0.005, 0.01, 0.02], SCALAR_LINEAR, [1.0],
                          seeds=range(5), n_intervals=256)
    assert res["monotone"]
    assert min(res["table"].values()) > 0.0
