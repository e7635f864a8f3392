import importlib
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from exact_moments import area_matrix, bilinear_moment, fgn_covariance, increment_covariance
from hypothesis import given, settings
from hypothesis import strategies as st

import roughmix
from roughmix import gmfbm
from roughmix import tensor as ta
from roughmix.gmfbm import GmfbmSpec, SamplePath, TimeGrid, sample_batch
from roughmix.lift import cross_level2, lift_piecewise_linear
from roughmix.rde import holder_estimate
from roughmix.signature import (
    _signature_levels,
    _variance_weights,
    cross_term_scaling,
    expected_signature_mc,
    level_formulas_check,
    log_signature,
    signature,
)

# the package re-exports the function under the module's name
signature_module = importlib.import_module("roughmix.signature")


def random_polyline(seed, n=9, d=2):
    rng = np.random.default_rng(seed)
    return np.cumsum(rng.normal(size=(n, d)), axis=0)


# --------------------------------------------------------------------------- #
# exact algebraic behavior


def test_one_dimensional_values_are_one_coordinate():
    flat = np.cumsum(np.random.default_rng(5).normal(size=1025))
    col = flat[:, None]
    path = SamplePath(TimeGrid.uniform(flat.size - 1), flat)
    assert np.array_equal(path.values, col)
    a, b = lift_piecewise_linear(flat), lift_piecewise_linear(col)
    assert np.array_equal(a.inc1, b.inc1) and np.array_equal(a.inc2, b.inc2)
    for fn in (signature, log_signature):
        assert fn(flat[:9], 3).max_diff(fn(col[:9], 3)) == 0.0
    assert level_formulas_check(flat[:9]) == level_formulas_check(col[:9])
    assert holder_estimate(flat) == holder_estimate(col)
    assert np.array_equal(cross_level2(flat, flat), cross_level2(col, col))


def test_straight_line_signature_is_exponential():
    delta = np.array([0.8, -0.5])
    for level in range(1, 7):
        sig = signature(np.vstack([np.zeros(2), delta]), level)
        want = ta.exp(ta.from_level1(delta, level))
        assert sig.max_diff(want) < 1e-12


def test_reversal_gives_unit():
    values = random_polyline(4)
    both = np.vstack([values, values[::-1][1:]])
    sig = signature(both, 4)
    assert sig.max_diff(ta.unit(2, 4)) < 1e-9


def test_parabola_level2_words():
    t = np.linspace(0.0, 1.0, 4097)
    values = np.column_stack([t, t ** 2])
    sig = signature(values, 2)
    assert sig.coeff((1, 2)) == pytest.approx(2.0 / 3.0, abs=1e-5)
    assert sig.coeff((2, 1)) == pytest.approx(1.0 / 3.0, abs=1e-5)
    assert sig.coeff((1,)) == pytest.approx(1.0, abs=1e-12)


def test_level1_is_total_increment():
    values = random_polyline(11)
    sig = signature(values, 3)
    assert np.allclose(sig.level_array(1), values[-1] - values[0], atol=1e-12)


def test_chen_multiplicativity():
    values = random_polyline(8, n=13)
    k = 6
    left = signature(values[: k + 1], 4)
    right = signature(values[k:] - values[k] + values[k], 4)
    joined = ta.mul(left, right)
    whole = signature(values, 4)
    assert joined.max_diff(whole) < 1e-10


def test_collinear_point_insertion_invariance():
    values = np.array([[0.0, 0.0], [1.0, 2.0], [3.0, -1.0]])
    refined = np.vstack([
        values[0],
        0.5 * (values[0] + values[1]),
        values[1],
        0.25 * values[1] + 0.75 * values[2],
        values[2],
    ])
    assert signature(values, 5).max_diff(signature(refined, 5)) < 1e-12


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_signatures_are_group_like(seed):
    sig = signature(random_polyline(seed, n=6), 4)
    ok, viol = ta.is_group_like(sig, tol=1e-8)
    assert ok, viol


def test_factorial_decay():
    values = random_polyline(3, n=8)
    sig = signature(values, 5)
    var1 = float(np.abs(np.diff(values, axis=0)).sum())
    for n in range(1, 6):
        assert sig.norm_level(n) <= var1 ** n / math.factorial(n) + 1e-12


def test_log_signature_round_trip():
    values = random_polyline(19, n=7)
    sig = signature(values, 4)
    assert ta.exp(log_signature(values, 4)).max_diff(sig) < 1e-10


def test_signature_input_validation():
    with pytest.raises(ValueError):
        signature(np.zeros((1, 2)), 2)
    with pytest.raises(ValueError):
        signature(np.zeros((3, 2)), 0)
    with pytest.raises(ValueError, match="at least 2 paths"):
        expected_signature_mc(GmfbmSpec((0.5,), (1.0,), dim=2), TimeGrid.uniform(4),
                              level=2, n_paths=1, seed=0)


def sequential_signature(values, level):
    """Oracle: left fold of Chen's identity, one segment at a time."""
    acc = ta.unit(values.shape[1], level)
    for delta in np.diff(values, axis=0):
        acc = ta.mul(acc, ta.exp(ta.from_level1(delta, level)))
    return acc


def assert_matches_fold(levels, values, level):
    """Raw levels are words-first, (d^n, batch)."""
    for b, path in enumerate(values):
        want = sequential_signature(path, level)
        for n in range(level + 1):
            scale = max(1.0, want.norm_level(n))
            assert np.abs(levels[n][:, b] - want.levels[n]).max() / scale <= 1e-12


@given(st.integers(2, 40), st.integers(1, 3), st.integers(1, 4),
       st.integers(1, 3), st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_chen_accumulation_matches_sequential_fold(n, d, level, batch, seed):
    values = np.cumsum(np.random.default_rng(seed).normal(size=(batch, n, d)), axis=1)
    assert_matches_fold(_signature_levels(values, level), values, level)


def test_chen_accumulation_chunked_fold(monkeypatch):
    # 3 paths x 15 entries per segment: chunks of 2 segments under a cap of 100
    values = random_polyline(31, n=38)[None] * np.array([1.0, -0.5, 2.0])[:, None, None]
    whole = _signature_levels(values, 3)
    monkeypatch.setattr(signature_module, "CHUNK_ENTRIES", 100)
    chunked = _signature_levels(values, 3)
    assert_matches_fold(chunked, values, 3)
    for a, b in zip(whole, chunked):
        assert np.abs(a - b).max() <= 1e-12 * max(1.0, np.abs(a).max())


def fresh_chunk_signature(delta, level):
    """The Chen accumulation of one chunk in fresh temporaries: the reference
    that the workspace kernel must equal to the bit."""
    powers = ta._exp_of_increment(delta, level - 1)
    running = [None]
    for k in range(1, level):
        step = powers[k].copy()
        for m in range(1, k):
            step[..., 1:] += ta._outer(running[k - m][..., :-1], powers[m][..., 1:])
        running.append(np.cumsum(step, axis=-1, out=step))
    top = signature_module._segment_sum_outer(powers[level - 1], delta / level)
    for m in range(1, level):
        top += signature_module._segment_sum_outer(running[level - m][..., :-1],
                                                   powers[m][..., 1:])
    return [powers[0][..., 0]] + [lv[..., -1].copy() for lv in running[1:]] + [top]


def fresh_signature_levels(values, level):
    d = values.shape[-1]
    per_segment = values[..., 0, 0].size * sum(d ** k for k in range(level + 1))
    chunk = max(1, signature_module.CHUNK_ENTRIES // per_segment)
    acc = None
    for start in range(0, values.shape[-2] - 1, chunk):
        delta = np.ascontiguousarray(np.moveaxis(
            np.diff(values[..., start:start + chunk + 1, :], axis=-2), -1, 0))
        part = fresh_chunk_signature(delta, level)
        acc = part if acc is None else ta._mul(acc, part)
    return acc


def assert_levels_equal(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.shape == b.shape and (a == b).all()


@pytest.mark.parametrize("batch", [(), (1,), (3,)], ids=["unbatched", "one", "three"])
@pytest.mark.parametrize("level", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_workspace_kernel_equals_fresh_temporaries(d, level, batch):
    rng = np.random.default_rng(100 * d + 10 * level + len(batch))
    values = np.cumsum(rng.normal(size=batch + (33, d)), axis=-2)
    assert_levels_equal(_signature_levels(values, level),
                        fresh_signature_levels(values, level))


@pytest.mark.parametrize("d, level", [(1, 5), (2, 3), (2, 4), (3, 2)])
def test_chunked_workspace_kernel_equals_fresh_temporaries(monkeypatch, d, level):
    # 3 paths, 37 segments, chunks of 4 segments: the last chunk holds one,
    # and each chunk reuses the workspace sized for the first
    values = np.cumsum(np.random.default_rng(d + level).normal(size=(3, 38, d)), axis=1)
    per_segment = 3 * sum(d ** k for k in range(level + 1))
    monkeypatch.setattr(signature_module, "CHUNK_ENTRIES", 4 * per_segment)
    assert_levels_equal(_signature_levels(values, level),
                        fresh_signature_levels(values, level))


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="counts the page faults of glibc's allocator")
def test_long_path_signature_reuses_resident_memory():
    # a call's working memory is one block, and once a call has freed it the
    # allocator serves later calls from resident pages: with a dozen fresh
    # temporaries per call, each was mapped and faulted in anew (about 224
    # faults per call). A fresh process, since earlier tests move the
    # allocator's thresholds.
    code = (
        "import resource\n"
        "import numpy as np\n"
        "from roughmix import signature\n"
        "values = np.cumsum(np.random.default_rng(7).normal(size=(4097, 2)), axis=0)\n"
        "signature(values, 4)\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "for _ in range(50):\n"
        "    signature(values, 4)\n"
        "print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 50)\n")
    src = str(Path(roughmix.__file__).resolve().parents[1])
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert res.returncode == 0, res.stderr
    assert float(res.stdout) < 16


def test_long_path_signature_memory():
    # 2^18 segments at level 4: 8 chunks under CHUNK_ENTRIES, working memory
    # bounded by one chunk
    values = np.cumsum(np.random.default_rng(41).normal(size=(2 ** 18 + 1, 2)),
                       axis=0) / 512
    tracemalloc.start()
    try:
        sig = signature(values, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 20 * 2 ** 20
    assert np.abs(sig.level_array(1) - (values[-1] - values[0])).max() <= 1e-12
    ok, viol = ta.is_group_like(sig)
    assert ok, viol


@pytest.mark.parametrize("h_i, bound_mib", [(0.5, 3), (0.6, 8)])
def test_cross_term_scaling_memory_does_not_grow_with_paths(monkeypatch, pool_of,
                                                            h_i, bound_mib):
    # each job holds one chunk's midpoint rows and their transform, and the
    # buffers of xi's map: at 256 steps about 1.0 MiB for the white map at
    # H = 1/2 (n-column normals, no spectrum; peak 2.35 MiB) and 1.9 MiB for
    # the circulant map (peak 4.1 MiB), so the peak grows with the jobs
    # running at once (pinned here to two workers) and not with n_paths;
    # drawing whole scales peaked at 81 MiB for 10,000 paths, and a white
    # drawer that made the circulant map's buffers at 3.9 MiB
    two = pool_of(2)
    monkeypatch.setattr(gmfbm, "_pool", lambda: two)
    tracemalloc.start()
    try:
        cross_term_scaling(h_i, 0.75, [0.125, 0.25, 0.5, 1.0], 10_000, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound_mib * 2 ** 20, peak


# --------------------------------------------------------------------------- #
# level formulas


def test_level_formulas_linear_path():
    values = np.array([[0.0, 0.0], [2.0, 1.0]])
    rep = level_formulas_check(values)
    assert rep["level1_residual"] < 1e-14
    assert rep["level2_residual_geometric"] < 1e-14


def test_level_formulas_two_segments():
    values = np.array([[0.0, 0.0], [1.0, 0.5], [0.7, 2.5]])
    rep = level_formulas_check(values)
    assert rep["level2_residual_geometric"] <= 1e-10
    assert rep["shuffle_violation"] <= 1e-10


def test_level2_shuffle_identity_random_path():
    sig = signature(random_polyline(23, n=64), 2)
    lhs = sig.coeff((1,)) * sig.coeff((2,))
    rhs = sig.coeff((1, 2)) + sig.coeff((2, 1))
    assert lhs == pytest.approx(rhs, abs=1e-10)


# --------------------------------------------------------------------------- #
# signature moments


def test_expected_signature_brownian():
    spec = GmfbmSpec(hursts=(0.5,), coeffs=(1.0,))
    grid = TimeGrid.uniform(64)
    mean, se = expected_signature_mc(spec, grid, level=2, n_paths=2000, seed=17)
    # level-1 mean vanishes
    assert abs(mean.coeff((1,))) < 4 * max(se.coeff((1,)), 1e-12)
    # word (1,1) mean is E[M_1^2]/2 = 1/2
    assert abs(mean.coeff((1, 1)) - 0.5) < 4 * se.coeff((1, 1))


def test_expected_signature_antisymmetric_level2_vanishes():
    spec = GmfbmSpec(hursts=(0.5,), coeffs=(1.0,), dim=2)
    grid = TimeGrid.uniform(64)
    mean, se = expected_signature_mc(spec, grid, level=2, n_paths=2000, seed=29)
    m2 = mean.level_array(2, reshape=True)
    s2 = se.level_array(2, reshape=True)
    anti = 0.5 * (m2 - m2.T)
    assert abs(anti[0, 1]) < 4 * max(s2[0, 1], s2[1, 0])


def test_cross_term_scaling_brownian():
    res = cross_term_scaling(0.5, 0.5, [0.25, 0.5, 1.0], n_paths=3000, seed=1,
                             n_steps=128)
    assert res["expected_slope"] == 2.0
    assert abs(res["slope"] - 2.0) < 0.3


def exact_cross_moment(h_i, h_j, t, n_steps):
    """E[(sum_k m_k D_k)^2] on cross_term_scaling's grid of n_steps on [0, t].

    m_k = (X_k + X_{k+1}) / 2 - X_0 for an fBm X of Hurst h_i and D_k is
    the k-th increment of an independent fBm Y of Hurst h_j. With x the
    increments of X, m_k = sum_{l<k} x_l + x_k / 2, so the cross term is
    x^T (S + 1 1^T / 2) D.
    """
    return bilinear_moment(area_matrix(n_steps) + 0.5,
                           increment_covariance((h_i,), (1.0,), n_steps, t),
                           increment_covariance((h_j,), (1.0,), n_steps, t))


SCALES = [0.125, 0.25, 0.5, 1.0]


@pytest.mark.parametrize("h_i, h_j", [(0.5, 0.75), (0.26, 0.25), (0.3, 0.4), (0.75, 0.9)])
def test_exact_cross_moments_scale_as_the_continuum(h_i, h_j):
    # on a grid scaled with t the discrete moment is exactly t^{2(H_i + H_j)}
    # times a constant, so the prediction has no discretisation bias
    exact = [exact_cross_moment(h_i, h_j, t, 256) for t in SCALES]
    slope = np.polyfit(np.log(SCALES), np.log(exact), 1)[0]
    assert abs(slope - 2 * (h_i + h_j)) < 1e-12


@pytest.mark.parametrize("h_i, h_j", [(0.5, 0.75), (0.3, 0.4)])
def test_cross_term_moments_match_the_exact_ones(h_i, h_j):
    # 1000 paths per scale: over 100 seeds (0, 4, .., 396) x 4 scales per
    # pair, the z-scores had mean -0.12 and -0.08, sd 0.98 and 1.03 and max
    # |z| 4.06 and 3.33 (the squared cross term is heavy-tailed), and the
    # mean of 16 z-scores (4 seeds) had sd 0.26-0.27 and ranged over
    # [-0.56, 0.63]. The bounds below are 4.5 on each |z| and 1.5 (about
    # 5 sd) on their mean.
    exact = np.array([exact_cross_moment(h_i, h_j, t, 256) for t in SCALES])
    z = []
    for seed in range(0, 16, 4):  # scale si draws from seed + si
        res = cross_term_scaling(h_i, h_j, SCALES, n_paths=1000, seed=seed)
        z.append((np.array(res["moments"]) - exact) / np.array(res["stderrs"]))
    z = np.array(z)
    assert np.abs(z).max() <= 4.5, z
    assert abs(z.mean()) <= 1.5, z


@pytest.mark.parametrize("n_steps", [1, 5, 64, 256])
@pytest.mark.parametrize("h_j", [0.25, 0.5, 0.75, 0.9])
def test_variance_weights_give_the_quadratic_form_of_the_steps(n_steps, h_j):
    # sum_k w_k |rfft(m padded to 2n)|^2 is m^T Sigma m, both for the dense
    # covariance of the fGn steps and for ||L^T m||^2, where the columns of
    # L are the circulant map of each of the 2n unit normals; so the cross
    # integral drawn from its conditional variance has the law it had
    # when eta was drawn by that map. Sigma is rounded once from decimal
    # lags, so it does not lean on the library's autocovariance series, which
    # increment_covariance takes; the two agree to 1e-15 here, and the
    # weights with both to 5e-15
    grid = TimeGrid.uniform(n_steps, 0.75)
    m = np.random.default_rng(n_steps).standard_normal((8, n_steps))
    v = np.fft.rfft(m, n=2 * n_steps, axis=1).view(float)
    got = np.einsum("pk,pk,k->p", v, v, _variance_weights(h_j, grid))
    dense = np.einsum("pi,ij,pj->p", m, fgn_covariance(h_j, n_steps, 0.75), m)
    rows = gmfbm._circulant_fgn(np.eye(2 * n_steps), gmfbm._circulant_scale((h_j,), (1.0,), grid),
                                np.empty((2 * n_steps, n_steps + 1), complex))
    mapped = np.sum((m @ rows.T) ** 2, axis=1)
    assert np.allclose(got, dense, rtol=1e-12, atol=0), np.abs(got / dense - 1).max()
    assert np.allclose(got, mapped, rtol=1e-12, atol=0), np.abs(got / mapped - 1).max()


def exact_levy_area_moment(spec, n_steps):
    """E[A^2] of the Levy area A = x^T S y of the polyline through a d=2 path
    of ``spec`` on a uniform grid of n_steps, with x and y the increments of
    its two independent coordinates."""
    sigma = increment_covariance(spec.hursts, spec.coeffs, n_steps, spec.horizon)
    return bilinear_moment(area_matrix(n_steps), sigma, sigma)


def test_levy_area_of_sampled_paths_matches_the_exact_moment():
    # Brownian steps: A is half the sum over pairs k < l of
    # D_k^1 D_l^2 - D_k^2 D_l^1, so E[A^2] = (n - 1) / (4 n)
    brownian = GmfbmSpec(hursts=(0.5,), coeffs=(1.0,), dim=2)
    assert abs(exact_levy_area_moment(brownian, 16) - 15 / 64) < 1e-15
    # The areas of sample_batch paths are taken through the lift and Chen's
    # identity: the paths' increments chained into one polyline, lifted
    # once, and each path's level 2 read off over its own intervals.
    # 4000 paths per seed: over 200 seeds the z-scores had mean -0.04, sd
    # 0.95 and max |z| 3.39, so the mean of 3 has sd about 0.55. The bounds
    # below are 4.5 on each |z| and 2.5 (about 4.5 sd) on their mean.
    spec = GmfbmSpec(hursts=(0.4, 0.75), coeffs=(1.0, 2.0), dim=2)
    n, n_paths = 64, 4000
    exact = exact_levy_area_moment(spec, n)
    starts = n * np.arange(n_paths)
    z = []
    for seed in range(3):
        paths = sample_batch(spec, TimeGrid.uniform(n), seed, n_paths)
        steps = np.diff(paths, axis=1).reshape(-1, 2)
        chain = np.concatenate([np.zeros((1, 2)), np.cumsum(steps, axis=0)])
        _, x2 = lift_piecewise_linear(chain).over(starts, starts + n)
        area_sq = (0.5 * (x2[:, 0, 1] - x2[:, 1, 0])) ** 2
        z.append((area_sq.mean() - exact) / (area_sq.std(ddof=1) / np.sqrt(n_paths)))
    assert np.abs(z).max() <= 4.5, z
    assert abs(np.mean(z)) <= 2.5, z


def test_cross_term_scaling_validation():
    with pytest.raises(ValueError):
        cross_term_scaling(0.2, 0.2, [0.25, 0.5, 1.0], 100, 0)
    with pytest.raises(ValueError):
        cross_term_scaling(0.5, 0.75, [1.0], 100, 0)


def test_cross_term_scaling_checks_every_scale_seed_before_drawing(monkeypatch):
    # scale si draws from seed + si, which must stay below 2^64
    scales = [0.25, 0.5, 1.0]
    assert np.isfinite(cross_term_scaling(0.5, 0.75, scales, 2, 2 ** 64 - 3,
                                          n_steps=8)["slope"])

    def no_draw(*args):
        raise AssertionError("drew before checking the seed")

    monkeypatch.setattr(signature_module, "_stream", no_draw)
    for seed in (2 ** 64 - 2, 2 ** 64 - 1, -1, 1.0):
        with pytest.raises(ValueError, match=re.escape(f"got {seed!r}")):
            cross_term_scaling(0.5, 0.75, scales, 2, seed, n_steps=8)
