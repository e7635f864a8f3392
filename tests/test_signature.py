import importlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roughmix import tensor as ta
from roughmix.gmfbm import GmfbmSpec, TimeGrid
from roughmix.signature import (
    _signature_levels,
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


def test_straight_line_signature_is_exponential():
    delta = np.array([0.8, -0.5])
    for level in range(1, 7):
        sig = signature(np.vstack([np.zeros(2), delta]), level)
        want = ta.exp_of_increment(delta, level)
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


def sequential_signature(values, level):
    """Oracle: left fold of Chen's identity, one segment at a time."""
    acc = ta.unit(values.shape[1], level)
    for delta in np.diff(values, axis=0):
        acc = ta.mul(acc, ta.exp_of_increment(delta, level))
    return acc


def assert_matches_fold(levels, values, level):
    for b, path in enumerate(values):
        want = sequential_signature(path, level)
        for n in range(level + 1):
            scale = max(1.0, want.norm_level(n))
            assert np.abs(levels[n][b] - want.levels[n]).max() / scale <= 1e-12


@given(st.integers(2, 40), st.integers(1, 3), st.integers(1, 4),
       st.integers(1, 3), st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_product_tree_matches_sequential_fold(n, d, level, batch, seed):
    values = np.cumsum(np.random.default_rng(seed).normal(size=(batch, n, d)), axis=1)
    assert_matches_fold(_signature_levels(values, level), values, level)


def test_product_tree_chunked_fold(monkeypatch):
    # 3 paths x 15 entries per segment: chunks of 2 segments under a cap of 100
    values = random_polyline(31, n=38)[None] * np.array([1.0, -0.5, 2.0])[:, None, None]
    whole = _signature_levels(values, 3)
    monkeypatch.setattr(signature_module, "CHUNK_ENTRIES", 100)
    chunked = _signature_levels(values, 3)
    assert_matches_fold(chunked, values, 3)
    for a, b in zip(whole, chunked):
        assert np.abs(a - b).max() <= 1e-12 * max(1.0, np.abs(a).max())


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


def test_cross_term_scaling_validation():
    with pytest.raises(ValueError):
        cross_term_scaling(0.2, 0.2, [0.25, 0.5, 1.0], 100, 0)
    with pytest.raises(ValueError):
        cross_term_scaling(0.5, 0.75, [1.0], 100, 0)
