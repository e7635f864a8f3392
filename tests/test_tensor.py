import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roughmix import tensor as ta
from roughmix.errors import CompositionError, ConfigurationError
from roughmix.signature import signature
from roughmix.tensor import TruncatedTensor


def random_tensor(rng, dim, level, zero_scalar=False):
    levels = [rng.normal(size=dim ** n) for n in range(level + 1)]
    if zero_scalar:
        levels[0][0] = 0.0
    return TruncatedTensor(dim, level, levels)


# --------------------------------------------------------------------------- #
# storage and indexing


def test_word_index_round_trip():
    d = 3
    for n in range(1, 4):
        for idx in range(d ** n):
            word = ta.index_to_word(idx, d, n)
            assert ta.word_to_index(word, d) == idx
    with pytest.raises(ValueError, match="letter 4 outside 1..3"):
        ta.word_to_index((1, 4), d)
    with pytest.raises(ValueError, match="longer than truncation level"):
        ta.unit(d, 2).coeff((1, 2, 3))


def test_lexicographic_order():
    # (1,2) comes before (2,1) in d=2 level-2 storage
    assert ta.word_to_index((1, 2), 2) == 1
    assert ta.word_to_index((2, 1), 2) == 2
    assert ta.word_to_index((1, 1), 2) == 0


def test_entry_cap_enforced():
    with pytest.raises(ConfigurationError):
        TruncatedTensor(10, 8, [np.zeros(10 ** n) for n in range(9)])
    with pytest.raises(ConfigurationError, match="dim >= 1"):
        ta.zero(0, 2)


def test_level_shape_validation():
    with pytest.raises(ValueError):
        TruncatedTensor(2, 2, [[1.0], [1.0, 2.0], [1.0]])
    with pytest.raises(ValueError, match=r"length level \+ 1"):
        TruncatedTensor(2, 2, [[1.0], [1.0, 2.0]])


# --------------------------------------------------------------------------- #
# product


def test_unit_is_identity():
    assert ta.unit(2, 3).scalar == 1.0
    rng = np.random.default_rng(0)
    x = random_tensor(rng, 2, 3)
    u = ta.unit(2, 3)
    assert ta.mul(u, x).allclose(x)
    assert ta.mul(x, u).allclose(x)


def test_two_letter_product_expansion():
    # (1 + e1)(1 + e2) = 1 + e1 + e2 + e1e2 with no e2e1 term
    x = ta.unit(2, 2) + ta.from_level1([1.0, 0.0], 2)
    y = ta.unit(2, 2) + ta.from_level1([0.0, 1.0], 2)
    z = ta.mul(x, y)
    assert z.scalar == 1.0
    assert z.coeff((1,)) == 1.0 and z.coeff((2,)) == 1.0
    assert z.coeff((1, 2)) == 1.0 and z.coeff((2, 1)) == 0.0


def test_binomial_cube():
    one_plus = ta.unit(1, 3) + ta.from_level1([1.0], 3)
    left = ta.mul(ta.mul(one_plus, one_plus), one_plus)
    right = ta.mul(one_plus, ta.mul(one_plus, one_plus))
    assert left.allclose(right)
    assert [lv[0] for lv in left.levels] == [1.0, 3.0, 3.0, 1.0]


def test_product_shape_mismatch():
    with pytest.raises(CompositionError):
        ta.mul(ta.unit(2, 2), ta.unit(2, 3))
    with pytest.raises(CompositionError):
        ta.mul(ta.unit(2, 2), ta.unit(3, 2))
    with pytest.raises(CompositionError, match="expected a TruncatedTensor"):
        ta.mul(ta.unit(2, 2), 1.0)


@given(st.integers(0, 10_000))
@settings(max_examples=50, deadline=None)
def test_product_associative(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 4))
    level = int(rng.integers(1, 5))
    x, y, z = (random_tensor(rng, dim, level) for _ in range(3))
    left = ta.mul(ta.mul(x, y), z)
    right = ta.mul(x, ta.mul(y, z))
    scale = max(1.0, max(left.norm_level(n) for n in range(level + 1)))
    assert left.max_diff(right) / scale < 1e-12


# --------------------------------------------------------------------------- #
# exp / log


def test_exp_of_zero_is_unit():
    assert ta.exp(ta.zero(2, 3)).allclose(ta.unit(2, 3))


def test_exp_scalar_series():
    x = ta.from_level1([2.0], 3)
    got = ta.exp(x)
    assert [lv[0] for lv in got.levels] == pytest.approx([1.0, 2.0, 2.0, 4.0 / 3.0])


def test_exp_rejects_nonzero_scalar():
    with pytest.raises(ValueError):
        ta.exp(ta.unit(2, 2))


def test_log_of_unit_is_zero():
    assert ta.log(ta.unit(2, 3)).allclose(ta.zero(2, 3))


def test_log_scalar_series():
    x = TruncatedTensor(1, 2, [[1.0], [1.0], [0.5]])
    got = ta.log(x)
    assert [lv[0] for lv in got.levels] == pytest.approx([0.0, 1.0, 0.0], abs=1e-14)


def test_log_rejects_bad_scalar():
    with pytest.raises(ValueError):
        ta.log(ta.zero(2, 2))


@given(st.integers(0, 10_000))
@settings(max_examples=50, deadline=None)
def test_exp_log_inverse(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 4))
    level = int(rng.integers(1, 5))
    x = random_tensor(rng, dim, level, zero_scalar=True)
    back = ta.log(ta.exp(x))
    assert back.max_diff(x) < 1e-10
    g = ta.exp(x)
    assert ta.exp(ta.log(g)).max_diff(g) < 1e-10


def test_commuting_exponentials_add():
    x = ta.from_level1([0.7], 4)
    y = ta.from_level1([-0.3], 4)
    lhs = ta.mul(ta.exp(x), ta.exp(y))
    rhs = ta.exp(x + y)
    assert lhs.max_diff(rhs) < 1e-12


def test_exp_of_increment_matches_exp():
    delta = np.array([0.4, -1.1, 0.2])
    a = TruncatedTensor(3, 4, ta._exp_of_increment(delta, 4))
    b = ta.exp(ta.from_level1(delta, 4))
    assert a.max_diff(b) < 1e-14


def _full_series(x, coeffs):
    """Reference Horner evaluation with the full product: every level and term."""
    acc = [np.full_like(x[0], coeffs[-1])] + [np.zeros_like(lv) for lv in x[1:]]
    for c in reversed(coeffs[:-1]):
        acc = ta._mul(acc, x)
        acc[0] = acc[0] + c
    return acc


def _full_exp(x):
    return _full_series(x, [1.0 / math.factorial(n) for n in range(len(x))])


def _full_log(x):
    coeffs = [0.0] + [(-1.0) ** (n - 1) / n for n in range(1, len(x))]
    return _full_series([x[0] - 1.0, *x[1:]], coeffs)


def _same_levels(got, want):
    return len(got) == len(want) and all(
        g.shape == w.shape and np.array_equal(g, w) for g, w in zip(got, want))


@pytest.mark.parametrize("batch", [(), (7,), (2, 3)], ids=["flat", "batch-7", "batch-2x3"])
@pytest.mark.parametrize("level", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_truncated_exp_log_match_the_full_product(dim, level, batch):
    # exp always has a zero scalar part, log of scalar exactly 1 drops the
    # terms with it, and at 1 + 1e-13 every term is formed
    rng = np.random.default_rng(100 * dim + level)
    x = [np.zeros((1,) + batch)] + [rng.normal(size=(dim ** n,) + batch)
                                    for n in range(1, level + 1)]
    assert _same_levels(ta._exp(x), _full_exp(x))
    for scalar in (1.0, 1.0 + 1e-13):
        x[0] = np.full((1,) + batch, scalar)
        assert _same_levels(ta._log(x), _full_log(x))


def test_truncated_exp_log_match_the_full_product_on_a_lift():
    # the level lists linear_exact passes: a lift's words-first levels, then
    # the level <= 2 part of their log padded with zero levels
    rng = np.random.default_rng(8)
    d, k, level = 2, 64, 5
    inc1 = rng.normal(size=(d, k))
    inc2 = 0.5 * inc1[:, None] * inc1[None] + rng.normal(size=(d, d, k))
    lift = [np.ones((1, k)), inc1, inc2.reshape(d * d, k)]
    ell = ta._log(lift)
    assert _same_levels(ell, _full_log(lift))
    padded = ([np.zeros((1, k)), ell[1], ell[2]]
              + [np.zeros((d ** n, k)) for n in range(3, level + 1)])
    assert _same_levels(ta._exp(padded), _full_exp(padded))


# --------------------------------------------------------------------------- #
# shuffle product and group-likeness


def test_shuffle_single_letters():
    assert ta.shuffle((1,), (2,)) == {(1, 2): 1, (2, 1): 1}


def test_shuffle_empty_word():
    assert ta.shuffle((1,), ()) == {(1,): 1}


def test_shuffle_three_riffles():
    assert ta.shuffle((1, 2), (3,)) == {(1, 2, 3): 1, (1, 3, 2): 1, (3, 1, 2): 1}


def test_shuffle_multiplicity():
    # same letter on both sides gives multiplicity 2
    assert ta.shuffle((1,), (1,)) == {(1, 1): 2}


def shuffle_oracle(u, v) -> Counter:
    """The recursive definition: ua sh vb = (u sh vb) a + (ua sh v) b."""
    if not u or not v:
        return Counter({u + v: 1})
    out = Counter()
    for w, c in shuffle_oracle(u[:-1], v).items():
        out[w + u[-1:]] += c
    for w, c in shuffle_oracle(u, v[:-1]).items():
        out[w + v[-1:]] += c
    return out


def group_like_oracle(x: TruncatedTensor) -> float:
    """Max violation of <x,u><x,v> = <x, u sh v>, word pair by word pair."""
    letters = range(1, x.dim + 1)
    worst = abs(x.scalar - 1.0)
    for m in range(1, x.level):
        for n in range(1, x.level - m + 1):
            for u in itertools.product(letters, repeat=m):
                for v in itertools.product(letters, repeat=n):
                    rhs = sum(c * x.coeff(w) for w, c in shuffle_oracle(u, v).items())
                    worst = max(worst, abs(x.coeff(u) * x.coeff(v) - rhs))
    return worst


@given(st.lists(st.integers(1, 3), max_size=6), st.integers(0, 6))
@settings(max_examples=200, deadline=None)
def test_shuffle_matches_recursive_definition(letters, split):
    u, v = tuple(letters[:split]), tuple(letters[split:])
    assert ta.shuffle(u, v) == dict(shuffle_oracle(u, v))


def group_like_cases():
    rng = np.random.default_rng(11)
    for d in (1, 2, 3):
        for level in range(2, 6):
            yield ta.unit(d, level)
            yield ta.exp(ta.from_level1(rng.normal(size=d), level))
            # a Brownian-scale 16-step polyline on [0, 1]
            steps = rng.normal(size=(16, d)) / 4.0
            yield signature(np.cumsum(np.vstack([np.zeros(d), steps]), axis=0), level)
            yield TruncatedTensor(d, level, [rng.normal(size=d ** n)
                                             for n in range(level + 1)])


def test_group_like_matches_word_by_word_oracle():
    for x in group_like_cases():
        ok, viol = ta.is_group_like(x)
        want = group_like_oracle(x)
        assert ok == (want <= 1e-8)
        assert abs(viol - want) <= 1e-15 * max(1.0, want)


def test_group_like_unit_and_exponentials():
    ok, viol = ta.is_group_like(ta.unit(2, 4))
    assert ok and viol == 0.0
    g = ta.exp(ta.from_level1([0.5, -1.2], 4))
    ok, viol = ta.is_group_like(g)
    assert ok and viol < 1e-12


def test_group_like_detects_pure_level2():
    # x = 1 + e1 (x) e1: <x,(1)>^2 = 0 but <x, (1) sh (1)> = 2 * <x,(11)> = 2
    x = TruncatedTensor(2, 2, [[1.0], np.zeros(2), [1.0, 0.0, 0.0, 0.0]])
    ok, viol = ta.is_group_like(x)
    assert not ok
    assert viol == group_like_oracle(x) == 2.0


def test_group_like_fails_on_nan():
    x = ta.exp(ta.from_level1([0.5, -1.2], 3))
    levels = list(x.levels)
    levels[2] = levels[2].copy()
    levels[2][1] = np.nan
    ok, viol = ta.is_group_like(TruncatedTensor(2, 3, levels))
    assert not ok and math.isnan(viol)


def test_factorial_decay_for_straight_lines():
    # signature of a line with increment delta has level n equal to
    # delta^{(x)n}/n!, so its max-norm is exactly |delta|_inf^n / n!
    delta = np.array([0.9, -0.4])
    sig = ta.exp(ta.from_level1(delta, 6))
    var1 = np.abs(delta).max()
    for n in range(1, 7):
        assert sig.norm_level(n) <= var1 ** n / math.factorial(n) + 1e-15


def test_json_round_trip():
    rng = np.random.default_rng(7)
    x = random_tensor(rng, 2, 3)
    back = TruncatedTensor.from_json(x.to_json())
    assert back.allclose(x)
    assert (back.dim, back.level) == (2, 3)


@pytest.mark.parametrize("text", [
    '{"dim": 2, "level": 1}',  # no levels
    '[2, 1, [[1.0], [0.5, 0.5]]]',  # an array, not an object
    '{"dim": 2.7, "level": 1, "levels": [[1.0], [0.5, 0.5]]}',
    '{"dim": 2, "level": 1, "levels": [[1.0], [NaN, 0.5]]}',
    '{"dim": 2, "level": 1, "levels": 3}',
], ids=["missing-levels", "array", "fractional-dim", "nan-entry", "number-levels"])
def test_from_json_rejects_malformed_tensors(text):
    with pytest.raises(ValueError):
        TruncatedTensor.from_json(text)


@pytest.mark.parametrize("reshape", [False, True])
def test_level_array_is_a_copy(reshape):
    t = ta.from_level1([1.0, 2.0], 3)
    t.level_array(2, reshape=reshape).ravel()[0] = 99.0
    assert t.levels[2][0] == 0.0
