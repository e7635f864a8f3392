"""Truncated tensor algebra T^N(R^d).

Each level n is stored as a dense flat array of d^n coefficients in
lexicographic word order: the word (w_1, ..., w_n) with letters in 1..d
sits at index sum_j (w_j - 1) * d^(n - j). Level 0 is the scalar part.
See docs/format.md for the serialized layout.

The private kernels take raw level lists stored words-first: level n is a
(d^n, ...) array whose trailing batch axes (the same number at every level
and in both operands) broadcast, so numpy's inner loops run over the batch,
not over the d letters. ``TruncatedTensor`` and the public functions wrap
them with 1-d levels, which are the same in either layout.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import Counter

import numpy as np

from .errors import CompositionError, ConfigurationError
from .gmfbm import dumps

__all__ = [
    "TruncatedTensor",
    "unit",
    "zero",
    "from_level1",
    "mul",
    "exp",
    "log",
    "shuffle",
    "is_group_like",
    "word_to_index",
    "index_to_word",
]

# dense storage cap: sum_n d^n entries
MAX_ENTRIES = 10_000_000


def _check_size(dim: int, level: int) -> None:
    if dim < 1 or level < 1:
        raise ConfigurationError("need dim >= 1 and level >= 1")
    total = sum(dim ** n for n in range(level + 1))
    if total > MAX_ENTRIES:
        raise ConfigurationError(
            f"tensor with dim={dim}, level={level} needs {total} entries "
            f"(cap {MAX_ENTRIES})"
        )


def word_to_index(word: tuple[int, ...], dim: int) -> int:
    idx = 0
    for letter in word:
        if not 1 <= letter <= dim:
            raise ValueError(f"letter {letter} outside 1..{dim}")
        idx = idx * dim + (letter - 1)
    return idx


def index_to_word(idx: int, dim: int, length: int) -> tuple[int, ...]:
    letters = []
    for _ in range(length):
        letters.append(idx % dim + 1)
        idx //= dim
    return tuple(reversed(letters))


class TruncatedTensor:
    """Element of T^N(R^d) with dense per-level storage. Immutable by convention."""

    __slots__ = ("dim", "level", "levels")

    def __init__(self, dim: int, level: int, levels):
        _check_size(dim, level)
        if len(levels) != level + 1:
            raise ValueError("levels must have length level + 1")
        self.dim = dim
        self.level = level
        self.levels = tuple(
            np.ascontiguousarray(np.asarray(lv, dtype=float).ravel())
            for lv in levels
        )
        for n, lv in enumerate(self.levels):
            if lv.size != dim ** n:
                raise ValueError(f"level {n} must have {dim ** n} entries")

    # ------------------------------------------------------------------ #
    @property
    def scalar(self) -> float:
        return float(self.levels[0][0])

    def coeff(self, word: tuple[int, ...]) -> float:
        n = len(word)
        if n > self.level:
            raise ValueError("word longer than truncation level")
        return float(self.levels[n][word_to_index(word, self.dim)])

    def level_array(self, n: int, reshape: bool = False) -> np.ndarray:
        """A copy of level n: flat, or with ``reshape`` a (dim,) * n array."""
        arr = self.levels[n].copy()
        return arr.reshape((self.dim,) * n) if reshape and n > 0 else arr

    def norm_level(self, n: int) -> float:
        """Max-absolute-entry norm of level n."""
        return float(np.abs(self.levels[n]).max()) if self.levels[n].size else 0.0

    # ------------------------------------------------------------------ #
    def _compatible(self, other: "TruncatedTensor") -> None:
        if not isinstance(other, TruncatedTensor):
            raise CompositionError("expected a TruncatedTensor")
        if (self.dim, self.level) != (other.dim, other.level):
            raise CompositionError(
                f"incompatible tensors: ({self.dim},{self.level}) vs "
                f"({other.dim},{other.level})"
            )

    def __add__(self, other: "TruncatedTensor") -> "TruncatedTensor":
        self._compatible(other)
        return TruncatedTensor(
            self.dim, self.level,
            [a + b for a, b in zip(self.levels, other.levels)],
        )

    def allclose(self, other: "TruncatedTensor",
                 rtol: float = 1e-12, atol: float = 1e-12) -> bool:
        self._compatible(other)
        return all(
            np.allclose(a, b, rtol=rtol, atol=atol)
            for a, b in zip(self.levels, other.levels)
        )

    def max_diff(self, other: "TruncatedTensor") -> float:
        self._compatible(other)
        return max(
            float(np.abs(a - b).max()) if a.size else 0.0
            for a, b in zip(self.levels, other.levels)
        )

    # ------------------------------------------------------------------ #
    def to_json(self) -> str:
        return dumps(
            {
                "dim": self.dim,
                "level": self.level,
                "levels": [lv.tolist() for lv in self.levels],
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "TruncatedTensor":
        obj = json.loads(text)
        if not isinstance(obj, dict):
            raise ValueError("tensor JSON must be an object")
        try:
            dim, level, levels = obj["dim"], obj["level"], obj["levels"]
            levels = [np.asarray(lv, dtype=float) for lv in levels]
        except KeyError as err:
            raise ValueError(f"tensor JSON is missing {err}") from err
        except TypeError as err:
            raise ValueError(f"malformed tensor JSON: {err}") from err
        if any(isinstance(v, bool) or not isinstance(v, int) for v in (dim, level)):
            raise ValueError("tensor JSON needs integer dim and level, "
                             f"got {dim!r} and {level!r}")
        if not all(np.isfinite(lv).all() for lv in levels):
            raise ValueError("tensor JSON holds non-finite values")
        return cls(dim, level, levels)

    def __repr__(self) -> str:
        return f"TruncatedTensor(dim={self.dim}, level={self.level}, scalar={self.scalar})"


# --------------------------------------------------------------------------- #
# constructors


def zero(dim: int, level: int) -> TruncatedTensor:
    return TruncatedTensor(dim, level,
                           [np.zeros(dim ** n) for n in range(level + 1)])


def unit(dim: int, level: int) -> TruncatedTensor:
    levels = [np.zeros(dim ** n) for n in range(level + 1)]
    levels[0][0] = 1.0
    return TruncatedTensor(dim, level, levels)


def from_level1(vec, level: int) -> TruncatedTensor:
    """Primitive element with given level-1 part and all other levels zero."""
    vec = np.asarray(vec, dtype=float).ravel()
    dim = vec.size
    levels = [np.zeros(dim ** n) for n in range(level + 1)]
    levels[1] = vec.copy()
    return TruncatedTensor(dim, level, levels)


# --------------------------------------------------------------------------- #
# algebra


def _outer(a: np.ndarray, b: np.ndarray, out=None) -> np.ndarray:
    """Flat outer product over the leading (word) axis; words concatenate
    lexicographically. ``out``, if given, is a C-contiguous array of the
    product's shape to write it into."""
    if out is not None:
        out = out.reshape(a.shape[:1] + b.shape[:1] + out.shape[1:])
    prod = np.multiply(a[:, None], b[None, :], out=out)
    return prod.reshape((a.shape[0] * b.shape[0],) + prod.shape[2:])


def _mul(x, y) -> list:
    """Truncated product of raw levels (d^n, ...): out[n] = sum_i x[i] (x) y[n - i]."""
    return [sum(_outer(x[i], y[n - i]) for i in range(n + 1))
            for n in range(len(x))]


def _series(x, coeffs) -> list:
    """Horner evaluation of sum_n coeffs[n] x^{(x) n} on raw levels.

    Each step acc <- acc (x) x + c forms only the terms that can be nonzero.
    The accumulator starts as one scalar level, and levels it does not hold
    yet are left out of the sums. When the scalar part x[0] is exactly zero
    in every batch entry, the terms with x[0] are dropped as well, and after
    s steps the accumulator is formed up to level s only: each later step
    raises every level by at least one, so its higher levels never reach
    the result. The dropped terms are exact zeros and the others are summed
    in the order of the full product, so for finite input the result equals
    the full product's up to the sign of an entry that is exactly zero.
    """
    top = len(x) - 1
    nilpotent = not np.any(x[0])
    acc = [np.full_like(x[0], coeffs[-1])]
    for s, c in enumerate(reversed(coeffs[:-1]), 1):
        head = np.full_like(x[0], c) if nilpotent else _outer(acc[0], x[0]) + c
        acc = [head] + [sum(_outer(acc[i], x[n - i])
                            for i in range(min(len(acc), n + 1 - nilpotent)))
                        for n in range(1, (s if nilpotent else top) + 1)]
    return acc


def _exp(x) -> list:
    return _series(x, [1.0 / math.factorial(n) for n in range(len(x))])


def _log(x) -> list:
    coeffs = [0.0] + [(-1.0) ** (n - 1) / n for n in range(1, len(x))]
    return _series([x[0] - 1.0, *x[1:]], coeffs)


def _exp_of_increment(delta: np.ndarray, level: int) -> list:
    """Raw levels of exp(delta) for increments (d, ...): delta^{(x) n} / n!."""
    levels = [np.ones((1,) + delta.shape[1:])]
    for n in range(1, level + 1):
        levels.append(_outer(levels[-1], delta / n))
    return levels


def mul(x: TruncatedTensor, y: TruncatedTensor) -> TruncatedTensor:
    """Graded truncated tensor product: out[n] = sum_{i+j=n} x[i] (x) y[j]."""
    x._compatible(y)
    return TruncatedTensor(x.dim, x.level, _mul(x.levels, y.levels))


def exp(x: TruncatedTensor) -> TruncatedTensor:
    """Truncated tensor exponential; requires zero scalar part."""
    if x.scalar != 0.0:
        raise ValueError("exp requires zero scalar part")
    return TruncatedTensor(x.dim, x.level, _exp(x.levels))


def log(x: TruncatedTensor) -> TruncatedTensor:
    """Truncated tensor logarithm; requires scalar part 1."""
    if abs(x.scalar - 1.0) > 1e-12:
        raise ValueError("log requires scalar part 1")
    return TruncatedTensor(x.dim, x.level, _log(x.levels))


# --------------------------------------------------------------------------- #
# shuffle product and group-like check


def _riffles(m: int, n: int):
    """Each riffle of words of m and n letters, as the positions that the
    m + n letters of their concatenation take in the riffled word."""
    for p in itertools.combinations(range(m + n), m):
        yield p + tuple(q for q in range(m + n) if q not in p)


def shuffle(u, v) -> dict[tuple[int, ...], int]:
    """All riffle interleavings of two words, with multiplicity."""
    u = tuple(int(a) for a in u)
    v = tuple(int(a) for a in v)
    return dict(Counter(tuple(a for _, a in sorted(zip(perm, u + v)))
                        for perm in _riffles(len(u), len(v))))


def is_group_like(x: TruncatedTensor, tol: float = 1e-8) -> tuple[bool, float]:
    """Check the shuffle relations <x,u><x,v> = <x, u sh v> for |u|+|v| <= level.

    All words of lengths m and n are checked at once: level m + n viewed as
    a (d,) * (m + n) array and transposed by a riffle's positions holds, in
    its (d^m, d^n) reshape, the riffled word's coefficient at [u, v] (the
    axis permutation does the index arithmetic of storage order). The sum
    over riffles is compared with the outer product of levels m and n.
    Returns (pass, max absolute violation); a NaN entry fails the check.
    """
    d, N = x.dim, x.level
    worst = [abs(x.scalar - 1.0)]
    for m in range(1, N):
        for n in range(1, N - m + 1):
            top = x.levels[m + n].reshape((d,) * (m + n))
            rhs = sum(top.transpose(perm) for perm in _riffles(m, n))
            lhs = np.outer(x.levels[m], x.levels[n])
            worst.append(float(np.abs(lhs - rhs.reshape(lhs.shape)).max()))
    worst = float(np.max(worst))
    return worst <= tol, worst
