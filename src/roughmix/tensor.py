"""Truncated tensor algebra T^N(R^d).

Each level n is stored as a dense flat array of d^n coefficients in
lexicographic word order: the word (w_1, ..., w_n) with letters in 1..d
sits at index sum_j (w_j - 1) * d^(n - j). Level 0 is the scalar part.
See docs/format.md for the serialized layout.

The private kernels take raw level lists of (..., d^n) arrays whose leading
batch axes broadcast; ``TruncatedTensor`` and the public functions wrap them.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import Counter
from functools import lru_cache

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
        arr = self.levels[n]
        if reshape and n > 0:
            return arr.reshape((self.dim,) * n)
        return arr.copy()

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

    def __matmul__(self, other: "TruncatedTensor") -> "TruncatedTensor":
        return mul(self, other)

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
        return cls(int(obj["dim"]), int(obj["level"]), obj["levels"])

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


def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Flat outer product over the last axis; words concatenate lexicographically."""
    prod = a[..., :, None] * b[..., None, :]
    return prod.reshape(prod.shape[:-2] + (-1,))


def _mul(x, y) -> list:
    """Truncated product of raw levels (..., d^n): out[n] = sum_i x[i] (x) y[n - i]."""
    return [sum(_outer(x[i], y[n - i]) for i in range(n + 1))
            for n in range(len(x))]


def _series(x, coeffs) -> list:
    """Horner evaluation of sum_n coeffs[n] x^{(x) n} on raw levels."""
    acc = [np.full_like(x[0], coeffs[-1])] + [np.zeros_like(lv) for lv in x[1:]]
    for c in reversed(coeffs[:-1]):
        acc = _mul(acc, x)
        acc[0] = acc[0] + c
    return acc


def _exp(x) -> list:
    return _series(x, [1.0 / math.factorial(n) for n in range(len(x))])


def _log(x) -> list:
    coeffs = [0.0] + [(-1.0) ** (n - 1) / n for n in range(1, len(x))]
    return _series([x[0] - 1.0, *x[1:]], coeffs)


def _exp_of_increment(delta: np.ndarray, level: int) -> list:
    """Raw levels of exp(delta) for increments (..., d): delta^{(x) n} / n!."""
    levels = [np.ones(delta.shape[:-1] + (1,))]
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


def exp_of_increment(delta, level: int) -> TruncatedTensor:
    """exp(from_level1(delta)): level n is delta^{(x) n} / n!, computed directly."""
    delta = np.asarray(delta, dtype=float).ravel()
    _check_size(delta.size, level)
    return TruncatedTensor(delta.size, level, _exp_of_increment(delta, level))


# --------------------------------------------------------------------------- #
# shuffle product and group-like check


@lru_cache(maxsize=None)
def _shuffle_words(u: tuple[int, ...], v: tuple[int, ...]) -> tuple:
    if not u:
        return ((v, 1),)
    if not v:
        return ((u, 1),)
    out: Counter = Counter()
    for w, c in _shuffle_words(u[1:], v):
        out[(u[0],) + w] += c
    for w, c in _shuffle_words(u, v[1:]):
        out[(v[0],) + w] += c
    return tuple(out.items())


def shuffle(u, v) -> dict[tuple[int, ...], int]:
    """All riffle interleavings of two words, with multiplicity."""
    u = tuple(int(a) for a in u)
    v = tuple(int(a) for a in v)
    return dict(_shuffle_words(u, v))


def is_group_like(x: TruncatedTensor, tol: float = 1e-8) -> tuple[bool, float]:
    """Check the shuffle relations <x,u><x,v> = <x, u sh v> for |u|+|v| <= level.

    Returns (pass, max absolute violation).
    """
    d, N = x.dim, x.level
    worst = abs(x.scalar - 1.0)
    letters = range(1, d + 1)
    for lu in range(1, N):
        for lv in range(1, N - lu + 1):
            lvl_u = x.levels[lu]
            lvl_v = x.levels[lv]
            for u in itertools.product(letters, repeat=lu):
                cu = lvl_u[word_to_index(u, d)]
                for v in itertools.product(letters, repeat=lv):
                    cv = lvl_v[word_to_index(v, d)]
                    rhs = sum(
                        c * x.levels[lu + lv][word_to_index(w, d)]
                        for w, c in shuffle(u, v).items()
                    )
                    worst = max(worst, abs(cu * cv - rhs))
    return worst <= tol, worst
