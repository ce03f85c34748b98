"""Finitely supported permutations, the nested chain S(1) < S(2) < ..., and
their action on binary configuration windows.

A configuration is a plain tuple of 0/1 ints; coordinate i (1-based) lives at
``x[i - 1]``. Window length is fixed per experiment. Permutations are stored
sparsely (fixed points are dropped), so elements of S(n) embed in every later
level without conversion.
"""
from __future__ import annotations

import itertools
from fractions import Fraction
from math import factorial
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import CapacityError, DegreeOverflowError
from .rng import RandomStream

Config = tuple[int, ...]

# Exact group enumeration is capped at 8! = 40320 elements.
ENUMERATION_CAP = 8


class Permutation:
    """A bijection of the positive integers moving finitely many points.

    Every instance goes through the validating constructor, which also
    stores the degree: ``check_degree`` reads it before every ``act`` and
    closed-form ratio. The hash is computed lazily, on first use: most
    permutations are only applied or composed, never hashed.
    """

    __slots__ = ("_map", "_degree", "_hash")

    def __init__(self, mapping: dict[int, int] | None = None):
        m = {}
        for i, j in (mapping or {}).items():
            if i < 1 or j < 1:
                raise ValueError("permutations act on positive indices")
            if i != j:
                m[i] = j
        if m.keys() != set(m.values()):
            raise ValueError("mapping is not a bijection of its support")
        self._map = m
        self._degree = max(m, default=0)
        self._hash = None

    @classmethod
    def identity(cls) -> "Permutation":
        return cls({})

    @classmethod
    def swap(cls, i: int, j: int) -> "Permutation":
        if i == j:
            return cls({})
        return cls({i: j, j: i})

    @classmethod
    def from_one_line(cls, images: Sequence[int]) -> "Permutation":
        """Build from one-line notation: position i (1-based) maps to images[i-1]."""
        return cls({i + 1: v for i, v in enumerate(images)})

    def __call__(self, i: int) -> int:
        return self._map.get(i, i)

    @property
    def degree(self) -> int:
        """Smallest n with support inside {1..n}; 0 for the identity."""
        return self._degree

    @property
    def support(self) -> frozenset[int]:
        return frozenset(self._map)

    def moves(self) -> Iterable[tuple[int, int]]:
        """The pairs (j, g(j)) over the moved points j."""
        return self._map.items()

    def compose(self, other: "Permutation") -> "Permutation":
        """(self o other)(i) = self(other(i))."""
        s = self._map
        # points other fixes go where self sends them; the rest via both maps
        return Permutation({**s, **{i: s.get(j, j) for i, j in other._map.items()}})

    def inverse(self) -> "Permutation":
        return Permutation({j: i for i, j in self._map.items()})

    def is_identity(self) -> bool:
        return not self._map

    def __mul__(self, other: "Permutation") -> "Permutation":
        return self.compose(other)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Permutation) and self._map == other._map

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._map.items()))
        return self._hash

    def __repr__(self) -> str:
        if not self._map:
            return "Permutation.identity()"
        items = ", ".join(f"{i}: {j}" for i, j in sorted(self._map.items()))
        return f"Permutation({{{items}}})"


def compose(g: Permutation, h: Permutation) -> Permutation:
    """(g o h)(i) = g(h(i))."""
    return g.compose(h)


def haar_sample(level: int, rng: RandomStream) -> Permutation:
    """Uniform draw from S(level) via an unbiased shuffle."""
    if level < 1:
        raise ValueError("level must be >= 1")
    images = rng.permutation(level).tolist()
    return Permutation({i + 1: v + 1 for i, v in enumerate(images)})


def level_rows(level: int) -> np.ndarray:
    """The one-line images of the level! elements of S(level), one row each,
    in lexicographic order; CapacityError above S(8)."""
    if level < 1:
        raise ValueError("level must be >= 1")
    if level > ENUMERATION_CAP:
        raise CapacityError(
            f"S({level}) has {factorial(level)} elements; exact enumeration is "
            f"capped at S({ENUMERATION_CAP})"
        )
    return np.array(list(itertools.permutations(range(1, level + 1))), dtype=np.intp)


def enumerate_level(level: int) -> Iterator[Permutation]:
    """All level! elements of S(level), in the order of ``level_rows``."""
    return map(Permutation.from_one_line, level_rows(level).tolist())


def check_degree(g: Permutation, window: int) -> None:
    """Raise DegreeOverflowError when g moves a coordinate past the window."""
    if g._degree > window:
        raise DegreeOverflowError(
            f"permutation of degree {g.degree} exceeds window {window}"
        )


def act(g: Permutation, x: Config) -> Config:
    """Move the bit at coordinate j to coordinate g(j).

    The result bit at position i equals the bit of x at position g^{-1}(i),
    which makes act(g*h, x) == act(g, act(h, x)).
    """
    check_degree(g, len(x))
    y = list(x)
    for j, gj in g._map.items():
        y[gj - 1] = x[j - 1]
    return tuple(y)


def act_rows(g_rows: np.ndarray, x_rows: np.ndarray) -> np.ndarray:
    """``act`` on each row pair: g_rows holds one-line images of S(level),
    one row each, and x_rows 0/1 rows; DegreeOverflowError, as from ``act``,
    when level exceeds their window."""
    level = g_rows.shape[1]
    if level > x_rows.shape[1]:
        raise DegreeOverflowError(f"degree {level} exceeds window {x_rows.shape[1]}")
    out = x_rows.copy()
    out[np.arange(len(x_rows))[:, None], g_rows - 1] = x_rows[:, :level]
    return out


def row_ratio(
    kernel: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]],
    g: Permutation,
    x: Config,
) -> Fraction:
    """A cocycle's exact row kernel (``Cocycle.ratio_rows``) at one pair
    (g, x), as one Fraction: the kernel reads g's one-line images over
    1..degree as one row and x as another. DegreeOverflowError, as from
    ``act``, when g moves a coordinate past the window."""
    check_degree(g, len(x))
    m = g._map
    images = np.array([[m.get(j, j) for j in range(1, g._degree + 1)]], dtype=np.intp)
    num, den = kernel(images, np.array([x], dtype=np.uint8))
    return Fraction(num[0], den[0])


def level_orbit(x: Config, level: int) -> Iterator[Config]:
    """The S(level)-orbit of x, each configuration once: every arrangement of
    the ones among the first ``level`` coordinates, with the tail of x kept."""
    m = ones_count(x, level)
    tail = tuple(x[level:])
    for ones_at in itertools.combinations(range(level), m):
        head = [0] * level
        for i in ones_at:
            head[i] = 1
        yield tuple(head) + tail


def validate_config(x: Iterable[int]) -> Config:
    t = tuple(int(b) for b in x)
    if any(b not in (0, 1) for b in t):
        raise ValueError("configurations are 0/1 sequences")
    return t


def ones_count(x: Config, prefix: int | None = None) -> int:
    """Number of ones among the first ``prefix`` coordinates (whole window if None).

    Accepts tuples and numpy bit arrays alike and always returns a Python
    int: summing uint8 elements directly would wrap past 255 ones.
    """
    head = x if prefix is None else x[:prefix]
    return sum(map(int, head))
