"""Finitely supported permutations, the nested chain S(1) < S(2) < ..., and
their action on binary configuration windows.

A configuration is a plain tuple of 0/1 ints; coordinate i (1-based) lives at
``x[i - 1]``. Window length is fixed per experiment. Permutations are stored
sparsely (fixed points are dropped), so elements of S(n) embed in every later
level without conversion.
"""
from __future__ import annotations

import itertools
from math import factorial
from typing import Iterable, Iterator, Sequence

from .errors import CapacityError, DegreeOverflowError
from .rng import RandomStream

Config = tuple[int, ...]

# Exact group enumeration is capped at 8! = 40320 elements.
ENUMERATION_CAP = 8


class Permutation:
    """A bijection of the positive integers moving finitely many points."""

    __slots__ = ("_map", "_hash")

    def __init__(self, mapping: dict[int, int] | None = None):
        m = {}
        for i, j in (mapping or {}).items():
            if i < 1 or j < 1:
                raise ValueError("permutations act on positive indices")
            if i != j:
                m[i] = j
        if set(m.keys()) != set(m.values()):
            raise ValueError("mapping is not a bijection of its support")
        self._map = m
        self._hash = hash(frozenset(m.items()))

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
        return max(self._map, default=0)

    @property
    def support(self) -> frozenset[int]:
        return frozenset(self._map)

    def compose(self, other: "Permutation") -> "Permutation":
        """(self o other)(i) = self(other(i))."""
        keys = set(self._map) | set(other._map)
        return Permutation({i: self(other(i)) for i in keys})

    def inverse(self) -> "Permutation":
        return Permutation({j: i for i, j in self._map.items()})

    def is_identity(self) -> bool:
        return not self._map

    def __mul__(self, other: "Permutation") -> "Permutation":
        return self.compose(other)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Permutation) and self._map == other._map

    def __hash__(self) -> int:
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
    images = rng.permutation(level)
    return Permutation({i + 1: int(images[i]) + 1 for i in range(level)})


def enumerate_level(level: int) -> Iterator[Permutation]:
    """All level! elements of S(level), each exactly once."""
    if level < 1:
        raise ValueError("level must be >= 1")
    if level > ENUMERATION_CAP:
        raise CapacityError(
            f"S({level}) has {factorial(level)} elements; exact enumeration is "
            f"capped at S({ENUMERATION_CAP})"
        )
    for images in itertools.permutations(range(1, level + 1)):
        yield Permutation.from_one_line(images)


def act(g: Permutation, x: Config) -> Config:
    """Move the bit at coordinate j to coordinate g(j).

    The result bit at position i equals the bit of x at position g^{-1}(i),
    which makes act(g*h, x) == act(g, act(h, x)).
    """
    if g.degree > len(x):
        raise DegreeOverflowError(
            f"permutation of degree {g.degree} exceeds window {len(x)}"
        )
    y = list(x)
    for j, gj in g._map.items():
        y[gj - 1] = x[j - 1]
    return tuple(y)


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
