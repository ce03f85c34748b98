"""Measures on binary configuration spaces.

Four families cover the experiments: exact atomic measures (rational masses),
product Bernoulli measures, finite convex mixtures, and sigma-finite
orbit-counting measures on the idealized space of finitely supported 0/1
sequences. Identities are checked in exact rational arithmetic wherever the
inputs are rational; floats appear only inside Monte Carlo estimators.

Cylinder sets (finitely many pinned coordinates) are the only general set
representation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import comb
from typing import Iterable, Mapping, Sequence, Union

import numpy as np

from .errors import ZeroMassError
from .groups import Config, Permutation, act, validate_config
from .rng import RandomStream

Scalar = Union[Fraction, float, int]

# Orbit labels on the idealized space: k = number of ones. Each orbit of the
# finite-permutation chain is the set of configurations with exactly k ones.
INFINITE = math.inf


@dataclass(frozen=True)
class Cylinder:
    """A set of configurations with finitely many pinned coordinates."""

    pins: tuple[tuple[int, int], ...]  # sorted (position, bit), positions 1-based

    @classmethod
    def of(cls, pins: Mapping[int, int]) -> "Cylinder":
        items = []
        for pos, bit in pins.items():
            if pos < 1:
                raise ValueError("positions are 1-based")
            if bit not in (0, 1):
                raise ValueError("bits are 0 or 1")
            items.append((int(pos), int(bit)))
        items.sort()
        if len({p for p, _ in items}) != len(items):
            raise ValueError("duplicate pinned position")
        return cls(tuple(items))

    @classmethod
    def whole_space(cls) -> "Cylinder":
        return cls(())

    @property
    def depth(self) -> int:
        return len(self.pins)

    def matches(self, x: Config) -> bool:
        return all(x[pos - 1] == bit for pos, bit in self.pins)

    def pinned_ones(self) -> frozenset[int]:
        return frozenset(p for p, b in self.pins if b == 1)

    def pinned_zeros(self) -> frozenset[int]:
        return frozenset(p for p, b in self.pins if b == 0)


def _as_exact(v: Scalar) -> Scalar:
    if isinstance(v, (int, Fraction)):
        return Fraction(v)
    return v


class AtomicMeasure:
    """Finite nonnegative measure on window configurations, exact masses.

    The zero measure is representable by passing an explicit window.
    """

    def __init__(self, atoms: Mapping[Config, Scalar], window: int | None = None):
        store: dict[Config, Fraction] = {}
        for cfg, m in atoms.items():
            cfg = validate_config(cfg)
            if window is None:
                window = len(cfg)
            elif len(cfg) != window:
                raise ValueError("all atoms must share one window length")
            mass = Fraction(m)
            if mass < 0:
                raise ValueError("atom masses are nonnegative")
            if mass > 0:
                store[cfg] = store.get(cfg, Fraction(0)) + mass
        if window is None:
            raise ValueError("an atomic measure needs atoms or an explicit window")
        self._atoms = store
        self._window = window

    @property
    def window(self) -> int:
        return self._window

    @property
    def atoms(self) -> dict[Config, Fraction]:
        return dict(self._atoms)

    @property
    def support(self) -> frozenset[Config]:
        return frozenset(self._atoms)

    def atom(self, x: Config) -> Fraction:
        return self._atoms.get(tuple(x), Fraction(0))

    def total_mass(self) -> Fraction:
        return sum(self._atoms.values(), Fraction(0))

    def is_probability(self) -> bool:
        return self.total_mass() == 1

    def normalized(self) -> "AtomicMeasure":
        t = self.total_mass()
        if t == 0:
            raise ZeroMassError("cannot normalize the zero measure")
        return AtomicMeasure({c: m / t for c, m in self._atoms.items()}, window=self._window)

    def scaled(self, factor: Scalar) -> "AtomicMeasure":
        f = Fraction(factor)
        if f < 0:
            raise ValueError("scale factor must be nonnegative")
        return AtomicMeasure({c: m * f for c, m in self._atoms.items()}, window=self._window)

    def plus(self, other: "AtomicMeasure") -> "AtomicMeasure":
        merged = dict(self._atoms)
        for c, m in other._atoms.items():
            merged[c] = merged.get(c, Fraction(0)) + m
        return AtomicMeasure(merged, window=self._window)

    def restricted(self, keep: Iterable[Config]) -> dict[Config, Fraction]:
        keep = {tuple(c) for c in keep}
        return {c: m for c, m in self._atoms.items() if c in keep}

    def mass(self, a: Cylinder) -> Fraction:
        return sum((m for c, m in self._atoms.items() if a.matches(c)), Fraction(0))

    def expectation(self, fn) -> Scalar:
        total = self.total_mass()
        if total != 1:
            raise ValueError("expectation is defined for probability measures")
        return sum(fn(c) * m for c, m in sorted(self._atoms.items()))

    def sample(self, rng: RandomStream) -> Config:
        if not self.is_probability():
            raise ValueError("sampling needs a normalized measure")
        r = rng.random()
        acc = 0.0
        items = sorted(self._atoms.items())
        for cfg, m in items:
            acc += float(m)
            if r < acc:
                return cfg
        return items[-1][0]

    def canonical_text(self) -> str:
        lines = [f"atomic window={self._window}"]
        for cfg, m in sorted(self._atoms.items()):
            bits = "".join(str(b) for b in cfg)
            lines.append(f"{bits} {m.numerator}/{m.denominator}")
        return "\n".join(lines)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, AtomicMeasure) and self._atoms == other._atoms

    def __repr__(self) -> str:
        return f"AtomicMeasure({len(self._atoms)} atoms, window={self._window})"


class ProductBernoulli:
    """Product measure with coordinate success probabilities strictly inside (0,1)."""

    def __init__(self, params: Sequence[Scalar]):
        ps = tuple(_as_exact(p) for p in params)
        for p in ps:
            if not (0 < p < 1):
                raise ValueError("Bernoulli parameters must lie strictly in (0,1)")
        if not ps:
            raise ValueError("at least one coordinate required")
        self.params = ps

    @property
    def window(self) -> int:
        return len(self.params)

    def mass(self, a: Cylinder) -> Scalar:
        out: Scalar = Fraction(1)
        for pos, bit in a.pins:
            if pos > self.window:
                raise ValueError("pinned position outside the window")
            p = self.params[pos - 1]
            out = out * (p if bit == 1 else (1 - p))
        return out

    def atom(self, x: Config) -> Scalar:
        out: Scalar = Fraction(1)
        for p, b in zip(self.params, x):
            out = out * (p if b == 1 else (1 - p))
        return out

    def rn_derivative(self, g: Permutation, x: Config) -> Scalar:
        """Closed-form mass ratio over moved coordinates only."""
        y = act(g, x)
        out: Scalar = Fraction(1)
        for i in g.support:
            p = self.params[i - 1]
            num = p if y[i - 1] == 1 else (1 - p)
            den = p if x[i - 1] == 1 else (1 - p)
            out = out * num / den
        return out

    def expectation_monomial(self, indices: Iterable[int]) -> Scalar:
        out: Scalar = Fraction(1)
        for i in indices:
            out = out * self.params[i - 1]
        return out

    @cached_property
    def _float_params(self) -> np.ndarray:
        # Converting exact parameters one by one dominates sampling at wide
        # windows, so it is done once per measure.
        return np.array([float(q) for q in self.params])

    @cached_property
    def _log_terms(self) -> tuple[float, np.ndarray]:
        p = self._float_params
        return np.sum(np.log1p(-p)), np.log(p) - np.log1p(-p)

    def sample_array(self, rng: RandomStream) -> np.ndarray:
        return (rng.random(self.window) < self._float_params).astype(np.uint8)

    def sample(self, rng: RandomStream) -> Config:
        return tuple(int(b) for b in self.sample_array(rng))

    def log_atom_rows(self, rows: np.ndarray) -> np.ndarray:
        """Vectorized log-mass for uint8 rows of shape (n, window)."""
        base, logit = self._log_terms
        return base + rows @ logit

    def log_atom(self, x: Config) -> float:
        return float(self.log_atom_rows(np.asarray(x, dtype=np.uint8).reshape(1, -1))[0])

    def canonical_text(self) -> str:
        parts = []
        for p in self.params:
            if isinstance(p, Fraction):
                parts.append(f"{p.numerator}/{p.denominator}")
            else:
                parts.append(repr(p))
        return "bernoulli " + " ".join(parts)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ProductBernoulli) and self.params == other.params

    def __repr__(self) -> str:
        return f"ProductBernoulli({[str(p) for p in self.params]})"


class Mixture:
    """Finite convex mixture of probability measures on one window."""

    def __init__(self, weights: Sequence[Scalar], components: Sequence):
        if len(weights) != len(components) or not components:
            raise ValueError("weights and components must have equal positive length")
        ws = tuple(_as_exact(w) for w in weights)
        if any(w <= 0 for w in ws):
            raise ValueError("mixture weights are strictly positive")
        total = sum(ws)
        if all(isinstance(w, Fraction) for w in ws):
            if total != 1:
                raise ValueError("weights must sum to 1 exactly")
        elif abs(float(total) - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1 within 1e-12")
        windows = {c.window for c in components}
        if len(windows) != 1:
            raise ValueError("components must share one window")
        self.weights = ws
        self.components = tuple(components)

    @property
    def window(self) -> int:
        return self.components[0].window

    def mass(self, a: Cylinder) -> Scalar:
        return sum(w * c.mass(a) for w, c in zip(self.weights, self.components))

    def atom(self, x: Config) -> Scalar:
        return sum(w * c.atom(x) for w, c in zip(self.weights, self.components))

    def expectation_monomial(self, indices: Iterable[int]) -> Scalar:
        idx = tuple(indices)
        return sum(
            w * expectation_monomial(c, idx)
            for w, c in zip(self.weights, self.components)
        )

    def log_atom(self, x: Config) -> float:
        logs = [
            math.log(float(w)) + c.log_atom(x)
            for w, c in zip(self.weights, self.components)
        ]
        top = max(logs)
        return top + math.log(sum(math.exp(v - top) for v in logs))

    def rn_derivative(self, g: Permutation, x: Config) -> Scalar:
        # Direct atom ratios underflow on wide windows; switch to log space.
        if self.window <= 256:
            den = self.atom(x)
            if den == 0:
                raise ZeroMassError(f"measure has zero mass at {x}")
            return self.atom(act(g, x)) / den
        return math.exp(self.log_atom(act(g, x)) - self.log_atom(x))

    def log_atom_rows(self, rows: np.ndarray) -> np.ndarray:
        comp = np.stack(
            [
                math.log(float(w)) + c.log_atom_rows(rows)
                for w, c in zip(self.weights, self.components)
            ]
        )
        top = comp.max(axis=0)
        return top + np.log(np.sum(np.exp(comp - top), axis=0))

    def sample_component(self, rng: RandomStream) -> int:
        r = rng.random()
        acc = 0.0
        for i, w in enumerate(self.weights):
            acc += float(w)
            if r < acc:
                return i
        return len(self.weights) - 1

    def sample_array(self, rng: RandomStream) -> np.ndarray:
        i = self.sample_component(rng)
        return self.components[i].sample_array(rng)

    def sample(self, rng: RandomStream) -> Config:
        return tuple(int(b) for b in self.sample_array(rng))

    def canonical_text(self) -> str:
        lines = ["mixture"]
        for w, c in zip(self.weights, self.components):
            ws = (
                f"{w.numerator}/{w.denominator}"
                if isinstance(w, Fraction)
                else repr(w)
            )
            lines.append(f"weight {ws}")
            lines.append("  " + c.canonical_text().replace("\n", "\n  "))
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"Mixture({len(self.components)} components)"


class BetaExchangeable:
    """Exchangeable window measure: p ~ Beta(alpha, beta), then iid Bernoulli(p).

    Integer shape parameters keep every cylinder mass an exact Pochhammer
    ratio, so exact-arithmetic checks apply to this family too.
    """

    def __init__(self, alpha: int, beta: int, window: int):
        if alpha < 1 or beta < 1:
            raise ValueError("integer shape parameters >= 1 required")
        if window < 1:
            raise ValueError("window must be positive")
        self.alpha = int(alpha)
        self.beta = int(beta)
        self._window = int(window)

    @property
    def window(self) -> int:
        return self._window

    def _count_mass(self, a_ones: int, b_zeros: int) -> Fraction:
        num = Fraction(1)
        for j in range(a_ones):
            num *= Fraction(self.alpha + j)
        for j in range(b_zeros):
            num *= Fraction(self.beta + j)
        den = Fraction(1)
        for j in range(a_ones + b_zeros):
            den *= Fraction(self.alpha + self.beta + j)
        return num / den

    def mass(self, a: Cylinder) -> Fraction:
        return self._count_mass(len(a.pinned_ones()), len(a.pinned_zeros()))

    def atom(self, x: Config) -> Fraction:
        k = sum(x)
        return self._count_mass(k, len(x) - k)

    def expectation_monomial(self, indices: Iterable[int]) -> Fraction:
        return self._count_mass(len(tuple(indices)), 0)

    def rn_derivative(self, g: Permutation, x: Config) -> Fraction:
        # Exchangeable: atom mass depends only on the ones count, which
        # permutations preserve, so the ratio is exactly 1.
        y = act(g, x)
        if sum(y) == sum(x):
            return Fraction(1)
        return self.atom(y) / self.atom(x)

    def log_atom(self, x: Config) -> float:
        from math import lgamma

        k = sum(x)
        n = len(x)
        a, b = self.alpha, self.beta
        return (
            lgamma(a + k)
            + lgamma(b + n - k)
            + lgamma(a + b)
            - lgamma(a)
            - lgamma(b)
            - lgamma(a + b + n)
        )

    def sample_array(self, rng: RandomStream) -> np.ndarray:
        p = rng.beta(self.alpha, self.beta)
        return (rng.random(self._window) < p).astype(np.uint8)

    def sample(self, rng: RandomStream) -> Config:
        return tuple(int(b) for b in self.sample_array(rng))

    def canonical_text(self) -> str:
        return f"beta-exchangeable alpha={self.alpha} beta={self.beta} window={self._window}"

    def __repr__(self) -> str:
        return f"BetaExchangeable({self.alpha}, {self.beta}, window={self._window})"


class OrbitSigmaFinite:
    """Sigma-finite invariant measure built from per-orbit counting measures.

    Orbit label k is the number of ones. ``scale=None`` models the idealized
    space of finitely supported sequences, where orbit 0 is a single point and
    every orbit k >= 1 is countably infinite; ``scale=N`` restricts to the
    window {0,1}^N, where orbit k holds C(N,k) points. Infinite totals are
    kept symbolic (math.inf); the per-atom bookkeeping stays exact.
    """

    def __init__(self, orbit_weights: Mapping[int, Scalar], scale: int | None = None):
        store: dict[int, Fraction] = {}
        for k, c in orbit_weights.items():
            if k < 0:
                raise ValueError("orbit labels are nonnegative")
            if scale is not None and k > scale:
                raise ValueError("orbit label exceeds the window")
            w = Fraction(c)
            if w < 0:
                raise ValueError("orbit weights are nonnegative")
            if w > 0:
                store[int(k)] = w
        self.orbit_weights = store
        self.scale = scale

    @property
    def labels(self) -> frozenset[int]:
        return frozenset(self.orbit_weights)

    def weight(self, k: int) -> Fraction:
        return self.orbit_weights.get(k, Fraction(0))

    def orbit_cardinality(self, k: int):
        if self.scale is None:
            return 1 if k == 0 else INFINITE
        return comb(self.scale, k)

    def _cylinder_count(self, k: int, a: Cylinder):
        """How many orbit-k configurations satisfy the cylinder constraints."""
        need = len(a.pinned_ones())
        if k < need:
            return 0
        rest = k - need
        if self.scale is None:
            # rest extra ones go anywhere in an infinite index set
            return 1 if rest == 0 else INFINITE
        free = self.scale - a.depth
        if rest > free:
            return 0
        return comb(free, rest)

    def mass(self, a: Cylinder):
        total: Scalar = Fraction(0)
        for k, c in self.orbit_weights.items():
            n = self._cylinder_count(k, a)
            if n is INFINITE or n == INFINITE:
                return INFINITE
            total += c * n
        return total

    def total_mass(self):
        return self.mass(Cylinder.whole_space())

    def scaled(self, factor: Scalar) -> "OrbitSigmaFinite":
        f = Fraction(factor)
        if f <= 0:
            raise ValueError("scale factor must be positive")
        return OrbitSigmaFinite(
            {k: c * f for k, c in self.orbit_weights.items()}, self.scale
        )

    def restricted(self, labels: Iterable[int]) -> "OrbitSigmaFinite":
        keep = set(labels)
        return OrbitSigmaFinite(
            {k: c for k, c in self.orbit_weights.items() if k in keep}, self.scale
        )

    def canonical_text(self) -> str:
        scale = "inf" if self.scale is None else str(self.scale)
        lines = [f"orbit-sigma-finite scale={scale}"]
        for k in sorted(self.orbit_weights):
            c = self.orbit_weights[k]
            lines.append(f"orbit {k} {c.numerator}/{c.denominator}")
        return "\n".join(lines)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, OrbitSigmaFinite)
            and self.orbit_weights == other.orbit_weights
            and self.scale == other.scale
        )

    def __repr__(self) -> str:
        return f"OrbitSigmaFinite({dict(sorted(self.orbit_weights.items()))}, scale={self.scale})"


Measure = Union[AtomicMeasure, ProductBernoulli, Mixture, BetaExchangeable, OrbitSigmaFinite]


def mass(mu: Measure, a: Cylinder):
    """Mass of a cylinder set; may be symbolically infinite."""
    return mu.mass(a)


def rn_derivative(nu, g: Permutation, x: Config) -> Scalar:
    """Atom-mass ratio nu(act(g,x)) / nu(x).

    On the window model this realizes the Radon-Nikodym cocycle of a
    quasi-invariant measure.
    """
    special = getattr(nu, "rn_derivative", None)
    if special is not None:
        return special(g, x)
    den = nu.atom(x)
    if den == 0:
        raise ZeroMassError(f"measure has zero mass at {x}")
    return nu.atom(act(g, x)) / den


def sample(nu, rng: RandomStream) -> Config:
    """Unbiased draw from a normalized measure; deterministic per stream."""
    return nu.sample(rng)


def jordan_decompose(nu1: AtomicMeasure, nu2: AtomicMeasure):
    """Split nu1 = ac + singular with ac << nu2 and singular _|_ nu2, atomwise.

    Either part may be the zero measure on nu1's window.
    """
    supp2 = nu2.support
    ac = {c: m for c, m in nu1.atoms.items() if c in supp2}
    sing = {c: m for c, m in nu1.atoms.items() if c not in supp2}
    return (
        AtomicMeasure(ac, window=nu1.window),
        AtomicMeasure(sing, window=nu1.window),
    )


def ac_check(nu1, nu2) -> str:
    """Exact classification: absolutely-continuous, mutually-singular, or neither."""
    if isinstance(nu1, AtomicMeasure) and isinstance(nu2, AtomicMeasure):
        s1, s2 = nu1.support, nu2.support
    elif isinstance(nu1, OrbitSigmaFinite) and isinstance(nu2, OrbitSigmaFinite):
        s1, s2 = nu1.labels, nu2.labels
    else:
        raise TypeError("ac_check compares two atomic or two orbit measures")
    if s1 <= s2:
        return "absolutely-continuous"
    if not (s1 & s2):
        return "mutually-singular"
    return "neither"


def canonical_text(mu: Measure) -> str:
    """Stable text form used by golden-file tests."""
    return mu.canonical_text()


def expectation_monomial(mu, indices: Iterable[int]):
    """Exact integral of the cylinder monomial prod_{i in indices} x_i."""
    idx = tuple(indices)
    special = getattr(mu, "expectation_monomial", None)
    if special is not None:
        return special(idx)
    return mu.expectation(lambda c: math.prod(c[i - 1] for i in idx))
