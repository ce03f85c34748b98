"""Sigma-finite invariant measures: weight normalization, projective classes,
per-orbit decomposition, and orbital measures (exact atomic measures up to
S(8); above it the exact closed-form cylinder masses of
``orbital_dichotomy``).

The desk model is the orbit-counting measure on finitely supported 0/1
sequences: orbit k (configurations with k ones) carries counting measure with
weight c_k. Multiplying by a summable positive weight f and normalizing turns
such a measure into a probability measure whose cocycle is the f-ratio; the
ergodic components are the per-orbit counting measures, and everything is a
closed-form rational computation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Mapping, Sequence

import numpy as np

from .averaging import EXACT_LEVEL_CAP, checked_schedule, level_table
from .cocycles import constant_one
from .dictionary import CylinderMonomial, TestDictionary
from .errors import CapacityError, DivergentIntegralError
from .groups import Config, level_orbit
from .measures import AtomicMeasure, OrbitSigmaFinite, INFINITE, support_relation


@dataclass(frozen=True)
class GeometricWeight:
    """f(x) = prod over ones positions i of base^(-i) = base^(-s), s the sum
    of the ones positions: strictly positive, summable over every orbit, and
    fibrewise continuous on finite levels. Its weight ratio has the closed
    form f(act(g, x)) / f(x) = base^d, d = sum over j moved by g of
    (j - g(j)) x_j, evaluated on whole batches of (g, x) rows by the exact
    row kernel ``ratio_rows``; ``make_rho_f`` evaluates one pair through
    the same kernel."""

    base: int

    def __post_init__(self):
        if self.base < 2:
            raise ValueError("base must be >= 2 for orbit summability")

    def __call__(self, x) -> Fraction:
        # x is a 0/1 configuration or the set of its ones positions
        ones = x if isinstance(x, (frozenset, set)) else (i + 1 for i, b in enumerate(x) if b)
        return Fraction(1, self.base ** sum(ones))

    def ratio_rows(self, g_rows: np.ndarray, x_rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """f(act(g, x)) / f(x) per row pair, as Python-int numerators and
        denominators in object arrays: base^d over 1, or 1 over base^-d,
        d = sum over j <= level of (j - g(j)) x_j. g_rows holds one-line
        images of S(level), one row each, and x_rows 0/1 rows of at least
        level coordinates. |d| <= level^2, so d is exact in int64; each
        distinct d takes one integer power."""
        level = g_rows.shape[1]
        shift = np.arange(1, level + 1) - g_rows
        d = (shift * x_rows[:, :level]).sum(axis=1)
        exponents, at = np.unique(d, return_inverse=True)
        powers = np.array([self.base ** abs(e) for e in exponents.tolist()], dtype=object)
        num = np.where(exponents >= 0, powers, 1)[at]
        den = np.where(exponents < 0, powers, 1)[at]
        return num, den

    def log_rows(self, rows: np.ndarray) -> np.ndarray:
        """Vectorized log f of 0/1 rows of shape (n, window), uint8 or float64:
        -log(base) times the sum of each row's ones positions. f itself
        underflows a double once that sum passes about 1074 / log2(base)."""
        positions = np.arange(1, rows.shape[1] + 1, dtype=np.float64)
        return -math.log(self.base) * (rows @ positions)

    @lru_cache(maxsize=256)
    def orbit_mass(self, k: int, window: int | None = None) -> Fraction:
        """Exact sum of f over the orbit with k ones: the Gaussian binomial
        q^(k(k+1)/2) prod_{j=1..k} (1 - q^(window-k+j)) / (1 - q^j), q = 1/base.
        On the idealized scale (window None) the numerator factors are 1; on
        a window smaller than k one of them is 0. The last 256 (weight, k,
        window) are memoised: a run asks for the same few orbits many times.
        """
        if k < 0:
            raise ValueError("orbit labels are nonnegative")
        q = Fraction(1, self.base)
        mass = q ** (k * (k + 1) // 2)
        for j in range(1, k + 1):
            top = 1 if window is None else 1 - q ** (window - k + j)
            mass *= top / (1 - q**j)
        return mass


@dataclass(frozen=True)
class ConstantWeight:
    """f equal to a positive constant; divergent on infinite orbits."""

    value: Fraction = Fraction(1)

    @property
    def exchangeable(self) -> bool:
        return self.value > 0

    def __call__(self, x) -> Fraction:
        return Fraction(self.value)

    def orbit_mass(self, k: int, window: int | None = None):
        if window is None:
            return Fraction(self.value) if k == 0 else INFINITE
        return Fraction(self.value) * comb(window, k)


def make_fibrewise_f(base: int = 4) -> GeometricWeight:
    """Canonical positive integrable weight; base 4 keeps every orbit series
    convergent with margin."""
    return GeometricWeight(base)


@dataclass(frozen=True)
class FOrbitProbability:
    """Probability measure with per-orbit density proportional to f.

    The atom at a configuration x in orbit k has mass
    orbit_probs[k] * f(x) / orbit_mass(k).
    """

    orbit_probs: Mapping[int, Fraction]
    f: GeometricWeight
    scale: int | None = None

    def __post_init__(self):
        total = sum(self.orbit_probs.values(), Fraction(0))
        if total != 1:
            raise ValueError("orbit probabilities must sum to 1 exactly")
        if any(w <= 0 for w in self.orbit_probs.values()):
            raise ValueError("orbit probabilities are strictly positive")

    def atom_mass(self, x) -> Fraction:
        if isinstance(x, (frozenset, set)):
            k = len(x)
        else:
            k = sum(x)
        w = self.orbit_probs.get(k)
        if w is None:
            return Fraction(0)
        return w * self.f(x) / self.f.orbit_mass(k, self.scale)


@dataclass(frozen=True)
class ProjectiveClass:
    """A measure up to positive scaling."""

    representative: object  # OrbitSigmaFinite or AtomicMeasure

    def same_class(self, other: "ProjectiveClass") -> bool:
        """Both representatives are of one kind (orbit models on one scale)
        and their positive masses, orbit weights or atoms, sit on the same
        keys with one common ratio."""
        a, b = self.representative, other.representative
        if type(a) is not type(b) or getattr(a, "scale", None) != getattr(b, "scale", None):
            return False
        ma, mb = (r.orbit_weights if isinstance(r, OrbitSigmaFinite) else r.atoms for r in (a, b))
        return ma.keys() == mb.keys() and len({ma[k] / mb[k] for k in ma}) <= 1


@dataclass(frozen=True)
class MeasureClassDescriptor:
    """Support of an atomic decomposing measure over projective classes."""

    labels: frozenset[int]

    def relation(self, other: "MeasureClassDescriptor") -> str:
        return support_relation(self.labels, other.labels)


def _orbit_masses(nu: OrbitSigmaFinite, f) -> dict[int, Fraction]:
    masses = {}
    for k in nu.labels:
        m = f.orbit_mass(k, nu.scale)
        if m == INFINITE:
            raise DivergentIntegralError(
                f"weight integral diverges on orbit {k}"
            )
        masses[k] = m
    return masses


def f_integral(nu: OrbitSigmaFinite, f) -> Fraction:
    """nu(f) = sum_k c_k * (f-mass of orbit k), exact."""
    masses = _orbit_masses(nu, f)
    return sum((nu.weight(k) * masses[k] for k in nu.labels), Fraction(0))


def p_f(nu, f):
    """Normalization nu -> f*nu / nu(f); exact on atomic and orbit models."""
    if isinstance(nu, AtomicMeasure):
        weighted = {x: m * f(x) for x, m in nu.atoms.items()}
        total = sum(weighted.values(), Fraction(0))
        if total == 0:
            raise DivergentIntegralError("weight integral vanishes")
        return AtomicMeasure({x: m / total for x, m in weighted.items()})
    if isinstance(nu, OrbitSigmaFinite):
        probs = decompose_sigma_finite(nu, f).weights
        return FOrbitProbability(orbit_probs=probs, f=f, scale=nu.scale)
    raise TypeError("p_f applies to atomic or orbit sigma-finite measures")


def inv_p_f(mu, f) -> ProjectiveClass:
    """Projective class of mu / f; inverts p_f up to positive scaling."""
    if isinstance(mu, AtomicMeasure):
        rep = AtomicMeasure({x: m / f(x) for x, m in mu.atoms.items()})
        return ProjectiveClass(representative=rep)
    if isinstance(mu, FOrbitProbability):
        if mu.f != f:
            raise ValueError("dividing by a different weight than the density's")
        masses = {k: f.orbit_mass(k, mu.scale) for k in mu.orbit_probs}
        rep = OrbitSigmaFinite(
            {k: w / masses[k] for k, w in mu.orbit_probs.items()}, mu.scale
        )
        return ProjectiveClass(representative=rep)
    raise TypeError("inv_p_f applies to atomic or f-density orbit measures")


@dataclass(frozen=True)
class SigmaFiniteDecomposition:
    """Ergodic decomposition of an orbit model into per-orbit counting
    measures, each normalized to unit f-integral."""

    components: dict[int, OrbitSigmaFinite]
    weights: dict[int, Fraction]
    f: object
    scale: int | None
    f_mass: Fraction  # nu(f) of the original measure, before rescaling

    @property
    def descriptor(self) -> MeasureClassDescriptor:
        return MeasureClassDescriptor(labels=frozenset(self.weights))

    def barycenter(self) -> OrbitSigmaFinite:
        acc: dict[int, Fraction] = {}
        for k, w in self.weights.items():
            for kk, c in self.components[k].orbit_weights.items():
                acc[kk] = acc[kk] + w * c if kk in acc else w * c
        return OrbitSigmaFinite(acc, self.scale)


def decompose_sigma_finite(nu: OrbitSigmaFinite, f) -> SigmaFiniteDecomposition:
    """Split an invariant orbit measure into per-orbit ergodic components.

    The input is first rescaled to nu(f) = 1; component k is the orbit-k
    counting measure scaled to unit f-integral, and its weight is
    c_k * (orbit f-mass) / nu(f). Exact throughout.
    """
    masses = _orbit_masses(nu, f)
    weighted = {k: nu.weight(k) * masses[k] for k in nu.labels}
    total = sum(weighted.values(), Fraction(0))  # f_integral(nu, f)
    if total == 0:
        raise DivergentIntegralError("weight integral vanishes")
    components = {
        k: OrbitSigmaFinite({k: 1 / masses[k]}, nu.scale) for k in nu.labels
    }
    weights = {k: w / total for k, w in weighted.items()}
    return SigmaFiniteDecomposition(
        components=components, weights=weights, f=f, scale=nu.scale, f_mass=total
    )


def reweight_decomposition(
    dec: SigmaFiniteDecomposition, phi: Mapping[int, Fraction]
) -> SigmaFiniteDecomposition:
    """Deform components by eta -> eta / phi and weights by w -> phi * w.

    The barycenter is unchanged atomwise and the projective support is
    untouched, so the measure-class descriptor is invariant.
    """
    factors = {k: Fraction(phi[k]) for k in dec.weights}
    if any(v <= 0 for v in factors.values()):
        raise ValueError("reweighting factors are strictly positive")
    components = {
        k: comp.scaled(Fraction(factors[k].denominator, factors[k].numerator))
        for k, comp in dec.components.items()
    }
    weights = {k: w * factors[k] for k, w in dec.weights.items()}
    return SigmaFiniteDecomposition(
        components=components,
        weights=weights,
        f=dec.f,
        scale=dec.scale,
        f_mass=dec.f_mass,
    )


def pcl(nu: OrbitSigmaFinite, f) -> MeasureClassDescriptor:
    """Measure-class descriptor of the decomposing measure over projective
    classes: the set of orbit labels carrying positive weight."""
    _orbit_masses(nu, f)  # enforce the same summability precondition
    return MeasureClassDescriptor(labels=nu.labels)


def orbital_measure(x: Config, level: int) -> AtomicMeasure:
    """Uniform average of point masses over the level orbit of x, as an exact
    atomic measure; CapacityError above S(8). Above that, the exact cylinder
    masses of the orbital measure are level averages of cylinder monomials
    under the constant cocycle, which ``orbital_dichotomy`` tracks."""
    if level < 1 or level > len(x):
        raise ValueError("level must be within the window")
    if level > EXACT_LEVEL_CAP:
        raise CapacityError(f"exact orbital measures are capped at level {EXACT_LEVEL_CAP}")
    orbit = list(level_orbit(x, level))
    share = Fraction(1, len(orbit))
    return AtomicMeasure({y: share for y in orbit})


@dataclass(frozen=True)
class DichotomyReport:
    verdict: str  # "converges-to-probability" | "escapes-mass" | "inconclusive"
    series: dict[tuple[int, ...], tuple[tuple[int, float, float], ...]]
    finals: dict[tuple[int, ...], float]
    decay_threshold: float


def orbital_dichotomy(
    x: Config,
    schedule: Sequence[int],
    battery: Sequence[CylinderMonomial] | None = None,
    decay_threshold: float = 0.01,
) -> DichotomyReport:
    """Track orbital-measure integrals of a battery of cylinder functions.

    Every level is the exact closed form of ``averaging.closed_form_levels``
    (the series carry stderr 0), so the scan makes no random draws. A series
    is Cauchy when ``LevelTable.converged`` holds with tolerance 1e-3, the
    limit rule of ``pi_phi``: its last step moves by less than 1e-3 plus the
    slack, 3 ``level_gap_sd`` when the step ends above S(8) and 0 otherwise,
    and a one-level schedule is Cauchy only at or below S(8), where the
    level's stderr is 0. A step rises only beyond the same slack. Declares
    mass escape when every tracked value ends below the threshold and no
    step rises; convergence when every series is Cauchy with some value
    staying above the threshold; otherwise reports inconclusive.
    """
    sched = checked_schedule(schedule, len(x))
    mons = tuple(battery) if battery is not None else TestDictionary.build(2, 2).nonconstant()
    bits = np.asarray(x, dtype=np.uint8)[None, :]
    table = level_table(bits, constant_one(), sched, [m.indices for m in mons])
    values, slacks = table.values[:, 0].tolist(), table.slacks[:, 0].tolist()

    series = {
        m.indices: tuple((n, lv[j], 0.0) for n, lv in zip(sched, values))
        for j, m in enumerate(mons)
    }
    finals = {k: s[-1][1] for k, s in series.items()}
    all_cauchy = bool(table.converged(1e-3).all())
    all_decaying = all(
        values[i][j] <= values[i - 1][j] + slacks[i][j]
        for i in range(1, len(sched))
        for j in range(len(mons))
    )
    if all(v <= decay_threshold for v in finals.values()) and all_decaying:
        verdict = "escapes-mass"
    elif all_cauchy:
        verdict = "converges-to-probability"
    else:
        verdict = "inconclusive"
    return DichotomyReport(
        verdict=verdict,
        series=series,
        finals=finals,
        decay_threshold=decay_threshold,
    )
