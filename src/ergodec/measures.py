"""Measures on binary configuration spaces.

Five families cover the experiments: exact atomic measures (rational masses),
product Bernoulli measures, finite convex mixtures, a Beta-mixed exchangeable
family, and sigma-finite orbit-counting measures on the idealized space of
finitely supported 0/1 sequences. Identities are checked in exact rational arithmetic wherever the
inputs are rational; float parameters and weights give float masses.

``mass`` of a cylinder is the one integral of every measure: the integral of
a monomial prod x_i is the mass of the cylinder pinning those coordinates to
1 (``expectation_monomial``).

Cylinder sets (finitely many pinned coordinates) are the only general set
representation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import comb
from typing import Iterable, Mapping, Sequence, Union

import numpy as np

from .errors import ZeroMassError
from .groups import Config, Permutation, act, row_ratio, validate_config
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

    def check_within(self, window: int) -> None:
        """ValueError unless every pinned position lies in 1..window."""
        if self.pins and self.pins[-1][0] > window:
            raise ValueError("pinned position outside the window")

    def pinned_ones(self) -> frozenset[int]:
        return frozenset(p for p, b in self.pins if b == 1)

    def pinned_zeros(self) -> frozenset[int]:
        return frozenset(p for p, b in self.pins if b == 0)


@dataclass(eq=False)
class LogLinearParts:
    """A potential whose mixture components are log-linear in x:

        log u(x) = logsumexp over c of (const[c] + logit[c] . x).

    For a product Bernoulli component, logit[c, i] = log(p_ci / (1 - p_ci))
    and const[c] = log w_c + sum_i log(1 - p_ci). ``tables`` memoises, per
    key set and levels, what ``averaging.product_levels`` needs of each
    level apart from the points (``averaging._level_plans``: the
    elementary-symmetric tables, subset masks and key subsets); ``tilts``
    its Newton tilts per level and ones count (``averaging._solve_tilts``);
    and ``moments`` its slack moments per (level, previous level, held
    coordinates), each an ``averaging.CountMoments`` table with one packed
    row per ones count met (``averaging._count_moments``). They depend on
    the measure, the keys and the levels, never on the point.
    """

    const: np.ndarray  # (components,)
    logit: np.ndarray  # (components, window)
    tables: dict = field(default_factory=dict, repr=False)
    tilts: dict = field(default_factory=dict, repr=False)
    moments: dict = field(default_factory=dict, repr=False)


def _bits(x) -> np.ndarray:
    """A configuration as a uint8 array. For a tuple of 0/1 ints this goes
    through ``bytes``, one C loop, several times faster than ``np.asarray``
    on the tuple at wide windows."""
    if isinstance(x, np.ndarray):
        return x.astype(np.uint8, copy=False)
    return np.frombuffer(bytes(x), dtype=np.uint8)


# Uniform blocks of ``_uniform_blocks`` hold at most about this many floats
# (128 KB), so sampling memory does not grow with the number of rows. Blocks
# of 1 MB drew 512 rows of window 4096 at about half the speed (2 vCPU).
_SAMPLE_FLOATS = 1 << 14


def _uniform_blocks(rng: RandomStream, size: int, width: int):
    """``(start, block)`` pairs covering ``size`` rows of ``width`` uniforms
    each, drawn in row order in blocks of at least one row, so the uniforms
    of a row do not depend on the blocks."""
    chunk = max(1, _SAMPLE_FLOATS // width)
    for lo in range(0, size, chunk):
        yield lo, rng.random((min(chunk, size - lo), width))


def _rows_one_by_one(draw, rng: RandomStream, size: int, window: int) -> np.ndarray:
    """``size`` rows of ``draw(rng)``, one after another from the stream."""
    rows = np.empty((size, window), dtype=np.uint8)
    for r in range(size):
        rows[r] = draw(rng)
    return rows


def _as_exact(v: Scalar) -> Scalar:
    if type(v) is float:  # the common case, without the ABC check of Fraction
        return v
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

    def mass(self, a: Cylinder) -> Fraction:
        a.check_within(self._window)
        return sum((m for c, m in self._atoms.items() if a.matches(c)), Fraction(0))

    @cached_property
    def _sampler(self) -> tuple[np.ndarray, np.ndarray]:
        # the sorted atoms as uint8 rows and their running float masses (a
        # sequential cumsum), built once: the atoms never change
        if not self.is_probability():
            raise ValueError("sampling needs a normalized measure")
        items = sorted(self._atoms.items())
        rows = np.array([cfg for cfg, _ in items], dtype=np.uint8).reshape(len(items), -1)
        return rows, np.cumsum([float(m) for _, m in items])

    def sample_rows(self, rng: RandomStream, size: int) -> np.ndarray:
        """``size`` draws as uint8 rows: one uniform per row, in row order,
        picks the first atom whose running mass exceeds it, else the last."""
        rows, cum = self._sampler
        return rows[np.minimum(cum.searchsorted(rng.random(size), "right"), len(rows) - 1)]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, AtomicMeasure) and self._atoms == other._atoms

    def __repr__(self) -> str:
        return f"AtomicMeasure({len(self._atoms)} atoms, window={self._window})"


class ProductBernoulli:
    """Product measure with coordinate success probabilities strictly inside (0,1)."""

    def __init__(self, params: Sequence[Scalar]):
        ps = tuple(params)
        all_float = set(map(type, ps)) == {float}
        if not all_float:  # floats are kept as they are
            ps = tuple(map(_as_exact, ps))
        # [p] * window repeats one object, which count finds by identity
        distinct = {ps[0]} if ps and ps.count(ps[0]) == len(ps) else set(ps)
        for p in distinct:
            if not (0 < p < 1):
                raise ValueError("Bernoulli parameters must lie strictly in (0,1)")
        if not ps:
            raise ValueError("at least one coordinate required")
        self.params = ps
        self.exchangeable = len(distinct) == 1
        self._all_float = all_float

    @classmethod
    def homogeneous(cls, p: Scalar, window: int) -> "ProductBernoulli":
        """``ProductBernoulli([p] * window)``, the same state built without
        scanning the window: p is checked once, and ``params`` repeats it."""
        q = _as_exact(p)
        if not (0 < q < 1):
            raise ValueError("Bernoulli parameters must lie strictly in (0,1)")
        if window < 1:
            raise ValueError("at least one coordinate required")
        product = cls.__new__(cls)
        product.params = (q,) * window
        product.exchangeable = True
        product._all_float = type(q) is float
        return product

    @property
    def window(self) -> int:
        return len(self.params)

    def mass(self, a: Cylinder) -> Scalar:
        # Fraction(1) * p is the float 1.0 * p, so float parameters start
        # from 1.0 and skip Fraction's mixed-type operator; the empty
        # cylinder keeps its exact 1
        a.check_within(self.window)
        out: Scalar = 1.0 if a.pins and self._all_float else Fraction(1)
        for pos, bit in a.pins:
            p = self.params[pos - 1]
            out = out * (p if bit == 1 else (1 - p))
        return out

    @cached_property
    def _rational(self) -> bool:
        return all(type(p) is Fraction for p in self.params)

    @cached_property
    def _factors(self) -> tuple[tuple[int, int], ...]:
        # per coordinate p = a/b, the numerators of 1 - p and p over b:
        # (b - a, a), indexed by the bit
        return tuple((p.denominator - p.numerator, p.numerator) for p in self.params)

    @cached_property
    def _denominator(self) -> int:
        # the product of the b's, the same for every configuration
        return math.prod(p.denominator for p in self.params)

    def atom(self, x: Config) -> Scalar:
        """Product of p or 1 - p over the window. With rational parameters
        p = a/b, one integer product of ``_factors`` (a or b - a) over the
        product of the b's, a single Fraction; otherwise the factors are
        multiplied in turn."""
        if self._rational:
            return Fraction(math.prod(f[bit] for f, bit in zip(self._factors, x)),
                            self._denominator)
        out: Scalar = Fraction(1)
        for p, b in zip(self.params, x):
            out = out * (p if b == 1 else (1 - p))
        return out

    @property
    def ratio_rows(self):
        """The exact row kernel of ``rn_derivative`` (``Cocycle.ratio_rows``)
        when every parameter is rational, else None."""
        return self._ratio_rows if self._rational else None

    @cached_property
    def _factor_table(self) -> np.ndarray:
        # ``_factors`` as an object array indexed [coordinate - 1, bit]: its
        # products are Python ints, which never wrap
        return np.array(self._factors, dtype=object)

    def _ratio_rows(self, g_rows: np.ndarray, x_rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """nu(act(g, x)) / nu(x) for rational parameters, per row pair, as
        Python-int numerators and denominators in object arrays. g_rows holds
        one-line images of S(level), one row each, and x_rows 0/1 rows of at
        least level coordinates. With p = a/b each factor is (a or b - a)
        over b, and the b's cancel: the bit x_j lands at g(j), so the
        numerator is the product over j <= level of ``_factors[g(j) - 1][x_j]``
        and the denominator that of ``_factors[j - 1][x_j]``; a fixed j gives
        both the same factor, and g x is never built."""
        level = g_rows.shape[1]
        bits = x_rows[:, :level]
        table = self._factor_table
        num = table[g_rows - 1, bits].prod(axis=1)
        den = table[np.arange(level), bits].prod(axis=1)
        return num, den

    def rn_derivative(self, g: Permutation, x: Config) -> Scalar:
        """Closed-form mass ratio over the coordinates g moves.

        With rational parameters, the row kernel ``ratio_rows`` at the one
        pair (g, x) (``groups.row_ratio``), a single Fraction;
        DegreeOverflowError, as from ``act``, past the window. Otherwise the
        float factors of the moved coordinates are multiplied in turn.
        """
        if self._rational:
            return row_ratio(self._ratio_rows, g, x)
        y = act(g, x)
        moved = [(i, self.params[i - 1]) for i in g.support]
        out: Scalar = Fraction(1)
        for i, p in moved:
            num = p if y[i - 1] == 1 else (1 - p)
            den = p if x[i - 1] == 1 else (1 - p)
            out = out * num / den
        return out

    @cached_property
    def _float_params(self) -> np.ndarray:
        # Converting parameters dominates sampling at wide windows, so it is
        # done once per measure: one value for a homogeneous product, else
        # one C pass that calls each parameter's __float__, as float(q) does.
        if self.exchangeable:
            return np.full(self.window, float(self.params[0]))
        return np.array(self.params, dtype=np.float64)

    @cached_property
    def _log_terms(self) -> tuple[float, np.ndarray]:
        p = self._float_params
        return np.sum(np.log1p(-p)), np.log(p) - np.log1p(-p)

    @cached_property
    def log_linear(self) -> LogLinearParts:
        base, logit = self._log_terms
        return LogLinearParts(np.array([base]), logit.reshape(1, -1))

    def sample_rows(self, rng: RandomStream, size: int) -> np.ndarray:
        """``size`` draws as uint8 rows: ``window`` uniforms per row, in row
        order, bit i set when its uniform is below p_i."""
        rows = np.empty((size, self.window), dtype=np.uint8)
        for lo, u in _uniform_blocks(rng, size, self.window):
            rows[lo : lo + len(u)] = u < self._float_params
        return rows

    # Not a sampler of its own: ``bench/tracing.py`` binds this method as its
    # "sample" layer, and nothing in the package calls it. ROADMAP item 5
    # replaces that tracer and removes both.
    def sample_array(self, rng: RandomStream) -> np.ndarray:
        return self.sample_rows(rng, 1)[0]

    def directing_sample(self, rng: RandomStream, size: int) -> np.ndarray:
        """The de Finetti parameter of ``size`` points: the common parameter
        of an exchangeable product, drawing nothing; ValueError otherwise."""
        if not self.exchangeable:
            raise ValueError("only a homogeneous product has a directing parameter")
        return np.full(size, self._float_params[0])

    def log_atom_rows(self, rows: np.ndarray) -> np.ndarray:
        """Vectorized log-mass for 0/1 rows of shape (n, window), uint8 or float64."""
        base, logit = self._log_terms
        return base + rows @ logit

    def log_atom(self, x: Config) -> float:
        return float(self.log_atom_rows(_bits(x).reshape(1, -1))[0])

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

    @property
    def exchangeable(self) -> bool:
        return all(getattr(c, "exchangeable", False) for c in self.components)

    def mass(self, a: Cylinder) -> Scalar:
        return sum(w * c.mass(a) for w, c in zip(self.weights, self.components))

    def atom(self, x: Config) -> Scalar:
        return sum(w * c.atom(x) for w, c in zip(self.weights, self.components))

    def log_atom(self, x: Config) -> float:
        x = _bits(x)  # once for every component
        logs = [
            math.log(float(w)) + c.log_atom(x)
            for w, c in zip(self.weights, self.components)
        ]
        top = max(logs)
        return top + math.log(sum(math.exp(v - top) for v in logs))

    @cached_property
    def _rational(self) -> bool:
        # every weight a Fraction and every component's masses rational;
        # atomic and Beta components always have rational masses
        return (all(type(w) is Fraction for w in self.weights)
                and all(getattr(c, "_rational", True) for c in self.components))

    def rn_derivative(self, g: Permutation, x: Config) -> Scalar:
        # Float atom masses underflow on wide windows (two products with
        # p = 0.01 and 0.02 have mass 0.0 at all ones of window 200), so a
        # float weight or parameter takes log space; rational masses keep
        # the exact ratio at any window. An atomic component has no
        # log-mass (``assemble`` builds one from a point-mass component).
        if not self._rational and all(hasattr(c, "log_atom") for c in self.components):
            return math.exp(self.log_atom(act(g, x)) - self.log_atom(x))
        den = self.atom(x)
        if den == 0:
            raise ZeroMassError(f"measure has zero mass at {x}")
        return self.atom(act(g, x)) / den

    def log_atom_rows(self, rows: np.ndarray) -> np.ndarray:
        # numpy casts uint8 rows to float64 for each component's matrix
        # product anyway; casting once gives the same dgemv and the same bits.
        rows = np.asarray(rows, dtype=np.float64)
        comp = np.stack(
            [
                math.log(float(w)) + c.log_atom_rows(rows)
                for w, c in zip(self.weights, self.components)
            ]
        )
        top = comp.max(axis=0)
        return top + np.log(np.sum(np.exp(comp - top), axis=0))

    @cached_property
    def log_linear(self) -> LogLinearParts | None:
        """The components' log-linear parts, stacked; None unless every
        component has them (product Bernoulli, or a mixture of those)."""
        parts = [getattr(c, "log_linear", None) for c in self.components]
        if any(q is None for q in parts):
            return None
        const = np.concatenate(
            [math.log(float(w)) + q.const for w, q in zip(self.weights, parts)]
        )
        return LogLinearParts(const, np.concatenate([q.logit for q in parts]))

    @cached_property
    def _cumulative(self) -> np.ndarray:
        # running float weights, added in order (cumsum is sequential)
        return np.cumsum([float(w) for w in self.weights])

    def _component_of(self, r):
        """The component of uniform draw(s) r: the first whose running weight
        exceeds r, else the last."""
        return np.minimum(self._cumulative.searchsorted(r, "right"), len(self.weights) - 1)

    def sample_component(self, rng: RandomStream) -> int:
        return int(self._component_of(rng.random()))

    def directing_sample(self, rng: RandomStream, size: int) -> np.ndarray:
        """The de Finetti parameter of ``size`` points: one uniform per point
        picks its component by ``sample_component``'s rule, then each
        component, in order, draws the parameters of its points."""
        picks = self._component_of(rng.random(size))
        p = np.empty(size)
        for c, component in enumerate(self.components):
            mine = np.flatnonzero(picks == c)
            p[mine] = component.directing_sample(rng, mine.size)
        return p

    @cached_property
    def _product_params(self) -> np.ndarray | None:
        # (components, window) float parameters; None unless every component
        # is a product Bernoulli measure
        if not all(isinstance(c, ProductBernoulli) for c in self.components):
            return None
        return np.stack([c._float_params for c in self.components])

    def _sample_row(self, rng: RandomStream) -> np.ndarray:
        return self.components[self.sample_component(rng)].sample_rows(rng, 1)[0]

    def sample_rows(self, rng: RandomStream, size: int) -> np.ndarray:
        """``size`` draws as uint8 rows: per row, one uniform picks the
        component by ``sample_component``'s rule, then the component draws
        the row. For a mixture of products that is ``window + 1`` uniforms
        per row, in row order, drawn as blocks; any other mixture draws one
        row after another."""
        params = self._product_params
        if params is None:
            return _rows_one_by_one(self._sample_row, rng, size, self.window)
        rows = np.empty((size, self.window), dtype=np.uint8)
        for lo, u in _uniform_blocks(rng, size, self.window + 1):
            rows[lo : lo + len(u)] = u[:, 1:] < params[self._component_of(u[:, 0])]
        return rows

    def __repr__(self) -> str:
        return f"Mixture({len(self.components)} components)"


class BetaExchangeable:
    """Exchangeable window measure: p ~ Beta(alpha, beta), then iid Bernoulli(p).

    Integer shape parameters keep every cylinder mass an exact Pochhammer
    ratio, so exact-arithmetic checks apply to this family too.
    """

    exchangeable = True

    def __init__(self, alpha: int, beta: int, window: int):
        if alpha < 1 or beta < 1 or alpha != int(alpha) or beta != int(beta):
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
        a.check_within(self._window)
        return self._count_mass(len(a.pinned_ones()), len(a.pinned_zeros()))

    def atom(self, x: Config) -> Fraction:
        k = sum(x)
        return self._count_mass(k, len(x) - k)

    def rn_derivative(self, g: Permutation, x: Config) -> Fraction:
        # Exchangeable: atom mass depends only on the ones count, which
        # permutations preserve, so the ratio is exactly 1. ``act`` still
        # rejects a permutation of degree above the window.
        act(g, x)
        return Fraction(1)

    def log_atom(self, x: Config) -> float:
        from math import lgamma

        x = _bits(x)
        k = int(np.count_nonzero(x))
        n = x.shape[0]
        a, b = self.alpha, self.beta
        return (
            lgamma(a + k)
            + lgamma(b + n - k)
            + lgamma(a + b)
            - lgamma(a)
            - lgamma(b)
            - lgamma(a + b + n)
        )

    def _sample_row(self, rng: RandomStream) -> np.ndarray:
        p = rng.beta(self.alpha, self.beta)
        return rng.random(self._window) < p

    def sample_rows(self, rng: RandomStream, size: int) -> np.ndarray:
        """``size`` draws as uint8 rows, one after another: per row its
        Beta parameter, then ``window`` uniforms."""
        return _rows_one_by_one(self._sample_row, rng, size, self._window)

    def directing_sample(self, rng: RandomStream, size: int) -> np.ndarray:
        """The de Finetti parameter of ``size`` points, Beta(alpha, beta)."""
        return rng.beta(self.alpha, self.beta, size)

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
            w = c if type(c) is Fraction else Fraction(c)
            if w.numerator < 0:
                raise ValueError("orbit weights are nonnegative")
            if w.numerator:
                store[int(k)] = w
        self.orbit_weights = store
        self.scale = scale

    @property
    def labels(self) -> frozenset[int]:
        return frozenset(self.orbit_weights)

    def weight(self, k: int) -> Fraction:
        return self.orbit_weights.get(k, Fraction(0))

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
        """Exact mass of the cylinder; ValueError for a pin past a finite
        ``scale``, as for every windowed measure."""
        if self.scale is not None:
            a.check_within(self.scale)
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
        f = factor if type(factor) is Fraction else Fraction(factor)
        if f.numerator <= 0:
            raise ValueError("scale factor must be positive")
        return OrbitSigmaFinite(
            {k: c * f for k, c in self.orbit_weights.items()}, self.scale
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, OrbitSigmaFinite)
            and self.orbit_weights == other.orbit_weights
            and self.scale == other.scale
        )

    def __repr__(self) -> str:
        return f"OrbitSigmaFinite({dict(sorted(self.orbit_weights.items()))}, scale={self.scale})"


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


def support_relation(s1: frozenset, s2: frozenset) -> str:
    """How a measure supported on s1 relates to one supported on s2: a
    subset is absolutely continuous, a disjoint set mutually singular."""
    if s1 <= s2:
        return "absolutely-continuous"
    if not (s1 & s2):
        return "mutually-singular"
    return "neither"


def ac_check(nu1, nu2) -> str:
    """Exact classification: absolutely-continuous, mutually-singular, or neither."""
    if isinstance(nu1, AtomicMeasure) and isinstance(nu2, AtomicMeasure):
        return support_relation(nu1.support, nu2.support)
    if isinstance(nu1, OrbitSigmaFinite) and isinstance(nu2, OrbitSigmaFinite):
        return support_relation(nu1.labels, nu2.labels)
    raise TypeError("ac_check compares two atomic or two orbit measures")


def expectation_monomial(mu, indices: Iterable[int]):
    """Integral of the monomial prod_{i in indices} x_i: the mass of the
    cylinder pinning each index to 1 (x_i x_i = x_i, so a repeated index
    counts once). ValueError for an index below 1 or past the window."""
    return mu.mass(Cylinder.of(dict.fromkeys(indices, 1)))
