"""Positive multiplicative cocycles rho(g, x) over the permutation action.

Every cocycle is potential-backed, i.e. of the form
rho(g, x) = u(act(g, x)) / u(x) for a strictly positive function u. That
structure guarantees the multiplicative identity exactly and enables
orbit-collapsed exact averaging. For an argument that declares itself
exchangeable, rho is identically 1 and ``make_rn`` and ``make_rho_f`` return
``constant_one()``.

Constructors avoid closures, so cocycles pickle cleanly.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, Optional

import numpy as np

from .groups import Config, Permutation, act, act_rows, row_ratio
from .measures import LogLinearParts, rn_derivative
from .rng import RandomStream


@dataclass
class Cocycle:
    """Evaluable positive weight rho(g, x) = u(act(g, x)) / u(x).

    ``potential`` is the positive function u, and a required field: at every
    level S(n) a positive cocycle is trivial on stabilizers and a ratio of a
    potential on each orbit, so requiring u loses no cocycle, and the exact
    and Monte Carlo level engines read u rather than ``eval_fn``.
    ``eval_fn`` may evaluate the ratio in closed form: ``make_rn`` takes a
    measure's bound ``rn_derivative``, and ``make_rho_f`` the weight's row
    kernel at one pair.
    ``ratio_rows`` optionally maps a matrix of one-line images of S(level),
    one per row, and a matrix of 0/1 configurations of at least level
    coordinates to the exact values of rho on each row pair, as
    (numerators, denominators): object arrays of Python ints, so no value
    wraps. ``eval_fn`` then evaluates the same kernel at one pair
    (``groups.row_ratio``), so each closed form exists once. Only
    ``make_rn`` of a product Bernoulli measure with rational parameters and
    ``make_rho_f`` of a ``GeometricWeight`` set it; the exact checks read
    rho through ``rho_rows``, which takes whole batches through it.
    ``log_potential_rows`` optionally maps a matrix of 0/1 configurations,
    one per row, uint8 or float64, to log-u values for vectorized Monte
    Carlo. ``log_linear`` optionally gives u as a mixture of log-linear terms
    (``measures.LogLinearParts``), and ``is_constant_one`` is set by
    ``constant_one`` only: these two fields pick each level's engine in
    ``averaging.level_table``. A potential-backed cocycle is fibrewise
    continuous (the hypothesis of Theorem ergdecstrcont) since S(n) moves n
    coordinates.
    """

    eval_fn: Callable[[Permutation, Config], object]
    potential: Callable[[Config], object]
    ratio_rows: Optional[Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]] = None
    log_potential_rows: Optional[Callable[[np.ndarray], np.ndarray]] = None
    log_linear: Optional[LogLinearParts] = None
    is_constant_one: bool = False

    def __call__(self, g: Permutation, x: Config):
        return self.eval_fn(g, x)


def _const_eval(g: Permutation, x: Config):
    return Fraction(1)


def _const_potential(x: Config):
    return Fraction(1)


def _const_log_rows(rows: np.ndarray) -> np.ndarray:
    return np.zeros(rows.shape[0])


def constant_one() -> Cocycle:
    return Cocycle(
        eval_fn=_const_eval,
        potential=_const_potential,
        log_potential_rows=_const_log_rows,
        is_constant_one=True,
    )


def _weight_eval(f, g: Permutation, x: Config):
    fx = f(x)
    if fx <= 0:
        raise ValueError("weight function must be strictly positive")
    return f(act(g, x)) / fx


def make_rho_f(f) -> Cocycle:
    """Weight-ratio cocycle rho(g, x) = f(act(g, x)) / f(x) for positive f.

    ``constant_one()`` when f declares itself ``exchangeable``
    (``ConstantWeight``). An exact row kernel ``f.ratio_rows``, when f has
    one (``GeometricWeight``: one integer power over the moved
    coordinates), becomes ``ratio_rows``, and ``eval_fn`` is that kernel
    at one pair (``groups.row_ratio``) in place of two f values. A
    vectorized ``f.log_rows`` (log f of 0/1 rows), when f has one, serves
    Monte Carlo levels in log space.
    """
    if getattr(f, "exchangeable", False):
        return constant_one()
    kernel = getattr(f, "ratio_rows", None)
    return Cocycle(
        eval_fn=partial(_weight_eval, f) if kernel is None else partial(row_ratio, kernel),
        potential=f,
        ratio_rows=kernel,
        log_potential_rows=getattr(f, "log_rows", None),
    )


def _log_atom_rows(nu):
    """nu's vectorized log-mass, or None when nu, or a component of a mixture,
    has none (its Monte Carlo weights then come from the atom masses)."""
    if any(_log_atom_rows(c) is None for c in getattr(nu, "components", ())):
        return None
    return getattr(nu, "log_atom_rows", None)


def make_rn(nu) -> Cocycle:
    """Radon-Nikodym cocycle of a measure; zero-mass points raise on evaluation.

    An ``exchangeable`` measure (``BetaExchangeable``, equal product Bernoulli
    parameters, a mixture of those) gets ``constant_one()``. Otherwise the
    potential is the atom mass of nu. A product Bernoulli measure, or a
    mixture of them, also hands over its log-linear parts, which make every
    level above S(8) an exact orbit sum; other measures take Monte Carlo
    there, with log-space weights when every component has a vectorized
    log-mass and per-row atom masses otherwise.

    ``eval_fn`` is nu's own bound ``rn_derivative`` when it has one (the
    value ``measures.rn_derivative(nu, g, x)`` returns, without that call's
    lookup), and ``partial(rn_derivative, nu)`` otherwise; both pickle, and
    ``decomposition._is_own_rn`` recognises both. A product Bernoulli
    measure with rational parameters also hands over its exact row kernel
    as ``ratio_rows``; its ``rn_derivative`` is that kernel at one pair.
    """
    if getattr(nu, "exchangeable", False):
        return constant_one()
    own = getattr(nu, "rn_derivative", None)
    return Cocycle(
        eval_fn=own if own is not None else partial(rn_derivative, nu),
        potential=nu.atom,
        ratio_rows=getattr(nu, "ratio_rows", None),
        log_potential_rows=_log_atom_rows(nu),
        log_linear=getattr(nu, "log_linear", None),
    )


@dataclass(frozen=True)
class IdentityReport:
    trials: int
    violations: int
    exact: bool
    max_rel_error: float
    first_witness: tuple | None = None

    @property
    def ok(self) -> bool:
        return self.violations == 0


def _identity_triples(
    trials: int, level: int, window: int, rng: RandomStream
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``trials`` independent triples (g, h, x): g and h uniform on S(level)
    as rows of one-line images, x uniform on {0,1}^window as uint8 rows. Each
    array is one draw: g's rows, then h's, then x's."""
    tile = np.tile(np.arange(1, level + 1), (trials, 1))
    g = rng.permuted(tile, axis=1)
    h = rng.permuted(tile, axis=1)
    x = rng.integers(0, 2, size=(trials, window), dtype=np.uint8)
    return g, h, x


# Values that ``_values_agree`` compares exactly, ``rho_rows`` flags exact
# and ``averaging._sum_over_lcm`` sums exactly
_EXACT = (int, Fraction)


def _exact(v) -> int | Fraction:
    """v as an int or a Fraction; a float converts exactly."""
    return v if isinstance(v, _EXACT) else Fraction(v)


def _values_agree(lhs, rhs) -> bool:
    """The one comparison rule of the exact checks: exactly when both values
    are int or ``Fraction``, else within 1e-9 of rhs relative to max(1,
    |rhs|), since a float value carries the rounding of its inputs."""
    if isinstance(lhs, _EXACT) and isinstance(rhs, _EXACT):
        return lhs == rhs
    return abs(float(lhs) - float(rhs)) <= 1e-9 * max(1.0, abs(float(rhs)))


def rho_rows(
    rho: Cocycle, g_rows: np.ndarray, x_rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """rho on each row pair (g one-line images of S(level), x 0/1 rows of at
    least level coordinates), the one way the exact checks evaluate it, as
    (num, den, exact): object arrays of Python ints with num / den = rho(g,
    x), den > 0, and flags, True where the value is an int or a Fraction.
    Through the exact row kernel ``rho.ratio_rows`` in one call where the
    cocycle has one; otherwise through ``eval_fn`` once per row, where a
    float value enters as its exact integer ratio with its flag off."""
    if rho.ratio_rows is not None:
        num, den = rho.ratio_rows(g_rows, x_rows)
        return num, den, np.ones(len(num), dtype=bool)
    values = [rho.eval_fn(Permutation.from_one_line(g), tuple(x))
              for g, x in zip(g_rows.tolist(), x_rows.tolist())]
    ratios = [_exact(v) for v in values]
    return (
        np.array([r.numerator for r in ratios], dtype=object),
        np.array([r.denominator for r in ratios], dtype=object),
        np.array([isinstance(v, _EXACT) for v in values], dtype=bool),
    )


def _judge(lhs, a, b) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rule of ``verify_identity`` on the ``rho_rows`` values lhs, a and
    b of rho(g*h, x), rho(g, h x) and rho(h, x). Per row: whether all three
    are exact; whether lhs != a b, as n1 d2 d3 != d1 n2 n3 (no product
    normalised) where all three are exact and as a relative error above
    1e-12 otherwise; and that relative error, 0 on exact rows."""
    (n1, d1, e1), (n2, d2, e2), (n3, d3, e3) = lhs, a, b
    exact = e1 & e2 & e3
    loose = ~exact
    rel = np.zeros(len(exact))
    left = (n1[loose] / d1[loose]).astype(float)
    right = (n2[loose] * n3[loose] / (d2[loose] * d3[loose])).astype(float)
    rel[loose] = np.abs(left - right) / np.maximum(np.abs(right), 1e-300)
    return exact, np.where(exact, n1 * d2 * d3 != d1 * n2 * n3, rel > 1e-12), rel


# Trials drawn per batch: the index and bit arrays of one batch take about
# _TRIAL_CHUNK * (32 * level + 2 * window) bytes, whatever ``trials`` is.
# Each ``rho_rows`` call adds 2n Python ints, each 8 bytes of reference, 28
# bytes and 4 per 30 bits (a float's integer ratio has up to 1075), and a
# kernel's (n, level) object gather or, without one, a Permutation per row;
# each product of the comparison holds the bits of its three factors.
_TRIAL_CHUNK = 1024


def verify_identity(
    rho: Cocycle,
    trials: int,
    level: int,
    window: int,
    rng: RandomStream,
) -> IdentityReport:
    """Check rho(g*h, x) == rho(g, act(h, x)) * rho(h, x) on random triples.

    The triples have the law of independent draws: g and h Haar on
    S(level), x uniform on the window. They are drawn in batches of at most
    ``_TRIAL_CHUNK`` trials (``_identity_triples``), g*h and act(h, x) are
    formed on each batch's arrays, and each batch is evaluated by three
    ``rho_rows`` calls and judged at once by one rule (``_judge``): exact
    cross-multiplied equality where a trial's three values are exact, and
    relative error within 1e-12 otherwise. The first violating triple is
    the witness (g, h, x, lhs, rhs), Fractions or, where a value was a
    float, floats; only it builds Permutations and Fractions. ValueError
    when ``trials`` < 1: no triple, no verdict.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if level < 1:
        raise ValueError("level must be >= 1")
    if window < level:
        raise ValueError("window must cover the sampled level")
    violations = 0
    witness = None
    exact = True
    max_rel = 0.0
    for start in range(0, trials, _TRIAL_CHUNK):
        n = min(_TRIAL_CHUNK, trials - start)
        g_rows, h_rows, x_rows = _identity_triples(n, level, window, rng)
        gh_rows = np.take_along_axis(g_rows, h_rows - 1, axis=1)
        lhs = rho_rows(rho, gh_rows, x_rows)
        a = rho_rows(rho, g_rows, act_rows(h_rows, x_rows))
        b = rho_rows(rho, h_rows, x_rows)
        exact_rows, bad, rel = _judge(lhs, a, b)
        exact = exact and bool(exact_rows.all())
        max_rel = max(max_rel, float(rel.max()))
        violations += int(bad.sum())
        if witness is None and bad.any():
            i = np.flatnonzero(bad)[0]
            g, h = (Permutation.from_one_line(rows[i].tolist()) for rows in (g_rows, h_rows))
            left = Fraction(lhs[0][i], lhs[1][i])
            right = Fraction(a[0][i] * b[0][i], a[1][i] * b[1][i])
            if not exact_rows[i]:
                left, right = float(left), float(right)
            witness = (g, h, tuple(x_rows[i].tolist()), left, right)
    return IdentityReport(
        trials=trials,
        violations=violations,
        exact=exact,
        max_rel_error=max_rel,
        first_witness=witness,
    )
