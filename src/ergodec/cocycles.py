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

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, Optional

import numpy as np

from .groups import ENUMERATION_CAP, Config, Permutation, act, row_ratio
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
    ``make_rho_f`` of a ``GeometricWeight`` set it; ``verify_identity``
    judges whole batches through it.
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


# Values compared exactly by ``_violates`` and ``_values_agree`` and summed
# exactly by ``averaging._sum_over_lcm``
_EXACT = (int, Fraction)


def _values_agree(lhs, rhs) -> bool:
    """The one comparison rule of the exact checks: exactly when both values
    are int or ``Fraction``, else within 1e-9 of rhs relative to max(1,
    |rhs|), since a float value carries the rounding of its inputs."""
    if isinstance(lhs, _EXACT) and isinstance(rhs, _EXACT):
        return lhs == rhs
    return abs(float(lhs) - float(rhs)) <= 1e-9 * max(1.0, abs(float(rhs)))

# Trials drawn per batch: the index and bit arrays of one batch take about
# _TRIAL_CHUNK * (32 * level + 2 * window) bytes, whatever ``trials`` is. A
# row kernel adds, per evaluation, an (n, level) object gather of 8-byte
# references and two object arrays of n Python ints, each an 8-byte
# reference to 28 bytes plus 4 per 30 bits of value; each product of the
# comparison holds the bits of its three factors.
_TRIAL_CHUNK = 1024

# Permutations an interning table may hold before ``verify_identity`` empties
# it: all of S(8), the enumeration cap
_INTERN_CAP = math.factorial(ENUMERATION_CAP)


def _violates(lhs: int | Fraction, a: int | Fraction, b: int | Fraction) -> bool:
    """lhs != a * b, exactly, without normalising a * b: denominators are
    positive, so p/q == (r/s)(t/u) if and only if p s u == q r t. An int is
    its own numerator over 1."""
    return (lhs.numerator * a.denominator * b.denominator
            != lhs.denominator * a.numerator * b.numerator)


def _interned(rows: np.ndarray, seen: dict[tuple, Permutation]) -> list[Permutation]:
    """The permutations with one-line images ``rows``, one validated
    ``Permutation`` per distinct row: ``seen`` maps each row's tuple to the
    one already built. S(level) has level! elements, so rows repeat them
    once trials outnumber level!."""
    out = []
    for key in map(tuple, rows.tolist()):
        g = seen.get(key)
        if g is None:
            g = seen[key] = Permutation.from_one_line(key)
        out.append(g)
    return out


def _kernel_batch(
    kernel, g_rows, h_rows, gh_rows, x_rows, hx_rows, want_witness: bool
) -> tuple[int, tuple | None]:
    """One batch judged at once through an exact row kernel, by the rule of
    ``_violates`` on whole arrays: with n1/d1 = rho(g*h, x), n2/d2 = rho(g,
    h x) and n3/d3 = rho(h, x), a trial is a violation when n1 d2 d3 != d1
    n2 n3. The count of violations and, when ``want_witness``, the first
    one's witness (g, h, x, lhs, rhs): the only trial that builds its
    Permutations and Fractions."""
    n1, d1 = kernel(gh_rows, x_rows)
    n2, d2 = kernel(g_rows, hx_rows)
    n3, d3 = kernel(h_rows, x_rows)
    bad = np.flatnonzero(n1 * d2 * d3 != d1 * n2 * n3)
    if not (want_witness and len(bad)):
        return len(bad), None
    i = bad[0]
    g, h = (Permutation.from_one_line(rows[i].tolist()) for rows in (g_rows, h_rows))
    rhs = Fraction(n2[i], d2[i]) * Fraction(n3[i], d3[i])
    return len(bad), (g, h, tuple(x_rows[i].tolist()), Fraction(n1[i], d1[i]), rhs)


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
    ``_TRIAL_CHUNK`` trials (``_identity_triples``), and g*h and act(h, x)
    are formed on each batch's arrays. A cocycle with an exact row kernel
    (``rho.ratio_rows``) is judged a whole batch at once, exactly, by
    cross-multiplying the kernel's numerators and denominators
    (``_kernel_batch``). Any other cocycle, whose values may be floats,
    takes the scalar loop: the permutations come from one interning table
    per call (``_interned``), so each distinct row among the g, h and g*h
    is built once, at most level! constructions, and the table is emptied
    before a batch once it holds more than ``_INTERN_CAP`` (8!) elements,
    so memory does not grow with ``trials`` above S(8). Each trial there
    evaluates rho three times, through ``rho.eval_fn`` itself. When all
    three values are ints or Fractions they are compared exactly, by
    cross-multiplying numerators and denominators; otherwise by relative
    error, which must stay within 1e-12. The first violating triple is
    reported as a witness (g, h, x, lhs, rhs); both paths give the same
    report on the same triples. ValueError when ``trials`` < 1: no triple,
    no verdict.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if level < 1:
        raise ValueError("level must be >= 1")
    if window < level:
        raise ValueError("window must cover the sampled level")
    kernel = rho.ratio_rows
    evaluate = rho.eval_fn
    violations = 0
    witness = None
    exact = True
    max_rel = 0.0
    seen: dict[tuple, Permutation] = {}
    for start in range(0, trials, _TRIAL_CHUNK):
        n = min(_TRIAL_CHUNK, trials - start)
        g_rows, h_rows, x_rows = _identity_triples(n, level, window, rng)
        gh_rows = np.take_along_axis(g_rows, h_rows - 1, axis=1)
        # act(h, x): the bit at coordinate j moves to coordinate h(j)
        hx_rows = x_rows.copy()
        hx_rows[np.arange(n)[:, None], h_rows - 1] = x_rows[:, :level]
        if kernel is not None:
            bad, first = _kernel_batch(
                kernel, g_rows, h_rows, gh_rows, x_rows, hx_rows, witness is None
            )
            violations += bad
            witness = witness or first
            continue
        if len(seen) > _INTERN_CAP:
            seen.clear()
        batch = zip(
            _interned(g_rows, seen),
            _interned(h_rows, seen),
            _interned(gh_rows, seen),
            map(tuple, x_rows.tolist()),
            map(tuple, hx_rows.tolist()),
        )
        for g, h, gh, x, hx in batch:
            lhs = evaluate(gh, x)
            a = evaluate(g, hx)
            b = evaluate(h, x)
            if (isinstance(lhs, _EXACT) and isinstance(a, _EXACT)
                    and isinstance(b, _EXACT)):
                bad = _violates(lhs, a, b)
            else:
                exact = False
                rhs = float(a * b)
                rel = abs(float(lhs) - rhs) / max(abs(rhs), 1e-300)
                max_rel = max(max_rel, rel)
                bad = rel > 1e-12
            if bad:
                violations += 1
                if witness is None:
                    witness = (g, h, x, lhs, a * b)
    return IdentityReport(
        trials=trials,
        violations=violations,
        exact=exact,
        max_rel_error=max_rel,
        first_witness=witness,
    )
