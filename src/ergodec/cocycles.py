"""Positive multiplicative cocycles rho(g, x) over the permutation action.

Every cocycle is potential-backed, i.e. of the form
rho(g, x) = u(act(g, x)) / u(x) for a strictly positive function u. That
structure guarantees the multiplicative identity exactly and enables
orbit-collapsed exact averaging. For an argument that declares itself
exchangeable, rho is identically 1 and ``make_rn`` and ``make_rho_f`` return
``constant_one()``.

Constructors avoid closures so cocycles pickle cleanly into worker processes.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, Optional

import numpy as np

from .groups import Config, Permutation, act, haar_sample
from .measures import LogLinearParts, rn_derivative
from .rng import RandomStream


@dataclass
class Cocycle:
    """Evaluable positive weight rho(g, x) = u(act(g, x)) / u(x).

    ``potential`` is the positive function u, and a required field: at every
    level S(n) a positive cocycle is trivial on stabilizers and a ratio of a
    potential on each orbit, so requiring u loses no cocycle, and the exact
    and Monte Carlo level engines read u rather than ``eval_fn``.
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
    (``ConstantWeight``). Otherwise a vectorized ``f.log_rows`` (log f of 0/1
    rows), when f has one, serves Monte Carlo levels in log space.
    """
    if getattr(f, "exchangeable", False):
        return constant_one()
    return Cocycle(
        eval_fn=partial(_weight_eval, f),
        potential=f,
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
    """
    if getattr(nu, "exchangeable", False):
        return constant_one()
    return Cocycle(
        eval_fn=partial(rn_derivative, nu),
        potential=nu.atom,
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


def verify_identity(
    rho: Cocycle,
    trials: int,
    level: int,
    window: int,
    rng: RandomStream,
) -> IdentityReport:
    """Check rho(g*h, x) == rho(g, act(h, x)) * rho(h, x) on random triples.

    Rational values are compared exactly; floats by relative error, which
    must stay within 1e-12. The first violating triple is reported as a
    witness.
    """
    if window < level:
        raise ValueError("window must cover the sampled level")
    violations = 0
    witness = None
    exact = True
    max_rel = 0.0
    for _ in range(trials):
        g = haar_sample(level, rng)
        h = haar_sample(level, rng)
        x = tuple(int(b) for b in rng.integers(0, 2, size=window))
        lhs = rho(g.compose(h), x)
        rhs = rho(g, act(h, x)) * rho(h, x)
        if isinstance(lhs, Fraction) and isinstance(rhs, Fraction):
            bad = lhs != rhs
        else:
            exact = False
            rel = abs(float(lhs) - float(rhs)) / max(abs(float(rhs)), 1e-300)
            max_rel = max(max_rel, rel)
            bad = rel > 1e-12
        if bad:
            violations += 1
            if witness is None:
                witness = (g, h, x, lhs, rhs)
    return IdentityReport(
        trials=trials,
        violations=violations,
        exact=exact,
        max_rel_error=max_rel,
        first_witness=witness,
    )
