"""Weighted orbit averaging over the levels of the permutation chain.

The level-n average of a bounded function phi at a point x is the ratio

    sum_k phi(act(k, x)) rho(k, x)  /  sum_k rho(k, x),   k over S(n),

For the constant cocycle (``make_rn`` and ``make_rho_f`` of exchangeable
inputs return it) and a cylinder monomial it is the hypergeometric closed
form ``closed_form_levels``, exact at every level, for a batch of points at
once. Other cocycles are exact up to S(8) (``EXACT_LEVEL_CAP``; rational
arithmetic when the inputs are rational). Above that, a potential with
log-linear parts (``make_rn`` of an inhomogeneous product Bernoulli measure
or a mixture of them) takes ``product_levels`` for cylinder monomials, an
exact float orbit sum over a batch of points, with a delta-method slack from
moments kept once per ones count (``_count_moments``); everything else takes
self-normalized Monte Carlo over Haar draws (``haar_rows``), weighted by the
cocycle's potential (``mc_level_values``, the one Monte Carlo estimator).
``level_table`` is the one place that picks among these engines, and the
one per-point entry point: a point is a block of one row. It checks its
levels (``checked_schedule``); ``pi_phi``, ``decompose``, ``ergodicity_test``
and the ``orbital`` scan call it, and they average cylinder monomials only
(``decompose`` of an exchangeable input has no rows: it hands its drawn
counts to ``closed_form_levels`` itself). A
function of the first d coordinates is a finite signed sum of monomials
(its Moebius expansion), so its level average is the same signed sum of
monomial averages. The result, a ``LevelTable`` (``closed_form_levels``
returns one too), carries values, slacks and stderrs, and
``LevelTable.converged`` is the one limit rule all of them apply.

Exact evaluation up to S(8) (``average_exact``) is one orbit sum weighted by
the cocycle's potential u: every cocycle is u(gx)/u(x), so each coset of the
stabilizer of x contributes the same block and the sum over the orbit equals
the sum over the group. The test suite checks it, and the closed form, against
its own enumeration of the group.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .cocycles import _EXACT, Cocycle, _exact, _values_agree, constant_one, rho_rows
from .dictionary import CylinderMonomial
from .errors import CapacityError, ZeroMassError
from .groups import (
    ENUMERATION_CAP,
    Config,
    act,
    act_rows,
    enumerate_level,
    level_orbit,
    level_rows,
)
from .measures import AtomicMeasure, LogLinearParts
from .rng import RandomStream

EXACT_LEVEL_CAP = ENUMERATION_CAP


def level_gap_sd(k: int, p: float, a: int, b: int) -> float:
    """Delta-method sd of r_S(a) - r_S(b) for a monomial moving k coordinates.

    Given m_b ones among the first b coordinates of an exchangeable sequence,
    the first a < b of them are a uniform draw without replacement, so m_a is
    hypergeometric and m_a/a - m_b/b has mean 0 and variance
    p(1-p)(b-a)/(a(b-1)), p = m_b/b. A k-coordinate monomial is p^k to first
    order, so its sd is that of the frequency times k p^(k-1).
    """
    if k == 0:
        return 0.0
    return k * p ** (k - 1) * math.sqrt(p * (1.0 - p) * (b - a) / (a * (b - 1)))


# Integers below 2^53 are exact doubles, so the one rounding of a float64
# division of two of them is the correctly rounded quotient, as for
# float(Fraction).
_EXACT_FLOAT_INT = 2**53


@dataclass(frozen=True)
class LevelTable:
    """Level averages of cylinder monomials for a block of points, from
    ``level_table`` (or ``closed_form_levels``); arrays are indexed
    [level, point, key].

    - ``values``: the averages in float64; an exact entry holds the correctly
      rounded float of its exact value;
    - ``slacks[i]``: the limit-rule slack of the step from level i-1 to level
      i (``slacks[0]`` is 0);
    - ``stderrs[i]``: the standard error of a Monte Carlo level; the
      closed-form and product engines fill only the last level, with the sd
      of its value about the limit;
    - ``methods[i]`` names the engine of level i: "closed-form",
      "enumeration", "product" or "monte-carlo";
    - ``nums`` and ``dens`` hold the exact values: at a closed-form level the
      value is ``nums[i, p, j] / dens[i][j]`` in integers (``nums`` is int64
      unless some denominator reaches 2^53, then it holds Python ints); at an
      enumeration level ``nums[i, p, j]`` is the exact value itself.
    """

    values: np.ndarray
    slacks: np.ndarray
    stderrs: np.ndarray
    methods: tuple[str, ...]
    nums: Optional[np.ndarray] = None
    dens: tuple[tuple[int, ...], ...] = ()

    def value(self, level: int, point: int, key: int):
        """The exact value of an entry of a closed-form or enumeration level,
        the float of ``values`` at other levels; level, point and key are
        indices."""
        method = self.methods[level]
        if method == "closed-form":
            return Fraction(int(self.nums[level, point, key]), self.dens[level][key])
        if method == "enumeration":
            return self.nums[level, point, key]
        return float(self.values[level, point, key])

    def converged(self, tolerance: float) -> np.ndarray:
        """The limit rule, a bool per [point, key]: with two or more levels,
        the last two a < b satisfy |r(b) - r(a)| < tolerance + slack; with one
        level, its stderr is 0. That holds for an exact level at or below
        S(8), and above S(8) only where the entry cannot move. ValueError
        unless the tolerance is positive."""
        if not tolerance > 0:
            raise ValueError("tolerance must be positive")
        if len(self.methods) == 1:
            return self.stderrs[-1] == 0.0
        return np.abs(self.values[-1] - self.values[-2]) < tolerance + self.slacks[-1]


def level_counts(bits: np.ndarray, levels: Sequence[int]) -> np.ndarray:
    """Ones among the first n coordinates of each 0/1 row of ``bits`` (along
    its last axis) for each of the increasing ``levels`` n, in int64 with one
    column per level: the ``counts`` of ``closed_form_levels``."""
    bounds = (0, *levels)
    parts = [bits[..., a:b].sum(axis=-1, dtype=np.uint32) for a, b in zip(bounds, bounds[1:])]
    return np.cumsum(np.stack(parts, axis=-1), axis=-1, dtype=np.int64)


def _monomial_slope(p: np.ndarray, k: int):
    """d(p^k)/dp = k p^(k-1), with the bits of the Python ``k * p ** (k - 1)``:
    p^0 is 1.0 and p^1 is p exactly, and higher powers take Python's float
    pow (the platform's pow, which numpy's vector power need not match)."""
    if k == 1:
        return 1.0
    if k == 2:
        return 2 * p
    return k * np.array([q ** (k - 1) for q in p.tolist()])


def closed_form_levels(
    counts: np.ndarray,
    heads: np.ndarray,
    levels: Sequence[int],
    keys: Sequence[tuple[int, ...]],
) -> LevelTable:
    """Constant-cocycle level averages of cylinder monomials for a batch of
    points, exact at every level, with no random draws and no enumeration.

    ``counts[p, i]`` is the number of ones among the first ``levels[i]``
    coordinates of point p (``level_counts``), and ``heads[p]`` holds the
    point's first coordinates, at least up to the largest index of a key.
    The average of the monomial on S at level n is the hypergeometric closed
    form (m_n)_k / (n)_k, where k counts the coordinates of S that S(n)
    moves, and 0 when a coordinate of S above n is 0. The falling factorials
    are exact integers: int64 arrays while (n)_k < 2^53, where one float64
    division gives the correctly rounded value, and Python ints above that,
    so no count wraps. The slack of the step from a = levels[i-1] to
    b = levels[i] is 3 ``level_gap_sd``(k, m_b/b, a, b), and the stderr of
    the last level b is k p^(k-1) sqrt(p(1-p)/b), p = m_b/b, the sd of its
    value about the limit; both are 0 when b <= 8, and both are vectorized
    with the bits of their per-point formulas. Returns a ``LevelTable`` whose
    levels are all "closed-form"; ``level_table`` calls it for the constant
    cocycle.
    """
    counts = np.asarray(counts, dtype=np.int64)
    if counts.shape[1:] != (len(levels),):
        raise ValueError("counts need one column per level")
    if np.count_nonzero((counts < 0) | (counts > np.asarray(levels, dtype=np.int64))):
        raise ValueError("a level count lies outside 0..level")
    points, shape = counts.shape[0], (len(levels), counts.shape[0], len(keys))
    dens = tuple(
        tuple(math.perm(n, sum(1 for i in key if i <= n)) for key in keys)
        for n in levels
    )
    exact = max((d for row in dens for d in row), default=1) >= _EXACT_FLOAT_INT
    nums = np.zeros(shape, dtype=object if exact else np.int64)
    values = np.zeros(shape)
    slacks = np.zeros(shape)
    stderrs = np.zeros(shape)
    for li, n in enumerate(levels):
        m = counts[:, li]
        p = m / n
        if n > EXACT_LEVEL_CAP:
            spread = p * (1.0 - p)
            if li:
                a = levels[li - 1]
                gap = np.sqrt(spread * float(n - a) / float(a * (n - 1)))
            last = np.sqrt(spread / float(n))
        falling = {0: np.ones(points, dtype=np.int64)}
        for j, key in enumerate(keys):
            k = sum(1 for i in key if i <= n)
            alive = np.ones(points, dtype=bool)
            for i in key:
                if i > n:
                    alive &= heads[:, i - 1] != 0
            den = dens[li][j]
            if den < _EXACT_FLOAT_INT:
                for t in range(len(falling), k + 1):
                    falling[t] = falling[t - 1] * (m - (t - 1))
                num = np.where(alive, falling[k], 0)
                values[li, :, j] = num / float(den)
            else:
                num = [math.perm(int(c), k) if ok else 0 for c, ok in zip(m, alive)]
                values[li, :, j] = [q / den for q in num]
            nums[li, :, j] = num
            if k == 0 or n <= EXACT_LEVEL_CAP:
                continue
            coef = _monomial_slope(p, k)
            if li:
                slacks[li, :, j] = np.where(alive, 3.0 * (coef * gap), 0.0)
            if li == len(levels) - 1:
                stderrs[li, :, j] = np.where(alive, coef * last, 0.0)
    return LevelTable(values, slacks, stderrs, ("closed-form",) * len(levels), nums, dens)


def _esp_log_tables(
    logit: np.ndarray, held: Sequence[int], stops: Sequence[int]
) -> list[np.ndarray]:
    """log e_j of the odds exp(logit[c, i]) over the coordinates 1..stop
    (1-based) outside ``held``, for each stop: one row per component c,
    j = 0 up to the number of those coordinates.

    The dynamic program keeps the ratios R_j = e_j / e_(j-1). Adding a
    coordinate with odds t turns e_j into e_j + t e_(j-1), so R_j becomes
    (R_j + t) / (1 + t / R_(j-1)), with R_0 = inf and R_j = 0 past the
    coordinates seen so far. The ratios stay between the smallest odds over
    the window size and the window size times the largest odds, so no window
    overflows or underflows, and log e_j is the cumulative sum of log R. By
    Newton's inequalities R_j <= R_(j-1), which keeps the two weights of an
    update below 1 in total: a rounding error is never amplified.
    """
    comps = logit.shape[0]
    free = [i for i in range(max(stops)) if i + 1 not in held]
    odds = np.exp(logit[:, free])
    # a level-n table is taken after the free coordinates up to n
    counts = [n - sum(1 for i in held if i <= n) for n in stops]
    ratio = np.zeros((comps, len(free) + 1))
    ratio[:, 0] = np.inf
    found = {0: np.zeros((comps, 1))}
    for s in range(len(free)):
        t = odds[:, s : s + 1]
        den = t / ratio[:, : s + 1]
        den += 1.0
        cur = ratio[:, 1 : s + 2]
        cur += t
        cur /= den
        if s + 1 in counts:
            logs = np.cumsum(np.log(ratio[:, 1 : s + 2]), axis=1)
            found[s + 1] = np.concatenate([np.zeros((comps, 1)), logs], axis=1)
    return [found[c] for c in counts]


# Newton chunks (ones counts x components x coordinates) and the float rows
# of the tail products (points x coordinates) hold at most about this many
# floats, so memory does not grow with the number of new counts or points.
# 128 KB arrays kept the quasi-invariant benchmark's peak RSS at the
# per-point kernel's; 512 KB ones raised it by about 2 MB.
_NEWTON_FLOATS = 1 << 14


def _moments(s: np.ndarray, a: int) -> tuple[np.ndarray, np.ndarray]:
    """sum_i s_i (1 - s_i)^T over the columns i <= a and i > a of s
    (... x components x coordinates): each entry is the sum of one
    row-major elementwise product, so it adds as the product of those two
    rows alone does."""
    t = 1.0 - s
    return tuple(
        (s[..., :, None, r] * t[..., None, :, r]).sum(axis=-1)
        for r in (slice(0, a), slice(a, None))
    )


@dataclass(eq=False)
class CountMoments:
    """The slack moments of one (level n, previous level a, held coordinates)
    for each ones count k seen so far: row ``rows[k]`` of ``table`` holds
    M_a, M_gap (components x components each) and s at the held coordinates
    (components x held), flattened in that order (``_count_moments``). One
    packed table makes the lookup for a block one gather over its points, and
    it holds only the counts met."""

    rows: dict = field(default_factory=dict)
    table: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))


def _count_moments(
    logit: np.ndarray, a: int, held: list, counts: list, memo: CountMoments, tilts: dict
) -> tuple[np.ndarray, np.ndarray]:
    """``(mats, s_held)`` for the ones counts 0 < k < n of a block's points
    (``counts``, one per point): ``mats[p]`` stacks (M_a, M_gap) and
    ``s_held[p]`` is s at the 1-based ``held`` coordinates, where
    s = sigma(lam + logit) for the tilt lam = ``tilts[k]`` of the n columns
    of ``logit`` (``_solve_tilts``) and (M_a, M_gap) = ``_moments(s, a)``.
    With component shares q summing to 1, pi_i = q . s_i has
    sum_(i <= a) pi_i (1 - pi_i) = q^T M_a q.

    Counts that ``memo`` lacks are added to it first, and only those that
    ``tilts`` lacks are solved: the tilt depends on the level and the count
    only, so every (a, held) that meets a (level, count) reuses its one
    solve. A block whose counts are all memoised solves nothing.
    """
    comps = logit.shape[0]
    square = 2 * comps * comps
    new = sorted(set(counts) - memo.rows.keys())
    if new:
        _solve_tilts(logit, new, tilts)
        cols = [i - 1 for i in held]
        packed = [memo.table.reshape(-1, square + comps * len(held))]
        # the moment products (counts x components^2 x coordinates) of a
        # chunk of counts hold about _NEWTON_FLOATS floats
        chunk = max(1, _NEWTON_FLOATS // (comps * logit.size))
        for lo in range(0, len(new), chunk):
            lam = np.array([tilts[k] for k in new[lo : lo + chunk]])
            s = 1.0 / (1.0 + np.exp(-(lam[:, :, None] + logit)))
            packed.append(np.concatenate(
                [v.reshape(len(s), -1) for v in (*_moments(s, a), s[:, :, cols])], axis=1
            ))
        memo.rows.update(zip(new, range(len(memo.rows), len(memo.rows) + len(new))))
        memo.table = np.concatenate(packed)
    entries = memo.table[[memo.rows[k] for k in counts]]
    return (
        entries[:, :square].reshape(-1, 2, comps, comps),
        entries[:, square:].reshape(-1, comps, len(held)),
    )


def _solve_tilts(logit: np.ndarray, counts: list, tilts: dict) -> None:
    """Add to ``tilts`` each ones count 0 < k < n in ``counts`` that it
    lacks: k -> lam, where lam_c solves sum_i sigma(lam_c + logit_ci) = k over
    the n columns of ``logit`` (Hajek's approximation to conditional-Poisson
    sampling). Returns at once when ``tilts`` has every count.

    The Newton steps run on all the new counts at once; a count leaves at
    the step where its own test passes (or the 200th), so it takes the steps
    it would take alone, and its target stays Python's log.
    """
    n = logit.shape[1]
    new = np.array(sorted(set(counts) - tilts.keys()), dtype=np.int64)
    if not new.size:
        return
    chunk = max(1, _NEWTON_FLOATS // logit.size)
    for ks in np.split(new, range(chunk, new.size, chunk)):
        target = np.array([math.log(k / (n - k)) for k in ks.tolist()]).reshape(-1, 1)
        # sigma is increasing, so lam = target - max logit undershoots k and
        # target - min logit overshoots it: Newton steps stay in that
        # bracket, with bisection when a step would leave it.
        lo, hi = target - logit.max(axis=1), target - logit.min(axis=1)
        lam = target - logit.mean(axis=1)
        for it in range(200):
            if not ks.size:
                break
            pi = 1.0 / (1.0 + np.exp(-(lam[:, :, None] + logit)))
            f = pi.sum(axis=2) - ks[:, None]
            done = np.all(np.abs(f) <= 1e-12 * n, axis=1) | (it == 199)
            if done.any():
                tilts.update(zip(ks[done].tolist(), lam[done]))
                keep = ~done
                ks, pi, f, lam, lo, hi = (v[keep] for v in (ks, pi, f, lam, lo, hi))
            lo, hi = np.where(f < 0, lam, lo), np.where(f > 0, lam, hi)
            step = lam - f / (pi * (1.0 - pi)).sum(axis=2)
            lam = np.where((step > lo) & (step < hi), step, 0.5 * (lo + hi))


def _slack_coefficients(
    q: np.ndarray, s_held: np.ndarray, held: list, moved: list
) -> np.ndarray:
    """c_S = prod_(S') pi_i sum_(S') (1 - pi_i) of each point (rows of the
    component shares q) and key (``moved``, its 1-based coordinates S' among
    ``held``), with pi_i = q . s_i and 1 - pi_i = q . (1 - s_i) from the
    sigma columns ``s_held`` (points x components x held), each dot product
    summed over the components in order. The shares sum to 1, so both are
    the point's inclusion probability and its complement; forming the
    complement as ``1.0 - pi_i`` instead would cancel where pi_i is near 1."""
    shares = q[:, :, None]
    pi = np.cumsum(shares * s_held, axis=1)[:, -1]
    rest = np.cumsum(shares * (1.0 - s_held), axis=1)[:, -1]
    coef = np.zeros((q.shape[0], len(moved)))
    for k, s in enumerate(moved):
        if s:
            cols = [held.index(i) for i in s]
            coef[:, k] = math.prod(pi[:, j] for j in cols) * sum(rest[:, j] for j in cols)
    return coef


def _tail_products(bits: np.ndarray, levels: Sequence[int], logit: np.ndarray) -> np.ndarray:
    """sum_(i > n) x_i logit[c, i] of each 0/1 row x of ``bits`` at each of
    the increasing ``levels`` n, indexed [level, point, component]: one
    stacked product ``logit[:, n:] @ X[:, n:, None]`` per level and chunk of
    rows. numpy's matmul runs one matrix-vector product (gemv) per stack
    element, so each point's tail has the bits of its own
    ``logit[:, n:] @ x[n:]``; a matrix-matrix product over the rows
    (``X @ logit.T``) would round differently. Only the coordinates past the
    first level are converted to float, at most ``_NEWTON_FLOATS`` at a
    time."""
    start = levels[0]
    tails = np.empty((len(levels), bits.shape[0], logit.shape[0]))
    chunk = max(1, _NEWTON_FLOATS // max(1, bits.shape[1] - start))
    for lo in range(0, bits.shape[0], chunk):
        rows = bits[lo : lo + chunk, start:].astype(np.float64)[:, :, None]
        for li, n in enumerate(levels):
            tails[li, lo : lo + chunk] = (logit[:, n:] @ rows[:, n - start :])[:, :, 0]
    return tails


@dataclass(frozen=True)
class _LevelPlan:
    """The point-free part of one level n of ``product_levels`` for a key
    set, memoised on the parts (``_level_plans``)."""

    n: int
    held: list  # the keys' 1-based coordinates up to n
    sizes: np.ndarray  # |T| of each subset T of held, T as a bit mask
    mask_logit: np.ndarray  # sum_(i in T) logit[c, i], components x subsets
    # log e_j(t off held), then |held| columns of -inf: an out-of-range
    # j = m - |T| is -|held|..-1 or past the table by less than |held|, and
    # indexes one of them
    log_e: np.ndarray
    # (keys, the subsets T containing each key's S'), keys grouped by how
    # many subsets they sum
    sums: list
    pins: list  # (key, its 0-based coordinates above n), keys with some
    moved: list  # S' of each key: its coordinates up to n
    moving: np.ndarray  # S' is nonempty, a bool per key


def _level_plans(
    parts: LogLinearParts, keys: Sequence[tuple[int, ...]], levels: Sequence[int]
) -> list[_LevelPlan]:
    """The ``_LevelPlan`` of each level for ``keys``, built once per key set
    and levels and kept in ``parts.tables``."""
    memo = (tuple(keys), tuple(levels))
    if memo in parts.tables:
        return parts.tables[memo]
    held_all = tuple(sorted({i for key in keys for i in key}))
    plans = []
    for n, log_e in zip(levels, _esp_log_tables(parts.logit, held_all, levels)):
        held = [i for i in held_all if i <= n]
        masks = (np.arange(2 ** len(held))[:, None] >> np.arange(len(held))) & 1
        moved = [[i for i in key if i <= n] for key in keys]
        subsets = [np.flatnonzero(masks[:, [held.index(i) for i in s]].all(axis=1)) for s in moved]
        by_count: dict[int, list[int]] = {}
        for k, t in enumerate(subsets):
            by_count.setdefault(t.size, []).append(k)
        plans.append(_LevelPlan(
            n=n,
            held=held,
            sizes=masks.sum(axis=1),
            mask_logit=parts.logit[:, [i - 1 for i in held]] @ masks.T,
            log_e=np.pad(log_e, ((0, 0), (0, len(held))), constant_values=-np.inf),
            sums=[(ks, np.array([subsets[k] for k in ks])) for ks in by_count.values()],
            pins=[(k, [i - 1 for i in key if i > n]) for k, key in enumerate(keys)
                  if any(i > n for i in key)],
            moved=moved,
            moving=np.array([bool(s) for s in moved], dtype=bool),
        ))
    parts.tables[memo] = plans
    return plans


def product_levels(
    bits: np.ndarray,
    levels: Sequence[int],
    keys: Sequence[tuple[int, ...]],
    parts: LogLinearParts,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Level averages of cylinder monomials for a batch of points (one 0/1
    row of ``bits`` each) under a cocycle whose potential has log-linear
    parts (``measures.LogLinearParts``), as exact orbit sums with no random
    draws; the float counterpart of ``closed_form_levels``.

    Given x, the level-n orbit is every configuration with the same m ones
    among the first n coordinates and the same tail. With odds
    t_ci = exp(logit_ci), its mass under component c is
    A_c e_m(t_c1..t_cn), A_c = exp(const_c + sum_(i>n) x_i logit_ci), and a
    monomial moving the set S' has numerator
    A_c prod_(i in S') t_ci e_(m-|S'|)(t_c without S'): the conditional-
    Poisson (rejective-sampling) identity. Splitting 1..n into the held-out
    coordinates H (those of the keys, at most 2^|H| subsets T) and the rest,
    e_(m-|S'|)(t without S') prod_(S') t = sum over T containing S' of
    prod_(T) t e_(m-|T|)(t off H). The tables of e_j(t off H) depend on the
    measure and the levels only (``_esp_log_tables``); with the subset masks
    they are built once per key set and levels (``_level_plans``, memoised
    on the parts). Each level is then a few array passes over the whole
    block: the tails are one stacked matrix-vector product per level
    (``_tail_products``), with the bits of a per-point product, and the
    sums over T run on arrays over the points.

    Returns ``(values, slacks, stderrs)`` indexed [level, point, key] and
    [point, key] as in ``LevelTable`` (the empty key is exactly 1.0),
    with this slack and stderr, by the delta method through the tilted
    inclusion probabilities pi_i at level b,
    V_A = sum_(i in A) pi_i (1 - pi_i), c_S = prod_(S') pi_i sum_(S') (1 - pi_i):

    - slack 3 c_S sqrt(b (V_b - V_a) / ((b - 1) V_a V_b)) for the step
      a -> b, b > 8 (0 otherwise);
    - stderr c_S / sqrt(V_b) at the last level b > 8 (0 otherwise).

    V_a and V_b - V_a are quadratic forms in the point's component shares,
    of matrices kept per (b, m_b) on the parts (``_count_moments``). With
    constant parameters pi_i = m_b/b and these are 3 ``level_gap_sd`` and
    the stderr of ``closed_form_levels``.
    """
    bits = np.asarray(bits, dtype=np.uint8)
    if levels[-1] > bits.shape[1]:
        raise ValueError("level exceeds the configuration window")
    points = bits.shape[0]
    shape = (len(levels), points, len(keys))
    values, slacks, stderrs = np.zeros(shape), np.zeros(shape), np.zeros(shape[1:])
    counts = level_counts(bits, levels).T
    tails = _tail_products(bits, levels, parts.logit)
    a = None
    for li, (plan, m) in enumerate(zip(_level_plans(parts, keys, levels), counts)):
        n, held = plan.n, plan.held
        log_g = (
            (parts.const + tails[li])[:, :, None]
            + plan.mask_logit
            + plan.log_e[:, m[:, None] - plan.sizes].transpose(1, 0, 2)
        )
        g = np.exp(log_g - log_g.max(axis=(1, 2))[:, None, None])
        per_subset = g.sum(axis=1)
        den = per_subset.sum(axis=1)
        v = np.empty((points, len(keys)))
        for ks, subsets in plan.sums:
            # np.take copies row-major, so each row is summed as one point's array is
            v[:, ks] = np.take(per_subset, subsets, axis=1).sum(axis=2)
        v /= den[:, None]
        # alive: the key has no 0 above n
        alive = np.ones((points, len(keys)), dtype=bool)
        for k, pins in plan.pins:
            alive[:, k] = bits[:, pins].all(axis=1)
        values[li] = np.where(alive, np.minimum(v, 1.0), 0.0)
        # active: the key moves a coordinate and has no 0 above n
        active = alive & plan.moving
        # level b's moments serve the step a -> b and the last level's stderr
        wanted = n > EXACT_LEVEL_CAP and (a is not None or li == len(levels) - 1)
        rows = np.flatnonzero(active.any(axis=1) & (m > 0) & (m < n) & wanted)
        if rows.size:
            mats, s_held = _count_moments(
                parts.logit[:, :n], a or 0, held, m[rows].tolist(),
                parts.moments.setdefault((n, a or 0, tuple(held)), CountMoments()),
                parts.tilts.setdefault(n, {}),
            )
            q = g[rows].sum(axis=2) / den[rows, None]
            # q^T M q for M_a and M_gap at once, the (c, d) terms summed in
            # order: a matmul over the rows rounds with the block
            terms = q[:, None, :, None] * mats * q[:, None, None, :]
            forms = np.cumsum(terms.reshape(len(rows), 2, -1), axis=2)
            v_a, v_gap = forms[:, 0, -1:], forms[:, 1, -1:]
            v_b = v_a + v_gap
            coef = _slack_coefficients(q, s_held, held, plan.moved)
            coef[~active[rows]] = 0.0
            with np.errstate(divide="ignore", invalid="ignore"):
                if a is not None:
                    gap = np.sqrt(n * v_gap / ((n - 1) * v_a * v_b))
                    slacks[li, rows] = np.where(v_a > 0.0, 3.0 * coef * gap, 0.0)
                if li == len(levels) - 1:
                    stderrs[rows] = np.where(v_b > 0.0, coef / np.sqrt(v_b), 0.0)
        a = n
    return values, slacks, stderrs


def monomial_level_average(level: int, indices: Sequence[int], x: Config) -> Fraction:
    """Exact constant-cocycle average of a cylinder monomial at one level."""
    bits = np.asarray(x, dtype=np.uint8)[None, :]
    return level_table(bits, constant_one(), (level,), [tuple(indices)]).value(0, 0, 0)


def _rescaled_potential(rho: Cocycle, ux, x: Config, level: int):
    """u / max u on the level orbit of x, from ``rho.log_potential_rows``, for
    a float potential u that underflows to ux = 0.0 at x (a long product of
    float masses): the orbit average is the same. ZeroMassError where u is 0
    at x, exactly or in log space."""
    orbit = list(level_orbit(x, level))
    logu = None
    if isinstance(ux, float) and rho.log_potential_rows is not None:
        logu = rho.log_potential_rows(np.asarray([x] + orbit, dtype=np.uint8))
    if logu is None or logu[0] == -math.inf:
        raise ZeroMassError(f"cocycle potential vanishes at the base point (window {len(x)})")
    return dict(zip(orbit, np.exp(logu[1:] - logu.max()).tolist())).__getitem__


def _sum_over_lcm(nums: Sequence[int], dens: Sequence[int]) -> tuple[int, int]:
    """The sum of nums[i] / dens[i] (each dens[i] > 0) as (numerator,
    denominator) over the lcm of the denominators, not normalised: the
    caller builds one Fraction from it, where a running Fraction sum would
    reduce by a gcd at every term."""
    lcm = math.lcm(*dens)
    return sum(n * (lcm // d) for n, d in zip(nums, dens)), lcm


def _exact_dot(pairs: Iterable[tuple]) -> tuple[int, int]:
    """The sum of a * b over pairs (a, b) of ints and Fractions, as
    ``_sum_over_lcm`` gives it: no product is normalised."""
    pairs = list(pairs)
    return _sum_over_lcm(
        [a.numerator * b.numerator for a, b in pairs],
        [a.denominator * b.denominator for a, b in pairs],
    )


@dataclass(frozen=True)
class OrbitWeights:
    """The level orbit of a point and rho's potential u on it, rescaled
    where u vanishes at the point: all of an exact level average but phi,
    built once (``orbit_weights``) to average many phi over one orbit."""

    level: int
    orbit: list[Config]
    us: list

    @cached_property
    def _exact_den(self) -> tuple[int, int] | None:
        """sum u over the lcm of its denominators; None for a float u."""
        if not all(isinstance(u, _EXACT) for u in self.us):
            return None
        return _sum_over_lcm([u.numerator for u in self.us], [u.denominator for u in self.us])

    def average(self, phi):
        """sum phi(y) u(y) / sum u(y) over the orbit, phi read where u(y) != 0.
        When every u and phi value is an int or a Fraction, each sum is one
        integer over the lcm of its terms' denominators and the result is
        one Fraction; otherwise the terms are added one by one in orbit order
        and the result is a float."""
        terms = [(phi(y), u) for y, u in zip(self.orbit, self.us) if u != 0]
        exact_den = self._exact_den
        if exact_den is not None and all(isinstance(p, _EXACT) for p, _ in terms):
            n, n_lcm = _exact_dot(terms)
            d, d_lcm = exact_den
            if d == 0:
                raise ZeroMassError("averaging denominator vanished")
            return Fraction(n * d_lcm, n_lcm * d)
        num = Fraction(0)
        den = Fraction(0)
        for u in self.us:
            den += u
        for p, u in terms:
            num += p * u
        if den == 0:
            raise ZeroMassError("averaging denominator vanished")
        if isinstance(den, float) and not math.isfinite(den):
            raise ValueError(
                f"float potential overflows the level-{self.level} orbit sum "
                f"(window {len(self.orbit[0])})"
            )
        return num / den


def orbit_weights(level: int, rho: Cocycle, x: Config) -> OrbitWeights:
    """The level orbit of x and rho's potential on it (``OrbitWeights``).
    CapacityError above S(8), ValueError for a level below 1 or past the
    window of x."""
    if level > EXACT_LEVEL_CAP:
        raise CapacityError(
            f"exact averaging is capped at level {EXACT_LEVEL_CAP}; got {level}"
        )
    if level < 1:
        raise ValueError("level must be >= 1")
    if level > len(x):
        raise ValueError("level exceeds the configuration window")
    potential = rho.potential
    ux = potential(x)
    if ux == 0:
        potential = _rescaled_potential(rho, ux, x, level)
    orbit = list(level_orbit(x, level))
    return OrbitWeights(level, orbit, [potential(y) for y in orbit])


def average_exact(level: int, rho: Cocycle, phi, x: Config):
    """Exact level average sum phi(y) u(y) / sum u(y) over the level orbit of
    x, u the potential of rho: ``orbit_weights(level, rho, x).average(phi)``."""
    return orbit_weights(level, rho, x).average(phi)


def _self_normalized(v: np.ndarray, w: np.ndarray) -> tuple[float, float]:
    """Ratio estimate and delta-method standard error."""
    n = v.shape[0]
    wbar = float(np.mean(w))
    est = float(np.sum(v * w) / np.sum(w))
    resid = w * (v - est)
    var = float(np.sum(resid * resid)) / (n - 1)
    se = math.sqrt(var / n) / wbar
    return est, se


_HALF_LOG_MAX = 0.5 * math.log(sys.float_info.max)


def haar_rows(
    x_bits: np.ndarray, level: int, samples: int, rng: RandomStream
) -> np.ndarray:
    """samples x window uint8 rows: x with its first ``level`` 0/1 coordinates
    permuted by independent Haar draws from S(level).

    Each row draws ``level`` uniform keys and puts at position j the bit of
    the coordinate with the j-th smallest key, i.e. ``x[:level][argsort(keys)]``.
    The keys are doubles in [0, 1), whose int64 bit patterns sort in the same
    order as their values and stay below 0x3FF0 << 48, so ``(pattern << 1) | bit``
    cannot overflow; sorting those packed keys in place and reading bit 0
    gives the gathered bits without materializing the permutations. Only
    equal keys in one row (probability about level^2 / 2^54) can order
    differently, and there argsort's own order depends on its algorithm.
    """
    keys = rng.random((samples, level))
    packed = keys.view(np.int64)
    packed <<= 1
    packed |= x_bits[:level]
    packed.sort(axis=1)
    rows = np.tile(x_bits, (samples, 1))
    rows[:, :level] = packed & 1
    return rows


def _weighted_haar_rows(
    x_bits: np.ndarray, level: int, rho: Cocycle, samples: int, rng: RandomStream
) -> tuple[np.ndarray, np.ndarray]:
    """Haar rows of x at ``level`` and their importance weights rho = u(row)/u(x).

    With log-potential rows, weights whose square would overflow a double
    (log rho above half the log of the largest double, where the variance of
    ``_self_normalized`` becomes inf) are all divided by the largest one
    instead: the self-normalized estimate and its stderr do not depend on a
    common factor.
    """
    if samples < 2:
        raise ValueError("at least 2 samples required")
    if level > x_bits.shape[0]:
        raise ValueError("level exceeds the configuration window")
    rows = haar_rows(x_bits, level, samples, rng)
    if rho.log_potential_rows is not None:
        logw = rho.log_potential_rows(rows) - rho.log_potential_rows(
            x_bits.reshape(1, -1)
        )
        top = float(logw.max())
        if top > _HALF_LOG_MAX:
            logw = logw - top
        return rows, np.exp(logw)
    ux = float(rho.potential(tuple(int(b) for b in x_bits)))
    if ux == 0:
        raise ZeroMassError("cocycle potential vanishes at the base point")
    w = np.array([float(rho.potential(tuple(int(b) for b in r))) / ux for r in rows])
    return rows, w


def mc_level_values(
    x_bits: np.ndarray,
    level: int,
    rho: Cocycle,
    monomials: Sequence[CylinderMonomial],
    samples: int,
    rng: RandomStream,
) -> list[tuple[float, float]]:
    """Shared-draw Monte Carlo level averages for several monomials at once.

    One set of Haar draws serves every monomial, so estimates inherit the
    pointwise order of the integrands (a superset monomial never exceeds its
    subset). Returns (estimate, stderr) per monomial.
    """
    rows, w = _weighted_haar_rows(x_bits, level, rho, samples, rng)
    out = []
    for m in monomials:
        if not all(x_bits[i - 1] for i in m.indices if i > level):
            out.append((0.0, 0.0))
            continue
        cols = [i - 1 for i in m.indices if i <= level]
        if cols:
            v = rows[:, cols[0]].astype(np.float64)
            for c in cols[1:]:
                v = v * rows[:, c]
        else:
            v = np.ones(samples)
        out.append(_self_normalized(v, w))
    return out


def default_schedule(window: int) -> tuple[int, ...]:
    """Geometric levels 1, 2, 4, ... capped by and including the window."""
    levels = []
    n = 1
    while n < window:
        levels.append(n)
        n *= 2
    levels.append(window)
    return tuple(levels)


def checked_schedule(schedule: Sequence[int] | None, window: int) -> tuple[int, ...]:
    """The schedule as a tuple (``default_schedule`` when None); ValueError
    unless its levels start at 1 or above, increase strictly and stay within
    the window."""
    sched = tuple(schedule) if schedule is not None else default_schedule(window)
    if not sched or sched[0] < 1:
        raise ValueError("schedule levels must be >= 1")
    if any(b <= a for a, b in zip(sched, sched[1:])):
        raise ValueError("schedule must be strictly increasing")
    if sched[-1] > window:
        raise ValueError("schedule exceeds the configuration window")
    return sched


def _mc_slacks(stderrs: np.ndarray) -> np.ndarray:
    """The slack of each step between Monte Carlo levels, indexed as
    ``stderrs`` [level, point, key]: 3 times the combined stderr
    sqrt(se_a^2 + se_b^2) of its two levels, in Python floats (0 at the first
    level, and between two exact levels)."""
    slacks = np.zeros(stderrs.shape)
    ses = stderrs.tolist()
    for li in range(1, len(ses)):
        for p, (prev, cur) in enumerate(zip(ses[li - 1], ses[li])):
            slacks[li, p] = [3.0 * math.sqrt(a**2 + b**2) for a, b in zip(prev, cur)]
    return slacks


def checked_keys(keys: Sequence[tuple[int, ...]], window: int) -> list[CylinderMonomial]:
    """The cylinder monomials on ``keys``; ValueError unless the indices of
    each key are 1-based, strictly increasing and within the window."""
    monomials = [CylinderMonomial(tuple(key)) for key in keys]
    if any(m.indices and m.indices[-1] > window for m in monomials):
        raise ValueError("key index exceeds the configuration window")
    return monomials


def level_methods(rho: Cocycle, levels: Sequence[int]) -> tuple[str, ...]:
    """The engine ``level_table`` takes at each of the ``levels`` under rho:
    "closed-form", "enumeration", "product" or "monte-carlo"."""
    if rho.is_constant_one:
        return ("closed-form",) * len(levels)
    top = "product" if rho.log_linear is not None else "monte-carlo"
    return tuple("enumeration" if n <= EXACT_LEVEL_CAP else top for n in levels)


def level_table(
    rows: np.ndarray,
    rho: Cocycle,
    levels: Sequence[int],
    keys: Sequence[tuple[int, ...]],
    mc_samples: int = 512,
    streams: Sequence[RandomStream | None] | None = None,
) -> LevelTable:
    """Level averages of the cylinder monomials on ``keys`` at the increasing
    ``levels`` for a block of points, one 0/1 row of ``rows`` each: the one
    place that picks the engine of a level, and the per-point entry point (a
    point is a block of one row, read as ``value(i, 0, 0)`` and
    ``converged(tolerance)[0, 0]``). ValueError unless the levels start at 1
    or above, increase strictly and stay within the rows' window
    (``checked_schedule``), and unless the indices of every key are 1-based,
    strictly increasing and within the window (``checked_keys``). Level by
    level:

    1. the constant cocycle takes the hypergeometric closed form of
       ``closed_form_levels``, exact at every level, from one count of ones
       over the block; its slack is 3 ``level_gap_sd`` (the finite de Finetti
       fluctuation of Diaconis and Freedman, 1980) and its stderr
       k p^(k-1) sqrt(p(1-p)/b), p = m_b/b, both 0 at levels up to S(8).
       ``make_rn`` and ``make_rho_f`` of an exchangeable input return this
       cocycle, so they take the closed form too;
    2. any other cocycle takes ``average_exact`` at levels up to S(8)
       (``EXACT_LEVEL_CAP``), with slack and stderr 0;
    3. above that, log-linear parts (``make_rn`` of an inhomogeneous product
       Bernoulli measure or a mixture of them) take the exact orbit sums of
       ``product_levels``, with their delta-method slack and stderr;
    4. everything else takes ``mc_level_values``: one set of Haar draws per
       level shared by all keys (which keeps r_S >= r_{S u {j}}), drawn for
       each point from its own ``streams`` entry in ascending level order, so
       a point's draws do not depend on the block. Its stderr is the Monte
       Carlo one and the slack of a step 3 times the combined stderr of its
       two levels (``_mc_slacks``). It needs a stream, else ValueError.

    Only Monte Carlo levels read ``mc_samples`` and ``streams``. The
    table's ``converged`` is the limit rule of every caller.
    """
    rows = np.asarray(rows, dtype=np.uint8)
    levels = checked_schedule(levels, rows.shape[1])
    monomials = checked_keys(keys, rows.shape[1])
    if rho.is_constant_one:
        return closed_form_levels(level_counts(rows, levels), rows, levels, keys)
    shape = (len(levels), rows.shape[0], len(keys))
    stderrs = np.zeros(shape)
    methods = level_methods(rho, levels)
    if rho.log_linear is not None:
        values, slacks, stderrs[-1] = product_levels(rows, levels, keys, rho.log_linear)
    else:
        values, slacks = np.zeros(shape), np.zeros(shape)
    points = [tuple(x) for x in rows.tolist()] if "enumeration" in methods else ()
    nums = np.empty(shape, dtype=object)
    for li, n in enumerate(levels):
        if methods[li] == "enumeration":
            for p, x in enumerate(points):
                exact = [average_exact(n, rho, m, x) for m in monomials]
                nums[li, p] = exact
                values[li, p] = [float(v) for v in exact]
    if "monte-carlo" in methods:
        for p, stream in enumerate(streams or [None] * len(rows)):
            for li, n in enumerate(levels):
                if methods[li] == "monte-carlo":
                    if stream is None:
                        raise ValueError("Monte Carlo levels need a random stream")
                    values[li, p], stderrs[li, p] = zip(
                        *mc_level_values(rows[p], n, rho, monomials, mc_samples, stream)
                    )
        slacks = _mc_slacks(stderrs)
    return LevelTable(values, slacks, stderrs, methods, nums)


# (k, x) pairs per ``rho_rows`` call of ``ExactModel.pushed``, a few hundred
# bytes each: S(8) on 256 atoms is 10^7 pairs
_PUSH_ROWS = 1 << 16


class _OrbitClass(NamedTuple):
    label: tuple
    members: list[Config]  # nu's atoms in the class, sorted
    masses: list[Fraction]
    mass: Fraction
    weights: OrbitWeights  # the level orbit of members[0]


class ExactModel:
    """One finite model (rho, nu) of the exact checks and what they share
    across functions phi and level pairs, each part built on first use:

    - ``classes(level)``: nu's atoms in S(level)-orbit classes, with their
      masses and orbit weights (``conditional_expectation_check``);
    - ``pushed(level)``: nu pushed through S(level) with rho as weight
      (``fubini_check``);
    - ``averages(phi)``: exact level averages of phi, one per orbit class
      (``tower_check``).

    A check given no model builds one for its own call; the ``validate``
    suite builds one per model and run, and keeps none past the run.
    """

    def __init__(self, rho: Cocycle, nu: AtomicMeasure):
        self.rho, self.nu = rho, nu
        self.atoms = sorted(nu.atoms.items())
        self._classes: dict[int, list[_OrbitClass]] = {}
        self._pushed: dict[int, tuple[dict[Config, Fraction], bool]] = {}
        self._averages: dict = {}

    def classes(self, level: int) -> list[_OrbitClass]:
        """nu's atoms in S(level)-orbit classes, in label order."""
        if level not in self._classes:
            groups = orbit_classes(self.nu.atoms, level)
            out = []
            for label in sorted(groups):
                members = groups[label]
                masses = [self.nu.atom(x) for x in members]
                mass = Fraction(*_sum_over_lcm(
                    [w.numerator for w in masses], [w.denominator for w in masses]
                ))
                weights = orbit_weights(level, self.rho, members[0])
                out.append(_OrbitClass(label, members, masses, mass, weights))
            self._classes[level] = out
        return self._classes[level]

    def pushed(self, level: int) -> tuple[dict[Config, Fraction], bool]:
        """y -> the sum of rho(k, x) nu(x) over the atoms x and k in S(level)
        with act(k, x) = y, exact (a float rho value enters as its integer
        ratio), and whether every rho value was an int or a Fraction; one
        ``rho_rows`` call per block of whole atoms, up to ``_PUSH_ROWS`` pairs."""
        if level not in self._pushed:
            group = level_rows(level)
            xs = np.array([x for x, _ in self.atoms], dtype=np.uint8).reshape(-1, self.nu.window)
            step = max(1, _PUSH_ROWS // len(group))
            terms: dict[Config, list[tuple[int, int]]] = {}
            exact = True
            for start in range(0, len(xs), step):
                x_rows = np.repeat(xs[start:start + step], len(group), axis=0)
                g_rows = np.tile(group, (len(x_rows) // len(group), 1))
                ys = map(tuple, act_rows(g_rows, x_rows).tolist())
                num, den, flags = rho_rows(self.rho, g_rows, x_rows)
                exact = exact and bool(flags.all())
                for i, (y, r_num, r_den) in enumerate(zip(ys, num, den)):
                    m = self.atoms[start + i // len(group)][1]
                    terms.setdefault(y, []).append((r_num * m.numerator, r_den * m.denominator))
            pushed = {y: Fraction(*_sum_over_lcm(*zip(*t))) for y, t in terms.items()}
            self._pushed[level] = pushed, exact
        return self._pushed[level]

    def averages(self, phi) -> dict[tuple, object]:
        """(level, orbit class label) -> the exact level average of phi on
        that class, filled in by ``tower_check``. Kept per phi object, which
        need not be hashable; the model holds it, so its id stays its own."""
        return self._averages.setdefault(id(phi), (phi, {}))[1]


def _shared(model: ExactModel | None, rho: Cocycle, nu: AtomicMeasure) -> ExactModel:
    """model, or a new one for a single check; ValueError when model is of
    another cocycle or measure."""
    if model is None:
        return ExactModel(rho, nu)
    if model.rho is not rho or model.nu is not nu:
        raise ValueError("the shared model is of another cocycle or measure")
    return model


@dataclass(frozen=True)
class TowerReport:
    ok: bool
    pairs_checked: int
    witness: tuple | None


def tower_check(
    m: int, n: int, rho: Cocycle, phi, nu: AtomicMeasure, model: ExactModel | None = None,
) -> TowerReport:
    """Verify A_m(A_n phi) == A_m phi on every positive atom, exactly where
    both sides are rational and within the rounding of a float rho or phi
    otherwise (``cocycles._values_agree``).

    Exactness is guaranteed because every cocycle is potential-backed:
    coarser orbits decompose into finer orbit blocks and the weighted sums
    telescope. Both sides are orbit sums over the S(m) orbit of the atom, the
    same for every atom of a class, so each class's (lhs, rhs) pair is
    computed once, keyed by ``orbit_class_key``; an atom where rho's
    potential is 0 takes its own orbit sums, which rescale or raise there.
    A_n phi and A_m phi are kept per class in ``model.averages(phi)``, so the
    level pairs checked on one model compute each once. Atoms are walked in
    sorted order, so ``pairs_checked`` and the witness are those of the
    per-atom check.
    """
    if not (1 <= n <= m <= EXACT_LEVEL_CAP):
        raise CapacityError(f"tower check requires 1 <= n <= m <= {EXACT_LEVEL_CAP}")
    model = _shared(model, rho, nu)
    averages = model.averages(phi)

    def average(level: int, y: Config):
        key = (level, orbit_class_key(y, level))
        if key not in averages:
            averages[key] = average_exact(level, rho, phi, y)
        return averages[key]

    def inner(y: Config):
        return average(n, y)

    lhs_of: dict[tuple, object] = {}
    checked = 0
    for x, _ in model.atoms:
        if rho.potential(x) == 0:
            lhs, rhs = average_exact(m, rho, inner, x), average_exact(m, rho, phi, x)
        else:
            rhs = average(m, x)
            key = orbit_class_key(x, m)
            if key not in lhs_of:
                lhs_of[key] = average_exact(m, rho, inner, x)
            lhs = lhs_of[key]
        checked += 1
        if not _values_agree(lhs, rhs):
            return TowerReport(ok=False, pairs_checked=checked, witness=(x, lhs, rhs))
    return TowerReport(ok=True, pairs_checked=checked, witness=None)


@dataclass(frozen=True)
class ConditionalExpectationReport:
    ok: bool
    classes: int
    sets_checked: int
    witness: tuple | None


def orbit_class_key(x: Config, level: int) -> tuple:
    """Canonical label of the S(level)-orbit of a window configuration."""
    return (tuple(sorted(x[:level])), x[level:])


def orbit_classes(configs: Iterable[Config], level: int) -> dict[tuple, list[Config]]:
    """The configurations grouped into S(level)-orbit classes, keyed by
    ``orbit_class_key``. Members are sorted and classes come in the order of
    their first member, which need not be the order of their keys."""
    classes: dict[tuple, list[Config]] = {}
    for x in sorted(configs):
        classes.setdefault(orbit_class_key(x, level), []).append(x)
    return classes


def conditional_expectation_check(
    level: int, rho: Cocycle, phi, nu: AtomicMeasure, model: ExactModel | None = None
) -> ConditionalExpectationReport:
    """Verify on every S(level)-invariant union A of orbit classes

        integral_A phi d nu == integral_A (level average of phi) d nu

    exactly. Both sides are additive over the classes in A, so the identity
    holds on all 2^c unions iff each per-class difference is 0. The report
    matches a sweep of the unions in binary order: on success
    ``sets_checked`` is 2^c; otherwise the first failing union is the
    singleton of the first nonzero class i, reached after 2^i + 1 unions.
    Each class's integrals of phi and of 1 are exact sums over the lcm of
    their terms' denominators. The classes, their masses and orbit weights
    come from ``model.classes(level)``, so only phi's values are computed
    per call.
    """
    classes = _shared(model, rho, nu).classes(level)
    for i, cls in enumerate(classes):
        lhs = Fraction(*_exact_dot(zip([_exact(phi(x)) for x in cls.members], cls.masses)))
        rhs = cls.weights.average(phi) * cls.mass
        if not _values_agree(lhs, rhs):
            return ConditionalExpectationReport(
                ok=False, classes=len(classes), sets_checked=2**i + 1,
                witness=([cls.label], lhs - rhs),
            )
    return ConditionalExpectationReport(
        ok=True, classes=len(classes), sets_checked=2 ** len(classes), witness=None
    )


@dataclass(frozen=True)
class FubiniReport:
    lhs: Fraction
    rhs: Fraction
    exact: bool  # no phi, rho or nu value was a float

    @property
    def ok(self) -> bool:
        return _values_agree(self.lhs if self.exact else float(self.lhs), self.rhs)


def fubini_check(
    level: int, rho: Cocycle, phi, nu: AtomicMeasure, model: ExactModel | None = None
) -> FubiniReport:
    """Exact product-measure identity on a finite model:

        (1/level!) sum_x sum_k phi(act(k,x)) rho(k,x) nu(x) == sum_x phi(x) nu(x)

    whenever nu has Radon-Nikodym cocycle rho on the window. The left side
    is sum_y phi(y) W(y) / level!, W = ``model.pushed(level)``, so phi is
    read once per configuration. Values enter exactly (a float as its
    Fraction), and each side is one integer sum over the lcm of its terms'
    denominators. The report remembers whether a float entered, so that
    ``ok`` compares the sides within its rounding.
    """
    model = _shared(model, rho, nu)
    pushed, exact = model.pushed(level)
    moved = [phi(y) for y in pushed]
    own = [(phi(x), m) for x, m in model.atoms]
    exact = exact and all(isinstance(p, _EXACT) for p in moved + [p for p, _ in own])
    num, lcm = _exact_dot(zip(map(_exact, moved), pushed.values()))
    rhs = Fraction(*_exact_dot((_exact(p), m) for p, m in own))
    return FubiniReport(lhs=Fraction(num, lcm * math.factorial(level)), rhs=rhs, exact=exact)


def invariance_check(level: int, rho: Cocycle, phi, x: Config):
    """The level average is constant along the level orbit of x."""
    base = average_exact(level, rho, phi, x)
    for k in enumerate_level(level):
        moved = average_exact(level, rho, phi, act(k, x))
        if moved != base:
            return False, (k, base, moved)
    return True, None
