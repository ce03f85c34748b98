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
exact float orbit sum over a batch of points; everything else takes
self-normalized Monte Carlo over Haar draws (``haar_rows``), weighted by the
cocycle's potential. ``level_table`` is the one place that picks among
these engines for cylinder monomials; ``pi_phi``, ``decompose``,
``ergodicity_test``, ``limit_average`` and the ``orbital`` scan call it. Its
result, a ``LevelTable`` (``closed_form_levels`` returns one too), carries
values, slacks and stderrs, and ``LevelTable.converged`` is the one limit
rule all of them apply. If the denominator were infinite the average is
defined to be 0; that branch is unreachable for finite levels but kept for
interface fidelity.

Exact evaluation up to S(8) (``average_exact``) is one orbit sum weighted by
the cocycle's potential u: every cocycle is u(gx)/u(x), so each coset of the
stabilizer of x contributes the same block and the sum over the orbit equals
the sum over the group. The test suite checks it, and the closed form, against
its own enumeration of the group.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .cocycles import Cocycle, constant_one
from .dictionary import CylinderMonomial
from .errors import CapacityError, ZeroMassError
from .groups import ENUMERATION_CAP, Config, act, enumerate_level, level_orbit
from .measures import AtomicMeasure, LogLinearParts
from .rng import RandomStream

EXACT_LEVEL_CAP = ENUMERATION_CAP


@dataclass(frozen=True)
class AveragingReport:
    value: object  # Fraction for exact, float for exact orbit sums and monte-carlo
    level: int
    method: str  # "exact" | "monte-carlo"
    stderr: float
    sample_count: int

    def __post_init__(self):
        if self.method == "exact" and self.stderr != 0:
            raise ValueError("exact averages carry stderr 0")


@dataclass(frozen=True)
class LimitReport:
    levels: tuple[AveragingReport, ...]
    converged: bool
    limit_estimate: Optional[float]
    last_diff: float
    threshold: float
    tolerance: float

    def rows(self) -> list[tuple[int, float, float]]:
        """CSV-ready (level, value, stderr) series."""
        return [(r.level, float(r.value), float(r.stderr)) for r in self.levels]


def _ratio_or_zero(num, den):
    # The infinite-denominator branch of the averaging formula.
    if den == math.inf:
        return Fraction(0)
    if den == 0:
        raise ZeroMassError("averaging denominator vanished")
    return num / den


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
        S(8), and above S(8) only where the entry cannot move."""
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


# Newton chunks hold at most about this many floats per (points x
# components x coordinates) array, so memory does not grow with the block.
# 128 KB arrays kept the quasi-invariant benchmark's peak RSS at the
# per-point kernel's; 512 KB ones raised it by about 2 MB.
_NEWTON_FLOATS = 1 << 14


def _tilted_inclusion(logit: np.ndarray, m: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Tilted inclusion probabilities of the orbits with m[p] ones among the
    coordinates of ``logit`` (components x n), one row per point p:
    pi_pi = sum_c q_pc sigma(lam_pc + logit_ci), where lam_pc solves
    sum_i sigma(lam_pc + logit_ci) = m[p] (Hajek's approximation to
    conditional-Poisson sampling) and q_pc is the component's share of the
    point's orbit mass. Constant parameters give pi_pi = m[p]/n.

    The Newton steps run on all the points at once; a point leaves at the
    step where its own test passes (or the 200th), so it takes the steps it
    would take alone. The target (Python's log) and q_p @ pi_p stay per
    point, which keeps their bits too.
    """
    n = logit.shape[1]
    out = np.empty((m.shape[0], n))
    edge = (m == 0) | (m == n)
    out[edge] = (m[edge] == n)[:, None]
    live = np.flatnonzero(~edge)
    target = np.array([math.log(k / (n - k)) for k in m[live].tolist()]).reshape(-1, 1)
    ones, q = m[live, None], q[live]
    # sigma is increasing, so lam = target - max logit undershoots m and
    # target - min logit overshoots it: Newton steps stay in that bracket,
    # with bisection when a step would leave it.
    lo, hi = target - logit.max(axis=1), target - logit.min(axis=1)
    lam = target - logit.mean(axis=1)
    for it in range(200):
        if not live.size:
            break
        pi = 1.0 / (1.0 + np.exp(-(lam[:, :, None] + logit)))
        f = pi.sum(axis=2) - ones
        done = np.all(np.abs(f) <= 1e-12 * n, axis=1) | (it == 199)
        if done.any():
            for p in np.flatnonzero(done):
                out[live[p]] = q[p] @ pi[p]
            keep = ~done
            live, ones, q, pi, f, lam, lo, hi = (
                v[keep] for v in (live, ones, q, pi, f, lam, lo, hi)
            )
        lo, hi = np.where(f < 0, lam, lo), np.where(f > 0, lam, hi)
        step = lam - f / (pi * (1.0 - pi)).sum(axis=2)
        lam = np.where((step > lo) & (step < hi), step, 0.5 * (lo + hi))
    return out


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
    prod_(T) t e_(m-|T|)(t off H), and the tables of e_j(t off H) depend on
    the measure and the levels only (``_esp_log_tables``, memoised on the
    parts). The sums over T run on arrays over the points; the tail dot
    product stays one matrix-vector product per point and level, since a
    matrix-matrix product over the points rounds differently.

    Returns ``(values, slacks, stderrs)`` indexed [level, point, key] and
    [point, key] as in ``LevelTable`` (the empty key is exactly 1.0),
    with this slack and stderr, by the delta method through the tilted
    inclusion probabilities pi_i at level b (``_tilted_inclusion``),
    V_A = sum_(i in A) pi_i (1 - pi_i), c_S = prod_(S') pi_i sum_(S') (1 - pi_i):

    - slack 3 c_S sqrt(b (V_b - V_a) / ((b - 1) V_a V_b)) for the step
      a -> b, b > 8 (0 otherwise);
    - stderr c_S / sqrt(V_b) at the last level b > 8 (0 otherwise).

    With constant parameters pi_i = m_b/b and these are exactly
    3 ``level_gap_sd`` and the stderr of ``closed_form_levels``.
    """
    bits = np.asarray(bits, dtype=np.uint8)
    if levels[-1] > bits.shape[1]:
        raise ValueError("level exceeds the configuration window")
    held_all = tuple(sorted({i for key in keys for i in key}))
    memo = (held_all, tuple(levels))
    if memo not in parts.tables:
        parts.tables[memo] = _esp_log_tables(parts.logit, held_all, levels)
    comps, points = parts.logit.shape[0], bits.shape[0]
    shape = (len(levels), points, len(keys))
    values, slacks, stderrs = np.zeros(shape), np.zeros(shape), np.zeros(shape[1:])
    counts, tails = level_counts(bits, levels).T, np.empty(shape[:2] + (comps,))
    for p, x in enumerate(bits):
        xf = x.astype(np.float64)
        for li, n in enumerate(levels):
            tails[li, p] = parts.logit[:, n:] @ xf[n:]
    a = None
    for li, (n, log_e, m) in enumerate(zip(levels, parts.tables[memo], counts)):
        held = [i for i in held_all if i <= n]
        masks = (np.arange(2 ** len(held))[:, None] >> np.arange(len(held))) & 1
        j = m[:, None] - masks.sum(axis=1)
        valid = (j >= 0) & (j < log_e.shape[1])
        log_g = (
            (parts.const + tails[li])[:, :, None]
            + parts.logit[:, [i - 1 for i in held]] @ masks.T
            + log_e[:, np.where(valid, j, 0)].transpose(1, 0, 2)
        )
        log_g = np.where(valid[:, None, :], log_g, -np.inf)
        g = np.exp(log_g - log_g.max(axis=(1, 2))[:, None, None])
        per_subset = g.sum(axis=1)
        den = per_subset.sum(axis=1)
        moved = [[i for i in key if i <= n] for key in keys]
        # active: the key moves a coordinate and has no 0 above n
        active = np.tile([bool(s) for s in moved], (points, 1))
        for k, (key, s) in enumerate(zip(keys, moved)):
            alive = np.all(bits[:, [i - 1 for i in key if i > n]] != 0, axis=1)
            active[:, k] &= alive
            holds = masks[:, [held.index(i) for i in s]].all(axis=1)
            # a row-major copy, so each row is summed as one point's array is
            v = np.ascontiguousarray(per_subset[:, holds]).sum(axis=1) / den
            values[li, :, k] = np.where(alive, np.where(v < 1.0, v, 1.0), 0.0)
        # level b's pi serves the step a -> b and the last level's stderr
        wanted = n > EXACT_LEVEL_CAP and (a is not None or li == len(levels) - 1)
        solve = np.flatnonzero(active.any(axis=1) & wanted)
        q = g.sum(axis=2) / den[:, None]
        chunk = max(1, _NEWTON_FLOATS // (comps * n))
        for rows in np.split(solve, range(chunk, solve.size, chunk)):
            pi = _tilted_inclusion(parts.logit[:, :n], m[rows], q[rows])
            cum = np.cumsum(pi * (1.0 - pi), axis=1)
            coef = np.zeros((rows.size, len(keys)))
            for k, s in enumerate(moved):
                cols = [pi[:, i - 1] for i in s]
                coef[:, k] = math.prod(cols) * sum(1.0 - c for c in cols) if s else 0.0
            coef[~active[rows]] = 0.0
            v_b = cum[:, n - 1 : n]
            with np.errstate(divide="ignore", invalid="ignore"):
                if a is not None:
                    v_a = cum[:, a - 1 : a]
                    gap = np.sqrt(n * (v_b - v_a) / ((n - 1) * v_a * v_b))
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


def _orbit_collapsed_average(level: int, rho: Cocycle, phi, x: Config):
    potential = rho.potential
    ux = potential(x)
    if ux == 0:
        potential = _rescaled_potential(rho, ux, x, level)
    num = Fraction(0)
    den = Fraction(0)
    for y in level_orbit(x, level):
        u = potential(y)
        den += u
        if u != 0:
            num += phi(y) * u
    return _ratio_or_zero(num, den)


def average_exact(level: int, rho: Cocycle, phi, x: Config) -> AveragingReport:
    """Exact level average, one orbit sum weighted by the cocycle's
    potential; capacity error above S(8). It draws no samples, so its
    ``sample_count`` is 0."""
    if level > EXACT_LEVEL_CAP:
        raise CapacityError(
            f"exact averaging is capped at level {EXACT_LEVEL_CAP}; got {level}"
        )
    if level < 1:
        raise ValueError("level must be >= 1")
    if level > len(x):
        raise ValueError("level exceeds the configuration window")
    return AveragingReport(
        value=_orbit_collapsed_average(level, rho, phi, x),
        level=level,
        method="exact",
        stderr=0.0,
        sample_count=0,
    )


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


def average_mc(
    level: int,
    rho: Cocycle,
    phi,
    x: Config,
    samples: int,
    rng: RandomStream | None,
) -> AveragingReport:
    """Self-normalized importance estimate of the level average over Haar
    rows, weighted by the cocycle's potential; ValueError without a random
    stream."""
    if rng is None:
        raise ValueError("Monte Carlo levels need a random stream")
    x_bits = np.array(x, dtype=np.uint8)
    if isinstance(phi, CylinderMonomial):
        ((est, se),) = mc_level_values(x_bits, level, rho, [phi], samples, rng)
    else:
        rows, w = _weighted_haar_rows(x_bits, level, rho, samples, rng)
        v = np.array([float(phi(tuple(int(b) for b in r))) for r in rows])
        est, se = _self_normalized(v, w)
    return AveragingReport(
        value=est, level=level, method="monte-carlo", stderr=se, sample_count=samples
    )


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
    place that picks the engine of a level. Level by level:

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
    if rho.is_constant_one:
        return closed_form_levels(level_counts(rows, levels), rows, levels, keys)
    shape = (len(levels), rows.shape[0], len(keys))
    stderrs = np.zeros(shape)
    top = "product" if rho.log_linear is not None else "monte-carlo"
    methods = tuple("enumeration" if n <= EXACT_LEVEL_CAP else top for n in levels)
    if top == "product":
        values, slacks, stderrs[-1] = product_levels(rows, levels, keys, rho.log_linear)
    else:
        values, slacks = np.zeros(shape), np.zeros(shape)
    monomials = [CylinderMonomial(key) for key in keys]
    points = [tuple(x) for x in rows.tolist()] if "enumeration" in methods else ()
    nums = np.empty(shape, dtype=object)
    for li, n in enumerate(levels):
        if methods[li] == "enumeration":
            for p, x in enumerate(points):
                exact = [average_exact(n, rho, m, x).value for m in monomials]
                nums[li, p] = exact
                values[li, p] = [float(v) for v in exact]
    if top == "monte-carlo":
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


def limit_average(
    rho: Cocycle,
    phi,
    x: Config,
    schedule: Sequence[int],
    tolerance: float = 1e-3,
    mc_samples: int = 512,
    rng: RandomStream | None = None,
) -> LimitReport:
    """Track level averages along a schedule and detect the limit.

    The levels of x form a one-point, one-key ``LevelTable``, and its
    ``converged`` decides: the last two levels differ by less than
    tolerance + slack, or, on a one-level schedule, that level has stderr 0
    in the table (an exact level above S(8) has its sd about the limit
    there, 0 only where the entry cannot move). Non-convergence is a
    legitimate outcome and is reported as such, never masked. A cylinder
    monomial takes its table from ``level_table``, whose docstring gives
    the engine, slack and stderr of each level: Monte Carlo levels are
    reported as "monte-carlo" with their stderr and sample count, every
    other level as "exact" with stderr 0 and 0 samples. Any other phi takes
    ``average_exact`` up to S(8) and ``average_mc`` above, with the Monte
    Carlo slack of ``level_table``.
    """
    sched = checked_schedule(schedule, len(x))
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    if isinstance(phi, CylinderMonomial):
        table = level_table(
            np.asarray(x, dtype=np.uint8)[None, :], rho, sched, [phi.indices],
            mc_samples, [rng],
        )
        reports = [_level_report(table, i, n, mc_samples) for i, n in enumerate(sched)]
    else:
        reports = [
            average_exact(n, rho, phi, x) if n <= EXACT_LEVEL_CAP
            else average_mc(n, rho, phi, x, mc_samples, rng)
            for n in sched
        ]
        stderrs = np.array([[[r.stderr]] for r in reports])
        table = LevelTable(
            np.array([[[float(r.value)]] for r in reports]), _mc_slacks(stderrs), stderrs,
            tuple("enumeration" if r.method == "exact" else r.method for r in reports),
            np.array([[[r.value]] for r in reports], dtype=object),
        )
    converged = bool(table.converged(tolerance)[0, 0])
    values = table.values[:, 0, 0].tolist()
    return LimitReport(
        levels=tuple(reports),
        converged=converged,
        limit_estimate=values[-1] if converged else None,
        last_diff=abs(values[-1] - values[-2]) if len(values) > 1 else 0.0,
        threshold=tolerance + float(table.slacks[-1, 0, 0]),
        tolerance=tolerance,
    )


def _level_report(table: LevelTable, i: int, level: int, mc_samples: int) -> AveragingReport:
    """Level i of a one-point, one-key ``LevelTable`` as an ``AveragingReport``."""
    method, value = table.methods[i], table.value(i, 0, 0)
    if method == "monte-carlo":
        stderr = float(table.stderrs[i, 0, 0])
        return AveragingReport(value, level, method, stderr, mc_samples)
    return AveragingReport(value, level, "exact", 0.0, 0)


@dataclass(frozen=True)
class TowerReport:
    ok: bool
    pairs_checked: int
    witness: tuple | None


def tower_check(
    m: int, n: int, rho: Cocycle, phi, nu: AtomicMeasure, level_cap: int = 5
) -> TowerReport:
    """Verify A_m(A_n phi) == A_m phi exactly on every positive atom.

    Exactness is guaranteed because every cocycle is potential-backed:
    coarser orbits decompose into finer orbit blocks and the weighted sums
    telescope.
    """
    if not (1 <= n <= m <= level_cap):
        raise CapacityError(f"tower check requires 1 <= n <= m <= {level_cap}")

    cache: dict[tuple, object] = {}

    def inner(y: Config):
        key = (tuple(sorted(y[:n])), y[n:])
        if key not in cache:
            cache[key] = average_exact(n, rho, phi, y).value
        return cache[key]

    checked = 0
    for x in sorted(nu.atoms):
        lhs = average_exact(m, rho, inner, x).value
        rhs = average_exact(m, rho, phi, x).value
        checked += 1
        if lhs != rhs:
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


def conditional_expectation_check(
    level: int, rho: Cocycle, phi, nu: AtomicMeasure
) -> ConditionalExpectationReport:
    """Verify on every S(level)-invariant union A of orbit classes

        integral_A phi d nu == integral_A (level average of phi) d nu

    exactly. Both sides are additive over the classes in A, so the identity
    holds on all 2^c unions iff each per-class difference is 0. The report
    matches a sweep of the unions in binary order: on success
    ``sets_checked`` is 2^c; otherwise the first failing union is the
    singleton of the first nonzero class i, reached after 2^i + 1 unions.
    """
    classes: dict[tuple, list[Config]] = {}
    for x in sorted(nu.atoms):
        classes.setdefault(orbit_class_key(x, level), []).append(x)
    labels = sorted(classes)
    c = len(labels)
    diffs = []
    for key in labels:
        members = classes[key]
        val = average_exact(level, rho, phi, members[0]).value
        lhs = sum((Fraction(phi(x)) * nu.atom(x) for x in members), Fraction(0))
        mass = sum((nu.atom(x) for x in members), Fraction(0))
        diffs.append(lhs - val * mass)
    for i, diff in enumerate(diffs):
        if diff != 0:
            return ConditionalExpectationReport(
                ok=False, classes=c, sets_checked=2**i + 1, witness=([labels[i]], diff)
            )
    return ConditionalExpectationReport(ok=True, classes=c, sets_checked=2**c, witness=None)


@dataclass(frozen=True)
class FubiniReport:
    lhs: Fraction
    rhs: Fraction

    @property
    def ok(self) -> bool:
        return self.lhs == self.rhs


def fubini_check(level: int, rho: Cocycle, phi, nu: AtomicMeasure) -> FubiniReport:
    """Exact product-measure identity on a finite model:

        (1/level!) sum_x sum_k phi(act(k,x)) rho(k,x) nu(x) == sum_x phi(x) nu(x)

    whenever nu has Radon-Nikodym cocycle rho on the window.
    """
    order = math.factorial(level)
    lhs = Fraction(0)
    for x, m in sorted(nu.atoms.items()):
        for k in enumerate_level(level):
            lhs += Fraction(phi(act(k, x))) * Fraction(rho(k, x)) * m
    lhs /= order
    rhs = sum(
        (Fraction(phi(x)) * m for x, m in sorted(nu.atoms.items())), Fraction(0)
    )
    return FubiniReport(lhs=lhs, rhs=rhs)


def invariance_check(level: int, rho: Cocycle, phi, x: Config):
    """The level average is constant along the level orbit of x."""
    base = average_exact(level, rho, phi, x).value
    for k in enumerate_level(level):
        moved = average_exact(level, rho, phi, act(k, x)).value
        if moved != base:
            return False, (k, base, moved)
    return True, None
