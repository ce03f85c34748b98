"""Limit statistics, empirical decomposing measures, and exact conditional
measures on atomic models.

The limit statistic of a point is the vector of detected limits of its level
averages over the test dictionary. Points of an exchangeable model cluster by
their first-moment limit; cluster weights and centers recover the mixing
measure (de Finetti). On exact atomic models the level sets of the full-depth
statistic are the full-window orbit classes, and each carries its canonical
conditional measure: nu restricted to the class and normalized. These cells
are the ``exact-ergodic-decomposition`` verdict of ``validate``. On nu's
support, an invariant set of a window model is a union of them, and an
atomic eta is ergodic exactly when it has one cell, with ``rn_verified``
and ``support_orbit_closed``. ``ergodicity_test`` is the sampled criterion,
one path for every input: limit averages of probes against space averages.

Under the constant cocycle the statistic of a point depends on its bits only
through its first coordinates (up to the dictionary width) and its ones
counts at the evaluated levels. When nu is exchangeable, ``decompose`` draws
exactly those from one stream, all points at once: each point's de Finetti
parameter p, its first bits as Bernoulli(p), and one Binomial(n_i - n_(i-1),
p) per gap between levels past them. Given p the bits are independent
Bernoulli(p), so these are independent pieces of disjoint blocks of the
window, with the law the full window gives them. Every other input draws
its points from one stream of its own, in blocks of 512 points, by
``sample_rows``, the one row sampler of every measure; ``ergodicity_test``
draws its probes the same way, as one block. Only Monte Carlo levels draw
from a child stream per point. Both paths run in one process and read no
worker count: the CLI's worker-count flag is accepted by every subcommand
and changes nothing.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import partial
from typing import Optional, Sequence

import numpy as np

from . import measures
from .averaging import (
    average_exact,  # noqa: F401  (bench/tracing.py wraps this binding)
    checked_schedule,
    closed_form_levels,
    level_methods,
    level_table,
    mc_level_values,  # noqa: F401  (bench/tracing.py wraps this binding)
    monomial_level_average,  # noqa: F401  (bench/tracing.py wraps this binding)
    orbit_classes,
)
from .cocycles import Cocycle, _values_agree, rho_rows
from .dictionary import TestDictionary
from .errors import NonConvergenceError
from .groups import act_rows, haar_sample
from .measures import (
    AtomicMeasure,
    Cylinder,
    Mixture,
    ProductBernoulli,
    expectation_monomial,
    rn_derivative,
)
from .rng import RandomStream, substream


@dataclass(frozen=True)
class LimitStatistic:
    """Vector of detected limits of level averages, one entry per monomial."""

    values: dict[tuple[int, ...], object]  # Fraction (exact) or float
    stderrs: dict[tuple[int, ...], float]
    converged: dict[tuple[int, ...], bool]
    schedule: tuple[int, ...]
    mc_samples: int
    tolerance: float

    def r(self, indices: Sequence[int]):
        return self.values[tuple(indices)]

    @property
    def all_converged(self) -> bool:
        return all(self.converged.values())


def pi_phi(
    x,
    rho: Cocycle,
    dictionary: TestDictionary,
    schedule: Sequence[int] | None = None,
    tolerance: float = 1e-3,
    mc_samples: int = 512,
    rng: RandomStream | None = None,
) -> LimitStatistic:
    """Entrywise limit detection over the dictionary.

    The limit rule (``LevelTable.converged``) reads only the last two
    schedule levels a < b, so only those are evaluated; the statistic still
    records the whole schedule. A point's entry converges when
    |r(b) - r(a)| < tolerance + slack, or, on a one-level schedule, when
    that level's stderr is 0; its value is the last level's: the exact value
    where that level is exact (a ``Fraction`` under the constant cocycle),
    else a float. The point is a batch of one for ``averaging.level_table``,
    whose docstring gives the engine of each level with its slack and
    stderr; ``decompose`` evaluates whole blocks of points through it, with
    the same bits, unless nu is exchangeable under the constant cocycle.
    Only Monte Carlo levels read ``mc_samples`` and ``rng``.
    """
    x_bits = np.asarray(x, dtype=np.uint8)
    sched = checked_schedule(schedule, x_bits.shape[0])
    keys = [m.indices for m in dictionary.entries]
    table = level_table(x_bits[None, :], rho, sched[-2:], keys, mc_samples, [rng])
    converged = table.converged(tolerance)
    return LimitStatistic(
        values={k: table.value(-1, 0, j) for j, k in enumerate(keys)},
        stderrs=dict(zip(keys, table.stderrs[-1, 0].tolist())),
        converged=dict(zip(keys, converged[0].tolist())),
        schedule=sched,
        mc_samples=mc_samples,
        tolerance=tolerance,
    )


@dataclass(frozen=True)
class DecomposeConfig:
    """Settings of ``decompose``, which runs in one process: the CLI's
    worker-count flag has no field here and changes nothing."""

    samples: int = 2000
    schedule: Optional[tuple[int, ...]] = None
    tolerance: float = 0.02
    # Haar draws per Monte Carlo level; the constant cocycle (also that of
    # exchangeable inputs) and product potentials draw none.
    mc_samples: int = 400
    depth: int = 2
    width: int = 2
    min_gap: float = 0.05
    mode: str = "finite"  # "finite" (gap clustering) or "continuous" (empirical CDF)
    seed: int = 0
    nonconvergence_threshold: float = 0.01
    residual_depth: int = 3


@dataclass(frozen=True)
class DecomposingMeasure:
    """Empirical measure over ergodic-component labels with representatives."""

    mode: str
    labels: tuple[str, ...]
    weights: tuple[float, ...]
    centers: tuple[float, ...]
    counts: tuple[int, ...]
    representatives: tuple
    spreads: tuple[float, ...]
    admissible: bool
    non_converged_fraction: float
    r1_values: np.ndarray
    statistic_keys: tuple[tuple[int, ...], ...]
    statistics: np.ndarray  # samples x len(statistic_keys)
    schedule: tuple[int, ...]
    mc_samples: int
    barycenter_residual: Optional[float] = None
    barycenter_residual_sd: Optional[float] = None

    @property
    def components(self) -> int:
        return len(self.labels)


def split_by_gaps(values: np.ndarray, min_gap: float) -> list[np.ndarray]:
    """Split sorted 1-D values into clusters at gaps >= min_gap.

    The comparison absorbs binary-float error so values lying exactly min_gap
    apart (as decimals) are split.
    """
    order = np.argsort(values, kind="stable")
    sv = values[order]
    cut = min_gap * (1.0 - 1e-9)
    return np.split(order, np.flatnonzero(np.diff(sv) >= cut) + 1)


def _point_block(nu, rho: Cocycle, dictionary: TestDictionary, schedule, tolerance: float,
                 mc_samples: int, seed: int, indices: Sequence[int], rng: RandomStream):
    """Limit statistics ``(vals, ses, conv)`` for a block of point
    indices, rows in index order: ``LevelTable.converged`` on a
    ``level_table`` of the block, as in ``pi_phi``. This is the one point
    path of ``decompose`` (blocks of 512 from ``substream(seed, 0xD0, 0)``)
    and of ``ergodicity_test`` (its probes as one block from
    ``substream(seed, 0xE6, 0)``).

    The block's points are the next ``len(indices)`` rows of
    ``nu.sample_rows`` on ``rng``. A row's draws do not depend on the rows
    drawn with it, so blocks drawn in index order from one stream give every
    point the row it has in a single block. Only Monte Carlo levels need a
    stream per point: point i draws them from ``substream(seed, i)``, and
    that stream is built only when some level is Monte Carlo.
    """
    keys = [m.indices for m in dictionary.entries]
    levels = checked_schedule(schedule, nu.window)[-2:]
    rows = nu.sample_rows(rng, len(indices))
    streams = None
    if "monte-carlo" in level_methods(rho, levels):
        streams = [substream(seed, i) for i in indices]
    table = level_table(rows, rho, levels, keys, mc_samples, streams)
    return table.values[-1], table.stderrs[-1], table.converged(tolerance)


def directed_statistics(
    p: np.ndarray, head: int, levels: Sequence[int], rng: RandomStream
) -> tuple[np.ndarray, np.ndarray]:
    """``(counts, heads)`` for ``closed_form_levels`` of points whose bits
    are independent Bernoulli(p[i]) given p: the first ``head`` bits of each
    point, then the ones counts at the increasing ``levels``.

    Levels within the head count its bits. Past the head, the count grows by
    one Binomial(n_i - n_(i-1), p) per gap between consecutive levels (the
    first gap starts at the head), drawn in level order: the ones among a
    block of k independent Bernoulli(p) bits are Binomial(k, p), and disjoint
    blocks are independent given p, so the pair has the law the full window
    gives it.
    """
    heads = (rng.random((p.shape[0], head)) < p[:, None]).astype(np.uint8)
    counts = np.empty((p.shape[0], len(levels)), dtype=np.int64)
    ones, edge = heads.sum(axis=1, dtype=np.int64), head
    for i, n in enumerate(levels):
        if n <= head:
            counts[:, i] = heads[:, :n].sum(axis=1, dtype=np.int64)
        else:
            ones = ones + rng.binomial(n - edge, p)
            counts[:, i], edge = ones, n
    return counts, heads


def _is_own_rn(nu, rho: Cocycle) -> bool:
    """Whether rho is ``make_rn(nu)`` of this very nu (compared with ``is``):
    its ratio is nu's own ``rn_derivative`` method bound to nu, or
    ``measures.rn_derivative`` partially applied to nu."""
    fn = rho.eval_fn
    if isinstance(fn, partial):
        return (fn.func is measures.rn_derivative and len(fn.args) == 1
                and fn.args[0] is nu and not fn.keywords)
    return (getattr(fn, "__self__", None) is nu
            and getattr(fn, "__func__", None) is getattr(type(nu), "rn_derivative", None))


def _validate_cocycle_agreement(nu, rho: Cocycle, seed: int):
    """Spot-check on 8 samples that nu's atom-ratio cocycle agrees with rho
    (``_values_agree``).
    Each sample is a point, ``nu.sample_rows(stream, 1)[0]`` as a tuple,
    then a Haar permutation of S(min(6, window)), in turn from
    ``substream(seed, 0xC0C)``. ``decompose`` skips the check where it
    cannot fail: the constant cocycle with an exchangeable nu, and rho =
    ``make_rn(nu)`` (``_is_own_rn``), whose ratio is the very
    ``rn_derivative(nu, g, x)`` it would be compared with."""
    stream = substream(seed, 0xC0C)
    level = min(6, nu.window)
    for _ in range(8):
        x = tuple(nu.sample_rows(stream, 1)[0].tolist())
        g = haar_sample(level, stream)
        lhs = rn_derivative(nu, g, x)
        rhs = rho(g, x)
        if not _values_agree(lhs, rhs):
            raise ValueError(f"measure is not in the cocycle class: {lhs} != {rhs}")


def _representative(center: float, window: int):
    """The homogeneous product at first-moment limit ``center``: the point
    mass on all ones or all zeros when the center is within 1e-12 of 1 or 0."""
    if 1e-12 < center < 1 - 1e-12:
        return ProductBernoulli.homogeneous(center, window)
    bit = 1 if center >= 0.5 else 0
    return AtomicMeasure({tuple([bit] * window): Fraction(1)})


def decompose(nu, rho: Cocycle, config: DecomposeConfig) -> DecomposingMeasure:
    """Sample M points, compute limit statistics, and group them into
    ergodic components.

    Only the last two schedule levels are evaluated (``LevelTable.converged``
    reads no others). Under the constant cocycle with an exchangeable nu the
    statistics come from ``directed_statistics`` of the points' de Finetti
    parameters (``nu.directing_sample``), all drawn from one stream,
    ``substream(seed, 0xDF)``, and evaluated by ``closed_form_levels`` in one
    call: the closed form reads only the first coordinates and the ones
    counts, and these have the law the full window gives them. Every other
    input is drawn in blocks of 512 points (``_point_block``), all rows from
    one stream, ``substream(seed, 0xD0, 0)``, by ``nu.sample_rows`` in point
    order; Monte Carlo levels draw from ``substream(seed, i)`` for point i.
    The split changes no output. Both paths run in one process.

    Finite mode groups by 1-D gaps on the first-moment limit; each
    component's representative is the homogeneous product at its center
    (``_representative``), and the barycenter residual and its sd are
    filled in. Continuous mode keeps the empirical distribution of that
    limit, with no components and no residual. Any other mode is a
    ValueError, and so, in finite mode, are ``min_gap`` <= 0 and
    ``residual_depth`` < 1. Aborts when more than the configured fraction
    of points fails limit detection.

    Every input but two first runs the spot-check that nu's atom-ratio
    cocycle agrees with rho (``_validate_cocycle_agreement``, 8 draws from
    ``substream(seed, 0xC0C)``; ValueError if not). The exceptions are where the check cannot
    fail. One is the closed-form case, the constant cocycle with an
    exchangeable nu: nu declares ``exchangeable`` from its own parameters
    (one product parameter, exchangeable components, a Beta mixing law), so
    an atom's mass depends only on its ones count, which a permutation
    keeps, and nu's ratio is 1 exactly, the value of ``constant_one()``. The
    other is rho = ``make_rn(nu)`` of this very nu (``_is_own_rn``), whose
    ratio is the ``rn_derivative(nu, g, x)`` the check would compare it
    with. Skipping it changes no output, since the check reads a stream of
    its own.
    """
    window = nu.window
    schedule = checked_schedule(config.schedule, window)
    m = config.samples
    if m < 1:
        raise ValueError("decompose needs at least one sample point")
    if config.mode not in ("finite", "continuous"):
        raise ValueError(f"unknown decompose mode {config.mode!r}")
    continuous = config.mode == "continuous"
    # finite mode's gaps and residual cylinders: a gap of 0 splits every
    # point off, and depth 0 compares no cylinder
    if not continuous and config.min_gap <= 0:
        raise ValueError("min_gap must be positive")
    if not continuous and config.residual_depth < 1:
        raise ValueError("residual_depth must be >= 1")
    dictionary = TestDictionary.build(config.depth, config.width)
    closed_form = rho.is_constant_one and getattr(nu, "exchangeable", False)
    if not closed_form and not _is_own_rn(nu, rho):
        _validate_cocycle_agreement(nu, rho, config.seed)

    keys = [mo.indices for mo in dictionary.entries]
    if closed_form:
        levels = schedule[-2:]
        rng = substream(config.seed, 0xDF)
        counts, heads = directed_statistics(
            nu.directing_sample(rng, m), min(config.width, window), levels, rng
        )
        table = closed_form_levels(counts, heads, levels, keys)
        vals, conv = table.values[-1], table.converged(config.tolerance)
    else:
        # blocks of 512 points batch the level kernels best
        rng = substream(config.seed, 0xD0, 0)
        blocks = [
            _point_block(nu, rho, dictionary, schedule, config.tolerance, config.mc_samples,
                         config.seed, range(lo, min(lo + 512, m)), rng)
            for lo in range(0, m, 512)
        ]
        vals = np.concatenate([b[0] for b in blocks])
        conv = np.concatenate([b[2] for b in blocks])

    point_ok = conv.all(axis=1)
    bad_fraction = float(np.mean(~point_ok))
    if bad_fraction > config.nonconvergence_threshold:
        raise NonConvergenceError(
            f"{bad_fraction:.4f} of points failed limit detection "
            f"(threshold {config.nonconvergence_threshold})",
            diagnostics={
                "bad_fraction": bad_fraction,
                "threshold": config.nonconvergence_threshold,
                "schedule": schedule,
                "mc_samples": config.mc_samples,
            },
        )

    r1_col = keys.index((1,))
    r1 = vals[:, r1_col]

    labels, weights, centers, counts, reps, spreads = [], [], [], [], [], []
    groups = [] if continuous else split_by_gaps(r1, config.min_gap)
    for gi, idx in enumerate(groups):
        center = float(np.mean(r1[idx]))
        labels.append(f"component-{gi}")
        weights.append(len(idx) / m)
        centers.append(center)
        counts.append(len(idx))
        reps.append(_representative(center, window))
        spreads.append(float(np.std(r1[idx])) if len(idx) > 1 else 0.0)

    dm = DecomposingMeasure(
        mode="continuous" if continuous else "finite",
        labels=tuple(labels),
        weights=tuple(weights),
        centers=tuple(centers),
        counts=tuple(counts),
        representatives=tuple(reps),
        spreads=tuple(spreads),
        admissible=all(abs(a - b) > 0 for a, b in itertools.combinations(centers, 2)),
        non_converged_fraction=bad_fraction,
        r1_values=r1.copy(),
        statistic_keys=tuple(keys),
        statistics=vals,
        schedule=schedule,
        mc_samples=config.mc_samples,
    )
    if continuous:
        return dm
    residual, sd = barycenter_residual(nu, dm, config.residual_depth)
    return replace(dm, barycenter_residual=residual, barycenter_residual_sd=sd)


def assemble(dm: DecomposingMeasure):
    """Barycenter of a finite decomposing measure (the inverse direction)."""
    if dm.mode != "finite" or not dm.representatives:
        raise ValueError("assembly needs a finite decomposing measure")
    if len(dm.representatives) == 1:
        return dm.representatives[0]
    return Mixture(dm.weights, dm.representatives)


def _residual_cylinders(depth: int):
    """The cylinders pinning a nonempty subset of {1..depth} to any bits."""
    for size in range(1, depth + 1):
        for subset in itertools.combinations(range(1, depth + 1), size):
            for bits in itertools.product((0, 1), repeat=size):
                # sorted distinct positions and 0/1 bits: the pins Cylinder.of builds
                yield Cylinder(tuple(zip(subset, bits)))


def barycenter_residual(nu, dm: DecomposingMeasure, depth: int) -> tuple[float, float]:
    """The residual, max over cylinders A of |nu(A) - sum_j w_j a_j| with
    a_j = eta_j(A), and its sd, the max over the same cylinders of
    sqrt((sum_j w_j a_j^2 - (sum_j w_j a_j)^2) / M): the plug-in sd of the
    mixed side as the w_j are the frequencies of a multinomial sample of M =
    sum(counts) points. Cylinders pin any subset of the positions
    {1..depth} to any bits; each mass is evaluated once, in closed form."""
    worst, worst_sd, points = 0.0, 0.0, sum(dm.counts)
    for cyl in _residual_cylinders(depth):
        target = float(nu.mass(cyl))
        masses = [float(rep.mass(cyl)) for rep in dm.representatives]
        mixed = sum(w * a for w, a in zip(dm.weights, masses))
        second = sum(w * a * a for w, a in zip(dm.weights, masses))
        worst = max(worst, abs(target - mixed))
        worst_sd = max(worst_sd, math.sqrt(max(second - mixed * mixed, 0.0) / points))
    return worst, worst_sd


@dataclass(frozen=True)
class ErgodicityVerdict:
    verdict: str  # "ergodic" | "non-ergodic" | "inconclusive"
    probes: int
    checks: int
    failures: int
    non_converged: int
    witnesses: tuple = ()


def ergodicity_test(
    eta,
    rho: Cocycle,
    dictionary: TestDictionary,
    probes: int = 32,
    schedule: Sequence[int] | None = None,
    tolerance: float = 0.02,
    mc_samples: int = 400,
    seed: int = 0,
) -> ErgodicityVerdict:
    """Check that limit averages of sampled points match the space averages.

    The probes are one block of ``_point_block``: their rows come in turn
    from ``substream(seed, 0xE6, 0)`` by ``eta.sample_rows``, and probe i
    draws its Monte Carlo levels from ``substream(seed, i)``. ``level_table``
    evaluates the last two schedule levels of the block, and
    ``LevelTable.converged`` with tolerance 1e-3 detects each entry's
    limit. A converged entry fails when |limit - integral| > 3 * stderr +
    tolerance; one that does not converge counts as non-converged. On an
    atomic eta at window <= 8 the one-level schedule ``(eta.window,)``
    reads enumeration levels, whose stderr is 0; the exact statement there
    is ``conditional_measures_exact``: eta is ergodic exactly when it has
    one cell, with ``rn_verified`` and ``support_orbit_closed``. Sampling
    refuses an atomic eta that is not a probability measure (ValueError).
    """
    entries = dictionary.nonconstant()
    keys = [m.indices for m in dictionary.entries]
    values, ses, converged = _point_block(eta, rho, dictionary, schedule, 1e-3, mc_samples, seed,
                                          range(probes), substream(seed, 0xE6, 0))
    values, ses = values.tolist(), ses.tolist()
    targets = [(keys.index(m.indices), float(expectation_monomial(eta, m.indices)))
               for m in entries]
    failures = 0
    checks = 0
    non_converged = 0
    witnesses = []
    for i in range(probes):
        for j, target in targets:
            checks += 1
            if not converged[i, j]:
                non_converged += 1
                continue
            dev = abs(values[i][j] - target)
            if dev > 3.0 * ses[i][j] + tolerance:
                failures += 1
                if len(witnesses) < 3:
                    witnesses.append((i, keys[j], values[i][j], target))
    if non_converged > 0.1 * checks:
        verdict = "inconclusive"
    elif failures == 0:
        verdict = "ergodic"
    elif failures >= 0.5 * checks:
        verdict = "non-ergodic"
    else:
        verdict = "inconclusive"
    return ErgodicityVerdict(
        verdict=verdict,
        probes=probes,
        checks=checks,
        failures=failures,
        non_converged=non_converged,
        witnesses=tuple(witnesses),
    )


@dataclass(frozen=True)
class ConditionalCell:
    label: str
    configs: frozenset
    measure: AtomicMeasure
    weight: Fraction


@dataclass(frozen=True)
class ConditionalAssignment:
    cells: tuple[ConditionalCell, ...]
    rn_verified: bool
    support_orbit_closed: bool


def conditional_measures_exact(nu: AtomicMeasure, rho: Cocycle) -> ConditionalAssignment:
    """Level sets of the exact full-depth limit statistic with their
    normalized conditional measures.

    Works on the measure's support. The level sets are the full-window orbit
    classes (``averaging.orbit_classes``): the first-moment entries of the
    statistic on a class sum to its ones count, so no two classes share a
    value. There is one cell per class, in the order of its first member;
    each cell measure is nu restricted and normalized, and the cocycle
    property of cell measures is verified on positive transposition pairs
    (transpositions generate the level), all in one ``rho_rows`` call, by
    ``_values_agree``: a float rho is compared within its rounding.
    """
    window = nu.window
    if not nu.is_probability():
        raise ValueError("conditional measures are computed for probability measures")

    classes = list(orbit_classes(nu.atoms, window).values())
    cells = []
    for ci, members in enumerate(classes):
        weight = sum((nu.atom(x) for x in members), Fraction(0))
        cell = AtomicMeasure({x: nu.atom(x) / weight for x in members})
        cells.append(ConditionalCell(f"cell-{ci}", frozenset(members), cell, weight))
    # each atom with each swap of coordinates j and j + 1 (row j - 1); a swap
    # keeps the ones count, so one that leaves the cell leaves the support,
    # and inside it d(cell o T_s)/d(cell) at x is nu(act(s, x)) / nu(x)
    atoms = [x for members in classes for x in members]
    swaps = (np.arange(1, window + 1) + np.eye(window - 1, window, dtype=np.intp)
             - np.eye(window - 1, window, 1, dtype=np.intp))
    g_rows = np.tile(swaps, (len(atoms), 1))
    x_rows = np.repeat(np.array(atoms, dtype=np.uint8), window - 1, axis=0)
    ys = list(map(tuple, act_rows(g_rows, x_rows).tolist()))
    support = nu.support
    inside = np.array([y in support for y in ys], dtype=bool)
    num, den, exact = rho_rows(rho, g_rows[inside], x_rows[inside])
    rn_ok = all(
        _values_agree(nu.atom(ys[r]) / nu.atom(atoms[r // (window - 1)]),
                      Fraction(n, d) if e else n / d)
        for r, n, d, e in zip(np.flatnonzero(inside).tolist(), num, den, exact)
    )
    return ConditionalAssignment(
        cells=tuple(cells),
        rn_verified=rn_ok,
        support_orbit_closed=bool(inside.all()),
    )


def ks_statistic(values: np.ndarray, cdf) -> float:
    """One-sample Kolmogorov-Smirnov distance against a given CDF."""
    sv = np.sort(np.asarray(values, dtype=float))
    n = sv.shape[0]
    f = np.array([float(cdf(v)) for v in sv])
    upper = np.max(np.arange(1, n + 1) / n - f)
    lower = np.max(f - np.arange(0, n) / n)
    return float(max(upper, lower))
