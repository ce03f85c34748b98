"""Limit statistics, empirical decomposing measures, and exact conditional
measures on atomic models.

The limit statistic of a point is the vector of detected limits of its level
averages over the test dictionary. Points of an exchangeable model cluster by
their first-moment limit; cluster weights and centers recover the mixing
measure (de Finetti). On exact atomic models the level sets of the full-depth
statistic are computed symbolically and carry canonical conditional measures.

All Monte Carlo draws for one point come from that point's own child stream,
so results are bit-identical for any worker count.
"""
from __future__ import annotations

import itertools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .averaging import (
    EXACT_LEVEL_CAP,
    average_exact,  # noqa: F401  (bench/tracing.py wraps this binding)
    checked_schedule,
    level_table,
    mc_level_values,  # noqa: F401  (bench/tracing.py wraps this binding)
    monomial_level_average,  # noqa: F401  (bench/tracing.py wraps this binding)
    orbit_class_key,
)
from .cocycles import Cocycle
from .dictionary import TestDictionary
from .errors import CapacityError, NonConvergenceError
from .groups import Config, Permutation, act, haar_sample, level_orbit, validate_config
from .measures import (
    AtomicMeasure,
    Cylinder,
    Mixture,
    ProductBernoulli,
    expectation_monomial,
    rn_derivative,
)
from .rng import RandomStream, substream

CONDITIONAL_WINDOW_CAP = 12


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

    def vector(self, order: Sequence[tuple[int, ...]]) -> list[float]:
        return [float(self.values[k]) for k in order]


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
    the same bits. Only Monte Carlo levels read ``mc_samples`` and ``rng``.
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
    workers: int = 1
    nonconvergence_threshold: float = 0.01
    residual_depth: int = 3
    validate_cocycle: bool = True


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
    groups = []
    start = 0
    for i in range(1, len(sv)):
        if sv[i] - sv[i - 1] >= cut:
            groups.append(order[start:i])
            start = i
    groups.append(order[start:])
    return groups


def _sampled_table(nu, rho: Cocycle, keys, levels, mc_samples: int, streams):
    """Draw one point of nu from each stream into a (points x window) uint8
    block and evaluate it with ``level_table``, whose Monte Carlo levels draw
    on from the same streams. Returns (rows, table)."""
    rows = np.empty((len(streams), nu.window), dtype=np.uint8)
    for r, stream in enumerate(streams):
        rows[r] = nu.sample_array(stream)
    return rows, level_table(rows, rho, levels, keys, mc_samples, streams)


def _point_block(args):
    """Limit statistics ``(vals, ses, conv)`` for a block of point
    indices (one task), rows in index order: ``LevelTable.converged`` on a
    ``level_table`` of the block, as in ``pi_phi``.

    Each point is drawn from its own ``substream(seed, i)``, which also feeds
    its Monte Carlo levels, so the rows do not depend on how the points are
    split into blocks or workers.
    """
    nu, rho, dictionary, schedule, tolerance, mc_samples, seed, indices = args
    keys = [m.indices for m in dictionary.entries]
    levels = checked_schedule(schedule, nu.window)[-2:]
    streams = [substream(seed, i) for i in indices]
    _, table = _sampled_table(nu, rho, keys, levels, mc_samples, streams)
    return table.values[-1], table.stderrs[-1], table.converged(tolerance)


def _map_blocks(task_args, workers: int):
    if workers <= 1 or len(task_args) <= 1:
        return [_point_block(a) for a in task_args]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_point_block, task_args))


def _validate_cocycle_agreement(nu, rho: Cocycle, seed: int):
    """Spot-check on 8 samples that nu's atom-ratio cocycle agrees with rho."""
    stream = substream(seed, 0xC0C)
    level = min(6, nu.window)
    for _ in range(8):
        x = nu.sample(stream)
        g = haar_sample(level, stream)
        lhs = rn_derivative(nu, g, x)
        rhs = rho(g, x)
        if isinstance(lhs, Fraction) and isinstance(rhs, Fraction):
            if lhs != rhs:
                raise ValueError(f"measure is not in the cocycle class: {lhs} != {rhs}")
        elif abs(float(lhs) - float(rhs)) > 1e-9 * max(1.0, abs(float(rhs))):
            raise ValueError(
                f"measure is not in the cocycle class: {float(lhs)} != {float(rhs)}"
            )


def _representative(center: float, window: int):
    """The homogeneous product at first-moment limit ``center``: the point
    mass on all ones or all zeros when the center is within 1e-12 of 1 or 0."""
    if 1e-12 < center < 1 - 1e-12:
        return ProductBernoulli([center] * window)
    bit = 1 if center >= 0.5 else 0
    return AtomicMeasure({tuple([bit] * window): Fraction(1)})


def decompose(nu, rho: Cocycle, config: DecomposeConfig) -> DecomposingMeasure:
    """Sample M points, compute limit statistics, and group them into
    ergodic components.

    Finite mode groups by 1-D gaps on the first-moment limit; each
    component's representative is the homogeneous product at its center
    (``_representative``), and the barycenter residual is filled in.
    Continuous mode keeps the empirical distribution of that limit, with no
    components and no residual. Aborts when more than the configured fraction
    of points fails limit detection.
    """
    window = nu.window
    schedule = checked_schedule(config.schedule, window)
    dictionary = TestDictionary.build(config.depth, config.width)
    if config.validate_cocycle:
        _validate_cocycle_agreement(nu, rho, config.seed)

    m = config.samples
    # Rows come from per-point streams, so the split changes no output; one
    # worker takes blocks of 512, which batch the level kernels best.
    block = 512
    if config.workers > 1:
        block = max(1, min(block, math.ceil(m / (config.workers * 8))))
    task_args = [
        (
            nu,
            rho,
            dictionary,
            schedule,
            config.tolerance,
            config.mc_samples,
            config.seed,
            range(lo, min(lo + block, m)),
        )
        for lo in range(0, m, block)
    ]
    results = _map_blocks(task_args, config.workers)
    vals = np.concatenate([r[0] for r in results])
    conv = np.concatenate([r[2] for r in results])

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

    keys = [mo.indices for mo in dictionary.entries]
    r1_col = keys.index((1,))
    r1 = vals[:, r1_col]

    continuous = config.mode == "continuous"
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
    residual = barycenter_residual(nu, dm, config.residual_depth)
    return replace(dm, barycenter_residual=residual)


def assemble(dm: DecomposingMeasure):
    """Barycenter of a finite decomposing measure (the inverse direction)."""
    if dm.mode != "finite" or not dm.representatives:
        raise ValueError("assembly needs a finite decomposing measure")
    if len(dm.representatives) == 1:
        return dm.representatives[0]
    return Mixture(dm.weights, dm.representatives)


def barycenter_residual(nu, dm: DecomposingMeasure, depth: int) -> float:
    """Max over cylinders of |nu(A) - sum_j w_j eta_j(A)|.

    Cylinders pin any subset of the positions {1..depth} to any bit pattern;
    both sides are evaluated in closed form.
    """
    positions = tuple(range(1, depth + 1))
    worst = 0.0
    for size in range(1, depth + 1):
        for subset in itertools.combinations(positions, size):
            for bits in itertools.product((0, 1), repeat=size):
                cyl = Cylinder.of(dict(zip(subset, bits)))
                target = float(nu.mass(cyl))
                mixed = sum(
                    w * float(rep.mass(cyl))
                    for w, rep in zip(dm.weights, dm.representatives)
                )
                worst = max(worst, abs(target - mixed))
    return worst


@dataclass(frozen=True)
class ErgodicityVerdict:
    verdict: str  # "ergodic" | "non-ergodic" | "inconclusive"
    probes: int
    checks: int
    failures: int
    non_converged: int
    exact: bool
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

    Each probe is a point of eta; ``level_table`` evaluates the last two
    schedule levels of the block of probes, and ``LevelTable.converged``
    with tolerance 1e-3 detects each entry's limit. A converged entry fails
    when |limit - integral| > 3 * stderr + tolerance; one that does not
    converge counts as non-converged. On exact atomic models of window <= 8
    the comparison is exact: every atom is a probe, evaluated at the full
    window by one ``level_table`` call (the closed form under the constant
    cocycle, orbit sums otherwise), and an entry fails when its value
    differs from the integral.
    """
    window = eta.window
    entries = dictionary.nonconstant()

    if isinstance(eta, AtomicMeasure) and window <= EXACT_LEVEL_CAP:
        atoms = sorted(eta.atoms)
        rows = np.array(atoms, dtype=np.uint8).reshape(len(atoms), window)
        table = level_table(rows, rho, (window,), [m.indices for m in entries])
        targets = []
        if atoms:  # the zero measure has no expectation and nothing to compare
            targets = [expectation_monomial(eta, m.indices) for m in entries]
        failures = 0
        checks = 0
        witnesses = []
        for p, x in enumerate(atoms):
            for j, (mono, target) in enumerate(zip(entries, targets)):
                val = table.value(0, p, j)
                checks += 1
                if val != target:
                    failures += 1
                    if len(witnesses) < 3:
                        witnesses.append((x, mono.indices, val, target))
        verdict = "ergodic" if failures == 0 else "non-ergodic"
        return ErgodicityVerdict(
            verdict=verdict,
            probes=len(atoms),
            checks=checks,
            failures=failures,
            non_converged=0,
            exact=True,
            witnesses=tuple(witnesses),
        )

    sched = checked_schedule(schedule, window)
    keys = [m.indices for m in dictionary.entries]
    streams = [substream(seed, 0xE6, i) for i in range(probes)]
    _, table = _sampled_table(eta, rho, keys, sched[-2:], mc_samples, streams)
    converged = table.converged(1e-3)
    values, ses = table.values[-1].tolist(), table.stderrs[-1].tolist()
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
        exact=False,
        witnesses=tuple(witnesses),
    )


@dataclass(frozen=True)
class ConditionalCell:
    label: str
    configs: frozenset
    measure: AtomicMeasure
    weight: Fraction
    moments: tuple  # sorted ((indices, Fraction), ...) fingerprint


@dataclass(frozen=True)
class ConditionalAssignment:
    cells: tuple[ConditionalCell, ...]
    reconstructs_exactly: bool
    rn_verified: bool
    support_orbit_closed: bool


def _orbit_moments(members: list[Config], nu: AtomicMeasure) -> tuple:
    """Exact conditional moments of nu on an orbit, sparse over subsets of ones."""
    total = sum((nu.atom(x) for x in members), Fraction(0))
    acc: dict[tuple[int, ...], Fraction] = {}
    for x in members:
        massx = nu.atom(x)
        ones = [i + 1 for i, b in enumerate(x) if b]
        for size in range(len(ones) + 1):
            for sub in itertools.combinations(ones, size):
                acc[sub] = acc.get(sub, Fraction(0)) + massx
    return tuple(sorted((k, v / total) for k, v in acc.items()))


def conditional_measures_exact(nu: AtomicMeasure, rho: Cocycle) -> ConditionalAssignment:
    """Level sets of the exact full-depth limit statistic with their
    normalized conditional measures.

    Works on the measure's support: cells are unions of full-window orbits
    whose exact moment vectors coincide, each cell measure is nu restricted
    and normalized, and the cocycle property of cell measures is verified on
    positive transposition pairs (transpositions generate the level).
    """
    window = nu.window
    if window > CONDITIONAL_WINDOW_CAP:
        raise CapacityError(
            f"exact conditional measures are capped at window {CONDITIONAL_WINDOW_CAP}"
        )
    if not nu.is_probability():
        raise ValueError("conditional measures are computed for probability measures")

    orbits: dict[tuple, list[Config]] = {}
    for x in sorted(nu.atoms):
        orbits.setdefault(orbit_class_key(x, window), []).append(x)

    by_fingerprint: dict[tuple, list[Config]] = {}
    for members in orbits.values():
        fp = _orbit_moments(members, nu)
        by_fingerprint.setdefault(fp, []).extend(members)

    cells = []
    accumulated: dict[Config, Fraction] = {}
    rn_ok = True
    closed = True
    for ci, (fp, members) in enumerate(
        sorted(by_fingerprint.items(), key=lambda kv: sorted(kv[1])[0])
    ):
        weight = sum((nu.atom(x) for x in members), Fraction(0))
        cell_measure = AtomicMeasure(
            {x: nu.atom(x) / weight for x in members}
        )
        for x in members:
            accumulated[x] = accumulated.get(x, Fraction(0)) + weight * cell_measure.atom(x)
        # verify d(cell o T_s)/d(cell) == rho on positive pairs
        member_set = set(members)
        for x in members:
            for i in range(1, window):
                s = Permutation.swap(i, i + 1)
                y = act(s, x)
                if y in member_set:
                    lhs = cell_measure.atom(y) / cell_measure.atom(x)
                    if lhs != Fraction(rho(s, x)):
                        rn_ok = False
                elif sum(y) == sum(x):
                    closed = False
        cells.append(
            ConditionalCell(
                label=f"cell-{ci}",
                configs=frozenset(members),
                measure=cell_measure,
                weight=weight,
                moments=fp,
            )
        )
    reconstructs = accumulated == nu.atoms
    return ConditionalAssignment(
        cells=tuple(cells),
        reconstructs_exactly=reconstructs,
        rn_verified=rn_ok,
        support_orbit_closed=closed,
    )


@dataclass(frozen=True)
class RoundtripReport:
    first: DecomposingMeasure
    second: DecomposingMeasure
    weight_drift: float
    center_drift: float

    def within(self, weight_tol: float, center_tol: float) -> bool:
        return self.weight_drift <= weight_tol and self.center_drift <= center_tol


def mes_ed_roundtrip(nu, rho: Cocycle, config: DecomposeConfig) -> RoundtripReport:
    """Decompose, reassemble the barycenter, decompose again, compare."""
    first = decompose(nu, rho, config)
    rebuilt = assemble(first)
    second_seed = int(
        np.random.SeedSequence(entropy=config.seed, spawn_key=(0xED,)).generate_state(1)[0]
    )
    second = decompose(rebuilt, rho, replace(config, seed=second_seed, validate_cocycle=False))
    if first.components != second.components:
        return RoundtripReport(first, second, math.inf, math.inf)
    w1 = np.array(first.weights)[np.argsort(first.centers)]
    w2 = np.array(second.weights)[np.argsort(second.centers)]
    c1 = np.sort(np.array(first.centers))
    c2 = np.sort(np.array(second.centers))
    return RoundtripReport(
        first=first,
        second=second,
        weight_drift=float(np.max(np.abs(w1 - w2))),
        center_drift=float(np.max(np.abs(c1 - c2))),
    )


@dataclass(frozen=True)
class SingularityEvidence:
    event_threshold: float
    mass_low: float  # lower bound for the first measure on the event
    mass_high: float  # upper bound for the second measure on the event
    ok: bool


def singular_assembly_check(
    p_low: float, p_high: float, window: int, threshold: float = 0.5
) -> SingularityEvidence:
    """Mutual singularity of Bernoulli(p_low) vs Bernoulli(p_high) at window
    scale, via the typical-frequency event {frequency <= threshold} and the
    exponential tail bound exp(-2 N t^2)."""
    if not (p_low < threshold < p_high):
        raise ValueError("threshold must separate the two parameters")
    eps_low = math.exp(-2 * window * (threshold - p_low) ** 2)
    eps_high = math.exp(-2 * window * (p_high - threshold) ** 2)
    return SingularityEvidence(
        event_threshold=threshold,
        mass_low=1.0 - eps_low,
        mass_high=eps_high,
        ok=(1.0 - eps_low) > 0.99 and eps_high < 0.01,
    )


@dataclass(frozen=True)
class InvariantUpgradeReport:
    almost_invariant: bool
    upgraded: frozenset
    symmetric_difference_mass: Fraction
    witness: tuple | None


def _permutation_between(x: Config, y: Config) -> Permutation:
    """A finite permutation g with act(g, x) == y (equal ones counts)."""
    ones_x = [i + 1 for i, b in enumerate(x) if b]
    ones_y = [i + 1 for i, b in enumerate(y) if b]
    zeros_x = [i + 1 for i, b in enumerate(x) if not b]
    zeros_y = [i + 1 for i, b in enumerate(y) if not b]
    mapping = dict(zip(ones_x, ones_y))
    mapping.update(zip(zeros_x, zeros_y))
    return Permutation(mapping)


def almost_invariant_upgrade(a_set, nu: AtomicMeasure) -> InvariantUpgradeReport:
    """Largest exactly invariant set inside A, with the almost-invariance audit.

    A point belongs to the upgrade exactly when the full-window level average
    of A's indicator equals 1 at every level, i.e. when its whole orbit stays
    inside A. A is almost invariant iff every positive atom inside A has its
    orbit inside A and every positive atom outside A has its orbit outside;
    the first violation is returned with a concrete witness permutation.
    """
    window = nu.window
    if window > CONDITIONAL_WINDOW_CAP:
        raise CapacityError(
            f"invariant-set upgrade is capped at window {CONDITIONAL_WINDOW_CAP}"
        )
    a_cfgs = {validate_config(c) for c in a_set}
    by_count: dict[int, set[Config]] = {}
    for c in a_cfgs:
        by_count.setdefault(sum(c), set()).add(c)

    full_counts = {
        k for k, group in by_count.items() if len(group) == math.comb(window, k)
    }
    upgraded = frozenset(c for c in a_cfgs if sum(c) in full_counts)

    witness = None
    for x in sorted(nu.atoms):
        k = sum(x)
        if x in a_cfgs and k not in full_counts:
            outside = next(
                cfg
                for cfg in level_orbit(x, window)
                if cfg not in a_cfgs
            )
            witness = (x, outside, _permutation_between(x, outside))
            break
        if x not in a_cfgs and by_count.get(k):
            inside = next(iter(sorted(by_count[k])))
            witness = (x, inside, _permutation_between(x, inside))
            break

    sym_mass = sum(
        (nu.atom(c) for c in a_cfgs.symmetric_difference(upgraded)), Fraction(0)
    )
    return InvariantUpgradeReport(
        almost_invariant=witness is None,
        upgraded=upgraded,
        symmetric_difference_mass=sym_mass,
        witness=witness,
    )


def ks_statistic(values: np.ndarray, cdf) -> float:
    """One-sample Kolmogorov-Smirnov distance against a given CDF."""
    sv = np.sort(np.asarray(values, dtype=float))
    n = sv.shape[0]
    f = np.array([float(cdf(v)) for v in sv])
    upper = np.max(np.arange(1, n + 1) / n - f)
    lower = np.max(f - np.arange(0, n) / n)
    return float(max(upper, lower))
