import dataclasses
import hashlib
import inspect
import itertools
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import ergodec.decomposition
from ergodec.averaging import (
    EXACT_LEVEL_CAP,
    average_exact,
    closed_form_levels,
    default_schedule,
    level_counts,
    level_gap_sd,
    limit_average,
    mc_level_values,
    monomial_level_average,
    product_levels,
)
from ergodec.cocycles import Cocycle, constant_one, make_rn
from ergodec.decomposition import (
    DecomposeConfig,
    _map_blocks,
    _point_block,
    almost_invariant_upgrade,
    assemble,
    barycenter_residual,
    conditional_measures_exact,
    decompose,
    ergodicity_test,
    ks_statistic,
    mes_ed_roundtrip,
    pi_phi,
    singular_assembly_check,
    split_by_gaps,
)
from ergodec.dictionary import CylinderMonomial, TestDictionary
from ergodec.errors import NonConvergenceError, ZeroMassError
from ergodec.groups import act, enumerate_level
from ergodec.measures import AtomicMeasure, Mixture, ProductBernoulli
from ergodec.rng import substream
from ergodec.validation import _product_atoms


DICT2 = TestDictionary.build(2, 2)


def test_pi_phi_all_zeros():
    x = tuple([0] * 32)
    stat = pi_phi(x, constant_one(), DICT2, rng=substream(51, 0), mc_samples=64)
    assert stat.r(()) == 1
    assert float(stat.r((1,))) == 0.0
    assert float(stat.r((1, 2))) == 0.0
    assert stat.all_converged


def test_pi_phi_constant_entry_is_exactly_one():
    nu = ProductBernoulli([0.3] * 256)
    x = nu.sample(substream(51, 1))
    stat = pi_phi(x, constant_one(), DICT2, rng=substream(51, 2), mc_samples=128)
    assert float(stat.r(())) == 1.0


def test_pi_phi_bernoulli_moments():
    nu = ProductBernoulli([0.2] * 4096)
    x = nu.sample(substream(51, 3))
    stat = pi_phi(x, constant_one(), DICT2, rng=substream(51, 4), mc_samples=2000)
    assert abs(float(stat.r((1,))) - 0.2) <= 3 * stat.stderrs[(1,)] + 0.02
    assert abs(float(stat.r((1, 2))) - 0.04) <= 3 * stat.stderrs[(1, 2)] + 0.02


def test_pi_phi_monotone_under_extension():
    nu = ProductBernoulli([0.7] * 512)
    for i in range(5):
        x = nu.sample(substream(53, i))
        stat = pi_phi(x, constant_one(), DICT2, rng=substream(54, i), mc_samples=96)
        for small, big in DICT2.extension_pairs():
            assert float(stat.r(small)) >= float(stat.r(big))


def test_pi_phi_exact_mode_orbit_invariance():
    params = [Fraction(2, 5), Fraction(1, 3), Fraction(4, 7), Fraction(1, 2), Fraction(2, 3), Fraction(3, 8)]
    rho = make_rn(ProductBernoulli(params))
    x = (1, 0, 1, 1, 0, 0)
    schedule = (1, 2, 4)
    base = pi_phi(x, rho, DICT2, schedule=schedule)
    for k in enumerate_level(4):
        moved = pi_phi(act(k, x), rho, DICT2, schedule=schedule)
        for key in base.values:
            assert moved.values[key] == base.values[key]


def test_pi_phi_values_within_unit_interval():
    nu = ProductBernoulli([0.5] * 128)
    x = nu.sample(substream(55, 0))
    stat = pi_phi(x, constant_one(), DICT2, rng=substream(55, 1), mc_samples=64)
    for key, v in stat.values.items():
        assert 0 <= float(v) <= 1


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 1), min_size=8, max_size=12), st.integers(1, 8))
def test_closed_form_matches_enumeration_at_small_levels(bits, level):
    x = tuple(bits)
    stat = pi_phi(x, constant_one(), DICT2, schedule=(level,))
    for mono in DICT2.entries:  # level 1 fixes coordinate 2
        want = average_exact(level, constant_one(), mono, x).value
        assert stat.values[mono.indices] == want
        assert stat.stderrs[mono.indices] == 0.0


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(512, 2048), st.floats(0.55, 1.0))
def test_closed_form_matches_tuple_average_past_255_ones(seed, level, p):
    window = 2048
    bits = (np.random.default_rng(seed).random(window) < p).astype(np.uint8)
    assume(int(bits[:level].sum()) > 255)
    x = tuple(int(b) for b in bits)
    stat = pi_phi(bits, constant_one(), DICT2, schedule=(level // 2, level))
    for key, value in stat.values.items():
        assert value == monomial_level_average(level, key, x)


@pytest.mark.parametrize("a, b", [(1, 2), (2, 5), (3, 7), (4, 12), (6, 9)])
def test_level_gap_sd_is_the_hypergeometric_sd(a, b):
    for m in range(b + 1):
        # m_a given m_b = m is hypergeometric: a draws without replacement
        mean = Fraction(m, b)
        var = sum(
            Fraction(math.comb(m, j) * math.comb(b - m, a - j), math.comb(b, a))
            * (Fraction(j, a) - mean) ** 2
            for j in range(a + 1)
        )
        sd = level_gap_sd(1, m / b, a, b)
        assert sd == pytest.approx(math.sqrt(var), rel=1e-12, abs=1e-15)


def _same_statistic(full, last_two):
    assert full.schedule != last_two.schedule
    assert full.values == last_two.values
    assert full.stderrs == last_two.stderrs
    assert full.converged == last_two.converged


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.05, 0.95))
def test_pi_phi_reads_only_the_last_two_levels(seed, p):
    bits = (np.random.default_rng(seed).random(512) < p).astype(np.uint8)
    sched = default_schedule(512)
    # the constant cocycle draws nothing, so no stream is needed at MC-range levels
    _same_statistic(
        pi_phi(bits, constant_one(), DICT2, sched, tolerance=0.02),
        pi_phi(bits, constant_one(), DICT2, sched[-2:], tolerance=0.02),
    )
    params = [Fraction(2, 5), Fraction(1, 3), Fraction(4, 7), Fraction(1, 2),
              Fraction(2, 3), Fraction(3, 8), Fraction(1, 4), Fraction(5, 6)]
    rho = make_rn(ProductBernoulli(params))
    x = tuple(int(b) for b in bits[:8])
    _same_statistic(
        pi_phi(x, rho, DICT2, (1, 2, 4, 8), tolerance=0.02),
        pi_phi(x, rho, DICT2, (4, 8), tolerance=0.02),
    )


def test_split_by_gaps_exact_threshold():
    values = np.array([0.2] * 5 + [0.25] * 5)
    groups = split_by_gaps(values, 0.05)
    assert len(groups) == 2


def test_split_by_gaps_merges_below_threshold():
    values = np.array([0.2] * 5 + [0.24] * 5)
    assert len(split_by_gaps(values, 0.05)) == 1


def test_split_by_gaps_noisy_two_clusters():
    rng = substream(57, 0)
    values = np.concatenate([
        0.2 + 0.01 * rng.standard_normal(500),
        0.8 + 0.01 * rng.standard_normal(500),
    ])
    assert len(split_by_gaps(values, 0.05)) == 2


def test_decompose_single_bernoulli():
    nu = ProductBernoulli([0.5] * 1024)
    cfg = DecomposeConfig(samples=400, seed=61, mc_samples=300)
    dm = decompose(nu, constant_one(), cfg)
    assert dm.components == 1
    assert dm.weights == (1.0,)
    assert abs(dm.centers[0] - 0.5) <= 0.02
    assert dm.admissible
    # continuous mode keeps the same statistics and builds no components
    cont = decompose(nu, constant_one(), replace(cfg, mode="continuous"))
    assert cont.mode == "continuous"
    assert (cont.labels, cont.weights, cont.centers, cont.counts,
            cont.representatives, cont.spreads) == ((),) * 6
    assert cont.admissible is True and cont.barycenter_residual is None
    assert cont.r1_values.tobytes() == dm.r1_values.tobytes()
    assert cont.statistics.tobytes() == dm.statistics.tobytes()


def test_decompose_two_component_mixture():
    mix = Mixture([0.3, 0.7], [ProductBernoulli([0.2] * 1024), ProductBernoulli([0.8] * 1024)])
    cfg = DecomposeConfig(samples=1200, seed=61, mc_samples=300)
    dm = decompose(mix, constant_one(), cfg)
    assert dm.components == 2
    order = np.argsort(dm.centers)
    weights = np.array(dm.weights)[order]
    centers = np.array(dm.centers)[order]
    assert abs(weights[0] - 0.3) <= 0.05 and abs(weights[1] - 0.7) <= 0.05
    assert abs(centers[0] - 0.2) <= 0.02 and abs(centers[1] - 0.8) <= 0.02
    assert dm.barycenter_residual <= 0.02
    # each recovered representative is itself ergodic for the chain
    for rep in dm.representatives:
        verdict = ergodicity_test(rep, constant_one(), DICT2, probes=6,
                                  mc_samples=300, seed=65)
        assert verdict.verdict == "ergodic"


def test_decompose_point_mass_yields_orbit_measure():
    window = 8
    atom = tuple([1] * window)
    nu = AtomicMeasure({atom: Fraction(1)})
    cfg = DecomposeConfig(samples=50, seed=61, schedule=(1, 2, 4, 8), mc_samples=16)
    dm = decompose(nu, make_rn(nu), cfg)
    assert dm.components == 1
    rep = dm.representatives[0]
    assert isinstance(rep, AtomicMeasure)
    assert rep.atoms == {atom: Fraction(1)}


def test_decompose_separated_parameters_not_merged():
    mix = Mixture([0.5, 0.5], [ProductBernoulli([0.4] * 2048), ProductBernoulli([0.6] * 2048)])
    cfg = DecomposeConfig(samples=600, seed=62, mc_samples=1500)
    dm = decompose(mix, constant_one(), cfg)
    assert dm.components == 2


def test_decompose_aborts_on_mass_nonconvergence():
    nu = ProductBernoulli([0.5] * 4)
    cfg = DecomposeConfig(samples=200, seed=61, schedule=(1, 2), validate_cocycle=False)
    with pytest.raises(NonConvergenceError) as err:
        decompose(nu, constant_one(), cfg)
    assert err.value.diagnostics["bad_fraction"] > 0.01


def test_decompose_stores_the_checked_schedule():
    nu = ProductBernoulli([0.5] * 4)
    cfg = DecomposeConfig(samples=20, seed=61, schedule=[1, 2, 4], nonconvergence_threshold=1.0)
    assert decompose(nu, constant_one(), cfg).schedule == (1, 2, 4)
    with pytest.raises(NonConvergenceError) as err:
        decompose(nu, constant_one(), replace(cfg, schedule=[1, 2], nonconvergence_threshold=0.01))
    assert err.value.diagnostics["schedule"] == (1, 2)


def test_every_decompose_config_field_is_read():
    # a knob that no code reads is dead configuration
    source = inspect.getsource(ergodec.decomposition)
    names = [f.name for f in dataclasses.fields(DecomposeConfig)]
    assert [n for n in names if f"config.{n}" not in source] == []


def test_decompose_validates_cocycle_class():
    nu = ProductBernoulli([0.5] * 64)
    skew = [Fraction(1, 5) if i % 2 else Fraction(4, 5) for i in range(64)]
    wrong = make_rn(ProductBernoulli(skew))
    cfg = DecomposeConfig(samples=50, seed=61)
    with pytest.raises(ValueError):
        decompose(nu, wrong, cfg)


def test_barycenter_residual_exact_single_component():
    nu = ProductBernoulli([Fraction(2, 5)] * 8)
    from ergodec.decomposition import DecomposingMeasure

    dm = DecomposingMeasure(
        mode="finite",
        labels=("component-0",),
        weights=(1.0,),
        centers=(0.4,),
        counts=(1,),
        representatives=(nu,),
        spreads=(0.0,),
        admissible=True,
        non_converged_fraction=0.0,
        r1_values=np.array([0.4]),
        statistic_keys=((1,),),
        statistics=np.array([[0.4]]),
        schedule=(1,),
        mc_samples=0,
    )
    assert barycenter_residual(nu, dm, 3) == 0.0


def test_barycenter_residual_detects_weight_perturbation():
    mix = Mixture([0.3, 0.7], [ProductBernoulli([0.2] * 8), ProductBernoulli([0.8] * 8)])
    from ergodec.decomposition import DecomposingMeasure

    good = DecomposingMeasure(
        mode="finite",
        labels=("component-0", "component-1"),
        weights=(0.3, 0.7),
        centers=(0.2, 0.8),
        counts=(3, 7),
        representatives=(ProductBernoulli([0.2] * 8), ProductBernoulli([0.8] * 8)),
        spreads=(0.0, 0.0),
        admissible=True,
        non_converged_fraction=0.0,
        r1_values=np.zeros(1),
        statistic_keys=((1,),),
        statistics=np.zeros((1, 1)),
        schedule=(1,),
        mc_samples=0,
    )
    assert barycenter_residual(mix, good, 3) <= 1e-12
    perturbed = replace(good, weights=(0.4, 0.6))
    # |0.1 * (0.2 - 0.8)| = 0.06 on the first-coordinate cylinder
    assert barycenter_residual(mix, perturbed, 1) >= 0.05


def test_ergodicity_test_bernoulli_ergodic():
    eta = ProductBernoulli([0.35] * 1024)
    verdict = ergodicity_test(eta, constant_one(), DICT2, probes=10, mc_samples=400, seed=63)
    assert verdict.verdict == "ergodic"


def test_ergodicity_test_mixture_non_ergodic():
    eta = Mixture([0.5, 0.5], [ProductBernoulli([0.2] * 1024), ProductBernoulli([0.8] * 1024)])
    verdict = ergodicity_test(eta, constant_one(), DICT2, probes=10, mc_samples=400, seed=63)
    assert verdict.verdict == "non-ergodic"
    assert verdict.failures > 0


def test_ergodicity_test_exact_orbit_measure():
    from ergodec.sigma_finite import orbital_measure

    eta = orbital_measure((1, 1, 0, 0), 4, mode="exact")
    verdict = ergodicity_test(eta, constant_one(), DICT2)
    assert verdict.verdict == "ergodic"
    assert verdict.exact


def _per_atom_exact_verdict(eta, rho):
    """(failures, checks, witnesses) of the exact branch, one average_exact
    call per atom and monomial."""
    from ergodec.measures import expectation_monomial

    failures, checks, witnesses = 0, 0, []
    for x in sorted(eta.atoms):
        for mono in DICT2.nonconstant():
            val = average_exact(eta.window, rho, mono, x).value
            target = expectation_monomial(eta, mono.indices)
            checks += 1
            if val != target:
                failures += 1
                if len(witnesses) < 3:
                    witnesses.append((x, mono.indices, val, target))
    return failures, checks, tuple(witnesses)


@pytest.mark.parametrize("cocycle", ["constant", "rn"])
def test_ergodicity_test_exact_branch_matches_per_atom_averages(cocycle):
    # two orbits (one and three ones) with unequal masses inside each:
    # not ergodic under either cocycle
    eta = AtomicMeasure({
        (1, 0, 0, 0): Fraction(1, 6), (0, 1, 0, 0): Fraction(1, 3),
        (1, 1, 1, 0): Fraction(1, 8), (0, 1, 1, 1): Fraction(3, 8),
    })
    rho = constant_one() if cocycle == "constant" else make_rn(eta)
    assert rho.is_constant_one == (cocycle == "constant")
    verdict = ergodicity_test(eta, rho, DICT2)
    assert (verdict.verdict, verdict.exact, verdict.probes) == ("non-ergodic", True, 4)
    got = (verdict.failures, verdict.checks, verdict.witnesses)
    assert got == _per_atom_exact_verdict(eta, rho)
    assert all(isinstance(w[2], Fraction) for w in verdict.witnesses)
    # the zero measure has no atom to probe
    empty = ergodicity_test(AtomicMeasure({}, window=4), rho, DICT2)
    assert (empty.verdict, empty.probes, empty.checks) == ("ergodic", 0, 0)


def test_conditional_measures_exchangeable_cells():
    nu = _product_atoms([Fraction(1, 2)] * 4)
    assignment = conditional_measures_exact(nu, make_rn(ProductBernoulli([Fraction(1, 2)] * 4)))
    assert len(assignment.cells) == 5  # one cell per ones count
    for cell in assignment.cells:
        share = Fraction(1, len(cell.configs))
        for cfg in cell.configs:
            assert cell.measure.atom(cfg) == share
    assert assignment.reconstructs_exactly
    assert assignment.rn_verified
    assert assignment.support_orbit_closed


def test_conditional_measures_point_mass_single_cell():
    nu = AtomicMeasure({(1, 1, 1, 1): Fraction(1)})
    assignment = conditional_measures_exact(nu, make_rn(nu))
    assert len(assignment.cells) == 1
    assert assignment.reconstructs_exactly


def test_conditional_measures_inhomogeneous_rn_property_all_permutations():
    params = [Fraction(2, 5), Fraction(1, 3), Fraction(4, 7), Fraction(1, 2)]
    nu = _product_atoms(params)
    rho = make_rn(ProductBernoulli(params))
    assignment = conditional_measures_exact(nu, rho)
    assert assignment.reconstructs_exactly and assignment.rn_verified
    # independent sweep: every cell measure transforms by rho under all of S(4)
    for cell in assignment.cells:
        for g in enumerate_level(4):
            for x in cell.configs:
                y = act(g, x)
                assert y in cell.configs
                assert cell.measure.atom(y) / cell.measure.atom(x) == rho(g, x)


def test_conditional_cells_union_of_coarser_orbits():
    from ergodec.averaging import orbit_class_key

    params = [Fraction(2, 5), Fraction(1, 3), Fraction(4, 7), Fraction(1, 2)]
    nu = _product_atoms(params)
    assignment = conditional_measures_exact(nu, make_rn(ProductBernoulli(params)))
    for level in (1, 2, 3, 4):
        for cell in assignment.cells:
            for x in cell.configs:
                key = orbit_class_key(x, level)
                mates = [y for y in nu.atoms if orbit_class_key(y, level) == key]
                assert all(y in cell.configs for y in mates)


def test_cell_measures_are_zero_one_on_invariant_sets():
    # indecomposability surrogate: every invariant orbit-class set gets
    # conditional mass 0 or 1 from every cell measure
    from ergodec.averaging import orbit_class_key

    params = [Fraction(2, 5), Fraction(1, 3), Fraction(4, 7), Fraction(1, 2)]
    nu = _product_atoms(params)
    assignment = conditional_measures_exact(nu, make_rn(ProductBernoulli(params)))
    classes = {}
    for x in nu.atoms:
        classes.setdefault(orbit_class_key(x, 4), []).append(x)
    labels = sorted(classes)
    for r in range(1, len(labels) + 1):
        for combo in itertools.combinations(labels, r):
            inv_set = {x for key in combo for x in classes[key]}
            for cell in assignment.cells:
                m = sum(
                    (cell.measure.atom(x) for x in inv_set if x in cell.configs),
                    Fraction(0),
                )
                assert m in (Fraction(0), Fraction(1))


def test_roundtrip_single_component_fixed_point():
    nu = ProductBernoulli([0.5] * 512)
    cfg = DecomposeConfig(samples=400, seed=67, mc_samples=300)
    rep = mes_ed_roundtrip(nu, constant_one(), cfg)
    assert rep.first.components == rep.second.components == 1
    assert rep.within(0.02, 0.02)


def test_roundtrip_two_component_mixture():
    mix = Mixture([0.3, 0.7], [ProductBernoulli([0.2] * 1024), ProductBernoulli([0.8] * 1024)])
    cfg = DecomposeConfig(samples=4000, seed=67, mc_samples=300)
    rep = mes_ed_roundtrip(mix, constant_one(), cfg)
    assert rep.first.components == rep.second.components == 2
    assert rep.weight_drift <= 0.02
    assert rep.center_drift <= 0.02


def test_assemble_rebuilds_mixture():
    mix = Mixture([0.4, 0.6], [ProductBernoulli([0.2] * 256), ProductBernoulli([0.8] * 256)])
    cfg = DecomposeConfig(samples=500, seed=67, mc_samples=200)
    dm = decompose(mix, constant_one(), cfg)
    rebuilt = assemble(dm)
    assert isinstance(rebuilt, Mixture)
    assert len(rebuilt.components) == 2


def test_singular_assembly_evidence():
    ev = singular_assembly_check(0.2, 0.8, 4096)
    assert ev.ok
    assert ev.mass_low >= 1 - 1e-12
    assert ev.mass_high < 1e-100


def test_almost_invariant_exact_set_is_fixed_point():
    nu = _product_atoms([Fraction(1, 3)] * 4)
    # union of two full orbits: counts 0 and 2
    a = {c for c in nu.atoms if sum(c) in (0, 2)}
    rep = almost_invariant_upgrade(a, nu)
    assert rep.almost_invariant
    assert rep.upgraded == frozenset(a)
    assert rep.symmetric_difference_mass == 0


def test_almost_invariant_strips_null_atom():
    params = [Fraction(1, 3)] * 4
    full = _product_atoms(params)
    # null out the whole ones-count-1 orbit, keep everything else
    atoms = {c: m for c, m in full.atoms.items() if sum(c) != 1}
    nu = AtomicMeasure(atoms)
    null_atom = (1, 0, 0, 0)
    a = {(0, 0, 0, 0), null_atom}
    rep = almost_invariant_upgrade(a, nu)
    assert rep.almost_invariant
    assert null_atom not in rep.upgraded
    assert rep.upgraded == frozenset({(0, 0, 0, 0)})
    assert rep.symmetric_difference_mass == 0


def test_almost_invariant_half_orbit_witness():
    nu = _product_atoms([Fraction(1, 3)] * 4)
    orbit_two = sorted(c for c in nu.atoms if sum(c) == 2)
    a = set(orbit_two[:3])  # half of one orbit, positive mass
    rep = almost_invariant_upgrade(a, nu)
    assert not rep.almost_invariant
    x, y, g = rep.witness
    assert act(g, x) == y
    # the witness certifies positive symmetric-difference mass
    moved = {act(g, c) for c in a}
    sym = a.symmetric_difference(moved)
    assert sum((nu.atom(c) for c in sym), Fraction(0)) > 0


def test_upgrade_matches_averaging_definition():
    nu = _product_atoms([Fraction(1, 3)] * 4)
    a = {c for c in nu.atoms if sum(c) in (1, 4)} | {(1, 1, 0, 0)}
    rep = almost_invariant_upgrade(a, nu)

    def chi(y):
        return Fraction(1) if y in a else Fraction(0)

    one = constant_one()
    averaged = {
        x
        for x in nu.atoms
        if all(average_exact(n, one, chi, x).value == 1 for n in range(1, 5))
    }
    assert averaged == set(rep.upgraded)


def test_ks_statistic_frozen_example():
    # two points against the uniform CDF: D = 0.25
    values = np.array([0.25, 0.75])
    assert ks_statistic(values, lambda v: v) == pytest.approx(0.25)


def test_ks_statistic_uniform_grid_is_small():
    n = 1000
    values = (np.arange(n) + 0.5) / n
    assert ks_statistic(values, lambda v: v) <= 1 / n


# sha256 of the limit statistics and of the weights below, recorded on the
# code before the packed-key Haar draw replaced argsort (commit 9ac399e).
RECORDED_MC_SHA256 = (
    "c613e4e4a6f23bf5e87a8983c86e1d31399c7d3ef8969aed542ecd924e0667a6",
    "2275a65e568e4ab299b7745afd90e6adf3da9862eac05387638fdadfbfbe3748",
)


def _monte_carlo_rn(nu) -> Cocycle:
    """The Radon-Nikodym cocycle of nu with its potential and log-potential
    rows but without log-linear parts, so its levels above S(8) are Monte
    Carlo."""
    return Cocycle(
        eval_fn=make_rn(nu).eval_fn,
        potential=nu.atom,
        log_potential_rows=nu.log_atom_rows,
    )


def _bench_mixture(window):
    comps = [
        ProductBernoulli([a if i % 2 == 0 else b for i in range(window)])
        for a, b in ((0.2, 0.25), (0.75, 0.8))
    ]
    return Mixture([0.4, 0.6], comps), comps


def test_mc_decompose_matches_recorded_hashes():
    # Window 64: the two levels the limit rule reads, 32 and 64, are Monte Carlo.
    nu, _ = _bench_mixture(64)
    config = DecomposeConfig(samples=16, seed=7, nonconvergence_threshold=1.0)
    dm = decompose(nu, _monte_carlo_rn(nu), config)
    got = (
        hashlib.sha256(dm.statistics.tobytes()).hexdigest(),
        hashlib.sha256(np.array(dm.weights).tobytes()).hexdigest(),
    )
    assert got == RECORDED_MC_SHA256


def test_monte_carlo_agrees_with_exact_orbit_sums_at_window_64():
    """What the Monte Carlo path is still good for: at window 64 the 400
    self-normalized draws have a healthy effective sample size, and the
    estimates lie within 3 se of the exact orbit sums. (At window 1024 only
    about 85 of these 100 points would.)"""
    window = 64
    nu, _ = _bench_mixture(window)
    parts = make_rn(nu).log_linear
    entries = DICT2.entries
    keys = [m.indices for m in entries]
    hits = 0
    for i in range(100):
        stream = substream(7, i)
        x = nu.sample_array(stream)
        values, _, _ = product_levels(x[None, :], (window,), keys, parts)
        exact = values[0, 0]
        est = mc_level_values(x, window, _monte_carlo_rn(nu), entries, 400, stream)
        hits += all(abs(v - e) <= 3 * se for (v, se), e in zip(est, exact))
    assert hits >= 90


@pytest.mark.parametrize("seed", [210000, 220000, 230000])
def test_decompose_quasi_invariant_mixture_at_window_1024(seed):
    # the benchmark's quasi-invariant input and its first operation's seeds,
    # at the default 1% non-convergence threshold
    nu, comps = _bench_mixture(1024)
    dm = decompose(nu, make_rn(nu), DecomposeConfig(samples=40, seed=seed))
    assert dm.non_converged_fraction == 0.0
    assert dm.components == 2
    assert all(abs(c - want) < 0.05 for c, want in zip(sorted(dm.centers), (0.2, 0.75)))


@pytest.mark.parametrize("window", [2048, 4096])
def test_exact_levels_survive_an_underflowing_potential(window):
    # The mixture's float atom mass is a product of `window` masses and
    # underflows to 0.0; the exact levels weight the orbit in log space.
    nu, comps = _bench_mixture(window)
    x = comps[1].sample(substream(3, 1))
    assert nu.atom(x) == 0.0
    pi_phi(x, make_rn(nu), DICT2, (4, 8, window))
    report = limit_average(make_rn(nu), CylinderMonomial((1, 2)), x, default_schedule(window))
    (level8,) = [r for r in report.levels if r.level == 8]
    want, _, _ = product_levels(np.asarray(x, dtype=np.uint8)[None, :], (8,), [(1, 2)],
                                nu.log_linear)
    assert 0.0 < level8.value and abs(level8.value - want[0, 0, 0]) <= 1e-12


def test_exact_level_of_a_vanishing_potential_raises_naming_the_window():
    nu = AtomicMeasure({(1, 0, 0, 1): Fraction(1, 2), (0, 1, 1, 0): Fraction(1, 2)})
    with pytest.raises(ZeroMassError, match=r"^cocycle potential vanishes .*window 4\)$"):
        average_exact(4, make_rn(nu), CylinderMonomial((1,)), (1, 1, 0, 0))


@settings(max_examples=4, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([16, 64, 300]))
def test_product_potential_decompose_bytes_equal_across_workers(seed, window):
    nu, _ = _bench_mixture(window)
    config = DecomposeConfig(samples=24, seed=seed, nonconvergence_threshold=1.0)
    one = decompose(nu, make_rn(nu), config)
    two = decompose(nu, make_rn(nu), replace(config, workers=2))
    assert one.statistics.tobytes() == two.statistics.tobytes()
    assert one.weights == two.weights


# sha256 of the limit statistics and of the weights of decompose under the
# Radon-Nikodym cocycle of product mixtures, recorded on the per-point
# product-potential kernel (commit c888350) before it was batched.
RECORDED_PRODUCT_SHA256 = {
    "bench-1024": (
        "16eb3a15d96327df28b7bf893a9ad503e00b61600296397b39671fa8c5833434",
        "f2e88390f06a48e70a0ab9aa1f9ccfb6ec9e05cf70bc119a47bee2694ddb6dfe",
    ),
    "window-16-exact-level-8": (
        "dd869339e5bfd10312d765434d1c27fe011cf35fec6b454c40846b47cada6d72",
        "7dd1362f9ff8a1b590340e3971eb9a21eaac9ac906979268042b4f0b15a449d2",
    ),
    "three-components-300": (
        "d84a90f7a5d77c8239aad32e1b6acc130e813912eb581ea412b3f02e2d6c4cea",
        "cf8ccd6e5eb516f337b7865fbe30cb1ab026a1da7927743e04b241a9ede5615e",
    ),
}


def _three_component_mixture(window):
    comps = [
        ProductBernoulli([a if i % 3 == 0 else b for i in range(window)])
        for a, b in ((0.1, 0.15), (0.45, 0.5), (0.85, 0.9))
    ]
    return Mixture([0.3, 0.3, 0.4], comps)


@pytest.mark.parametrize("name", sorted(RECORDED_PRODUCT_SHA256))
def test_product_potential_decompose_matches_recorded_hashes(name):
    if name == "bench-1024":
        nu = _bench_mixture(1024)[0]
        config = DecomposeConfig(samples=40, seed=210000)
    elif name == "window-16-exact-level-8":
        # level 8 is an exact Fraction level beside the product level 16
        nu = _bench_mixture(16)[0]
        config = DecomposeConfig(samples=40, seed=7, schedule=(4, 8, 16),
                                 nonconvergence_threshold=1.0)
    else:
        nu = _three_component_mixture(300)
        config = DecomposeConfig(samples=40, seed=11, nonconvergence_threshold=1.0)
    dm = decompose(nu, make_rn(nu), config)
    got = (
        hashlib.sha256(dm.statistics.tobytes()).hexdigest(),
        hashlib.sha256(np.array(dm.weights).tobytes()).hexdigest(),
    )
    assert got == RECORDED_PRODUCT_SHA256[name]


def _per_point_closed_form(x, levels, keys):
    """The constant-cocycle closed form one point at a time, as it stood
    before it was batched: Fraction values (m_n)_k/(n)_k from the prefix sum,
    Python-float slack 3 level_gap_sd and stderr k p^(k-1) sqrt(p(1-p)/b)."""
    prefix = np.cumsum(np.asarray(x, dtype=np.int64))
    values, slacks, a = [], [], None
    for n in levels:
        m = int(prefix[n - 1])
        moved = [
            None if any(x[i - 1] == 0 for i in key if i > n)
            else sum(1 for i in key if i <= n)
            for key in keys
        ]
        values.append([
            Fraction(0) if k is None else Fraction(math.perm(m, k), math.perm(n, k))
            for k in moved
        ])
        slack = [0.0] * len(keys)
        if a is not None and n > EXACT_LEVEL_CAP:
            p = m / n
            slack = [3.0 * level_gap_sd(k, p, a, n) if k else 0.0 for k in moved]
        slacks.append(slack)
        a = n
    stderrs = [0.0] * len(keys)
    if a > EXACT_LEVEL_CAP:
        p = m / a
        stderrs = [
            k * p ** (k - 1) * math.sqrt(p * (1.0 - p) / a) if k else 0.0 for k in moved
        ]
    return values, slacks, stderrs


def _per_point_rows(nu, keys, schedule, tolerance, seed, indices):
    """(vals, ses, conv, slack) of the points, point by point, with the limit
    rule of pi_phi on the last two levels."""
    levels = tuple(schedule)[-2:]
    vals, ses, conv, last_slacks = [], [], [], []
    for i in indices:
        x = nu.sample_array(substream(seed, i))
        values, slacks, stderrs = _per_point_closed_form(x, levels, keys)
        vals.append([float(v) for v in values[-1]])
        ses.append(stderrs)
        last_slacks.append(slacks[-1])
        if len(levels) == 1:
            conv.append([se == 0.0 for se in stderrs])
        else:
            conv.append([
                abs(float(b) - float(a)) < tolerance + s
                for a, b, s in zip(values[0], values[1], slacks[-1])
            ])
    return np.array(vals), np.array(ses), np.array(conv, dtype=bool), np.array(last_slacks)


def _block_args(nu, dictionary, schedule, tolerance, seed, indices):
    return (nu, constant_one(), dictionary, schedule, tolerance, 400, seed, indices)


def _assert_same_bytes(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.dtype == w.dtype
        assert g.tobytes() == w.tobytes()


@st.composite
def _block_cases(draw):
    window = draw(st.integers(16, 4096))
    if draw(st.booleans()):
        schedule = default_schedule(window)
    else:
        # low levels on either side of S(8), some below the key indices
        a = draw(st.one_of(st.integers(1, 10), st.integers(1, window - 1)))
        b = draw(st.one_of(st.integers(a + 1, max(a + 1, 12)), st.integers(a + 1, window)))
        schedule = (a, b)
    depth = draw(st.integers(1, 3))
    dictionary = TestDictionary.build(depth, draw(st.integers(depth, 4)))
    ps = draw(st.lists(st.floats(0.02, 0.98), min_size=1, max_size=2))
    comps = [ProductBernoulli([p] * window) for p in ps]
    nu = comps[0] if len(comps) == 1 else Mixture([0.5, 0.5], comps)
    lo = draw(st.integers(0, 10**6))
    indices = range(lo, lo + draw(st.integers(1, 30)))
    return (nu, dictionary, schedule, draw(st.floats(1e-3, 0.1)),
            draw(st.integers(0, 2**32 - 1)), indices)


@settings(max_examples=200, deadline=None)
@given(_block_cases())
def test_batched_point_block_matches_per_point_pi_phi(case):
    nu, dictionary, schedule, tolerance, seed, indices = case
    keys = [m.indices for m in dictionary.entries]
    got = _point_block(_block_args(*case))
    want = _per_point_rows(nu, keys, *case[2:])
    _assert_same_bytes(got, want[:3])
    xs = [nu.sample_array(substream(seed, i)) for i in indices]
    levels = tuple(schedule)[-2:]
    cf = closed_form_levels(
        np.array([level_counts(x, levels) for x in xs]),
        np.array([x[: dictionary.width] for x in xs]), levels, keys,
    )
    _assert_same_bytes([cf.slacks[-1]], want[3:])
    for row, x in enumerate(xs):
        stat = pi_phi(x, constant_one(), dictionary, schedule, tolerance)
        assert [float(stat.values[k]) for k in keys] == got[0][row].tolist()
        assert [stat.stderrs[k] for k in keys] == got[1][row].tolist()
        assert [stat.converged[k] for k in keys] == got[2][row].tolist()


@pytest.mark.parametrize("window, depth", [(4096, 3), (2048, 5)])
def test_batched_point_block_matches_per_point_rows(window, depth):
    # depth 5 at window 2048: (2048)_5 is above 2^53, so the last level takes
    # the exact integer path, and (1024)_5 below it the float64 division
    if depth == 5:
        assert math.perm(2048, 5) >= 2**53 > math.perm(1024, 5)
    dictionary = TestDictionary.build(depth, depth)
    keys = [m.indices for m in dictionary.entries]
    nu = Mixture([0.3, 0.7], [ProductBernoulli([0.2] * window),
                              ProductBernoulli([0.8] * window)])
    case = (nu, dictionary, default_schedule(window), 0.02, 77, range(40))
    _assert_same_bytes(_point_block(_block_args(*case)),
                       _per_point_rows(nu, keys, *case[2:])[:3])


def test_batched_point_blocks_identical_across_workers():
    window = 1024
    nu = Mixture([0.3, 0.7], [ProductBernoulli([0.2] * window),
                              ProductBernoulli([0.8] * window)])
    dictionary = TestDictionary.build(3, 3)
    keys = [m.indices for m in dictionary.entries]
    tasks = [
        _block_args(nu, dictionary, default_schedule(window), 0.02, 5, range(lo, lo + 25))
        for lo in range(0, 100, 25)
    ]
    one, two = _map_blocks(tasks, 1), _map_blocks(tasks, 2)
    want = _per_point_rows(nu, keys, default_schedule(window), 0.02, 5, range(100))
    for blocks in (one, two):
        got = [np.concatenate([b[part] for b in blocks]) for part in range(3)]
        _assert_same_bytes(got, want[:3])


@pytest.mark.parametrize("n, depth", [(4096, 5), (2**20, 4)])
def test_closed_form_levels_takes_exact_integers_past_2_53(n, depth):
    # (4096)_5 lies between 2^53 and 2^63: a float64 division of the rounded
    # integers gives another double for 340 of the 4097 counts. (2^20)_4 is
    # about 1.2e24, past int64 as well.
    keys = [tuple(range(1, k + 1)) for k in range(depth + 1)] + [(1, n)]
    counts = np.unique(np.linspace(0, n, min(n + 1, 3000)).astype(np.int64))[:, None]
    heads = np.zeros((len(counts), depth), dtype=np.uint8)
    cf = closed_form_levels(counts, heads, (n,), keys)
    assert cf.nums.dtype == object
    for p, m in enumerate(counts[:, 0].tolist()):
        for j, key in enumerate(keys):
            want = Fraction(math.perm(m, len(key)), math.perm(n, len(key)))
            assert cf.value(0, p, j) == want
            assert cf.values[0, p, j] == float(want)
    with pytest.raises(ValueError):
        closed_form_levels(np.array([[n + 1]]), heads[:1], (n,), keys)


def _product_rows(nu, dictionary, schedule, tolerance, seed, indices):
    """(vals, ses, conv) of the points from pi_phi point by point under nu's
    Radon-Nikodym cocycle."""
    rho, keys = make_rn(nu), [m.indices for m in dictionary.entries]
    rows = []
    for i in indices:
        stat = pi_phi(nu.sample_array(substream(seed, i)), rho, dictionary, schedule,
                      tolerance)
        rows.append(([float(stat.values[k]) for k in keys],
                     [stat.stderrs[k] for k in keys], [stat.converged[k] for k in keys]))
    vals, ses, conv = zip(*rows)
    return np.array(vals), np.array(ses), np.array(conv, dtype=bool)


@settings(max_examples=12, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([16, 64, 300]),
    st.integers(1, 3),
    st.sampled_from([8, 9]),
    st.booleans(),
)
def test_product_point_block_matches_per_point_pi_phi(seed, window, comps, mid, two):
    nu = _bench_mixture(window)[0] if comps == 2 else (
        _three_component_mixture(window) if comps == 3
        else ProductBernoulli([0.3 + 0.1 * (i % 2) for i in range(window)])
    )
    # (4, 8, window): level 8 is exact beside a product level; (4, 9, window):
    # both evaluated levels are product levels
    schedule = (4, mid, window) if two else default_schedule(window)
    dictionary = TestDictionary.build(2, 3)
    args = (nu, make_rn(nu), dictionary, schedule, 0.02, 400, seed, range(30))
    _assert_same_bytes(
        _point_block(args),
        _product_rows(nu, dictionary, schedule, 0.02, seed, range(30)),
    )


def test_product_point_blocks_identical_across_workers():
    window = 300
    nu = _three_component_mixture(window)
    dictionary = TestDictionary.build(2, 2)
    schedule = default_schedule(window)
    tasks = [
        (nu, make_rn(nu), dictionary, schedule, 0.02, 400, 5, range(lo, lo + 15))
        for lo in range(0, 60, 15)
    ]
    want = _product_rows(nu, dictionary, schedule, 0.02, 5, range(60))
    for blocks in (_map_blocks(tasks, 1), _map_blocks(tasks, 2)):
        got = [np.concatenate([b[part] for b in blocks]) for part in range(3)]
        _assert_same_bytes(got, want)


# sha256 of the repr of ergodicity_test verdicts and of limit_average reports
# under the three kinds of cocycle (constant, product potential, Monte Carlo),
# recorded on commit 0cb3b83, while the exact cap was still a parameter. The
# schedules put the second-to-last level on either side of S(8). The
# limit_average digest was re-recorded when enumerated levels stopped
# reporting level! samples: its reprs changed only in those sample_count
# values, which are now 0.
RECORDED_ERGODICITY_SHA256 = (
    "fee8518528a87d73a72ce1eeb754e84c85d955c2028cb23cec1efe0896d047b1"
)
RECORDED_LIMIT_AVERAGE_SHA256 = (
    "ceaacea142339894791b57044cfbbc71680c1382afd7536fb9ccf2566237f2cb"
)


def _three_cocycles(nu):
    return (constant_one(), make_rn(nu), _monte_carlo_rn(nu))


def test_ergodicity_test_matches_recorded_verdicts():
    nu, comps = _bench_mixture(64)
    verdicts = [
        ergodicity_test(eta, rho, DICT2, probes=8, schedule=schedule,
                        mc_samples=200, seed=17)
        for eta in (nu, comps[1])
        for rho in _three_cocycles(eta)
        for schedule in (None, (4, 8, 64), (4, 9, 64))
    ]
    assert {v.verdict for v in verdicts} >= {"ergodic", "non-ergodic"}
    assert any(v.witnesses for v in verdicts)
    got = hashlib.sha256(repr(verdicts).encode()).hexdigest()
    assert got == RECORDED_ERGODICITY_SHA256


def test_limit_average_matches_recorded_reports():
    nu, _ = _bench_mixture(64)
    reports = []
    for i, rho in itertools.product(range(3), _three_cocycles(nu)):
        x = tuple(nu.sample_array(substream(5, i)).tolist())
        for key, schedule in (
            ((1,), default_schedule(64)),
            ((1, 2), (4, 8, 64)),
            ((2, 64), (4, 8, 32, 64)),
            ((1, 3), (2, 9, 64)),
        ):
            reports.append(limit_average(
                rho, CylinderMonomial(key), x, schedule, tolerance=0.02,
                mc_samples=200, rng=substream(5, 100 + i),
            ))
    assert {r.method for rep in reports for r in rep.levels} == {"exact", "monte-carlo"}
    got = hashlib.sha256(repr(reports).encode()).hexdigest()
    assert got == RECORDED_LIMIT_AVERAGE_SHA256


@pytest.mark.parametrize("kind", ["constant", "product", "monte-carlo"])
def test_point_block_rows_do_not_depend_on_the_split(kind):
    nu, _ = _bench_mixture(64)
    rho = dict(zip(("constant", "product", "monte-carlo"), _three_cocycles(nu)))[kind]
    schedule, mc_samples, seed = (4, 8, 32, 64), 200, 23

    def block(indices):
        return _point_block((nu, rho, DICT2, schedule, 0.02, mc_samples, seed, indices))

    whole = block(range(30))
    parts = [block(range(0, 7)), block(range(7, 30))]
    _assert_same_bytes(whole, [np.concatenate([p[k] for p in parts]) for k in range(3)])
    keys = [m.indices for m in DICT2.entries]
    for row, i in enumerate(range(30)):
        stream = substream(seed, i)
        x = nu.sample_array(stream)
        stat = pi_phi(x, rho, DICT2, schedule, 0.02, mc_samples, stream)
        assert [float(stat.values[k]) for k in keys] == whole[0][row].tolist()
        assert [stat.stderrs[k] for k in keys] == whole[1][row].tolist()
        assert [stat.converged[k] for k in keys] == whole[2][row].tolist()


def test_ergodicity_test_with_no_probes_checks_nothing():
    nu, _ = _bench_mixture(16)
    for rho in _three_cocycles(nu):
        for schedule in (None, (4, 8, 16)):
            verdict = ergodicity_test(nu, rho, DICT2, probes=0, schedule=schedule)
            assert (verdict.verdict, verdict.checks) == ("ergodic", 0)
