import itertools
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ergodec.averaging import average_exact, default_schedule, monomial_level_average
from ergodec.cocycles import constant_one, make_rn
from ergodec.decomposition import (
    DecomposeConfig,
    almost_invariant_upgrade,
    assemble,
    barycenter_residual,
    conditional_measures_exact,
    decompose,
    ergodicity_test,
    ks_statistic,
    level_gap_sd,
    mes_ed_roundtrip,
    pi_phi,
    singular_assembly_check,
    split_by_gaps,
)
from ergodec.dictionary import TestDictionary
from ergodec.errors import NonConvergenceError
from ergodec.groups import act, enumerate_level
from ergodec.measures import AtomicMeasure, Mixture, ProductBernoulli
from ergodec.rng import substream


def _product_atoms(params):
    atoms = {}
    for bits in itertools.product((0, 1), repeat=len(params)):
        m = Fraction(1)
        for p, b in zip(params, bits):
            m *= p if b else 1 - p
        atoms[bits] = m
    return AtomicMeasure(atoms)


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
