import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ergodec.averaging import orbit_class_key
from ergodec.cocycles import constant_one, make_rn
from ergodec.counterexamples import (
    InvariantSetFullGroup,
    _weakly_indecomposable,
    LabelFamilySet,
    algebra_atoms,
    atom_unions,
    demonstrate_kolmogorov,
    measure_of_invariant_set,
    orbit_class,
    weak_strong_equivalence_check,
)
from ergodec.measures import AtomicMeasure, Mixture, ProductBernoulli
from ergodec.rng import substream
from ergodec.sigma_finite import orbital_measure


def test_orbit_class_all_zeros():
    lab = orbit_class("eventually-zero", 0)
    assert lab.family == "finite-ones" and lab.k == 0


def test_orbit_class_five_ones():
    lab = orbit_class("eventually-zero", 5)
    assert lab.family == "finite-ones" and lab.k == 5
    assert lab.is_countable_orbit()


def test_orbit_class_density_typical():
    lab = orbit_class("two-sided")
    assert lab.family == "two-sided-infinite"
    assert not lab.is_countable_orbit()


def test_orbit_class_rejects_ambiguous():
    with pytest.raises(ValueError):
        orbit_class("eventually-zero")
    with pytest.raises(ValueError):
        orbit_class("two-sided", 3)
    with pytest.raises(ValueError):
        orbit_class("almost-periodic")


def _mixture(window=4):
    return Mixture(
        [Fraction(1, 2), Fraction(1, 2)],
        [ProductBernoulli([0.2] * window), ProductBernoulli([0.8] * window)],
    )


def test_measure_of_two_sided_orbit_is_one():
    a = InvariantSetFullGroup.of_labels([orbit_class("two-sided")])
    assert measure_of_invariant_set(_mixture(), a) == 1


def test_measure_of_countable_family_is_zero():
    a = InvariantSetFullGroup(
        ones_family=LabelFamilySet.all(),
        zeros_family=LabelFamilySet.empty(),
        has_two_sided=False,
    )
    assert measure_of_invariant_set(_mixture(), a) == 0


def test_measure_of_everything_is_one():
    assert measure_of_invariant_set(_mixture(), InvariantSetFullGroup.everything()) == 1


def test_measure_rejects_atomic_inputs():
    nu = AtomicMeasure({(1, 0): Fraction(1)})
    with pytest.raises(TypeError):
        measure_of_invariant_set(nu, InvariantSetFullGroup.everything())


def test_invariant_algebra_zero_one_and_monotone():
    atoms = algebra_atoms(2)
    mixture = _mixture()
    sets = []
    for bits in range(2 ** len(atoms)):
        s = InvariantSetFullGroup.empty()
        for i, atom in enumerate(atoms):
            if bits >> i & 1:
                s = s.union(atom)
        sets.append((s, measure_of_invariant_set(mixture, s)))
    assert all(m in (0, 1) for _, m in sets)
    for (s1, m1), (s2, m2) in zip(sets[::7], sets[1::7]):
        if s1.subset_of(s2):
            assert m1 <= m2
    # complement masses add to one
    for s, m in sets[::5]:
        assert m + measure_of_invariant_set(mixture, s.complement()) == 1


def test_family_set_algebra():
    fin = LabelFamilySet("finite", frozenset({1, 2}))
    cof = LabelFamilySet("cofinite", frozenset({0, 1, 2, 3}))
    assert fin.union(cof).kind == "cofinite"
    assert fin.union(cof).contains(1) and not fin.union(cof).contains(0)
    assert fin.complement().contains(5) and not fin.complement().contains(2)
    assert fin.subset_of(LabelFamilySet.all())
    assert not LabelFamilySet.all().subset_of(fin)


def test_demonstrate_kolmogorov_report():
    report = demonstrate_kolmogorov(window=2048, samples=10000, seed=0)
    assert report.ergodic_full_group
    assert report.sets_checked == 2**11
    assert report.split_weights == (Fraction(1, 2), Fraction(1, 2))
    assert report.split_params == (0.2, 0.8)
    assert abs(report.frequency_event_mass - 0.5) <= 0.02
    assert report.hoeffding_bound < 1e-100
    assert "decomposable" in report.narrative


@pytest.mark.parametrize("max_count", range(4))
def test_atom_unions_equal_the_unions_from_empty(max_count):
    atoms = algebra_atoms(max_count)
    want = []
    for bits in range(2 ** len(atoms)):
        s = InvariantSetFullGroup.empty()
        for i, atom in enumerate(atoms):
            if bits >> i & 1:
                s = s.union(atom)
        want.append(s)
    assert atom_unions(atoms) == want


def _frequency_mass_by_bits(p_low, p_high, window, samples, seed):
    """The frequency-event estimate as it stood before ones counts were drawn
    as binomials: every configuration's window of bits drawn and counted."""
    mixture = Mixture(
        [Fraction(1, 2), Fraction(1, 2)],
        [ProductBernoulli([p_low] * window), ProductBernoulli([p_high] * window)],
    )
    stream = substream(seed, 0x5C)
    hits = 0
    for _ in range(samples):
        comp = mixture.sample_component(stream)
        if int(mixture.components[comp].sample_array(stream).sum()) <= window // 2:
            hits += 1
    return hits / samples


def _binomial_cdf(n, p, k):
    return sum(math.comb(n, j) * p**j * (1 - p) ** (n - j) for j in range(k + 1))


@pytest.mark.parametrize("seed", [3, 11, 29])
def test_frequency_event_mass_has_the_binomial_law(seed):
    # At window 16 the event {ones <= 8} has mass strictly inside (0, 1) under
    # both components, so a wrong count law moves the estimate.
    window, samples, p_low, p_high = 16, 4000, 0.4, 0.6
    exact = (
        _binomial_cdf(window, Fraction(p_low), window // 2)
        + _binomial_cdf(window, Fraction(p_high), window // 2)
    ) / 2
    report = demonstrate_kolmogorov(p_low, p_high, window, samples, seed, max_count=0)
    assert type(report.frequency_event_mass) is float
    assert abs(report.frequency_event_mass - exact) <= 5 * report.frequency_event_stderr
    by_bits = _frequency_mass_by_bits(p_low, p_high, window, samples, seed)
    se = math.sqrt(by_bits * (1 - by_bits) / samples)
    assert abs(by_bits - exact) <= 5 * se
    assert demonstrate_kolmogorov(p_low, p_high, window, samples, seed, max_count=0) == report


def _orbit_uniform(window, count):
    eta = orbital_measure(
        tuple(1 if i < count else 0 for i in range(window)), window, mode="exact"
    )
    return eta


def test_equivalence_equal_measures():
    eta = _orbit_uniform(4, 2)
    verdict = weak_strong_equivalence_check(eta, eta, constant_one())
    assert verdict.relation == "equal"
    assert verdict.weakly_indecomposable == (True, True)
    assert verdict.singular_mass == 0


def test_equivalence_disjoint_orbits_singular():
    nu1 = _orbit_uniform(4, 1)
    nu2 = _orbit_uniform(4, 2)
    verdict = weak_strong_equivalence_check(nu1, nu2, constant_one())
    assert verdict.relation == "mutually-singular"
    assert verdict.ac_mass == 0 and verdict.singular_mass == 1


def test_equivalence_same_orbit_same_cocycle_forces_equality():
    # two measures on one orbit with matching mass ratios are the same measure
    params = [Fraction(2, 5), Fraction(1, 3), Fraction(4, 7), Fraction(1, 2)]
    reference = ProductBernoulli(params)
    rho = make_rn(reference)
    orbit = [c for c in itertools.product((0, 1), repeat=4) if sum(c) == 2]
    total = sum(reference.atom(c) for c in orbit)
    nu1 = AtomicMeasure({c: reference.atom(c) / total for c in orbit})
    nu2 = AtomicMeasure({c: reference.atom(c) / total for c in orbit})
    verdict = weak_strong_equivalence_check(nu1, nu2, rho)
    assert verdict.relation == "equal"


def test_equivalence_rejects_decomposable_inputs():
    # two orbits with strictly-between masses: some invariant set has mass 1/2
    nu = AtomicMeasure(
        {
            (0, 0, 0, 0): Fraction(1, 2),
            (1, 0, 0, 0): Fraction(1, 8),
            (0, 1, 0, 0): Fraction(1, 8),
            (0, 0, 1, 0): Fraction(1, 8),
            (0, 0, 0, 1): Fraction(1, 8),
        }
    )
    with pytest.raises(ValueError):
        weak_strong_equivalence_check(nu, nu, constant_one())


def test_equivalence_rejects_mismatched_cocycle():
    eta = _orbit_uniform(4, 2)
    skew = make_rn(ProductBernoulli([Fraction(2, 5), Fraction(1, 3), Fraction(4, 7), Fraction(1, 2)]))
    with pytest.raises(ValueError):
        weak_strong_equivalence_check(eta, eta, skew)


def test_exhaustive_sweep_never_neither():
    # all pairs of single-orbit uniform measures across small windows
    for window in range(2, 7):
        for k1 in range(window + 1):
            for k2 in range(window + 1):
                nu1 = _orbit_uniform(window, k1)
                nu2 = _orbit_uniform(window, k2)
                verdict = weak_strong_equivalence_check(nu1, nu2, constant_one())
                assert verdict.ok
                if k1 == k2:
                    assert verdict.relation == "equal"
                else:
                    assert verdict.relation == "mutually-singular"


def _weakly_indecomposable_loop(nu):
    """The former exhaustive check: every proper union of orbit classes."""
    classes = {}
    for x, m in nu.atoms.items():
        key = orbit_class_key(x, nu.window)
        classes[key] = classes.get(key, Fraction(0)) + m
    labels = sorted(classes)
    for r in range(1, len(labels)):
        for combo in itertools.combinations(labels, r):
            if sum((classes[c] for c in combo), Fraction(0)) not in (0, 1):
                return False
    return True


_mass = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1), Fraction(1, 2)]),
    st.fractions(min_value=0, max_value=2, max_denominator=6),
)


@given(atoms=st.dictionaries(st.tuples(*[st.integers(0, 1)] * 5), _mass, max_size=8))
def test_weakly_indecomposable_equals_subset_loop(atoms):
    # window 5: the orbit classes are the ones counts 0..5, so c <= 6
    nu = AtomicMeasure(atoms, window=5)
    assert _weakly_indecomposable(nu) == _weakly_indecomposable_loop(nu)


def test_weakly_indecomposable_two_unit_classes_is_vacuously_true():
    # total mass 2: the only proper unions are the two singletons, mass 1 each
    nu = AtomicMeasure({(0, 0): 1, (1, 1): 1})
    assert _weakly_indecomposable(nu)
    assert not _weakly_indecomposable(AtomicMeasure({(0, 0): 1, (1, 0): 1, (1, 1): 1}))
