import itertools
import json
import math
from fractions import Fraction

import pytest

from ergodec import counterexamples
from ergodec.cli import main
from ergodec.cocycles import constant_one, make_rn
from ergodec.counterexamples import (
    InvariantSetFullGroup,
    LabelFamilySet,
    algebra_atoms,
    demonstrate_kolmogorov,
    measure_of_invariant_set,
)
from ergodec.decomposition import conditional_measures_exact
from ergodec.groups import Permutation
from ergodec.measures import AtomicMeasure, Mixture, ProductBernoulli, ac_check
from ergodec.rng import substream
from ergodec.sigma_finite import orbital_measure
from ergodec.validation import _product_atoms, exact_decomposition_verdict


def _mixture(window=4):
    return Mixture(
        [Fraction(1, 2), Fraction(1, 2)],
        [ProductBernoulli([0.2] * window), ProductBernoulli([0.8] * window)],
    )


def test_measure_of_two_sided_orbit_is_one():
    a = InvariantSetFullGroup(LabelFamilySet.empty(), LabelFamilySet.empty(), has_two_sided=True)
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


def _unions_from_empty(atoms):
    """Every union of the atoms, entry bits taking the atoms whose bits are
    set, each built up from the empty set."""
    sets = []
    for bits in range(2 ** len(atoms)):
        s = InvariantSetFullGroup.empty()
        for i, atom in enumerate(atoms):
            if bits >> i & 1:
                s = s.union(atom)
        sets.append(s)
    return sets


def test_invariant_algebra_zero_one_and_monotone():
    mixture = _mixture()
    sets = [
        (s, measure_of_invariant_set(mixture, s)) for s in _unions_from_empty(algebra_atoms(2))
    ]
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


def _union_sweep(max_count, mass):
    """The zero-one check as an exhaustive sweep: every union of the atoms has
    mass 0 or 1 and adds to 1 with its complement, and no union is heavier
    than a superset among the first 16 unions. Returns the verdict and the
    number of unions."""
    nu = _mixture()
    zero_one = monotone = True
    previous = []
    sets = _unions_from_empty(algebra_atoms(max_count))
    for s in sets:
        m = mass(nu, s)
        zero_one = zero_one and m in (0, 1) and m + mass(nu, s.complement()) == 1
        monotone = monotone and not any(s.subset_of(t) and m > mt for t, mt in previous)
        if len(previous) < 16:
            previous.append((s, m))
    return zero_one and monotone, len(sets)


def _charges_count_zero(nu, s):
    """Additive, total 2: the real mass plus a unit on the orbit of the
    all-zero sequence (the finite-ones atom of count 0)."""
    return measure_of_invariant_set(nu, s) + int(s.ones_family.contains(0))


def _charges_nothing(nu, s):
    return 0


def _halves(nu, s):
    """Additive, total 1, but not zero-one: half on the all-zero orbit and
    half on the two-sided orbit."""
    return Fraction(int(s.ones_family.contains(0)) + int(s.has_two_sided), 2)


def _kolmogorov_zero_one(max_count):
    report = demonstrate_kolmogorov(window=16, samples=10, max_count=max_count)
    return report.ergodic_full_group, report.sets_checked


@pytest.mark.parametrize("max_count", range(5))
def test_zero_one_scan_matches_the_union_sweep(monkeypatch, max_count):
    # The atom scan gives the exhaustive sweep's verdict and union count under
    # the real mass and under three additive masses that break the zero-one
    # law: totals 2, 0, and 1 split over two atoms.
    c = len(algebra_atoms(max_count))
    want = _union_sweep(max_count, measure_of_invariant_set)
    assert _kolmogorov_zero_one(max_count) == want == (True, 2**c)
    for mass in (_charges_count_zero, _charges_nothing, _halves):
        monkeypatch.setattr(counterexamples, "measure_of_invariant_set", mass)
        want = _union_sweep(max_count, mass)
        assert _kolmogorov_zero_one(max_count) == want == (False, 2**c)


@pytest.mark.parametrize("edit", ["overlap", "gap"])
def test_zero_one_scan_needs_the_atoms_to_partition(monkeypatch, edit):
    # Atom masses alone decide every union only for a partition: a repeated
    # atom (mass 0) or a missing one (the cofinite zeros remainder, mass 0)
    # leaves masses that are zero-one and sum to 1, and the verdict fails.
    atoms = algebra_atoms(1)
    atoms = atoms + atoms[:1] if edit == "overlap" else atoms[:-2] + atoms[-1:]
    monkeypatch.setattr(counterexamples, "algebra_atoms", lambda max_count: atoms)
    assert not demonstrate_kolmogorov(window=16, samples=10).ergodic_full_group


def test_zero_one_scan_evaluates_each_atom_once(monkeypatch):
    calls = []

    def counted(nu, s):
        calls.append(s)
        return measure_of_invariant_set(nu, s)

    monkeypatch.setattr(counterexamples, "measure_of_invariant_set", counted)
    report = demonstrate_kolmogorov(window=16, samples=10)
    assert calls == algebra_atoms(3)  # c = 11 calls, where the sweep made 2^12
    assert report.sets_checked == 2 ** len(calls)


@pytest.mark.parametrize("mass", [_charges_count_zero, _charges_nothing, _halves])
def test_broken_zero_one_law_fails_the_cli_verdict(monkeypatch, capsys, tmp_path, mass):
    monkeypatch.setattr(counterexamples, "measure_of_invariant_set", mass)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"window": 1024, "samples": 2000}))
    assert main(["kolmogorov", "--config", str(cfg), "--seed", "1"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "FAIL full-group-zero-one-law",
        "PASS explicit-convex-split",
        "PASS frequency-event-mass",
    ]


@pytest.mark.parametrize("p_low, p_high", [(0.6, 0.8), (0.8, 0.2), (0.5, 0.8), (0.2, 0.5)])
def test_kolmogorov_needs_parameters_on_both_sides_of_one_half(p_low, p_high):
    # With both parameters on one side of 1/2 the squared gap lost its sign
    # and the tail bound read 2.6e-36 for (0.6, 0.8) while the mass was 0.
    with pytest.raises(ValueError, match="p_low < 1/2 < p_high"):
        demonstrate_kolmogorov(p_low, p_high, window=16, samples=10)


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
        if int(mixture.components[comp].sample_rows(stream, 1)[0].sum()) <= window // 2:
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
    return orbital_measure(tuple(1 if i < count else 0 for i in range(window)), window)


def _cell_measures(nu, rho):
    """The cell measures of ``conditional_measures_exact``, which must be
    quasi-invariant with rho on an orbit-closed support."""
    assignment = conditional_measures_exact(nu, rho)
    assert assignment.rn_verified and assignment.support_orbit_closed
    return [cell.measure for cell in assignment.cells]


def test_equivalence_equal_measures():
    # one orbit class under the constant cocycle: one cell, the measure itself
    eta = _orbit_uniform(4, 2)
    assert _cell_measures(eta, constant_one()) == [eta]


def test_equivalence_disjoint_orbits_singular():
    # the cells of a half/half mix of two orbit measures are those measures
    nu1, nu2 = _orbit_uniform(4, 1), _orbit_uniform(4, 2)
    mix = AtomicMeasure({**nu1.scaled(Fraction(1, 2)).atoms, **nu2.scaled(Fraction(1, 2)).atoms})
    cells = _cell_measures(mix, constant_one())
    assert sorted(cells, key=lambda c: len(c.support)) == [nu1, nu2]
    assert ac_check(*cells) == "mutually-singular"


def test_equivalence_same_orbit_same_cocycle_forces_equality():
    # a measure on one orbit whose mass ratios follow rho is the cell of that
    # orbit in any measure of rho's class; a measure on the orbit with other
    # ratios is not in the class
    params = [Fraction(2, 5), Fraction(1, 3), Fraction(4, 7), Fraction(1, 2)]
    reference = ProductBernoulli(params)
    rho = make_rn(reference)
    orbit = [c for c in itertools.product((0, 1), repeat=4) if sum(c) == 2]
    total = sum(reference.atom(c) for c in orbit)
    nu = AtomicMeasure({c: reference.atom(c) / total for c in orbit})
    (cell,) = _cell_measures(nu, rho)
    assert cell == nu
    full = conditional_measures_exact(_product_atoms(params), rho)
    assert full.rn_verified
    assert [c.measure for c in full.cells if c.configs == frozenset(orbit)] == [nu]
    assert not conditional_measures_exact(_orbit_uniform(4, 2), rho).rn_verified


def test_equivalence_rejects_mismatched_cocycle():
    eta = _orbit_uniform(4, 2)
    skew = make_rn(ProductBernoulli([Fraction(2, 5), Fraction(1, 3), Fraction(4, 7), Fraction(1, 2)]))
    assert not conditional_measures_exact(eta, skew).rn_verified
    assert not exact_decomposition_verdict(eta, skew, 4).passed


def test_exhaustive_sweep_never_neither():
    # every orbit measure across small windows is one cell of the even mix of
    # all of them, and any two cells are mutually singular: two ergodic
    # measures of one cocycle are equal or mutually singular
    for window in range(2, 7):
        orbits = [_orbit_uniform(window, k) for k in range(window + 1)]
        mix = AtomicMeasure({x: m / (window + 1) for eta in orbits for x, m in eta.atoms.items()})
        cells = _cell_measures(mix, constant_one())
        assert sorted(cells, key=lambda c: sum(next(iter(c.support)))) == orbits
        for a, b in itertools.combinations(cells, 2):
            assert ac_check(a, b) == "mutually-singular"


def test_conditional_cells_flag_a_support_that_is_not_orbit_closed():
    # make_rn(nu) is 0 on a swap that leaves the support, so the cell ratios
    # agree with it, while the cells report the support as not orbit-closed
    # and the verdict fails
    nu = AtomicMeasure({(0, 0, 0): Fraction(1, 2), (1, 0, 0): Fraction(1, 2)})
    rho = make_rn(nu)
    assert rho(Permutation.swap(1, 2), (1, 0, 0)) == 0
    assignment = conditional_measures_exact(nu, rho)
    assert assignment.rn_verified
    assert not assignment.support_orbit_closed
    assert not exact_decomposition_verdict(nu, rho, 3).passed
