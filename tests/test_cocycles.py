import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergodec.averaging import level_table

from ergodec.cocycles import (
    Cocycle,
    constant_one,
    make_rho_f,
    make_rn,
    verify_identity,
)
from ergodec.decomposition import pi_phi
from ergodec.dictionary import TestDictionary
from ergodec.groups import Permutation, act, haar_sample, level_orbit
from ergodec.measures import AtomicMeasure, BetaExchangeable, Mixture, ProductBernoulli
from ergodec.rng import substream
from ergodec.sigma_finite import GeometricWeight


def _doubling_weight(x):
    # f(x) = 2 ** x_1
    return Fraction(2) ** x[0]


def test_rho_f_constant_weight_is_one():
    rho = make_rho_f(lambda x: Fraction(1))
    rng = substream(31, 0)
    for _ in range(10):
        g = haar_sample(4, rng)
        x = tuple(int(b) for b in rng.integers(0, 2, size=4))
        assert rho(g, x) == 1


def test_rho_f_doubling_example():
    rho = make_rho_f(_doubling_weight)
    # f(act(swap,(1,0))) / f((1,0)) = 2^0 / 2^1
    assert _doubling_weight((0, 1)) == 1
    assert _doubling_weight((1, 0)) == 2
    assert rho(Permutation.swap(1, 2), (1, 0)) == Fraction(1, 2)


def test_rho_f_identity_element():
    rho = make_rho_f(_doubling_weight)
    rng = substream(31, 1)
    for _ in range(10):
        x = tuple(int(b) for b in rng.integers(0, 2, size=3))
        assert rho(Permutation.identity(), x) == 1


def test_rn_cocycle_example():
    nu = ProductBernoulli([Fraction(1, 2), Fraction(1, 4)])
    rho = make_rn(nu)
    assert rho(Permutation.swap(1, 2), (1, 0)) == Fraction(1, 3)
    assert rho(Permutation.identity(), (1, 0)) == 1


def test_rn_exchangeable_behaves_as_constant():
    nu = ProductBernoulli([Fraction(3, 7)] * 5)
    rho = make_rn(nu)
    rng = substream(31, 2)
    for _ in range(30):
        g = haar_sample(5, rng)
        x = tuple(int(b) for b in rng.integers(0, 2, size=5))
        assert rho(g, x) == 1


def test_verify_identity_constant_one():
    rep = verify_identity(constant_one(), 200, 4, 8, substream(37, 0))
    assert rep.ok and rep.exact and rep.first_witness is None


def test_verify_identity_rn_exact():
    params = [Fraction(2 + (i % 7), 11) for i in range(16)]
    rho = make_rn(ProductBernoulli(params))
    rep = verify_identity(rho, 1000, 6, 16, substream(37, 1))
    assert rep.violations == 0
    assert rep.exact


def test_verify_identity_reports_witness_for_corrupted_cocycle():
    base = make_rn(ProductBernoulli([Fraction(1, 3)] * 6))

    probe = (1, 0, 1, 0, 1, 0)

    def corrupted(g, x):
        v = base(g, x)
        if x == probe and not g.is_identity():
            return v + 1
        return v

    rho = Cocycle(eval_fn=corrupted, provenance="radon-nikodym")
    rep = verify_identity(rho, 500, 3, 6, substream(37, 2))
    assert rep.violations > 0
    assert rep.first_witness is not None
    g, h, x, lhs, rhs = rep.first_witness
    assert lhs != rhs


def test_weight_and_rn_agree_when_density_proportional():
    # nu with atom mass proportional to f against the uniform reference;
    # full enumeration of the top level and of all configurations
    from ergodec.groups import enumerate_level

    f = GeometricWeight(2)
    window = 4
    configs = list(itertools.product((0, 1), repeat=window))
    total = sum(f(c) for c in configs)
    nu = AtomicMeasure({c: f(c) / total for c in configs})
    rho_f = make_rho_f(f)
    rho_nu = make_rn(nu)
    for g in enumerate_level(window):
        for x in configs:
            assert rho_f(g, x) == rho_nu(g, x)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**5 - 1), st.integers(0, 119))
def test_positivity_and_identity_at_identity(bits, perm_index):
    params = [Fraction(2, 5), Fraction(1, 3), Fraction(4, 7), Fraction(1, 2), Fraction(2, 3)]
    rho = make_rn(ProductBernoulli(params))
    x = tuple((bits >> i) & 1 for i in range(5))
    perms = list(itertools.permutations(range(1, 6)))
    g = Permutation.from_one_line(perms[perm_index])
    assert rho(g, x) > 0
    assert rho(Permutation.identity(), x) == 1


def test_cocycle_declares_fibrewise_continuity():
    assert constant_one().fibrewise_continuous
    assert make_rn(ProductBernoulli([Fraction(1, 2)])).fibrewise_continuous


@pytest.mark.parametrize("kind", ["beta", "atomic"])
def test_make_rn_mixture_without_log_rows_takes_atom_masses(kind):
    # exchangeable components: every atom ratio is exactly 1, so the Monte
    # Carlo level average is a plain Haar mean and must agree with the
    # closed form
    window = 16
    if kind == "beta":
        comps = [BetaExchangeable(1, 1, window), BetaExchangeable(2, 3, window)]
    else:
        comps = [
            AtomicMeasure({y: Fraction(1) for y in level_orbit(x, window)}).normalized()
            for x in [(1, 1, 1) + (0,) * 13, (1,) * 10 + (0,) * 6]
        ]
    nu = Mixture([Fraction(1, 2)] * 2, comps)
    rho = make_rn(nu)
    assert rho.log_potential_rows is None
    dictionary = TestDictionary.build(2, 2)
    keys = [m.indices for m in dictionary.entries]
    for i in range(5):
        x = nu.sample_array(substream(61, i))
        stat = pi_phi(x, rho, dictionary, schedule=(8, 16), mc_samples=400,
                      rng=substream(62, i))
        exact = level_table(x[None, :], constant_one(), (16,), keys)
        for j, key in enumerate(keys):
            assert abs(float(stat.values[key]) - exact.values[0, 0, j]) <= (
                4 * stat.stderrs[key] + 1e-12
            )


def test_make_rn_hands_over_log_rows_when_every_component_has_them():
    comps = [ProductBernoulli([0.2] * 8), ProductBernoulli([0.7] * 8)]
    nested = Mixture([0.5, 0.5], [Mixture([0.5, 0.5], comps), comps[0]])
    assert make_rn(nested).log_potential_rows == nested.log_atom_rows
    mixed = Mixture([0.5, 0.5], [comps[0], BetaExchangeable(1, 1, 8)])
    assert make_rn(mixed).log_potential_rows is None
