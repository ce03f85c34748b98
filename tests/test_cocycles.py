import itertools
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergodec.averaging import EXACT_LEVEL_CAP, default_schedule, level_table
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
from ergodec.measures import (
    AtomicMeasure,
    BetaExchangeable,
    Mixture,
    ProductBernoulli,
    rn_derivative,
)
from ergodec.rng import substream
from ergodec.sigma_finite import ConstantWeight, GeometricWeight


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

    rho = Cocycle(eval_fn=corrupted, potential=lambda x: Fraction(1))
    rep = verify_identity(rho, 500, 3, 6, substream(37, 2))
    assert rep.violations > 0
    assert rep.first_witness is not None
    g, h, x, lhs, rhs = rep.first_witness
    assert lhs != rhs


_PROBE = (1, 0, 1, 0, 1, 0)


class _OffByOneFactor(GeometricWeight):
    """A geometric weight whose closed-form ratio is off by one factor of
    the base at a single probe configuration."""

    def ratio(self, g, x):
        v = super().ratio(g, x)
        return v * self.base if x == _PROBE and not g.is_identity() else v


def test_verify_identity_catches_an_off_by_one_weight_ratio():
    rho = make_rho_f(_OffByOneFactor(4))
    rep = verify_identity(rho, 500, 3, 6, substream(37, 2))
    assert rep.exact and rep.violations > 0
    g, h, x, lhs, rhs = rep.first_witness
    assert lhs != rhs
    assert verify_identity(make_rho_f(GeometricWeight(4)), 500, 3, 6, substream(37, 2)).ok


def _first_witness_by_elementwise_draws(rho, trials, level, window, rng):
    """verify_identity's loop with its triples drawn element by element."""

    def draw_permutation():
        images = rng.permutation(level)
        return Permutation({i + 1: int(images[i]) + 1 for i in range(level)})

    for _ in range(trials):
        g, h = draw_permutation(), draw_permutation()
        x = tuple(int(b) for b in rng.integers(0, 2, size=window))
        lhs, rhs = rho(g.compose(h), x), rho(g, act(h, x)) * rho(h, x)
        if lhs != rhs:
            return g, h, x, lhs, rhs
    return None


def test_verify_identity_tests_the_elementwise_triples():
    rho = make_rho_f(_OffByOneFactor(4))
    got = verify_identity(rho, 500, 3, 6, substream(37, 2)).first_witness
    want = _first_witness_by_elementwise_draws(rho, 500, 3, 6, substream(37, 2))
    assert want is not None and got == want
    assert all(type(b) is int for b in got[2])


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
    if kind == "beta":
        # an exchangeable mixture gets the constant cocycle; its atom masses
        # still serve a hand-built potential
        assert rho.is_constant_one
        rho = Cocycle(eval_fn=partial(rn_derivative, nu), potential=nu.atom)
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
    comps = [ProductBernoulli([0.2, 0.3] * 4), ProductBernoulli([0.7, 0.6] * 4)]
    nested = Mixture([0.5, 0.5], [Mixture([0.5, 0.5], comps), comps[0]])
    assert make_rn(nested).log_potential_rows == nested.log_atom_rows
    mixed = Mixture([0.5, 0.5], [comps[0], BetaExchangeable(1, 1, 8)])
    assert make_rn(mixed).log_potential_rows is None


def _inhomogeneous(window):
    return ProductBernoulli([Fraction(1 + i % 3, 5) for i in range(window)])


def _de_finetti(window):
    return Mixture([0.4, 0.6], [ProductBernoulli([0.3] * window),
                                ProductBernoulli([0.7] * window)])


# constructor, engine at levels up to S(8), engine above
LEVEL_ENGINES = {
    "constant_one": (lambda w: constant_one(), "closed-form", "closed-form"),
    "rn-inhomogeneous-product": (lambda w: make_rn(_inhomogeneous(w)), "enumeration", "product"),
    "rn-homogeneous-fraction": (
        lambda w: make_rn(ProductBernoulli([Fraction(2, 7)] * w)), "closed-form", "closed-form"
    ),
    "rn-homogeneous-float": (
        lambda w: make_rn(ProductBernoulli([0.3] * w)), "closed-form", "closed-form"
    ),
    "rn-de-finetti-mixture": (lambda w: make_rn(_de_finetti(w)), "closed-form", "closed-form"),
    "rn-beta": (lambda w: make_rn(BetaExchangeable(2, 3, w)), "closed-form", "closed-form"),
    "rho-f-constant-weight": (
        lambda w: make_rho_f(ConstantWeight()), "closed-form", "closed-form"
    ),
    "rho-f-geometric-weight": (
        lambda w: make_rho_f(GeometricWeight(4)), "enumeration", "monte-carlo"
    ),
}


@pytest.mark.parametrize("name", sorted(LEVEL_ENGINES))
def test_each_constructor_picks_its_level_engine(name):
    build, low, high = LEVEL_ENGINES[name]
    window = 256
    levels = default_schedule(window)
    x = substream(63, 0).integers(0, 2, size=window).astype(np.uint8)
    table = level_table(x[None, :], build(window), levels, [(1,), (1, 2)],
                        mc_samples=64, streams=[substream(63, 1)])
    assert table.methods == tuple(low if n <= EXACT_LEVEL_CAP else high for n in levels)


@st.composite
def _exchangeable_cocycles(draw, window):
    kind = draw(st.sampled_from(["beta", "fraction", "float", "mixture", "constant-weight"]))
    if kind == "constant-weight":
        return make_rho_f(ConstantWeight(Fraction(draw(st.integers(1, 9)), 4)))
    beta = BetaExchangeable(draw(st.integers(1, 5)), draw(st.integers(1, 5)), window)
    fraction = ProductBernoulli([Fraction(draw(st.integers(1, 9)), 10)] * window)
    floats = ProductBernoulli([draw(st.floats(0.01, 0.99))] * window)
    nu = {"beta": beta, "fraction": fraction, "float": floats,
          "mixture": Mixture([0.25, 0.25, 0.5], [beta, fraction, floats])}[kind]
    return make_rn(nu)


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_exchangeable_tables_equal_the_constant_cocycle_to_the_byte(data):
    window = data.draw(st.integers(2, 512))
    rho = data.draw(_exchangeable_cocycles(window))
    levels = sorted(data.draw(st.sets(st.integers(1, window), min_size=1, max_size=4)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    rows = (rng.random((data.draw(st.integers(1, 8)), window)) < rng.random()).astype(np.uint8)
    width = min(window, 3)
    keys = [m.indices for m in TestDictionary.build(2, width).entries] + [(1, window)]
    got = level_table(rows, rho, levels, keys)
    want = level_table(rows, constant_one(), levels, keys)
    assert got.methods == ("closed-form",) * len(levels)
    for g, w in ((got.values, want.values), (got.slacks, want.slacks),
                 (got.stderrs, want.stderrs)):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
