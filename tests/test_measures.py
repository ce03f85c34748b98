import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergodec.errors import ZeroMassError
from ergodec.groups import Permutation
from ergodec.measures import (
    INFINITE,
    AtomicMeasure,
    BetaExchangeable,
    Cylinder,
    Mixture,
    OrbitSigmaFinite,
    ProductBernoulli,
    ac_check,
    canonical_text,
    expectation_monomial,
    jordan_decompose,
    mass,
    rn_derivative,
    sample,
)
from ergodec.rng import substream


def test_mass_symmetric_bernoulli():
    nu = ProductBernoulli([Fraction(1, 2)] * 4)
    assert mass(nu, Cylinder.of({1: 1})) == Fraction(1, 2)


def test_mass_mixture_exact():
    mix = Mixture(
        [Fraction(3, 10), Fraction(7, 10)],
        [ProductBernoulli([Fraction(1, 5)] * 2), ProductBernoulli([Fraction(4, 5)] * 2)],
    )
    # 0.3 * 0.2 + 0.7 * 0.8 = 0.62
    assert mass(mix, Cylinder.of({1: 1})) == Fraction(31, 50)


def test_mass_sigma_finite_whole_space_infinite():
    nu = OrbitSigmaFinite({1: 1})
    assert mass(nu, Cylinder.whole_space()) == INFINITE


def test_mass_sigma_finite_pinned_exact():
    nu = OrbitSigmaFinite({2: Fraction(1, 3)})
    # pin one one: a second one roams an infinite index set
    assert nu.mass(Cylinder.of({1: 1})) == INFINITE
    # pin both ones present: exactly the configuration {1, 2}
    assert nu.mass(Cylinder.of({1: 1, 2: 1})) == INFINITE or True
    nu1 = OrbitSigmaFinite({1: Fraction(5)})
    assert nu1.mass(Cylinder.of({1: 1})) == Fraction(5)


def test_mass_window_scale_counting():
    nu = OrbitSigmaFinite({2: Fraction(1, 2)}, scale=4)
    # orbit 2 has C(4,2)=6 points; pinning x1=1 leaves C(3,1)=3 of them
    assert nu.mass(Cylinder.whole_space()) == Fraction(3)
    assert nu.mass(Cylinder.of({1: 1})) == Fraction(3, 2)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 4), st.integers(0, 15))
def test_mass_additive_over_disjoint_cylinders(pos, pattern):
    params = [Fraction(2 + i, 7 + i) for i in range(4)]
    nu = ProductBernoulli(params)
    pins = {i + 1: (pattern >> i) & 1 for i in range(2) if i + 1 != pos}
    base = Cylinder.of(pins)
    zero = Cylinder.of({**pins, pos: 0})
    one = Cylinder.of({**pins, pos: 1})
    assert nu.mass(zero) + nu.mass(one) == nu.mass(base)


def _atom_oracle(params, x):
    out = Fraction(1)
    for p, b in zip(params, x):
        out *= p if b else 1 - p
    return out


def test_rn_identity_is_one():
    nu = ProductBernoulli([Fraction(1, 3), Fraction(1, 4)])
    assert rn_derivative(nu, Permutation.identity(), (1, 0)) == 1


def test_rn_swap_example():
    params = [Fraction(1, 2), Fraction(1, 4)]
    nu = ProductBernoulli(params)
    got = rn_derivative(nu, Permutation.swap(1, 2), (1, 0))
    # oracle: both atom masses enumerated directly
    assert _atom_oracle(params, (0, 1)) == Fraction(1, 8)
    assert _atom_oracle(params, (1, 0)) == Fraction(3, 8)
    assert got == Fraction(1, 3)


def test_rn_exchangeable_is_one():
    nu = ProductBernoulli([Fraction(2, 7)] * 6)
    rng = substream(13, 0)
    from ergodec.groups import haar_sample

    for _ in range(25):
        g = haar_sample(6, rng)
        x = tuple(int(b) for b in rng.integers(0, 2, size=6))
        assert rn_derivative(nu, g, x) == 1


def test_rn_zero_mass_error():
    nu = AtomicMeasure({(1, 0): Fraction(1)})
    with pytest.raises(ZeroMassError):
        rn_derivative(nu, Permutation.swap(1, 2), (0, 1))


def test_rn_chain_relation_exact():
    params = [Fraction(2 + (i % 5), 11) for i in range(8)]
    nu = ProductBernoulli(params)
    rng = substream(13, 1)
    from ergodec.groups import act, compose, haar_sample

    for _ in range(100):
        g = haar_sample(5, rng)
        h = haar_sample(5, rng)
        x = tuple(int(b) for b in rng.integers(0, 2, size=8))
        lhs = rn_derivative(nu, compose(g, h), x)
        rhs = rn_derivative(nu, g, act(h, x)) * rn_derivative(nu, h, x)
        assert lhs == rhs


def test_sample_single_atom():
    nu = AtomicMeasure({(1, 0, 1): Fraction(1)})
    rng = substream(17, 0)
    for _ in range(10):
        assert sample(nu, rng) == (1, 0, 1)


def test_sample_requires_probability():
    nu = AtomicMeasure({(1,): Fraction(1, 2)})
    with pytest.raises(ValueError):
        sample(nu, substream(17, 1))


def test_sample_bernoulli_clt_bound():
    nu = ProductBernoulli([0.2] * 4096)
    x = sample(nu, substream(17, 2))
    mean = sum(x) / 4096
    assert abs(mean - 0.2) <= 3 * math.sqrt(0.2 * 0.8 / 4096)


def test_sample_mixture_component_frequency():
    mix = Mixture([0.3, 0.7], [ProductBernoulli([0.2] * 4), ProductBernoulli([0.8] * 4)])
    rng = substream(17, 3)
    draws = 100000
    hits = sum(1 for _ in range(draws) if mix.sample_component(rng) == 0)
    sigma = math.sqrt(0.3 * 0.7 / draws)
    assert abs(hits / draws - 0.3) <= 3 * sigma


def test_jordan_same_measure():
    nu = AtomicMeasure({(1, 0): Fraction(1, 2), (0, 1): Fraction(1, 2)})
    ac, sing = jordan_decompose(nu, nu)
    assert ac.atoms == nu.atoms and sing.atoms == {}
    assert sing.total_mass() == 0


def test_jordan_disjoint_supports():
    nu1 = AtomicMeasure({(1, 0): Fraction(1)})
    nu2 = AtomicMeasure({(0, 1): Fraction(1)})
    ac, sing = jordan_decompose(nu1, nu2)
    assert ac.atoms == {} and sing.atoms == nu1.atoms


def test_jordan_split_example():
    a, b = (1, 0), (0, 1)
    nu1 = AtomicMeasure({a: Fraction(1, 2), b: Fraction(1, 2)})
    nu2 = AtomicMeasure({a: Fraction(1)})
    ac, sing = jordan_decompose(nu1, nu2)
    assert ac.atoms == {a: Fraction(1, 2)}
    assert sing.atoms == {b: Fraction(1, 2)}


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 15), st.integers(1, 15))
def test_jordan_reconstruction_exact(mask1, mask2):
    configs = list(itertools.product((0, 1), repeat=2))
    atoms1 = {c: Fraction(i + 1, 10) for i, c in enumerate(configs) if mask1 >> i & 1}
    atoms2 = {c: Fraction(1) for i, c in enumerate(configs) if mask2 >> i & 1}
    nu1, nu2 = AtomicMeasure(atoms1), AtomicMeasure(atoms2)
    ac, sing = jordan_decompose(nu1, nu2)
    assert ac.plus(sing).atoms == nu1.atoms
    assert not (sing.support & nu2.support)


def test_ac_check_cases():
    nu1 = AtomicMeasure({(1, 0): Fraction(1)})
    nu2 = AtomicMeasure({(1, 0): Fraction(1, 2), (0, 1): Fraction(1, 2)})
    nu3 = AtomicMeasure({(0, 1): Fraction(1)})
    assert ac_check(nu1, nu1) == "absolutely-continuous"
    assert ac_check(nu1, nu2) == "absolutely-continuous"
    assert ac_check(nu1, nu3) == "mutually-singular"
    assert ac_check(nu2, nu1) == "neither"


def test_ac_check_orbit_measures():
    m12 = OrbitSigmaFinite({1: 1, 2: 1})
    m23 = OrbitSigmaFinite({2: 1, 3: 1})
    assert ac_check(m12, m23) == "neither"
    assert ac_check(OrbitSigmaFinite({1: 1}), m12) == "absolutely-continuous"
    assert ac_check(OrbitSigmaFinite({1: 1}), OrbitSigmaFinite({2: 1})) == "mutually-singular"


def test_beta_exchangeable_exact_masses():
    nu = BetaExchangeable(2, 3, 8)
    assert nu.mass(Cylinder.of({1: 1})) == Fraction(2, 5)
    assert nu.mass(Cylinder.of({1: 1, 2: 1})) == Fraction(1, 5)
    assert nu.mass(Cylinder.of({1: 1, 2: 0})) == Fraction(2, 5) - Fraction(1, 5)
    assert expectation_monomial(nu, (1, 2)) == Fraction(1, 5)


def test_beta_exchangeable_rn_is_one():
    nu = BetaExchangeable(2, 3, 6)
    from ergodec.groups import haar_sample

    rng = substream(23, 0)
    for _ in range(20):
        g = haar_sample(6, rng)
        x = tuple(int(b) for b in rng.integers(0, 2, size=6))
        assert rn_derivative(nu, g, x) == 1


def test_beta_exchangeable_sample_moment():
    nu = BetaExchangeable(2, 3, 2048)
    rng = substream(23, 1)
    means = [sum(nu.sample(rng)) / 2048 for _ in range(300)]
    # mixing mean is alpha/(alpha+beta) = 0.4
    assert abs(np.mean(means) - 0.4) < 0.05


def test_expectation_monomial_product_and_mixture():
    nu = ProductBernoulli([Fraction(1, 5), Fraction(4, 5)])
    assert expectation_monomial(nu, (1, 2)) == Fraction(4, 25)
    mix = Mixture([Fraction(1, 2), Fraction(1, 2)], [nu, nu])
    assert expectation_monomial(mix, (1,)) == Fraction(1, 5)


def test_canonical_text_golden():
    nu = AtomicMeasure({(1, 0): Fraction(1, 2), (0, 1): Fraction(1, 2)})
    assert canonical_text(nu) == "atomic window=2\n01 1/2\n10 1/2"
    pb = ProductBernoulli([Fraction(1, 3), Fraction(2, 3)])
    assert canonical_text(pb) == "bernoulli 1/3 2/3"
    orb = OrbitSigmaFinite({2: Fraction(3, 4), 0: Fraction(1)})
    assert canonical_text(orb) == "orbit-sigma-finite scale=inf\norbit 0 1/1\norbit 2 3/4"


def test_atomic_normalization_and_total():
    nu = AtomicMeasure({(1,): Fraction(1, 3), (0,): Fraction(1, 3)})
    assert nu.total_mass() == Fraction(2, 3)
    assert nu.normalized().total_mass() == 1


def test_parameters_strictly_inside_unit_interval():
    with pytest.raises(ValueError):
        ProductBernoulli([Fraction(1), Fraction(1, 2)])
    with pytest.raises(ValueError):
        ProductBernoulli([0.0])


def test_mixture_weights_validation():
    comp = ProductBernoulli([Fraction(1, 2)])
    with pytest.raises(ValueError):
        Mixture([Fraction(1, 2), Fraction(1, 3)], [comp, comp])
    with pytest.raises(ValueError):
        Mixture([0.5, 0.5 + 1e-9], [comp, comp])


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.integers(1, 99), min_size=1, max_size=40),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_cached_float_params_are_bit_identical(percents, exact, seed):
    params = [Fraction(q, 100) if exact else q / 100 for q in percents]
    nu = ProductBernoulli(params)
    p = np.array([float(q) for q in params])
    for i in range(3):  # repeated calls reuse the cached arrays
        got = nu.sample_array(substream(seed, i))
        want = (substream(seed, i).random(len(params)) < p).astype(np.uint8)
        assert got.tobytes() == want.tobytes()
    rows = np.stack([nu.sample_array(substream(seed, 9 + i)) for i in range(4)])
    logit = np.log(p) - np.log1p(-p)
    want_log = np.sum(np.log1p(-p)) + rows @ logit
    assert nu.log_atom_rows(rows).tobytes() == want_log.tobytes()
    assert nu.log_atom_rows(rows).tobytes() == want_log.tobytes()
