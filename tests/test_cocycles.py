import itertools
import math
import pickle
from fractions import Fraction
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ergodec.cocycles as cocycles
from ergodec.averaging import EXACT_LEVEL_CAP, default_schedule, level_table
from ergodec.cocycles import (
    _TRIAL_CHUNK,
    Cocycle,
    _identity_triples,
    _judge,
    constant_one,
    make_rho_f,
    make_rn,
    rho_rows,
    verify_identity,
)
from ergodec.decomposition import _is_own_rn, pi_phi
from ergodec.dictionary import TestDictionary
from ergodec.groups import Permutation, act, compose, enumerate_level, haar_sample, level_orbit
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
    """A geometric weight whose exact row kernel is off by one factor of
    the base at a single probe configuration; ``make_rho_f`` evaluates one
    pair through the same kernel, so both see the corruption."""

    def ratio_rows(self, g_rows, x_rows):
        num, den = super().ratio_rows(g_rows, x_rows)
        moved = (g_rows != np.arange(1, g_rows.shape[1] + 1)).any(axis=1)
        hit = moved & (x_rows == _PROBE).all(axis=1)
        return np.where(hit, num * self.base, num), den


def test_verify_identity_catches_an_off_by_one_weight_ratio():
    rho = make_rho_f(_OffByOneFactor(4))
    rep = verify_identity(rho, 500, 3, 6, substream(37, 2))
    assert rep.exact and rep.violations > 0
    g, h, x, lhs, rhs = rep.first_witness
    assert lhs != rhs
    assert verify_identity(make_rho_f(GeometricWeight(4)), 500, 3, 6, substream(37, 2)).ok


def _brute_force_verdicts(rho, trials, level, window, rng):
    """verify_identity's violation count and first witness, from the same
    batched triples taken one at a time through compose and act."""
    violations, witness = 0, None
    draws = (_identity_triples(min(_TRIAL_CHUNK, trials - start), level, window, rng)
             for start in range(0, trials, _TRIAL_CHUNK))
    for g_row, h_row, x_row in itertools.chain.from_iterable(zip(*d) for d in draws):
        g = Permutation.from_one_line([int(v) for v in g_row])
        h = Permutation.from_one_line([int(v) for v in h_row])
        x = tuple(int(b) for b in x_row)
        lhs, rhs = rho(compose(g, h), x), rho(g, act(h, x)) * rho(h, x)
        if lhs != rhs:
            violations += 1
            witness = witness or (g, h, x, lhs, rhs)
    return violations, witness


@pytest.mark.parametrize(
    "trials, level, window", [(500, 3, 6), (500, 5, 6), (2 * _TRIAL_CHUNK + 7, 3, 6)]
)
def test_verify_identity_finds_the_brute_force_witness(trials, level, window):
    rho = make_rho_f(_OffByOneFactor(4))
    rep = verify_identity(rho, trials, level, window, substream(37, 2))
    violations, witness = _brute_force_verdicts(rho, trials, level, window, substream(37, 2))
    assert witness is not None
    assert (rep.violations, rep.first_witness) == (violations, witness)
    assert all(type(b) is int for b in rep.first_witness[2])


def _rational_product(window):
    return ProductBernoulli([Fraction(2 + (i % 7), 11) for i in range(window)])


_KERNEL_COCYCLES = {
    "product": lambda: make_rn(_rational_product(6)),
    "weight": lambda: make_rho_f(GeometricWeight(4)),
    "off-by-one": lambda: make_rho_f(_OffByOneFactor(4)),
}


@pytest.mark.parametrize("name", sorted(_KERNEL_COCYCLES))
@pytest.mark.parametrize(
    "trials, level, seed", [(500, 3, 2), (500, 6, 5), (2 * _TRIAL_CHUNK + 7, 4, 9)]
)
def test_rows_path_and_scalar_loop_give_equal_reports(monkeypatch, name, trials, level, seed):
    # the same cocycle without its kernel is called once per row through
    # eval_fn on the same triples: counts and witness agree, and the kernel
    # builds the Permutations of the first violation only
    rho = _KERNEL_COCYCLES[name]()
    assert rho.ratio_rows is not None
    loop = verify_identity(replace(rho, ratio_rows=None), trials, level, 6, substream(seed, 1))
    built = []
    init = Permutation.__init__

    def counted_init(self, mapping=None):
        init(self, mapping)
        built.append(self)

    monkeypatch.setattr(Permutation, "__init__", counted_init)
    rows = verify_identity(rho, trials, level, 6, substream(seed, 1))
    assert rows == loop and rows.exact
    assert (rows.violations > 0) == (name == "off-by-one")
    assert len(built) == (2 if rows.violations else 0)


def _assert_rows_exact(kernel, want, g_rows, x_rows) -> int:
    """Each row's (num, den) from the kernel is a pair of positive Python
    ints whose quotient is ``want(g, x)``; the largest of them."""
    num, den = kernel(g_rows, x_rows)
    assert num.dtype == den.dtype == object and num.shape == den.shape == (len(g_rows),)
    for g_row, x_row, a, b in zip(g_rows.tolist(), x_rows.tolist(), num, den):
        assert type(a) is int and type(b) is int and a > 0 and b > 0
        assert Fraction(a, b) == want(Permutation.from_one_line(g_row), tuple(x_row))
    return max(max(num), max(den))


def _kernel_rows(data, window):
    """A few (g, x) row pairs at a level up to the window, level = window
    drawn as often as all others; the first g row is the identity."""
    level = data.draw(st.one_of(st.just(window), st.integers(1, window)))
    size = data.draw(st.integers(0, 4))
    g = [list(range(1, level + 1))]
    g += [data.draw(st.permutations(range(1, level + 1))) for _ in range(size)]
    bits = st.lists(st.integers(0, 1), min_size=window, max_size=window)
    x = [data.draw(bits) for _ in g]
    return np.array(g, dtype=np.intp).reshape(len(g), level), np.array(x, dtype=np.uint8)


@settings(max_examples=150, deadline=None)
@given(
    params=st.lists(
        st.fractions(min_value=0, max_value=1, max_denominator=10**9).filter(lambda p: 0 < p < 1),
        min_size=1, max_size=12,
    ),
    data=st.data(),
)
def test_product_row_kernel_is_the_atom_ratio(params, data):
    nu = ProductBernoulli(params)
    g_rows, x_rows = _kernel_rows(data, nu.window)
    _assert_rows_exact(nu.ratio_rows, lambda g, x: nu.atom(act(g, x)) / nu.atom(x),
                       g_rows, x_rows)


@settings(max_examples=150, deadline=None)
@given(base=st.integers(2, 2**20), window=st.integers(1, 14), data=st.data())
def test_geometric_row_kernel_is_the_weight_quotient(base, window, data):
    f = GeometricWeight(base)
    g_rows, x_rows = _kernel_rows(data, window)
    _assert_rows_exact(f.ratio_rows, lambda g, x: f(act(g, x)) / f(x), g_rows, x_rows)


def test_row_kernels_stay_exact_past_int64():
    # level = window = 8: a reversal moves every coordinate, so the product
    # has eight factors near 10^9 and the weight exponent d reaches 32
    window = 8
    g_rows = np.array([list(range(window, 0, -1)), list(range(1, window + 1))])
    x_rows = np.array([[1, 1, 1, 1, 0, 0, 0, 0], [0, 1, 0, 1, 0, 1, 0, 1]], dtype=np.uint8)
    nu = ProductBernoulli([Fraction(10**9 - 7 * i, 10**9 + 7) for i in range(1, window + 1)])
    f = GeometricWeight(2**20)
    for kernel, want in (
        (nu.ratio_rows, lambda g, x: nu.atom(act(g, x)) / nu.atom(x)),
        (f.ratio_rows, lambda g, x: f(act(g, x)) / f(x)),
    ):
        assert _assert_rows_exact(kernel, want, g_rows, x_rows) > 2**63


def test_only_rational_products_and_geometric_weights_have_a_kernel():
    assert make_rn(_rational_product(4)).ratio_rows is not None
    assert make_rho_f(GeometricWeight(3)).ratio_rows is not None
    assert ProductBernoulli([0.2, 0.3]).ratio_rows is None
    for rho in (
        make_rn(ProductBernoulli([0.2, 0.3])),
        make_rn(Mixture([Fraction(1, 2)] * 2, [_rational_product(4), ProductBernoulli([Fraction(1, 5)] * 4)])),
        make_rn(AtomicMeasure({(0, 1): Fraction(1, 3), (1, 0): Fraction(2, 3)})),
        make_rho_f(_doubling_weight),
        constant_one(),
    ):
        assert rho.ratio_rows is None


def _float_weight(x):
    return 0.7 ** sum(i * b for i, b in enumerate(x, 1))


def _products(window, kind):
    """Two non-exchangeable products on the window, rational or float."""
    num = [(2 + i % 7, 7 - i % 5) for i in range(window)]
    if kind is float:
        return [ProductBernoulli([a / 11 for a, _ in num]),
                ProductBernoulli([b / 11 for _, b in num])]
    return [ProductBernoulli([Fraction(a, 11) for a, _ in num]),
            ProductBernoulli([Fraction(b, 11) for _, b in num])]


# every kind of cocycle the exact checks meet, built on a window
_ROW_COCYCLES = {
    "constant_one": lambda w: constant_one(),
    "rn-rational-product": lambda w: make_rn(_products(w, Fraction)[0]),
    "rn-float-product": lambda w: make_rn(_products(w, float)[0]),
    "rn-rational-mixture": lambda w: make_rn(
        Mixture([Fraction(1, 3), Fraction(2, 3)], _products(w, Fraction))),
    "rn-float-mixture": lambda w: make_rn(Mixture([0.4, 0.6], _products(w, float))),
    "rn-atomic": lambda w: make_rn(AtomicMeasure(
        {x: 1 + sum(i * v for i, v in enumerate(x))
         for x in itertools.product((0, 1), repeat=w)})),
    "rho-f-geometric": lambda w: make_rho_f(GeometricWeight(3)),
    "rho-f-plain-exact": lambda w: make_rho_f(_doubling_weight),
    "rho-f-plain-float": lambda w: make_rho_f(_float_weight),
}


@pytest.mark.parametrize("name", sorted(_ROW_COCYCLES))
@settings(max_examples=40, deadline=None)
@given(window=st.integers(1, 6), data=st.data())
def test_rho_rows_is_rho_at_each_pair(name, window, data):
    # the batch entry point against per-pair rho(g, x): the same value, as
    # its exact ratio, and exact exactly where rho(g, x) is an int or Fraction
    rho = _ROW_COCYCLES[name](window)
    g_rows, x_rows = _kernel_rows(data, window)
    num, den, exact = rho_rows(rho, g_rows, x_rows)
    assert num.dtype == den.dtype == object and exact.dtype == bool
    assert num.shape == den.shape == exact.shape == (len(g_rows),)
    for g_row, x_row, a, b, e in zip(g_rows.tolist(), x_rows.tolist(), num, den, exact):
        v = rho(Permutation.from_one_line(g_row), tuple(x_row))
        assert b > 0 and Fraction(a, b) == Fraction(v)
        assert e == isinstance(v, (int, Fraction))


@pytest.mark.parametrize("trials", [0, -3])
def test_verify_identity_rejects_fewer_than_one_trial(trials):
    # no triple is drawn, so a pass would say nothing
    with pytest.raises(ValueError, match="trials"):
        verify_identity(constant_one(), trials, 3, 6, substream(37, 0))


@pytest.mark.parametrize("trials", [500, 2 * _TRIAL_CHUNK + 7])
def test_verify_identity_calls_a_cocycle_without_kernel_three_times_per_trial(trials):
    # once per row of each of the three rho_rows calls of a batch, on a
    # Permutation of the row's level and the row's configuration as a tuple
    base = make_rn(_rational_product(6))
    calls = []

    def counted_rho(g, x):
        calls.append((g, x))
        return base(g, x)

    rho = Cocycle(eval_fn=counted_rho, potential=base.potential)
    rep = verify_identity(rho, trials, 3, 6, substream(37, 2))
    assert rep == verify_identity(base, trials, 3, 6, substream(37, 2)) and rep.ok
    assert len(calls) == 3 * trials
    assert all(isinstance(g, Permutation) and g.degree <= 3 for g, _ in calls)
    assert all(type(x) is tuple and len(x) == 6 and set(x) <= {0, 1} for _, x in calls)


def _int_or_fraction(value, g, x):
    """A constant cocycle that returns ``value`` as a Python int on half
    the configurations and as a Fraction on the rest."""
    return value if x[0] == 0 else Fraction(value)


@pytest.mark.parametrize("value, violated", [(1, False), (2, True)])
def test_verify_identity_compares_int_values_exactly(value, violated):
    rho = Cocycle(eval_fn=partial(_int_or_fraction, value), potential=lambda x: 1)
    rep = verify_identity(rho, 200, 3, 6, substream(41, 0))
    assert rep.exact and rep.violations == (200 if violated else 0)


def _one_row(value, exact):
    """``value`` as one row of ``rho_rows`` output, with the given flag."""
    num, den = value.as_integer_ratio()
    return np.array([num], dtype=object), np.array([den], dtype=object), np.array([exact])


def _pair_tv(sampler, size, seed):
    """Total variation between the uniform law on S(3) x S(3) and the
    empirical law of ``size`` (g, h) pairs drawn by ``sampler``."""
    g, h, _ = sampler(size, 3, 3, substream(seed, 0))
    digits = np.array([16, 4, 1])
    seen = dict(zip(*np.unique(g @ digits * 64 + h @ digits, return_counts=True)))
    codes = [np.array(p) @ digits for p in itertools.permutations((1, 2, 3))]
    law = {a * 64 + b: 1 / 36 for a in codes for b in codes}
    return 0.5 * sum(abs(seen.get(k, 0) / size - law.get(k, 0)) for k in law.keys() | seen)


def _h_equal_to_g(trials, level, window, rng):
    """A wrong sampler: g and h each Haar, but h = g."""
    g, _, x = _identity_triples(trials, level, window, rng)
    return g, g.copy(), x


def test_identity_triples_have_the_law_of_independent_haar_pairs():
    # Bretagnolle-Huber-Carol, as in the directed-statistics law test: for
    # K outcomes and N draws, P(TV >= t) <= 2^K exp(-2 N t^2), set to 1e-9.
    size, alarm, outcomes = 200_000, 1e-9, 36
    bound = math.sqrt((outcomes * math.log(2) + math.log(1 / alarm)) / (2 * size))
    assert bound < 0.02
    assert _pair_tv(_identity_triples, size, 38) < bound
    # the same bound rejects a sampler whose g and h have the right marginals
    assert _pair_tv(_h_equal_to_g, size, 38) > 5 * bound


@settings(max_examples=300, deadline=None)
@given(st.fractions(), st.fractions(), st.fractions(), st.booleans())
@example(1, 1, Fraction(1), False)
@example(Fraction(3, 2), 3, Fraction(1, 2), False)
@example(2, 1, 1, False)
def test_cross_multiplied_verdict_is_the_fraction_comparison(lhs, a, b, equal):
    # one exact row of each value, judged as verify_identity judges a batch
    lhs = a * b if equal else lhs
    exact, bad, rel = _judge(*(_one_row(v, True) for v in (lhs, a, b)))
    assert exact.tolist() == [True] and rel.tolist() == [0.0]
    assert bad.tolist() == [lhs != a * b]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(1e-3, 1e3), min_size=3, max_size=3), st.integers(0, 2),
       st.booleans())
@example([0.1, 0.2, 0.5], 0, False)
@example([0.1, 0.2, 0.5], 1, True)
@example([0.1 * (1 + 1e-9), 0.2, 0.5], 2, False)
@example([0.1 * (1 + 1e-14), 0.2, 0.5], 2, False)
def test_a_row_with_a_float_is_judged_by_relative_error(values, loose, equal):
    # a float value enters as its exact integer ratio with its flag off; the
    # row is then judged by |lhs - a b| / |a b| <= 1e-12, a b rounded once
    lhs, a, b = values
    lhs = a * b if equal else lhs
    exact, bad, rel = _judge(*(_one_row(v, i != loose) for i, v in enumerate((lhs, a, b))))
    want = abs(lhs - a * b) / abs(a * b)
    assert exact.tolist() == [False] and rel.tolist() == [want]
    assert bad.tolist() == [want > 1e-12]


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
        x = nu.sample_rows(substream(61, i), 1)[0]
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


def _window4_measures():
    """Non-exchangeable window-4 measures: a rational product, a mixture of
    two, and an atomic measure (no closed-form ratio of its own)."""
    a = ProductBernoulli([Fraction(2 + i, 11) for i in range(4)])
    b = ProductBernoulli([Fraction(7 - i, 11) for i in range(4)])
    atoms = {x: 1 + sum(i * v for i, v in enumerate(x)) for x in itertools.product((0, 1), repeat=4)}
    return {
        "product": a,
        "mixture": Mixture([Fraction(1, 3), Fraction(2, 3)], [a, b]),
        "atomic": AtomicMeasure(atoms),
    }


@pytest.mark.parametrize("name", ["product", "mixture", "atomic", "geometric"])
def test_cocycles_survive_a_pickle_round_trip(name):
    if name == "geometric":
        rho = make_rho_f(GeometricWeight(4))
    else:
        rho = make_rn(_window4_measures()[name])
    back = pickle.loads(pickle.dumps(rho))
    for g in enumerate_level(3):
        for x in itertools.product((0, 1), repeat=4):
            assert back(g, x) == rho(g, x)
            assert back.potential(x) == rho.potential(x)


@pytest.mark.parametrize("name", ["product", "mixture", "atomic"])
def test_make_rn_evaluates_the_module_ratio(name):
    nu = _window4_measures()[name]
    rho = make_rn(nu)
    for g in enumerate_level(3):
        for x in itertools.product((0, 1), repeat=4):
            assert rho(g, x) == rn_derivative(nu, g, x)


@pytest.mark.parametrize("name", ["product", "mixture", "atomic"])
def test_is_own_rn_recognises_only_this_very_measure(name):
    nu = _window4_measures()[name]
    twin = _window4_measures()[name]
    fn = make_rn(nu).eval_fn
    # the measure's own bound ratio where it has one, the module ratio's partial otherwise
    assert fn.func is rn_derivative if name == "atomic" else fn.__self__ is nu
    assert _is_own_rn(nu, make_rn(nu))
    assert not _is_own_rn(nu, make_rn(twin))
    assert _is_own_rn(nu, Cocycle(eval_fn=partial(rn_derivative, nu), potential=nu.atom))
    by_hand = Cocycle(eval_fn=partial(rn_derivative, twin), potential=twin.atom)
    assert not _is_own_rn(nu, by_hand)
    assert not _is_own_rn(nu, Cocycle(eval_fn=nu.atom, potential=nu.atom))


def test_geometric_weight_ratio_is_one_exact_fraction():
    f = GeometricWeight(3)
    rho = make_rho_f(f)
    assert rho.ratio_rows == f.ratio_rows
    for g in enumerate_level(4):
        for x in itertools.product((0, 1), repeat=5):
            r = rho(g, x)
            assert type(r) is Fraction and r == f(act(g, x)) / f(x)
    assert f == GeometricWeight(3) and hash(f) == hash(GeometricWeight(3))
