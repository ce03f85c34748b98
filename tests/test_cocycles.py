import itertools
import math
import pickle
from fractions import Fraction
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
    _violates,
    constant_one,
    make_rho_f,
    make_rn,
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


@pytest.mark.parametrize("trials", [0, -3])
def test_verify_identity_rejects_fewer_than_one_trial(trials):
    # no triple is drawn, so a pass would say nothing
    with pytest.raises(ValueError, match="trials"):
        verify_identity(constant_one(), trials, 3, 6, substream(37, 0))


@pytest.mark.parametrize("trials, batches", [(500, 1), (2 * _TRIAL_CHUNK + 7, 3)])
def test_verify_identity_builds_each_element_of_the_level_once_per_batch(
    monkeypatch, trials, batches
):
    built, calls = [], []
    init = Permutation.__init__

    def counted_init(self, mapping=None):
        init(self, mapping)
        built.append(self)

    base = make_rn(ProductBernoulli([Fraction(2 + (i % 7), 11) for i in range(6)]))

    def counted_rho(g, x):
        calls.append(g)
        return base(g, x)

    monkeypatch.setattr(Permutation, "__init__", counted_init)
    rho = Cocycle(eval_fn=counted_rho, potential=base.potential)
    rep = verify_identity(rho, trials, 3, 6, substream(37, 2))
    assert rep.ok and rep.exact
    # a call builds each element of S(3) it meets once, over all its
    # batches; all six are met
    assert -(-trials // _TRIAL_CHUNK) == batches
    assert len(built) == len(set(built)) == math.factorial(3)
    # rho is still evaluated three times per trial, on the interned objects
    assert len(calls) == 3 * trials
    assert {id(g) for g in calls} <= {id(g) for g in built}
    # as validate runs its two cocycle verdicts: one table per suite run
    # builds at most level! elements in all
    built.clear()
    calls.clear()
    table: dict = {}
    reps = [verify_identity(rho, trials, 3, 6, substream(37, key), table) for key in (1, 2)]
    assert all(r.ok and r.exact for r in reps) and reps[1] == rep
    assert len(built) <= math.factorial(3) and len(table) == len(built)
    assert len(calls) == 2 * 3 * trials
    assert {id(g) for g in calls} <= {id(g) for g in built}


def test_verify_identity_empties_a_full_interning_table_before_a_batch(monkeypatch):
    # above S(8) a shared table would grow with the trials: past the cap it
    # starts again, so here it holds only the last batch's 7 trials
    monkeypatch.setattr(cocycles, "_INTERN_CAP", 100)
    table: dict = {}
    rep = verify_identity(constant_one(), _TRIAL_CHUNK + 7, 7, 7, substream(37, 0), table)
    assert rep.ok and 0 < len(table) <= 3 * 7


def _int_or_fraction(value, g, x):
    """A constant cocycle that returns ``value`` as a Python int on half
    the configurations and as a Fraction on the rest."""
    return value if x[0] == 0 else Fraction(value)


@pytest.mark.parametrize("value, violated", [(1, False), (2, True)])
def test_verify_identity_compares_int_values_exactly(value, violated):
    rho = Cocycle(eval_fn=partial(_int_or_fraction, value), potential=lambda x: 1)
    rep = verify_identity(rho, 200, 3, 6, substream(41, 0))
    assert rep.exact and rep.violations == (200 if violated else 0)


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
    lhs = a * b if equal else lhs
    assert _violates(lhs, a, b) == (lhs != a * b)


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


def test_geometric_ratio_reuses_each_power_and_stays_exact():
    f = GeometricWeight(3)
    for g in enumerate_level(4):
        for x in itertools.product((0, 1), repeat=5):
            r = f.ratio(g, x)
            assert type(r) is Fraction and r == f(act(g, x)) / f(x)
            assert f.ratio(g, x) is r
    assert f == GeometricWeight(3) and hash(f) == hash(GeometricWeight(3))
