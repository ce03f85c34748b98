import itertools
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ergodec.averaging as averaging
from ergodec.averaging import (
    EXACT_LEVEL_CAP,
    CountMoments,
    ExactModel,
    _count_moments,
    _slack_coefficients,
    _esp_log_tables,
    _moments,
    average_exact,
    conditional_expectation_check,
    default_schedule,
    fubini_check,
    haar_rows,
    invariance_check,
    level_methods,
    level_table,
    mc_level_values,
    monomial_level_average,
    orbit_class_key,
    orbit_classes,
    product_levels,
    tower_check,
)
from ergodec.cocycles import Cocycle, _values_agree, constant_one, make_rho_f, make_rn
from ergodec.decomposition import (
    DecomposeConfig,
    _point_block,
    decompose,
    ergodicity_test,
    pi_phi,
)
from ergodec.dictionary import CylinderMonomial, TestDictionary
from ergodec.errors import CapacityError, ZeroMassError
from ergodec.groups import Permutation, act, enumerate_level, level_orbit, level_rows
from ergodec.measures import AtomicMeasure, BetaExchangeable, Mixture, ProductBernoulli
from ergodec.rng import substream
from ergodec.sigma_finite import GeometricWeight, make_fibrewise_f, orbital_dichotomy
from ergodec.validation import _product_atoms, _rational_params


def brute_force_average(level, weight_fn, phi, x):
    """Independent oracle: loop one-line permutations, move bit j to images[j-1]."""
    num = Fraction(0)
    den = Fraction(0)
    for images in itertools.permutations(range(1, level + 1)):
        y = list(x)
        for j in range(1, level + 1):
            y[images[j - 1] - 1] = x[j - 1]
        y = tuple(y)
        w = weight_fn(y, x)
        num += Fraction(phi(y)) * w
        den += w
    return num / den


def _const_phi(c):
    return lambda y: c


def test_average_exact_constant_function():
    rho = make_rn(ProductBernoulli([Fraction(1, 3)] * 4))
    value = average_exact(3, rho, _const_phi(Fraction(5, 7)), (1, 0, 1, 1))
    assert type(value) is Fraction and value == Fraction(5, 7)


def test_average_exact_symmetric_slot():
    assert average_exact(2, constant_one(), CylinderMonomial((1,)), (1, 0)) == Fraction(1, 2)


def test_average_exact_weighted_orbit():
    nu = ProductBernoulli([Fraction(1, 2), Fraction(1, 4)])
    value = average_exact(2, make_rn(nu), CylinderMonomial((1,)), (1, 0))
    # oracle: conditional expectation over the two orbit atoms
    mass_10 = Fraction(1, 2) * Fraction(3, 4)
    mass_01 = Fraction(1, 2) * Fraction(1, 4)
    oracle = (1 * mass_10 + 0 * mass_01) / (mass_10 + mass_01)
    assert oracle == Fraction(3, 4)
    assert value == oracle


def test_average_exact_capacity_error():
    with pytest.raises(CapacityError):
        average_exact(9, constant_one(), CylinderMonomial((1,)), tuple([1] * 9))


def test_exact_paths_agree_with_brute_force():
    params = [Fraction(2, 5), Fraction(1, 3), Fraction(4, 7), Fraction(1, 2), Fraction(2, 3),
              Fraction(3, 8), Fraction(5, 9)]
    nu = ProductBernoulli(params)
    f = make_fibrewise_f()

    def unit(y, x0):
        return Fraction(1)

    cocycles = [
        (make_rn(nu), lambda y, x0: nu.atom(y) / nu.atom(x0)),
        (constant_one(), unit),
        (make_rho_f(f), lambda y, x0: f(y) / f(x0)),
    ]
    rng = substream(41, 0)
    for level in range(1, 7):
        for _ in range(6):
            x = tuple(int(b) for b in rng.integers(0, 2, size=7))
            phi = CylinderMonomial(tuple(sorted(
                rng.choice(range(1, 8), size=2, replace=False).tolist()
            )))
            # a key above the level whose bit is 0: every engine gives 0
            above = level + 1 + int(rng.integers(0, 7 - level))
            zeroed = x[: above - 1] + (0,) + x[above:]
            for point, mono in (
                (x, phi),
                (zeroed, CylinderMonomial((above,))),
                (zeroed, CylinderMonomial((1, above))),
            ):
                for rho, weight in cocycles:
                    want = brute_force_average(level, weight, mono, point)
                    assert average_exact(level, rho, mono, point) == want
                    if point is zeroed:
                        assert want == 0
                want_one = brute_force_average(level, unit, mono, point)
                assert monomial_level_average(level, mono.indices, point) == want_one


def _bits(x):
    return np.asarray(x, dtype=np.uint8)


def test_average_mc_constant_cancels_exactly():
    rho = make_rn(ProductBernoulli([Fraction(1, 3)] * 6))
    x = _bits((1, 0, 1, 0, 1, 0))
    got = mc_level_values(x, 6, rho, [CylinderMonomial(())], 50, substream(41, 1))
    assert got == [(1.0, 0.0)]


def test_average_mc_symmetry_count():
    x = _bits([1] * 3 + [0] * 9)
    ((est, se),) = mc_level_values(
        x, 12, constant_one(), [CylinderMonomial((1,))], 4000, substream(41, 2)
    )
    assert abs(est - 3 / 12) <= 3 * se + 1e-9


def test_average_mc_agrees_with_exact():
    params = [Fraction(2 + (i % 5), 11) for i in range(6)]
    nu = ProductBernoulli(params)
    cocycles = [constant_one(), make_rn(nu)]
    rng = substream(41, 3)
    hits = 0
    for trial in range(100):
        x = tuple(int(b) for b in rng.integers(0, 2, size=6))
        size = int(rng.integers(1, 3))
        phi = CylinderMonomial(tuple(sorted(
            rng.choice(range(1, 7), size=size, replace=False).tolist()
        )))
        rho = cocycles[trial % 2]
        exact = float(average_exact(6, rho, phi, x))
        ((est, se),) = mc_level_values(_bits(x), 6, rho, [phi], 400, rng)
        if abs(est - exact) <= 3 * se + 1e-12:
            hits += 1
    assert hits >= 99


def test_average_mc_requires_two_samples():
    with pytest.raises(ValueError):
        mc_level_values(
            _bits((1, 0, 1, 0)), 4, constant_one(), [CylinderMonomial((1,))], 1, substream(0, 0)
        )


def test_positive_contraction_bound():
    params = [Fraction(1, 3)] * 5
    rho = make_rn(ProductBernoulli(params))

    def phi(y):
        return Fraction(-3) if y[0] else Fraction(2)

    rng = substream(41, 4)
    for _ in range(20):
        x = tuple(int(b) for b in rng.integers(0, 2, size=5))
        v = average_exact(4, rho, phi, x)
        assert -3 <= v <= 2


def test_overflowing_float_potential_raises():
    # the constant cocycle, with a float potential whose orbit sum is inf:
    # the average is 1/2, not 0
    rho = Cocycle(eval_fn=lambda g, x: 1.0, potential=lambda x: 1e308)
    with pytest.raises(ValueError, match=r"level-2 orbit sum \(window 3\)"):
        average_exact(2, rho, CylinderMonomial((1,)), (1, 0, 1))


_MOEBIUS_COCYCLES = (
    constant_one(),
    make_rn(ProductBernoulli([Fraction(1, 3), Fraction(2, 5), Fraction(3, 4), Fraction(1, 2),
                              Fraction(2, 7), Fraction(5, 6), Fraction(1, 5)])),
    make_rho_f(GeometricWeight(4)),
)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 3).flatmap(lambda d: st.lists(
        st.fractions(-5, 5, max_denominator=9), min_size=2**d, max_size=2**d
    )),
    st.lists(st.integers(0, 1), min_size=7, max_size=7),
    st.integers(1, 6),
    st.integers(0, 2),
)
def test_level_average_of_a_cylinder_function_is_its_moebius_sum(table, bits, level, which):
    # phi reads its first d coordinates as the binary index of a table entry;
    # its Moebius coefficients c_S = sum over T in S of (-1)^|S - T| phi(1_T)
    # make it the signed sum of the monomials on S, and averaging is linear
    d = len(table).bit_length() - 1
    rho, x = _MOEBIUS_COCYCLES[which], tuple(bits)

    def phi(y):
        return table[sum(b << i for i, b in enumerate(y[:d]))]

    subsets = range(2**d)
    coef = [
        sum((-1) ** bin(s ^ t).count("1") * table[t] for t in subsets if t & s == t)
        for s in subsets
    ]
    keys = [tuple(i + 1 for i in range(d) if s >> i & 1) for s in subsets]
    lt = level_table(_bits(x)[None, :], rho, (level,), keys)
    want = average_exact(level, rho, phi, x)
    assert sum(c * lt.value(0, 0, j) for j, c in enumerate(coef)) == want


def _point_table(x, rho, sched, key):
    """The level table of the one point x and the one key."""
    return level_table(_bits(x)[None, :], rho, sched, [key])


def test_limit_average_constant_converges_immediately():
    table = _point_table((1, 0, 1, 0), constant_one(), [1, 2, 4], ())
    assert table.converged(1e-3)[0, 0]
    assert table.value(2, 0, 0) == 1
    assert table.methods == ("closed-form",) * 3 and not table.stderrs.any()


def test_limit_average_all_ones_fixed():
    table = _point_table([1] * 64, constant_one(), [1, 2, 4, 8, 16, 32, 64], (1,))
    assert table.converged(1e-3)[0, 0] and table.value(-1, 0, 0) == 1
    assert (table.values == 1.0).all()


def test_limit_average_lln_bernoulli():
    nu = ProductBernoulli([0.2] * 4096)
    x = nu.sample_rows(substream(43, 1), 1)[0]
    sched = default_schedule(4096)
    table = _point_table(x, constant_one(), sched, (1,))
    assert table.converged(1e-3)[0, 0]
    # the level-4096 value is the frequency itself, exactly
    assert table.value(-1, 0, 0) == Fraction(int(x.sum()), 4096)
    assert abs(table.values[-1, 0, 0] - 0.2) <= 0.02
    assert table.methods == ("closed-form",) * len(sched)
    # only the last level holds a stderr, its sd about the limit
    assert not table.stderrs[:-1].any() and table.stderrs[-1, 0, 0] > 0


def test_limit_average_reports_nonconvergence():
    # levels 1 and 2 genuinely disagree at a point with x1 != x2
    table = _point_table((1, 0), constant_one(), [1, 2], (1,))
    assert not table.converged(1e-3)[0, 0]
    assert table.values[1, 0, 0] - table.values[0, 0, 0] == pytest.approx(-0.5)
    assert not table.slacks.any()


def test_limit_schedule_must_increase():
    with pytest.raises(ValueError, match="strictly increasing"):
        _point_table((1, 0), constant_one(), [2, 2], (1,))


@pytest.mark.parametrize("engine", ["closed-form", "enumeration", "product"])
@pytest.mark.parametrize("key, message", [
    ((0,), "1-based"),  # the closed form counted index 0 as a moved coordinate
    ((2, 2), "strictly increasing"),  # the closed form moved x_2 twice
    ((2, 1), "strictly increasing"),
    ((17,), "exceeds the configuration window"),  # an IndexError before
])
def test_level_table_rejects_a_bad_key_under_every_engine(engine, key, message):
    x = np.tile(np.array([1, 0], dtype=np.uint8), 8)
    rho = constant_one() if engine == "closed-form" else make_rn(ProductBernoulli([0.3, 0.6] * 8))
    levels = (8, 16) if engine == "product" else (2, 4)
    assert engine in level_methods(rho, levels)
    with pytest.raises(ValueError, match=message):
        level_table(x[None, :], rho, levels, [(1,), key])


@pytest.mark.parametrize("tolerance", [0.0, -1.0, float("nan")])
def test_limit_rule_needs_a_positive_tolerance(tolerance):
    table = _point_table((1, 0, 1, 0), constant_one(), [2, 4], (1,))
    with pytest.raises(ValueError, match="tolerance must be positive"):
        table.converged(tolerance)


@pytest.mark.parametrize(
    "caller",
    ["constant", "product", "pi_phi", "point_block", "ergodicity", "orbital", "decompose"],
)
@pytest.mark.parametrize("schedule, message", [
    ((2, 8), "schedule exceeds"),  # a window-4 point has no level 8
    ((0, 4), "levels must be >= 1"),  # the closed form read level 0 as 0/0
    ((), "levels must be >= 1"),
    ((4, 2), "strictly increasing"),
])
def test_schedule_outside_the_point_raises(caller, schedule, message):
    x, mono, dictionary = (1, 0, 1, 0), CylinderMonomial((1,)), TestDictionary.build(1, 1)
    nu = ProductBernoulli([Fraction(1, 3), Fraction(1, 4)] * 2)
    rho = make_rn(nu)
    with pytest.raises(ValueError, match=message):
        if caller == "constant":
            _point_table(x, constant_one(), schedule, mono.indices)
        elif caller == "product":
            _point_table(x, rho, schedule, mono.indices)
        elif caller == "pi_phi":
            pi_phi(x, rho, dictionary, schedule)
        elif caller == "point_block":
            _point_block(nu, rho, dictionary, schedule, 0.02, 40, 0, range(2),
                         substream(0, 0xD0, 0))
        elif caller == "ergodicity":
            ergodicity_test(nu, rho, dictionary, probes=2, schedule=schedule)
        elif caller == "orbital":
            orbital_dichotomy(x, schedule)
        else:
            # an empty schedule is an error, not the default schedule
            decompose(nu, rho, DecomposeConfig(samples=2, schedule=schedule))


def test_tower_idempotent_at_equal_levels():
    params = [Fraction(1, 3)] * 4
    nu = _product_atoms(params)
    rho = make_rn(ProductBernoulli(params))
    rep = tower_check(3, 3, rho, CylinderMonomial((1,)), nu)
    assert rep.ok


def test_tower_exact_on_every_atom():
    params = [Fraction(2, 5), Fraction(1, 3), Fraction(4, 7), Fraction(1, 2)]
    nu = _product_atoms(params)
    rho = make_rn(ProductBernoulli(params))
    rep = tower_check(3, 2, rho, CylinderMonomial((1,)), nu)
    assert rep.ok and rep.pairs_checked == 16
    rep_one = tower_check(3, 2, constant_one(), CylinderMonomial((1,)), nu)
    assert rep_one.ok


def test_tower_capacity_guard():
    nu = _product_atoms([Fraction(1, 2)] * 4)
    with pytest.raises(CapacityError):
        tower_check(9, 2, constant_one(), CylinderMonomial((1,)), nu)


def _not_a_cocycle(g, x):
    # multiplicativity deliberately broken at one transposition
    if g(1) == 2 and g(2) == 1 and g.degree == 2:
        return Fraction(7, 2)
    return Fraction(1)


def _unit_potential(x):
    return Fraction(1)


def _group_enumeration_average(level, rho, phi, x):
    """A level average that reads only rho(k, x), over every k in S(level):
    on a genuine cocycle it equals ``average_exact``, on a fake it does not."""
    num = den = Fraction(0)
    for k in enumerate_level(level):
        w = rho(k, x)
        den += w
        num += phi(act(k, x)) * w
    return num / den


class _GroupEnumerationWeights:
    """Stands in for ``averaging.orbit_weights``, the seam through which
    ``tower_check`` reads its orbit sums: each average is
    ``_group_enumeration_average`` at the point the weights were built at."""

    def __init__(self, level, rho, x):
        self.level, self.rho, self.x = level, rho, x

    def average(self, phi):
        return _group_enumeration_average(self.level, self.rho, phi, self.x)


def test_tower_reports_witness_when_weights_are_inconsistent(monkeypatch):
    # orbit weights sum the potential over the orbit, which no fake can
    # break, so the negative control reads rho through group enumeration
    fake = Cocycle(eval_fn=_not_a_cocycle, potential=_unit_potential)
    nu = _product_atoms([Fraction(1, 2)] * 4)
    assert tower_check(3, 2, fake, CylinderMonomial((1,)), nu).ok
    monkeypatch.setattr(averaging, "orbit_weights", _GroupEnumerationWeights)
    rep = tower_check(3, 2, fake, CylinderMonomial((1,)), nu)
    assert not rep.ok
    assert rep.witness is not None
    atom, lhs, rhs = rep.witness
    assert lhs != rhs


def _float_not_a_cocycle(g, x):
    return float(_not_a_cocycle(g, x))


def test_float_product_passes_tower_and_fubini_within_rounding(monkeypatch):
    # the atomic form of a float product carries the floats' rounding, so
    # its orbit sums miss each other by about 1e-17 and agree within 1e-9
    params = [0.3, 0.6, 0.45, 0.2]
    nu = _product_atoms(params).normalized()
    rho, phi = make_rn(ProductBernoulli(params)), CylinderMonomial((1,))
    assert all(tower_check(m, n, rho, phi, nu).ok for n in range(1, 5) for m in range(n, 5))
    reports = [fubini_check(level, rho, phi, nu) for level in range(1, 5)]
    assert all(rep.ok for rep in reports)
    # S(1) moves nothing; above it rho is a float, and the exact sides differ
    assert all(not rep.exact and rep.lhs != rep.rhs for rep in reports[1:])
    # a cocycle of other parameters still fails; so does the tower rule of a
    # float fake read through group enumeration, as it holds for any cocycle
    other = make_rn(ProductBernoulli([0.3, 0.45, 0.6, 0.2]))
    assert not any(fubini_check(level, other, phi, nu).ok for level in (2, 3, 4))
    fake = Cocycle(eval_fn=_float_not_a_cocycle, potential=_unit_potential)
    monkeypatch.setattr(averaging, "orbit_weights", _GroupEnumerationWeights)
    assert not tower_check(3, 2, fake, phi, nu).ok


def test_conditional_expectation_whole_space_and_sweep():
    params = [Fraction(2, 5), Fraction(1, 3), Fraction(4, 7), Fraction(1, 2)]
    nu = _product_atoms(params)
    rho = make_rn(ProductBernoulli(params))
    rep = conditional_expectation_check(2, rho, CylinderMonomial((1, 3)), nu)
    assert rep.ok
    assert rep.classes == 12
    assert rep.sets_checked == 2**12


def test_conditional_expectation_detects_wrong_class():
    params = [Fraction(2, 5), Fraction(1, 3), Fraction(4, 7), Fraction(1, 2)]
    nu = _product_atoms([Fraction(1, 2)] * 4)  # uniform, not in the rho class
    rho = make_rn(ProductBernoulli(params))
    rep = conditional_expectation_check(2, rho, CylinderMonomial((1,)), nu)
    assert not rep.ok
    assert rep.witness is not None


def test_conditional_expectation_verifies_48_classes():
    # window 6, level 2: 3 * 2^4 = 48 classes; the scan has no 2^c cap
    nu = _product_atoms([Fraction(1, 2)] * 6)
    rep = conditional_expectation_check(2, constant_one(), CylinderMonomial((1,)), nu)
    assert rep.ok
    assert rep.classes == 48
    assert rep.sets_checked == 2**48


def _sweep_conditional_expectation(level, rho, phi, nu):
    """The former exhaustive sweep: every union of orbit classes in binary
    order, returning at the first union whose difference is nonzero."""
    from ergodec.averaging import orbit_class_key

    classes = {}
    for x in sorted(nu.atoms):
        classes.setdefault(orbit_class_key(x, level), []).append(x)
    labels = sorted(classes)
    c = len(labels)
    diffs = []
    for key in labels:
        members = classes[key]
        val = average_exact(level, rho, phi, members[0])
        lhs = sum((Fraction(phi(x)) * nu.atom(x) for x in members), Fraction(0))
        mass = sum((nu.atom(x) for x in members), Fraction(0))
        diffs.append(lhs - val * mass)
    sets_checked = 0
    for bits in range(2**c):
        total = Fraction(0)
        for i in range(c):
            if bits >> i & 1:
                total += diffs[i]
        sets_checked += 1
        if total != 0:
            witness_sets = [labels[i] for i in range(c) if bits >> i & 1]
            return (False, c, sets_checked, (witness_sets, total))
    return (True, c, sets_checked, None)


_params = st.lists(
    st.tuples(st.integers(1, 8), st.integers(1, 8)).map(lambda t: Fraction(t[0], t[0] + t[1])),
    min_size=4,
    max_size=4,
)


# Level 1 at window 4 is left out: its 16 singleton classes make the copied
# sweep add up 2^16 unions (about 1.5 s); level 1 is covered at window 3.
@settings(max_examples=25, deadline=None)
@given(
    shape=st.sampled_from([(3, 1), (3, 2), (3, 3), (4, 2), (4, 3)]),
    rho_params=_params,
    nu_params=_params,
    in_class=st.booleans(),
    entry=st.integers(0, 100),
)
@example(
    shape=(4, 2),
    rho_params=[Fraction(2, 5), Fraction(1, 3), Fraction(4, 7), Fraction(1, 2)],
    nu_params=[Fraction(1, 2)] * 4,
    in_class=False,
    entry=1,
)
def test_conditional_expectation_scan_equals_sweep(shape, rho_params, nu_params, in_class, entry):
    window, level = shape
    rho_params = rho_params[:window]
    nu = _product_atoms(rho_params if in_class else nu_params[:window])
    rho = make_rn(ProductBernoulli(rho_params))
    entries = TestDictionary.build(2, window).entries
    phi = entries[entry % len(entries)]
    rep = conditional_expectation_check(level, rho, phi, nu)
    assert (rep.ok, rep.classes, rep.sets_checked, rep.witness) == (
        _sweep_conditional_expectation(level, rho, phi, nu)
    )
    if in_class:
        assert rep.ok


def test_fubini_identity_exact():
    params = [Fraction(2, 5), Fraction(1, 3), Fraction(4, 7), Fraction(1, 2)]
    nu = _product_atoms(params)
    rho = make_rn(ProductBernoulli(params))
    for level in (1, 2, 3):
        for mono in TestDictionary.build(2, 4).entries:
            rep = fubini_check(level, rho, mono, nu)
            assert rep.ok


def test_fubini_fails_outside_the_class():
    params = [Fraction(2, 5), Fraction(1, 3), Fraction(4, 7)]
    nu = _product_atoms([Fraction(1, 2)] * 3)
    rho = make_rn(ProductBernoulli(params))
    rep = fubini_check(2, rho, CylinderMonomial((1,)), nu)
    assert not rep.ok


def test_invariance_along_orbit():
    params = [Fraction(2, 5), Fraction(1, 3), Fraction(4, 7), Fraction(1, 2), Fraction(2, 3)]
    rho = make_rn(ProductBernoulli(params))
    ok, witness = invariance_check(3, rho, CylinderMonomial((1, 2)), (1, 0, 1, 1, 0))
    assert ok and witness is None
    ok1, _ = invariance_check(4, constant_one(), CylinderMonomial((1,)), (1, 0, 1, 1, 0))
    assert ok1


def test_default_schedule_geometric():
    assert default_schedule(16) == (1, 2, 4, 8, 16)
    assert default_schedule(12) == (1, 2, 4, 8, 12)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**6 - 1), st.integers(1, 4))
def test_monomial_average_within_unit_interval(bits, level):
    x = tuple((bits >> i) & 1 for i in range(6))
    v = monomial_level_average(level, (1, 2), x)
    assert 0 <= v <= 1


def _argsort_haar_rows(x_bits, level, samples, rng):
    """The argsort-and-gather Haar draw that ``haar_rows`` replaced."""
    keys = rng.random((samples, level))
    perms = np.argsort(keys, axis=1)
    rows = np.tile(x_bits, (samples, 1))
    rows[:, :level] = x_bits[:level][perms]
    return rows


@settings(max_examples=120, deadline=None)
@given(
    st.integers(1, 64),
    st.sampled_from(["random", "zeros", "ones"]),
    st.integers(2, 64),
    st.integers(0, 2**32 - 1),
)
@example(64, "zeros", 64, 0)
@example(64, "ones", 2, 1)
@example(64, "random", 64, 2)
@example(300, "random", 200, 3)
@example(300, "random", 2, 4)
def test_haar_rows_equal_argsort_gather(window, fill, samples, seed):
    if fill == "random":
        x_bits = substream(seed, 0).integers(0, 2, size=window).astype(np.uint8)
    else:
        x_bits = np.full(window, fill == "ones", dtype=np.uint8)
    for level in range(1, window + 1):
        rng_new, rng_old = substream(seed, 1, level), substream(seed, 1, level)
        got = haar_rows(x_bits, level, samples, rng_new)
        want = _argsort_haar_rows(x_bits, level, samples, rng_old)
        assert got.dtype == np.uint8 and got.shape == (samples, window)
        assert got.tobytes() == want.tobytes()
        assert rng_new.random() == rng_old.random()  # same stream use


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(0, 1), min_size=8, max_size=12),
    st.sets(st.integers(1, 8), min_size=1),
)
def test_closed_form_callers_equal_enumeration_up_to_level_8(bits, levels):
    x = tuple(bits)
    sched = sorted(levels)
    battery = TestDictionary.build(2, 3).nonconstant()
    rep = orbital_dichotomy(x, sched, battery=battery)
    for mono in battery:
        want = [average_exact(n, constant_one(), mono, x) for n in sched]
        assert rep.series[mono.indices] == tuple((n, float(w), 0.0) for n, w in zip(sched, want))
        table = _point_table(x, constant_one(), sched, mono.indices)
        assert [table.value(i, 0, 0) for i in range(len(sched))] == want
        assert table.methods == ("closed-form",) * len(sched)
        assert not table.stderrs.any()


@settings(max_examples=30, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.floats(0.55, 1.0),
    st.sets(st.integers(9, 2047), max_size=4),
)
def test_closed_form_callers_above_level_8_past_255_ones(seed, p, levels):
    window = 2048
    bits = (np.random.default_rng(seed).random(window) < p).astype(np.uint8)
    bits[1499], bits[1599] = 0, 1  # a zero and a one that low levels fix
    x = tuple(int(b) for b in bits)
    assert sum(x) > 255
    sched = sorted(levels | {window})
    battery = [CylinderMonomial(k) for k in [(1,), (2,), (1, 2), (1, 1500), (2, 1600), (3, 4, 5)]]

    def oracle(n, key):
        if any(x[i - 1] == 0 for i in key if i > n):
            return Fraction(0)
        k = sum(1 for i in key if i <= n)
        return Fraction(math.perm(sum(x[:n]), k), math.perm(n, k))

    rep = orbital_dichotomy(bits, sched, battery=battery)
    for mono in battery:
        want = [oracle(n, mono.indices) for n in sched]
        assert rep.series[mono.indices] == tuple((n, float(w), 0.0) for n, w in zip(sched, want))
        table = _point_table(bits, constant_one(), sched, mono.indices)
        assert [table.value(i, 0, 0) for i in range(len(sched))] == want


def test_average_mc_callable_phi_under_callable_potential():
    # without log_potential_rows: per-row potential calls
    rho = replace(make_rho_f(make_fibrewise_f()), log_potential_rows=None)
    monomials = [CylinderMonomial((1,)), CylinderMonomial((6,))]
    rng = substream(41, 9)
    hits = 0
    for _ in range(100):
        x = tuple(int(b) for b in rng.integers(0, 2, size=6))
        got = mc_level_values(_bits(x), 6, rho, monomials, 400, rng)
        for mono, (est, se) in zip(monomials, got):
            exact = float(average_exact(6, rho, mono, x))
            if abs(est - exact) <= 3 * se + 1e-12:
                hits += 1
    # weight ratios up to 4^9 give the self-normalized estimate heavier tails
    # than a normal one, so a few misses at 3 se are expected
    assert hits >= 194


def test_monte_carlo_level_needs_a_potential():
    # Monte Carlo weights are potential ratios, and a cocycle cannot be built
    # without its potential
    with pytest.raises(TypeError, match="potential"):
        Cocycle(eval_fn=_not_a_cocycle)


_odds = st.tuples(st.integers(1, 9), st.integers(1, 9)).map(lambda t: Fraction(t[0], t[0] + t[1]))


@st.composite
def _rational_mixture(draw, window):
    comps = draw(st.integers(1, 3))
    params = [draw(st.lists(_odds, min_size=window, max_size=window)) for _ in range(comps)]
    raw = draw(st.lists(st.integers(1, 5), min_size=comps, max_size=comps))
    weights = [Fraction(r, sum(raw)) for r in raw]
    members = [ProductBernoulli(p) for p in params]
    return members[0] if comps == 1 else Mixture(weights, members)


def _product_levels(nu, x, levels, keys):
    """The kernel on the single point x, as per-level lists of floats."""
    values, slacks, stderrs = product_levels(
        np.asarray(x, dtype=np.uint8)[None, :], levels, keys, nu.log_linear
    )
    return values[:, 0].tolist(), slacks[:, 0].tolist(), stderrs[0].tolist()


@settings(max_examples=40, deadline=None)
@given(
    st.integers(8, 10).flatmap(
        lambda w: st.tuples(
            _rational_mixture(w),
            st.lists(st.integers(0, 1), min_size=w, max_size=w),
            st.integers(3, w),
        )
    ),
    st.sets(st.integers(1, 8), min_size=1),
)
def test_product_levels_equal_enumeration_up_to_level_8(case, levels):
    nu, x, high = case
    x = tuple(x)
    sched = sorted(levels)
    # (high,) and (1, high) have a coordinate above the low levels, which
    # those levels hold fixed at x's bit there, 0 or 1.
    keys = [(), (1,), (2,), (1, 2), (high,), (1, high)]
    values, _, _ = _product_levels(nu, x, sched, keys)
    rho = make_rn(nu)
    for n, row in zip(sched, values):
        for key, got in zip(keys, row):
            want = average_exact(n, rho, CylinderMonomial(key), x)
            assert abs(got - float(want)) <= 1e-12
        assert row[0] == 1.0


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.lists(st.floats(0.02, 0.98), min_size=1, max_size=3),
    st.floats(0.0, 1.0),
    st.integers(16, 2048).flatmap(
        lambda w: st.tuples(st.just(w), st.sets(st.integers(1, w - 1), min_size=1, max_size=3))
    ),
)
def test_product_levels_reduce_to_the_closed_form_for_constant_parameters(seed, ps, q, shape):
    window, lows = shape
    comps = [ProductBernoulli([p] * window) for p in ps]
    nu = comps[0] if len(comps) == 1 else Mixture([1 / len(comps)] * len(comps), comps)
    bits = (np.random.default_rng(seed).random(window) < q).astype(np.uint8)
    sched = sorted(lows | {window})
    keys = [(), (1,), (2,), (1, 2), (1, window)]
    values, slacks, stderrs = _product_levels(nu, bits, sched, keys)
    want = level_table(bits[None, :], constant_one(), sched, keys)
    for row, want_row in zip(values, want.values[:, 0]):
        assert all(abs(v - w) <= 1e-12 for v, w in zip(row, want_row))
    # slack 3 level_gap_sd and stderr k p^(k-1) sqrt(p(1-p)/b), p = m_b/b
    want_rows = list(want.slacks[:, 0]) + [want.stderrs[-1, 0]]
    for row, want_row in zip(slacks + [stderrs], want_rows):
        for got, want in zip(row, want_row):
            assert math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-15)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(["two-constant", "alternating"]),
    st.floats(0.0, 1.0),
    st.sets(st.integers(1, 2047), min_size=1, max_size=3),
)
def test_product_levels_stay_finite_at_window_2048_extreme_odds(seed, kind, q, lows):
    window = 2048
    if kind == "two-constant":
        comps = [ProductBernoulli([0.01] * window), ProductBernoulli([0.99] * window)]
        nu = Mixture([0.5, 0.5], comps)
    else:
        nu = ProductBernoulli([0.01 if i % 2 else 0.99 for i in range(window)])
    # any density: far from typical for every component, so the orbit masses
    # are far below the smallest double and only their ratios are finite
    bits = (np.random.default_rng(seed).random(window) < q).astype(np.uint8)
    sched = sorted(lows | {window})
    keys = [(), (1,), (2,), (1, 2), (1, 1500)]
    values, slacks, stderrs = _product_levels(nu, bits, sched, keys)
    for row in values:
        assert row[0] == 1.0
        assert all(math.isfinite(v) and 0.0 <= v <= 1.0 for v in row)
    for row in slacks + [stderrs]:
        assert all(math.isfinite(v) and v >= 0.0 for v in row)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(9, 256))
def test_pi_phi_under_a_product_potential_draws_nothing(seed, window):
    comps = [ProductBernoulli([0.2 + 0.05 * (i % 2) for i in range(window)]),
             ProductBernoulli([0.8 - 0.05 * (i % 2) for i in range(window)])]
    nu = Mixture([0.4, 0.6], comps)
    stream, twin = substream(seed, 1), substream(seed, 1)
    x = nu.sample_rows(substream(seed, 0), 1)[0]
    stat = pi_phi(x, make_rn(nu), TestDictionary.build(2, 2), rng=stream, mc_samples=64)
    assert all(0.0 <= float(v) <= 1.0 for v in stat.values.values())
    assert stream.bit_generator.state == twin.bit_generator.state


def test_log_linear_parts_only_when_every_component_has_them():
    window = 16
    product = ProductBernoulli([Fraction(1, 3)] * window)
    nested = Mixture([Fraction(1, 4), Fraction(3, 4)], [product, Mixture([1], [product])])
    parts = nested.log_linear
    assert parts.logit.shape == (2, window)
    assert np.allclose(parts.const, [math.log(1 / 4) + window * math.log(2 / 3),
                                     math.log(3 / 4) + window * math.log(2 / 3)])
    beta = Mixture([Fraction(1, 2)] * 2, [product, BetaExchangeable(2, 3, window)])
    assert beta.log_linear is None and make_rn(beta).log_linear is None
    atomic = _product_atoms([Fraction(1, 3)] * 4)
    assert make_rn(atomic).log_linear is None


@pytest.mark.parametrize("window", [64, 128])
def test_weight_ratio_monte_carlo_no_longer_underflows(window):
    # f = 4^-(sum of the ones positions) is below the smallest double here,
    # so weights taken as ratios of float(f) were 0/0; log rows are not.
    x = tuple([1, 0] * (window // 2))
    rho = make_rho_f(make_fibrewise_f())
    ((est, se),) = mc_level_values(
        _bits(x), window, rho, [CylinderMonomial((1,))], 200, substream(41, window)
    )
    assert math.isfinite(est) and 0.0 <= est <= 1.0
    assert math.isfinite(se)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 9), st.lists(st.integers(0, 1), min_size=1, max_size=40))
def test_geometric_weight_log_rows_equal_log_of_f(base, bits):
    f = GeometricWeight(base)
    rows = np.array([bits, bits[::-1]], dtype=np.uint8)
    got = f.log_rows(rows)
    for row, g in zip(rows, got):
        want = -math.log(base) * sum(i + 1 for i, b in enumerate(row) if b)
        assert math.isclose(g, want, rel_tol=1e-12, abs_tol=1e-12)
        assert math.isclose(math.exp(g), float(f(tuple(int(b) for b in row))), rel_tol=1e-9)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_product_levels_of_a_mixture_follow_the_component_that_holds_the_orbit(seed, second):
    # Mirrored parameter patterns: each component's tilt gives other
    # inclusion probabilities to coordinates 1 and 2. The 256 tail
    # coordinates above level 256 leave the component that did not draw the
    # point a posterior share far below 1e-16, so the mixture must read like
    # the other component alone. (At level 512 there is no tail, both
    # components give every count the same mass, and the mixture is
    # symmetric in coordinates 1 and 2.)
    window = 512
    a = ProductBernoulli([0.1 if i % 2 else 0.5 for i in range(window)])
    b = ProductBernoulli([0.5 if i % 2 else 0.1 for i in range(window)])
    source = b if second else a
    bits = source.sample_rows(substream(seed, 0), 1)[0]
    keys = [(), (1,), (2,), (1, 2)]
    mixed = _product_levels(Mixture([0.5, 0.5], [a, b]), bits, (128, 256), keys)
    alone = _product_levels(source, bits, (128, 256), keys)
    for got, want in zip(mixed, alone):
        assert np.allclose(got, want, rtol=1e-9, atol=0.0)


def _per_point_tilted_inclusion(logit, m, q):
    """The Newton solve for one point, as it stood before it was batched:
    its inclusion probabilities pi and 1 - pi, the number of steps it took
    (200: the loop ran out) and its tilt (None when m is 0 or n).

    pi and 1 - pi are mixed from sigma and 1 - sigma over the components in
    a fixed order of elementwise products. A BLAS ``q @ sigma`` fuses
    multiply-adds, and ``1.0 - pi`` cancels: near pi_i = 1 a one-ulp change
    in pi_i moves 1 - pi_i by a relative 1e-16 / (1 - pi_i), which put this
    reference 5e-12 away from exact variance sums the kernel met to 1 ulp."""
    n = logit.shape[1]
    if m == 0 or m == n:
        return (np.full(n, float(m == n)), np.full(n, float(m != n))), 0, None
    target = math.log(m / (n - m))
    lo, hi = target - logit.max(axis=1), target - logit.min(axis=1)
    lam = target - logit.mean(axis=1)
    steps = 200
    for k in range(200):
        pi = 1.0 / (1.0 + np.exp(-(lam[:, None] + logit)))
        f = pi.sum(axis=1) - m
        if np.all(np.abs(f) <= 1e-12 * n):
            steps = k
            break
        lo, hi = np.where(f < 0, lam, lo), np.where(f > 0, lam, hi)
        step = lam - f / (pi * (1.0 - pi)).sum(axis=1)
        lam = np.where((step > lo) & (step < hi), step, 0.5 * (lo + hi))
    mixed = tuple(sum(qc * row for qc, row in zip(q, v)) for v in (pi, 1.0 - pi))
    return mixed, steps, lam


def _per_point_product_levels(x, levels, keys, parts):
    """The product-potential kernel for one point, as it stood before it was
    batched: per-level lists (values, slacks) and the last level's stderrs."""
    xf = np.asarray(x, dtype=np.float64)
    prefix = np.cumsum(x, dtype=np.int64)
    held_all = tuple(sorted({i for key in keys for i in key}))
    tables = _esp_log_tables(parts.logit, held_all, levels)
    values, slacks = [], []
    a = None
    for n, log_e in zip(levels, tables):
        m = int(prefix[n - 1])
        held = [i for i in held_all if i <= n]
        masks = (np.arange(2 ** len(held))[:, None] >> np.arange(len(held))) & 1
        j = m - masks.sum(axis=1)
        valid = (j >= 0) & (j < log_e.shape[1])
        log_g = (
            (parts.const + parts.logit[:, n:] @ xf[n:])[:, None]
            + parts.logit[:, [i - 1 for i in held]] @ masks.T
            + log_e[:, np.where(valid, j, 0)]
        )
        log_g[:, ~valid] = -np.inf
        g = np.exp(log_g - log_g.max())
        per_subset = g.sum(axis=0)
        den = per_subset.sum()
        moved = [
            None if any(x[i - 1] == 0 for i in key if i > n)
            else [i for i in key if i <= n]
            for key in keys
        ]
        row = []
        for s in moved:
            if s is None:
                row.append(0.0)
            else:
                holds_s = masks[:, [held.index(i) for i in s]].all(axis=1)
                row.append(min(1.0, float(per_subset[holds_s].sum() / den)))
        values.append(row)
        slack = [0.0] * len(keys)
        if n > EXACT_LEVEL_CAP and any(moved):
            (pi, rest), _, _ = _per_point_tilted_inclusion(
                parts.logit[:, :n], m, g.sum(axis=1) / den
            )
            var = pi * rest
            cum = np.cumsum(var)
            coef = [
                float(math.prod(pi[i - 1] for i in s) * sum(rest[i - 1] for i in s))
                if s else 0.0
                for s in moved
            ]
            v_b = float(cum[n - 1])
            if a is not None:
                # the gap's own sum: v_b - v_a cancels when a is near n
                v_a, v_gap = float(cum[a - 1]), float(np.cumsum(var[a:])[-1])
                if v_a > 0.0:
                    gap = math.sqrt(n * v_gap / ((n - 1) * v_a * v_b))
                    slack = [3.0 * c * gap for c in coef]
        slacks.append(slack)
        a = n
    stderrs = [0.0] * len(keys)
    if a > EXACT_LEVEL_CAP and any(moved) and v_b > 0.0:
        stderrs = [c / math.sqrt(v_b) for c in coef]
    return values, slacks, stderrs


def _parts_of(kind, comps, window, rng):
    """Log-linear parts of a product law or a mixture of 1-3 of them."""
    if kind == "constant":
        params = [[float(p)] * window for p in rng.uniform(0.05, 0.95, comps)]
    elif kind == "inhomogeneous":
        params = [list(rng.uniform(0.05, 0.95, window)) for _ in range(comps)]
    elif kind == "two-constant":  # extreme odds, 0.01 and 0.99 by component
        params = [[0.01 if c % 2 else 0.99] * window for c in range(comps)]
    else:  # extreme odds, alternating along the window
        params = [[0.01 if (i + c) % 2 else 0.99 for i in range(window)] for c in range(comps)]
    members = [ProductBernoulli(p) for p in params]
    nu = members[0] if comps == 1 else Mixture([1 / comps] * comps, members)
    return nu.log_linear


@settings(max_examples=30, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([16, 64, 300, 2048]),
    st.sampled_from(["constant", "inhomogeneous", "two-constant", "alternating"]),
    st.integers(1, 3),
    st.integers(1, 40),
)
def test_product_levels_batch_equals_the_per_point_kernel(seed, window, kind, comps, points):
    # At window 2048 the Newton chunks hold 4, 2 or 2 points for 1-3
    # components, so most blocks straddle a chunk boundary.
    rng = np.random.default_rng(seed)
    parts = _parts_of(kind, comps, window, rng)
    bits = (rng.random((points, window)) < rng.random((points, 1))).astype(np.uint8)
    bits[0] = 0  # m = 0 at every level
    if points > 1:
        bits[-1] = 1  # m = n at every level
    # low levels on either side of S(8) half of the time
    lows = rng.integers(1, rng.choice([12, window]), int(rng.integers(0, 3)))
    levels = sorted({int(n) for n in lows} | {window})
    dictionary = TestDictionary.build(int(rng.integers(1, 4)), int(rng.integers(1, 5)))
    # coordinates above the low levels, 0 in some points and 1 in others
    keys = [m.indices for m in dictionary.entries] + [(1, window)]
    if levels[0] < window:
        keys.append((levels[0] + 1,))
    got = product_levels(bits, levels, keys, parts)
    want = [_per_point_product_levels(x, levels, keys, parts) for x in bits]
    values = np.array([w[0] for w in want]).transpose(1, 0, 2)
    slacks = np.array([w[1] for w in want]).transpose(1, 0, 2)
    stderrs = np.array([w[2] for w in want])
    assert got[0].shape == values.shape and got[0].tobytes() == values.tobytes()
    # The kernel takes V_a and V_b - V_a as quadratic forms of per-count
    # moments, the reference as cumulative sums of pi (1 - pi): the same
    # sums, rounded differently.
    for g, w in zip(got[1:], (slacks, stderrs)):
        assert g.shape == w.shape and np.array_equal(g == 0.0, w == 0.0)
        assert np.all(np.abs(g - w) <= 1e-12 * np.abs(w))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(9, 600),
    st.integers(1, 3),
    st.integers(1, 700),
)
def test_tail_products_have_the_bits_of_the_per_point_products(seed, window, comps, points):
    # chunks of rows hold at most _NEWTON_FLOATS floats, so wide blocks take
    # several; the stacked product must not round as a matrix-matrix one does
    rng = np.random.default_rng(seed)
    logit = rng.normal(0.0, 3.0, (comps, window))
    bits = (rng.random((points, window)) < rng.random((points, 1))).astype(np.uint8)
    levels = sorted({int(n) for n in rng.integers(1, window + 1, int(rng.integers(1, 4)))})
    got = averaging._tail_products(bits, levels, logit)
    assert got.shape == (len(levels), points, comps)
    for p, x in enumerate(bits.astype(np.float64)):
        for li, n in enumerate(levels):
            assert got[li, p].tobytes() == (logit[:, n:] @ x[n:]).tobytes()


def _per_entry_moments(s, a):
    """``_moments`` of one count as it stood before it was vectorized: one
    elementwise product and sum per entry and column range."""
    t = 1.0 - s
    return tuple(
        np.array([[(s[c, r] * t[d, r]).sum() for d in range(len(s))] for c in range(len(s))])
        for r in (slice(0, a), slice(a, None))
    )


def _assert_moments_match_the_per_point_solve(logit, a, held, m, q, got, tilts):
    """Each point's tilt is the per-point solve's, byte for byte, and so are
    the sigma columns and moments ``got`` from ``_count_moments`` for it."""
    cols = [i - 1 for i in held]
    mats, s_held = got
    for p, (k, qp) in enumerate(zip(m.tolist(), q)):
        lam = _per_point_tilted_inclusion(logit, k, qp)[2]
        assert tilts[k].tobytes() == lam.tobytes()
        s = 1.0 / (1.0 + np.exp(-(lam[:, None] + logit)))
        assert s_held[p].tobytes() == s[:, cols].tobytes()
        assert b"".join(v.tobytes() for v in _per_entry_moments(s, a)) == mats[p].tobytes()


@settings(max_examples=30, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 3),
    st.integers(2, 400),
    st.sampled_from([0.0, 1e6]),
    st.integers(1, 40),
    st.booleans(),
)
def test_tilted_inclusion_batch_equals_the_per_point_solve(seed, comps, n, offset, points, few):
    # logits near 1e6 put adjacent values of lam + logit further apart than
    # the convergence test can resolve: some counts run all 200 steps
    rng = np.random.default_rng(seed)
    logit = offset * rng.choice([-1.0, 1.0], (comps, 1)) + rng.normal(0, 2, (comps, n))
    m = rng.integers(1, n, points)
    if few:  # at most 3 ones counts, each shared by many points
        m = rng.choice(m[:3], points)
    q = rng.random((points, comps))
    q /= q.sum(axis=1, keepdims=True)
    a, held = int(rng.integers(0, n)), sorted({int(i) for i in rng.integers(1, n + 1, 3)})
    # half the points first, so the second call appends rows to the table
    memo, tilts = CountMoments(), {}
    _count_moments(logit, a, held, m[: points // 2].tolist(), memo, tilts)
    got = _count_moments(logit, a, held, m.tolist(), memo, tilts)
    assert sorted(memo.rows) == sorted(tilts) == sorted(set(m.tolist()))
    assert len(memo.table) == len(memo.rows)
    _assert_moments_match_the_per_point_solve(logit, a, held, m, q, got, tilts)


def test_product_levels_solve_the_tilt_once_per_ones_count(monkeypatch):
    # 40 points with 3 interior ones counts at the top level: the parts keep
    # one packed row per count there, and a second call on the same counts
    # (the rows reversed) reaches no tilt solve and adds no row
    rng = np.random.default_rng(11)
    window, levels, keys = 64, (32, 64), [(), (1,), (2,), (1, 2)]
    parts = _parts_of("inhomogeneous", 2, window, rng)
    bits = np.zeros((40, window), dtype=np.uint8)
    for row, k in zip(bits, rng.permutation(np.repeat([10, 31, 50], [13, 13, 14]))):
        row[rng.choice(window, k, replace=False)] = 1
    first = product_levels(bits, levels, keys, parts)
    assert list(parts.moments) == [(window, 32, (1, 2))]
    memo = parts.moments[window, 32, (1, 2)]
    assert sorted(memo.rows) == [10, 31, 50] and memo.table.shape == (3, 2 * 4 + 2 * 2)
    assert list(parts.tilts) == [window] and sorted(parts.tilts[window]) == [10, 31, 50]
    table, tilts = memo.table, dict(parts.tilts[window])
    solves = []
    monkeypatch.setattr(averaging, "_solve_tilts", lambda *args: solves.append(args))
    second = product_levels(bits[::-1], levels, keys, parts)
    assert solves == [] and parts.moments[window, 32, (1, 2)].table is table
    assert all(parts.tilts[window][k] is lam for k, lam in tilts.items())
    values, slacks, stderrs = second
    for a, b in zip(first, (values[:, ::-1], slacks[:, ::-1], stderrs[::-1])):
        assert a.tobytes() == b.tobytes()


def test_product_levels_of_no_keys_or_no_points_are_empty():
    parts = _parts_of("inhomogeneous", 2, 32, np.random.default_rng(1))
    bits = np.zeros((5, 32), dtype=np.uint8)
    for rows, keys, shape in ((bits, [], (5, 0)), (bits[:0], [(1,)], (0, 1))):
        values, slacks, stderrs = product_levels(rows, (16, 32), keys, parts)
        assert values.shape == slacks.shape == (2, *shape) and stderrs.shape == shape


def test_a_tilt_solve_on_memoised_counts_reads_no_logit():
    # the bracket takes the max and min of each logit row, which an empty
    # window has not: a solve that reduced it would raise
    tilts = {3: np.zeros(2), 5: np.ones(2)}
    averaging._solve_tilts(np.empty((2, 0)), [5, 3, 3], tilts)
    assert sorted(tilts) == [3, 5]


def test_tilted_inclusion_keeps_points_that_never_converge():
    # A batch where some counts pass the convergence test in two steps and
    # others never do (200 steps, no break): each leaves at its own step.
    rng = np.random.default_rng(5)
    n = 300
    logit = 1e6 + rng.normal(0, 0.1, (2, n))
    logit[1] -= 2e6
    m = np.array([1, 5, 150, 299, 77, 200] * 5)
    q = rng.random((len(m), 2))
    q /= q.sum(axis=1, keepdims=True)
    steps = {_per_point_tilted_inclusion(logit, int(k), qp)[1] for k, qp in zip(m, q)}
    assert steps >= {2, 200}
    tilts = {}
    got = _count_moments(logit, 150, [1, 2, 300], m.tolist(), CountMoments(), tilts)
    _assert_moments_match_the_per_point_solve(logit, 150, [1, 2, 300], m, q, got, tilts)


def test_limit_average_solves_each_tilt_once_across_keys(monkeypatch):
    # four key sets at window 1024: each held-coordinate set has moments of
    # its own, and all four share one Newton solve per (level, ones count)
    solved, real = [], averaging._solve_tilts

    def spy(logit, counts, tilts):
        before = set(tilts)
        real(logit, counts, tilts)
        solved.extend((logit.shape[1], k) for k in tilts.keys() - before)

    monkeypatch.setattr(averaging, "_solve_tilts", spy)
    window = 1024
    comps = [ProductBernoulli([a if i % 2 == 0 else b for i in range(window)])
             for a, b in ((0.2, 0.25), (0.75, 0.8))]
    nu = Mixture([0.4, 0.6], comps)
    rho, x = make_rn(nu), nu.sample_rows(substream(65, 0), 1)[0]
    for key in ((1,), (2,), (1, 2), (3,)):
        _point_table(x, rho, default_schedule(window), key)
    parts = rho.log_linear
    # levels 16, 32, ..., 1024 are product levels, each with one ones count
    assert len(solved) == len(set(solved)) == 7
    assert sorted(solved) == sorted((n, k) for n, t in parts.tilts.items() for k in t)
    assert sum(len(memo.rows) for memo in parts.moments.values()) == 28


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 3).flatmap(lambda comps: st.integers(1, 60).flatmap(lambda n: st.tuples(
        # s at least 1e-200, so that q_c q_d s (1 - s) stays a normal float
        st.lists(
            st.lists(st.floats(1e-200, 1.0, exclude_max=True), min_size=n, max_size=n),
            min_size=comps, max_size=comps,
        ),
        st.lists(st.integers(0, 2**30), min_size=comps - 1, max_size=comps - 1),
        st.integers(0, n),
    )))
)
def test_moments_give_the_variance_sums_of_the_mixed_inclusion_probabilities(case):
    rows, cuts, a = case
    s = np.array(rows)
    # shares on the simplex whose floats sum to exactly 1: dyadic cuts of [0, 1]
    edges = [0, *sorted(cuts), 2**30]
    q = np.array([(hi - lo) / 2**30 for lo, hi in zip(edges, edges[1:])])
    v_a, v_gap = (q @ mat @ q for mat in _moments(s, a))
    pi = [sum(Fraction(qc) * Fraction(sc) for qc, sc in zip(q, col)) for col in s.T]
    for got, part in zip((v_a, v_gap), (pi[:a], pi[a:])):
        want = sum(p * (1 - p) for p in part)
        assert abs(Fraction(got) - want) <= Fraction(1e-13) * want
    assert v_gap >= 0.0


def test_slack_coefficients_do_not_cancel_near_pi_one():
    # window 300, parameters alternating 0.01/0.99 (in opposite phase in the
    # two components): at high ones counts pi_i is near 1, where 1.0 - pi_i
    # cancels (8.9e-14 relative against the exact value below); q . (1 - s_i)
    # does not
    window = 300
    parts = _parts_of("alternating", 2, window, None)
    held, moved = [1, 2, 3], [[1], [2], [3], [1, 2], [1, 2, 3]]
    counts = list(range(1, window))
    _, s_held = _count_moments(parts.logit, 0, held, counts, CountMoments(), {})
    q = np.random.default_rng(3).random((len(counts), 2))
    q[:, 1] = 1.0 - q[:, 0]
    q[:3] = [[0.5, 0.5], [1e-3, 1 - 1e-3], [1 - 1e-6, 1e-6]]
    got = _slack_coefficients(q, s_held, held, moved)
    for p in range(len(counts)):
        cols = [[Fraction(v) for v in col] for col in s_held[p].T]
        pi = [sum(Fraction(qc) * sc for qc, sc in zip(q[p], col)) for col in cols]
        rest = [sum(Fraction(qc) * (1 - sc) for qc, sc in zip(q[p], col)) for col in cols]
        for k, s in enumerate(moved):
            exact = (math.prod(pi[i - 1] for i in s) * sum(rest[i - 1] for i in s))
            assert abs(Fraction(got[p, k]) - exact) <= Fraction(1e-14) * exact


@settings(max_examples=30, deadline=None)
@given(
    st.integers(8, 10).flatmap(
        lambda w: st.tuples(
            _rational_mixture(w),
            st.lists(st.integers(0, 1), min_size=w, max_size=w),
            st.integers(1, w),
        )
    ),
    st.sets(st.integers(1, 8), min_size=1),
)
def test_limit_average_under_a_product_potential_equals_enumeration(case, levels):
    nu, x, top = case
    x = tuple(x)
    rho, sched = make_rn(nu), sorted(levels)
    for indices in [(1,), (1, 2), (top,), (1, top)]:
        mono = CylinderMonomial(tuple(sorted(set(indices))))
        table = _point_table(x, rho, sched, mono.indices)
        # an exchangeable nu has the constant cocycle: closed form
        assert set(table.methods) <= {"enumeration", "closed-form"}
        assert not table.stderrs.any() and not table.slacks.any()
        orbit_sums, _, _ = product_levels(
            np.asarray(x, dtype=np.uint8)[None, :], sched, [mono.indices], nu.log_linear
        )
        for i, (n, o) in enumerate(zip(sched, orbit_sums[:, 0, 0].tolist())):
            value = table.value(i, 0, 0)
            assert value == average_exact(n, rho, mono, x)
            assert abs(o - float(value)) <= 1e-12


@pytest.mark.parametrize("cocycle", ["product", "constant"])
@pytest.mark.parametrize("sched", [(512, 1024), (1024,)])
@pytest.mark.parametrize("seed", [210000, 220000])
def test_limit_average_under_a_product_potential_matches_pi_phi_at_window_1024(
    seed, sched, cocycle
):
    # no Monte Carlo: no random stream is needed
    window = 1024
    comps = [ProductBernoulli([a if i % 2 == 0 else b for i in range(window)])
             for a, b in ((0.2, 0.25), (0.75, 0.8))]
    nu = Mixture([0.4, 0.6], comps)
    rho = make_rn(nu) if cocycle == "product" else constant_one()
    method = "product" if cocycle == "product" else "closed-form"
    dictionary = TestDictionary.build(2, 2)
    for i in range(4):
        x = nu.sample_rows(substream(seed, i), 1)[0]
        stat = pi_phi(x, rho, dictionary, sched, tolerance=0.02)
        for mono in dictionary.nonconstant():
            table = _point_table(x, rho, sched, mono.indices)
            assert table.methods == (method,) * len(sched)
            # the exact engines fill only the last level's stderr
            assert not table.stderrs[:-1].any()
            assert table.stderrs[-1, 0, 0] == pytest.approx(stat.stderrs[mono.indices], rel=1e-9)
            # the kernel's tables depend on the keys it is given, so the
            # values agree to rounding, not to the bit
            assert abs(table.value(-1, 0, 0) - stat.values[mono.indices]) <= 1e-12
            assert table.converged(0.02)[0, 0] == stat.converged[mono.indices]


@pytest.mark.parametrize("cocycle", ["constant", "product"])
def test_one_level_schedules_agree_across_callers(cocycle):
    # a window-1024 point with about 30% ones: a one-level schedule converges
    # exactly when its level has stderr 0, at or below S(8) and not above
    window = 1024
    nu = ProductBernoulli([0.3 if i % 2 == 0 else 0.35 for i in range(window)])
    rho = constant_one() if cocycle == "constant" else make_rn(nu)
    x = nu.sample_rows(substream(61, 0), 1)[0]
    x[:2] = (1, 0)
    dictionary = TestDictionary.build(2, 2)
    for level, want in ((1024, False), (9, False), (8, True), (2, True)):
        stat = pi_phi(x, rho, dictionary, (level,))
        for mono in dictionary.nonconstant():
            table = _point_table(x, rho, (level,), mono.indices)
            assert stat.converged[mono.indices] == table.converged(1e-3)[0, 0] == want
        orbital = orbital_dichotomy(x, (level,), battery=dictionary.nonconstant())
        assert orbital.verdict == ("converges-to-probability" if want else "inconclusive")


@given(st.frozensets(st.tuples(*[st.integers(0, 1)] * 5), max_size=20), st.integers(1, 6))
def test_orbit_classes_partition_by_key_in_first_member_order(configs, level):
    classes = orbit_classes(configs, level)
    firsts = [members[0] for members in classes.values()]
    assert firsts == sorted(firsts)
    for key, members in classes.items():
        assert members == sorted(members)
        assert all(orbit_class_key(x, level) == key for x in members)
    assert sorted(x for members in classes.values() for x in members) == sorted(configs)


# Exact sums over one denominator (``averaging._sum_over_lcm``) against plain
# term-by-term sums, and the tower check's one (lhs, rhs) pair per class.

_fraction = st.tuples(st.integers(-9, 9), st.integers(1, 9)).map(lambda t: Fraction(*t))
_rational_param = st.tuples(st.integers(1, 8), st.integers(1, 8)).map(
    lambda t: Fraction(t[0], t[0] + t[1])
)


def _affine_phi(coefs):
    """phi(y) = c_0 + sum over the ones positions i of y of c_i."""
    return lambda y: coefs[0] + sum(c for c, b in zip(coefs[1:], y) if b)


def _drawn_phi(data, window):
    """A cylinder monomial of the window or an affine phi with Fraction values."""
    if data.draw(st.booleans()):
        entries = TestDictionary.build(2, window).entries
        return data.draw(st.sampled_from(entries))
    return _affine_phi(data.draw(st.lists(_fraction, min_size=window + 1, max_size=window + 1)))


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_average_exact_equals_group_enumeration(data):
    # rational products, and atomic measures whose zero-mass atoms give the
    # potential zeros on the orbit, at every level of windows up to 5
    window = data.draw(st.integers(1, 5))
    level = data.draw(st.integers(1, window))
    if data.draw(st.booleans()):
        nu = ProductBernoulli(data.draw(st.lists(_rational_param, min_size=window, max_size=window)))
        x = data.draw(st.tuples(*[st.integers(0, 1)] * window))
    else:
        configs = list(itertools.product((0, 1), repeat=window))
        masses = data.draw(
            st.lists(st.integers(0, 4), min_size=len(configs), max_size=len(configs)).filter(any)
        )
        nu = AtomicMeasure(dict(zip(configs, masses)), window=window)
        x = data.draw(st.sampled_from(sorted(nu.atoms)))
    rho = make_rn(nu)
    phi = _drawn_phi(data, window)
    got = average_exact(level, rho, phi, x)
    assert type(got) is Fraction
    assert got == _group_enumeration_average(level, rho, phi, x)


def _term_by_term_average(level, rho, phi, x):
    """The orbit sum added one term at a time in orbit order."""
    num = den = Fraction(0)
    for y in level_orbit(x, level):
        u = rho.potential(y)
        den += u
        if u != 0:
            num += phi(y) * u
    return num / den


@settings(max_examples=60, deadline=None)
@given(
    params=st.lists(st.floats(0.05, 0.95), min_size=6, max_size=6),
    x=st.tuples(*[st.integers(0, 1)] * 6),
    level=st.integers(1, 6),
    entry=st.integers(0, 100),
)
def test_float_product_levels_are_the_term_by_term_sum_to_the_bit(params, x, level, entry):
    rho = make_rn(ProductBernoulli(params))
    entries = TestDictionary.build(3, 6).entries
    phi = entries[entry % len(entries)]
    got = average_exact(level, rho, phi, x)
    want = _term_by_term_average(level, rho, phi, x)
    assert type(got) is type(want)
    assert got == want


def _plain_class_sides(level, rho, phi, nu):
    """Per orbit class: the integral of phi and the level average times the
    class mass, each a running Fraction sum."""
    sides = []
    for members in (v for _, v in sorted(orbit_classes(nu.atoms, level).items())):
        val = average_exact(level, rho, phi, members[0])
        lhs = sum((Fraction(phi(x)) * nu.atom(x) for x in members), Fraction(0))
        mass = sum((nu.atom(x) for x in members), Fraction(0))
        sides.append((lhs, val * mass))
    return sides


def _plain_fubini(level, rho, phi, nu):
    group = list(enumerate_level(level))
    lhs = Fraction(0)
    for x, m in sorted(nu.atoms.items()):
        for k in group:
            lhs += Fraction(phi(act(k, x))) * Fraction(rho(k, x)) * m
    rhs = sum((Fraction(phi(x)) * m for x, m in sorted(nu.atoms.items())), Fraction(0))
    return lhs / len(group), rhs


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_exact_checks_equal_plain_fraction_sums(data):
    window = data.draw(st.integers(2, 4))
    level = data.draw(st.integers(1, min(window, 3)))
    rho_params = data.draw(st.lists(_rational_param, min_size=window, max_size=window))
    nu_params = data.draw(st.lists(_rational_param, min_size=window, max_size=window))
    nu = _product_atoms(data.draw(st.sampled_from([rho_params, nu_params])))
    rho = make_rn(ProductBernoulli(rho_params))
    if data.draw(st.booleans()):
        phi = _drawn_phi(data, window)
    else:  # float values enter both sides as their exact Fractions
        phi = _affine_phi(data.draw(st.lists(st.floats(-2, 2), min_size=window + 1,
                                             max_size=window + 1)))
    fub = fubini_check(level, rho, phi, nu)
    assert type(fub.lhs) is Fraction and type(fub.rhs) is Fraction
    assert (fub.lhs, fub.rhs) == _plain_fubini(level, rho, phi, nu)
    rep = conditional_expectation_check(level, rho, phi, nu)
    # a float phi makes the average a float: its sides agree within rounding
    sides = _plain_class_sides(level, rho, phi, nu)
    bad = [i for i, (lhs, rhs) in enumerate(sides) if not _values_agree(lhs, rhs)]
    assert rep.ok == (not bad)
    if bad:
        lhs, rhs = sides[bad[0]]
        assert rep.witness[1] == lhs - rhs
        assert rep.sets_checked == 2 ** bad[0] + 1


def test_tower_takes_one_orbit_sum_pair_per_class(monkeypatch):
    # validate's tower model: window 4, S(3) has 4 ones counts x 2 tails = 8
    # orbit classes among the 16 atoms
    params = _rational_params(4)
    nu = _product_atoms(params)
    rho = make_rn(ProductBernoulli(params))
    phi = CylinderMonomial((1,))
    real = averaging.orbit_weights
    top_level = []
    depth = [0]

    class Spy:
        def __init__(self, level, rho, x):
            self.level, self.weights = level, real(level, rho, x)

        def average(self, f):
            # orbit sums taken by tower_check itself, not inside another one
            if depth[0] == 0:
                top_level.append((self.level, "rhs" if f is phi else "lhs"))
            depth[0] += 1
            try:
                return self.weights.average(f)
            finally:
                depth[0] -= 1

    monkeypatch.setattr(averaging, "orbit_weights", Spy)
    rep = tower_check(3, 3, rho, phi, nu)
    assert rep.ok and rep.pairs_checked == 16
    assert top_level.count((3, "rhs")) == 8
    assert top_level.count((3, "lhs")) == 8


def _per_atom_tower(m, n, rho, phi, nu):
    """Both sides at every atom in turn, the inner average once per level-n
    class: (ok, pairs_checked, witness) as ``TowerReport`` reads them."""
    cache = {}

    def inner(y):
        key = orbit_class_key(y, n)
        if key not in cache:
            cache[key] = averaging.average_exact(n, rho, phi, y)
        return cache[key]

    for checked, x in enumerate(sorted(nu.atoms), start=1):
        lhs = averaging.average_exact(m, rho, inner, x)
        rhs = averaging.average_exact(m, rho, phi, x)
        if lhs != rhs:
            return False, checked, (x, lhs, rhs)
    return True, checked, None


def test_tower_witness_on_the_fake_cocycle_is_the_per_atom_one(monkeypatch):
    fake = Cocycle(eval_fn=_not_a_cocycle, potential=_unit_potential)
    nu = _product_atoms([Fraction(1, 2)] * 4)
    phi = CylinderMonomial((1,))
    monkeypatch.setattr(averaging, "orbit_weights", _GroupEnumerationWeights)
    rep = tower_check(3, 2, fake, phi, nu)
    assert not rep.ok
    assert (rep.ok, rep.pairs_checked, rep.witness) == _per_atom_tower(3, 2, fake, phi, nu)


def test_tower_takes_its_own_orbit_sums_where_the_potential_vanishes():
    # u is 0 at (1, 0, 0) only: its S(2) class also holds (0, 1, 0), which is
    # walked first and whose orbit weights the class shares; the atom where u
    # vanishes takes its own, which raise, as the per-atom check does
    def potential(x):
        return Fraction(0) if x == (1, 0, 0) else Fraction(1)

    rho = Cocycle(eval_fn=lambda g, x: Fraction(1), potential=potential)
    nu = _product_atoms([Fraction(1, 2)] * 3)
    model = ExactModel(rho, nu)
    assert model.zero_potential == [x == (1, 0, 0) for x, _ in model.atoms]
    with pytest.raises(ZeroMassError, match="vanishes at the base point"):
        tower_check(2, 1, rho, CylinderMonomial((1,)), nu, model=model)
    assert (2, orbit_class_key((0, 1, 0), 2)) in model._weights


def test_model_builds_one_orbit_weights_per_level_and_class(monkeypatch):
    # validate's tower model and level pairs: window 4, and S(1), S(2), S(3)
    # have 16 + 12 + 8 = 36 orbit classes among the 16 atoms
    params = _rational_params(4)
    nu = _product_atoms(params)
    rho = make_rn(ProductBernoulli(params))
    real = averaging.orbit_weights
    built = []

    def spy(level, rho, x):
        built.append((level, orbit_class_key(x, level)))
        return real(level, rho, x)

    monkeypatch.setattr(averaging, "orbit_weights", spy)
    model = ExactModel(rho, nu)
    for phi in (CylinderMonomial((1,)), CylinderMonomial((2, 3))):
        for n in range(1, 4):
            for m in range(n, 4):
                assert tower_check(m, n, rho, phi, nu, model=model).ok
    assert len(built) == len(set(built)) == 36
    # the model's orbit classes read the same weights
    for level in (1, 2, 3):
        assert conditional_expectation_check(
            level, rho, CylinderMonomial((1, 2)), nu, model=model).ok
    assert len(built) == 36


@pytest.mark.parametrize("level,cap,sizes", [
    (3, 20, [3, 3, 3, 3, 3, 1]),  # S(3) has 6 rows: three atoms per block
    (4, 20, [1] * 16),  # S(4) has 24 rows, more than the cap: one atom per block
    (3, 1 << 12, [16]),
])
def test_pair_blocks_hold_whole_atoms_up_to_the_cap(monkeypatch, level, cap, sizes):
    monkeypatch.setattr(averaging, "_PUSH_ROWS", cap)
    atoms = np.array(list(itertools.product((0, 1), repeat=4)), dtype=np.uint8)
    group = level_rows(level)
    blocks = list(averaging._pair_blocks(atoms, group))
    assert [len(x_rows) // len(group) for _, _, x_rows, _ in blocks] == sizes
    assert [start for start, *_ in blocks] == list(itertools.accumulate([0] + sizes[:-1]))
    pairs = [(tuple(g), tuple(x), y) for _, g_rows, x_rows, ys in blocks
             for g, x, y in zip(g_rows.tolist(), x_rows.tolist(), ys)]
    assert [(g, x) for g, x, _ in pairs] == [
        (tuple(g), tuple(x)) for x in atoms.tolist() for g in group.tolist()]
    assert all(y == act(Permutation(dict(enumerate(g, 1))), x) for g, x, y in pairs)


def _ce_failures(nu_params, rho_params):
    """The (level, entry) pairs of the window-4 dictionary whose
    conditional-expectation check fails on the atomic form of the product
    at nu_params under make_rn of the product at rho_params."""
    nu = _product_atoms(nu_params)
    rho = make_rn(ProductBernoulli(rho_params))
    model = ExactModel(rho, nu)
    return [(n, phi.indices) for n in range(1, 5) for phi in TestDictionary.build(2, 4).entries
            if not conditional_expectation_check(n, rho, phi, nu, model=model).ok]


def test_conditional_expectation_compares_float_sides_within_their_rounding():
    # float potentials: each class's two sides agree only up to rounding
    # (at level 4, phi = x_2 x_4 differs by about 7e-18), which the one
    # comparison rule of the exact checks accepts; a wrong cocycle still fails
    own = [0.3, 0.6, 0.45, 0.2]
    assert _ce_failures(own, own) == []
    assert len(_ce_failures([0.35, 0.6, 0.45, 0.2], own)) == 25


# The checks share one ExactModel across dictionary entries and level pairs,
# as validate runs them; each result must be the per-entry reference's.

@settings(max_examples=25, deadline=None)
@given(
    window=st.integers(3, 4),
    level=st.integers(1, 3),
    rho_params=st.lists(_rational_param, min_size=4, max_size=4),
    nu_params=st.lists(_rational_param, min_size=4, max_size=4),
    in_class=st.booleans(),
)
def test_shared_model_checks_equal_per_entry_references(
    window, level, rho_params, nu_params, in_class
):
    rho_params = rho_params[:window]
    nu = _product_atoms(rho_params if in_class else nu_params[:window])
    rho = make_rn(ProductBernoulli(rho_params))
    model = ExactModel(rho, nu)
    entries = TestDictionary.build(2, window).entries
    # levels and entries in turn on one model: every part is reused
    for n in range(1, level + 1):
        labels = sorted(orbit_classes(nu.atoms, n))
        for phi in entries:
            rep = conditional_expectation_check(n, rho, phi, nu, model=model)
            diffs = [lhs - rhs for lhs, rhs in _plain_class_sides(n, rho, phi, nu)]
            bad = next((i for i, d in enumerate(diffs) if d != 0), None)
            want = (True, 2 ** len(labels), None) if bad is None else (
                False, 2**bad + 1, ([labels[bad]], diffs[bad]))
            assert (rep.ok, rep.sets_checked, rep.witness) == want
            assert rep.classes == len(labels) and (rep.ok or not in_class)
            assert rep == conditional_expectation_check(n, rho, phi, nu)
            fub = fubini_check(n, rho, phi, nu, model=model)
            assert fub.exact and (fub.lhs, fub.rhs) == _plain_fubini(n, rho, phi, nu)
            assert fub.ok == (fub.lhs == fub.rhs)
    for phi in entries[1:4]:
        for n in range(1, level + 1):
            for m in range(n, level + 1):
                rep = tower_check(m, n, rho, phi, nu, model=model)
                want = _per_atom_tower(m, n, rho, phi, nu)
                assert (rep.ok, rep.pairs_checked, rep.witness) == want
        # the tower rule holds for every cocycle, so its reports cannot show
        # an average of another phi or level: read the shared ones directly
        for (n, (head, tail)), value in model.averages(phi).items():
            assert value == average_exact(n, rho, phi, head + tail)


def test_a_shared_model_belongs_to_one_cocycle_and_measure():
    nu = _product_atoms(_rational_params(3))
    rho = make_rn(ProductBernoulli(_rational_params(3)))
    model = ExactModel(rho, nu)
    phi = CylinderMonomial((1,))
    with pytest.raises(ValueError, match="another cocycle or measure"):
        fubini_check(1, constant_one(), phi, nu, model=model)
    with pytest.raises(ValueError, match="another cocycle or measure"):
        tower_check(2, 1, rho, phi, _product_atoms(_rational_params(3)), model=model)


def _per_entry(check):
    """The check as a call of its own: no model shared."""
    def call(*args, model=None, **kwargs):
        return check(*args, **kwargs)
    return call


@settings(max_examples=8, deadline=None)
@given(
    window=st.integers(3, 4),
    level=st.integers(1, 3),
    seed=st.integers(0, 2**32),
)
def test_validate_verdicts_equal_the_per_entry_suite(window, level, seed):
    import ergodec.validation as validation

    cfg = {"window": 8, "level": 4, "trials": 300, "sweep_window": window,
           "sweep_level": level, "tower_window": window, "tower_cap": level,
           "fubini_window": window, "invariance_level": level}
    shared = validation.run_validation_suite(cfg, seed)
    with pytest.MonkeyPatch.context() as mp:
        for name in ("conditional_expectation_check", "tower_check", "fubini_check"):
            mp.setattr(validation, name, _per_entry(getattr(validation, name)))
        alone = validation.run_validation_suite(cfg, seed)
    assert [(v.name, v.passed, v.detail) for v in shared] == [
        (v.name, v.passed, v.detail) for v in alone
    ]
    assert all(v.passed for v in shared)
