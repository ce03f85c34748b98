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
    AveragingReport,
    _esp_log_tables,
    _ratio_or_zero,
    _tilted_inclusion,
    average_exact,
    average_mc,
    conditional_expectation_check,
    default_schedule,
    fubini_check,
    haar_rows,
    invariance_check,
    level_table,
    limit_average,
    monomial_level_average,
    product_levels,
    tower_check,
)
from ergodec.cocycles import Cocycle, constant_one, make_rho_f, make_rn
from ergodec.decomposition import (
    DecomposeConfig,
    _point_block,
    decompose,
    ergodicity_test,
    pi_phi,
)
from ergodec.dictionary import CylinderMonomial, TestDictionary
from ergodec.errors import CapacityError
from ergodec.groups import act, enumerate_level
from ergodec.measures import BetaExchangeable, Mixture, ProductBernoulli
from ergodec.rng import substream
from ergodec.sigma_finite import GeometricWeight, make_fibrewise_f, orbital_dichotomy
from ergodec.validation import _product_atoms


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
    rep = average_exact(3, rho, _const_phi(Fraction(5, 7)), (1, 0, 1, 1))
    assert rep.value == Fraction(5, 7)
    assert rep.method == "exact" and rep.stderr == 0


def test_average_exact_symmetric_slot():
    rep = average_exact(2, constant_one(), CylinderMonomial((1,)), (1, 0))
    assert rep.value == Fraction(1, 2)


def test_average_exact_weighted_orbit():
    nu = ProductBernoulli([Fraction(1, 2), Fraction(1, 4)])
    rep = average_exact(2, make_rn(nu), CylinderMonomial((1,)), (1, 0))
    # oracle: conditional expectation over the two orbit atoms
    mass_10 = Fraction(1, 2) * Fraction(3, 4)
    mass_01 = Fraction(1, 2) * Fraction(1, 4)
    oracle = (1 * mass_10 + 0 * mass_01) / (mass_10 + mass_01)
    assert oracle == Fraction(3, 4)
    assert rep.value == oracle


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
                    assert average_exact(level, rho, mono, point).value == want
                    if point is zeroed:
                        assert want == 0
                want_one = brute_force_average(level, unit, mono, point)
                assert monomial_level_average(level, mono.indices, point) == want_one


def test_average_mc_constant_cancels_exactly():
    rho = make_rn(ProductBernoulli([Fraction(1, 3)] * 6))
    rep = average_mc(6, rho, _const_phi(2.5), (1, 0, 1, 0, 1, 0), 50, substream(41, 1))
    assert rep.value == 2.5
    assert rep.method == "monte-carlo"


def test_average_mc_symmetry_count():
    x = tuple([1] * 3 + [0] * 9)
    rep = average_mc(12, constant_one(), CylinderMonomial((1,)), x, 4000, substream(41, 2))
    assert abs(rep.value - 3 / 12) <= 3 * rep.stderr + 1e-9


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
        exact = float(average_exact(6, rho, phi, x).value)
        mc = average_mc(6, rho, phi, x, 400, rng)
        if abs(mc.value - exact) <= 3 * mc.stderr + 1e-12:
            hits += 1
    assert hits >= 99


def test_average_mc_requires_two_samples():
    with pytest.raises(ValueError):
        average_mc(4, constant_one(), CylinderMonomial((1,)), (1, 0, 1, 0), 1, substream(0, 0))


def test_positive_contraction_bound():
    params = [Fraction(1, 3)] * 5
    rho = make_rn(ProductBernoulli(params))

    def phi(y):
        return Fraction(-3) if y[0] else Fraction(2)

    rng = substream(41, 4)
    for _ in range(20):
        x = tuple(int(b) for b in rng.integers(0, 2, size=5))
        v = average_exact(4, rho, phi, x).value
        assert -3 <= v <= 2


def test_infinite_denominator_branch_returns_zero():
    assert _ratio_or_zero(Fraction(3), math.inf) == 0


def test_exact_report_rejects_nonzero_stderr():
    with pytest.raises(ValueError):
        AveragingReport(value=1.0, level=2, method="exact", stderr=0.1, sample_count=2)


def test_limit_average_constant_converges_immediately():
    rho = constant_one()
    rep = limit_average(rho, _const_phi(Fraction(2, 3)), (1, 0, 1, 0), [1, 2, 4])
    assert rep.converged
    assert rep.limit_estimate == pytest.approx(2 / 3)
    assert all(r.stderr == 0 for r in rep.levels)


def test_limit_average_all_ones_fixed():
    x = tuple([1] * 64)
    rep = limit_average(
        constant_one(), CylinderMonomial((1,)), x, [1, 2, 4, 8, 16, 32, 64],
        mc_samples=64, rng=substream(43, 0),
    )
    assert rep.converged and rep.limit_estimate == 1.0
    assert all(float(r.value) == 1.0 for r in rep.levels)


def test_limit_average_lln_bernoulli():
    nu = ProductBernoulli([0.2] * 4096)
    x = nu.sample(substream(43, 1))
    rep = limit_average(
        constant_one(), CylinderMonomial((1,)), x, default_schedule(4096),
        mc_samples=3000, rng=substream(43, 2),
    )
    assert rep.converged
    freq = sum(x) / 4096
    assert abs(rep.limit_estimate - freq) <= 3 * rep.levels[-1].stderr
    assert abs(rep.limit_estimate - 0.2) <= 0.02
    series = rep.rows()
    assert [lvl for lvl, _, _ in series] == list(default_schedule(4096))
    assert all(se == 0.0 for lvl, _, se in series if lvl <= 8)


def test_limit_average_reports_nonconvergence():
    # levels 1 and 2 genuinely disagree at a point with x1 != x2
    rep = limit_average(constant_one(), CylinderMonomial((1,)), (1, 0), [1, 2])
    assert not rep.converged
    assert rep.limit_estimate is None
    assert rep.last_diff == pytest.approx(0.5)


def test_limit_schedule_must_increase():
    with pytest.raises(ValueError):
        limit_average(constant_one(), CylinderMonomial((1,)), (1, 0), [2, 2])


@pytest.mark.parametrize(
    "caller",
    ["constant", "product", "pi_phi", "point_block", "ergodicity", "orbital", "decompose"],
)
@pytest.mark.parametrize("schedule, message", [
    ((2, 8), "schedule exceeds"),  # a window-4 point has no level 8
    ((0, 4), "levels must be >= 1"),  # the closed form read level 0 as 0/0
    ((), "levels must be >= 1"),
])
def test_schedule_outside_the_point_raises(caller, schedule, message):
    x, mono, dictionary = (1, 0, 1, 0), CylinderMonomial((1,)), TestDictionary.build(1, 1)
    nu = ProductBernoulli([Fraction(1, 3), Fraction(1, 4)] * 2)
    rho = make_rn(nu)
    with pytest.raises(ValueError, match=message):
        if caller == "constant":
            limit_average(constant_one(), mono, x, schedule)
        elif caller == "product":
            limit_average(rho, mono, x, schedule)
        elif caller == "pi_phi":
            pi_phi(x, rho, dictionary, schedule)
        elif caller == "point_block":
            _point_block((nu, rho, dictionary, schedule, 0.02, 40, 0, range(2)))
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
        tower_check(6, 2, constant_one(), CylinderMonomial((1,)), nu)


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
    return AveragingReport(num / den, level, "exact", 0.0, math.factorial(level))


def test_tower_reports_witness_when_weights_are_inconsistent(monkeypatch):
    # average_exact sums the potential over the orbit, which no fake can
    # break, so the negative control reads rho through group enumeration
    fake = Cocycle(eval_fn=_not_a_cocycle, potential=_unit_potential)
    nu = _product_atoms([Fraction(1, 2)] * 4)
    assert tower_check(3, 2, fake, CylinderMonomial((1,)), nu).ok
    monkeypatch.setattr(averaging, "average_exact", _group_enumeration_average)
    rep = tower_check(3, 2, fake, CylinderMonomial((1,)), nu)
    assert not rep.ok
    assert rep.witness is not None
    atom, lhs, rhs = rep.witness
    assert lhs != rhs


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
        val = average_exact(level, rho, phi, members[0]).value
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
        want = [average_exact(n, constant_one(), mono, x).value for n in sched]
        assert rep.series[mono.indices] == tuple((n, float(w), 0.0) for n, w in zip(sched, want))
        lim = limit_average(constant_one(), mono, x, sched)
        assert [r.value for r in lim.levels] == want
        assert all(r.method == "exact" and r.stderr == 0 for r in lim.levels)


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
        lim = limit_average(constant_one(), mono, x, sched)
        assert [r.value for r in lim.levels] == want


def test_average_mc_callable_phi_under_callable_potential():
    # without log_potential_rows: per-row potential calls
    rho = replace(make_rho_f(make_fibrewise_f()), log_potential_rows=None)
    rng = substream(41, 9)
    hits = 0
    for _ in range(100):
        x = tuple(int(b) for b in rng.integers(0, 2, size=6))

        def phi(y):
            return Fraction(y[0] + 2 * y[-1], 3)

        exact = float(average_exact(6, rho, phi, x).value)
        mc = average_mc(6, rho, phi, x, 400, rng)
        if abs(mc.value - exact) <= 3 * mc.stderr + 1e-12:
            hits += 1
    # weight ratios up to 4^9 give the self-normalized estimate heavier tails
    # than a normal one, so a few misses at 3 se are expected
    assert hits >= 97


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
            want = average_exact(n, rho, CylinderMonomial(key), x).value
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
    x = nu.sample_array(substream(seed, 0))
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
    rep = average_mc(window, rho, CylinderMonomial((1,)), x, 200, substream(41, window))
    assert math.isfinite(rep.value) and 0.0 <= rep.value <= 1.0
    assert math.isfinite(rep.stderr)


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
    bits = source.sample_array(substream(seed, 0))
    keys = [(), (1,), (2,), (1, 2)]
    mixed = _product_levels(Mixture([0.5, 0.5], [a, b]), bits, (128, 256), keys)
    alone = _product_levels(source, bits, (128, 256), keys)
    for got, want in zip(mixed, alone):
        assert np.allclose(got, want, rtol=1e-9, atol=0.0)


def _per_point_tilted_inclusion(logit, m, q):
    """The Newton solve for one point, as it stood before it was batched,
    with the number of steps it took (200: the loop ran out)."""
    n = logit.shape[1]
    if m == 0 or m == n:
        return np.full(n, float(m == n)), 0
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
    return q @ pi, steps


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
            pi, _ = _per_point_tilted_inclusion(parts.logit[:, :n], m, g.sum(axis=1) / den)
            cum = np.cumsum(pi * (1.0 - pi))
            coef = [
                float(math.prod(pi[i - 1] for i in s) * sum(1.0 - pi[i - 1] for i in s))
                if s else 0.0
                for s in moved
            ]
            v_b = float(cum[n - 1])
            if a is not None:
                v_a = float(cum[a - 1])
                if v_a > 0.0:
                    gap = math.sqrt(n * (v_b - v_a) / ((n - 1) * v_a * v_b))
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
    for g, w in zip(got, (values, slacks, stderrs)):
        assert g.shape == w.shape and g.tobytes() == w.tobytes()


@settings(max_examples=30, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 3),
    st.integers(2, 400),
    st.sampled_from([0.0, 1e6]),
    st.integers(1, 40),
)
def test_tilted_inclusion_batch_equals_the_per_point_solve(seed, comps, n, offset, points):
    # logits near 1e6 put adjacent values of lam + logit further apart than
    # the convergence test can resolve: some points run all 200 steps
    rng = np.random.default_rng(seed)
    logit = offset * rng.choice([-1.0, 1.0], (comps, 1)) + rng.normal(0, 2, (comps, n))
    m = rng.integers(0, n + 1, points)
    m[0] = 0
    if points > 1:
        m[-1] = n
    q = rng.random((points, comps))
    q /= q.sum(axis=1, keepdims=True)
    got = _tilted_inclusion(logit, m, q)
    want = np.array([_per_point_tilted_inclusion(logit, int(k), qp)[0] for k, qp in zip(m, q)])
    assert got.tobytes() == want.tobytes()


def test_tilted_inclusion_keeps_points_that_never_converge():
    # A batch where some points pass the convergence test in two steps and
    # others never do (200 steps, no break): each leaves at its own step.
    rng = np.random.default_rng(5)
    n = 300
    logit = 1e6 + rng.normal(0, 0.1, (2, n))
    logit[1] -= 2e6
    m = np.array([0, n, 1, 5, 150, 299, 77, 200] * 5)
    q = rng.random((len(m), 2))
    q /= q.sum(axis=1, keepdims=True)
    want = [_per_point_tilted_inclusion(logit, int(k), qp) for k, qp in zip(m, q)]
    assert {s for _, s in want} >= {0, 2, 200}
    got = _tilted_inclusion(logit, m, q)
    assert got.tobytes() == np.array([pi for pi, _ in want]).tobytes()


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
        exact = limit_average(rho, mono, x, sched)
        orbit_sums, _, _ = product_levels(
            np.asarray(x, dtype=np.uint8)[None, :], sched, [mono.indices], nu.log_linear
        )
        for e, o in zip(exact.levels, orbit_sums[:, 0, 0].tolist()):
            assert e == average_exact(e.level, rho, mono, x)
            assert abs(o - float(e.value)) <= 1e-12


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
    dictionary = TestDictionary.build(2, 2)
    for i in range(4):
        x = nu.sample_array(substream(seed, i))
        stat = pi_phi(x, rho, dictionary, sched, tolerance=0.02)
        for mono in dictionary.nonconstant():
            rep = limit_average(rho, mono, tuple(x.tolist()), sched, tolerance=0.02)
            assert [(r.method, r.stderr, r.sample_count) for r in rep.levels] == [
                ("exact", 0.0, 0)
            ] * len(sched)
            # the kernel's tables depend on the keys it is given, so the
            # values agree to rounding, not to the bit
            assert abs(rep.levels[-1].value - stat.values[mono.indices]) <= 1e-12
            assert rep.converged == stat.converged[mono.indices]


@pytest.mark.parametrize("cocycle", ["constant", "product"])
def test_one_level_schedules_agree_across_callers(cocycle):
    # a window-1024 point with about 30% ones: a one-level schedule converges
    # exactly when its level has stderr 0, at or below S(8) and not above
    window = 1024
    nu = ProductBernoulli([0.3 if i % 2 == 0 else 0.35 for i in range(window)])
    rho = constant_one() if cocycle == "constant" else make_rn(nu)
    x = nu.sample_array(substream(61, 0))
    x[:2] = (1, 0)
    dictionary = TestDictionary.build(2, 2)
    for level, want in ((1024, False), (9, False), (8, True), (2, True)):
        stat = pi_phi(x, rho, dictionary, (level,))
        for mono in dictionary.nonconstant():
            rep = limit_average(rho, mono, tuple(x.tolist()), (level,))
            assert stat.converged[mono.indices] == rep.converged == want
            assert (rep.limit_estimate is not None) == want
        orbital = orbital_dichotomy(x, (level,), battery=dictionary.nonconstant())
        assert orbital.verdict == ("converges-to-probability" if want else "inconclusive")
