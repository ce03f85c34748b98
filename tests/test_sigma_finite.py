import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergodec.errors import CapacityError, DivergentIntegralError
from ergodec.measures import (
    INFINITE,
    AtomicMeasure,
    Cylinder,
    OrbitSigmaFinite,
    ProductBernoulli,
    ac_check,
)
from ergodec.rng import substream
from ergodec.sigma_finite import (
    ComponentSplit,
    ConstantWeight,
    FOrbitProbability,
    GeometricWeight,
    MeasureClassDescriptor,
    ProjectiveClass,
    classify_components,
    decompose_sigma_finite,
    f_integral,
    inv_p_f,
    make_fibrewise_f,
    orbital_dichotomy,
    orbital_measure,
    p_f,
    pcl,
    reweight_decomposition,
)


def test_weight_on_empty_configuration():
    f = make_fibrewise_f()
    assert f(tuple([0] * 6)) == 1
    assert f(frozenset()) == 1


def test_weight_positivity_under_action():
    from ergodec.groups import act, haar_sample

    f = make_fibrewise_f()
    rng = substream(71, 0)
    for _ in range(30):
        g = haar_sample(5, rng)
        x = tuple(int(b) for b in rng.integers(0, 2, size=5))
        assert f(act(g, x)) > 0


def test_orbit_mass_geometric_series():
    f = make_fibrewise_f(4)
    assert f.orbit_mass(1) == Fraction(1, 3)
    # independent oracle: partial sums of 4^-i approach 1/3 from below
    partial = sum(Fraction(1, 4**i) for i in range(1, 40))
    assert 0 < Fraction(1, 3) - partial < Fraction(1, 4**38)


def test_orbit_mass_two_ones_oracle():
    f = make_fibrewise_f(4)
    got = f.orbit_mass(2)
    assert got == Fraction(1, 45)
    # independent oracle: brute-force over pairs i < j up to a tail bound
    brute = sum(
        Fraction(1, 4**i) * Fraction(1, 4**j)
        for i in range(1, 40)
        for j in range(i + 1, 42)
    )
    assert 0 < got - brute < Fraction(1, 4**35)


def test_orbit_mass_window_matches_enumeration():
    f = GeometricWeight(3)
    window = 6
    for k in range(window + 1):
        brute = sum(
            math.prod(Fraction(1, 3**i) for i in combo)
            for combo in itertools.combinations(range(1, window + 1), k)
        )
        assert f.orbit_mass(k, window) == brute


def _orbit_mass_dp(base, k, window):
    """The former windowed orbit mass: the coefficient of t^k in
    prod_{i=1..window} (1 + q^i t), q = 1/base, by an O(window * k) DP."""
    q = Fraction(1, base)
    if k > window:
        return Fraction(0)
    coeffs = [Fraction(1)] + [Fraction(0)] * k
    for i in range(1, window + 1):
        for d in range(min(i, k), 0, -1):
            coeffs[d] += coeffs[d - 1] * q**i
    return coeffs[k]


def _orbit_mass_idealized(base, k):
    """The former idealized orbit mass: q^(k(k+1)/2) / prod_{j=1..k} (1 - q^j)."""
    q = Fraction(1, base)
    den = Fraction(1)
    for j in range(1, k + 1):
        den *= 1 - q**j
    return q ** (k * (k + 1) // 2) / den


@settings(max_examples=150, deadline=None)
@given(base=st.integers(2, 9), window=st.integers(0, 64), k=st.integers(0, 66))
def test_orbit_mass_is_the_gaussian_binomial(base, window, k):
    f = GeometricWeight(base)
    got = f.orbit_mass(k, window)
    assert isinstance(got, Fraction)
    assert got == _orbit_mass_dp(base, k, window)
    if window <= 10:
        brute = sum(
            (f(frozenset(c)) for c in itertools.combinations(range(1, window + 1), k)),
            Fraction(0),
        )
        assert got == brute
    assert f.orbit_mass(k) == _orbit_mass_idealized(base, k)


def _product_loop_weight(base, x):
    """The former GeometricWeight: one power of 1/base per ones position."""
    positions = sorted(x) if isinstance(x, frozenset) else [i + 1 for i, b in enumerate(x) if b]
    out = Fraction(1)
    for i in positions:
        out *= Fraction(1, base) ** i
    return out


@settings(max_examples=200)
@given(
    base=st.integers(2, 9),
    bits=st.lists(st.integers(0, 1), max_size=40),
    positions=st.frozensets(st.integers(1, 80), max_size=12),
)
def test_geometric_weight_equals_product_loop(base, bits, positions):
    f = GeometricWeight(base)
    assert f(tuple(bits)) == _product_loop_weight(base, tuple(bits))
    assert f(positions) == _product_loop_weight(base, positions)


def test_constant_weight_divergence():
    nu = OrbitSigmaFinite({1: 1})
    with pytest.raises(DivergentIntegralError):
        p_f(nu, ConstantWeight())


def test_p_f_constant_weight_on_probability_is_identity():
    nu = AtomicMeasure({(1, 0): Fraction(1, 4), (0, 1): Fraction(3, 4)})
    assert p_f(nu, ConstantWeight()) == nu


def test_p_f_geometric_masses_base_two():
    # counting measure on the single-one orbit, f with base 2: atom at the
    # configuration with its one at position i gets exactly 2^-i
    f = GeometricWeight(2)
    nu = OrbitSigmaFinite({1: 1})
    mu = p_f(nu, f)
    assert isinstance(mu, FOrbitProbability)
    assert f.orbit_mass(1) == 1
    for i in (1, 2, 3, 7):
        assert mu.atom_mass(frozenset({i})) == Fraction(1, 2**i)


def test_p_f_scale_invariance():
    f = make_fibrewise_f()
    nu = OrbitSigmaFinite({1: Fraction(2), 3: Fraction(5, 7)})
    rng = substream(71, 1)
    base = p_f(nu, f)
    for _ in range(100):
        lam = Fraction(int(rng.integers(1, 50)), int(rng.integers(1, 50)))
        assert p_f(nu.scaled(lam), f) == base


def test_inv_p_f_roundtrip_orbit_model():
    f = make_fibrewise_f()
    nu = OrbitSigmaFinite({1: 2, 2: 3})
    back = inv_p_f(p_f(nu, f), f)
    assert back.same_class(ProjectiveClass(representative=nu))


def test_inv_p_f_roundtrip_atomic():
    f = GeometricWeight(2)
    nu = AtomicMeasure({(1, 0): Fraction(1, 3), (0, 1): Fraction(2, 3)})
    back = inv_p_f(p_f(nu, f), f)
    assert back.same_class(ProjectiveClass(representative=nu))


def _same(a, b) -> bool:
    return ProjectiveClass(representative=a).same_class(ProjectiveClass(representative=b))


def test_same_class_orbit_models():
    nu = OrbitSigmaFinite({1: 2, 3: Fraction(1, 5)}, scale=6)
    assert _same(nu, nu.scaled(Fraction(7, 3)))
    assert not _same(nu, OrbitSigmaFinite({1: 2, 3: Fraction(2, 5)}, scale=6))
    assert not _same(nu, OrbitSigmaFinite({1: 2, 2: Fraction(1, 5)}, scale=6))
    assert not _same(nu, nu.restricted({1}))
    assert not _same(nu, OrbitSigmaFinite(nu.orbit_weights, scale=7))
    assert not _same(nu, OrbitSigmaFinite(nu.orbit_weights))


def test_same_class_atomic_measures():
    nu = AtomicMeasure({(1, 0): Fraction(1, 3), (0, 1): Fraction(2, 3)})
    assert _same(nu, nu.scaled(5))
    assert not _same(nu, AtomicMeasure({(1, 0): Fraction(1, 2), (0, 1): Fraction(1, 2)}))
    assert not _same(nu, AtomicMeasure({(1, 0): Fraction(1, 3), (1, 1): Fraction(2, 3)}))
    assert not _same(nu, AtomicMeasure({(1, 0): Fraction(1, 3)}))


def test_same_class_mixed_representations_differ():
    orbit = OrbitSigmaFinite({1: 1}, scale=2)
    atomic = AtomicMeasure({(1, 0): 1, (0, 1): 1})
    assert not _same(orbit, atomic)
    assert not _same(atomic, orbit)


def test_inv_p_f_representative_is_f_normalized():
    f = make_fibrewise_f()
    nu = OrbitSigmaFinite({1: 2, 2: 3})
    rep = inv_p_f(p_f(nu, f), f).representative
    assert f_integral(rep, f) == 1


def test_inv_p_f_rejects_mismatched_weight():
    f = make_fibrewise_f()
    mu = p_f(OrbitSigmaFinite({1: 1}), f)
    with pytest.raises(ValueError):
        inv_p_f(mu, GeometricWeight(2))


def test_p_f_of_invariant_gives_weight_cocycle_member():
    # the normalized measure transforms by the f-ratio cocycle on the window
    from ergodec.cocycles import make_rho_f
    from ergodec.groups import act, enumerate_level
    from ergodec.measures import rn_derivative

    f = GeometricWeight(2)
    window = 4
    counting = AtomicMeasure(
        {c: Fraction(1) for c in itertools.product((0, 1), repeat=window)}
    )
    mu = p_f(counting, f)
    rho = make_rho_f(f)
    for g in enumerate_level(4):
        for x in mu.atoms:
            assert rn_derivative(mu, g, x) == rho(g, x)


def test_decompose_single_orbit():
    f = make_fibrewise_f()
    dec = decompose_sigma_finite(OrbitSigmaFinite({2: Fraction(7, 3)}), f)
    assert dec.weights == {2: Fraction(1)}
    assert dec.descriptor == MeasureClassDescriptor(frozenset({2}))


def test_decompose_weights_proportional_to_f_mass():
    f = make_fibrewise_f()
    nu = OrbitSigmaFinite({1: 2, 2: 3})
    dec = decompose_sigma_finite(nu, f)
    # weights proportional to (2 * 1/3, 3 * 1/45) = (2/3, 1/15)
    assert dec.weights == {1: Fraction(10, 11), 2: Fraction(1, 11)}
    for k, comp in dec.components.items():
        assert f_integral(comp, f) == 1


def test_decompose_barycenter_recovers_rescaled_measure():
    f = make_fibrewise_f()
    nu = OrbitSigmaFinite({1: 2, 2: 3, 4: Fraction(1, 5)})
    dec = decompose_sigma_finite(nu, f)
    assert dec.barycenter() == nu.scaled(1 / dec.f_mass)


def test_dividing_weighted_decomposition_recovers_measure():
    # the f-weighted probability decomposes over orbits; dividing each
    # component by f returns the orbit-counting pieces exactly
    f = make_fibrewise_f()
    nu = OrbitSigmaFinite({1: 2, 2: 3})
    dec = decompose_sigma_finite(nu, f)
    mu = p_f(nu, f)
    for k, w in mu.orbit_probs.items():
        assert w == dec.weights[k]
        back = inv_p_f(
            FOrbitProbability(orbit_probs={k: Fraction(1)}, f=f, scale=None), f
        )
        assert back.same_class(ProjectiveClass(representative=dec.components[k]))


def test_reweighting_identity():
    f = make_fibrewise_f()
    dec = decompose_sigma_finite(OrbitSigmaFinite({1: 2, 2: 3}), f)
    same = reweight_decomposition(dec, {k: Fraction(1) for k in dec.weights})
    assert same.weights == dec.weights
    assert same.components == dec.components


def test_reweighting_by_two():
    f = make_fibrewise_f()
    dec = decompose_sigma_finite(OrbitSigmaFinite({1: 2, 2: 3}), f)
    doubled = reweight_decomposition(dec, {k: Fraction(2) for k in dec.weights})
    for k in dec.weights:
        assert doubled.weights[k] == 2 * dec.weights[k]
        assert doubled.components[k].weight(k) == dec.components[k].weight(k) / 2
    assert doubled.barycenter() == dec.barycenter()


def test_reweighting_keeps_descriptor_and_barycenter():
    f = make_fibrewise_f()
    dec = decompose_sigma_finite(OrbitSigmaFinite({0: 1, 2: 3, 5: Fraction(2, 7)}), f)
    rng = substream(71, 2)
    current = dec
    for _ in range(100):
        phi = {
            k: Fraction(int(rng.integers(1, 30)), int(rng.integers(1, 30)))
            for k in dec.weights
        }
        current = reweight_decomposition(current, phi)
        assert current.descriptor == dec.descriptor
        assert current.barycenter() == dec.barycenter()


def test_reweighting_requires_positivity():
    f = make_fibrewise_f()
    dec = decompose_sigma_finite(OrbitSigmaFinite({1: 1}), f)
    with pytest.raises(ValueError):
        reweight_decomposition(dec, {1: Fraction(0)})


def test_pcl_set_logic():
    f = make_fibrewise_f()
    d12 = pcl(OrbitSigmaFinite({1: 1, 2: 1}), f)
    d23 = pcl(OrbitSigmaFinite({2: 1, 3: 5}), f)
    d1 = pcl(OrbitSigmaFinite({1: 7}), f)
    d2 = pcl(OrbitSigmaFinite({2: Fraction(1, 3)}), f)
    assert d12 == pcl(OrbitSigmaFinite({1: 9, 2: 4}), f)
    assert d12.relation(d23) == "neither"
    assert d1.relation(d12) == "absolutely-continuous"
    assert d1.relation(d2) == "mutually-singular"


def test_descriptor_transfer_matches_ac_check():
    f = make_fibrewise_f()
    rng = substream(71, 3)
    labels = [0, 1, 2, 3, 4]
    for _ in range(25):
        pick1 = sorted(rng.choice(labels, size=int(rng.integers(1, 5)), replace=False).tolist())
        pick2 = sorted(rng.choice(labels, size=int(rng.integers(1, 5)), replace=False).tolist())
        m1 = OrbitSigmaFinite({k: Fraction(int(rng.integers(1, 9))) for k in pick1})
        m2 = OrbitSigmaFinite({k: Fraction(int(rng.integers(1, 9))) for k in pick2})
        assert ac_check(m1, m2) == pcl(m1, f).relation(pcl(m2, f))


def test_classify_components_pure_cases():
    only_zero = classify_components(OrbitSigmaFinite({0: 5}))
    assert only_zero.infinite_labels == frozenset()
    assert only_zero.finite_labels == frozenset({0})

    mixed = classify_components(OrbitSigmaFinite({0: 1, 1: 2}))
    assert mixed.finite_labels == frozenset({0})
    assert mixed.infinite_labels == frozenset({1})
    merged = {
        **mixed.finite_part.orbit_weights,
        **mixed.infinite_part.orbit_weights,
    }
    assert merged == {0: Fraction(1), 1: Fraction(2)}


def test_classify_components_window_scale_all_finite():
    split = classify_components(OrbitSigmaFinite({0: 1, 2: 1, 4: 1}, scale=6))
    assert split.infinite_labels == frozenset()
    assert split.finite_labels == frozenset({0, 2, 4})


def test_component_split_parts_are_invariant():
    # the action preserves ones counts, so each part's orbit support is fixed
    from ergodec.groups import act, haar_sample

    split = classify_components(OrbitSigmaFinite({0: 1, 1: 2, 3: 1}))
    rng = substream(79, 0)
    for _ in range(50):
        g = haar_sample(6, rng)
        x = tuple(int(b) for b in rng.integers(0, 2, size=8))
        assert sum(act(g, x)) == sum(x)
    assert split.finite_labels | split.infinite_labels == frozenset({0, 1, 3})
    assert not (split.finite_labels & split.infinite_labels)


def test_average_decay_on_infinite_orbits():
    # a point on the k-ones orbit has level average k/n for the first-slot
    # indicator, which decays to 0 as the level grows
    from ergodec.averaging import monomial_level_average

    window = 1024
    k = 3
    x = tuple(1 if i < k else 0 for i in range(window))
    for n in (3, 4, 5, 6, 7, 8):
        assert monomial_level_average(n, (1,), x) == Fraction(k, n)
    s = orbital_measure(x, 1000, mode="monte-carlo", samples=3000, rng=substream(73, 6))
    est, _ = s.cylinder_mass(Cylinder.of({1: 1}))
    assert est <= 0.01


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 300), st.integers(2, 200), st.integers(0, 2**32 - 1), st.data())
def test_orbital_measure_monte_carlo_rows_unchanged(window, samples, seed, data):
    level = data.draw(st.integers(1, window))
    x = tuple(int(b) for b in substream(seed, 0).integers(0, 2, size=window))
    got = orbital_measure(x, level, mode="monte-carlo", samples=samples, rng=substream(seed, 1))
    # The argsort-and-gather draw that the packed-key kernel replaced.
    x_bits = np.asarray(x, dtype=np.uint8)
    perms = np.argsort(substream(seed, 1).random((samples, level)), axis=1)
    want = np.tile(x_bits, (samples, 1))
    want[:, :level] = x_bits[:level][perms]
    assert got.level == level and got.rows.tobytes() == want.tobytes()


def test_orbital_measure_fixed_prefix_point_mass():
    x = (1, 1, 1, 0, 0)
    eta = orbital_measure(x, 3, mode="exact")
    assert eta.atoms == {x: Fraction(1)}


def test_orbital_measure_counting_oracle():
    x = (1, 0, 1, 1, 0, 0)
    for n in (3, 4, 6):
        eta = orbital_measure(x, n, mode="exact")
        k = sum(x[:n])
        got = eta.mass(Cylinder.of({1: 1}))
        # oracle: arrangements with a one in slot 1 over all arrangements
        want = Fraction(math.comb(n - 1, k - 1), math.comb(n, k))
        assert got == want == Fraction(k, n)


def test_orbital_measure_capacity():
    with pytest.raises(CapacityError):
        orbital_measure(tuple([1] * 16), 9, mode="exact")


def test_orbital_measure_monte_carlo_lln():
    nu = ProductBernoulli([0.5] * 4096)
    x = nu.sample(substream(73, 0))
    s = orbital_measure(x, 4096, mode="monte-carlo", samples=4000, rng=substream(73, 1))
    est, se = s.cylinder_mass(Cylinder.of({1: 1}))
    assert abs(est - 0.5) <= 0.03


def test_orbital_dichotomy_all_ones_converges():
    x = tuple([1] * 256)
    rep = orbital_dichotomy(x, [1, 2, 4, 16, 64, 256])
    assert rep.verdict == "converges-to-probability"
    assert all(v == 1.0 for v in rep.finals.values())


def test_orbital_dichotomy_three_ones_escapes():
    window = 1024
    x = tuple(1 if i < 3 else 0 for i in range(window))
    rep = orbital_dichotomy(x, [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1000])
    assert rep.verdict == "escapes-mass"
    assert rep.finals[(1,)] <= 0.01


def test_orbital_dichotomy_inconclusive_on_oscillation():
    # exact levels 1 and 2 disagree by 0.5 while staying above the decay
    # threshold: neither Cauchy nor escaping
    x = (1, 0, 1, 1)
    rep = orbital_dichotomy(x, [1, 2])
    assert rep.verdict == "inconclusive"


def test_orbital_dichotomy_bernoulli_converges_to_moments():
    nu = ProductBernoulli([0.3] * 2048)
    x = nu.sample(substream(73, 4))
    rep = orbital_dichotomy(x, [256, 512, 1024, 2048])
    assert rep.verdict == "converges-to-probability"
    assert abs(rep.finals[(1,)] - 0.3) <= 0.03
    assert abs(rep.finals[(1, 2)] - 0.09) <= 0.03
    # one level above S(8) has a nonzero stderr: not Cauchy, as in pi_phi
    assert orbital_dichotomy(x, [2048]).verdict == "inconclusive"


def test_f_integral_exact():
    f = make_fibrewise_f()
    nu = OrbitSigmaFinite({1: 2, 2: 3})
    assert f_integral(nu, f) == 2 * Fraction(1, 3) + 3 * Fraction(1, 45)
