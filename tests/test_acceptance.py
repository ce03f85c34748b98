"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible under ``pytest -s``) and
enforces its runtime budget. Seeds are fixed; reruns are byte-stable.
"""
import time
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import betainc

from ergodec.averaging import (
    conditional_expectation_check,
    fubini_check,
    monomial_level_average,
    tower_check,
)
from ergodec.cli import load_config, run_experiment
from ergodec.cocycles import constant_one, make_rn, verify_identity
from ergodec.decomposition import DecomposeConfig, decompose, ks_statistic
from ergodec.dictionary import CylinderMonomial, TestDictionary
from ergodec.measures import (
    BetaExchangeable,
    Cylinder,
    Mixture,
    OrbitSigmaFinite,
    ProductBernoulli,
    ac_check,
)
from ergodec.rng import substream
from ergodec.sigma_finite import (
    ProjectiveClass,
    decompose_sigma_finite,
    inv_p_f,
    make_fibrewise_f,
    orbital_dichotomy,
    orbital_measure,
    p_f,
    pcl,
    reweight_decomposition,
)
from ergodec.validation import _product_atoms, _rational_params

SEED = 20260810


def _report(name: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    print(f"{status} {name}" + (f" ({detail})" if detail else ""))


def test_criterion_01_cocycle_identity():
    t0 = time.monotonic()
    rho = make_rn(ProductBernoulli(_rational_params(16)))
    rep = verify_identity(rho, 1000, 6, 16, substream(SEED, 1))
    elapsed = time.monotonic() - t0
    ok = rep.violations == 0 and rep.exact and elapsed < 5
    _report(
        "criterion-01 cocycle identity",
        ok,
        f"1000 triples in S(6), window 16, exact, {elapsed:.2f}s",
    )
    assert rep.violations == 0
    assert rep.exact
    assert elapsed < 5


def test_criterion_02_conditional_expectation_sweep():
    t0 = time.monotonic()
    params = _rational_params(4)
    nu = _product_atoms(params)
    rho = make_rn(ProductBernoulli(params))
    dictionary = TestDictionary.build(2, 4)
    all_ok = True
    sets_total = 0
    for mono in dictionary.entries:
        rep = conditional_expectation_check(2, rho, mono, nu)
        sets_total += rep.sets_checked
        all_ok = all_ok and rep.ok
    elapsed = time.monotonic() - t0
    _report(
        "criterion-02 conditional expectation",
        all_ok and elapsed < 10,
        f"{sets_total} invariant-set checks, exact, {elapsed:.2f}s",
    )
    assert all_ok
    assert elapsed < 10


def test_criterion_03_tower_property():
    t0 = time.monotonic()
    params = _rational_params(6)
    nu = _product_atoms(params)
    rho = make_rn(ProductBernoulli(params))
    all_ok = True
    pairs = 0
    for phi in (CylinderMonomial((1,)), CylinderMonomial((1, 3))):
        for n in range(1, 6):
            for m in range(n, 6):
                rep = tower_check(m, n, rho, phi, nu)
                pairs += 1
                all_ok = all_ok and rep.ok and rep.pairs_checked == 64
    elapsed = time.monotonic() - t0
    _report(
        "criterion-03 tower property",
        all_ok and elapsed < 30,
        f"{pairs} level pairs on 64 atoms, exact, {elapsed:.2f}s",
    )
    assert all_ok
    assert elapsed < 30


def test_criterion_04_fubini_identity():
    t0 = time.monotonic()
    all_ok = True
    for window in (2, 3, 4):
        params = _rational_params(window)
        nu = _product_atoms(params)
        rho = make_rn(ProductBernoulli(params))
        for level in range(1, min(3, window) + 1):
            for mono in TestDictionary.build(2, window).entries:
                all_ok = all_ok and fubini_check(level, rho, mono, nu).ok
    elapsed = time.monotonic() - t0
    _report(
        "criterion-04 product-measure identity",
        all_ok and elapsed < 5,
        f"windows 2-4, levels 1-3, exact, {elapsed:.2f}s",
    )
    assert all_ok
    assert elapsed < 5


def test_criterion_05_de_finetti_recovery():
    t0 = time.monotonic()
    window = 4096
    mix = Mixture(
        [0.3, 0.7],
        [ProductBernoulli([0.2] * window), ProductBernoulli([0.8] * window)],
    )
    cfg = DecomposeConfig(samples=20000, seed=SEED, mc_samples=400)
    dm = decompose(mix, constant_one(), cfg)
    elapsed = time.monotonic() - t0

    order = np.argsort(dm.centers)
    weights = np.array(dm.weights)[order]
    centers = np.array(dm.centers)[order]
    ok = (
        dm.components == 2
        and abs(weights[0] - 0.3) <= 0.02
        and abs(weights[1] - 0.7) <= 0.02
        and abs(centers[0] - 0.2) <= 0.02
        and abs(centers[1] - 0.8) <= 0.02
        and dm.barycenter_residual <= 0.01
        and elapsed < 120
    )
    _report(
        "criterion-05 de Finetti recovery",
        ok,
        f"weights {weights.round(4).tolist()}, centers {centers.round(4).tolist()}, "
        f"residual {dm.barycenter_residual:.4f}, {elapsed:.1f}s",
    )
    assert dm.components == 2
    assert abs(weights[0] - 0.3) <= 0.02 and abs(weights[1] - 0.7) <= 0.02
    assert abs(centers[0] - 0.2) <= 0.02 and abs(centers[1] - 0.8) <= 0.02
    assert dm.barycenter_residual <= 0.01
    assert elapsed < 120


def test_criterion_06_continuous_mixing():
    t0 = time.monotonic()
    nu = BetaExchangeable(2, 3, 4096)
    cfg = DecomposeConfig(samples=10000, seed=SEED, mc_samples=400, mode="continuous")
    dm = decompose(nu, constant_one(), cfg)
    ks = ks_statistic(
        dm.r1_values, lambda v: betainc(2.0, 3.0, min(max(v, 0.0), 1.0))
    )
    elapsed = time.monotonic() - t0
    _report(
        "criterion-06 continuous mixing",
        ks <= 0.02 and elapsed < 120,
        f"KS distance {ks:.4f} against Beta(2,3), {elapsed:.1f}s",
    )
    assert ks <= 0.02
    assert elapsed < 120


def test_criterion_07_kolmogorov_demonstrator():
    from ergodec.counterexamples import demonstrate_kolmogorov

    t0 = time.monotonic()
    report = demonstrate_kolmogorov(window=4096, samples=10000, seed=SEED)
    elapsed = time.monotonic() - t0
    ok = (
        report.ergodic_full_group
        and report.split_weights == (Fraction(1, 2), Fraction(1, 2))
        and abs(report.frequency_event_mass - 0.5) <= 0.02
        and elapsed < 30
    )
    _report(
        "criterion-07 ergodic-but-decomposable demonstrator",
        ok,
        f"{report.sets_checked} symbolic sets exact, frequency mass "
        f"{report.frequency_event_mass:.4f}, {elapsed:.1f}s",
    )
    assert report.ergodic_full_group
    assert report.split_weights == (Fraction(1, 2), Fraction(1, 2))
    assert abs(report.frequency_event_mass - 0.5) <= 0.02
    assert elapsed < 30


def test_criterion_08_pcl_invariance():
    t0 = time.monotonic()
    f = make_fibrewise_f()
    nu = OrbitSigmaFinite({1: 2, 2: 3, 3: 1})
    dec = decompose_sigma_finite(nu, f)
    stream = substream(SEED, 8)
    current = dec
    constant = True
    for _ in range(100):
        phi = {
            k: Fraction(int(stream.integers(1, 20)), int(stream.integers(1, 20)))
            for k in dec.weights
        }
        current = reweight_decomposition(current, phi)
        constant = constant and current.descriptor == dec.descriptor
        constant = constant and current.barycenter() == dec.barycenter()

    labels = [0, 1, 2, 3, 4, 5]
    transfer = True
    for _ in range(10):
        pick1 = sorted(stream.choice(labels, size=int(stream.integers(1, 5)), replace=False).tolist())
        pick2 = sorted(stream.choice(labels, size=int(stream.integers(1, 5)), replace=False).tolist())
        m1 = OrbitSigmaFinite({k: Fraction(int(stream.integers(1, 9))) for k in pick1})
        m2 = OrbitSigmaFinite({k: Fraction(int(stream.integers(1, 9))) for k in pick2})
        transfer = transfer and ac_check(m1, m2) == pcl(m1, f).relation(pcl(m2, f))
    elapsed = time.monotonic() - t0
    _report(
        "criterion-08 projective-class invariance",
        constant and transfer and elapsed < 5,
        f"100 reweightings constant, 10 pair relations exact, {elapsed:.2f}s",
    )
    assert constant
    assert transfer
    assert elapsed < 5


def test_criterion_09_normalization_roundtrip():
    t0 = time.monotonic()
    stream = substream(SEED, 9)
    ok = True
    for trial in range(50):
        f = make_fibrewise_f(4 if trial % 2 == 0 else 2)
        size = int(stream.integers(1, 5))
        labels = sorted(stream.choice(range(0, 7), size=size, replace=False).tolist())
        nu = OrbitSigmaFinite(
            {
                k: Fraction(int(stream.integers(1, 12)), int(stream.integers(1, 12)))
                for k in labels
            }
        )
        back = inv_p_f(p_f(nu, f), f)
        ok = ok and back.same_class(ProjectiveClass(representative=nu))
    elapsed = time.monotonic() - t0
    _report(
        "criterion-09 weight-normalization roundtrip",
        ok and elapsed < 5,
        f"50 random orbit models, exact, {elapsed:.2f}s",
    )
    assert ok
    assert elapsed < 5


def test_criterion_10_orbital_dichotomy():
    t0 = time.monotonic()
    window = 4096
    x = tuple(1 if i < 3 else 0 for i in range(window))
    exact_ok = all(
        orbital_measure(x, n).mass(Cylinder.of({1: 1})) == Fraction(3, n)
        for n in range(3, 9)
    )
    est = monomial_level_average(1000, (1,), x)
    escape = orbital_dichotomy(x, [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1000])
    nu = ProductBernoulli([0.5] * window)
    xb = tuple(nu.sample_rows(substream(SEED, 12), 1)[0].tolist())
    converge = orbital_dichotomy(xb, [512, 1024, 2048, 4096])
    elapsed = time.monotonic() - t0
    ok = (
        exact_ok
        and est == Fraction(3, 1000)
        and est <= 0.01
        and escape.verdict == "escapes-mass"
        and converge.verdict == "converges-to-probability"
        and abs(converge.finals[(1,)] - 0.5) <= 0.03
        and elapsed < 60
    )
    _report(
        "criterion-10 orbital dichotomy",
        ok,
        f"exact 3/n levels, n=1000 value {float(est):.4f}, limit "
        f"{converge.finals[(1,)]:.4f}, {elapsed:.1f}s",
    )
    assert exact_ok
    assert est == Fraction(3, 1000)
    assert est <= 0.01
    assert escape.verdict == "escapes-mass"
    assert converge.verdict == "converges-to-probability"
    assert abs(converge.finals[(1,)] - 0.5) <= 0.03
    assert elapsed < 60


def test_criterion_11_determinism(tmp_path):
    t0 = time.monotonic()

    def harvest(subcommand, seed, out, workers):
        cfg = load_config(subcommand, None, {})
        run_experiment(subcommand, cfg, seed=seed, workers=workers, out_dir=out)
        blob = (out / "result.json").read_bytes()
        for extra in ("samples.csv", "components.csv"):
            path = out / extra
            if path.exists():
                blob += path.read_bytes()
        return blob

    validate_blobs = [
        harvest("validate", 42, tmp_path / f"v{i}", w)
        for i, w in enumerate((1, 1, 4))
    ]
    definetti_blobs = [
        harvest("definetti", 42, tmp_path / f"d{i}", w)
        for i, w in enumerate((1, 1, 4))
    ]
    elapsed = time.monotonic() - t0
    ok = (
        validate_blobs[0] == validate_blobs[1] == validate_blobs[2]
        and definetti_blobs[0] == definetti_blobs[1] == definetti_blobs[2]
        and elapsed < 300
    )
    _report(
        "criterion-11 determinism",
        ok,
        f"validate and definetti byte-identical across runs and workers 1/4, {elapsed:.1f}s",
    )
    assert validate_blobs[0] == validate_blobs[1] == validate_blobs[2]
    assert definetti_blobs[0] == definetti_blobs[1] == definetti_blobs[2]
    assert elapsed < 300
