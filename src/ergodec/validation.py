"""The exact property suite behind the ``validate`` subcommand.

Each check exercises one identity that holds exactly on rational window
models: the multiplicative cocycle identity, the conditional-expectation
characterization of level averages, the tower rule across nested levels, the
product-measure integral identity, orbit invariance of averages, and the
exact ergodic decomposition of a window model into its orbit-class cells.
"""
from __future__ import annotations

import itertools
from fractions import Fraction

from .averaging import (
    EXACT_LEVEL_CAP,
    ExactModel,
    conditional_expectation_check,
    fubini_check,
    invariance_check,
    tower_check,
)
from .cocycles import Cocycle, constant_one, make_rho_f, make_rn, verify_identity
from .decomposition import conditional_measures_exact
from .dictionary import CylinderMonomial, TestDictionary
from .errors import CapacityError
from .groups import ENUMERATION_CAP
from .measures import AtomicMeasure, ProductBernoulli, ac_check
from .reporting import Verdict
from .rng import substream
from .sigma_finite import make_fibrewise_f

DEFAULTS = {
    "window": 16,
    "level": 6,
    "trials": 1000,
    "sweep_window": 4,
    "sweep_level": 2,
    "tower_window": 4,
    "tower_cap": 3,
    "fubini_window": 3,
    "invariance_level": 3,
}

# The largest value of each level key: exact averages and the enumeration of
# S(n) stop at S(8)
LEVEL_CAPS = {
    "sweep_level": EXACT_LEVEL_CAP,
    "tower_cap": EXACT_LEVEL_CAP,
    "fubini_window": ENUMERATION_CAP,
    "invariance_level": EXACT_LEVEL_CAP,
}

# The window each level key runs on, None where the key is its own window: a
# level below 1 leaves its check nothing to run on, and one past its window
# has no coordinates to move
LEVEL_WINDOWS = {
    "level": "window",
    "sweep_level": "sweep_window",
    "tower_cap": "tower_window",
    "fubini_window": None,
    "invariance_level": "window",
}


def _rational_params(window: int) -> list[Fraction]:
    # inhomogeneous rational parameters, bounded away from 0 and 1
    return [Fraction(2 + (i % 7), 11) for i in range(window)]


def _product_atoms(params: list[Fraction]) -> AtomicMeasure:
    atom = ProductBernoulli(params).atom
    return AtomicMeasure({x: atom(x) for x in itertools.product((0, 1), repeat=len(params))})


def exact_decomposition_verdict(nu: AtomicMeasure, rho: Cocycle, window: int) -> Verdict:
    """Theorem ergdecstrcont on a window model, exactly: the conditional
    measures of nu on its full-window orbit classes (``conditional_measures_exact``)
    are quasi-invariant with cocycle rho and their support is orbit-closed,
    so each cell is one orbit and ergodic; nu is their barycenter atom for
    atom; any two cells are mutually singular, the uniqueness step; and a
    full-support product has ``window + 1`` cells, one per ones count."""
    assignment = conditional_measures_exact(nu, rho)
    cells = assignment.cells
    barycenter: dict = {}
    for cell in cells:
        for x, m in cell.measure.atoms.items():
            barycenter[x] = barycenter.get(x, 0) + cell.weight * m
    singular = all(
        ac_check(a.measure, b.measure) == "mutually-singular"
        for a, b in itertools.combinations(cells, 2)
    )
    rn_ok, closed = assignment.rn_verified, assignment.support_orbit_closed
    exact = barycenter == nu.atoms
    return Verdict(
        name="exact-ergodic-decomposition",
        passed=rn_ok and closed and exact and singular and len(cells) == window + 1,
        detail={
            "window": window,
            "cells": len(cells),
            "rn_verified": rn_ok,
            "support_orbit_closed": closed,
            "barycenter_exact": exact,
            "mutually_singular": singular,
        },
    )


def run_validation_suite(config: dict, seed: int) -> list[Verdict]:
    cfg = {**DEFAULTS, **config}
    # every level key is checked before any verdict runs: the earlier ones
    # may take long, and tower_cap 0 would pass the tower rule vacuously
    for key, cap in LEVEL_CAPS.items():
        if cfg[key] > cap:
            raise CapacityError(f"{key} is capped at {cap}; got {cfg[key]}")
    for key, within in LEVEL_WINDOWS.items():
        if cfg[key] < 1:
            raise ValueError(f"{key} must be >= 1; got {cfg[key]}")
        if within is not None and cfg[key] > cfg[within]:
            raise ValueError(f"{key} exceeds {within} ({cfg[within]}); got {cfg[key]}")
    verdicts: list[Verdict] = []

    # 1. cocycle identity for a Radon-Nikodym cocycle, exact
    window, level, trials = cfg["window"], cfg["level"], cfg["trials"]
    nu = ProductBernoulli(_rational_params(window))
    rho = make_rn(nu)
    rep = verify_identity(rho, trials, level, window, substream(seed, 1))
    verdicts.append(
        Verdict(
            name="cocycle-identity-radon-nikodym",
            passed=rep.ok and rep.exact,
            detail={"trials": rep.trials, "violations": rep.violations},
        )
    )

    # 2. cocycle identity for a weight-ratio cocycle, exact
    rho_f = make_rho_f(make_fibrewise_f())
    rep_f = verify_identity(rho_f, trials, level, window, substream(seed, 2))
    verdicts.append(
        Verdict(
            name="cocycle-identity-weight-ratio",
            passed=rep_f.ok and rep_f.exact,
            detail={"trials": rep_f.trials, "violations": rep_f.violations},
        )
    )

    # 3. conditional-expectation identity over every invariant orbit-class set
    sw, sl = cfg["sweep_window"], cfg["sweep_level"]
    params = _rational_params(sw)
    nu_small = _product_atoms(params)
    rho_small = make_rn(ProductBernoulli(params))
    dictionary = TestDictionary.build(2, sw)
    model = ExactModel(rho_small, nu_small)
    sweep_ok = True
    sets_checked = 0
    classes = 0
    for mono in dictionary.entries:
        rep_c = conditional_expectation_check(sl, rho_small, mono, nu_small, model=model)
        classes = rep_c.classes
        sets_checked += rep_c.sets_checked
        if not rep_c.ok:
            sweep_ok = False
            break
    verdicts.append(
        Verdict(
            name="conditional-expectation-sweep",
            passed=sweep_ok,
            detail={
                "window": sw,
                "level": sl,
                "orbit_classes": classes,
                "sets_checked": sets_checked,
                "functions": len(dictionary.entries),
            },
        )
    )

    # 4. tower rule across nested levels on every atom
    tw, tc = cfg["tower_window"], cfg["tower_cap"]
    params_t = _rational_params(tw)
    nu_t = _product_atoms(params_t)
    rho_t = make_rn(ProductBernoulli(params_t))
    phi = CylinderMonomial((1,))
    model_t = ExactModel(rho_t, nu_t)
    tower_ok = True
    pairs = 0
    for n in range(1, tc + 1):
        for m in range(n, tc + 1):
            rep_t = tower_check(m, n, rho_t, phi, nu_t, model=model_t)
            pairs += 1
            if not rep_t.ok:
                tower_ok = False
    verdicts.append(
        Verdict(
            name="tower-rule",
            passed=tower_ok,
            detail={"window": tw, "level_pairs": pairs, "atoms": len(nu_t.atoms)},
        )
    )

    # 5. product-measure integral identity
    fw = cfg["fubini_window"]
    params_f = _rational_params(fw)
    nu_f = _product_atoms(params_f)
    rho_fu = make_rn(ProductBernoulli(params_f))
    model_f = ExactModel(rho_fu, nu_f)
    fubini_ok = True
    for n in range(1, fw + 1):
        for mono in TestDictionary.build(2, fw).entries:
            if not fubini_check(n, rho_fu, mono, nu_f, model=model_f).ok:
                fubini_ok = False
    verdicts.append(
        Verdict(
            name="product-integral-identity",
            passed=fubini_ok,
            detail={"window": fw, "levels": fw},
        )
    )

    # 6. orbit invariance of exact averages
    il = cfg["invariance_level"]
    stream = substream(seed, 6)
    x = tuple(int(b) for b in stream.integers(0, 2, size=window))
    inv_ok, witness = invariance_check(il, rho, CylinderMonomial((1, 2)), x)
    inv_ok2, _ = invariance_check(il, constant_one(), CylinderMonomial((1,)), x)
    verdicts.append(
        Verdict(
            name="orbit-invariance",
            passed=inv_ok and inv_ok2,
            detail={"level": il, "window": window},
        )
    )

    # 7. exact ergodic decomposition of the sweep model into orbit-class cells
    verdicts.append(exact_decomposition_verdict(nu_small, rho_small, sw))
    return verdicts
