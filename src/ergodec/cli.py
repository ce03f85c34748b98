"""Experiment runner.

Subcommands expose the demonstrators and property suites with reproducible
configuration: identical (config, seed) produce byte-identical result records
and CSV series, in one process; ``--workers`` is accepted and changes nothing.
Volatile facts (wall time, ``--workers``) go to an uncompared sidecar meta.json.

    ergodec validate   --seed 7 --out runs/validate
    ergodec definetti  --config mix.json --seed 42 --out runs/definetti
    ergodec kolmogorov --out runs/kolmogorov
    ergodec sigma-finite --out runs/sigma
    ergodec orbital    --config orbital.json --out runs/orbital

Config files are flat JSON objects; unknown keys are rejected. Exit code 0
means every verdict passed; 1 means a verdict failed; 2 means the run could
not start (bad config, capacity bounds).
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from .counterexamples import demonstrate_kolmogorov
from .decomposition import DecomposeConfig, decompose
from .cocycles import constant_one
from .errors import CapacityError, NonConvergenceError
from .measures import (
    BetaExchangeable,
    Mixture,
    OrbitSigmaFinite,
    ProductBernoulli,
    ac_check,
)
from .reporting import ResultRecord, Verdict, write_csv
from .rng import substream
from .sigma_finite import (
    ProjectiveClass,
    decompose_sigma_finite,
    inv_p_f,
    make_fibrewise_f,
    orbital_dichotomy,
    p_f,
    pcl,
    reweight_decomposition,
)
from .validation import DEFAULTS as VALIDATE_DEFAULTS

SCHEMAS: dict[str, dict] = {
    "validate": VALIDATE_DEFAULTS,
    "definetti": {
        "weights": [0.3, 0.7],
        "params": [0.2, 0.8],
        "beta": None,  # [alpha, beta] switches to continuous mixing
        "samples": 20000,
        "window": 1024,
        "mc_samples": 400,  # unused: constant-cocycle levels are closed-form
        "tolerance": 0.02,
        "min_gap": 0.05,
        "depth": 2,
        "width": 2,
        "residual_depth": 3,
        "residual_bound": 0.01,
        "expected_weights": None,
        "expected_centers": None,
        "recovery_tolerance": 0.02,
    },
    "kolmogorov": {
        "p_low": 0.2,
        "p_high": 0.8,
        "window": 4096,
        "samples": 10000,
        "max_label": 3,
        "frequency_tolerance": 0.025,  # 5 binomial sd of the mass at 10000 samples
    },
    "sigma-finite": {
        "orbit_weights": {"1": "2", "2": "3", "3": "1"},
        "base": 4,
        "reweightings": 100,
        "pairs": 10,
        "roundtrips": 50,
    },
    "orbital": {
        "window": 4096,
        "ones": 3,
        "bernoulli": None,  # p switches to a sampled configuration
        "schedule": [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1000],
        "samples": 2000,  # unused: every orbital level is closed-form
        "decay_threshold": 0.01,
        "expect": None,  # optional expected verdict
    },
}


# JSON types of the keys whose default is null (null stays accepted there).
NULLABLE = {"beta": [0.0], "expected_weights": [0.0], "expected_centers": [0.0],
            "bernoulli": 0.0, "expect": ""}


def _is_weight(value) -> bool:
    """value is a finite number (never a bool) or a string ``Fraction`` parses."""
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        return False
    try:
        Fraction(value)
    except (ValueError, OverflowError, ZeroDivisionError):
        return False
    return True


def _typed_like(value, default) -> bool:
    """value has the JSON type of default: an int passes for a float, a bool
    never passes for a number, list items match the default's items, and a
    dict (orbit label -> weight) has non-negative integer-string keys and
    weight values."""
    if isinstance(value, bool):
        return isinstance(default, bool)
    if isinstance(default, float):
        return isinstance(value, (int, float))
    if isinstance(default, list):
        return isinstance(value, list) and all(_typed_like(v, default[0]) for v in value)
    if isinstance(default, dict):
        return isinstance(value, dict) and all(
            k.isascii() and k.isdigit() and _is_weight(v) for k, v in value.items()
        )
    return isinstance(value, type(default))


def load_config(name: str, path: str | None, overrides: dict) -> dict:
    schema = SCHEMAS[name]
    cfg = dict(schema)
    if path is not None:
        with open(path) as fh:
            user = json.load(fh)
        unknown = sorted(set(user) - set(schema))
        if unknown:
            raise ValueError(f"unknown config keys for {name}: {unknown}")
        wrong = sorted(k for k, v in user.items() if not (v is None and schema[k] is None)
                       and not _typed_like(v, NULLABLE.get(k, schema[k])))
        if wrong:
            raise ValueError(f"mistyped config values for {name}: {wrong}")
        cfg.update(user)
    cfg.update({k: v for k, v in overrides.items() if v is not None})
    return cfg


# A runner returns what it computes: the ResultRecord fields other than the
# experiment name and config echo (verdicts, tables, residuals), and the CSV
# series by file name. run_experiment builds the record.
RunnerOutput = tuple[dict, dict]


def run_validate(cfg: dict, seed: int) -> RunnerOutput:
    # Imported at call time: the benchmark trace wraps
    # ergodec.validation.run_validation_suite after this module is loaded, and
    # a module-level import would keep the unwrapped function.
    from .validation import run_validation_suite

    return {"verdicts": run_validation_suite(cfg, seed)}, {}


def run_definetti(cfg: dict, seed: int) -> RunnerOutput:
    window = cfg["window"]
    want_w, want_c = cfg["expected_weights"], cfg["expected_centers"]
    if (want_w is None) != (want_c is None) or len(want_w or ()) != len(want_c or ()):
        # one without the other, or unequal lengths, has nothing to compare
        raise ValueError("expected_weights and expected_centers go together, at equal lengths")
    continuous = cfg["beta"] is not None
    if continuous and want_w is not None:
        # continuous mixing has no components to recover
        raise ValueError("expected_weights and expected_centers need finite mixing (beta null)")
    if continuous:
        a, b = cfg["beta"]
        nu = BetaExchangeable(a, b, window)
    else:
        nu = Mixture(
            cfg["weights"],
            [ProductBernoulli.homogeneous(p, window) for p in cfg["params"]],
        )
    rho = constant_one()
    # A run that fails limit detection still reports: decompose keeps every
    # point, and the verdict holds it to the library's default threshold.
    dconf = DecomposeConfig(
        samples=cfg["samples"],
        tolerance=cfg["tolerance"],
        mc_samples=cfg["mc_samples"],
        depth=cfg["depth"],
        width=cfg["width"],
        min_gap=cfg["min_gap"],
        mode="continuous" if continuous else "finite",
        seed=seed,
        residual_depth=cfg["residual_depth"],
        nonconvergence_threshold=1.0,
    )
    dm = decompose(nu, rho, dconf)

    verdicts = [
        Verdict(
            name="limit-detection",
            passed=dm.non_converged_fraction <= DecomposeConfig.nonconvergence_threshold,
            detail={"non_converged_fraction": dm.non_converged_fraction},
        )
    ]
    tables: dict[str, list[dict]] = {}
    csvs = {
        "samples.csv": (
            ["index"] + ["r_" + "_".join(map(str, k)) for k in dm.statistic_keys],
            dm.statistics,
        )
    }
    if not continuous:
        verdicts.append(
            Verdict(
                name="admissible-components",
                passed=dm.admissible,
                detail={"components": dm.components},
            )
        )
        verdicts.append(
            Verdict(
                name="barycenter-residual",
                passed=dm.barycenter_residual <= cfg["residual_bound"],
                detail={
                    "residual": dm.barycenter_residual,
                    "sd": dm.barycenter_residual_sd,
                    "bound": cfg["residual_bound"],
                    "depth": cfg["residual_depth"],
                },
            )
        )
        if cfg["expected_weights"] is not None:
            tol = cfg["recovery_tolerance"]
            order = np.argsort(dm.centers)
            got_w = np.array(dm.weights)[order]
            got_c = np.array(dm.centers)[order]
            want_c = np.array(sorted(cfg["expected_centers"]))
            want_w = np.array(
                [w for _, w in sorted(zip(cfg["expected_centers"], cfg["expected_weights"]))]
            )
            match = len(got_w) == len(want_w) and bool(
                np.all(np.abs(got_w - want_w) <= tol)
                and np.all(np.abs(got_c - want_c) <= tol)
            )
            verdicts.append(
                Verdict(
                    name="mixture-recovery",
                    passed=match,
                    detail={
                        "weights": [float(v) for v in got_w],
                        "centers": [float(v) for v in got_c],
                        "tolerance": tol,
                    },
                )
            )
        header = ["label", "weight", "center", "count", "spread"]
        rows = [
            [lab, float(w), float(c), int(n), float(s)]
            for lab, w, c, n, s in zip(
                dm.labels, dm.weights, dm.centers, dm.counts, dm.spreads
            )
        ]
        tables["components"] = [dict(zip(header, row)) for row in rows]
        csvs["components.csv"] = (header, rows)
    residuals = (
        {"barycenter": dm.barycenter_residual} if dm.barycenter_residual is not None else {}
    )
    return {"verdicts": verdicts, "tables": tables, "residuals": residuals}, csvs


def run_kolmogorov(cfg: dict, seed: int) -> RunnerOutput:
    report = demonstrate_kolmogorov(
        p_low=cfg["p_low"],
        p_high=cfg["p_high"],
        window=cfg["window"],
        samples=cfg["samples"],
        seed=seed,
        max_count=cfg["max_label"],
    )
    verdicts = [
        Verdict(
            name="full-group-zero-one-law",
            passed=report.ergodic_full_group,
            detail={"sets_checked": report.sets_checked, "method": "exact"},
        ),
        Verdict(
            name="explicit-convex-split",
            passed=report.split_weights == (Fraction(1, 2), Fraction(1, 2)),
            detail={
                "weights": [str(w) for w in report.split_weights],
                "params": list(report.split_params),
            },
        ),
        Verdict(
            name="frequency-event-mass",
            passed=abs(report.frequency_event_mass - 0.5) <= cfg["frequency_tolerance"],
            detail={
                "mass": report.frequency_event_mass,
                "stderr": report.frequency_event_stderr,
                "hoeffding_bound": report.hoeffding_bound,
                "method": "monte-carlo",
            },
        ),
    ]
    return {"verdicts": verdicts, "tables": {"narrative": [{"text": report.narrative}]}}, {}


def run_sigma_finite(cfg: dict, seed: int) -> RunnerOutput:
    for key in ("reweightings", "pairs", "roundtrips"):
        if cfg[key] < 1:
            # no reweighting, pair or roundtrip: the verdict would pass vacuously
            raise ValueError(f"{key} must be >= 1")
    weights = {int(k): Fraction(v) for k, v in cfg["orbit_weights"].items()}
    nu = OrbitSigmaFinite(weights)
    f = make_fibrewise_f(cfg["base"])
    dec = decompose_sigma_finite(nu, f)
    stream = substream(seed, 0x5F)

    descriptor, barycenter = dec.descriptor, dec.barycenter()
    constant = True
    current = dec
    draws = stream.integers(1, 20, size=(cfg["reweightings"], len(dec.weights), 2))
    for row in draws.tolist():
        phi = {k: Fraction(a, b) for k, (a, b) in zip(dec.weights, row)}
        current = reweight_decomposition(current, phi)
        if current.descriptor != descriptor:
            constant = False
        if current.barycenter() != barycenter:
            constant = False
    verdicts = [
        Verdict(
            name="pcl-constant-under-reweighting",
            passed=constant,
            detail={"reweightings": cfg["reweightings"], "method": "exact"},
        )
    ]

    labels = sorted(weights)
    # Each pair takes two subsets of the labels and each roundtrip one, with
    # a weight a/b per label: a subset is the first `size` labels of a random
    # order. Every size, order and weight comes from one array draw.
    pairs, roundtrips = cfg["pairs"], cfg["roundtrips"]
    sizes = stream.integers(1, len(labels) + 1, size=2 * pairs + roundtrips).tolist()
    orders = stream.permuted(np.tile(labels, (2 * pairs + roundtrips, 1)), axis=1).tolist()
    picks = [sorted(order[:size]) for order, size in zip(orders, sizes)]
    ratios = stream.integers(1, 9, size=(roundtrips, len(labels), 2)).tolist()
    transfer_ok = True
    for pick1, pick2 in zip(picks[:pairs], picks[pairs:2 * pairs]):
        m1 = OrbitSigmaFinite({k: weights[k] for k in pick1})
        m2 = OrbitSigmaFinite({k: weights[k] for k in pick2})
        if ac_check(m1, m2) != pcl(m1, f).relation(pcl(m2, f)):
            transfer_ok = False
    verdicts.append(
        Verdict(
            name="class-descriptor-transfer",
            passed=transfer_ok,
            detail={"pairs": pairs, "method": "exact"},
        )
    )

    roundtrip_ok = True
    for pick, row in zip(picks[2 * pairs:], ratios):
        model = OrbitSigmaFinite({k: Fraction(a, b) for k, (a, b) in zip(pick, row)})
        back = inv_p_f(p_f(model, f), f)
        if not back.same_class(ProjectiveClass(representative=model)):
            roundtrip_ok = False
    verdicts.append(
        Verdict(
            name="normalization-roundtrip",
            passed=roundtrip_ok,
            detail={"roundtrips": cfg["roundtrips"], "method": "exact"},
        )
    )

    header = ["orbit", "weight", "component_scale"]
    rows = [
        [k, dec.weights[k], dec.components[k].weight(k)] for k in sorted(dec.weights)
    ]
    tables = {"decomposition": [dict(zip(header, row)) for row in rows]}
    return {"verdicts": verdicts, "tables": tables}, {"components.csv": (header, rows)}


def run_orbital(cfg: dict, seed: int) -> RunnerOutput:
    window = cfg["window"]
    if cfg["bernoulli"] is not None:
        nu = ProductBernoulli.homogeneous(cfg["bernoulli"], window)
        x = nu.sample_rows(substream(seed, 0x0B), 1)[0]
    else:
        k = cfg["ones"]
        if not 0 <= k <= window:
            raise ValueError(f"ones must lie in 0..window ({window}); got {k}")
        x = tuple(1 if i < k else 0 for i in range(window))
    report = orbital_dichotomy(
        x, schedule=cfg["schedule"], decay_threshold=cfg["decay_threshold"]
    )
    verdicts = [
        Verdict(
            name="dichotomy-verdict",
            passed=(cfg["expect"] is None) or (report.verdict == cfg["expect"]),
            detail={"verdict": report.verdict, "expected": cfg["expect"]},
        )
    ]
    rows = []
    for key, series in sorted(report.series.items()):
        name = "r_" + "_".join(map(str, key))
        for level, value, stderr in series:
            rows.append([name, level, value, stderr])
    finals = [
        {"entry": "r_" + "_".join(map(str, k)), "value": v}
        for k, v in sorted(report.finals.items())
    ]
    csvs = {"series.csv": (["entry", "level", "value", "stderr"], rows)}
    return {"verdicts": verdicts, "tables": {"finals": finals}}, csvs


RUNNERS = {
    "validate": run_validate,
    "definetti": run_definetti,
    "kolmogorov": run_kolmogorov,
    "sigma-finite": run_sigma_finite,
    "orbital": run_orbital,
}


def run_experiment(
    name: str, cfg: dict, seed: int, workers: int, out_dir: Path | None
) -> ResultRecord:
    started = time.monotonic()
    fields, csvs = RUNNERS[name](cfg, seed)
    record = ResultRecord(experiment=name, config={**cfg, "seed": seed}, **fields)
    elapsed = time.monotonic() - started
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "result.json").write_text(record.to_json())
        for fname, (header, rows) in csvs.items():
            write_csv(out_dir / fname, header, rows)
        sidecar = {
            "elapsed_seconds": elapsed,
            "workers": workers,
            "python": sys.version.split()[0],
        }
        (out_dir / "meta.json").write_text(json.dumps(sidecar, indent=2) + "\n")
    return record


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it as
    it was, and building it costs more than a parse."""
    parser = argparse.ArgumentParser(
        prog="ergodec", description="orbit-averaging experiment runner"
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in SCHEMAS:
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None, help="flat JSON config")
        p.add_argument("--seed", type=int, default=0, help="64-bit master seed")
        p.add_argument("--out", type=str, default=None, help="output directory")
        p.add_argument("--workers", type=int, default=1,
                       help="accepted and unused: every run takes one process")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)

    try:
        cfg = load_config(args.subcommand, args.config, {})
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        record = run_experiment(
            args.subcommand,
            cfg,
            seed=args.seed,
            workers=args.workers,
            out_dir=Path(args.out) if args.out else None,
        )
    except (CapacityError, NonConvergenceError, ValueError) as exc:
        print(f"run error: {exc}", file=sys.stderr)
        return 2
    for v in record.verdicts:
        print(f"{'PASS' if v.passed else 'FAIL'} {v.name}")
    return 0 if record.all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
