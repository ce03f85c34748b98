"""The benchmark's workloads: set-up, one operation, its check, and the exact
references its accuracy is measured against.

Operation ``i`` of a run with seed ``s`` uses the program seed
``s * OP_SEED_STRIDE + i``: every operation works on fresh inputs, and the
same run seed always gives the same inputs. Accuracy (``ref_err``,
``nonconv_frac``) is taken from operation 0, so it is deterministic per
run seed whatever the number of operations a run fits in.

The modules of ergodec are looked up at call time (``cli.main``,
``decomposition.decompose``) so that the trace wrappers see the calls.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path

OP_SEED_STRIDE = 10_000


def op_seed(seed: int, i: int) -> int:
    return seed * OP_SEED_STRIDE + i


def ref_err(weights, centers, ref_weights, ref_centers) -> float:
    """Worst weight or center error against an exact mixing measure.

    Each reference component is matched to the recovered component with the
    nearest center. A spurious extra component is matched to nothing, so its
    mass is missing from the matched weights and shows up as weight error.
    """
    worst = 0.0
    for w_ref, c_ref in zip(ref_weights, ref_centers):
        k = min(range(len(centers)), key=lambda j: abs(centers[j] - c_ref))
        worst = max(worst, abs(weights[k] - w_ref), abs(centers[k] - c_ref))
    return worst


@dataclass
class OpResult:
    ok: bool
    reason: str = ""
    digests: dict = field(default_factory=dict)  # output file -> sha256
    accuracy: dict = field(default_factory=dict)


def _digests(out: Path) -> dict:
    """sha256 of every output file except the volatile meta.json sidecar."""
    return {
        str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*"))
        if p.is_file() and p.name != "meta.json"
    }


def run_cli(argv: list[str]) -> tuple[bool, str]:
    """One in-process CLI call; passes when it exits 0 with only PASS lines."""
    from ergodec import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    lines = buf.getvalue().splitlines()
    failed = [ln for ln in lines if not ln.startswith("PASS ")]
    ok = code == 0 and bool(lines) and not failed
    return ok, "" if ok else f"{argv[0]}: exit {code}, {failed}"


class Workload:
    name = ""
    points = 0  # sample points one operation decomposes or draws

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def run(self, i: int, **kwargs) -> OpResult:
        out = self.workdir / f"op-{i}"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        try:
            res = self.op(op_seed(self.seed, i), out, **kwargs)
            res.digests = _digests(out)
            return res
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def op(self, seed: int, out: Path) -> OpResult:
        raise NotImplementedError


class DefinettiMixture(Workload):
    """The CLI ``definetti`` subcommand on the criterion-05 mixture."""

    name = "definetti-mixture"
    window = 4096
    weights = (0.3, 0.7)
    params = (0.2, 0.8)
    points = 1000

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        from ergodec.cli import SCHEMAS
        from ergodec.measures import ProductBernoulli, expectation_monomial

        self.ref_centers = [
            float(expectation_monomial(ProductBernoulli([p] * self.window), (1,)))
            for p in self.params
        ]
        # Five binomial standard errors of a recovered weight at this point
        # count: the recovery and residual checks test the decomposition, not
        # the luck of the draw. The residual is at most the weight error times
        # the spread of the component masses, which is below 1.
        tol = 5 * max(math.sqrt(w * (1 - w) / self.points) for w in self.weights)
        # Gap clustering splits at min_gap. A point's limit statistic is a
        # Monte Carlo mean of mc_samples draws, so its sd is at most
        # sqrt(1/4 / mc_samples) = 0.025. At the default min_gap of 0.05 a
        # single 5-sd point splits off as a spurious component about once in
        # 10^5 points (NOTES.md, known defects); four sd keeps the check on
        # recovery.
        min_gap = 4 * math.sqrt(0.25 / SCHEMAS["definetti"]["mc_samples"])
        self.config = workdir / "definetti.json"
        workdir.mkdir(parents=True, exist_ok=True)
        self.config.write_text(json.dumps({
            "weights": list(self.weights),
            "params": list(self.params),
            "window": self.window,
            "samples": self.points,
            "expected_weights": list(self.weights),
            "expected_centers": self.ref_centers,
            "recovery_tolerance": tol,
            "residual_bound": tol,
            "min_gap": min_gap,
        }))

    def op(self, seed: int, out: Path, workers: int = 1) -> OpResult:
        ok, reason = run_cli([
            "definetti", "--config", str(self.config), "--seed", str(seed),
            "--out", str(out), "--workers", str(workers),
        ])
        record = json.loads((out / "result.json").read_text())
        comps = record["tables"]["components"]
        nonconv = record["verdicts"][0]["detail"]["non_converged_fraction"]
        return OpResult(ok, reason, accuracy={
            "ref_err": ref_err([c["weight"] for c in comps],
                               [c["center"] for c in comps],
                               self.weights, self.ref_centers),
            "nonconv_frac": nonconv,
        })


class QuasiInvariant(Workload):
    """``decompose`` of an inhomogeneous product mixture under its RN cocycle.

    ``nonconvergence_threshold=1.0`` turns the abort on failed limit detection
    into a recorded ``nonconv_frac``: at this window a few points fail, and
    the benchmark measures that instead of stopping on it.
    """

    name = "quasi-invariant"
    window = 1024
    weights = (0.4, 0.6)
    params = ((0.2, 0.25), (0.75, 0.8))  # alternating along the window
    points = 40

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        from ergodec.measures import Mixture, ProductBernoulli, expectation_monomial

        comps = [
            ProductBernoulli([a if i % 2 == 0 else b for i in range(self.window)])
            for a, b in self.params
        ]
        self.nu = Mixture(list(self.weights), comps)
        self.ref_centers = [float(expectation_monomial(c, (1,))) for c in comps]

    def op(self, seed: int, out: Path) -> OpResult:
        from ergodec import decomposition, reporting
        from ergodec.cocycles import make_rn

        config = decomposition.DecomposeConfig(
            samples=self.points, seed=seed, nonconvergence_threshold=1.0
        )
        dm = decomposition.decompose(self.nu, make_rn(self.nu), config)
        stats_ok = all(math.isfinite(v) and 0.0 <= v <= 1.0 for v in dm.statistics.flat)
        weights_ok = math.isclose(sum(dm.weights), 1.0, abs_tol=1e-12)
        verdicts = [
            reporting.Verdict("statistics-in-unit-interval", stats_ok),
            reporting.Verdict("weights-sum-to-one", weights_ok,
                              {"weights": list(dm.weights)}),
        ]
        rows = [
            [lab, w, c, n, s] for lab, w, c, n, s in
            zip(dm.labels, dm.weights, dm.centers, dm.counts, dm.spreads)
        ]
        record = reporting.ResultRecord(
            experiment=self.name,
            config={"window": self.window, "samples": self.points, "seed": seed},
            verdicts=verdicts,
            tables={"components": [dict(zip(
                ["label", "weight", "center", "count", "spread"], r)) for r in rows]},
            residuals={"barycenter": dm.barycenter_residual,
                       "non_converged_fraction": dm.non_converged_fraction},
        )
        (out / "result.json").write_text(record.to_json())
        reporting.write_csv(
            out / "samples.csv",
            ["index"] + ["r_" + "_".join(map(str, k)) for k in dm.statistic_keys],
            [[i] + [float(v) for v in row] for i, row in enumerate(dm.statistics)],
        )
        reporting.write_csv(out / "components.csv",
                            ["label", "weight", "center", "count", "spread"], rows)
        ok = stats_ok and weights_ok
        return OpResult(ok, "" if ok else f"checks failed: {verdicts}", accuracy={
            "ref_err": ref_err(dm.weights, dm.centers, self.weights, self.ref_centers),
            "nonconv_frac": dm.non_converged_fraction,
        })


class CliSuite(Workload):
    """``validate``, ``kolmogorov``, ``sigma-finite`` and ``orbital`` at their
    default configs, in one process."""

    name = "cli-suite"
    subcommands = ("validate", "kolmogorov", "sigma-finite", "orbital")

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        from ergodec.cli import SCHEMAS
        from ergodec.measures import ProductBernoulli, expectation_monomial

        cfg = SCHEMAS["kolmogorov"]
        self.points = cfg["samples"]  # configurations the frequency event draws
        # Exact mass of {frequency <= 1/2} under (1/2) B(p_low) + (1/2) B(p_high)
        # is the weight of the components whose mean lies below 1/2, up to the
        # Hoeffding tail exp(-2 N gap^2), which is below double precision at
        # the default window.
        self.ref_mass = sum(
            0.5 for p in (cfg["p_low"], cfg["p_high"])
            if expectation_monomial(ProductBernoulli([p] * cfg["window"]), (1,)) <= 0.5
        )

    def op(self, seed: int, out: Path) -> OpResult:
        reasons = []
        for sub in self.subcommands:
            ok, reason = run_cli([sub, "--seed", str(seed), "--out", str(out / sub)])
            if not ok:
                reasons.append(reason)
        record = json.loads((out / "kolmogorov" / "result.json").read_text())
        mass = next(v["detail"]["mass"] for v in record["verdicts"]
                    if v["name"] == "frequency-event-mass")
        return OpResult(not reasons, "; ".join(reasons), accuracy={
            "ref_err": abs(mass - self.ref_mass),
            "nonconv_frac": 0.0,  # no subcommand here runs limit detection
        })


WORKLOADS = {w.name: w for w in (DefinettiMixture, QuasiInvariant, CliSuite)}
