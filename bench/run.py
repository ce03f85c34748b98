"""ergodec benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload definetti-mixture --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; ergodec is imported from ``src/``
there and never from an installed copy. The last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the line
before it stamps the environment. With ``--trace 0`` the metrics are the
end-to-end ones of ``BENCHMARK.json``, with ``--trace 1`` the per-layer ones.
A record of the run goes to ``.bench_out/``. See ``bench/NOTES.md``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

MIN_OPS = 3  # a median needs a few operations even on a slow machine
SETUP_PROBES = 7
# Reference time of calibration(): times are reported at the machine speed
# at which the kernel takes this long. See "Calibration" in NOTES.md.
CAL_REF_S = 0.3


def import_program():
    """Import ergodec from the checkout; exit 2 if the checkout has none."""
    if not (SRC / "ergodec" / "__init__.py").is_file():
        print(f"no ergodec sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import ergodec
    import ergodec.cli  # noqa: F401  (imports every layer the CLI uses)

    if Path(ergodec.__file__).resolve().parent != (SRC / "ergodec").resolve():
        print(f"ergodec was imported from {ergodec.__file__}", file=sys.stderr)
        sys.exit(2)


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git directly; None outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.get("name"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "commit": git_commit(),
        "seed": seed,
    }


def setup_probe(workload: str, seed: int) -> float:
    """Launch-to-ready time of a fresh process that sets the workload up."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter()
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed with exit {proc.returncode}")
    return ready - start


def calibration() -> float:
    """Time a fixed mix of the kinds of work ergodec does.

    numpy draws, sorts and reductions on window-sized arrays, and pure-Python
    integer and Fraction arithmetic. The kernel belongs to the benchmark and
    never changes, so its time measures the speed of the machine right now.
    """
    import numpy

    rng = numpy.random.default_rng(0)
    start = time.perf_counter()
    for _ in range(1000):
        numpy.argsort(rng.random(4096))
        (rng.random(4096) < 0.3).astype(numpy.uint8).sum()
        f = Fraction(1)
        for j in range(1, 30):
            f *= Fraction(j, j + 1)
        sum(k * k for k in range(300))
    return time.perf_counter() - start


class Phase:
    """Repeated operations of one workload for a given number of seconds.

    calibration() runs before every operation and after the last one. The
    phase's time is the median operation time scaled by CAL_REF_S over the
    median calibration time: the machine's speed drifts by tens of percent
    between runs, and the ratio of the two medians cancels most of that.
    """

    def __init__(self, work, seconds: float, tracer=None, between=None):
        self.times: list[float] = []
        self.cal: list[float] = []
        self.digests: dict[int, dict] = {}
        self.accuracy: dict = {}
        self.failed = 0
        self.op_spans: list[tuple[int, int]] = []
        start = time.perf_counter()
        i = 0
        self.cal.append(calibration())
        while i < MIN_OPS or time.perf_counter() - start < seconds:
            if between is not None:
                between()
            lo = len(tracer.spans) if tracer else 0
            t0 = time.perf_counter()
            try:
                res = work.run(i)
            except Exception:
                traceback.print_exc()
                res = None
            self.times.append(time.perf_counter() - t0)
            if tracer:
                self.op_spans.append((lo, len(tracer.spans)))
            if res is not None and i == 0:
                self.accuracy = res.accuracy
            if res is None or not res.ok:
                self.failed += 1
                if res is not None:
                    print(f"op {i} failed: {res.reason}", file=sys.stderr)
            else:
                self.digests[i] = res.digests
            self.cal.append(calibration())
            i += 1

    def calibrated(self, seconds: float) -> float:
        return seconds * CAL_REF_S / statistics.median(self.cal)

    @property
    def wall(self) -> float:
        return self.calibrated(statistics.median(self.times))


def end_to_end(work, seconds: float, units: dict):
    probes: list[float] = []

    def probe():
        if len(probes) < SETUP_PROBES:
            probes.append(setup_probe(work.name, work.seed))

    phase = Phase(work, seconds, between=probe)
    while len(probes) < SETUP_PROBES:
        probe()
    metrics = {
        "wall_s": phase.wall,
        "setup_s": phase.calibrated(statistics.median(probes)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "points_per_s": work.points / phase.wall,
    }
    info = {"op_times_s": phase.times, "calibration_s": phase.cal,
            "setup_probes_s": probes, **phase.accuracy}
    return metrics, info, len(phase.times), phase.failed, phase.failed == 0


def per_layer(work, seconds: float, units: dict):
    import tracing
    from workloads import DefinettiMixture

    # Pool probe: the definetti-mixture input at one and at two workers must
    # give the same bytes; the ratio of their times is the pool speed-up.
    pool = DefinettiMixture(work.seed, work.workdir / "pool")
    t0 = time.perf_counter()
    one = pool.run(0, workers=1)
    t1 = time.perf_counter()
    two = pool.run(0, workers=2)
    t2 = time.perf_counter()
    pool_ok = one.ok and two.ok and one.digests == two.digests

    plain = Phase(work, seconds / 2)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = Phase(work, seconds / 2, tracer=tracer)
    finally:
        tracer.uninstall()
    tracer.write(OUT / f"{work.name}-seed{work.seed}.spans.jsonl.gz")

    # Tracing must not change program behaviour: every operation both phases
    # ran produced the same output bytes.
    same = all(plain.digests[i] == traced.digests[i]
               for i in plain.digests.keys() & traced.digests.keys())
    per_op, latencies = [], []
    for lo, hi in traced.op_spans:
        spans = [s[:3] + (s[3] - lo if s[3] >= 0 else -1, s[4])
                 for s in tracer.spans[lo:hi]]
        per_op.append(tracing.layer_metrics(spans))
        latencies += tracing.point_latencies_ms(spans)
    metrics = tracing.median_metrics(per_op)
    metrics["decomposition.points"] = len(latencies)
    metrics["decomposition.point_p50_ms"] = tracing.percentile(latencies, 50)
    metrics["decomposition.point_p99_ms"] = tracing.percentile(latencies, 99)
    for k, unit in units.items():
        if unit in ("s", "ms") and k in metrics:
            metrics[k] = traced.calibrated(metrics[k])
    metrics["decomposition.pool_speedup"] = (t1 - t0) / (t2 - t1)
    metrics["trace.overhead"] = traced.wall / plain.wall - 1
    for key in ("ref_err", "nonconv_frac"):
        # 1.0 is the worst value either can take; it stands in when op 0 raised.
        metrics[key] = plain.accuracy.get(key, 1.0)
    info = {"untraced_op_times_s": plain.times, "traced_op_times_s": traced.times,
            "latency_points": len(latencies), "pool_bytes_identical": pool_ok,
            "trace_bytes_identical": same}
    failed = plain.failed + traced.failed + (not pool_ok)
    attempted = len(plain.times) + len(traced.times) + 1
    correct = failed == 0 and same and plain.accuracy == traced.accuracy
    return metrics, info, attempted, failed, correct


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload}; choose from {sorted(WORKLOADS)}")
    workdir = OUT / f"work-{os.getpid()}"
    try:
        work = WORKLOADS[args.workload](args.seed, workdir)
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        env = environment(args.seed)
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
        units = {m["name"]: m["unit"]
                 for m in declared["per_layer" if args.trace else "end_to_end"]}
        run = per_layer if args.trace else end_to_end
        metrics, info, attempted, failed, correct = run(work, args.seconds, units)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if metrics.keys() != units.keys():
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {metrics.keys() ^ units.keys()}")

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    OUT.mkdir(exist_ok=True)
    record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"env": env, "info": info, **result}, indent=1) + "\n")
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
