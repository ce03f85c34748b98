"""Outside-in layer trace for the benchmark.

Public functions of ergodec are wrapped at the binding their caller uses
(``ergodec.decomposition.mc_level_values``, not the one in
``ergodec.averaging``), so the program itself is not edited. Each wrapped
call records one span ``(name, start, end, parent, note)``; spans stay in
memory and are written out once, when the run ends. Per-layer metrics are
derived from the spans afterwards.
"""
from __future__ import annotations

import functools
import gzip
import importlib
import json
import math
import os
import statistics
import time
from pathlib import Path

# Span fields, kept as plain tuples to keep the per-call cost low.
NAME, START, END, PARENT, NOTE = range(5)


def _arg(args, kwargs, pos, key):
    return args[pos] if len(args) > pos else kwargs[key]


def _mc_note(args, kwargs, result):
    return {"level": _arg(args, kwargs, 1, "level"),
            "samples": _arg(args, kwargs, 4, "samples")}


def _pi_phi_note(args, kwargs, result):
    return {"schedule": list(result.schedule), "converged": result.all_converged}


def _ce_note(args, kwargs, result):
    return {"sets": result.sets_checked}


def _json_note(args, kwargs, result):
    return {"bytes": len(result.encode())}


def _csv_note(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


# (span name, module, attribute path, note extractor). The attribute path is
# the binding the caller looks up at call time.
BINDINGS = [
    ("sample", "ergodec.measures", "ProductBernoulli.sample_array", None),
    ("potential", "ergodec.measures", "Mixture.atom", None),
    ("potential", "ergodec.measures", "Mixture.log_atom_rows", None),
    ("exact", "ergodec.decomposition", "monomial_level_average", None),
    ("exact", "ergodec.decomposition", "average_exact", None),
    ("mc", "ergodec.decomposition", "mc_level_values", _mc_note),
    ("pi_phi", "ergodec.decomposition", "pi_phi", _pi_phi_note),
    ("decompose", "ergodec.cli", "decompose", None),
    ("decompose", "ergodec.decomposition", "decompose", None),
    ("cluster", "ergodec.decomposition", "split_by_gaps", None),
    ("residual", "ergodec.decomposition", "barycenter_residual", None),
    ("suite", "ergodec.validation", "run_validation_suite", None),
    ("verify", "ergodec.validation", "verify_identity", None),
    ("checks", "ergodec.validation", "conditional_expectation_check", _ce_note),
    ("checks", "ergodec.validation", "tower_check", None),
    ("checks", "ergodec.validation", "fubini_check", None),
    ("checks", "ergodec.validation", "invariance_check", None),
    ("kolmogorov", "ergodec.cli", "demonstrate_kolmogorov", None),
    ("orbital", "ergodec.cli", "orbital_dichotomy", None),
    ("write", "ergodec.reporting", "ResultRecord.to_json", _json_note),
    ("write", "ergodec.cli", "write_csv", _csv_note),
    ("write", "ergodec.reporting", "write_csv", _csv_note),
]


class Tracer:
    """Records spans for wrapped calls; single-threaded by design."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._saved: list = []

    def _wrap(self, name, fn, note_fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, None)
            if note_fn is not None:
                spans[idx] = (name, start, end, parent, note_fn(args, kwargs, result))
            return result

        return traced

    def install(self, bindings=BINDINGS):
        for name, module, path, note_fn in bindings:
            owner = importlib.import_module(module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, note_fn))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans) -> list[float]:
    """Span duration minus the part of its interval its children cover."""
    children: dict[int, list] = {}
    for s in spans:
        if s[PARENT] >= 0:
            children.setdefault(s[PARENT], []).append(s)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s[START]
        for c in sorted(children.get(i, ()), key=lambda c: c[START]):
            lo, hi = max(c[START], reach), min(c[END], s[END])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((s[END] - s[START]) - covered)
    return out


def mc_read_ratio(calls) -> float:
    """Monte Carlo levels the limit rule reads over MC levels computed.

    ``calls`` holds one ``(schedule, mc_levels)`` pair per ``pi_phi`` call.
    The rule compares the last two schedule levels only. Returns 0.0 when no
    Monte Carlo level was computed.
    """
    read = computed = 0
    for schedule, mc_levels in calls:
        last_two = set(schedule[-2:])
        read += sum(1 for n in mc_levels if n in last_two)
        computed += len(mc_levels)
    return read / computed if computed else 0.0


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics of one operation's spans (indices relative to it)."""
    selfs = self_times(spans)
    names = [s[NAME] for s in spans]

    def outermost(i):
        # Time of a layer counts each nested call of the same layer once.
        p = spans[i][PARENT]
        while p >= 0:
            if names[p] == names[i]:
                return False
            p = spans[p][PARENT]
        return True

    def total(name):
        return sum(s[END] - s[START] for i, s in enumerate(spans)
                   if names[i] == name and outermost(i))

    def self_total(name):
        return sum(t for n, t in zip(names, selfs) if n == name)

    def count(name):
        return sum(1 for n in names if n == name)

    def note_sum(name, key):
        return sum(s[NOTE][key] for s in spans if s[NAME] == name and s[NOTE])

    mc_calls: dict[int, list[int]] = {}
    for s in spans:
        if s[NAME] == "mc" and s[PARENT] >= 0 and names[s[PARENT]] == "pi_phi":
            mc_calls.setdefault(s[PARENT], []).append(s[NOTE]["level"])
    pi_idx = [i for i, n in enumerate(names) if n == "pi_phi"]
    return {
        "measures.sample_s": total("sample"),
        "measures.sample_calls": count("sample"),
        "measures.potential_s": total("potential"),
        "measures.potential_calls": count("potential"),
        "averaging.exact_s": total("exact"),
        "averaging.exact_calls": count("exact"),
        "averaging.mc_s": self_total("mc"),
        "averaging.mc_calls": count("mc"),
        "averaging.mc_draws": note_sum("mc", "samples"),
        "averaging.mc_read_ratio": mc_read_ratio(
            (spans[i][NOTE]["schedule"], mc_calls.get(i, [])) for i in pi_idx
        ),
        "averaging.checks_s": total("checks"),
        "averaging.ce_sets_checked": note_sum("checks", "sets"),
        "cocycles.verify_s": total("verify"),
        "validation.suite_s": total("suite"),
        "decomposition.pi_phi_self_s": self_total("pi_phi"),
        "decomposition.decompose_self_s": self_total("decompose"),
        "decomposition.cluster_s": total("cluster"),
        "decomposition.residual_s": total("residual"),
        "decomposition.nonconv_points": sum(
            1 for i in pi_idx if not spans[i][NOTE]["converged"]
        ),
        "counterexamples.kolmogorov_self_s": self_total("kolmogorov"),
        "sigma_finite.orbital_s": total("orbital"),
        "cli.write_s": total("write"),
        "cli.bytes_written": note_sum("write", "bytes"),
    }


def point_latencies_ms(spans) -> list[float]:
    return [(s[END] - s[START]) * 1e3 for s in spans if s[NAME] == "pi_phi"]


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q / 100)) - 1]


def median_metrics(per_op: list[dict]) -> dict[str, float]:
    """Per-metric median over operations; the lower one of an even count, so
    counts stay whole."""
    return {k: statistics.median_low(m[k] for m in per_op) for k in per_op[0]}
