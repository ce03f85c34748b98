"""Result records and their canonical serialized forms.

The deterministic contract: identical config + seed produce byte-identical
result records and CSV series. Volatile facts (wall time, host) never enter
the record; the CLI writes them to a separate sidecar. Exact rationals
serialize as "p/q"; floats rely on shortest-roundtrip repr, which json shares.
"""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any

import numpy as np


def fraction_str(fr: Fraction) -> str:
    return f"{fr.numerator}/{fr.denominator}"


def to_jsonable(obj: Any) -> Any:
    """Recursively convert values to deterministic JSON-ready forms."""
    if isinstance(obj, Fraction):
        return fraction_str(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [to_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    return str(obj)


def canonical_json(obj: Any) -> str:
    return json.dumps(to_jsonable(obj), sort_keys=True, indent=2) + "\n"


def cell_str(v: Any) -> str:
    if type(v) is float:  # the common case, before any ABC check
        return repr(v)
    if isinstance(v, Fraction):
        return fraction_str(v)
    if isinstance(v, (np.floating,)):
        return repr(float(v))
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, (np.integer,)):
        return str(int(v))
    return str(v)


def _float_strs(column: tuple[float, ...]) -> list[str]:
    """``repr`` of each cell of an all-float column, computed once per
    distinct value. 0.0 and -0.0 share a key but not a repr, so zeros are
    formatted cell by cell; a NaN finds its own entry by identity."""
    reprs = {v: repr(v) for v in set(column)}
    if 0.0 in reprs:
        return [reprs[v] if v else repr(v) for v in column]
    return list(map(reprs.__getitem__, column))


def write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    """Write the header and rows as ``csv.writer`` text: each cell is
    ``cell_str`` of its value (float ``repr``, ``fraction_str`` for a
    Fraction, ``str`` otherwise), quoted by the ``csv`` module's minimal
    rule where it holds a comma, a quote or a line break, and every line
    ends in ``\r\n``.

    A non-empty rectangular table whose every column holds only Python
    floats or only Python ints is formatted column by column, each distinct
    float once, and joined directly: no such cell needs quoting. Any other
    table goes through ``cell_str`` and ``csv.writer`` cell by cell.
    """
    columns = None
    if rows and len(set(map(len, rows))) == 1 and rows[0]:
        columns = []
        for column in zip(*rows):
            kinds = set(map(type, column))
            if kinds == {float}:
                columns.append(_float_strs(column))
            elif kinds == {int}:
                columns.append(list(map(str, column)))
            else:
                columns = None
                break
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        if columns is None:
            writer.writerows([cell_str(v) for v in row] for row in rows)
        else:
            fh.write("\r\n".join(map(",".join, zip(*columns))) + "\r\n")


@dataclass(frozen=True)
class Verdict:
    name: str
    passed: bool
    detail: dict = field(default_factory=dict)


@dataclass
class ResultRecord:
    experiment: str
    config: dict
    verdicts: list[Verdict]
    tables: dict[str, list[dict]] = field(default_factory=dict)
    residuals: dict = field(default_factory=dict)

    @property
    def all_passed(self) -> bool:
        return all(v.passed for v in self.verdicts)

    def to_json(self) -> str:
        payload = {
            "experiment": self.experiment,
            "config": self.config,
            "verdicts": [
                {"name": v.name, "passed": v.passed, "detail": v.detail}
                for v in self.verdicts
            ],
            "tables": self.tables,
            "residuals": self.residuals,
        }
        return canonical_json(payload)
