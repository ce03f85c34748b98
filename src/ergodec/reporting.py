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
from itertools import chain
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


def _index_float_text(rows: list[list]) -> str | None:
    """The data lines, as one string, of a non-empty rectangular table
    whose first column holds only Python ints and whose other columns hold
    only Python floats: ``str`` of the index, then the float ``repr``s of
    the row, joined once per distinct row. None for any other table.

    Cell types are tested with ``type(v) is``, so a bool, ``np.float64`` or
    ``Fraction`` cell, equal to a float and hashed alike, never reuses a
    float row's text. A row that holds a zero is formatted on its own: 0.0
    and -0.0 are one key with two reprs. A NaN equals no other NaN, so a
    row that holds one is formatted again unless it holds the very same
    objects; its text is the same either way.
    """
    if len(rows[0]) < 2 or set(map(len, rows)) != {len(rows[0])}:
        return None
    index = [row[0] for row in rows]
    keys = [tuple(row[1:]) for row in rows]
    if set(map(type, index)) != {int} or set(map(type, chain.from_iterable(keys))) != {float}:
        return None
    texts: dict[tuple, str] = {}
    lines = []
    for i, key in zip(index, keys):
        text = texts.get(key)
        if text is None:
            text = ",".join(map(repr, key))
            if 0.0 not in key:
                texts[key] = text
        lines.append(f"{i},{text}\r\n")
    return "".join(lines)


def write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    """Write the header and rows as ``csv.writer`` text: each cell is
    ``cell_str`` of its value (float ``repr``, ``fraction_str`` for a
    Fraction, ``str`` otherwise), quoted by the ``csv`` module's minimal
    rule where it holds a comma, a quote or a line break, and every line
    ends in ``\r\n``.

    An index-plus-floats table (``_index_float_text``) is written line by
    line, each distinct row formatted once: no such cell needs quoting. Any
    other table goes through ``cell_str`` and ``csv.writer`` cell by cell.
    """
    text = _index_float_text(rows) if rows else None
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        if text is None:
            writer.writerows([cell_str(v) for v in row] for row in rows)
        else:
            fh.write(text)


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
