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


def _indexed_float_lines(index, values: np.ndarray) -> str:
    """The data lines, as one string: each index, then the float ``repr``s
    of the float64 row of ``values`` at its place. Rows are keyed by their
    bytes (a raw-bytes view) and each distinct key is formatted once; a
    repr is a function of the bits, so 0.0 and -0.0 are two keys."""
    values = np.ascontiguousarray(values)
    keys = values.view(np.dtype((np.void, values.itemsize * values.shape[1]))).ravel().tolist()
    at = dict(zip(keys, range(len(keys))))  # each distinct key -> a row holding it
    texts = dict(zip(at, [",".join(map(repr, row)) for row in values[list(at.values())].tolist()]))
    return "".join([f"{i},{texts[k]}\r\n" for i, k in zip(index, keys)])


def _index_float_text(rows: list[list]) -> str | None:
    """The data lines of a non-empty rectangular table whose first column
    holds only Python ints and whose other columns hold only Python floats,
    through ``_indexed_float_lines``. None for any other table.

    Cell types are tested with ``type(v) is``, so a bool, ``np.float64`` or
    ``Fraction`` cell, whose text may differ from an equal float's, takes
    the cell-by-cell path.
    """
    if len(rows[0]) < 2 or set(map(len, rows)) != {len(rows[0])}:
        return None
    index = [row[0] for row in rows]
    cells = [row[1:] for row in rows]
    if set(map(type, index)) != {int} or set(map(type, chain.from_iterable(cells))) != {float}:
        return None
    return _indexed_float_lines(index, np.array(cells, dtype=np.float64))


def write_csv(path: Path, header: list[str], rows: list[list] | np.ndarray) -> None:
    """Write the header and rows as ``csv.writer`` text: each cell is
    ``cell_str`` of its value (float ``repr``, ``fraction_str`` for a
    Fraction, ``str`` otherwise), quoted by the ``csv`` module's minimal
    rule where it holds a comma, a quote or a line break, and every line
    ends in ``\r\n``.

    A 2-D float64 ``rows`` array, each row after its 0-based index, and an
    index-plus-floats list (``_index_float_text``) go through
    ``_indexed_float_lines``: no such cell needs quoting. Any other table
    goes through ``cell_str`` and ``csv.writer`` cell by cell.
    """
    if isinstance(rows, np.ndarray):
        if rows.ndim != 2 or rows.dtype != np.float64 or rows.shape[1] == 0:
            raise ValueError("an array table is 2-D float64 with at least one column")
        text = _indexed_float_lines(range(len(rows)), rows)
    else:
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
