"""CSV import/export for relations and tables.

The dtype hints on :class:`~repro.engine.schema.Attribute` drive
parsing: "int"/"float"/"bool" columns are converted, "str" kept
verbatim, and "any" columns are parsed as int, then float, then left as
strings.  Empty fields become NULL.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import List, Sequence, Union

from ..errors import QueryError
from .relation import Relation
from .table import Table
from .types import DUMMY, NULL, Value

PathLike = Union[str, Path]

_NULL_TOKEN = ""
_DUMMY_TOKEN = "__DUMMY__"


def _parse_any(text: str) -> Value:
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def _parse(text: str, dtype: str) -> Value:
    if text == _NULL_TOKEN:
        return NULL
    if text == _DUMMY_TOKEN:
        return DUMMY
    if dtype == "int":
        return int(text)
    if dtype == "float":
        return float(text)
    if dtype == "bool":
        lowered = text.strip().lower()
        if lowered in ("true", "1", "t", "yes"):
            return True
        if lowered in ("false", "0", "f", "no"):
            return False
        raise QueryError(f"cannot parse {text!r} as bool")
    if dtype == "str":
        return text
    return _parse_any(text)


def _render(value: Value) -> str:
    if value is NULL:
        return _NULL_TOKEN
    if value is DUMMY:
        return _DUMMY_TOKEN
    return str(value)


def dump_relation(relation: Relation, path: PathLike) -> None:
    """Write a relation to a headed CSV file (deterministic row order)."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(relation.schema.attribute_names)
        for row in relation.sorted_rows():
            writer.writerow([_render(v) for v in row])


def load_table(path: PathLike) -> Table:
    """Read a table from a headed CSV file ("any" parsing per cell)."""
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise QueryError(f"{path}: empty CSV file") from None
        rows: List[Sequence[Value]] = []
        for line in reader:
            if not line:
                continue
            rows.append(tuple(_parse(cell, "any") for cell in line))
    return Table(header, rows)
