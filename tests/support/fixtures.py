"""Fixtures the paper's examples and the CLI tests need.

* :func:`example_29_database` / :func:`example_210_database` — the
  Eq. (3) instance of Examples 2.9 and 2.10;
* :func:`load_database` — reads back a directory written by
  :func:`repro.engine.storage.save_database` (``repro generate``), with
  :func:`load_schema` and :func:`load_relation` for its two file kinds.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Dict

from repro.engine.csvio import _parse
from repro.engine.database import Database
from repro.engine.relation import Relation
from repro.engine.schema import (
    Attribute,
    DatabaseSchema,
    ForeignKey,
    RelationSchema,
    foreign_key,
    make_schema,
)
from repro.engine.storage import FORMAT_VERSION, SCHEMA_FILENAME, PathLike
from repro.errors import QueryError, SchemaError


def example_29_schema() -> DatabaseSchema:
    """Example 2.9: R1(x), S1(x,y), R2(y), S2(y,z), R3(z), standard FKs."""
    return DatabaseSchema(
        (
            make_schema("R1", ["x"], ["x"]),
            make_schema("S1", ["x", "y"], ["x", "y"]),
            make_schema("R2", ["y"], ["y"]),
            make_schema("S2", ["y", "z"], ["y", "z"]),
            make_schema("R3", ["z"], ["z"]),
        ),
        (
            foreign_key("S1", "x", "R1", "x"),
            foreign_key("S1", "y", "R2", "y"),
            foreign_key("S2", "y", "R2", "y"),
            foreign_key("S2", "z", "R3", "z"),
        ),
    )


def example_29_database() -> Database:
    """The Eq. (3) instance: {R1(a), S1(a,b), R2(b), S2(b,c), R3(c)}."""
    return Database(
        example_29_schema(),
        {
            "R1": [("a",)],
            "S1": [("a", "b")],
            "R2": [("b",)],
            "S2": [("b", "c")],
            "R3": [("c",)],
        },
    )


def example_210_database() -> Database:
    """Example 2.10: Eq. (3) plus S1(a,b'), R2(b'), S2(b',c)."""
    db = example_29_database()
    db.relation("S1").insert(("a", "b'"))
    db.relation("R2").insert(("b'",))
    db.relation("S2").insert(("b'", "c"))
    return db


def load_database(
    directory: PathLike, *, check_integrity: bool = True
) -> Database:
    """Load a database saved by :func:`save_database`.

    ``check_integrity`` (default) verifies all foreign keys after
    loading, so a manually edited directory cannot smuggle in dangling
    references.
    """
    directory = Path(directory)
    schema_path = directory / SCHEMA_FILENAME
    if not schema_path.exists():
        raise SchemaError(f"{directory} has no {SCHEMA_FILENAME}")
    schema = load_schema(schema_path)
    database = Database(schema)
    for rs in schema.relations:
        csv_path = directory / f"{rs.name}.csv"
        if not csv_path.exists():
            raise SchemaError(f"missing relation file {csv_path}")
        database.relations[rs.name] = load_relation(rs, csv_path)
    if check_integrity:
        database.check_integrity()
    return database


def schema_from_dict(data: Dict) -> DatabaseSchema:
    """Rebuild a schema from :func:`schema_to_dict` output."""
    version = data.get("version")
    if version != FORMAT_VERSION:
        raise SchemaError(
            f"unsupported schema format version {version!r} "
            f"(expected {FORMAT_VERSION})"
        )
    relations = tuple(
        RelationSchema(
            r["name"],
            tuple(Attribute(a["name"], a["dtype"]) for a in r["attributes"]),
            tuple(r["primary_key"]),
        )
        for r in data["relations"]
    )
    foreign_keys = tuple(
        ForeignKey(
            fk["source"],
            tuple(fk["source_attrs"]),
            fk["target"],
            tuple(fk["target_attrs"]),
            fk["back_and_forth"],
        )
        for fk in data["foreign_keys"]
    )
    return DatabaseSchema(relations, foreign_keys)


def load_schema(path: PathLike) -> DatabaseSchema:
    """Read a schema from a JSON file."""
    with open(path) as handle:
        return schema_from_dict(json.load(handle))


def load_relation(schema: RelationSchema, path: PathLike) -> Relation:
    """Read a relation from a headed CSV file.

    The header must list exactly the schema's attributes (any order);
    columns are reordered to match the schema.
    """
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise QueryError(f"{path}: empty CSV file") from None
        expected = set(schema.attribute_names)
        if set(header) != expected:
            raise QueryError(
                f"{path}: header {header} does not match schema "
                f"attributes {sorted(expected)}"
            )
        order = [header.index(a) for a in schema.attribute_names]
        dtypes = [a.dtype for a in schema.attributes]
        relation = Relation(schema)
        for line in reader:
            if not line:
                continue
            row = tuple(
                _parse(line[i], dtype) for i, dtype in zip(order, dtypes)
            )
            relation.insert(row)
    return relation
