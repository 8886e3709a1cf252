"""Durable storage: schemas as JSON, databases as directories of CSVs.

A saved database is a directory containing ``schema.json`` plus one
``<Relation>.csv`` per relation.  The JSON carries everything the
engine needs to rebuild the schema — attributes with dtypes, primary
keys, and foreign keys including the back-and-forth flag — so the
directory alone rebuilds an equal database (the test suite reads it
back to check).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Union

from .csvio import dump_relation
from .database import Database
from .schema import DatabaseSchema

PathLike = Union[str, Path]

SCHEMA_FILENAME = "schema.json"
FORMAT_VERSION = 1


def schema_to_dict(schema: DatabaseSchema) -> Dict:
    """A JSON-serializable description of *schema*."""
    return {
        "version": FORMAT_VERSION,
        "relations": [
            {
                "name": rs.name,
                "attributes": [
                    {"name": a.name, "dtype": a.dtype} for a in rs.attributes
                ],
                "primary_key": list(rs.primary_key),
            }
            for rs in schema.relations
        ],
        "foreign_keys": [
            {
                "source": fk.source,
                "source_attrs": list(fk.source_attrs),
                "target": fk.target,
                "target_attrs": list(fk.target_attrs),
                "back_and_forth": fk.back_and_forth,
            }
            for fk in schema.foreign_keys
        ],
    }


def save_schema(schema: DatabaseSchema, path: PathLike) -> None:
    """Write a schema to a JSON file."""
    with open(path, "w") as handle:
        json.dump(schema_to_dict(schema), handle, indent=2, sort_keys=True)


def save_database(database: Database, directory: PathLike) -> None:
    """Save a database as ``directory/schema.json`` + per-relation CSVs.

    The directory is created if missing; existing files are
    overwritten.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    save_schema(database.schema, directory / SCHEMA_FILENAME)
    for name, relation in database.relations.items():
        dump_relation(relation, directory / f"{name}.csv")
