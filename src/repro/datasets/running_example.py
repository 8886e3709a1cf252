"""The paper's running example (Figure 3) and the small counterexamples.

Schema (Example 2.2)::

    Author(id, name, inst, dom)
    Authored(id, pubid)
    Publication(pubid, year, venue)

with foreign keys (Eq. (2))::

    Authored.id    ->  Author.id          (standard)
    Authored.pubid <-> Publication.pubid  (back-and-forth)

The instance matches Figure 3 tuple for tuple;
``database(back_and_forth=False)`` demotes the back-and-forth key to a
standard one.
"""

from __future__ import annotations


from ..engine.database import Database
from ..engine.schema import DatabaseSchema, foreign_key, make_schema

#: Tuple identifiers from Figure 3, for readable tests.
R1 = ("A1", "JG", "C.edu", "edu")
R2 = ("A2", "RR", "M.com", "com")
R3 = ("A3", "CM", "I.com", "com")
S1 = ("A1", "P1")
S2 = ("A2", "P1")
S3 = ("A1", "P2")
S4 = ("A3", "P2")
S5 = ("A2", "P3")
S6 = ("A3", "P3")
T1 = ("P1", 2001, "SIGMOD")
T2 = ("P2", 2011, "VLDB")
T3 = ("P3", 2001, "SIGMOD")


def schema(*, back_and_forth: bool = True) -> DatabaseSchema:
    """The Example 2.2 schema.

    ``back_and_forth=False`` demotes Authored.pubid -> Publication.pubid
    to a standard key — the variant Example 2.8 contrasts against.
    """
    return DatabaseSchema(
        (
            make_schema("Author", ["id", "name", "inst", "dom"], ["id"]),
            make_schema("Authored", ["id", "pubid"], ["id", "pubid"]),
            make_schema(
                "Publication", ["pubid", "year", "venue"], ["pubid"]
            ),
        ),
        (
            foreign_key("Authored", "id", "Author", "id"),
            foreign_key(
                "Authored",
                "pubid",
                "Publication",
                "pubid",
                back_and_forth=back_and_forth,
            ),
        ),
    )


def database(*, back_and_forth: bool = True) -> Database:
    """The Figure 3 instance."""
    return Database(
        schema(back_and_forth=back_and_forth),
        {
            "Author": [R1, R2, R3],
            "Authored": [S1, S2, S3, S4, S5, S6],
            "Publication": [T1, T2, T3],
        },
    )
