"""Database instances and interventions (tuple-set deltas).

A :class:`Database` is a schema plus one :class:`Relation` per schema
relation.  A :class:`Delta` is "a set of tuples to be deleted from D"
(Section 2.2): one subset per relation.  The intervention fixpoint in
:mod:`repro.core.intervention` manipulates Deltas; ``D - delta`` is
:meth:`Database.subtract`.

State that is a function of D alone (the content fingerprint, ``U(D)``,
program P's delta reducer, the cascade closure index) is kept in one
per-version memo, :meth:`Database.derived`; a write retires it all.
"""

from __future__ import annotations

import hashlib
from typing import Any, Callable, Dict, FrozenSet, Iterable, Mapping, Optional, Sequence, Tuple
from typing import TypeVar

from ..errors import IntegrityError, SchemaError
from .relation import Relation
from .schema import DatabaseSchema
from .types import Row, Value, join_key

_T = TypeVar("_T")


class Database:
    """A database instance: one relation per schema relation."""

    def __init__(
        self,
        schema: DatabaseSchema,
        relations: Optional[Mapping[str, Iterable[Sequence[Value]]]] = None,
    ) -> None:
        self.schema = schema
        self.relations: Dict[str, Relation] = {
            rs.name: Relation(rs) for rs in schema.relations
        }
        if relations is not None:
            for name, rows in relations.items():
                self.relation(name).insert_many(rows)
        # derived()'s slot: (version token, pinned relations, {kind: value}).
        self._derived_cache: Optional[Tuple[tuple, tuple, Dict[str, Any]]] = None

    # -- access ---------------------------------------------------------

    def relation(self, name: str) -> Relation:
        """The relation instance called *name*."""
        try:
            return self.relations[name]
        except KeyError:
            raise SchemaError(f"no relation named {name!r}") from None

    def __getitem__(self, name: str) -> Relation:
        return self.relation(name)

    @property
    def relation_names(self) -> Tuple[str, ...]:
        """Relation names in schema order."""
        return self.schema.relation_names

    def total_rows(self) -> int:
        """Total number of tuples across all relations (the paper's n)."""
        return sum(len(r) for r in self.relations.values())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Database):
            return NotImplemented
        return self.schema == other.schema and all(
            self.relations[n] == other.relations[n] for n in self.relation_names
        )

    def __repr__(self) -> str:
        sizes = ", ".join(
            f"{n}={len(r)}" for n, r in self.relations.items()
        )
        return f"Database({sizes})"

    # -- identity ---------------------------------------------------------

    def version_token(self) -> Tuple[Tuple[str, int, int, int], ...]:
        """``(name, id, version, len)`` of every relation, in schema order.

        Any write (insert, delete, clear) bumps a relation's version and
        swapping in another relation object changes its id, so state
        derived from the database and stored with this token is current
        exactly while the token still matches.
        """
        return tuple(
            (name, id(rel), rel.version, len(rel))
            for name, rel in ((n, self.relations[n]) for n in self.relation_names)
        )

    def derived(self, kind: str, build: Callable[[], _T]) -> _T:
        """The *kind* entry of this version's derived state, built once.

        *build* computes a value of the database alone.  It runs on the
        first request for *kind* at the current :meth:`version_token`;
        the first request of any kind after a write retires every entry
        and the relations they pin.  The token is read before *build*
        runs, so a write during a build makes the next call build again.
        """
        token = self.version_token()
        slot = self._derived_cache
        if slot is None or slot[0] != token:
            # Pin the relations: their ids, which the token holds, must
            # not be reused while it lives.
            slot = self._derived_cache = (token, tuple(self.relations.values()), {})
        if kind not in slot[2]:
            slot[2][kind] = build()
        return slot[2][kind]

    def content_fingerprint(self) -> str:
        """A stable SHA-256 digest of the schema and every tuple.

        Two databases with the same schema and the same rows produce
        the same fingerprint regardless of insertion order, process,
        or platform — it is the content-addressed identity used by the
        service-layer result cache (:mod:`repro.service`).  The digest
        is a :meth:`derived` entry, so repeated calls are cheap and any
        mutation (insert, delete, clear, or swapping a relation object)
        invalidates it.  Each relation keeps its sorted row digests
        current across writes (:meth:`Relation.row_digests`), so only
        the first call hashes every row.
        """
        return self.derived("fingerprint", self._digest)

    def _digest(self) -> str:
        h = hashlib.sha256()
        h.update(str(self.schema).encode("utf-8"))
        for fk in self.schema.foreign_keys:
            h.update(str(fk).encode("utf-8"))
        for name in self.relation_names:
            h.update(b"\x00R")
            h.update(name.encode("utf-8"))
            # One joined update keeps the hashing itself at C speed.
            h.update(b"".join(self.relations[name].row_digests()))
        return h.hexdigest()

    # -- integrity --------------------------------------------------------

    def check_integrity(self) -> None:
        """Verify every foreign key references an existing target tuple.

        Raises :class:`IntegrityError` on the first dangling reference.
        A foreign key with a NULL component references nothing, as in
        SQL, so it is never dangling.  Primary keys are enforced at
        insertion time by :class:`Relation`, so only referential
        integrity is checked here.
        """
        for fk in self.schema.foreign_keys:
            source = self.relation(fk.source)
            target = self.relation(fk.target)
            tgt_pos = target.schema.indexes_of(fk.target_attrs)
            target_keys = {
                join_key(tuple(row[i] for i in tgt_pos)) for row in target
            }
            src_pos = source.schema.indexes_of(fk.source_attrs)
            for row in source:
                key = join_key(tuple(row[i] for i in src_pos))
                if key is not None and key not in target_keys:
                    raise IntegrityError(
                        f"dangling foreign key {fk}: {fk.source} row {row} "
                        f"references missing key {key}"
                    )

    # -- copying / mutation ------------------------------------------------

    def copy(self) -> "Database":
        """A deep copy (rows are immutable, so sharing them is safe)."""
        clone = Database(self.schema)
        for name, rel in self.relations.items():
            clone.relations[name] = rel.copy()
        return clone

    def subtract(self, delta: "Delta") -> "Database":
        """The residual database ``D - delta`` (non-destructive)."""
        residual = Database(self.schema)
        for name, rel in self.relations.items():
            residual.relations[name] = rel.without(delta.rows_for(name))
        return residual


class Delta:
    """An intervention: one set of rows to delete per relation.

    Deltas are immutable-by-convention value objects; all combining
    operations return new instances.  They support the subset ordering
    used by the minimality statements of Theorem 3.3.
    """

    def __init__(
        self,
        schema: DatabaseSchema,
        parts: Optional[Mapping[str, Iterable[Sequence[Value]]]] = None,
    ) -> None:
        self.schema = schema
        self._parts: Dict[str, FrozenSet[Row]] = {
            name: frozenset() for name in schema.relation_names
        }
        if parts is not None:
            for name, rows in parts.items():
                if name not in self._parts:
                    raise SchemaError(f"delta names unknown relation {name!r}")
                self._parts[name] = frozenset(tuple(r) for r in rows)

    @classmethod
    def empty(cls, schema: DatabaseSchema) -> "Delta":
        """The empty intervention."""
        return cls(schema)

    @classmethod
    def all_of(cls, database: Database) -> "Delta":
        """The trivial intervention that deletes the whole database."""
        return cls(
            database.schema,
            {name: rel.rows() for name, rel in database.relations.items()},
        )

    # -- access -----------------------------------------------------------

    def rows_for(self, relation: str) -> FrozenSet[Row]:
        """The rows to delete from *relation*."""
        try:
            return self._parts[relation]
        except KeyError:
            raise SchemaError(f"no relation named {relation!r}") from None

    def __getitem__(self, relation: str) -> FrozenSet[Row]:
        return self.rows_for(relation)

    def size(self) -> int:
        """Total number of tuples deleted."""
        return sum(len(rows) for rows in self._parts.values())

    def is_empty(self) -> bool:
        """True iff nothing is deleted."""
        return all(not rows for rows in self._parts.values())

    def parts(self) -> Dict[str, FrozenSet[Row]]:
        """A copy of the per-relation row sets."""
        return dict(self._parts)

    # -- algebra ------------------------------------------------------------

    def union(self, other: "Delta") -> "Delta":
        """Per-relation set union."""
        self._check_schema(other)
        merged = {
            name: self._parts[name] | other._parts[name]
            for name in self._parts
        }
        return Delta(self.schema, merged)

    def issubset(self, other: "Delta") -> bool:
        """Per-relation subset test (the minimality order)."""
        self._check_schema(other)
        return all(
            self._parts[name] <= other._parts[name] for name in self._parts
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Delta):
            return NotImplemented
        return self.schema == other.schema and self._parts == other._parts

    def __le__(self, other: "Delta") -> bool:
        return self.issubset(other)

    def __or__(self, other: "Delta") -> "Delta":
        return self.union(other)

    def _check_schema(self, other: "Delta") -> None:
        if self.schema.relation_names != other.schema.relation_names:
            raise SchemaError("deltas over different schemas are incomparable")

    def __repr__(self) -> str:
        nonempty = {
            name: len(rows) for name, rows in self._parts.items() if rows
        }
        return f"Delta({nonempty or 'empty'})"

    def describe(self) -> str:
        """A readable multi-line listing of the deleted tuples."""
        lines = []
        for name in self.schema.relation_names:
            rows = self._parts[name]
            if rows:
                listing = ", ".join(str(r) for r in sorted(rows, key=str))
                lines.append(f"  {name}: {listing}")
            else:
                lines.append(f"  {name}: (none)")
        return "Delta[\n" + "\n".join(lines) + "\n]"
