"""The :class:`Relation` tuple store.

A relation is a *set* of rows (tuples of engine values) under a
:class:`~repro.engine.schema.RelationSchema`.  Rows are deduplicated on
insertion and the primary-key constraint is enforced.  A hash index on
the primary key is always maintained; row list, column arrays and join
indexes live in one version-keyed snapshot, and the sorted row digests
the content fingerprint hashes are kept current by every mutation
(a very large one drops them for a rebuild on the next read).
"""

from __future__ import annotations

import bisect
import hashlib
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from ..errors import IntegrityError
from .schema import RelationSchema
from .types import Row, Value, is_null, sort_key

#: Positional join indexes of one snapshot, keyed by column positions
#: (see :meth:`Table.index_positions <repro.engine.table.Table.index_positions>`).
JoinIndexes = Dict[Tuple[int, ...], Dict[Row, List[int]]]

#: Batches larger than this drop the digest list; the next fingerprint
#: rebuilds it.  A bisect update shifts the whole list per row (about
#: 0.17 ns a digest on a 2-core Xeon) and a rebuild hashes every row
#: (a few us each), so per-row upkeep stays cheaper for batches up to
#: this size at any relation size; clear() of a big relation is never
#: quadratic.
_BISECT_BATCH = 10_000

#: Signature of a mutation subscriber: ``(relation, inserted, deleted)``.
#: Each call describes one *effective* batch — rows that were actually
#: added and rows that were actually removed, never no-ops.
MutationSubscriber = Callable[["Relation", Tuple[Row, ...], Tuple[Row, ...]], None]

#: A row predicate: either a callable over an attribute->value mapping
#: or a boolean :class:`~repro.engine.expressions.Expression`.
RowPredicate = Union[Callable[[Mapping[str, Value]], bool], object]


def _as_env_predicate(
    predicate: RowPredicate,
) -> Callable[[Mapping[str, Value]], bool]:
    """Normalize *predicate* to a callable over attribute environments."""
    evaluate = getattr(predicate, "evaluate", None)
    if evaluate is not None and not callable(predicate):
        return lambda env: bool(evaluate(env))
    if callable(predicate):
        return lambda env: bool(predicate(env))
    raise TypeError(
        "predicate must be callable or an Expression with .evaluate()"
    )


def _row_digest(row: Row) -> bytes:
    """A fixed-width digest of one row.

    ``repr`` of the tuple is injective over the engine's values: strings
    are quoted and escaped, so none can forge a separator or a
    neighbouring value; floats round-trip; ``1``, ``True`` and ``1.0``
    and the ``NULL``/``DUMMY`` markers all render apart.
    """
    return hashlib.sha256(repr(row).encode("utf-8")).digest()


class Relation:
    """A named set of rows with a primary key.

    The store is intentionally simple: a Python set of row tuples plus
    a dict-based primary-key index.  All mutating operations keep the
    PK index coherent and bump :attr:`version`, which retires the
    snapshot.
    """

    def __init__(
        self,
        schema: RelationSchema,
        rows: Optional[Iterable[Sequence[Value]]] = None,
    ) -> None:
        self.schema = schema
        self._rows: Set[Row] = set()
        self._pk_index: Dict[Row, Row] = {}
        self._version = 0
        # (version, row list, column arrays, join indexes): see
        # _columnar_snapshot.  Sorted row digests: see row_digests.
        self._columnar: Optional[
            Tuple[int, List[Row], List[List[Value]], JoinIndexes]
        ] = None
        self._digests: Optional[List[bytes]] = None
        self._subscribers: List[MutationSubscriber] = []
        if rows is not None:
            self.insert_many(rows)

    @property
    def version(self) -> int:
        """A counter bumped on every successful mutation.

        Lets callers (notably :meth:`Database.content_fingerprint
        <repro.engine.database.Database.content_fingerprint>`) memoize
        derived state and invalidate it when the relation changes.
        """
        return self._version

    # -- basic protocol -------------------------------------------------

    @property
    def name(self) -> str:
        """The relation name from the schema."""
        return self.schema.name

    @property
    def arity(self) -> int:
        """Number of attributes."""
        return len(self.schema.attributes)

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self._rows)

    def __contains__(self, row: Sequence[Value]) -> bool:
        return tuple(row) in self._rows

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        return self.schema == other.schema and self._rows == other._rows

    def __hash__(self) -> int:  # pragma: no cover - relations are mutable
        raise TypeError("Relation objects are mutable and unhashable")

    def rows(self) -> FrozenSet[Row]:
        """A frozen snapshot of the current rows."""
        return frozenset(self._rows)

    def sorted_rows(self) -> List[Row]:
        """Rows in a deterministic total order (for tests and display)."""
        return sorted(self._rows, key=lambda r: tuple(sort_key(v) for v in r))

    # -- zero-copy column views ------------------------------------------

    def _columnar_snapshot(
        self,
    ) -> Tuple[List[Row], List[List[Value]], JoinIndexes]:
        """The cached (row list, column arrays, join indexes) for this version.

        Built at most once per mutation version and never mutated
        afterwards, so consumers (:meth:`Table.from_relation
        <repro.engine.table.Table.from_relation>`, the fixpoint index
        probes) adopt them without copying: a later insert/delete
        produces a *new* snapshot while old ones stay valid.  The join
        index dict is filled by ``index_positions`` on the
        ``from_relation`` views, so each index is built once per version.
        """
        snapshot = self._columnar
        if snapshot is not None and snapshot[0] == self._version:
            return snapshot[1], snapshot[2], snapshot[3]
        row_list = list(self._rows)
        if row_list:
            column_arrays = [list(col) for col in zip(*row_list)]
        else:
            column_arrays = [[] for _ in range(self.arity)]
        indexes: JoinIndexes = {}
        self._columnar = (self._version, row_list, column_arrays, indexes)
        return row_list, column_arrays, indexes

    def row_list(self) -> List[Row]:
        """The rows as an ordered list (cached per version; read-only)."""
        return self._columnar_snapshot()[0]

    def column_arrays(self) -> List[List[Value]]:
        """Per-attribute value lists aligned with :meth:`row_list`.

        Cached per mutation version and treated as immutable — the
        zero-copy contract behind columnar :class:`Table` views.
        """
        return self._columnar_snapshot()[1]

    def column_array(self, attribute: str) -> List[Value]:
        """One attribute's values aligned with :meth:`row_list`."""
        return self.column_arrays()[self.schema.index_of(attribute)]

    def row_digests(self) -> List[bytes]:
        """The sorted per-row digests (read-only) the fingerprint hashes.

        Built on the first call; from then on every effective batch
        updates it, so a fingerprint after a write digests only the
        changed rows and re-hashes the joined list at C speed.  Distinct
        rows may share a digest, so the list is a multiset.
        """
        if self._digests is None:
            self._digests = sorted(_row_digest(row) for row in self._rows)
        return self._digests

    def _track_digests(
        self, inserted: Sequence[Row], deleted: Sequence[Row]
    ) -> None:
        """Apply one effective batch to the maintained digest list, or
        drop the list when the batch is too large to apply row by row."""
        digests = self._digests
        if digests is None:
            return
        if len(inserted) + len(deleted) > _BISECT_BATCH:
            self._digests = None
            return
        for row in deleted:
            digest = _row_digest(row)
            index = bisect.bisect_left(digests, digest)
            if index < len(digests) and digests[index] == digest:
                del digests[index]
        for row in inserted:
            bisect.insort(digests, _row_digest(row))

    # -- mutation subscribers ---------------------------------------------

    def subscribe(self, callback: MutationSubscriber) -> None:
        """Register *callback* to receive effective mutation batches.

        After every successful mutating call the relation invokes each
        subscriber once as ``callback(relation, inserted, deleted)``
        with the rows that were *actually* added/removed — silent
        no-ops (re-inserts, deletes of absent rows) are excluded, so a
        subscriber that replays the batches reconstructs the relation
        exactly.  This is the capture point for
        :class:`repro.incremental.MutationLog`.
        """
        if callback not in self._subscribers:
            self._subscribers.append(callback)

    def unsubscribe(self, callback: MutationSubscriber) -> None:
        """Remove a previously registered subscriber (no-op if absent)."""
        try:
            self._subscribers.remove(callback)
        except ValueError:
            pass

    def _notify(
        self, inserted: Sequence[Row], deleted: Sequence[Row]
    ) -> None:
        # Every mutator reports its effective batch here, subscribed
        # or not, so the digest upkeep sits before the early return.
        self._track_digests(inserted, deleted)
        if not self._subscribers or (not inserted and not deleted):
            return
        ins = tuple(inserted)
        dels = tuple(deleted)
        for callback in list(self._subscribers):
            callback(self, ins, dels)

    # -- mutation --------------------------------------------------------

    def _insert_row(self, row: Sequence[Value]) -> Optional[Row]:
        """Insert core without notification; the new row, or None."""
        tup = tuple(row)
        if len(tup) != self.arity:
            raise IntegrityError(
                f"{self.name}: row arity {len(tup)} != schema arity {self.arity}"
            )
        if tup in self._rows:
            return None
        key = self._pk_of(tup)
        existing = self._pk_index.get(key)
        if existing is not None and existing != tup:
            raise IntegrityError(
                f"{self.name}: duplicate primary key {key} "
                f"(existing row {existing}, new row {tup})"
            )
        self._rows.add(tup)
        self._pk_index[key] = tup
        self._version += 1
        return tup

    def _delete_row(self, row: Sequence[Value]) -> Optional[Row]:
        """Delete core without notification; the stored row removed
        (``1.0`` may be stored for an argument ``1``), or None."""
        tup = tuple(row)
        if tup not in self._rows:
            return None
        stored = self._pk_index.pop(self._pk_of(tup))
        self._rows.discard(stored)
        self._version += 1
        return stored

    def insert(self, row: Sequence[Value]) -> bool:
        """Insert one row; returns True if it was new.

        Raises :class:`IntegrityError` on arity mismatch or when a
        *different* row with the same primary key already exists.
        Re-inserting an identical row is a silent no-op.
        """
        tup = self._insert_row(row)
        if tup is None:
            return False
        self._notify((tup,), ())
        return True

    def insert_many(self, rows: Iterable[Sequence[Value]]) -> int:
        """Insert many rows; returns the number actually added.

        Subscribers see the whole call as one batch — including the
        rows added before a mid-batch :class:`IntegrityError`, so
        mutation logs never miss an effective insert.
        """
        added = []
        try:
            for row in rows:
                tup = self._insert_row(row)
                if tup is not None:
                    added.append(tup)
        finally:
            self._notify(added, ())
        return len(added)

    def delete(self, row: Sequence[Value]) -> bool:
        """Delete one row; returns True if it was present."""
        tup = self._delete_row(row)
        if tup is None:
            return False
        self._notify((), (tup,))
        return True

    def delete_many(self, rows: Iterable[Sequence[Value]]) -> int:
        """Delete many rows; returns the number actually removed.

        Subscribers see the whole call as one batch.
        """
        removed = []
        try:
            for row in rows:
                tup = self._delete_row(row)
                if tup is not None:
                    removed.append(tup)
        finally:
            self._notify((), removed)
        return len(removed)

    def clear(self) -> None:
        """Remove all rows.

        Subscribers see the whole call as one batch.
        """
        dropped = tuple(self._rows)
        try:
            self._rows.clear()
            self._pk_index.clear()
            self._version += 1
        finally:
            self._notify((), dropped)

    def _env_of(self, row: Row) -> Dict[str, Value]:
        return dict(zip(self.schema.attribute_names, row))

    def delete_where(self, predicate: RowPredicate) -> List[Row]:
        """Delete every row matching *predicate*; the deleted rows.

        *predicate* is either a callable over an attribute->value
        mapping or a boolean expression
        (:class:`~repro.engine.expressions.Expression`).  Subscribers
        see the whole call as one batch.
        """
        test = _as_env_predicate(predicate)
        matched = [row for row in self._rows if test(self._env_of(row))]
        deleted: List[Row] = []
        try:
            for row in matched:
                if self._delete_row(row) is not None:
                    deleted.append(row)
        finally:
            self._notify((), deleted)
        return deleted

    def update_where(
        self,
        predicate: RowPredicate,
        assignments: Mapping[str, Union[Value, Callable[[Mapping[str, Value]], Value]]],
    ) -> List[Row]:
        """Rewrite every row matching *predicate*; the new rows.

        *assignments* maps attribute names to replacement values, or to
        callables computing the replacement from the row's
        attribute->value environment.  The update is applied as one
        delete+insert batch (subscribers see it as a single
        notification); rows the assignments leave unchanged are
        untouched.  On a primary-key conflict the relation is rolled
        back to its pre-call state and :class:`IntegrityError`
        propagates.
        """
        positions = {
            self.schema.index_of(name): value
            for name, value in assignments.items()
        }
        test = _as_env_predicate(predicate)
        pairs: List[Tuple[Row, Row]] = []
        for row in self._rows:
            env = self._env_of(row)
            if not test(env):
                continue
            values = list(row)
            for position, value in positions.items():
                values[position] = value(env) if callable(value) else value
            new_row = tuple(values)
            if new_row != row:
                pairs.append((row, new_row))
        inserted: List[Row] = []
        deleted: List[Row] = []
        try:
            for old_row, _ in pairs:
                if self._delete_row(old_row) is not None:
                    deleted.append(old_row)
            try:
                for _, new_row in pairs:
                    if self._insert_row(new_row) is not None:
                        inserted.append(new_row)
            except IntegrityError:
                # Roll back to the pre-call state, shrinking the batch
                # lists as each mutation is undone so the finally-notify
                # below reports exactly the net delta that survived.
                while inserted:
                    self._delete_row(inserted.pop())
                while deleted:
                    self._insert_row(deleted.pop())
                raise
        finally:
            self._notify(inserted, deleted)
        return inserted

    # -- lookups ---------------------------------------------------------

    def _pk_of(self, row: Row) -> Row:
        return tuple(row[i] for i in self.schema.pk_indexes)

    def pk_values(self) -> FrozenSet[Row]:
        """All primary-key values currently present."""
        return frozenset(self._pk_index)

    def lookup_pk(self, key: Sequence[Value]) -> Optional[Row]:
        """The unique row with primary key *key*, or None."""
        return self._pk_index.get(tuple(key))

    def project_values(self, attribute: str) -> Set[Value]:
        """The set of distinct values of *attribute* (NULL excluded)."""
        position = self.schema.index_of(attribute)
        return {row[position] for row in self._rows if not is_null(row[position])}

    def value_of(self, row: Sequence[Value], attribute: str) -> Value:
        """The value of *attribute* in *row*."""
        return tuple(row)[self.schema.index_of(attribute)]

    # -- copying ----------------------------------------------------------

    def copy(self) -> "Relation":
        """A new relation with the same schema and rows."""
        clone = Relation(self.schema)
        clone._rows = set(self._rows)
        clone._pk_index = dict(self._pk_index)
        return clone

    def restricted_to(self, rows: Iterable[Sequence[Value]]) -> "Relation":
        """A new relation containing only the given rows of this one.

        Rows not present in this relation are ignored, so this is a
        safe way to materialize ``R ∩ S`` snapshots.
        """
        keep = {tuple(r) for r in rows} & self._rows
        clone = Relation(self.schema)
        clone.insert_many(keep)
        return clone

    def without(self, rows: Iterable[Sequence[Value]]) -> "Relation":
        """A new relation equal to this one minus *rows* (set difference)."""
        drop = {tuple(r) for r in rows}
        clone = Relation(self.schema)
        clone.insert_many(r for r in self._rows if r not in drop)
        return clone

    def __repr__(self) -> str:
        return f"Relation({self.schema.name}, {len(self)} rows)"

    def pretty(self, limit: int = 20) -> str:
        """A small fixed-width rendering for debugging and examples."""
        headers = list(self.schema.attribute_names)
        body = [[repr(v) for v in row] for row in self.sorted_rows()[:limit]]
        widths = [
            max(len(h), *(len(r[i]) for r in body)) if body else len(h)
            for i, h in enumerate(headers)
        ]
        lines = [
            " | ".join(h.ljust(w) for h, w in zip(headers, widths)),
            "-+-".join("-" * w for w in widths),
        ]
        lines.extend(
            " | ".join(cell.ljust(w) for cell, w in zip(row, widths))
            for row in body
        )
        if len(self) > limit:
            lines.append(f"... ({len(self) - limit} more rows)")
        return "\n".join(lines)
