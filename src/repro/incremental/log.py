"""The mutation log: typed capture of insert/delete batches.

A :class:`MutationLog` subscribes to every relation of a
:class:`~repro.engine.database.Database` (via the
:meth:`Relation.subscribe <repro.engine.relation.Relation.subscribe>`
API) and records each effective mutation as a :class:`MutationBatch` —
the rows actually added and actually removed, in call order.  The log
is the bridge between writes and incremental maintenance:

* :meth:`MutationLog.net_delta` collapses the batch sequence into one
  disjoint (inserted, deleted) pair per relation — the input shape the
  :class:`~repro.incremental.delta.DeltaCubeBuilder` consumes.
* :meth:`MutationLog.checkpoint` rebases the log after a successful
  refresh, so the next delta chain starts from the patched state.

Because subscribers only ever see *effective* batches (re-inserting a
present row or deleting an absent one is invisible), replaying the log
on the base state reconstructs the live state exactly — the property
the conservation checks in the delta builder lean on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Set, Tuple

from ..engine.database import Database
from ..engine.relation import Relation
from ..engine.types import Row

__all__ = ["MutationBatch", "MutationLog"]


@dataclass(frozen=True)
class MutationBatch:
    """One effective mutation batch against a single relation.

    ``seq`` orders batches across all relations of the database;
    ``inserted``/``deleted`` hold the rows a single mutating call
    actually added/removed (never no-ops, possibly both non-empty for
    ``update_where``).
    """

    seq: int
    relation: str
    inserted: Tuple[Row, ...] = field(default_factory=tuple)
    deleted: Tuple[Row, ...] = field(default_factory=tuple)


class MutationLog:
    """An ordered record of mutations against one database.

    The log attaches on construction (pass ``attach=False`` to defer)
    and should be detached with :meth:`detach` — or used as a context
    manager — when the owner goes away, so the relations drop their
    subscriber references.
    """

    def __init__(self, database: Database, *, attach: bool = True) -> None:
        self.database = database
        self._batches: List[MutationBatch] = []
        self._seq = 0
        self._attached = False
        self._base_fingerprint = database.content_fingerprint()
        if attach:
            self.attach()

    # -- lifecycle -------------------------------------------------------

    def attach(self) -> None:
        """Start recording (idempotent)."""
        if self._attached:
            return
        for relation in self.database.relations.values():
            relation.subscribe(self._record)
        self._attached = True

    def detach(self) -> None:
        """Stop recording (idempotent); recorded batches are kept."""
        if not self._attached:
            return
        for relation in self.database.relations.values():
            relation.unsubscribe(self._record)
        self._attached = False

    def __enter__(self) -> "MutationLog":
        self.attach()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.detach()

    def _record(
        self, relation: Relation, inserted: Tuple[Row, ...], deleted: Tuple[Row, ...]
    ) -> None:
        self._seq += 1
        self._batches.append(
            MutationBatch(self._seq, relation.name, inserted, deleted)
        )

    # -- inspection ------------------------------------------------------

    @property
    def base_fingerprint(self) -> str:
        """The database content fingerprint the current chain starts from."""
        return self._base_fingerprint

    @property
    def batches(self) -> Tuple[MutationBatch, ...]:
        """The recorded batches since the last checkpoint, in order."""
        return tuple(self._batches)

    def __len__(self) -> int:
        return len(self._batches)

    @property
    def is_empty(self) -> bool:
        """True iff no mutation happened since the last checkpoint."""
        return not self._batches

    def rows_inserted(self) -> int:
        """Total rows inserted across all recorded batches."""
        return sum(len(b.inserted) for b in self._batches)

    def rows_deleted(self) -> int:
        """Total rows deleted across all recorded batches."""
        return sum(len(b.deleted) for b in self._batches)

    # -- delta algebra ---------------------------------------------------

    def net_delta(self) -> Dict[str, Tuple[FrozenSet[Row], FrozenSet[Row]]]:
        """Per-relation ``(inserted, deleted)`` with cancellation applied.

        Replays the batch sequence so an insert-then-delete (or
        delete-then-reinsert) of the same row nets out to nothing.  The
        two returned sets are disjoint: exactly ``R_new - R_old`` and
        ``R_old - R_new``.  Relations with an empty net change are
        omitted.
        """
        net: Dict[str, Tuple[Set[Row], Set[Row]]] = {}
        for batch in self._batches:
            ins, dels = net.setdefault(batch.relation, (set(), set()))
            for row in batch.deleted:
                if row in ins:
                    ins.discard(row)
                else:
                    dels.add(row)
            for row in batch.inserted:
                if row in dels:
                    dels.discard(row)
                else:
                    ins.add(row)
        return {
            name: (frozenset(ins), frozenset(dels))
            for name, (ins, dels) in net.items()
            if ins or dels
        }

    # -- rebasing --------------------------------------------------------

    def checkpoint(self) -> str:
        """Drop recorded batches and rebase on the current database state.

        Returns the new base fingerprint.  Called after a successful
        refresh (patch or full rebuild), so subsequent mutations start
        a fresh delta chain.  The relations keep their row digests
        current, so the fingerprint read hashes no row twice.
        """
        self._batches.clear()
        self._base_fingerprint = self.database.content_fingerprint()
        return self._base_fingerprint
