"""Semijoin reduction: the Yannakakis full reducer and its delta form.

A database is *semijoin-reduced* (the paper's term; "globally
consistent" in [Abiteboul-Hull-Vianu]) when every tuple of every
relation participates in at least one universal tuple:
``R_i = Π_{A_i}(U(D))`` for all i.  For an acyclic join tree the
classic two-pass semijoin program achieves this:

1. bottom-up: for each edge (child, parent), ``parent ⋉ child``;
2. top-down:  for each edge (child, parent), ``child ⋉ parent``.

:func:`reduce_row_sets` runs that program on plain row-set
dictionaries, and :func:`semijoin_reduce` offers the same service at
the :class:`Database` level.

Cyclic schemas (``require_acyclic=False``; TPC-H's partsupp diamond)
add the join tree's :attr:`~repro.engine.universal.JoinTree.residual_edges`
as extra semijoin pairs and iterate all passes to a fixpoint, because
one sweep no longer guarantees pairwise consistency.  Removal-only
semijoins are confluent, so the fixpoint is order-independent and
deterministic.  Note that for a cyclic join graph pairwise consistency
is necessary but not sufficient for global consistency; program P's
rule (i) restores the global property by seeding every tuple outside
``Π_{A_i}(σ_{¬φ} U(D))`` directly.

Either way the reducer keeps exactly the tuples that have a partner
on every foreign key, both sides, once the partnerless ones are gone
transitively.  A key with a NULL component has no partner
(:func:`~repro.engine.types.join_key`), just as ``U(D)`` never joins it,
so on an acyclic schema the reduction keeps exactly ``Π_{A_i}(U(D))``.
Rule (ii) of the paper's recursive program **P** asks
for that reduction of ``D − Δ`` after every step, and Δ only grows.
:class:`DeltaReducer` therefore answers it by *deletion propagation*
instead of re-reducing D: built once per database version, it keeps
each foreign key's key → tuples postings for both sides and D's own
partnerless tuples.  A :class:`SupportLoss` (one per Δ) counts the
partners each key has lost; a tuple dies when the last partner on some
edge dies, and the worklist runs on transitively.  The work is
|Δ| times the fan-out, not |D|, and the tuples it reports are exactly
``residual − reduce_row_sets(residual)``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from .database import Database, Delta
from .schema import DatabaseSchema, ForeignKey
from .types import Row, join_key
from .universal import JoinTree

RowSets = Dict[str, Set[Row]]


def _semijoin_in_place(
    schema: DatabaseSchema, rowsets: RowSets, keep: str, probe: str, fk: ForeignKey
) -> bool:
    """``rowsets[keep] ⋉ rowsets[probe]`` on *fk*, in place; True if rows
    dropped."""
    keep_pos = schema.relation(keep).indexes_of(_edge_attrs(fk, keep))
    probe_pos = schema.relation(probe).indexes_of(_edge_attrs(fk, probe))
    probe_keys = {
        join_key(tuple(row[i] for i in probe_pos)) for row in rowsets[probe]
    }
    probe_keys.discard(None)
    survivors = {
        row
        for row in rowsets[keep]
        if join_key(tuple(row[i] for i in keep_pos)) in probe_keys
    }
    changed = len(survivors) != len(rowsets[keep])
    rowsets[keep] = survivors
    return changed


def _edge_attrs(fk: ForeignKey, side: str) -> Tuple[str, ...]:
    """The join attributes of *fk* on relation *side*."""
    return fk.source_attrs if side == fk.source else fk.target_attrs


def reduce_row_sets(
    schema: DatabaseSchema,
    rowsets: RowSets,
    join_tree: Optional[JoinTree] = None,
) -> RowSets:
    """Full reducer over plain per-relation row sets (in place).

    Returns the same dict for convenience.  After the call, for every
    foreign-key edge both sides agree on their join values, which for
    an acyclic schema implies global consistency.
    """
    tree = join_tree or JoinTree(schema)
    # (kept side, probed side, fk): bottom-up, top-down, then both
    # directions of every residual edge.
    schedule = (
        [(parent, child, fk) for child, parent, fk in tree.bottom_up_edges()]
        + [(child, parent, fk) for child, parent, fk in tree.top_down_edges()]
        + [
            pair
            for fk in tree.residual_edges
            for pair in ((fk.source, fk.target, fk), (fk.target, fk.source, fk))
        ]
    )

    def sweep() -> bool:
        changed = False
        for keep, probe, fk in schedule:
            changed |= _semijoin_in_place(schema, rowsets, keep, probe, fk)
        return changed

    if not tree.residual_edges:
        sweep()  # one Yannakakis double pass fully reduces a tree
        return rowsets
    while sweep():
        pass
    return rowsets


def semijoin_reduce(
    database: Database, join_tree: Optional[JoinTree] = None
) -> Tuple[Database, Delta]:
    """Reduce a database; returns (reduced database, removed tuples).

    The removed tuples are the *dangling* tuples that participate in no
    universal tuple.  The input database is not modified.
    """
    original = {name: rel.rows() for name, rel in database.relations.items()}
    rowsets: RowSets = {name: set(rows) for name, rows in original.items()}
    reduce_row_sets(database.schema, rowsets, join_tree)
    removed = {name: original[name] - rowsets[name] for name in rowsets}
    return Database(database.schema, rowsets), Delta(database.schema, removed)


class DeltaReducer:
    """Foreign-key support postings of one database version.

    Every stored tuple gets a dense integer id (relations contiguous,
    in schema order).  For each foreign key — join-tree and residual
    edges alike — and each of its sides, the tuples are grouped by join
    key; a group's *partner* is the other side's group with the same
    key.  A tuple whose key has a NULL component is in no group and has
    no partner, as in :func:`reduce_row_sets`.  Program P's other two
    uses of the keys read the same groups: :attr:`joined` gives the
    closure index its cascade edges and :attr:`referenced` gives rule
    (iii) its targets.  Use :meth:`for_database` to share one reducer
    per database version.
    """

    def __init__(self, database: Database) -> None:
        schema = database.schema
        self.schema = schema
        #: relation -> row -> dense id, in :meth:`Relation.row_list` order.
        self.ids: Dict[str, Dict[Row, int]] = {}
        #: dense id -> (relation, row).
        self.entries: List[Tuple[str, Row]] = []
        for name in schema.relation_names:
            idmap: Dict[Row, int] = {}
            for row in database.relation(name).row_list():
                idmap[row] = len(self.entries)
                self.entries.append((name, row))
            self.ids[name] = idmap
        self._members: List[List[int]] = []
        self._partner: List[int] = []
        self._groups_of: List[List[int]] = [[] for _ in self.entries]
        keyless: Set[int] = set()
        #: Per foreign key: (source ids, target ids) of each join key
        #: both sides share.
        self.joined: Dict[ForeignKey, List[Tuple[List[int], List[int]]]] = {}
        for fk in schema.foreign_keys:
            source, target = (
                self._group(fk, side, keyless) for side in (fk.source, fk.target)
            )
            self.joined[fk] = []
            for key, group in source.items():
                partner = target.get(key)
                if partner is not None:
                    self._partner[group], self._partner[partner] = partner, group
                    self.joined[fk].append(
                        (self._members[group], self._members[partner])
                    )
        #: Tuples of D with no partner on some edge; every Δ drops them.
        self.unsupported: Tuple[int, ...] = tuple(
            keyless.union(
                rid
                for group, partner in enumerate(self._partner)
                if partner < 0
                for rid in self._members[group]
            )
        )
        #: Per back-and-forth key: source row -> the target rows it
        #: references (rule iii).
        self.referenced: Dict[ForeignKey, Dict[Row, List[Row]]] = {
            fk: {
                self.entries[sid][1]: [self.entries[tid][1] for tid in targets]
                for sources, targets in self.joined[fk]
                for sid in sources
            }
            for fk in schema.back_and_forth_keys
        }

    def _group(self, fk: ForeignKey, side: str, keyless: Set[int]) -> Dict[Row, int]:
        """Group *side*'s tuples by their *fk* join key; key -> group.

        A tuple whose key has a NULL component joins nothing: it goes
        to *keyless* instead.
        """
        pos = self.schema.relation(side).indexes_of(_edge_attrs(fk, side))
        groups: Dict[Row, int] = {}
        for row, rid in self.ids[side].items():
            key = join_key(tuple(row[i] for i in pos))
            if key is None:
                keyless.add(rid)
                continue
            group = groups.get(key)
            if group is None:
                group = groups[key] = len(self._members)
                self._members.append([])
                self._partner.append(-1)
            self._members[group].append(rid)
            self._groups_of[rid].append(group)
        return groups

    @classmethod
    def for_database(cls, database: Database) -> "DeltaReducer":
        """The reducer of *database*'s current version, built once.

        A :meth:`Database.derived` entry, like ``U(D)``; a write makes
        the next call build afresh.
        """
        return database.derived("reducer", lambda: cls(database))

    def start(self) -> "SupportLoss":
        """Fresh support-loss state for one Δ, starting from Δ = ∅."""
        return SupportLoss(self)


class SupportLoss:
    """The tuples one growing Δ has killed, and the partners each
    foreign-key group has lost.

    After :meth:`drop` has been handed every tuple of Δ, :attr:`dead`
    is Δ plus ``(D − Δ) − reduce_row_sets(D − Δ)``: removal is
    monotone, so feeding Δ in any number of steps gives the same set.
    """

    def __init__(self, reducer: DeltaReducer) -> None:
        self._reducer = reducer
        #: Dense ids of every tuple deleted or dropped so far.
        self.dead: Set[int] = set()
        self._lost: Dict[int, int] = {}
        self._pending: Tuple[int, ...] = reducer.unsupported

    def drop(self, ids: Iterable[int]) -> List[int]:
        """Delete the tuples *ids*; return the ids that lose their last
        partner on some edge as a result, transitively.

        The returned ids were alive before the call and are not among
        *ids*.  The first call also drops D's own partnerless tuples.
        """
        dead = self.dead
        work: List[int] = []
        for rid in ids:
            if rid not in dead:
                dead.add(rid)
                work.append(rid)
        dropped: List[int] = []
        for rid in self._pending:
            if rid not in dead:
                dead.add(rid)
                dropped.append(rid)
        self._pending = ()
        work.extend(dropped)
        reducer = self._reducer
        members, partner, groups_of = (
            reducer._members,
            reducer._partner,
            reducer._groups_of,
        )
        lost = self._lost
        while work:
            for group in groups_of[work.pop()]:
                count = lost.get(group, 0) + 1
                lost[group] = count
                if count == len(members[group]) and partner[group] >= 0:
                    # The last tuple with this key is gone: every
                    # partner on the other side loses its support.
                    for rid in members[partner[group]]:
                        if rid not in dead:
                            dead.add(rid)
                            dropped.append(rid)
                            work.append(rid)
        return dropped
