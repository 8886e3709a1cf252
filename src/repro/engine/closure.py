"""FK cascade closure index: Δ^φ by index probes instead of iteration.

Program **P** (:mod:`repro.core.intervention`) reaches Δ^φ by stages
whose worst case is Θ(n) iterations (Example 3.7's back-and-forth
chains).  Most of that work is *data independent*: the tuples a single
deletion transitively forces — through the standard cascade (deleting
a referenced tuple deletes its referencing tuples) and the
back-and-forth cascade (deleting a referencing tuple deletes the tuple
it references, Definition 2.5) — depend only on the database instance,
never on φ.  This module precomputes them once per database:

* every stored tuple gets a dense integer id (relations are laid out
  contiguously, so per-relation id ranges are intervals); the ids are
  those of the database's :class:`~repro.engine.reduction.DeltaReducer`;
* the cascade edges form a directed graph over those ids; strongly
  connected components (every back-and-forth pair is a 2-cycle) are
  condensed with an iterative Tarjan pass;
* per component, the *reachable set* — the full transitive deletion
  closure — is materialized bottom-up over the condensation DAG and
  stored as a **posting list of id intervals** (sorted, disjoint,
  inclusive runs), the same index-friendly encoding DMR-style XPath
  accelerators use for tree axes.

What closures cannot precompute is Rule (ii)'s *support loss*: a tuple
dies when its **last** join partner dies, which depends on how many
partners φ's seeds happened to hit.  :meth:`ClosureIndex.delta_from_seeds`
therefore alternates closure probes with a repair: the round's newly
deleted tuples go to one :class:`~repro.engine.reduction.SupportLoss`,
which reports exactly the tuples a full semijoin reduction of the
residual would drop, and their closures feed the next round, until
quiescence.  All of program P's rules are monotone (Proposition 3.1),
so this chaotic schedule reaches the **same least fixpoint** —
byte-identical deltas, and therefore byte-identical explanation
tables — while each repair round makes at least one naive iteration of
progress, so the round count never exceeds the certified fixpoint
bound.

The index is a :meth:`~repro.engine.database.Database.derived` entry
(:func:`ClosureIndex.for_database`), so a write retires it together
with the reducer and ``U(D)``.  It also subscribes to its relations and
marks itself stale on their first write, so a caller still holding it
gets :class:`StaleClosureIndexError` instead of a pre-write answer.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Set, Tuple

from ..errors import ReproError
from ..obs import get_registry, phase
from .database import Database, Delta
from .reduction import DeltaReducer
from .relation import Relation
from .schema import DatabaseSchema
from .types import Row

#: Inclusive ``(start, stop)`` id intervals — the posting-list encoding.
Runs = Tuple[Tuple[int, int], ...]

_BUILD_NODES = get_registry().histogram(
    "repro_closure_build_nodes",
    buckets=(8.0, 32.0, 128.0, 512.0, 2048.0, 8192.0, 32768.0),
    help="Tuples (graph nodes) per closure-index build.",
)
_PROBE_ROWS = get_registry().histogram(
    "repro_closure_probe_rows",
    buckets=(0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 64.0, 256.0, 1024.0),
    help="Tuples contributed by one closure probe (one seed's runs).",
)
_REPAIR_ROUNDS = get_registry().histogram(
    "repro_closure_repair_rounds",
    buckets=(0.0, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0),
    help="Semijoin repair rounds per closure-strategy delta.",
)


class StaleClosureIndexError(ReproError):
    """A probe hit a closure index whose database has since mutated."""


@dataclass(frozen=True)
class ClosureDelta:
    """One Δ^φ computed by closure probes plus semijoin repair.

    ``rounds`` counts *productive* repair rounds (rounds that added at
    least one tuple), mirroring program P's productive-iteration
    counting; ``new_by_round`` maps each round's rule labels
    ("seed", "closure", "reduce") to the tuples it contributed.
    """

    delta: Delta
    rounds: int
    new_by_round: Tuple[Dict[str, int], ...]
    probes: int


class ClosureIndex:
    """Per-tuple transitive deletion closures for one database snapshot.

    Construction cost is one pass to build the cascade graph plus a
    linear-time SCC condensation and a bottom-up reachability sweep;
    memory is the sum of all closure posting lists (interval-compressed,
    so a chain whose head forces the whole database stores one run).
    """

    def __init__(self, database: Database) -> None:
        self.schema: DatabaseSchema = database.schema
        self._stale = False
        with phase("closure.build") as ph:
            self._reducer = DeltaReducer.for_database(database)
            self._ids = self._reducer.ids
            self._entries = self._reducer.entries
            self._n = len(self._entries)
            edges = self._cascade_edges()
            scc_of, components = _condense(self._n, edges)
            self._scc_of = scc_of
            self._runs = _reachable_runs(components, scc_of, edges)
            ph.annotate(
                nodes=self._n,
                edges=sum(len(targets) for targets in edges),
                components=len(components),
                runs=sum(len(r) for r in self._runs),
            )
        _BUILD_NODES.observe(float(self._n))
        self._subscribed: List[Relation] = []
        self._invalidator = self._make_invalidator()
        for name in self.schema.relation_names:
            rel = database.relation(name)
            rel.subscribe(self._invalidator)
            self._subscribed.append(rel)

    # -- construction ------------------------------------------------------

    def _cascade_edges(self) -> List[Set[int]]:
        """``u -> v`` iff deleting tuple *u* deterministically deletes *v*."""
        edges: List[Set[int]] = [set() for _ in range(self._n)]
        for fk in self.schema.foreign_keys:
            for sources, targets in self._reducer.joined[fk]:
                # Standard cascade: target gone => source gone.
                for tid in targets:
                    edges[tid].update(sources)
                if fk.back_and_forth:
                    # Back-and-forth cascade: source gone => target gone.
                    # Together these form a 2-cycle, which is why the
                    # condensation pass matters.
                    for sid in sources:
                        edges[sid].update(targets)
        return edges

    # -- caching / invalidation --------------------------------------------

    @classmethod
    def for_database(cls, database: Database) -> "ClosureIndex":
        """The closure index of *database*'s current version, built once.

        A :meth:`Database.derived` entry, like the reducer it takes its
        ids from.  An index invalidated by hand, with no write since,
        is not served: the caller gets a fresh one.
        """
        index = database.derived("closure_index", lambda: cls(database))
        return cls(database) if index.stale else index

    def _make_invalidator(
        self,
    ) -> Callable[[Relation, Tuple[Row, ...], Tuple[Row, ...]], None]:
        index_ref = weakref.ref(self)

        def _invalidate(
            relation: Relation,
            inserted: Tuple[Row, ...],
            deleted: Tuple[Row, ...],
        ) -> None:
            index = index_ref()
            if index is None:  # dropped without a write: stop listening
                relation.unsubscribe(_invalidate)
            else:
                index.invalidate()

        return _invalidate

    def invalidate(self) -> None:
        """Mark the index stale and unsubscribe it from its relations."""
        if self._stale:
            return
        self._stale = True
        for rel in self._subscribed:
            rel.unsubscribe(self._invalidator)
        self._subscribed = []

    @property
    def stale(self) -> bool:
        """True once the underlying database has mutated."""
        return self._stale

    # -- probes ------------------------------------------------------------

    @property
    def tuple_count(self) -> int:
        """Indexed tuples (the paper's n at build time)."""
        return self._n

    def closure_runs(self, relation: str, row: Row) -> Runs:
        """The id-interval posting list of one tuple's deletion closure."""
        self._check_fresh()
        try:
            rid = self._ids[relation][row]
        except KeyError:
            raise ReproError(
                f"tuple {row!r} is not in relation {relation!r}"
            ) from None
        return self._runs[self._scc_of[rid]]

    def _check_fresh(self) -> None:
        if self._stale:
            raise StaleClosureIndexError(
                "closure index is stale: the database mutated after the "
                "index was built; rebuild via ClosureIndex.for_database"
            )

    # -- Δ^φ ---------------------------------------------------------------

    def delta_from_seeds(self, seeds: Delta) -> ClosureDelta:
        """The least fixpoint of program P above *seeds*, by probing.

        Each round (1) unions the precomputed closures of every tuple
        newly deleted since the last round and (2) hands the round's
        new tuples to the support-loss repair, whose drops — exactly
        what a full semijoin reduction of the residual would drop —
        feed the next round.  Quiescence is
        reached within the certified fixpoint bound (each round
        dominates one naive iteration), and typically in one round —
        the whole Example 3.7 zig-zag is a single closure.
        """
        self._check_fresh()
        with phase("closure.delta") as ph:
            deleted: Set[int] = set()
            extra: Dict[str, Set[Row]] = {}
            queue: List[int] = []
            support = self._reducer.start()
            seed_new = 0
            for name, rows in seeds.parts().items():
                idmap = self._ids[name]
                for row in rows:
                    seed_new += 1
                    rid = idmap.get(row)
                    if rid is None:
                        # Seeds outside D (possible with caller-supplied
                        # deltas) are kept verbatim; they cascade nothing.
                        extra.setdefault(name, set()).add(row)
                    elif rid not in deleted:
                        deleted.add(rid)
                        queue.append(rid)
            new_by_round: List[Dict[str, int]] = []
            rounds = 0
            probes = 0
            first = True
            # Every id deleted this round, seeds included, goes to the
            # repair; the ids it drops were alive, so none is counted
            # twice.
            fresh: List[int] = list(queue)
            while True:
                closure_new = 0
                for rid in queue:
                    probes += 1
                    contributed = 0
                    for start, stop in self._runs[self._scc_of[rid]]:
                        for i in range(start, stop + 1):
                            if i not in deleted:
                                deleted.add(i)
                                fresh.append(i)
                                contributed += 1
                    _PROBE_ROWS.observe(float(contributed))
                    closure_new += contributed
                queue = support.drop(fresh)
                deleted.update(queue)
                reduce_new = len(queue)
                fresh = []
                new_by_rule = {
                    label: count
                    for label, count in (
                        ("seed", seed_new if first else 0),
                        ("closure", closure_new),
                        ("reduce", reduce_new),
                    )
                    if count
                }
                first = False
                if new_by_rule:
                    rounds += 1
                    new_by_round.append(new_by_rule)
                if not queue:
                    break
            parts: Dict[str, Set[Row]] = {
                name: set(rows) for name, rows in extra.items()
            }
            for rid in deleted:
                name, row = self._entries[rid]
                parts.setdefault(name, set()).add(row)
            ph.annotate(
                rounds=rounds,
                probes=probes,
                rows=sum(len(rows) for rows in parts.values()),
            )
        _REPAIR_ROUNDS.observe(float(rounds))
        return ClosureDelta(
            delta=Delta(self.schema, parts),
            rounds=rounds,
            new_by_round=tuple(new_by_round),
            probes=probes,
        )


# -- graph plumbing ---------------------------------------------------------


def _condense(
    n: int, edges: List[Set[int]]
) -> Tuple[List[int], List[List[int]]]:
    """Iterative Tarjan SCC.  Components come out in reverse
    topological order of the condensation (every successor component
    before its predecessors), which is exactly the order the
    reachability sweep needs."""
    index_of = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    scc_of = [-1] * n
    stack: List[int] = []
    components: List[List[int]] = []
    counter = 0
    for root in range(n):
        if index_of[root] != -1:
            continue
        work: List[Tuple[int, Iterable[int]]] = [(root, iter(edges[root]))]
        index_of[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            v, children = work[-1]
            advanced = False
            for w in children:
                if index_of[w] == -1:
                    index_of[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(edges[w])))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index_of[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index_of[v]:
                component: List[int] = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    scc_of[w] = len(components)
                    component.append(w)
                    if w == v:
                        break
                components.append(component)
    return scc_of, components


def _reachable_runs(
    components: List[List[int]],
    scc_of: List[int],
    edges: List[Set[int]],
) -> List[Runs]:
    """Per component, the reachable tuple ids as interval posting lists.

    Processed in Tarjan emission order, so every successor component's
    closure is already final when a component unions it in.
    """
    closures: List[Set[int]] = []
    runs: List[Runs] = []
    for scc_id, members in enumerate(components):
        reach: Set[int] = set(members)
        for v in members:
            for w in edges[v]:
                target = scc_of[w]
                if target != scc_id:
                    reach |= closures[target]
        closures.append(reach)
        runs.append(_compress(reach))
    return runs


def _compress(ids: Iterable[int]) -> Runs:
    """Sorted inclusive ``(start, stop)`` runs covering *ids*."""
    out: List[List[int]] = []
    for i in sorted(ids):
        if out and i == out[-1][1] + 1:
            out[-1][1] = i
        else:
            out.append([i, i])
    return tuple((a, b) for a, b in out)
