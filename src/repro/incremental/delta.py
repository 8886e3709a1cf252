"""Delta cubes: exact incremental maintenance of per-aggregate states.

The cold cube path (Algorithm 1) computes, per aggregate ``q_j``, the
full-granularity base states of ``σ_{w_j}(U)`` grouped by the
candidate attributes, rolls them up into all ``2^d`` grouping sets,
and joins the per-aggregate cubes into the explanation table.  The
only part of that pipeline that touches all ``n`` rows is the base
state construction — everything downstream is proportional to the
number of *distinct* attribute keys.

:class:`DeltaCubeBuilder` keeps those base states resident in an
*invertible* form, so a mutation batch can be applied by cubing only
the delta's universal rows:

* ``count_star`` — a plain int per key, the engine's own count-only
  group state.
* ``count`` — ``[rows, nonnull]``.
* ``count_distinct`` — ``[rows, Counter]``: a multiset of argument
  values.  The engine's set-based accumulator is *not* invertible
  (deleting one witness of a value seen twice must not drop it); the
  multiset is, exactly.
* ``sum`` — ``[rows, nonnull, total]`` over **integers only**; float
  retraction is inexact, so a float argument raises
  :class:`~repro.errors.IncrementalError` and the session falls back.

For a mutated relation ``R_i`` the delta's universal rows follow the
standard sequential delta rule for multilinear joins: process mutated
relations in schema order; for relation ``i`` join its deleted
(inserted) rows against already-processed relations at their *new*
state and not-yet-processed ones at their *old* state, then retract
(add) the resulting rows.  Retraction is conservation-checked — a
negative count, a phantom group, or a non-empty residue at rowcount
zero raises :class:`~repro.errors.IncrementalError` instead of
producing a silently wrong table.

Emission (:meth:`DeltaCubeBuilder.table`) converts the maintained
states back into engine group states and feeds them through the
*identical* cold pipeline — :func:`~repro.engine.cube.cube_from_base_states`,
:func:`~repro.engine.cube.dummy_rewrite`,
:func:`~repro.engine.joins.full_outer_join_many`,
:func:`~repro.core.cube_algorithm.finalize_explanation_table` — so a
patched table is byte-identical in content to a cold rebuild.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    FrozenSet,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..engine.aggregates import AggregateSpec
from ..engine.cube import cube_from_base_states, dummy_rewrite
from ..engine.database import Database
from ..engine.joins import full_outer_join_many
from ..engine.relation import Relation
from ..engine.table import Table
from ..engine.types import NULL, Row, Value, is_null
from ..engine.universal import universal_table
from ..errors import IncrementalError

if TYPE_CHECKING:  # pragma: no cover - typing only (core sits above us)
    from ..core.cube_algorithm import ExplanationTable
    from ..core.numquery import AggregateQuery
    from ..core.question import UserQuestion

__all__ = ["PATCHABLE_KINDS", "DeltaApplyStats", "DeltaCubeBuilder"]

#: Aggregate kinds with an exact invertible state representation.
PATCHABLE_KINDS = frozenset({"count_star", "count", "count_distinct", "sum"})

#: A maintained group state: ``int`` for count_star, a small list for
#: the other kinds (see the module docstring).
_State = Any


@dataclass
class DeltaApplyStats:
    """What one :meth:`DeltaCubeBuilder.apply` call did."""

    relations: int = 0
    delta_rows_added: int = 0
    delta_rows_removed: int = 0
    groups_touched: int = 0


class _MaintainedAggregate:
    """Invertible base states for one aggregate query ``q_j``."""

    def __init__(self, query: "AggregateQuery") -> None:
        kind = query.aggregate.kind
        if kind not in PATCHABLE_KINDS:
            raise IncrementalError(
                f"aggregate kind {kind!r} has no invertible state",
                reason="unsupported-aggregate",
            )
        self.query = query
        self.name = query.name
        self.kind = kind
        self.argument: Optional[str] = query.aggregate.argument
        self.states: Dict[Row, _State] = {}

    # -- state construction ----------------------------------------------

    def rebuild(self, universal: Table, attributes: Sequence[str]) -> None:
        """Recompute the states from scratch over *universal*."""
        self.states = self._states_of(
            self.query.filtered(universal), attributes
        )

    def _states_of(
        self, table: Table, attributes: Sequence[str]
    ) -> Dict[Row, _State]:
        """Group *table* (already WHERE-filtered) into invertible states."""
        key_positions = table.positions(attributes)
        arg_position = (
            table.position(self.argument) if self.argument is not None else None
        )
        states: Dict[Row, _State] = {}
        kind = self.kind
        for row in table.rows():
            key = tuple(row[i] for i in key_positions)
            if any(is_null(v) for v in key):
                raise IncrementalError(
                    f"NULL value in candidate attributes at {key!r}; the "
                    "cube build rejects NULL dimensions",
                    reason="null-dimension",
                )
            if kind == "count_star":
                states[key] = states.get(key, 0) + 1
                continue
            value = row[arg_position] if arg_position is not None else NULL
            state = states.get(key)
            if kind == "count":
                if state is None:
                    state = states[key] = [0, 0]
                state[0] += 1
                if not is_null(value):
                    state[1] += 1
            elif kind == "count_distinct":
                if state is None:
                    state = states[key] = [0, Counter()]
                state[0] += 1
                if not is_null(value):
                    state[1][value] += 1
            else:  # sum
                if state is None:
                    state = states[key] = [0, 0, 0]
                state[0] += 1
                if not is_null(value):
                    if isinstance(value, float):
                        raise IncrementalError(
                            f"SUM({self.argument}) over float {value!r}: "
                            "float retraction is not exact",
                            reason="float-sum",
                        )
                    state[1] += 1
                    state[2] += value
        return states

    def contribution(
        self, delta_universal: Table, attributes: Sequence[str]
    ) -> Dict[Row, _State]:
        """The delta's own base states."""
        return self._states_of(
            self.query.filtered(delta_universal), attributes
        )

    # -- fold -------------------------------------------------------------

    def fold(
        self, contribution: Mapping[Row, _State], sign: int
    ) -> FrozenSet[Row]:
        """Add (+1) or retract (-1) a contribution; the touched keys."""
        states = self.states
        kind = self.kind
        for key, contrib in contribution.items():
            state = states.get(key)
            if sign > 0:
                if state is None:
                    states[key] = (
                        contrib if kind == "count_star" else list(contrib)
                    )
                    if kind == "count_distinct":
                        states[key][1] = Counter(contrib[1])
                elif kind == "count_star":
                    states[key] = state + contrib
                elif kind == "count":
                    state[0] += contrib[0]
                    state[1] += contrib[1]
                elif kind == "count_distinct":
                    state[0] += contrib[0]
                    state[1].update(contrib[1])
                else:  # sum
                    state[0] += contrib[0]
                    state[1] += contrib[1]
                    state[2] += contrib[2]
                continue
            # Retraction: every decrement is conservation-checked.
            if state is None:
                raise IncrementalError(
                    f"{self.name}: retraction of unknown group {key!r}",
                    reason="conservation",
                )
            if kind == "count_star":
                remaining = state - contrib
                self._check_nonnegative(key, remaining)
                if remaining == 0:
                    del states[key]
                else:
                    states[key] = remaining
            elif kind == "count":
                state[0] -= contrib[0]
                state[1] -= contrib[1]
                self._check_nonnegative(key, state[0], state[1])
                if state[0] == 0:
                    self._check_empty(key, state[1] == 0)
                    del states[key]
            elif kind == "count_distinct":
                state[0] -= contrib[0]
                self._check_nonnegative(key, state[0])
                counter = state[1]
                counter.subtract(contrib[1])
                for value, count in contrib[1].items():
                    left = counter[value]
                    self._check_nonnegative(key, left)
                    if left == 0:
                        del counter[value]
                if state[0] == 0:
                    self._check_empty(key, not counter)
                    del states[key]
            else:  # sum
                state[0] -= contrib[0]
                state[1] -= contrib[1]
                state[2] -= contrib[2]
                self._check_nonnegative(key, state[0], state[1])
                if state[0] == 0:
                    self._check_empty(key, state[1] == 0 and state[2] == 0)
                    del states[key]
        return frozenset(contribution)

    def _check_nonnegative(self, key: Row, *counts: int) -> None:
        if any(c < 0 for c in counts):
            raise IncrementalError(
                f"{self.name}: negative count after retraction at group "
                f"{key!r}",
                reason="conservation",
            )

    def _check_empty(self, key: Row, empty: bool) -> None:
        if not empty:
            raise IncrementalError(
                f"{self.name}: group {key!r} reached zero rows with a "
                "non-empty residual state",
                reason="conservation",
            )

    # -- emission ---------------------------------------------------------

    def emit_spec(self) -> AggregateSpec:
        """The per-aggregate cube spec, aliased exactly like the cold path."""
        source = self.query.aggregate
        return type(source)(source.kind, source.argument, f"v_{self.name}")

    def emit_states(
        self, spec: AggregateSpec
    ) -> Tuple[Dict[Row, Any], bool]:
        """Engine group states equivalent to the maintained ones.

        Fresh objects every call: the cube rollup adopts (and keeps
        merging into) the accumulators it is handed, so the maintained
        states must never be exposed directly.
        """
        if self.kind == "count_star":
            return dict(self.states), True
        out: Dict[Row, Any] = {}
        for key, state in self.states.items():
            acc = spec.make_accumulator()
            if self.kind == "count":
                acc.count = state[1]
            elif self.kind == "count_distinct":
                acc.seen = set(state[1])
            else:  # sum
                acc.total = state[2]
                acc.any = state[1] > 0
            out[key] = [acc]
        return out, False

    def grand_total(self) -> Value:
        """``q_j(D)`` read off the maintained states (Alg. 1's u_j)."""
        if self.kind == "count_star":
            return sum(self.states.values())
        if self.kind == "count":
            return sum(state[1] for state in self.states.values())
        if self.kind == "count_distinct":
            distinct: set = set()
            for state in self.states.values():
                distinct.update(state[1])
            return len(distinct)
        nonnull = sum(state[1] for state in self.states.values())
        if nonnull == 0:
            return NULL
        return sum(state[2] for state in self.states.values())


class DeltaCubeBuilder:
    """Maintains the cube base states of one explanation plan.

    Construction validates that every aggregate of the plan's
    numerical query has an invertible state (raising
    :class:`~repro.errors.IncrementalError` otherwise) and builds the
    initial states from the database's current universal table — the
    one remaining O(n) pass.  Afterwards :meth:`apply` folds net
    mutation deltas in time proportional to the delta's universal
    rows, and :meth:`table` emits an explanation table content-equal
    to a cold rebuild.
    """

    def __init__(
        self,
        database: Database,
        question: "UserQuestion",
        attributes: Sequence[str],
        *,
        support_threshold: Optional[float] = None,
        universal: Optional[Table] = None,
    ) -> None:
        self.database = database
        self.question = question
        self.attributes = tuple(attributes)
        self.support_threshold = support_threshold
        self._aggregates = [
            _MaintainedAggregate(q) for q in question.query.aggregates
        ]
        self.reset(universal=universal)

    def reset(self, *, universal: Optional[Table] = None) -> None:
        """(Re)build all base states from the database's current state."""
        u = (
            universal
            if universal is not None
            else universal_table(self.database)
        )
        for aggregate in self._aggregates:
            aggregate.rebuild(u, self.attributes)

    # -- delta application -------------------------------------------------

    def apply(
        self, net: Mapping[str, Tuple[FrozenSet[Row], FrozenSet[Row]]]
    ) -> DeltaApplyStats:
        """Fold a net delta (from :meth:`MutationLog.net_delta`) in.

        The database must already be at its *post*-mutation state (the
        log records as writes land, so this is the natural call
        order).  Raises :class:`~repro.errors.IncrementalError` on any
        exactness violation; the builder's states are then stale and
        must be :meth:`reset` before further use.
        """
        stats = DeltaApplyStats()
        mutated = [
            name
            for name in self.database.relation_names
            if name in net and (net[name][0] or net[name][1])
        ]
        if not mutated:
            return stats
        stats.relations = len(mutated)
        touched: set = set()
        # Old states of not-yet-processed mutated relations, rebuilt
        # from the live (new) state: R_old = (R_new - I) ∪ D.  The
        # first mutated relation is never read at its old state, so
        # the common single-relation delta skips the O(n) copy.
        old_states: Dict[str, Relation] = {}
        for name in mutated[1:]:
            ins, dels = net[name]
            old = self.database.relation(name).without(ins)
            old.insert_many(dels)
            old_states[name] = old
        for index, name in enumerate(mutated):
            ins, dels = net[name]
            others: Dict[str, Relation] = {}
            for other in self.database.relation_names:
                if other == name:
                    continue
                if other in mutated and mutated.index(other) > index:
                    others[other] = old_states[other]
                else:
                    others[other] = self.database.relation(other)
            if dels:
                delta_u = self._delta_universal(name, dels, others)
                stats.delta_rows_removed += len(delta_u)
                touched |= self._fold_all(delta_u, -1)
            if ins:
                delta_u = self._delta_universal(name, ins, others)
                stats.delta_rows_added += len(delta_u)
                touched |= self._fold_all(delta_u, +1)
        stats.groups_touched = len(touched)
        return stats

    def _delta_universal(
        self,
        name: str,
        rows: FrozenSet[Row],
        others: Mapping[str, Relation],
    ) -> Table:
        """``U`` of the database with relation *name* := *rows* only."""
        temp = Database(self.database.schema)
        temp.relations[name] = Relation(
            self.database.relation(name).schema, rows
        )
        for other, relation in others.items():
            temp.relations[other] = relation
        return universal_table(temp)

    def _fold_all(self, delta_universal: Table, sign: int) -> FrozenSet[Row]:
        touched: set = set()
        for aggregate in self._aggregates:
            contribution = aggregate.contribution(
                delta_universal, self.attributes
            )
            touched |= aggregate.fold(contribution, sign)
        return frozenset(touched)

    # -- emission ----------------------------------------------------------

    def aggregate_values(self) -> Dict[str, Value]:
        """All maintained ``q_j(D)`` grand totals."""
        return {a.name: a.grand_total() for a in self._aggregates}

    def table(self) -> "ExplanationTable":
        """The explanation table for the maintained state.

        Runs the identical downstream pipeline as the cold build
        (rollup, dummy rewrite, m-way outer join, finalize), so the
        result's content fingerprint matches a cold rebuild exactly.
        """
        # Upward import: core sits above incremental in the layering.
        from ..core.cube_algorithm import finalize_explanation_table

        attributes = list(self.attributes)
        cubes = []
        for aggregate in self._aggregates:
            spec = aggregate.emit_spec()
            states, count_only = aggregate.emit_states(spec)
            cube_table = cube_from_base_states(
                states, attributes, (spec,), count_only
            )
            cubes.append(dummy_rewrite(cube_table, attributes))
        joined = full_outer_join_many(cubes, attributes, fill=NULL)
        return finalize_explanation_table(
            joined,
            self.question,
            self.attributes,
            self.aggregate_values(),
            support_threshold=self.support_threshold,
        )
