"""Delta cubes: exact incremental maintenance of per-aggregate states.

The cold cube path (Algorithm 1) computes, per aggregate ``q_j``, the
full-granularity base states of ``σ_{w_j}(U)`` grouped by the
candidate attributes, rolls them up into all ``2^d`` grouping sets,
and joins the per-aggregate cubes into the explanation table.  The
only part of that pipeline that touches all ``n`` rows is the base
state construction — everything downstream is proportional to the
number of *distinct* attribute keys.

:class:`DeltaCubeBuilder` keeps those base states resident, built by
the cold path's own :func:`~repro.engine.cube.base_states` with
:meth:`~repro.engine.aggregates.AggregateSpec.retractable`
accumulators, so a mutation batch is applied by cubing only the
delta's universal rows and folding the result in with
:meth:`~repro.engine.aggregates.Accumulator.merge` and
:meth:`~repro.engine.aggregates.Accumulator.retract`.  A COUNT(*) row
count rides along every aggregate, so a group whose rows are all
retracted leaves the states.  A float SUM argument raises
:class:`~repro.errors.IncrementalError` (``float-sum``) and the
session falls back; AVG, MIN and MAX cannot retract at all.

For a mutated relation ``R_i`` the delta's universal rows follow the
standard sequential delta rule for multilinear joins: process mutated
relations in schema order; for relation ``i`` join its deleted
(inserted) rows against already-processed relations at their *new*
state and not-yet-processed ones at their *old* state, then retract
(add) the resulting rows.  Retraction is conservation-checked — a
negative count, a phantom group, or a non-empty residue at rowcount
zero raises :class:`~repro.errors.IncrementalError` instead of
producing a silently wrong table.

Emission (:meth:`DeltaCubeBuilder.table`) feeds the maintained states
through the *identical* cold pipeline —
:func:`~repro.engine.cube.cube_from_base_states`,
:func:`~repro.engine.cube.dummy_rewrite`,
:func:`~repro.engine.joins.full_outer_join_many`,
:func:`~repro.core.cube_algorithm.finalize_explanation_table` — so a
patched table is byte-identical in content to a cold rebuild.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..engine.aggregates import count_star
from ..engine.cube import base_states, cube_from_base_states, dummy_rewrite
from ..engine.database import Database
from ..engine.joins import full_outer_join_many
from ..engine.relation import Relation
from ..engine.table import Table
from ..engine.types import NULL, Row, Value
from ..engine.universal import universal_table
from ..errors import IncrementalError

if TYPE_CHECKING:  # pragma: no cover - typing only (core sits above us)
    from ..core.cube_algorithm import ExplanationTable
    from ..core.numquery import AggregateQuery
    from ..core.question import UserQuestion

__all__ = ["DeltaApplyStats", "DeltaCubeBuilder"]

#: The row count maintained beside every aggregate: a group leaves the
#: states when a retraction brings it to zero.
_ROWS = count_star("rows")

#: One group's base state: a plain row count on the COUNT(*) fast path
#: of :func:`~repro.engine.cube.base_states`, else ``[rows, value]``
#: accumulators.
_State = Any


@dataclass
class DeltaApplyStats:
    """What one :meth:`DeltaCubeBuilder.apply` call did."""

    relations: int = 0
    delta_rows_added: int = 0
    delta_rows_removed: int = 0
    groups_touched: int = 0


class _MaintainedAggregate:
    """The base states of one aggregate query ``q_j`` over ``σ_{w_j}(U)``."""

    def __init__(self, query: "AggregateQuery") -> None:
        self.query = query
        self.name = query.name
        # Aliased exactly like the cold path's per-aggregate cube.
        self.spec = replace(query.aggregate, alias=f"v_{query.name}")
        self._specs = (_ROWS, self.spec.retractable())
        self.count_only = False
        self.states: Dict[Row, _State] = {}

    def states_of(
        self, universal: Table, attributes: Sequence[str]
    ) -> Dict[Row, _State]:
        """The base states of ``σ_{w_j}`` over *universal*."""
        states, self.count_only = base_states(
            self.query.filtered(universal), attributes, self._specs
        )
        return states

    def fold(self, contribution: Mapping[Row, _State], sign: int) -> None:
        """Merge (+1) or retract (-1) a contribution's states."""
        states = self.states
        for key, part in contribution.items():
            state = states.get(key)
            if state is None:
                if sign < 0:
                    raise IncrementalError(
                        f"{self.name}: retraction of unknown group {key!r}",
                        reason="conservation",
                    )
                states[key] = part
                continue
            if self.count_only:
                rows = states[key] = state + sign * part
                if rows < 0:
                    raise IncrementalError(
                        f"{self.name}: negative count after retraction at "
                        f"group {key!r}",
                        reason="conservation",
                    )
            else:
                for acc, piece in zip(state, part):
                    (acc.merge if sign > 0 else acc.retract)(piece)
                rows = state[0].result()
                if rows == 0 and state[1].result() != self.spec.default_value:
                    raise IncrementalError(
                        f"{self.name}: group {key!r} reached zero rows with "
                        "a non-empty residual state",
                        reason="conservation",
                    )
            if rows == 0:
                del states[key]

    def cube(self, attributes: Sequence[str]) -> Table:
        """The cold path's cube over the maintained states.

        The rollup reads the states without changing them: it shares
        the full-granularity ones and merges into fresh accumulators.
        """
        states = (
            self.states
            if self.count_only
            else {key: state[1:] for key, state in self.states.items()}
        )
        return cube_from_base_states(
            states, attributes, (self.spec,), self.count_only
        )


class DeltaCubeBuilder:
    """Maintains the cube base states of one explanation plan.

    Construction builds the initial states from the database's current
    universal table — the one remaining O(n) pass.  Every aggregate
    must be retractable: AVG, MIN or MAX raises
    :class:`~repro.errors.QueryError`.  Afterwards :meth:`apply` folds net
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
        """(Re)build all base states from the database's current state.

        All or nothing: an error leaves the previous states in place.
        """
        u = (
            universal
            if universal is not None
            else universal_table(self.database)
        )
        states = [a.states_of(u, self.attributes) for a in self._aggregates]
        for aggregate, fresh in zip(self._aggregates, states):
            aggregate.states = fresh

    # -- delta application -------------------------------------------------

    def apply(
        self, net: Mapping[str, Tuple[FrozenSet[Row], FrozenSet[Row]]]
    ) -> DeltaApplyStats:
        """Fold a net delta (from :meth:`MutationLog.net_delta`) in.

        The database must already be at its *post*-mutation state (the
        log records as writes land, so this is the natural call
        order).  Every contribution is computed before any is folded,
        so an error while cubing the delta (a NULL dimension, a float
        SUM) leaves the states untouched.  A conservation violation
        while folding raises :class:`~repro.errors.IncrementalError`;
        the builder's states are then stale and must be :meth:`reset`
        before further use.
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
        contributions: List[Tuple[int, List[Dict[Row, _State]]]] = []
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
                contributions.append((-1, self._states_of(delta_u)))
            if ins:
                delta_u = self._delta_universal(name, ins, others)
                stats.delta_rows_added += len(delta_u)
                contributions.append((+1, self._states_of(delta_u)))
        touched: set = set()
        for sign, parts in contributions:
            for aggregate, part in zip(self._aggregates, parts):
                aggregate.fold(part, sign)
                touched.update(part)
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

    def _states_of(self, delta_universal: Table) -> List[Dict[Row, _State]]:
        return [
            a.states_of(delta_universal, self.attributes)
            for a in self._aggregates
        ]

    # -- emission ----------------------------------------------------------

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
        q_original: Dict[str, Value] = {}
        for aggregate in self._aggregates:
            cube_table = aggregate.cube(attributes)
            # grouping_sets() lists the empty set last, so the cube's
            # last row is the grand total u_j = q_j(D).
            q_original[aggregate.name] = cube_table.column(
                aggregate.spec.alias
            )[-1]
            cubes.append(dummy_rewrite(cube_table, attributes))
        joined = full_outer_join_many(cubes, attributes, fill=NULL)
        return finalize_explanation_table(
            joined,
            self.question,
            self.attributes,
            q_original,
            support_threshold=self.support_threshold,
        )
