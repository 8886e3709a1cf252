"""Delta cubes: exact incremental maintenance of the cube's base states.

The cold cube path (Algorithm 1) computes the full-granularity
m-vectors of states of one conditional-aggregate cube — aggregate
``q_j`` over ``σ_{w_j}(U)``, grouped by the candidate attributes —
rolls them up the lattice of ``2^d`` grouping sets, and computes the μ
columns.  The only part of that pipeline that touches all ``n`` rows is
the base state construction — everything downstream is proportional to
the number of *distinct* attribute keys.

:class:`DeltaCubeBuilder` keeps those base states resident in one map,
built by the cold path's own :func:`~repro.engine.cube.base_states`
with :meth:`~repro.engine.aggregates.AggregateSpec.retractable`
accumulators, so a mutation batch is applied by cubing only the
delta's universal rows and folding the result in with
:meth:`~repro.engine.aggregates.Accumulator.merge` and
:meth:`~repro.engine.aggregates.Accumulator.retract`.  Unless every
``q_j`` is COUNT(*) (whose counts are their own row counts), a COUNT(*)
of ``σ_{w_j}(U)``'s rows rides along each ``q_j``, so a group whose
rows are all retracted leaves the states.  AVG, MIN and MAX cannot
retract.

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
through the cold path's own rollup and emit,
:func:`~repro.engine.cube.cube_from_base_states`, and its
:func:`~repro.core.cube_algorithm.table_from_cube`, so a patched table
is identical in content to a cold rebuild.
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
from ..engine.cube import base_states, cube_from_base_states
from ..engine.database import Database
from ..engine.relation import Relation
from ..engine.table import Table
from ..engine.types import DUMMY, Row
from ..engine.universal import universal_table
from ..errors import IncrementalError

if TYPE_CHECKING:  # pragma: no cover - typing only (core sits above us)
    from ..core.cube_algorithm import ExplanationTable
    from ..core.question import UserQuestion

__all__ = ["DeltaApplyStats", "DeltaCubeBuilder"]

#: One group's base state: the m-vector of
#: :func:`~repro.engine.cube.base_states` — counts when every ``q_j`` is
#: COUNT(*), else m value accumulators followed by m row counts.
_State = Any


@dataclass
class DeltaApplyStats:
    """What one :meth:`DeltaCubeBuilder.apply` call did."""

    relations: int = 0
    delta_rows_added: int = 0
    delta_rows_removed: int = 0
    groups_touched: int = 0


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
        self._queries = question.query.aggregates
        # Aliased exactly like the cold path's cube.
        self._specs = tuple(
            replace(q.aggregate, alias=f"v_{q.name}") for q in self._queries
        )
        maintained = tuple(spec.retractable() for spec in self._specs)
        self._count_only = all(s.kind == "count_star" for s in self._specs)
        if not self._count_only:
            maintained += tuple(
                count_star(f"rows_{q.name}") for q in self._queries
            )
        self._maintained = maintained
        self._states: Dict[Row, _State] = {}
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
        self._states = self._states_of(u)

    # -- delta application -------------------------------------------------

    def apply(
        self, net: Mapping[str, Tuple[FrozenSet[Row], FrozenSet[Row]]]
    ) -> DeltaApplyStats:
        """Fold a net delta (from :meth:`MutationLog.net_delta`) in.

        The database must already be at its *post*-mutation state (the
        log records as writes land, so this is the natural call
        order).  Every contribution is computed before any is folded,
        so an error while cubing the delta (a NULL dimension) leaves
        the states untouched.  A conservation violation
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
        contributions: List[Tuple[int, Dict[Row, _State]]] = []
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
        for sign, part in contributions:
            self._fold(part, sign)
            touched.update(part)
        stats.groups_touched = len(touched)
        return stats

    def _fold(self, contribution: Mapping[Row, _State], sign: int) -> None:
        """Merge (+1) or retract (-1) a contribution's states."""
        states = self._states
        m = len(self._specs)
        for key, part in contribution.items():
            state = states.get(key)
            if state is None:
                if sign < 0:
                    raise IncrementalError(
                        f"retraction of unknown group {key!r}",
                        reason="conservation",
                    )
                states[key] = part
                continue
            if self._count_only:
                for j, count in enumerate(part):
                    state[j] += sign * count
                rows = state
                if min(rows) < 0:
                    raise IncrementalError(
                        f"negative count after retraction at group {key!r}",
                        reason="conservation",
                    )
            else:
                for acc, piece in zip(state, part):
                    (acc.merge if sign > 0 else acc.retract)(piece)
                rows = [acc.result() for acc in state[m:]]
                for spec, acc, count in zip(self._specs, state, rows):
                    if count == 0 and acc.result() != spec.default_value:
                        raise IncrementalError(
                            f"{spec.alias}: group {key!r} reached zero rows "
                            "with a non-empty residual state",
                            reason="conservation",
                        )
            if not any(rows):
                del states[key]

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

    def _states_of(self, universal: Table) -> Dict[Row, _State]:
        """The base states of every ``σ_{w_j}`` over *universal*."""
        sources = [q.filtered(universal) for q in self._queries]
        if not self._count_only:
            sources += sources  # the row counts read the same rows
        states, _ = base_states(sources, self.attributes, self._maintained)
        return states

    # -- emission ----------------------------------------------------------

    def table(self) -> "ExplanationTable":
        """The explanation table for the maintained state.

        Runs the cold build's rollup, emit and finalize, so the
        result's content fingerprint matches a cold rebuild exactly.
        """
        # Upward import: core sits above incremental in the layering.
        from ..core.cube_algorithm import table_from_cube

        m = len(self._specs)
        states = (
            self._states
            if self._count_only
            else {key: state[:m] for key, state in self._states.items()}
        )
        joined = cube_from_base_states(
            states,
            self.attributes,
            self._specs,
            self._count_only,
            dont_care=DUMMY,
        )
        return table_from_cube(
            joined,
            self.question,
            self.attributes,
            support_threshold=self.support_threshold,
        )
