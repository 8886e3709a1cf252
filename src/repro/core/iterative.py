"""Optimized exact evaluation for all candidates (Section 6(i)).

When the numerical query is *not* intervention-additive, Algorithm 1
does not apply and the paper's prototype falls back to a naive loop it
acknowledges is "too slow"; Section 6(i) lists optimizing that loop as
future work.  This module is one such optimization.  It computes the
**exact** (program-P) intervention degree for every candidate
explanation, sharing work across candidates:

* the universal table is materialized once and every row gets an id;
* per relevant attribute, a **posting list** maps each value to the
  ids of the universal rows carrying it, so ``σ_φ(U)`` is a set
  intersection, not a scan;
* per relation, a second posting list maps each tuple to the ids of
  the universal rows it occurs in, so Rule (i) seeds (``tuples all of
  whose rows satisfy φ``) come from counting occurrences inside
  ``σ_φ(U)`` only;
* ``Q(D − Δ^φ)`` is evaluated by row survival: the dead rows are the
  union of the postings of Δ^φ's tuples, so the work is
  |Δ^φ| times the fan-out, and the survivors feed precomputed
  per-aggregate row-id sets — no joins are re-run.

Program P itself runs on the database's shared
:class:`~repro.engine.reduction.DeltaReducer`, so no candidate
re-reduces D.

The candidate set equals the cube algorithm's (every combination of
attribute values with support), so the output table is directly
comparable to — and validated against — both the cube table (on
additive queries) and the per-candidate exact evaluator.
"""

from __future__ import annotations

from itertools import filterfalse
from typing import Any, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..engine.cube import grouping_sets
from ..engine.database import Database, Delta
from ..engine.expressions import select_positions
from ..engine.table import Table
from ..engine.types import DUMMY, NULL, Row, Value, is_null
from ..engine.universal import universal_table
from ..errors import QueryError
from ..obs import phase
from .cube_algorithm import MU_AGGR, MU_INTERV, ExplanationTable
from .intervention import make_strategy
from .numquery import AggregateQuery
from .question import UserQuestion


class IndexedInterventionEvaluator:
    """Exact degrees for all candidate explanations over ``attributes``.

    Usable for any numerical query (additive or not); per candidate,
    σ_φ(U), the seeds, program P and the survivors are all
    posting-list or delta work, not scans of U or D.
    """

    def __init__(
        self,
        database: Database,
        question: UserQuestion,
        attributes: Sequence[str],
        *,
        universal: Optional[Table] = None,
        strategy: Optional[str] = None,
    ) -> None:
        self.database = database
        self.question = question
        self.attributes = tuple(attributes)
        self.universal = (
            universal
            if universal is not None
            else universal_table(database)
        )
        # Certify the convergence bound statically and assert it as a
        # runtime invariant on every per-candidate fixpoint run: program
        # P exceeding the certified bound means the analyzer (or the
        # engine) is wrong, and must be raised loudly, not absorbed.
        from ..analysis.fkgraph import certify_convergence

        self.convergence = certify_convergence(
            database.schema, total_rows=database.total_rows()
        )
        self.engine = make_strategy(
            database,
            strategy=strategy,
            universal=self.universal,
            certified_bound=self.convergence.bound,
        )
        self._n = len(self.universal)
        self._build_posting_lists()
        self._build_projection_cache()
        self._build_aggregate_indexes()

    # -- index construction ------------------------------------------------

    def _build_posting_lists(self) -> None:
        """attribute -> value -> frozenset of universal row ids.

        Built by a single scan of each attribute's *column* — the
        universal table's rows are never re-tupled.
        """
        self.postings: Dict[str, Dict[Value, Set[int]]] = {}
        for attr in self.attributes:
            lists: Dict[Value, Set[int]] = {}
            for idx, value in enumerate(self.universal.column(attr)):
                if is_null(value):
                    raise QueryError(
                        f"attribute {attr!r} contains NULL; explanation "
                        "attributes must be non-null"
                    )
                lists.setdefault(value, set()).add(idx)
            self.postings[attr] = lists

    def _build_projection_cache(self) -> None:
        """Per relation: row id -> tuple, tuple -> U row ids, and the
        tuples of D with no U occurrence."""
        schema = self.database.schema
        self.row_tuples: Dict[str, List[Row]] = {}
        self.tuple_rows: Dict[str, Dict[Row, List[int]]] = {}
        self._unreached: Dict[str, FrozenSet[Row]] = {}
        for name in schema.relation_names:
            rs = schema.relation(name)
            cols = [
                self.universal.column(f"{name}.{a}")
                for a in rs.attribute_names
            ]
            projected = list(zip(*cols)) if cols else [()] * self._n
            postings: Dict[Row, List[int]] = {}
            for idx, t in enumerate(projected):
                postings.setdefault(t, []).append(idx)
            self.row_tuples[name] = projected
            self.tuple_rows[name] = postings
            self._unreached[name] = frozenset(
                t for t in self.database.relation(name).rows() if t not in postings
            )

    def _build_aggregate_indexes(self) -> None:
        """Per aggregate: its WHERE row-id set and argument column."""
        self.agg_rows: Dict[str, FrozenSet[int]] = {}
        self.agg_arg_col: Dict[str, Optional[List[Value]]] = {}
        for q in self.question.query.aggregates:
            if q.where is None:
                ids: FrozenSet[int] = frozenset(range(self._n))
            else:
                for col in q.where.columns():
                    self.universal.position(col)  # raise on unknown columns
                ids = frozenset(
                    select_positions(q.where, self.universal.column, self._n)
                )
            self.agg_rows[q.name] = ids
            if q.aggregate.argument is None:
                self.agg_arg_col[q.name] = None
            else:
                self.agg_arg_col[q.name] = self.universal.column(
                    q.aggregate.argument
                )

    # -- per-candidate machinery --------------------------------------------

    def phi_row_ids(self, assignment: Dict[str, Value]) -> Set[int]:
        """σ_φ(U) as row ids, by posting-list intersection."""
        if not assignment:
            return set(range(self._n))
        lists = sorted(
            (self.postings[attr].get(value, set()) for attr, value in assignment.items()),
            key=len,
        )
        result = set(lists[0])
        for other in lists[1:]:
            result &= other
            if not result:
                break
        return result

    def seeds_from_rows(self, phi_rows: Set[int]) -> Delta:
        """Rule (i) seeds: tuples whose *every* U occurrence satisfies φ.

        Tuples with no U occurrence at all (possible only on a
        non-semijoin-reduced input) are seeded too, matching the
        literal ``R_i − Π_{A_i}(σ_¬φ U)``.
        """
        parts: Dict[str, Set[Row]] = {}
        for name in self.database.schema.relation_names:
            inside: Dict[Row, int] = {}
            projected = self.row_tuples[name]
            for idx in phi_rows:
                t = projected[idx]
                inside[t] = inside.get(t, 0) + 1
            postings = self.tuple_rows[name]
            seeded = {t for t, c in inside.items() if c == len(postings[t])}
            seeded.update(self._unreached[name])
            parts[name] = seeded
        return Delta(self.database.schema, parts)

    def surviving_row_ids(self, delta: Delta) -> Set[int]:
        """U rows whose projections all survive ``D − Δ``.

        By construction of program P (closure + reduction) these are
        exactly the rows of ``U(D − Δ^φ)``.  The dead rows are the union
        of the postings of Δ's tuples; the survivors are collected in
        ascending row order, so the aggregates over them always sum in
        one order.
        """
        dead: Set[int] = set()
        for name, rows in delta.parts().items():
            postings = self.tuple_rows[name]
            for t in rows:
                ids = postings.get(t)
                if ids:
                    dead.update(ids)
        return set(filterfalse(dead.__contains__, range(self._n)))

    def _aggregate_over(self, q: AggregateQuery, row_ids: Set[int]) -> Value:
        relevant = self.agg_rows[q.name] & row_ids
        acc = q.aggregate.make_accumulator()
        arg_col = self.agg_arg_col[q.name]
        if arg_col is None:
            acc.add_repeat(NULL, len(relevant))
        else:
            acc.add_many(arg_col[idx] for idx in relevant)
        return acc.result()

    def degrees_for(self, assignment: Dict[str, Value]) -> Tuple[Value, Value, Dict[str, Value]]:
        """(μ_interv, μ_aggr, q_j(D_φ) values) for one candidate."""
        query = self.question.query
        phi_rows = self.phi_row_ids(assignment)
        aggr_values = {
            q.name: self._aggregate_over(q, phi_rows)
            for q in query.aggregates
        }
        mu_a = query.evaluate_environment(aggr_values)
        if not is_null(mu_a):
            mu_a = self.question.aggravation_sign * mu_a

        from .predicates import Explanation

        phi = Explanation.equality(self.database.schema, assignment)
        seeds = self.seeds_from_rows(phi_rows)
        delta = self.engine.compute(phi, seeds=seeds).delta
        survivors = self.surviving_row_ids(delta)
        interv_values = {
            q.name: self._aggregate_over(q, survivors)
            for q in query.aggregates
        }
        mu_i = query.evaluate_environment(interv_values)
        if not is_null(mu_i):
            mu_i = self.question.intervention_sign * mu_i
        return mu_i, mu_a, aggr_values

    # -- the full table --------------------------------------------------------

    def candidate_assignments(self) -> List[Dict[str, Value]]:
        """Every attribute-value combination with support in U,
        including partial ('don't care') combinations and the trivial
        one — the same candidate set the cube materializes."""
        attr_cols = [self.universal.column(a) for a in self.attributes]
        cells: Set[Tuple[Tuple[str, Value], ...]] = set()
        masks = [
            tuple(a in s for a in self.attributes)
            for s in grouping_sets(self.attributes)
        ]
        for values in set(zip(*attr_cols)):
            for mask in masks:
                cells.add(
                    tuple(
                        (a, v)
                        for a, v, keep in zip(self.attributes, values, mask)
                        if keep
                    )
                )
        return [dict(cell) for cell in sorted(cells, key=_cell_key)]

    def build_table(self) -> ExplanationTable:
        """The exact table *M* for all candidates."""
        query = self.question.query
        value_columns = [f"v_{q.name}" for q in query.aggregates]
        columns = list(self.attributes) + value_columns + [MU_INTERV, MU_AGGR]
        rows_out: List[Row] = []
        with phase(
            "indexed_table", certified_bound=self.convergence.bound
        ) as ph:
            for assignment in self.candidate_assignments():
                mu_i, mu_a, aggr_values = self.degrees_for(assignment)
                attr_values = tuple(
                    assignment.get(attr, DUMMY) for attr in self.attributes
                )
                v_values = tuple(
                    aggr_values[q.name] for q in query.aggregates
                )
                rows_out.append(attr_values + v_values + (mu_i, mu_a))
            ph.annotate(candidates=len(rows_out))
        return ExplanationTable(
            table=Table(columns, rows_out),
            attributes=self.attributes,
            aggregate_names=tuple(query.names),
            q_original={
                q.name: self._aggregate_over(q, set(range(self._n)))
                for q in query.aggregates
            },
        )


def _cell_key(
    cell: Tuple[Tuple[str, Value], ...]
) -> Tuple[int, Tuple[Tuple[str, Tuple[int, Any]], ...]]:
    from ..engine.types import sort_key

    return (len(cell), tuple((a, sort_key(v)) for a, v in cell))
