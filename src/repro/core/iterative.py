"""Optimized exact evaluation for all candidates (Section 6(i)).

When the numerical query is *not* intervention-additive, Algorithm 1's
``u_j − v_j`` is not μ_interv, and the paper's prototype falls back to
a naive loop it calls "too slow"; Section 6(i) lists optimizing that
loop as future work.  This module is one such optimization, split along
observation and intervention:

* ``v_j = q_j(D_φ)``, μ_aggr and ``u_j = q_j(D)`` are aggregates over
  σ_φ(U) for every kind, additive or not: they come from Algorithm 1's
  conditional-aggregate cube (:func:`~repro.core.cube_algorithm.table_from_cube`),
  support filter included;
* μ_interv runs program P once per row of that table, on the
  database's shared :class:`~repro.engine.reduction.DeltaReducer`.
  σ_φ(U) intersects U's attribute postings; Rule (i) seeds count
  occurrences inside σ_φ(U) through per-relation tuple postings; and
  ``Q(D − Δ^φ)`` reads the surviving U rows — no joins are re-run.

Three candidate sets are in play, each inside the next, partial and
trivial combinations included: the cube's (support in some
σ_{w_j}(U)); this evaluator's (support in U, which is one more cube
source whose ``count(*)`` only fixes the groups); and the per-candidate
``exact`` method's (the cross product of the active domains).  For
``repro ask``'s DBLP question at scale 0.25, seed 2014, they have 178,
184 and 1044 rows.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import filterfalse
from typing import Dict, FrozenSet, List, Optional, Sequence, Set

from ..engine.aggregates import count_star
from ..engine.columnstore import typed_column
from ..engine.cube import conditional_cube
from ..engine.database import Database, Delta
from ..engine.table import Table
from ..engine.types import DUMMY, NULL, Row, Value, is_null
from ..engine.universal import universal_table
from ..obs import phase
from .cube_algorithm import MU_INTERV, ExplanationTable, table_from_cube
from .intervention import make_strategy
from .numquery import AggregateQuery
from .predicates import Explanation
from .question import UserQuestion

#: The cube column counting σ_φ(U); it fixes the candidate set and is
#: dropped before *M* is finalized.
_SUPPORT = "support"


class IndexedInterventionEvaluator:
    """Exact degrees for all candidate explanations over ``attributes``.

    Usable for any numerical query (additive or not).  The cube gives
    every column of *M* but μ_interv; per candidate, σ_φ(U), the seeds,
    program P and the survivors are all posting-list or delta work, not
    scans of U or D.  ``support_threshold`` filters candidates as
    :func:`~repro.core.cube_algorithm.build_explanation_table` does,
    before program P runs.
    """

    def __init__(
        self,
        database: Database,
        question: UserQuestion,
        attributes: Sequence[str],
        *,
        universal: Optional[Table] = None,
        strategy: Optional[str] = None,
        support_threshold: Optional[float] = None,
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
        self.postings = {
            attr: self.universal.index_positions((attr,))
            for attr in self.attributes
        }
        self._build_projection_cache()
        self._build_observed_table(support_threshold)

    # -- index construction ------------------------------------------------

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

    def _build_observed_table(self, support_threshold: Optional[float]) -> None:
        """σ_{w_j}(U) per aggregate, as row ids (with its argument
        column) and as a cube source; then ``observed``, *M* from
        Algorithm 1's cube over those sources plus U itself.

        ``observed``'s μ_interv is Algorithm 1's ``u − v``, which
        :meth:`build_table` replaces.  A NULL attribute value in U
        raises, as the cube does.
        """
        u = self.universal
        self.agg_rows: Dict[str, FrozenSet[int]] = {}
        self.agg_arg_col: Dict[str, Optional[List[Value]]] = {}
        sources, specs = [], []
        for q in self.question.query.aggregates:
            if q.where is None:
                positions: Sequence[int] = range(self._n)
                sources.append(u)
            else:
                positions = u.filter_positions(q.where)
                sources.append(u.take(positions))
            specs.append(replace(q.aggregate, alias=f"v_{q.name}"))
            self.agg_rows[q.name] = frozenset(positions)
            arg = q.aggregate.argument
            self.agg_arg_col[q.name] = None if arg is None else u.column(arg)
        joined = conditional_cube(
            sources + [u],
            self.attributes,
            specs + [count_star(_SUPPORT)],
            dont_care=DUMMY,
        )
        self.observed = table_from_cube(
            joined.project([c for c in joined.columns if c != _SUPPORT]),
            self.question,
            self.attributes,
            support_threshold=support_threshold,
        )

    # -- per-candidate machinery --------------------------------------------

    def phi_row_ids(self, assignment: Dict[str, Value]) -> Set[int]:
        """σ_φ(U) as row ids, by posting-list intersection."""
        if not assignment:
            return set(range(self._n))
        lists = sorted(
            (
                self.postings[attr].get((value,), ())
                for attr, value in assignment.items()
            ),
            key=len,
        )
        result = set(lists[0])
        for other in lists[1:]:
            result.intersection_update(other)
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

    def mu_interv_for(self, assignment: Dict[str, Value]) -> Value:
        """μ_interv for one candidate: seeds, program P, survivors, E."""
        query = self.question.query
        phi = Explanation.equality(self.database.schema, assignment)
        seeds = self.seeds_from_rows(self.phi_row_ids(assignment))
        delta = self.engine.compute(phi, seeds=seeds).delta
        survivors = self.surviving_row_ids(delta)
        mu = query.evaluate_environment(
            {q.name: self._aggregate_over(q, survivors) for q in query.aggregates}
        )
        return mu if is_null(mu) else self.question.intervention_sign * mu

    # -- the full table --------------------------------------------------------

    def candidate_assignments(self) -> List[Dict[str, Value]]:
        """The candidates, one per row of *M* and in its order: every
        attribute-value combination with support in U (and past the
        support filter), partial ('don't care') combinations and the
        trivial one included."""
        rows = self.observed.table.project(self.attributes).rows()
        return [
            {a: v for a, v in zip(self.attributes, row) if v is not DUMMY}
            for row in rows
        ]

    def build_table(self) -> ExplanationTable:
        """The exact table *M* for all candidates."""
        m = self.observed
        with phase(
            "indexed_table", certified_bound=self.convergence.bound
        ) as ph:
            candidates = self.candidate_assignments()
            mu_interv = [self.mu_interv_for(a) for a in candidates]
            ph.annotate(candidates=len(candidates))
        columns = m.table.column_arrays()
        columns[m.table.position(MU_INTERV)] = typed_column(mu_interv)
        return ExplanationTable(
            table=Table.from_columns(m.table.columns, columns, nrows=len(m)),
            attributes=m.attributes,
            aggregate_names=m.aggregate_names,
            q_original=m.q_original,
        )

