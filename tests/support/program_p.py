"""Program P's naive schedules, kept as oracles for the semi-naive ones.

:class:`NaiveFixpointStrategy` is the naive simultaneous evaluation the
fixpoint strategy ran before it became semi-naive: every iteration
rebuilds the whole residual ``D − Δ`` and re-runs the full semijoin
reducer on it.  :func:`full_reduction_delta` is the closure schedule's
former repair loop, which did the same once per round.  Both cost
iterations × |D|, which is why production no longer runs them; the
tests hold the production schedules to their Δ^φ, iteration counts
and traces.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.core.intervention import (
    InterventionResult,
    IterationTrace,
    _StrategyBase,
)
from repro.core.predicates import Predicate
from repro.engine.closure import ClosureDelta, ClosureIndex
from repro.engine.database import Database, Delta
from repro.engine.reduction import RowSets, reduce_row_sets
from repro.engine.types import Row
from repro.engine.universal import JoinTree
from repro.errors import ConvergenceError
from repro.obs import phase


class NaiveFixpointStrategy(_StrategyBase):
    """The naive-simultaneous fixpoint schedule, whole-database per step."""

    name = "fixpoint"

    def __init__(self, database: Database, **kwargs) -> None:
        super().__init__(database, **kwargs)
        self.join_tree = JoinTree(self.schema)

    # -- Rules (ii) and (iii) ----------------------------------------------

    def _rule_reduce(self, residual: RowSets) -> Dict[str, Set[Row]]:
        """Rule (ii): tuples dropped by semijoin-reducing the residual."""
        probe = {name: set(rows) for name, rows in residual.items()}
        reduce_row_sets(self.schema, probe, self.join_tree)
        return {
            name: residual[name] - probe[name] for name in residual
        }

    def _rule_backward(
        self, deleted: Dict[str, Set[Row]]
    ) -> Dict[str, Set[Row]]:
        """Rule (iii): backward cascade along back-and-forth FKs.

        For ``R_j.fk ↔ R_i.pk``: every R_i tuple whose primary key is
        referenced by a *deleted* R_j tuple must be deleted.
        """
        found: Dict[str, Set[Row]] = {
            name: set() for name in self.schema.relation_names
        }
        for fk in self._bf_keys:
            source_schema = self.schema.relation(fk.source)
            target_rel = self.database.relation(fk.target)
            src_pos = source_schema.indexes_of(fk.source_attrs)
            referenced = {
                tuple(row[i] for i in src_pos) for row in deleted[fk.source]
            }
            if not referenced:
                continue
            tgt_pos = target_rel.schema.indexes_of(fk.target_attrs)
            for row in target_rel:
                if tuple(row[i] for i in tgt_pos) in referenced:
                    found[fk.target].add(row)
        return found

    # -- fixpoint loop -------------------------------------------------------

    def compute(
        self,
        phi: Predicate,
        *,
        max_iterations: Optional[int] = None,
        seeds: Optional[Delta] = None,
    ) -> InterventionResult:
        """Run program **P** to its least fixpoint for *phi*."""
        budget = (
            max_iterations
            if max_iterations is not None
            else self.database.total_rows() + 2
        )
        deleted: Dict[str, Set[Row]] = {
            name: set() for name in self.schema.relation_names
        }
        all_rows: Dict[str, FrozenSet[Row]] = {
            name: self.database.relation(name).rows()
            for name in self.schema.relation_names
        }

        if seeds is None:
            seeds = self.seed_delta(phi)
        trace: List[IterationTrace] = []
        iteration = 0

        def residual() -> RowSets:
            return {
                name: set(all_rows[name]) - deleted[name]
                for name in all_rows
            }

        def absorb(new: Dict[str, Set[Row]]) -> int:
            added = 0
            for name, rows in new.items():
                fresh = rows - deleted[name]
                added += len(fresh)
                deleted[name].update(fresh)
            return added

        with phase("program_p") as run_ph:
            while True:
                iteration += 1
                if iteration > budget:
                    raise ConvergenceError(
                        f"program P exceeded {budget} iterations; "
                        "this is a bug"
                    )
                with phase("program_p.iteration") as iter_ph:
                    new_by_rule: Dict[str, int] = {}
                    # Rules (ii) and (iii) evaluate against the Δ of
                    # the *previous* iteration (naive simultaneous
                    # semantics): take snapshots before absorbing any
                    # rule's output, including the seeds — in iteration
                    # 1 rules (ii)/(iii) see Δ⁰ = ∅, which is the
                    # counting used by Example 3.7 / Prop 3.5.
                    snapshot_residual = residual()
                    snapshot_deleted = {
                        name: set(rows) for name, rows in deleted.items()
                    }
                    if iteration == 1:
                        new_by_rule["seed"] = absorb(
                            {
                                name: set(rows)
                                for name, rows in seeds.parts().items()
                            }
                        )
                    reduce_new = self._rule_reduce(snapshot_residual)
                    backward_new = self._rule_backward(snapshot_deleted)
                    new_by_rule["reduce"] = absorb(reduce_new)
                    new_by_rule["backward"] = absorb(backward_new)
                    total_new = sum(new_by_rule.values())
                    delta_size = sum(
                        len(rows) for rows in deleted.values()
                    )
                    iter_ph.annotate(
                        iteration=iteration,
                        seed=new_by_rule.get("seed", 0),
                        reduce=new_by_rule["reduce"],
                        backward=new_by_rule["backward"],
                        delta_size=delta_size,
                    )
                if total_new == 0:
                    # Quiescent iteration: not counted as productive.
                    iteration -= 1
                    break
                trace.append(
                    IterationTrace(
                        iteration,
                        {k: v for k, v in new_by_rule.items() if v},
                        delta_size,
                    )
                )
            run_ph.annotate(
                iterations=iteration, certified_bound=self.certified_bound
            )

        self._assert_certified(iteration)
        return InterventionResult(
            delta=Delta(self.schema, deleted),
            seeds=seeds,
            iterations=iteration,
            trace=tuple(trace),
        )


def full_reduction_delta(index: ClosureIndex, seeds: Delta) -> ClosureDelta:
    """The closure schedule with a full semijoin reduction per round.

    The same probes and round counting as
    :meth:`ClosureIndex.delta_from_seeds`; only the repair differs.
    """
    deleted: Set[int] = set()
    extra: Dict[str, Set[Row]] = {}
    queue: List[int] = []
    seed_new = 0
    for name, rows in seeds.parts().items():
        idmap = index._ids[name]
        for row in rows:
            seed_new += 1
            rid = idmap.get(row)
            if rid is None:
                extra.setdefault(name, set()).add(row)
            elif rid not in deleted:
                deleted.add(rid)
                queue.append(rid)
    tree = JoinTree(index.schema)
    new_by_round: List[Dict[str, int]] = []
    rounds = 0
    probes = 0
    first = True
    while True:
        closure_new = 0
        for rid in queue:
            probes += 1
            contributed = 0
            for start, stop in index._runs[index._scc_of[rid]]:
                for i in range(start, stop + 1):
                    if i not in deleted:
                        deleted.add(i)
                        contributed += 1
            closure_new += contributed
        reduce_new, queue = _repair(index, deleted, tree)
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
        name, row = index._entries[rid]
        parts.setdefault(name, set()).add(row)
    return ClosureDelta(
        delta=Delta(index.schema, parts),
        rounds=rounds,
        new_by_round=tuple(new_by_round),
        probes=probes,
    )


def _repair(
    index: ClosureIndex, deleted: Set[int], tree: JoinTree
) -> Tuple[int, List[int]]:
    """One full semijoin reduction; returns (count, newly dead ids)."""
    residual: RowSets = {}
    for name in index.schema.relation_names:
        residual[name] = {
            row
            for row, i in index._ids[name].items()
            if i not in deleted
        }
    probe = {name: set(rows) for name, rows in residual.items()}
    reduce_row_sets(index.schema, probe, tree)
    dropped: List[int] = []
    for name in index.schema.relation_names:
        idmap = index._ids[name]
        for row in residual[name] - probe[name]:
            rid = idmap[row]
            if rid not in deleted:
                deleted.add(rid)
                dropped.append(rid)
    return len(dropped), dropped
