"""Program **P**: computing the minimal intervention Δ^φ (Section 3).

Given a database D and a candidate explanation φ, the intervention
Δ^φ (Definition 2.6) is the unique minimal Δ such that

1. Δ is *closed* under the causal semantics of the foreign keys
   (standard cascade, back-and-forth cascade — Definition 2.5),
2. the residual database ``D − Δ`` is semijoin-reduced,
3. no tuple of ``U(D − Δ)`` satisfies φ.

Theorem 3.3 identifies Δ^φ with the least fixpoint of the recursive
program **P**:

* Rule (i)  — *seeds*: ``Δ_i ⊇ R_i − Π_{A_i}(σ_{¬φ} U(D))``
  (first iteration only);
* Rule (ii) — *semijoin reduction*:
  ``Δ_i ⊇ R_i − Π_{A_i}[(R_1−Δ_1) ⋈ … ⋈ (R_k−Δ_k)]``;
* Rule (iii) — *backward cascade*: for each back-and-forth foreign key
  ``R_j.fk ↔ R_i.pk``: ``Δ_i ⊇ R_i ⋉ Δ_j``.

The program is monotone in the Δ's (Proposition 3.1), so *any* fair
evaluation schedule reaches the same least fixpoint.  This module
offers two interchangeable schedules behind the
:class:`InterventionStrategy` protocol:

* :class:`FixpointStrategy` — simultaneous evaluation in semi-naive
  stages: stage t+1 applies the rules to Δ^t but starts only from the
  tuples stage t added, and stops when nothing changes.  It finds what
  the naive schedule finds at every stage, so its iteration counter
  matches the convergence statements of Propositions 3.4, 3.5, 3.10
  and 3.11 and the n−1 lower bound of Example 3.7.
* :class:`ClosureStrategy` — probes the precomputed FK cascade closure
  index (:mod:`repro.engine.closure`): Δ^φ is the union of the seeds'
  transitive deletion closures plus a bounded support-loss repair loop.

Both schedules evaluate Rule (ii) by deletion propagation over the
database's :class:`~repro.engine.reduction.DeltaReducer`, so no step
re-reduces D.
  The delta is byte-identical; ``iterations`` counts repair rounds,
  which never exceed the fixpoint count (each round dominates one
  naive iteration) and collapse the Example 3.7 zig-zag to one.

The schema picks the schedule (:func:`recommended_strategy_for_schema`:
back-and-forth keys ⇒ closure, none ⇒ fixpoint).  The ``strategy``
keyword (``"fixpoint"|"closure"``) exists only so a test or a bench
can pin one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Protocol, Set, Tuple

from ..engine.closure import ClosureIndex
from ..engine.database import Database, Delta
from ..engine.expressions import Not
from ..engine.reduction import DeltaReducer, SupportLoss
from ..engine.schema import DatabaseSchema, ForeignKey
from ..engine.table import Table
from ..engine.types import Row
from ..engine.universal import universal_table
from ..errors import AnalysisInvariantError, ConvergenceError, ExplanationError
from ..obs import get_registry, phase
from .predicates import Predicate

#: The interchangeable program-P evaluation schedules.
STRATEGIES = ("fixpoint", "closure")

#: Productive iterations per fixpoint run — makes the convergence
#: bounds of Props 3.4/3.5/3.10/3.11 observable in ``/v1/metrics``.
_P_ITERATIONS = get_registry().histogram(
    "repro_program_p_iterations",
    buckets=(1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0, 64.0),
    help="Productive program-P iterations per fixpoint run.",
)


def _strategy_counter(name: str) -> None:
    get_registry().counter(
        "repro_intervention_strategy_total",
        labels={"strategy": name},
        help="Δ^φ computations per intervention strategy.",
    ).inc()


@dataclass(frozen=True)
class IterationTrace:
    """What one fixpoint iteration (or closure repair round) discovered.

    ``new_by_rule`` maps rule labels ("seed", "reduce", "backward" for
    the fixpoint schedule; "seed", "closure", "reduce" for the closure
    schedule) to the number of tuples that rule contributed *new* to Δ
    in this iteration; ``delta_size`` is |Δ| after the iteration.
    """

    iteration: int
    new_by_rule: Dict[str, int]
    delta_size: int

    @property
    def new_total(self) -> int:
        """Total new tuples discovered this iteration."""
        return sum(self.new_by_rule.values())


@dataclass(frozen=True)
class InterventionResult:
    """The computed intervention plus its provenance.

    ``iterations`` counts productive iterations (the final quiescent
    check is excluded), matching the counting used by the paper's
    convergence propositions; under the closure strategy it counts
    productive repair rounds instead, which the same certified bounds
    dominate.
    """

    delta: Delta
    seeds: Delta
    iterations: int
    trace: Tuple[IterationTrace, ...]

    @property
    def size(self) -> int:
        """|Δ^φ| — total tuples deleted."""
        return self.delta.size()


class InterventionStrategy(Protocol):
    """One evaluation schedule for program P over one fixed database."""

    name: str
    database: Database
    universal: Table
    certified_bound: Optional[int]

    def seed_delta(self, phi: Predicate) -> Delta:
        """Δ¹: the Rule (i) seed tuples for *phi*."""
        ...

    def compute(
        self,
        phi: Predicate,
        *,
        max_iterations: Optional[int] = None,
        seeds: Optional[Delta] = None,
    ) -> InterventionResult:
        """Δ^φ — the least fixpoint of program P for *phi*."""
        ...


class _StrategyBase:
    """Shared plumbing: the universal table and Rule (i).

    The universal table is materialized once and reused for every
    explanation (Rule (i) only needs ``σ_{¬φ}(U)``), which is the
    dominant cost; pass ``universal`` if the caller already has it.
    """

    name = "base"

    def __init__(
        self,
        database: Database,
        *,
        universal: Optional[Table] = None,
        certified_bound: Optional[int] = None,
    ) -> None:
        self.database = database
        self.schema = database.schema
        self.universal = (
            universal
            if universal is not None
            else universal_table(database)
        )
        self._bf_keys: Tuple[ForeignKey, ...] = self.schema.back_and_forth_keys
        #: When set (by the static analyzer), every run asserts that
        #: its productive iteration count stays within this bound;
        #: a violation raises AnalysisInvariantError (analyzer bug).
        self.certified_bound = certified_bound

    # -- Rule (i) ---------------------------------------------------------

    def seed_delta(self, phi: Predicate) -> Delta:
        """Δ¹: the seed tuples (Rule (i)).

        ``Δ_i¹ = R_i − Π_{A_i}(σ_{¬φ}(U))`` — the minimum deletions
        that leave no φ-satisfying universal tuple, before closure and
        reduction are enforced.
        """
        # Survivors stay a zero-copy selection of the universal table.
        # ``Not`` is two-valued, so rows where φ is NULL survive.
        survivors = self.universal.filter(Not(phi.to_expression()))
        parts: Dict[str, Set[Row]] = {}
        for name in self.schema.relation_names:
            rs = self.schema.relation(name)
            # Π_{A_i}: zip the relation's qualified survivor columns
            # straight into a deduplicating set — no re-tupling of
            # whole universal rows.
            proj_cols = [
                survivors.column(f"{name}.{a}") for a in rs.attribute_names
            ]
            keep: Set[Row] = set(zip(*proj_cols))
            parts[name] = set(self.database.relation(name).rows()) - keep
        return Delta(self.schema, parts)

    def _assert_certified(self, iterations: int) -> None:
        if (
            self.certified_bound is not None
            and iterations > self.certified_bound
        ):
            raise AnalysisInvariantError(
                f"program P ({self.name} strategy) converged after "
                f"{iterations} productive iterations, exceeding the "
                f"statically certified bound of {self.certified_bound}; "
                f"the convergence analyzer (repro.analysis.fkgraph) "
                f"mis-certified this schema"
            )


class FixpointStrategy(_StrategyBase):
    """Program P by semi-naive stages that count the paper's iterations.

    Stage t applies rules (ii) and (iii) to Δ^{t-1}, exactly as the
    naive simultaneous schedule does, but touches only what changed:
    rule (ii) hands the previous stage's new tuples to one
    :class:`~repro.engine.reduction.SupportLoss`, which reports the
    tuples whose last join partner just left, and rule (iii) probes a
    target-key index with the previous stage's new source tuples.
    Every stage finds the same new tuples as the naive stage, so the
    iteration count and the per-rule trace are the naive ones.
    """

    name = "fixpoint"

    # -- Rules (ii) and (iii) ----------------------------------------------

    def _rule_reduce(
        self,
        reducer: DeltaReducer,
        support: SupportLoss,
        fresh: Dict[str, Set[Row]],
    ) -> Dict[str, Set[Row]]:
        """Rule (ii): the tuples that lose their last partner on some
        edge once the previous stage's new tuples *fresh* are gone."""
        ids = reducer.ids
        dropped = support.drop(
            rid
            for name, rows in fresh.items()
            for rid in map(ids[name].get, rows)
            if rid is not None
        )
        found: Dict[str, Set[Row]] = {}
        for rid in dropped:
            name, row = reducer.entries[rid]
            found.setdefault(name, set()).add(row)
        return found

    def _rule_backward(
        self, reducer: DeltaReducer, fresh: Dict[str, Set[Row]]
    ) -> Dict[str, Set[Row]]:
        """Rule (iii): backward cascade along back-and-forth FKs.

        For ``R_j.fk ↔ R_i.pk``: every R_i tuple whose primary key is
        referenced by a *deleted* R_j tuple must be deleted; the
        reducer's :attr:`~DeltaReducer.referenced` maps each R_j tuple
        to them (a NULL foreign key references nothing).  Tuples
        referenced by earlier stages' deletions are in Δ already, so
        only the previous stage's new R_j tuples *fresh* are probed.
        """
        found: Dict[str, Set[Row]] = {}
        for fk in self._bf_keys:
            index = reducer.referenced[fk]
            for row in fresh.get(fk.source, ()):
                targets = index.get(row)
                if targets:
                    found.setdefault(fk.target, set()).update(targets)
        return found

    # -- fixpoint loop -------------------------------------------------------

    def compute(
        self,
        phi: Predicate,
        *,
        max_iterations: Optional[int] = None,
        seeds: Optional[Delta] = None,
    ) -> InterventionResult:
        """Run program **P** to its least fixpoint for *phi*.

        ``max_iterations`` defaults to ``n + 2`` (Proposition 3.4 plus
        slack for the seed and final check); exceeding it raises
        :class:`~repro.errors.ConvergenceError`, which indicates an
        internal bug, not a user error.  ``seeds`` lets callers supply
        a precomputed Rule (i) result (the indexed evaluator of
        :mod:`repro.core.iterative` derives seeds from posting lists
        instead of re-scanning the universal table per explanation).
        """
        budget = (
            max_iterations
            if max_iterations is not None
            else self.database.total_rows() + 2
        )
        deleted: Dict[str, Set[Row]] = {
            name: set() for name in self.schema.relation_names
        }
        reducer = DeltaReducer.for_database(self.database)
        support = reducer.start()

        if seeds is None:
            seeds = self.seed_delta(phi)
        trace: List[IterationTrace] = []
        iteration = 0
        _strategy_counter(self.name)
        # The tuples the previous stage added to Δ (none before stage 1).
        fresh: Dict[str, Set[Row]] = {}

        def absorb(new: Dict[str, Set[Row]], into: Dict[str, Set[Row]]) -> int:
            added = 0
            for name, rows in new.items():
                got = rows - deleted[name]
                added += len(got)
                deleted[name].update(got)
                into.setdefault(name, set()).update(got)
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
                    added: Dict[str, Set[Row]] = {}
                    # Rules (ii) and (iii) evaluate against the Δ of
                    # the *previous* stage (naive simultaneous
                    # semantics), so both read *fresh* before anything
                    # is absorbed, seeds included — in stage 1 they see
                    # Δ⁰ = ∅, which is the counting used by Example 3.7
                    # / Prop 3.5.
                    reduce_new = self._rule_reduce(reducer, support, fresh)
                    backward_new = self._rule_backward(reducer, fresh)
                    if iteration == 1:
                        new_by_rule["seed"] = absorb(
                            {
                                name: set(rows)
                                for name, rows in seeds.parts().items()
                            },
                            added,
                        )
                    new_by_rule["reduce"] = absorb(reduce_new, added)
                    new_by_rule["backward"] = absorb(backward_new, added)
                    fresh = added
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
            _P_ITERATIONS.observe(iteration)
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


class ClosureStrategy(_StrategyBase):
    """Program P by FK cascade closure probes plus semijoin repair.

    Uses the per-database :class:`~repro.engine.closure.ClosureIndex`
    (built lazily on first use, shared across strategies and
    explanations, invalidated on mutation).  The computed delta is the
    same least fixpoint the :class:`FixpointStrategy` reaches — byte
    identical — while ``iterations`` reports productive repair rounds.
    """

    name = "closure"

    @property
    def index(self) -> ClosureIndex:
        """The current (version-cached) closure index for the database."""
        return ClosureIndex.for_database(self.database)

    def compute(
        self,
        phi: Predicate,
        *,
        max_iterations: Optional[int] = None,
        seeds: Optional[Delta] = None,
    ) -> InterventionResult:
        """Δ^φ via closure-index probes.

        ``max_iterations`` bounds the repair rounds (default ``n + 2``,
        matching the fixpoint budget; repair rounds can only be fewer).
        """
        budget = (
            max_iterations
            if max_iterations is not None
            else self.database.total_rows() + 2
        )
        if seeds is None:
            seeds = self.seed_delta(phi)
        _strategy_counter(self.name)
        with phase("program_p", strategy=self.name) as run_ph:
            closure_delta = self.index.delta_from_seeds(seeds)
            if closure_delta.rounds > budget:
                raise ConvergenceError(
                    f"closure repair exceeded {budget} rounds; this is a bug"
                )
            trace: List[IterationTrace] = []
            delta_size = 0
            for i, new_by_rule in enumerate(closure_delta.new_by_round, 1):
                delta_size += sum(new_by_rule.values())
                trace.append(IterationTrace(i, dict(new_by_rule), delta_size))
            run_ph.annotate(
                iterations=closure_delta.rounds,
                probes=closure_delta.probes,
                certified_bound=self.certified_bound,
            )
        self._assert_certified(closure_delta.rounds)
        return InterventionResult(
            delta=closure_delta.delta,
            seeds=seeds,
            iterations=closure_delta.rounds,
            trace=tuple(trace),
        )


# -- strategy selection -----------------------------------------------------


def recommended_strategy_for_schema(schema: DatabaseSchema) -> str:
    """The schedule the static analyzer would pick for *schema*.

    Back-and-forth keys are what make the fixpoint slow (Example 3.7's
    Θ(n) zig-zag needs them); without any, Proposition 3.5 bounds the
    fixpoint at 2 iterations and the closure index cannot help — its
    repair loop *is* those 2 iterations.  Reported as
    :attr:`repro.analysis.analyzer.PlanCertificate.recommended_strategy`.
    """
    return "closure" if schema.back_and_forth_keys else "fixpoint"


def make_strategy(
    database: Database,
    *,
    strategy: Optional[str] = None,
    universal: Optional[Table] = None,
    certified_bound: Optional[int] = None,
) -> InterventionStrategy:
    """Construct the :class:`InterventionStrategy` for *database*.

    ``strategy=None`` — every production caller — takes the schema's
    schedule (:func:`recommended_strategy_for_schema`); a name pins one.
    """
    if strategy is None:
        strategy = recommended_strategy_for_schema(database.schema)
    elif strategy not in STRATEGIES:
        raise ExplanationError(
            f"unknown intervention strategy {strategy!r}; choose from "
            f"{STRATEGIES}"
        )
    cls = ClosureStrategy if strategy == "closure" else FixpointStrategy
    return cls(
        database,
        universal=universal,
        certified_bound=certified_bound,
    )


def compute_intervention(
    database: Database,
    phi: Predicate,
    *,
    universal: Optional[Table] = None,
    strategy: Optional[str] = None,
) -> InterventionResult:
    """One-shot Δ^φ computation (convenience wrapper)."""
    return make_strategy(
        database, strategy=strategy, universal=universal
    ).compute(phi)
