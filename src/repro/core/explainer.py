"""The :class:`Explainer` facade — question in, ranked explanations out.

This is the public entry point most users need:

    >>> explainer = Explainer(database, question, attributes)
    >>> for ranked in explainer.top(5):
    ...     print(ranked.rank, ranked.explanation, ranked.degree)

Three evaluation methods build the explanation table *M*:

* ``"cube"`` — Algorithm 1 (Section 4.2); requires an
  intervention-additive query (checked; the fast path).
* ``"naive"`` — the Figure 12 'No Cube' baseline: iterate over every
  candidate explanation and evaluate each ``q_j(D_φ)`` by filtering
  the universal table, deriving intervention degrees by the same
  additive identity (so the same additivity check applies).
* ``"exact"`` — ground truth: per candidate, run program P and
  re-evaluate Q on the residual database.  Correct even for
  non-additive queries; slowest.
* ``"indexed"`` — the Section 6(i) optimized exact evaluator
  (:mod:`repro.core.iterative`): same ground-truth degrees as
  ``"exact"``; Algorithm 1's cube gives every column but μ_interv,
  which program P fills per candidate, sharing posting lists, seed
  indexes and survival scans across candidates.

All methods produce the same table layout, so the Section 4.3 top-K
strategies apply uniformly.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..analysis.additivity import AdditivityCertificate
    from ..analysis.analyzer import PlanCertificate
    from ..incremental import IncrementalSession, RefreshStats

from ..engine.database import Database
from ..engine.table import Table
from ..engine.types import DUMMY, NULL, Row, Value, is_null
from ..engine.universal import universal_table
from ..errors import ExplanationError
from ..obs import phase
from .candidates import enumerate_explanations
from .cube_algorithm import (
    MU_AGGR,
    MU_INTERV,
    ExplanationTable,
    build_explanation_table,
)
from .degrees import DegreeEvaluator
from .predicates import Explanation
from .question import UserQuestion
from .topk import RankedExplanation, rank_table

METHODS = ("cube", "naive", "exact", "indexed")

#: Pseudo-method: let the static plan certificate pick the fastest
#: sound method (resolved to one of METHODS before execution).
AUTO_METHOD = "auto"


def question_key(question: UserQuestion) -> str:
    """A stable, canonical text identity for a user question.

    Built from the question's direction plus the deterministic string
    renderings of the expression E and every aggregate (including WHERE
    predicates), so two structurally identical questions — whether
    parsed from text or built from AST objects — share one key.
    """
    return f"{question.direction.value}|{question.query}"


def backend_key(backend: object) -> str:
    """The registry name (or a stable stand-in) for a backend spec."""
    if isinstance(backend, str):
        return backend
    name = getattr(backend, "name", "")
    return name or repr(backend)


def resolve_method(
    method: str, backend: object, recommended: Callable[[], str]
) -> str:
    """The one method × backend rule: a concrete, runnable method name.

    :data:`AUTO_METHOD` means ``"cube"`` on a SQL backend (they
    implement only Algorithm 1) and the plan certificate's pick —
    ``recommended()``, called only then, so an explicit method costs no
    analysis — in memory.  Unknown names and non-cube methods on a SQL
    backend raise :class:`~repro.errors.ExplanationError`.
    """
    in_memory = backend_key(backend) == "memory"
    if method == AUTO_METHOD:
        method = recommended() if in_memory else "cube"
    if method not in METHODS:
        raise ExplanationError(
            f"unknown method {method!r}; choose from {METHODS}"
        )
    if method != "cube" and not in_memory:
        raise ExplanationError(
            f"method {method!r} runs only on the in-memory engine; "
            "SQL backends implement the 'cube' method"
        )
    return method


@dataclass(frozen=True)
class ExplanationPlan:
    """The fingerprintable identity of one explanation-table build.

    Everything that determines the finalized
    :class:`~repro.core.cube_algorithm.ExplanationTable` bit-for-bit is
    captured here: the database content fingerprint, the canonical
    question key, the attribute tuple (order-sensitive — it fixes the
    table's column layout), the evaluation method, the backend, and
    the support threshold.  Two plans with equal :meth:`fingerprint`
    values are guaranteed to produce interchangeable tables, which is
    what makes the table *M* safely cacheable across requests
    (:mod:`repro.service.cache`).
    """

    database_fingerprint: str
    question: str
    attributes: Tuple[str, ...]
    method: str
    backend: str
    support_threshold: Optional[float] = None
    #: The static analysis that justified (or merely accompanies) this
    #: plan.  Deliberately excluded from equality and the fingerprint:
    #: the certificate is derived from the other fields, not an input.
    certificate: Optional["PlanCertificate"] = field(
        default=None, compare=False, repr=False
    )

    @property
    def fingerprint(self) -> str:
        """SHA-256 content address of this plan.

        Hashes the ``repr`` of the field tuple, which quotes and
        escapes every string, so no field value can forge another
        plan's key by embedding a separator.
        """
        fields = (
            self.database_fingerprint,
            self.question,
            tuple(self.attributes),
            self.method,
            self.backend,
            self.support_threshold,
        )
        return hashlib.sha256(repr(fields).encode("utf-8")).hexdigest()


class Explainer:
    """Finds top explanations for one user question over one database.

    Parameters
    ----------
    database:
        The (semijoin-reduced) database instance.
    question:
        The user question ``(Q, dir)``.
    attributes:
        Qualified universal columns to search explanations over (the
        relevant set A' of Section 4.2).
    support_threshold:
        If set, drop explanations where no aggregate reaches it
        (Section 5.1.1 uses 1000).
    backend:
        Execution substrate for the ``"cube"`` method: ``"memory"``
        (default), ``"sqlite"``, ``"duckdb"``, or an
        :class:`~repro.backends.ExecutionBackend` instance.  The SQL
        backends run Algorithm 1 inside a real DBMS and produce the
        same rankings as the in-memory engine; the other methods
        (``naive``/``exact``/``indexed``) are memory-only.
    strategy:
        Pins program P's evaluation schedule (``"fixpoint"`` or
        ``"closure"``) for the intervention-running methods
        (``indexed``/``exact``/``naive`` and :meth:`score`) — a seam
        for tests and benches.  ``None`` (the default) lets the schema
        pick (:func:`~repro.core.intervention.make_strategy`).  Either
        schedule yields byte-identical tables, so it does not enter
        the plan fingerprint.  (Not to be confused with the *top-K*
        strategy of :meth:`top`, which names Section 4.3's ranking
        variants.)
    """

    def __init__(
        self,
        database: Database,
        question: UserQuestion,
        attributes: Sequence[str],
        *,
        support_threshold: Optional[float] = None,
        backend: object = "memory",
        strategy: Optional[str] = None,
    ) -> None:
        if not attributes:
            raise ExplanationError("Explainer needs at least one attribute")
        self.database = database
        self.question = question
        self.attributes = tuple(attributes)
        self.support_threshold = support_threshold
        self.backend = backend
        #: Pinned program-P schedule (None: the schema picks).
        self.strategy = strategy
        self.universal = universal_table(database)
        for attr in self.attributes:
            self.universal.position(attr)  # fail fast on unknown columns
        self._tables: Dict[str, ExplanationTable] = {}
        self._certificate: Optional["PlanCertificate"] = None
        self._incremental: Optional["IncrementalSession"] = None

    # -- analysis -----------------------------------------------------------

    def additivity_report(self) -> "AdditivityCertificate":
        """Is the question's query intervention-additive here?  The
        :meth:`certificate`'s verdict, so it is checked once."""
        return self.certificate().additivity

    def certificate(self) -> "PlanCertificate":
        """The (cached) static plan certificate for this explainer.

        Data-resolved: the analyzer sees the instance, so footnote-11
        ``count(distinct ...)`` cases get definitive verdicts and the
        convergence bound is concrete.  Consumers use it to *pick* the
        evaluation method (:data:`AUTO_METHOD`) instead of probing.
        """
        if self._certificate is None:
            from ..analysis.analyzer import analyze_plan

            self._certificate = analyze_plan(
                self.database.schema,
                self.question,
                self.attributes,
                database=self.database,
                universal=self.universal,
            )
        return self._certificate

    def resolve_method(self, method: str) -> str:
        """*method* validated for this backend, :data:`AUTO_METHOD`
        resolved (:func:`resolve_method`)."""
        return resolve_method(
            method,
            self.backend,
            lambda: self.certificate().recommended_method,
        )

    def original_value(self) -> Value:
        """``Q(D)`` — the value the user is asking about."""
        return self.question.query.evaluate_universal(self.universal)

    # -- table construction ----------------------------------------------------

    def plan(self, method: str = "cube") -> ExplanationPlan:
        """The fingerprintable plan for building *M* with *method*.

        The plan's :attr:`~ExplanationPlan.fingerprint` is the cache
        key used by the serving layer: equal fingerprints mean
        :meth:`explanation_table` would return an interchangeable
        table, so a cached copy can be substituted via
        :meth:`seed_table`.
        """
        method = self.resolve_method(method)
        return ExplanationPlan(
            database_fingerprint=self.database.content_fingerprint(),
            question=question_key(self.question),
            attributes=self.attributes,
            method=method,
            backend=backend_key(self.backend),
            support_threshold=self.support_threshold,
            certificate=self.certificate(),
        )

    def seed_table(self, method: str, table: ExplanationTable) -> None:
        """Inject a previously computed table *M* for *method*.

        Subsequent :meth:`explanation_table`/:meth:`top` calls with
        that method reuse *table* instead of recomputing it.  The
        caller is responsible for only seeding tables whose plan
        fingerprint matches (:meth:`plan`) — the serving layer's cache
        does exactly that.
        """
        method = self.resolve_method(method)
        self._tables[method] = table

    def explanation_table(
        self,
        method: str = "cube",
        *,
        check_additivity: bool = True,
    ) -> ExplanationTable:
        """Build the table *M* with the chosen method.

        The table is cached per method at the default keywords;
        ``check_additivity=False`` (see :func:`build_explanation_table`)
        bypasses the cache.
        """
        method = self.resolve_method(method)
        cacheable = check_additivity
        if cacheable and method in self._tables:
            return self._tables[method]
        with phase(
            "explanation_table",
            method=method,
            backend=backend_key(self.backend),
        ) as ph:
            ph.annotate(certified_bound=self.certificate().certified_bound)
            if method == "cube":
                m = build_explanation_table(
                    self.database,
                    self.question,
                    self.attributes,
                    universal=self.universal,
                    check_additivity=check_additivity,
                    support_threshold=self.support_threshold,
                    backend=self.backend,
                    certificate=self.certificate().additivity,
                )
            elif method == "naive":
                # Same additive identity as the cube, same precondition.
                if check_additivity:
                    self.certificate().additivity.raise_if_not_additive()
                m = self._naive_table(exact=False)
            elif method == "indexed":
                from .iterative import IndexedInterventionEvaluator

                m = IndexedInterventionEvaluator(
                    self.database,
                    self.question,
                    self.attributes,
                    universal=self.universal,
                    strategy=self.strategy,
                    support_threshold=self.support_threshold,
                ).build_table()
            else:
                m = self._naive_table(exact=True)
            ph.annotate(rows=len(m))
        if cacheable:
            self._tables[method] = m
        return m

    def _naive_table(self, *, exact: bool) -> ExplanationTable:
        query = self.question.query
        evaluator = DegreeEvaluator(
            self.database, self.question, strategy=self.strategy
        )
        value_columns = [f"v_{q.name}" for q in query.aggregates]
        columns = (
            list(self.attributes)
            + value_columns
            + [MU_INTERV, MU_AGGR]
        )
        rows: List[Row] = []
        candidates = list(
            enumerate_explanations(
                self.universal, self.attributes, include_trivial=True
            )
        )
        for phi in candidates:
            aggr_values = evaluator.aggravation_values(phi)
            if self.support_threshold is not None and not phi.is_trivial():
                if not any(
                    not is_null(v) and v >= self.support_threshold
                    for v in aggr_values.values()
                ):
                    continue
            mu_a = query.evaluate_environment(aggr_values)
            if not is_null(mu_a):
                mu_a = self.question.aggravation_sign * mu_a
            if exact:
                interv_values = evaluator.intervention_values(phi)
            else:
                interv_values = {
                    name: _subtract(evaluator.q_original[name], aggr_values[name])
                    for name in aggr_values
                }
            mu_i = query.evaluate_environment(interv_values)
            if not is_null(mu_i):
                mu_i = self.question.intervention_sign * mu_i
            assignments = phi.assignments()
            attr_values = tuple(
                assignments.get(attr, DUMMY) for attr in self.attributes
            )
            v_values = tuple(aggr_values[q.name] for q in query.aggregates)
            rows.append(attr_values + v_values + (mu_i, mu_a))
        return ExplanationTable(
            table=Table(columns, rows),
            attributes=self.attributes,
            aggregate_names=tuple(query.names),
            q_original=dict(evaluator.q_original),
        )

    # -- incremental maintenance ------------------------------------------------

    def apply_delta(
        self,
        mutations: Mapping[str, Mapping[str, Iterable[Sequence[Value]]]],
        *,
        method: str = "cube",
    ) -> "RefreshStats":
        """Mutate the database and refresh the table *M* incrementally.

        *mutations* maps relation names to ``{"insert": rows,
        "delete": rows}`` batches (deletes run first, so an update is a
        delete+insert pair).  The first call sets up an
        :class:`~repro.incremental.IncrementalSession` — one extra
        table build — after which each delta is folded into the live
        cube states in time proportional to the delta's universal
        rows; non-additive plans or exactness violations fall back to
        a full recompute (never a wrong table).

        The explainer's derived state (universal table, cached tables,
        certificate) is re-synced to the mutated instance, with the
        refreshed table seeded under *method*, so subsequent
        :meth:`top`/:meth:`explanation_table` calls serve the new
        state.  Mutate the database only through this method while
        using it — out-of-band writes before the first call escape the
        session's mutation log.
        """
        from ..incremental import IncrementalSession

        session = self._incremental
        if session is None or session.method != method:
            if session is not None:
                session.close()
            session = IncrementalSession(
                self.database,
                self.question,
                self.attributes,
                method=method,
                support_threshold=self.support_threshold,
            )
            self._incremental = session
        for name, spec in mutations.items():
            relation = self.database.relation(name)
            relation.delete_many(tuple(spec.get("delete", ()) or ()))
            relation.insert_many(tuple(spec.get("insert", ()) or ()))
        stats = session.refresh()
        # Derived state is stale after the writes: recompute the
        # universal table, drop memoized tables and the certificate,
        # and seed the refreshed M so reads skip a rebuild.
        self.universal = universal_table(self.database)
        self._tables = {}
        self._certificate = None
        self._tables[self.resolve_method(method)] = session.table()
        return stats

    # -- ranking ----------------------------------------------------------------

    def top(
        self,
        k: int,
        *,
        by: str = "intervention",
        strategy: str = "minimal_append",
        method: str = "cube",
        hybrid_weight: float = 0.5,
        minimality: str = "general",
    ) -> List[RankedExplanation]:
        """The top-K (minimal) explanations.

        ``by`` is ``"intervention"``, ``"aggravation"`` or ``"hybrid"``
        (the Section 6(iii) rank-combined degree, weighted by
        ``hybrid_weight`` toward intervention); ``strategy`` one of
        ``no_minimal`` / ``minimal_self_join`` / ``minimal_append``
        (Section 4.3); ``minimality`` is ``"general"`` (paper default)
        or ``"specific"`` (footnote 12's alternative).
        """
        return rank_table(
            self.explanation_table(method),
            k=k,
            by=by,
            strategy=strategy,
            minimality=minimality,
            hybrid_weight=hybrid_weight,
        )

    # -- one-off scoring ------------------------------------------------------

    def score(self, phi: Explanation):
        """Exact degrees for one explanation (program P ground truth)."""
        return DegreeEvaluator(
            self.database, self.question, strategy=self.strategy
        ).score(phi)


def _subtract(original: Value, restricted: Value) -> Value:
    if is_null(original) or is_null(restricted):
        return NULL
    return original - restricted


def render_ranking(ranking: Iterable[RankedExplanation]) -> str:
    """A readable table of ranked explanations for examples and CLIs."""
    lines = ["rank  degree        explanation"]
    for r in ranking:
        degree = f"{r.degree:.4g}" if isinstance(r.degree, (int, float)) else str(r.degree)
        lines.append(f"{r.rank:>4}  {degree:<12}  {r.explanation}")
    return "\n".join(lines)
