"""Exception hierarchy for the :mod:`repro` package.

Every error raised deliberately by the library derives from
:class:`ReproError`, so callers can catch a single base class.  The
hierarchy mirrors the package layout: engine-level problems (schema,
integrity, query construction) and explanation-framework problems
(invalid questions, non-additive queries fed to the cube algorithm).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SchemaError(ReproError):
    """A schema definition is malformed.

    Raised for duplicate relation or attribute names, foreign keys that
    reference unknown relations/attributes, missing primary keys, or a
    cyclic schema where an acyclic one is required.
    """


class IntegrityError(ReproError):
    """A database instance violates its declared schema.

    Raised for rows of the wrong arity, duplicate primary keys, or
    dangling foreign-key references.
    """


class QueryError(ReproError):
    """A query or expression is malformed.

    Raised for references to unknown attributes, type mismatches inside
    expressions, and aggregates applied to non-existent columns.
    """


class ExplanationError(ReproError):
    """A problem in the explanation framework itself.

    Raised for malformed candidate predicates, invalid user questions,
    or attempts to run the cube algorithm on a numerical query that is
    not intervention-additive without explicitly opting out of the
    safety check.
    """


class NotAdditiveError(ExplanationError):
    """The numerical query is not intervention-additive (Definition 4.2).

    The data-cube algorithm (Algorithm 1) computes
    ``q(D - delta_phi)`` as ``q(D) - q(D_phi)``; this identity only
    holds for intervention-additive queries.  Callers may either fall
    back to the naive per-explanation evaluation or request the unsound
    approximation explicitly.
    """


class IncrementalError(ReproError):
    """An incremental patch cannot be applied exactly.

    Raised by :mod:`repro.incremental` and by retractable accumulators
    (:meth:`repro.engine.aggregates.AggregateSpec.retractable`) when a
    delta violates the conditions for exact maintenance — a retraction
    of an unknown group, a negative count after retraction
    (conservation failure), or a float-valued SUM (retraction is not
    exact under floating point).
    :class:`~repro.incremental.IncrementalSession` catches this and
    falls back to a full recompute; the ``reason`` attribute labels the
    ``repro_incremental_fallbacks_total`` counter.
    """

    def __init__(self, message: str, *, reason: str = "conservation") -> None:
        super().__init__(message)
        self.reason = reason


class ConvergenceError(ReproError):
    """The fixpoint loop exceeded its iteration budget.

    Program ``P`` (Section 3) is guaranteed to converge within ``n``
    iterations; exceeding the budget indicates an internal bug, so this
    error should never surface in normal use.
    """


class AnalysisInvariantError(ReproError):
    """A statically certified property was violated at runtime.

    The :mod:`repro.analysis` package certifies facts about a plan
    before execution — e.g. the iteration bound of program P derived
    from Propositions 3.4/3.5/3.10/3.11.  If execution contradicts a
    certified fact, either the analyzer or the engine has a bug; the
    violation is raised loudly instead of being papered over.
    """
