"""repro — intervention-based explanations for database queries.

A production-quality reproduction of *"A Formal Approach to Finding
Explanations for Database Queries"* (Sudeepa Roy and Dan Suciu, SIGMOD
2014).  The package contains:

* :mod:`repro.engine` — a from-scratch in-memory relational engine
  (relations, foreign keys, joins, semijoin reduction, GROUP BY WITH
  CUBE, top-K) standing in for the paper's SQL Server substrate;
* :mod:`repro.core` — the explanation framework: candidate predicates,
  numerical queries, the intervention fixpoint (program P), degrees of
  explanation, the data-cube Algorithm 1, and the top-K strategies;
* :mod:`repro.datasets` — seeded synthetic generators reproducing the
  paper's DBLP, Geo-DBLP and natality workloads.

Quickstart::

    from repro import Explainer
    from repro.datasets import natality

    db = natality.generate(rows=10_000, seed=7)
    question = natality.q_race_question()
    explainer = Explainer(db, question, natality.default_attributes())
    for ranked in explainer.top(5):
        print(ranked.rank, ranked.explanation, ranked.degree)
"""

from ._version import __version__
from .backends import (
    ExecutionBackend,
    available_backends,
    backend_names,
    get_backend,
    register_backend,
)
from .core import (
    AggregateQuery,
    AtomicPredicate,
    DegreeEvaluator,
    Direction,
    DisjunctivePredicate,
    Explainer,
    Explanation,
    ExplanationTable,
    InterventionResult,
    NumericalQuery,
    RankedExplanation,
    UserQuestion,
    analyze_additivity,
    build_explanation_table,
    compute_intervention,
    double_ratio_query,
    parse_explanation,
    ratio_query,
    regression_slope_query,
    render_ranking,
    rewrite_back_and_forth,
    single_query,
    top_k_explanations,
)
from .engine import (
    Database,
    DatabaseSchema,
    Delta,
    ForeignKey,
    Relation,
    RelationSchema,
    Table,
    agg_avg,
    agg_max,
    agg_min,
    agg_sum,
    count_distinct,
    count_star,
    foreign_key,
    make_schema,
    single_table_schema,
    universal_table,
)
from .errors import (
    ConvergenceError,
    ExplanationError,
    IntegrityError,
    NotAdditiveError,
    QueryError,
    ReproError,
    SchemaError,
)

__all__ = [
    "AggregateQuery",
    "ExecutionBackend",
    "available_backends",
    "backend_names",
    "get_backend",
    "register_backend",
    "AtomicPredicate",
    "DegreeEvaluator",
    "Direction",
    "DisjunctivePredicate",
    "Explainer",
    "Explanation",
    "ExplanationTable",
    "InterventionResult",
    "NumericalQuery",
    "RankedExplanation",
    "UserQuestion",
    "analyze_additivity",
    "build_explanation_table",
    "compute_intervention",
    "double_ratio_query",
    "parse_explanation",
    "ratio_query",
    "regression_slope_query",
    "render_ranking",
    "rewrite_back_and_forth",
    "single_query",
    "top_k_explanations",
    "Database",
    "DatabaseSchema",
    "Delta",
    "ForeignKey",
    "Relation",
    "RelationSchema",
    "Table",
    "agg_avg",
    "agg_max",
    "agg_min",
    "agg_sum",
    "count_distinct",
    "count_star",
    "foreign_key",
    "make_schema",
    "single_table_schema",
    "universal_table",
    "ConvergenceError",
    "ExplanationError",
    "IntegrityError",
    "NotAdditiveError",
    "QueryError",
    "ReproError",
    "SchemaError",
    "__version__",
]
