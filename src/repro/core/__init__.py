"""``repro.core`` — the paper's contribution: explanations by intervention.

Public surface:

* predicates and candidate explanations (:mod:`~repro.core.predicates`),
* numerical queries and user questions (:mod:`~repro.core.numquery`,
  :mod:`~repro.core.question`),
* the intervention fixpoint, program P (:mod:`~repro.core.intervention`),
* causal graphs (:mod:`~repro.core.causality`),
* degrees μ_aggr / μ_interv (:mod:`~repro.core.degrees`),
* intervention-additivity analysis (:mod:`~repro.core.additivity`),
* Algorithm 1 over the data cube (:mod:`~repro.core.cube_algorithm`),
* top-K strategies (:mod:`~repro.core.topk`),
* the :class:`~repro.core.explainer.Explainer` facade.
"""

from .additivity import analyze_additivity
from .candidates import active_domain, count_candidates, enumerate_explanations
from .causality import SchemaCausalGraph
from .cube_algorithm import (
    MU_AGGR,
    MU_HYBRID,
    MU_INTERV,
    ExplanationTable,
    add_hybrid_column,
    build_explanation_table,
)
from .degrees import DegreeEvaluator, ExplanationScore
from .explainer import (
    Explainer,
    ExplanationPlan,
    backend_key,
    question_key,
    render_ranking,
)
from .iterative import IndexedInterventionEvaluator
from .intervention import InterventionResult, IterationTrace, compute_intervention
from .numquery import (
    AggregateQuery,
    NumericalQuery,
    double_ratio_query,
    ratio_query,
    regression_slope_query,
    single_query,
)
from .predicates import (
    AtomicPredicate,
    DisjunctivePredicate,
    Explanation,
    Predicate,
    parse_atom,
    parse_explanation,
)
from .parsing import (
    parse_aggregate_query,
    parse_expression,
    parse_numerical_query,
    parse_question,
)
from .question import Direction, UserQuestion
from .report import ExplanationReport, explain_question
from .validation import Check, ValidationReport, validate_database, validate_question
from .rewrite import PAD, RewrittenDatabase, rewrite_back_and_forth
from .topk import (
    RankedExplanation,
    STRATEGIES,
    top_k_explanations,
    top_k_minimal_append,
    top_k_minimal_self_join,
    top_k_no_minimal,
)

__all__ = [
    "analyze_additivity",
    "active_domain",
    "count_candidates",
    "enumerate_explanations",
    "SchemaCausalGraph",
    "MU_AGGR",
    "MU_HYBRID",
    "MU_INTERV",
    "ExplanationTable",
    "add_hybrid_column",
    "build_explanation_table",
    "DegreeEvaluator",
    "ExplanationScore",
    "Explainer",
    "ExplanationPlan",
    "backend_key",
    "question_key",
    "render_ranking",
    "IndexedInterventionEvaluator",
    "InterventionResult",
    "IterationTrace",
    "compute_intervention",
    "AggregateQuery",
    "NumericalQuery",
    "double_ratio_query",
    "ratio_query",
    "regression_slope_query",
    "single_query",
    "AtomicPredicate",
    "DisjunctivePredicate",
    "Explanation",
    "Predicate",
    "parse_atom",
    "parse_explanation",
    "parse_aggregate_query",
    "parse_expression",
    "parse_numerical_query",
    "parse_question",
    "Direction",
    "UserQuestion",
    "ExplanationReport",
    "explain_question",
    "Check",
    "ValidationReport",
    "validate_database",
    "validate_question",
    "PAD",
    "RewrittenDatabase",
    "rewrite_back_and_forth",
    "RankedExplanation",
    "STRATEGIES",
    "top_k_explanations",
    "top_k_minimal_append",
    "top_k_minimal_self_join",
    "top_k_no_minimal",
]
