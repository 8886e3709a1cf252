"""``repro.analysis`` — static plan analysis and certification.

The paper's correctness and performance guarantees are *static*
properties of the schema and query:

* convergence of program P (Propositions 3.4, 3.5, 3.10, 3.11 and the
  Example 3.7 lower bound) depends only on the foreign-key graph;
* exactness of Algorithm 1's cube (Section 4.1 sufficient conditions,
  Corollary 3.6, footnote 11) depends on the aggregate kinds and the
  back-and-forth keys;
* well-formedness of the candidate attributes and predicates depends
  only on the schema.

This package decides those properties *before* any data is touched and
packages the result as a :class:`~repro.analysis.analyzer.PlanCertificate`:
the engine picks the fast path because it is certified sound, instead
of trying it and falling back; the iterative fixpoint asserts the
certified iteration bound as a runtime invariant; the CLI
(``repro analyze``) and the service (``POST /v1/analyze``) render the
certificate for operators.

See ``docs/analysis.md`` for the proposition-to-rule mapping.
"""

from .additivity import (
    VERDICT_EXACT_CUBE,
    VERDICT_NEEDS_ITERATIVE,
    VERDICT_UNSUPPORTED,
    AdditivityCertificate,
    AggregateVerdict,
    certify_additivity,
)
from .analyzer import PlanCertificate, analyze_plan
from .fkgraph import (
    RULE_PROP_34,
    RULE_PROP_35,
    RULE_PROP_310,
    RULE_PROP_311,
    BoundRule,
    ConvergenceCertificate,
    EdgeReport,
    certify_convergence,
)
from .linter import Diagnostic, lint_plan

__all__ = [
    "AdditivityCertificate",
    "AggregateVerdict",
    "BoundRule",
    "ConvergenceCertificate",
    "Diagnostic",
    "EdgeReport",
    "PlanCertificate",
    "RULE_PROP_310",
    "RULE_PROP_311",
    "RULE_PROP_34",
    "RULE_PROP_35",
    "VERDICT_EXACT_CUBE",
    "VERDICT_NEEDS_ITERATIVE",
    "VERDICT_UNSUPPORTED",
    "analyze_plan",
    "certify_additivity",
    "certify_convergence",
    "lint_plan",
]
