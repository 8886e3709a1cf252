"""Candidate-explanation enumeration over a chosen attribute subset.

The system searches explanations over a user-chosen set of *relevant
attributes* ``A'`` (Section 4.2: "the subset A' helps both in focusing
the search and improving performance").  The cube algorithm enumerates
candidates implicitly (one cube row each); the naive baseline and the
tests need the explicit enumeration implemented here: every conjunction
of equality predicates assigning values from the active domain to a
subset of ``A'``.
"""

from __future__ import annotations

from itertools import combinations, product
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..engine.table import Table
from ..engine.types import Value, sort_key
from ..errors import ExplanationError
from .predicates import AtomicPredicate, Explanation


def active_domain(
    universal: Table, column: str, *, limit: Optional[int] = None
) -> List[Value]:
    """Distinct non-null values of a universal column, sorted.

    ``limit`` caps the number of values (most-frequent first would need
    counting; we keep the deterministic sorted prefix, which suffices
    for the synthetic workloads).
    """
    values = sorted(universal.column_values(column), key=sort_key)
    if limit is not None:
        return values[:limit]
    return values


def enumerate_explanations(
    universal: Table,
    attributes: Sequence[str],
    *,
    max_atoms: Optional[int] = None,
    include_trivial: bool = False,
    domain_limit: Optional[int] = None,
) -> Iterator[Explanation]:
    """All equality candidate explanations over *attributes*.

    Yields conjunctions over every non-empty subset of the attributes
    (up to ``max_atoms`` conjuncts), assigning each chosen attribute a
    value from its active domain.  Attribute names must be qualified
    universal columns (``Relation.attr``).
    """
    for attr in attributes:
        if "." not in attr:
            raise ExplanationError(
                f"candidate attribute {attr!r} must be qualified Relation.attr"
            )
    domains: Dict[str, List[Value]] = {
        attr: active_domain(universal, attr, limit=domain_limit)
        for attr in attributes
    }
    if include_trivial:
        yield Explanation(())
    cap = max_atoms if max_atoms is not None else len(attributes)
    for size in range(1, cap + 1):
        for subset in combinations(attributes, size):
            value_lists = [domains[a] for a in subset]
            for values in product(*value_lists):
                atoms = tuple(
                    AtomicPredicate(*_split(attr), "=", value)
                    for attr, value in zip(subset, values)
                )
                yield Explanation(atoms)


def count_candidates(
    universal: Table,
    attributes: Sequence[str],
    *,
    max_atoms: Optional[int] = None,
) -> int:
    """Number of candidate explanations without materializing them.

    ``Π over subsets S of Π_{a∈S} |adom(a)|`` — the paper quotes these
    counts for the natality experiments (">71K candidate explanations").
    """
    sizes = [len(universal.column_values(a)) for a in attributes]
    cap = max_atoms if max_atoms is not None else len(attributes)
    total = 0
    for size in range(1, cap + 1):
        for subset in combinations(range(len(sizes)), size):
            prod = 1
            for i in subset:
                prod *= sizes[i]
            total += prod
    return total


def _split(qualified: str) -> Tuple[str, str]:
    rel, attr = qualified.split(".", 1)
    return rel, attr
