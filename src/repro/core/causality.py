"""Causal graphs and causal paths (Definitions 3.8–3.9).

Two graphs depict the causal relations induced by the foreign keys:

* the **schema causal graph** ``G`` — one node per relation; a solid
  edge ``R_i → R_j`` per foreign key ``R_j.fk → R_i.pk`` and an extra
  dotted edge ``R_j → R_i`` when the key is back-and-forth;
* the **data causal graph** ``G_D`` — one node per tuple; a solid edge
  ``t_i → t_j`` when every universal tuple containing ``t_j`` also
  contains ``t_i`` (this folds in semijoin-reduction effects), and a
  dotted edge ``t_j → t_i`` along each back-and-forth key match.

The *causal length* of a simple directed path is its number of dotted
edges; Proposition 3.10 bounds the fixpoint iterations of program P by
``2q + 2`` where q is the maximum causal length over paths starting at
seed tuples.  These graphs are analysis/verification tools: the
fixpoint itself never materializes them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Set, Tuple

from ..engine.schema import DatabaseSchema


@dataclass(frozen=True)
class SchemaCausalGraph:
    """The schema causal graph G (Definition 3.8, schema level).

    ``solid`` and ``dotted`` are edge sets of (from_relation,
    to_relation) pairs.
    """

    schema: DatabaseSchema
    solid: FrozenSet[Tuple[str, str]]
    dotted: FrozenSet[Tuple[str, str]]

    @classmethod
    def of(cls, schema: DatabaseSchema) -> "SchemaCausalGraph":
        """Build G from a schema's foreign keys."""
        solid: Set[Tuple[str, str]] = set()
        dotted: Set[Tuple[str, str]] = set()
        for fk in schema.foreign_keys:
            solid.add((fk.target, fk.source))
            if fk.back_and_forth:
                dotted.add((fk.source, fk.target))
        return cls(schema, frozenset(solid), frozenset(dotted))

    def successors(self, relation: str) -> List[Tuple[str, bool]]:
        """Outgoing (neighbour, is_dotted) pairs of *relation*."""
        out = [(b, False) for (a, b) in self.solid if a == relation]
        out.extend((b, True) for (a, b) in self.dotted if a == relation)
        return out

    def is_simple(self) -> bool:
        """At most one foreign key between any two relations.

        This is the 'simple' condition of Proposition 3.11;
        :class:`~repro.engine.schema.DatabaseSchema` already enforces
        it, so this always holds for validated schemas.
        """
        undirected = {frozenset(e) for e in self.solid}
        return len(undirected) == len(self.solid)

    def max_back_and_forth_per_relation(self) -> int:
        """Max number of b&f foreign keys any single relation carries.

        Proposition 3.11 applies when this is ≤ 1 (each relation has at
        most one back-and-forth foreign key as its *source*).
        """
        counts: Dict[str, int] = {}
        for fk in self.schema.foreign_keys:
            if fk.back_and_forth:
                counts[fk.source] = counts.get(fk.source, 0) + 1
        return max(counts.values(), default=0)

    def prop_311_applies(self) -> bool:
        """True when Proposition 3.11's preconditions hold."""
        return self.is_simple() and self.max_back_and_forth_per_relation() <= 1

    def prop_311_bound(self) -> int:
        """The 2s + 2 iteration bound (s = number of b&f keys)."""
        s = len(self.dotted)
        return 2 * s + 2
