"""The data causal graph G_D and Proposition 3.10's bound.

Definition 3.8 at the data level: one node per tuple; a solid edge
``t_i → t_j`` when every universal tuple containing ``t_j`` also
contains ``t_i``, and a dotted edge ``t_j → t_i`` along each
back-and-forth key match.  The causal length of a simple path is its
number of dotted edges; Proposition 3.10 bounds the iterations of
program P by ``2q + 2``, q the longest causal length from a seed tuple.
Program P never builds this graph; the tests use it to check the bound.
The schema-level graph G is :class:`repro.core.causality.SchemaCausalGraph`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.engine.database import Database, Delta
from repro.engine.table import Table
from repro.engine.types import Row
from repro.engine.universal import universal_table

#: A node of the data causal graph: (relation name, row).
TupleNode = Tuple[str, Row]


@dataclass
class DataCausalGraph:
    """The data causal graph G_D (Definition 3.8, data level).

    Edges carry flavour flags: a pair of tuples may be linked by a
    solid edge, a dotted edge, or both (the figures omit the solid edge
    when a dotted one exists, but for path arithmetic both matter).
    """

    nodes: Set[TupleNode] = field(default_factory=set)
    #: adjacency: node -> {successor: (has_solid, has_dotted)}
    edges: Dict[TupleNode, Dict[TupleNode, Tuple[bool, bool]]] = field(
        default_factory=dict
    )

    def _add_edge(self, a: TupleNode, b: TupleNode, dotted: bool) -> None:
        if a == b:
            return
        self.nodes.add(a)
        self.nodes.add(b)
        bucket = self.edges.setdefault(a, {})
        has_solid, has_dotted = bucket.get(b, (False, False))
        if dotted:
            has_dotted = True
        else:
            has_solid = True
        bucket[b] = (has_solid, has_dotted)

    @classmethod
    def of(
        cls,
        database: Database,
        *,
        universal: Optional[Table] = None,
    ) -> "DataCausalGraph":
        """Build G_D for a database instance.

        Solid edges implement the containment condition
        ``∀u ∈ U(D): Π_{A_j}u = t_j ⇒ Π_{A_i}u = t_i`` pairwise over
        relations; this is quadratic in the universal table and meant
        for analysis on small/medium instances.
        """
        graph = cls()
        schema = database.schema
        u = universal if universal is not None else universal_table(database)
        for name, rel in database.relations.items():
            for row in rel:
                graph.nodes.add((name, row))

        # Map each tuple to the set of universal row indexes containing it.
        containing: Dict[TupleNode, Set[int]] = {}
        projections: Dict[str, Tuple[int, ...]] = {}
        for name in schema.relation_names:
            rs = schema.relation(name)
            projections[name] = u.positions(
                [f"{name}.{a}" for a in rs.attribute_names]
            )
        for idx, urow in enumerate(u.rows()):
            for name, pos in projections.items():
                node = (name, tuple(urow[i] for i in pos))
                containing.setdefault(node, set()).add(idx)

        names = schema.relation_names
        for i_name in names:
            for j_name in names:
                if i_name == j_name:
                    continue
                for tj in database.relation(j_name):
                    rows_with_tj = containing.get((j_name, tj), set())
                    if not rows_with_tj:
                        continue
                    # Which R_i tuple appears in those rows? If it is
                    # always the same one, we have a solid edge.
                    pos = projections[i_name]
                    urows = u.rows()
                    seen_ti: Set[Row] = set()
                    for idx in rows_with_tj:
                        seen_ti.add(tuple(urows[idx][k] for k in pos))
                        if len(seen_ti) > 1:
                            break
                    if len(seen_ti) == 1:
                        ti = next(iter(seen_ti))
                        graph._add_edge((i_name, ti), (j_name, tj), dotted=False)

        for fk in schema.back_and_forth_keys:
            source = database.relation(fk.source)
            target = database.relation(fk.target)
            src_pos = source.schema.indexes_of(fk.source_attrs)
            tgt = Table.from_relation(target)
            tgt_rows = tgt.rows()
            tgt_index = tgt.index_positions(fk.target_attrs)
            for tj in source:
                key = tuple(tj[i] for i in src_pos)
                for i in tgt_index.get(key, ()):
                    graph._add_edge(
                        (fk.source, tj), (fk.target, tgt_rows[i]), dotted=True
                    )
        return graph

    # -- path analysis --------------------------------------------------------

    def successors(self, node: TupleNode) -> Dict[TupleNode, Tuple[bool, bool]]:
        """Outgoing edges of *node* with (has_solid, has_dotted) flags."""
        return self.edges.get(node, {})

    def max_causal_length_from(self, start: TupleNode) -> int:
        """Max number of dotted edges over simple paths from *start*.

        Exhaustive DFS over simple paths — exponential in the worst
        case, intended for verification on small instances (the paper's
        q in Proposition 3.10).
        """
        best = 0
        path: List[TupleNode] = [start]
        on_path = {start}

        def dfs(node: TupleNode, dotted_count: int) -> None:
            nonlocal best
            best = max(best, dotted_count)
            for succ, (has_solid, has_dotted) in self.successors(node).items():
                if succ in on_path:
                    continue
                on_path.add(succ)
                path.append(succ)
                # Maximizing: traverse as dotted when available.
                dfs(succ, dotted_count + (1 if has_dotted else 0))
                path.pop()
                on_path.discard(succ)

        dfs(start, 0)
        return best

    def max_causal_length_from_seeds(self, seeds: Delta) -> int:
        """q of Proposition 3.10: max causal length from any seed tuple."""
        best = 0
        for name in seeds.schema.relation_names:
            for row in seeds.rows_for(name):
                node = (name, row)
                if node in self.nodes:
                    best = max(best, self.max_causal_length_from(node))
        return best


def prop_310_bound(database: Database, seeds: Delta) -> int:
    """The 2q + 2 iteration bound of Proposition 3.10 for given seeds."""
    graph = DataCausalGraph.of(database)
    q = graph.max_causal_length_from_seeds(seeds)
    return 2 * q + 2
