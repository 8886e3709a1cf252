"""Tests for schema/data causal graphs (Definitions 3.8–3.9, Figure 6)."""

import pytest

from repro.core.causality import SchemaCausalGraph
from repro.core.intervention import FixpointStrategy, compute_intervention
from repro.core.predicates import parse_explanation
from repro.datasets import chains
from repro.datasets import running_example as rex

from support.causality import DataCausalGraph, prop_310_bound
from support.fixtures import example_29_database


class TestSchemaCausalGraph:
    def test_running_example_edges(self):
        """Figure 6a: Author→Authored solid, Publication→Authored solid,
        Authored→Publication dotted."""
        g = SchemaCausalGraph.of(rex.schema())
        assert ("Author", "Authored") in g.solid
        assert ("Publication", "Authored") in g.solid
        assert ("Authored", "Publication") in g.dotted
        assert len(g.dotted) == 1

    def test_standard_variant_has_no_dotted(self):
        g = SchemaCausalGraph.of(rex.schema(back_and_forth=False))
        assert g.dotted == frozenset()

    def test_successors(self):
        g = SchemaCausalGraph.of(rex.schema())
        succ = dict.fromkeys([])
        successors = g.successors("Authored")
        assert ("Publication", True) in successors

    def test_simple(self):
        assert SchemaCausalGraph.of(rex.schema()).is_simple()

    def test_prop_311_applies_to_running_example(self):
        g = SchemaCausalGraph.of(rex.schema())
        assert g.prop_311_applies()
        assert g.prop_311_bound() == 4

    def test_prop_311_rejects_chain_schema(self):
        """R3 has two b&f keys — recursion required (Example 3.7)."""
        g = SchemaCausalGraph.of(chains.chain_schema())
        assert not g.prop_311_applies()
        assert g.max_back_and_forth_per_relation() == 2


class TestDataCausalGraph:
    def test_figure_6b_dotted_edges(self):
        """Each Authored tuple has a dotted edge to its publication."""
        db = rex.database()
        g = DataCausalGraph.of(db)
        assert ("Publication", rex.T1) in g.successors(("Authored", rex.S1))
        has_solid, has_dotted = g.successors(("Authored", rex.S1))[
            ("Publication", rex.T1)
        ]
        assert has_dotted

    def test_author_to_authored_solid(self):
        db = rex.database()
        g = DataCausalGraph.of(db)
        edge = g.successors(("Author", rex.R1)).get(("Authored", rex.S1))
        assert edge is not None and edge[0]  # solid

    def test_publication_to_authored_solid(self):
        db = rex.database()
        g = DataCausalGraph.of(db)
        edge = g.successors(("Publication", rex.T1)).get(("Authored", rex.S1))
        assert edge is not None and edge[0]

    def test_no_edge_between_unrelated_tuples(self):
        db = rex.database()
        g = DataCausalGraph.of(db)
        # JG (r1) is not a cause of RR's authorship of P3 (s5).
        assert ("Authored", rex.S5) not in g.successors(("Author", rex.R1))

    def test_semijoin_induced_solid_edge(self):
        """When t_j is the only tuple referencing t_i, deleting t_j
        deletes t_i at reduction time — Definition 3.8 adds the solid
        edge t_j → t_i.  In Figure 3, s3 is not P2's only author (s4
        exists), but s1 and s5 are RR-P cases... take P2: it has two
        authors, so no such edge; in Example 2.9's chain, S1(a,b) is
        the only tuple referencing R1(a)."""
        db = example_29_database()
        g = DataCausalGraph.of(db)
        edge = g.successors(("S1", ("a", "b"))).get(("R1", ("a",)))
        assert edge is not None and edge[0]

    def test_causal_path_example(self):
        """Figure 6: P = r1 → s1 → t1 → s2 is a causal path of length 1."""
        db = rex.database()
        g = DataCausalGraph.of(db)
        # walk the path edge by edge
        assert ("Authored", rex.S1) in g.successors(("Author", rex.R1))
        assert ("Publication", rex.T1) in g.successors(("Authored", rex.S1))
        assert ("Authored", rex.S2) in g.successors(("Publication", rex.T1))

    def test_max_causal_length_from_seed(self):
        db = rex.database()
        g = DataCausalGraph.of(db)
        q = g.max_causal_length_from(("Authored", rex.S1))
        assert q >= 1


class TestProposition310:
    @pytest.mark.parametrize(
        "phi_text",
        [
            "Author.name = 'JG' AND Publication.year = 2001",
            "Author.dom = 'com'",
            "Publication.venue = 'VLDB'",
        ],
    )
    def test_bound_holds_on_running_example(self, phi_text):
        db = rex.database()
        phi = parse_explanation(phi_text)
        engine = FixpointStrategy(db)
        result = engine.compute(phi)
        bound = prop_310_bound(db, result.seeds)
        assert result.iterations <= bound

    @pytest.mark.parametrize("p", [1, 2])
    def test_bound_holds_on_chain(self, p):
        db, phi = chains.example_37(p)
        result = compute_intervention(db, phi)
        bound = prop_310_bound(db, result.seeds)
        assert result.iterations <= bound

    def test_chain_causal_length_is_2p(self):
        """The paper: q = |R3|/1 = 2p on the chain (dotted edges
        alternate down the zig-zag)."""
        p = 2
        db, phi = chains.example_37(p)
        result = compute_intervention(db, phi)
        g = DataCausalGraph.of(db)
        q = g.max_causal_length_from_seeds(result.seeds)
        assert q >= 2 * p - 1  # at least almost the full zig-zag
        assert 2 * q + 2 >= result.iterations
