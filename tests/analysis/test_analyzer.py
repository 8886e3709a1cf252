"""Tests for :func:`analyze_plan`, the :class:`PlanCertificate`, and
its consumers (Explainer auto-method, dataset self-certifications)."""

import dataclasses
import json

import pytest

from repro.analysis import (
    RULE_PROP_34,
    RULE_PROP_35,
    RULE_PROP_311,
    VERDICT_EXACT_CUBE,
    PlanCertificate,
    analyze_plan,
    certify_convergence,
)
from repro.core.explainer import AUTO_METHOD, Explainer
from repro.core.parsing import parse_question
from repro.datasets import chains, dblp, geodblp, natality, tpch
from repro.datasets import running_example as rex

ATTRS = ["Author.inst", "Publication.year"]


def count_ratio_question():
    return parse_question(
        "high",
        "(q1 / q2)",
        ["q1 := count(*) WHERE Author.dom = 'edu'", "q2 := count(*)"],
    )


def avg_question():
    return parse_question("high", "q1", ["q1 := avg(Publication.year)"])


class TestAnalyzePlan:
    def test_full_certificate_no_back_and_forth(self):
        # Without back-and-forth keys count(*) is Corollary 3.6
        # additive, so the cube is certified exact.
        cert = analyze_plan(
            rex.schema(back_and_forth=False),
            count_ratio_question(),
            ATTRS,
            database=rex.database(back_and_forth=False),
        )
        assert isinstance(cert, PlanCertificate)
        assert cert.certified_bound == 2
        assert cert.additivity is not None
        assert cert.additivity.data_resolved
        assert all(
            v.verdict == VERDICT_EXACT_CUBE for v in cert.additivity.verdicts
        )
        assert cert.recommended_method == "cube"
        assert not cert.has_errors

    def test_back_and_forth_blocks_the_cube(self):
        # The Eq. (2) back-and-forth key makes count(*) non-additive
        # (Section 4.1): the posting-list evaluator is the fast path.
        cert = analyze_plan(
            rex.schema(), count_ratio_question(), ATTRS, database=rex.database()
        )
        assert cert.convergence.selected_rule == RULE_PROP_311
        assert cert.certified_bound == 4
        assert not cert.additivity.all_exact_cube
        assert cert.recommended_method == "indexed"

    def test_schema_only_no_query(self):
        cert = analyze_plan(rex.schema(), None, ATTRS)
        assert cert.additivity is None
        assert cert.query_rendered is None
        assert cert.recommended_method == "exact"

    def test_non_additive_recommends_indexed(self):
        # indexed is exact for every aggregate kind, avg included.
        cert = analyze_plan(rex.schema(), avg_question(), ATTRS)
        assert not cert.additivity.all_exact_cube
        assert cert.recommended_method == "indexed"

    def test_count_family_recommends_at_least_indexed(self):
        # count(DISTINCT ...) without the data condition resolved must
        # not certify the cube, but stays in the indexed family.
        question = parse_question(
            "high", "q1", ["q1 := count(distinct Publication.pubid)"]
        )
        cert = analyze_plan(rex.schema(), question, ATTRS)
        assert cert.recommended_method in ("cube", "indexed")
        assert not cert.additivity.data_resolved

    def test_errors_surface(self):
        cert = analyze_plan(rex.schema(), None, ["Author.zzz"])
        assert cert.has_errors
        assert [d.code for d in cert.errors] == ["RS001"]

    def test_total_rows_concretizes_without_data(self):
        cert = analyze_plan(
            chains.chain_schema(), None, ["R3.a"], total_rows=13
        )
        assert cert.certified_bound == 12

    def test_to_dict_is_json_ready(self):
        cert = analyze_plan(
            rex.schema(), count_ratio_question(), ATTRS, database=rex.database()
        )
        payload = json.loads(json.dumps(cert.to_dict()))
        assert payload["recommended_method"] == "indexed"
        assert payload["convergence"]["selected_rule"] == RULE_PROP_311
        assert payload["convergence"]["bound"] == 4
        assert payload["has_errors"] is False
        assert payload["diagnostics"] == []

    def test_render_sections(self):
        text = analyze_plan(
            rex.schema(), count_ratio_question(), ATTRS, database=rex.database()
        ).render()
        for heading in (
            "Plan certificate",
            "Foreign-key graph",
            "Convergence",
            "Additivity",
            "Diagnostics",
        ):
            assert heading in text
        assert "certified bound" in text


#: dataset module -> (schema builder, certified rule, bound).  A bound
#: of "n - 1" is symbolic: concrete only once an instance supplies n.
#: chains: R3 carries two back-and-forth keys with distinct targets, so
#: only the Proposition 3.4 fallback applies.  running example, DBLP and
#: Geo-DBLP: one back-and-forth key, Proposition 3.11's 2s + 2 = 4.
#: natality: one relation, no foreign keys, Proposition 3.5's 2.  TPC-H:
#: no back-and-forth key, but the partsupp diamond makes the join graph
#: cyclic, so 3.5/3.10/3.11 (which assume a join tree) do not apply.
CONVERGENCE = {
    chains: (chains.chain_schema, RULE_PROP_34, "n - 1"),
    rex: (rex.schema, RULE_PROP_311, 4),
    natality: (natality.schema, RULE_PROP_35, 2),
    dblp: (dblp.dblp_schema, RULE_PROP_311, 4),
    geodblp: (geodblp.schema, RULE_PROP_311, 4),
    tpch: (tpch.schema, RULE_PROP_34, "n - 1"),
}


class TestDatasetSelfCertification:
    @pytest.mark.parametrize(
        "module", [chains, rex, natality, dblp, geodblp, tpch]
    )
    def test_certified_convergence(self, module):
        # Each bundled dataset sits in the convergence class the paper
        # puts its shape in; a failure means the analyzer regressed.
        build, rule, bound = CONVERGENCE[module]
        certificate = certify_convergence(build())
        assert certificate.selected_rule == rule
        if isinstance(bound, int):
            assert certificate.bound == bound
        else:
            assert certificate.bound_expression == bound
        if module is chains:
            assert certificate.interaction_cycle
        if module is tpch:
            assert not certificate.join_graph_is_tree
            assert not certificate.rule(RULE_PROP_35).applicable

    def test_standard_key_running_example(self):
        # Demoting the back-and-forth key leaves no such key at all.
        certificate = certify_convergence(rex.schema(back_and_forth=False))
        assert certificate.selected_rule == RULE_PROP_35
        assert certificate.bound == 2


class TestExplainerIntegration:
    def test_certificate_is_cached(self):
        ex = Explainer(rex.database(), count_ratio_question(), ATTRS)
        assert ex.certificate() is ex.certificate()

    def test_auto_resolves_to_recommendation(self):
        ex = Explainer(rex.database(), count_ratio_question(), ATTRS)
        assert ex.resolve_method(AUTO_METHOD) == "indexed"
        assert ex.resolve_method("naive") == "naive"

    def test_auto_resolves_to_cube_without_back_and_forth(self):
        ex = Explainer(
            rex.database(back_and_forth=False), count_ratio_question(), ATTRS
        )
        assert ex.resolve_method(AUTO_METHOD) == "cube"

    def test_auto_avg_resolves_to_indexed(self):
        ex = Explainer(rex.database(), avg_question(), ATTRS)
        assert ex.resolve_method(AUTO_METHOD) == "indexed"

    def test_plan_carries_certificate(self):
        ex = Explainer(rex.database(), count_ratio_question(), ATTRS)
        plan = ex.plan(method=AUTO_METHOD)
        assert plan.method == "indexed"
        assert plan.certificate is ex.certificate()

    def test_certificate_does_not_change_fingerprint(self):
        ex = Explainer(rex.database(), count_ratio_question(), ATTRS)
        with_cert = ex.plan(method="cube")
        stripped = dataclasses.replace(with_cert, certificate=None)
        assert stripped.fingerprint == with_cert.fingerprint

    def test_auto_ranking_matches_explicit(self):
        ex = Explainer(rex.database(), count_ratio_question(), ATTRS)
        assert ex.top(3, method=AUTO_METHOD) == ex.top(3, method="indexed")
