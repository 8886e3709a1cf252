"""Differential matrix: dataset × backend × method must agree.

Three families of comparisons over the shared fixture matrix:

* **Backend differential** — Algorithm 1 on a SQL backend must produce
  a table *byte-identical* (by content fingerprint, which canonicalizes
  SQL integer/float drift) to the in-memory reference, and identical
  top-K rankings under both degrees.  Missing drivers (duckdb) skip.
* **Method differential** — the indexed exact evaluator covers a
  superset of the cube's candidates (the cube only materializes cells
  with support in the filtered sub-population) and must agree
  *exactly* on every shared candidate, for both μ_interv and μ_aggr;
  on a question mixing an exact-cube and a needs-iterative aggregate
  it must agree with the per-candidate exact evaluator on every
  column.
* **Auto resolution** — ``method: "auto"`` must deterministically
  resolve to the statically recommended method of the PR-4 plan
  certificate, and the resulting table must be fingerprint-identical
  to an explicit request for that method.

Rebuild determinism (same plan → same fingerprint across two
independent builds) underpins the service cache keying and is asserted
separately.
"""

import pytest

from repro.analysis import analyze_plan
from repro.core.cube_algorithm import MU_AGGR, MU_INTERV
from repro.core.explainer import METHODS, Explainer
from repro.core.intervention import STRATEGIES, make_strategy
from repro.core.topk import top_k_explanations
from repro.datasets import chains
from repro.errors import ExplanationError

from conftest import (
    DATASETS,
    EXECUTION_DATASETS,
    MIXED_DATASET,
    SQL_BACKENDS,
    require_backend,
)

pytestmark = pytest.mark.differential

#: Genuine divergence this battery surfaced (originally an xfail, now a
#: *certified* divergence): the footnote-11 "exact-cube" additivity
#: verdict was unsound when an aggregate's WHERE references attributes
#: the counted key does not functionally determine.  On dblp, deleting
#: an .edu author cascades to a co-authored publication counted by the
#: 'com' aggregates, so the cube cell undercounts the true drop and
#: mu_interv diverges from the exact program-P evaluator.  The analyzer
#: now detects this (the WHERE/FD condition) and downgrades the verdict
#: to needs-iterative, so the cube here is the explicitly requested
#: Section 6 approximation — the divergence is expected and the
#: certificate's refusal is asserted alongside it.
KNOWN_CUBE_DIVERGENCE = {("dblp-small", MU_INTERV)}


def degree_map(m, column):
    pos = m.table.position(column)
    return {str(m.explanation_of(row)): row[pos] for row in m.table.rows()}


def ranking_key(m, by, k=5):
    return [
        (r.rank, str(r.explanation), r.degree)
        for r in top_k_explanations(m, k, by=by)
    ]


class TestBackendDifferential:
    @pytest.mark.parametrize("backend", SQL_BACKENDS)
    @pytest.mark.parametrize("dataset", EXECUTION_DATASETS)
    def test_fingerprints_byte_identical(self, tables, dataset, backend):
        require_backend(backend)
        reference = tables(dataset, "cube", "memory")
        other = tables(dataset, "cube", backend)
        assert (
            other.content_fingerprint() == reference.content_fingerprint()
        ), f"{backend} table diverges from memory on {dataset}"

    @pytest.mark.parametrize("by", (MU_INTERV, MU_AGGR))
    @pytest.mark.parametrize("backend", SQL_BACKENDS)
    @pytest.mark.parametrize("dataset", EXECUTION_DATASETS)
    def test_topk_rankings_identical(self, tables, dataset, backend, by):
        require_backend(backend)
        reference = tables(dataset, "cube", "memory")
        other = tables(dataset, "cube", backend)
        assert ranking_key(other, by) == ranking_key(reference, by)


class TestMethodDifferential:
    @pytest.mark.parametrize("column", (MU_INTERV, MU_AGGR))
    @pytest.mark.parametrize("dataset", DATASETS)
    def test_indexed_agrees_with_cube_on_shared_candidates(
        self, tables, workloads, dataset, column
    ):
        cube = degree_map(tables(dataset, "cube"), column)
        indexed = degree_map(tables(dataset, "indexed"), column)
        assert set(cube) <= set(indexed), "cube found unknown candidates"
        diverging = {
            key: (cube[key], indexed[key])
            for key in cube
            if cube[key] != indexed[key]
        }
        if (dataset, column) in KNOWN_CUBE_DIVERGENCE:
            # The divergence is real — and the analyzer must now refuse
            # to certify the cube for it (footnote-11 WHERE/FD fix).
            assert diverging, (
                f"expected the documented footnote-11 divergence on "
                f"{dataset}/{column}; did the generator change?"
            )
            db, question, attributes = workloads(dataset)
            explainer = Explainer(db, question, list(attributes))
            certificate = explainer.certificate().additivity
            assert not certificate.all_exact_cube
            assert certificate.recommended_method == "indexed"
            return
        assert not diverging, f"{column} diverges on {dataset}: {diverging}"

    def test_indexed_agrees_with_exact_on_mixed_question(
        self, tables, workloads
    ):
        db, question, attributes = workloads(MIXED_DATASET)
        verdicts = Explainer(
            db, question, list(attributes)
        ).certificate().additivity.verdicts
        assert [v.additive for v in verdicts] == [True, False]
        indexed = tables(MIXED_DATASET, "indexed")
        exact = tables(MIXED_DATASET, "exact")
        assert indexed.q_original == exact.q_original
        columns = [c for c in indexed.table.columns if c not in attributes]
        assert columns == [c for c in exact.table.columns if c not in attributes]
        fast = {
            column: degree_map(indexed, column) for column in columns
        }
        slow = {column: degree_map(exact, column) for column in columns}
        assert set(fast[MU_INTERV]) <= set(slow[MU_INTERV])
        for column in columns:
            for key, value in fast[column].items():
                assert value == slow[column][key], (column, key)

    @pytest.mark.parametrize("dataset", DATASETS)
    def test_rebuild_is_deterministic(self, tables, workloads, dataset):
        db, question, attributes = workloads(dataset)
        kwargs = (
            {"check_additivity": False} if dataset == "dblp-small" else {}
        )
        fresh = Explainer(
            db, question, list(attributes)
        ).explanation_table("cube", **kwargs)
        assert (
            fresh.content_fingerprint()
            == tables(dataset, "cube").content_fingerprint()
        )


class TestStrategyDifferential:
    """Program P's schedule never changes the answer: tables built with
    either schedule pinned must be fingerprint-identical to the
    schema-chosen default for every program-P method, on every bundled
    dataset."""

    @pytest.mark.parametrize("method", ("cube", "indexed"))
    @pytest.mark.parametrize("dataset", DATASETS)
    def test_closure_table_fingerprint_identical(
        self, tables, workloads, dataset, method
    ):
        db, question, attributes = workloads(dataset)
        kwargs = (
            {"check_additivity": False}
            if (dataset, method) == ("dblp-small", "cube")
            else {}
        )
        for strategy in STRATEGIES:
            pinned = Explainer(
                db, question, list(attributes), strategy=strategy
            ).explanation_table(method, **kwargs)
            assert (
                pinned.content_fingerprint()
                == tables(dataset, method).content_fingerprint()
            ), f"strategy={strategy} diverges on {dataset}/{method}"

    @pytest.mark.parametrize("dataset", DATASETS + ("chains",))
    def test_auto_strategy_matches_certificate(self, workloads, dataset):
        """The schema picks the schedule, the certificate reports the
        same pick, and there is no ``"auto"`` name to ask for."""
        if dataset == "chains":
            db, _ = chains.example_37(3)
        else:
            db, _, _ = workloads(dataset)
        expected = "closure" if db.schema.back_and_forth_keys else "fixpoint"
        certificate = analyze_plan(db.schema, None, ())
        assert (
            make_strategy(db).name
            == expected
            == certificate.recommended_strategy
        )
        with pytest.raises(ExplanationError):
            make_strategy(db, strategy="auto")


class TestAutoResolution:
    @pytest.mark.parametrize("dataset", EXECUTION_DATASETS)
    def test_auto_matches_certificate_recommendation(
        self, tables, workloads, dataset
    ):
        db, question, attributes = workloads(dataset)
        explainer = Explainer(db, question, list(attributes))
        resolved = explainer.resolve_method("auto")
        assert resolved in METHODS
        assert resolved == explainer.certificate().recommended_method
        auto_table = explainer.explanation_table(resolved)
        assert (
            auto_table.content_fingerprint()
            == tables(dataset, resolved).content_fingerprint()
        )
