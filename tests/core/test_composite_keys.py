"""Composite-key foreign keys through the full pipeline.

The paper's framework allows multi-attribute primary/foreign keys; the
bundled datasets all use single-attribute keys, so this module
exercises the composite path explicitly: a warehouse schema where
``Shipment`` references ``Stock`` on the composite key
``(warehouse, product)`` with a back-and-forth flavour (every shipment
line is necessary for the stock record's existence — a synthetic but
structurally faithful analogue of Authored ↔ Publication).

Schema::

    Warehouse(wid)                      pk (wid)
    Stock(warehouse, product, qty)      pk (warehouse, product)
    Shipment(sid, warehouse, product)   pk (sid)

    Stock.warehouse        ->  Warehouse.wid              (standard)
    Shipment.(warehouse,product) <-> Stock.(warehouse,product)  (b&f)
"""

import pytest

from repro.core import (
    AggregateQuery,
    Explainer,
    UserQuestion,
    compute_intervention,
    parse_explanation,
    single_query,
)
from repro.engine.aggregates import count_star
from repro.engine.database import Database
from repro.engine.reduction import semijoin_reduce
from repro.engine.schema import DatabaseSchema, ForeignKey, make_schema
from repro.engine.universal import universal_table

from support.intervention import database_is_reduced, is_valid_intervention


def schema() -> DatabaseSchema:
    return DatabaseSchema(
        (
            make_schema("Warehouse", ["wid"], ["wid"]),
            make_schema(
                "Stock", ["warehouse", "product", "qty"], ["warehouse", "product"]
            ),
            make_schema("Shipment", ["sid", "warehouse", "product"], ["sid"]),
        ),
        (
            ForeignKey("Stock", ("warehouse",), "Warehouse", ("wid",)),
            ForeignKey(
                "Shipment",
                ("warehouse", "product"),
                "Stock",
                ("warehouse", "product"),
                back_and_forth=True,
            ),
        ),
    )


@pytest.fixture
def db():
    return Database(
        schema(),
        {
            "Warehouse": [("W1",), ("W2",)],
            "Stock": [
                ("W1", "apple", 10),
                ("W1", "pear", 5),
                ("W2", "apple", 7),
            ],
            "Shipment": [
                ("S1", "W1", "apple"),
                ("S2", "W1", "apple"),
                ("S3", "W1", "pear"),
                ("S4", "W2", "apple"),
            ],
        },
    )


class TestCompositeUniversal:
    def test_universal_rows(self, db):
        u = universal_table(db)
        assert len(u) == 4  # one row per shipment

    def test_join_matches_both_attributes(self, db):
        u = universal_table(db)
        wpos = u.positions(["Shipment.warehouse", "Stock.warehouse"])
        ppos = u.positions(["Shipment.product", "Stock.product"])
        for row in u.rows():
            assert row[wpos[0]] == row[wpos[1]]
            assert row[ppos[0]] == row[ppos[1]]

    def test_reduction_on_composite(self, db):
        db.relation("Stock").insert(("W2", "pear", 3))  # no shipments
        assert not database_is_reduced(db)
        reduced, removed = semijoin_reduce(db)
        assert removed.rows_for("Stock") == {("W2", "pear", 3)}


class TestCompositeIntervention:
    def test_backward_cascade_on_composite_key(self, db):
        """Deleting shipment S3 (the only pear shipment) must delete
        the (W1, pear) stock record via the composite b&f key."""
        phi = parse_explanation("Shipment.sid = 'S3'")
        result = compute_intervention(db, phi)
        assert result.delta.rows_for("Shipment") == {("S3", "W1", "pear")}
        assert result.delta.rows_for("Stock") == {("W1", "pear", 5)}
        assert result.delta.rows_for("Warehouse") == frozenset()
        assert is_valid_intervention(db, phi, result.delta)

    def test_partial_key_overlap_does_not_cascade(self, db):
        """Deleting one of two W1-apple shipments: the stock record has
        another referencing shipment... but the b&f semantics says ANY
        deleted referencing tuple kills the record, which then kills
        the sibling shipment by forward cascade."""
        phi = parse_explanation("Shipment.sid = 'S1'")
        result = compute_intervention(db, phi)
        assert ("W1", "apple", 10) in result.delta.rows_for("Stock")
        # forward cascade takes the sibling S2 too
        assert ("S2", "W1", "apple") in result.delta.rows_for("Shipment")
        assert is_valid_intervention(db, phi, result.delta)

    def test_warehouse_deletion_cascades_down(self, db):
        phi = parse_explanation("Warehouse.wid = 'W2'")
        result = compute_intervention(db, phi)
        assert result.delta.rows_for("Warehouse") == {("W2",)}
        assert result.delta.rows_for("Stock") == {("W2", "apple", 7)}
        assert result.delta.rows_for("Shipment") == {("S4", "W2", "apple")}

    def test_stock_attribute_predicate(self, db):
        phi = parse_explanation("Stock.product = 'apple'")
        result = compute_intervention(db, phi)
        residual = db.subtract(result.delta)
        u = universal_table(residual)
        pos = u.position("Stock.product")
        assert all(row[pos] != "apple" for row in u.rows())
        assert is_valid_intervention(db, phi, result.delta)


class TestCompositeExplainer:
    def test_end_to_end(self, db):
        question = UserQuestion.high(
            single_query(AggregateQuery("q", count_star("q")))
        )
        explainer = Explainer(
            db, question, ["Stock.product", "Warehouse.wid"]
        )
        # count(*) with a b&f key is not additive -> exact method.
        top = explainer.top(3, method="exact")
        assert top
        best = top[0]
        score = explainer.score(best.explanation)
        assert score.mu_interv == pytest.approx(best.degree)

    def test_indexed_matches_exact(self, db):
        from repro.core.cube_algorithm import MU_INTERV
        from repro.core.iterative import IndexedInterventionEvaluator

        question = UserQuestion.high(
            single_query(AggregateQuery("q", count_star("q")))
        )
        attrs = ("Stock.product", "Warehouse.wid")
        indexed = IndexedInterventionEvaluator(db, question, attrs)
        m_indexed = indexed.build_table()
        m_exact = Explainer(db, question, list(attrs)).explanation_table(
            "exact"
        )

        def degree_map(m):
            return {
                str(m.explanation_of(row)): row[m.table.position(MU_INTERV)]
                for row in m.table.rows()
            }

        fast, slow = degree_map(m_indexed), degree_map(m_exact)
        for key in fast:
            assert fast[key] == pytest.approx(slow[key]), key
