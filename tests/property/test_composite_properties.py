"""Property-based tests over the composite-key warehouse schema.

Mirrors tests/property/test_intervention_properties.py on a schema
whose back-and-forth foreign key spans two attributes, plus a
Prop-3.11 convergence check on the geodblp 8-relation schema (one
back-and-forth key → ≤ 4 iterations).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AtomicPredicate, Explanation, compute_intervention
from repro.engine.database import Database
from repro.engine.reduction import semijoin_reduce
from repro.engine.schema import DatabaseSchema, ForeignKey, make_schema

from support.intervention import is_valid_intervention


WAREHOUSES = ["W1", "W2"]
PRODUCTS = ["apple", "pear", "plum"]
STATUSES = ["ontime", "late"]


def warehouse_schema() -> DatabaseSchema:
    return DatabaseSchema(
        (
            make_schema("Warehouse", ["wid"], ["wid"]),
            make_schema("Stock", ["warehouse", "product"], ["warehouse", "product"]),
            make_schema("Shipment", ["sid", "warehouse", "product", "status"], ["sid"]),
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


@st.composite
def warehouse_databases(draw):
    n_shipments = draw(st.integers(1, 12))
    shipments = []
    stocks = set()
    for i in range(n_shipments):
        w = draw(st.sampled_from(WAREHOUSES))
        p = draw(st.sampled_from(PRODUCTS))
        s = draw(st.sampled_from(STATUSES))
        shipments.append((f"S{i}", w, p, s))
        stocks.add((w, p))
    db = Database(
        warehouse_schema(),
        {
            "Warehouse": [(w,) for w in WAREHOUSES],
            "Stock": list(stocks),
            "Shipment": shipments,
        },
    )
    reduced, _ = semijoin_reduce(db)
    return reduced


@st.composite
def warehouse_explanations(draw):
    kind = draw(st.sampled_from(["status", "product", "warehouse", "pair"]))
    if kind == "status":
        return Explanation.of(
            AtomicPredicate("Shipment", "status", "=", draw(st.sampled_from(STATUSES)))
        )
    if kind == "product":
        return Explanation.of(
            AtomicPredicate("Stock", "product", "=", draw(st.sampled_from(PRODUCTS)))
        )
    if kind == "warehouse":
        return Explanation.of(
            AtomicPredicate("Warehouse", "wid", "=", draw(st.sampled_from(WAREHOUSES)))
        )
    return Explanation.of(
        AtomicPredicate("Stock", "product", "=", draw(st.sampled_from(PRODUCTS))),
        AtomicPredicate("Shipment", "status", "=", draw(st.sampled_from(STATUSES))),
    )


common = settings(max_examples=40)


class TestCompositeKeyInterventions:
    @common
    @given(db=warehouse_databases(), phi=warehouse_explanations())
    def test_computed_delta_is_valid(self, db, phi):
        result = compute_intervention(db, phi)
        assert is_valid_intervention(db, phi, result.delta)

    @common
    @given(db=warehouse_databases(), phi=warehouse_explanations())
    def test_local_minimality(self, db, phi):
        from repro.engine.database import Delta

        delta = compute_intervention(db, phi).delta
        for name in db.schema.relation_names:
            for row in delta.rows_for(name):
                parts = delta.parts()
                parts[name] = parts[name] - {row}
                assert not is_valid_intervention(
                    db, phi, Delta(db.schema, parts)
                )

    @common
    @given(db=warehouse_databases(), phi=warehouse_explanations())
    def test_prop_311_bound(self, db, phi):
        """One back-and-forth key per relation: ≤ 2·1 + 2 iterations."""
        result = compute_intervention(db, phi)
        assert result.iterations <= 4

    @common
    @given(db=warehouse_databases(), phi=warehouse_explanations())
    def test_residual_reduced(self, db, phi):
        from support.intervention import database_is_reduced

        result = compute_intervention(db, phi)
        assert database_is_reduced(db.subtract(result.delta))


class TestGeoDblpConvergence:
    def test_prop_311_on_eight_relations(self):
        """geodblp has one b&f key in an 8-relation acyclic schema:
        every intervention converges within 2s + 2 = 4 iterations."""
        from repro.core import parse_explanation
        from repro.core.intervention import FixpointStrategy
        from repro.datasets import geodblp

        db = geodblp.generate(scale=0.5, seed=3)
        engine = FixpointStrategy(db)
        for phi_text in (
            "Country.country = 'United Kingdom'",
            "City.city = 'Oxford'",
            "AffiliationG.inst = 'Semmle Ltd.'",
            "Venue.vname = 'PODS'",
            "Publication.year = 2005",
        ):
            result = engine.compute(parse_explanation(phi_text))
            assert result.iterations <= 4, phi_text
