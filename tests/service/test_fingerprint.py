"""Database content fingerprints and the Explainer's cacheable plan."""

import pytest

from repro.core import Explainer, ExplanationPlan, question_key
from repro.core.explainer import backend_key
from repro.backends import SQLiteBackend
from repro.datasets import running_example
from repro.engine.database import Database
from repro.engine.schema import single_table_schema
from repro.errors import ExplanationError


def _db(rows):
    schema = single_table_schema(
        "T",
        ["id", "g", "cls"],
        ["id"],
        dtypes={"id": "int", "g": "str", "cls": "str"},
    )
    return Database(schema, {"T": rows})


ROWS = [(1, "x", "a"), (2, "y", "a"), (3, "x", "b")]


class TestContentFingerprint:
    def test_deterministic(self):
        db = _db(ROWS)
        assert db.content_fingerprint() == db.content_fingerprint()

    def test_insertion_order_independent(self):
        assert (
            _db(ROWS).content_fingerprint()
            == _db(list(reversed(ROWS))).content_fingerprint()
        )

    def test_different_content_differs(self):
        assert (
            _db(ROWS).content_fingerprint()
            != _db(ROWS[:2]).content_fingerprint()
        )

    def test_value_types_distinguished(self):
        a = _db([(1, "1", "a")])
        b = _db([(1, 1, "a")])  # int vs str in the g column
        assert a.content_fingerprint() != b.content_fingerprint()

    def test_copy_shares_fingerprint(self):
        db = _db(ROWS)
        assert db.copy().content_fingerprint() == db.content_fingerprint()

    def test_mutation_invalidates(self):
        db = _db(ROWS)
        before = db.content_fingerprint()
        db.relation("T").insert((4, "z", "b"))
        after = db.content_fingerprint()
        assert before != after
        db.relation("T").delete((4, "z", "b"))
        assert db.content_fingerprint() == before

    def test_clear_invalidates(self):
        db = _db(ROWS)
        before = db.content_fingerprint()
        db.relation("T").clear()
        assert db.content_fingerprint() != before

    def test_multi_relation_database(self):
        db = running_example.database()
        fp = db.content_fingerprint()
        assert len(fp) == 64
        assert db.copy().content_fingerprint() == fp


def _explainer(db=None, **kwargs):
    from repro.cli import _demo_setup

    database, question, attributes = _demo_setup("running-example", 0, 0.0, 0)
    if db is not None:
        database = db
    return Explainer(database, question, attributes, **kwargs)


class TestExplanationPlan:
    def test_plan_fingerprint_is_stable(self):
        e1, e2 = _explainer(), _explainer()
        assert e1.plan("cube").fingerprint == e2.plan("cube").fingerprint

    def test_plan_varies_with_method(self):
        e = _explainer()
        assert e.plan("cube").fingerprint != e.plan("naive").fingerprint

    def test_plan_varies_with_backend(self):
        assert (
            _explainer().plan("cube").fingerprint
            != _explainer(backend="sqlite").plan("cube").fingerprint
        )

    def test_plan_varies_with_database(self):
        db = running_example.database()
        base = _explainer().plan("cube").fingerprint
        name = db.relation_names[0]
        rel = db.relation(name)
        victim = next(iter(rel))
        rel.delete(victim)
        assert _explainer(db=db).plan("cube").fingerprint != base

    def test_separator_in_a_field_cannot_forge_a_key(self):
        """A field value that embeds a separator names its own plan."""
        fields = dict(
            database_fingerprint="db", method="cube", backend="memory"
        )
        a = ExplanationPlan(question="q\x1fA", attributes=("B",), **fields)
        b = ExplanationPlan(question="q", attributes=("A\x1fB",), **fields)
        c = ExplanationPlan(question="q", attributes=("A\x1eB",), **fields)
        d = ExplanationPlan(question="q", attributes=("A", "B"), **fields)
        assert len({p.fingerprint for p in (a, b, c, d)}) == 4

    def test_unknown_method_raises(self):
        with pytest.raises(ExplanationError, match="unknown method"):
            _explainer().plan("nope")

    def test_backend_key_forms(self):
        assert backend_key("sqlite") == "sqlite"
        assert backend_key(SQLiteBackend()) == "sqlite"

    def test_question_key_matches_for_equal_questions(self):
        from repro.cli import _demo_setup

        _, q1, _ = _demo_setup("running-example", 0, 0.0, 0)
        _, q2, _ = _demo_setup("running-example", 0, 0.0, 0)
        assert question_key(q1) == question_key(q2)

    def test_plan_dataclass_fields(self):
        plan = _explainer().plan("cube")
        assert isinstance(plan, ExplanationPlan)
        assert plan.method == "cube"
        assert plan.backend == "memory"
        assert len(plan.fingerprint) == 64


class TestSeedTable:
    def test_seeded_table_is_reused(self):
        donor = _explainer()
        m = donor.explanation_table("cube")
        receiver = _explainer()
        receiver.seed_table("cube", m)
        assert receiver.explanation_table("cube") is m

    def test_seeded_table_feeds_top(self):
        donor = _explainer()
        m = donor.explanation_table("cube")
        receiver = _explainer()
        receiver.seed_table("cube", m)
        assert [str(r.explanation) for r in receiver.top(3)] == [
            str(r.explanation) for r in donor.top(3)
        ]

    def test_seed_unknown_method_raises(self):
        donor = _explainer()
        m = donor.explanation_table("cube")
        with pytest.raises(ExplanationError, match="unknown method"):
            donor.seed_table("bogus", m)
