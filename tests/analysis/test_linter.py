"""Tests for the plan linter: one test per RS diagnostic code."""

from repro.analysis import lint_plan
from repro.core.parsing import parse_numerical_query
from repro.datasets import running_example as rex
from repro.engine.schema import (
    DatabaseSchema,
    foreign_key,
    make_schema,
    single_table_schema,
)


def codes(diagnostics):
    return [d.code for d in diagnostics]


def typed_schema() -> DatabaseSchema:
    return single_table_schema(
        "T",
        ["id", "year", "name", "flag"],
        ["id"],
        dtypes={"year": "int", "name": "str", "flag": "bool"},
    )


class TestAttributeCodes:
    def test_rs001_unknown_attribute(self):
        findings = lint_plan(rex.schema(), None, ["Author.zzz"])
        assert codes(findings) == ["RS001"]
        assert findings[0].severity == "error"
        assert findings[0].subject == "Author.zzz"

    def test_rs002_ambiguous_unqualified(self):
        schema = DatabaseSchema(
            (
                make_schema("A", ["id", "x"], ["id"]),
                make_schema("B", ["id2", "x", "aid"], ["id2"]),
            ),
            (foreign_key("B", "aid", "A", "id"),),
        )
        findings = lint_plan(schema, None, ["x"])
        assert codes(findings) == ["RS002"]
        assert "ambiguous" in findings[0].message

    def test_rs003_duplicate_reported_once(self):
        findings = lint_plan(
            rex.schema(), None, ["Author.dom", "Author.dom", "Author.dom"]
        )
        assert codes(findings) == ["RS003"]
        assert findings[0].severity == "warning"

    def test_rs004_primary_key_attribute(self):
        findings = lint_plan(rex.schema(), None, ["Publication.pubid"])
        assert "RS004" in codes(findings)

    def test_rs005_foreign_key_attribute(self):
        findings = lint_plan(rex.schema(), None, ["Authored.pubid"])
        assert "RS005" in codes(findings)
        assert all(d.severity == "warning" for d in findings)

    def test_clean_plan_has_no_findings(self):
        findings = lint_plan(
            rex.schema(), None, ["Author.inst", "Publication.venue"]
        )
        assert findings == ()


class TestQueryCodes:
    def test_rs006_constant_outside_declared_type(self):
        query = parse_numerical_query(
            "q1", ["q1 := count(*) WHERE T.year = 'nineteen'"]
        )
        findings = lint_plan(typed_schema(), query, ["T.name"])
        assert codes(findings) == ["RS006"]
        assert "can never hold" in findings[0].message

    def test_rs006_accepts_matching_type(self):
        query = parse_numerical_query(
            "q1", ["q1 := count(*) WHERE T.year = 1984"]
        )
        findings = lint_plan(typed_schema(), query, ["T.name"])
        assert codes(findings) == []

    def test_rs007_unknown_aggregate_argument(self):
        query = parse_numerical_query("q1", ["q1 := sum(T.nope)"])
        findings = lint_plan(typed_schema(), query, ["T.name"])
        assert codes(findings) == ["RS007"]

    def test_rs007_unknown_where_column(self):
        query = parse_numerical_query(
            "q1", ["q1 := count(*) WHERE T.ghost = 1"]
        )
        findings = lint_plan(typed_schema(), query, ["T.name"])
        assert codes(findings) == ["RS007"]
        assert "ghost" in findings[0].message

    def test_clean_query(self):
        query = parse_numerical_query(
            "(q1 / q2)",
            [
                "q1 := count(*) WHERE Author.dom = 'edu'",
                "q2 := count(*)",
            ],
        )
        assert lint_plan(rex.schema(), query, ["Author.inst"]) == ()


class TestOrderingAndShape:
    def test_errors_sort_before_warnings(self):
        findings = lint_plan(
            rex.schema(),
            None,
            ["Publication.pubid", "Publication.pubid", "nope"],
        )
        severities = [d.severity for d in findings]
        assert severities == sorted(severities)  # all errors first
        assert findings[0].code == "RS001"

    def test_to_dict_is_stable(self):
        (finding,) = lint_plan(rex.schema(), None, ["nope"])
        payload = finding.to_dict()
        assert payload["code"] == "RS001"
        assert payload["severity"] == "error"
        assert set(payload) == {"code", "severity", "message", "subject"}
