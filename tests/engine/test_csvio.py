"""Tests for CSV import/export round trips."""

import pytest

from repro.engine.csvio import dump_relation, load_table
from repro.engine.relation import Relation
from repro.engine.schema import make_schema
from repro.engine.table import Table
from repro.engine.types import DUMMY, NULL
from repro.errors import QueryError

from support.fixtures import load_relation


@pytest.fixture
def schema():
    return make_schema(
        "T",
        ["k", "name", "score", "flag"],
        ["k"],
        dtypes={"k": "int", "name": "str", "score": "float", "flag": "bool"},
    )


class TestRelationRoundTrip:
    def test_roundtrip(self, schema, tmp_path):
        rel = Relation(schema, [(1, "a", 1.5, True), (2, "b", 2.0, False)])
        path = tmp_path / "t.csv"
        dump_relation(rel, path)
        loaded = load_relation(schema, path)
        assert loaded == rel

    def test_null_roundtrip(self, schema, tmp_path):
        rel = Relation(schema, [(1, NULL, NULL, NULL)])
        path = tmp_path / "t.csv"
        dump_relation(rel, path)
        loaded = load_relation(schema, path)
        assert loaded.rows() == {(1, NULL, NULL, NULL)}

    def test_header_order_insensitive(self, schema, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("name,k,score,flag\nx,3,0.5,true\n")
        loaded = load_relation(schema, path)
        assert loaded.rows() == {(3, "x", 0.5, True)}

    def test_bad_header_rejected(self, schema, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(QueryError, match="header"):
            load_relation(schema, path)

    def test_empty_file_rejected(self, schema, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("")
        with pytest.raises(QueryError, match="empty"):
            load_relation(schema, path)

    def test_bool_parsing(self, schema, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("k,name,score,flag\n1,a,0,yes\n2,b,0,0\n")
        loaded = load_relation(schema, path)
        flags = {row[0]: row[3] for row in loaded}
        assert flags == {1: True, 2: False}

    def test_bad_bool_rejected(self, schema, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("k,name,score,flag\n1,a,0,maybe\n")
        with pytest.raises(QueryError):
            load_relation(schema, path)


class TestTableRoundTrip:
    def test_roundtrip_any_parsing(self, tmp_path):
        t = Table(["a", "b", "c"], [(1, 2.5, "xyz"), (NULL, DUMMY, "w")])
        path = tmp_path / "t.csv"
        path.write_text("a,b,c\n1,2.5,xyz\n,__DUMMY__,w\n")
        loaded = load_table(path)
        assert loaded.columns == ("a", "b", "c")
        assert set(loaded.rows()) == set(t.rows())

    def test_empty_table_file_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("")
        with pytest.raises(QueryError):
            load_table(path)

    def test_numbers_parsed(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("x,y\n10,1.5\nabc,2\n")
        loaded = load_table(path)
        assert loaded.rows()[0] == (10, 1.5)
        assert loaded.rows()[1] == ("abc", 2)
