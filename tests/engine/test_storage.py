"""Tests for schema/database persistence."""


import pytest

from repro.datasets import chains, natality
from repro.datasets import running_example as rex
from repro.engine.storage import save_database, save_schema, schema_to_dict
from repro.errors import IntegrityError, SchemaError

from support.fixtures import load_database, load_schema, schema_from_dict


class TestSchemaRoundTrip:
    def test_running_example(self, tmp_path):
        schema = rex.schema()
        path = tmp_path / "schema.json"
        save_schema(schema, path)
        assert load_schema(path) == schema

    def test_back_and_forth_flag_preserved(self, tmp_path):
        schema = rex.schema()
        reloaded = schema_from_dict(schema_to_dict(schema))
        assert reloaded.has_back_and_forth
        assert len(reloaded.back_and_forth_keys) == 1

    def test_standard_variant(self):
        schema = rex.schema(back_and_forth=False)
        reloaded = schema_from_dict(schema_to_dict(schema))
        assert not reloaded.has_back_and_forth

    def test_dtypes_preserved(self):
        schema = natality.schema()
        reloaded = schema_from_dict(schema_to_dict(schema))
        birth = reloaded.relation("Birth")
        assert birth.attributes[0].dtype == "int"
        assert birth.attributes[1].dtype == "str"

    def test_version_check(self):
        data = schema_to_dict(rex.schema())
        data["version"] = 999
        with pytest.raises(SchemaError, match="version"):
            schema_from_dict(data)

    def test_json_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_schema(rex.schema(), a)
        save_schema(rex.schema(), b)
        assert a.read_text() == b.read_text()


class TestDatabaseRoundTrip:
    def test_running_example(self, tmp_path):
        db = rex.database()
        save_database(db, tmp_path / "db")
        assert load_database(tmp_path / "db") == db

    def test_chain_database(self, tmp_path):
        db = chains.example_37_database(2)
        save_database(db, tmp_path / "chain")
        assert load_database(tmp_path / "chain") == db

    def test_natality_sample(self, tmp_path):
        db = natality.generate(rows=200, seed=6)
        save_database(db, tmp_path / "nat")
        assert load_database(tmp_path / "nat") == db

    def test_files_created(self, tmp_path):
        save_database(rex.database(), tmp_path / "db")
        names = {p.name for p in (tmp_path / "db").iterdir()}
        assert names == {
            "schema.json",
            "Author.csv",
            "Authored.csv",
            "Publication.csv",
        }

    def test_missing_schema_rejected(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(SchemaError, match="schema.json"):
            load_database(tmp_path / "empty")

    def test_missing_relation_file_rejected(self, tmp_path):
        save_database(rex.database(), tmp_path / "db")
        (tmp_path / "db" / "Author.csv").unlink()
        with pytest.raises(SchemaError, match="missing relation file"):
            load_database(tmp_path / "db")

    def test_integrity_checked_on_load(self, tmp_path):
        save_database(rex.database(), tmp_path / "db")
        # Corrupt the Authored file with a dangling reference.
        path = tmp_path / "db" / "Authored.csv"
        path.write_text(path.read_text() + "GHOST,P1\n")
        with pytest.raises(IntegrityError):
            load_database(tmp_path / "db")
        # ...unless explicitly skipped.
        db = load_database(tmp_path / "db", check_integrity=False)
        assert ("GHOST", "P1") in db.relation("Authored")

    def test_reloaded_database_explains_identically(self, tmp_path):
        from repro.core import Explainer

        db = natality.generate(rows=400, seed=8)
        save_database(db, tmp_path / "nat")
        db2 = load_database(tmp_path / "nat")
        attrs = ["Birth.marital", "Birth.tobacco"]
        m1 = Explainer(db, natality.q_race_question(), attrs).explanation_table("cube")
        m2 = Explainer(db2, natality.q_race_question(), attrs).explanation_table("cube")
        assert m1.table == m2.table
