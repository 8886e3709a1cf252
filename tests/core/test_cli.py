"""Tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.engine.csvio import dump_relation
from repro.datasets import natality


class TestDemo:
    def test_running_example(self, capsys):
        assert main(["demo", "running-example", "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "Q(D) = 2" in out
        assert "rank" in out

    def test_natality_small(self, capsys):
        assert main(["demo", "natality", "--rows", "500", "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "Birth" in out

    def test_dblp_aggravation(self, capsys):
        code = main(
            ["demo", "dblp", "--scale", "0.3", "--by", "aggravation", "--top", "3"]
        )
        assert code == 0

    def test_geodblp(self, capsys):
        assert main(["demo", "geodblp", "--scale", "0.5", "--top", "3"]) == 0

    def test_strategy_flag(self, capsys):
        assert (
            main(
                [
                    "demo",
                    "running-example",
                    "--strategy",
                    "minimal_self_join",
                ]
            )
            == 0
        )


class TestIntervene:
    def test_example_28(self, capsys):
        code = main(
            ["intervene", "Author.name = 'JG' AND Publication.year = 2001"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "iterations: 3" in out
        assert "('A1', 'P1')" in out
        assert "('P1', 2001, 'SIGMOD')" in out

    def test_bad_predicate(self, capsys):
        assert main(["intervene", "garbage!!!"]) == 2
        assert "error" in capsys.readouterr().err


class TestExplainCsv:
    @pytest.fixture
    def csv_path(self, tmp_path):
        db = natality.generate(rows=400, seed=1)
        path = tmp_path / "births.csv"
        dump_relation(db.relation("Birth"), path)
        return str(path)

    def test_explain(self, csv_path, capsys):
        code = main(
            [
                "explain",
                csv_path,
                "--pk",
                "bid",
                "--numerator",
                "ap=good",
                "--denominator",
                "ap=poor",
                "--dir",
                "high",
                "--attributes",
                "marital,tobacco",
                "--top",
                "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Q(D)" in out
        assert "rank" in out

    def test_bad_pk(self, csv_path, capsys):
        code = main(
            [
                "explain",
                csv_path,
                "--pk",
                "nope",
                "--numerator",
                "ap=good",
                "--denominator",
                "ap=poor",
                "--attributes",
                "marital",
            ]
        )
        assert code == 2

    def test_bad_filter(self, csv_path, capsys):
        code = main(
            [
                "explain",
                csv_path,
                "--pk",
                "bid",
                "--numerator",
                "nonsense",
                "--denominator",
                "ap=poor",
                "--attributes",
                "marital",
            ]
        )
        assert code == 2


class TestSql:
    def test_sql_script(self, capsys):
        assert main(["sql", "dblp"]) == 0
        out = capsys.readouterr().out
        assert "WITH CUBE" in out
        assert "FULL OUTER JOIN" in out

    def test_datalog(self, capsys):
        assert main(["sql", "running-example", "--datalog"]) == 0
        out = capsys.readouterr().out
        assert "Delta_Publication" in out
        assert ":-" in out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_demo(self):
        with pytest.raises(SystemExit):
            main(["demo", "zzz"])


class TestGenerate:
    def test_generate_running_example(self, tmp_path, capsys):
        out = tmp_path / "rex"
        assert main(["generate", "running-example", str(out)]) == 0
        assert (out / "schema.json").exists()
        assert (out / "Author.csv").exists()
        from support.fixtures import load_database

        db = load_database(out)
        assert db.total_rows() == 12

    def test_generate_natality(self, tmp_path):
        out = tmp_path / "nat"
        assert (
            main(["generate", "natality", str(out), "--rows", "100"]) == 0
        )
        from support.fixtures import load_database

        assert len(load_database(out).relation("Birth")) == 100


class TestReport:
    def test_report_text(self, capsys):
        assert main(["report", "running-example", "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "INTERVENTION" in out and "Minimal intervention" in out

    def test_report_json(self, capsys):
        import json

        assert main(["report", "running-example", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["intervention_additive"] is True


class TestAsk:
    def test_ask_on_dataset(self, capsys):
        code = main(
            [
                "ask",
                "--dataset", "running-example",
                "--dir", "high",
                "--expr", "q1",
                "--agg",
                "q1 := count(distinct Publication.pubid) "
                "WHERE Publication.venue = 'SIGMOD'",
                "--attributes", "Author.name,Publication.year",
                "--top", "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Q(D) = 2" in out
        assert "method: cube" in out

    def test_ask_non_additive_picks_indexed(self, capsys):
        code = main(
            [
                "ask",
                "--dataset", "running-example",
                "--dir", "high",
                "--expr", "q1",
                "--agg", "q1 := count(*)",
                "--attributes", "Author.name",
            ]
        )
        assert code == 0
        assert "method: indexed" in capsys.readouterr().out

    def test_ask_on_csv(self, tmp_path, capsys):
        from repro.datasets import natality
        from repro.engine.csvio import dump_relation

        db = natality.generate(rows=300, seed=1)
        path = tmp_path / "births.csv"
        dump_relation(db.relation("Birth"), path)
        code = main(
            [
                "ask",
                "--csv", str(path),
                "--pk", "bid",
                "--dir", "high",
                "--expr", "(q1 + 0.0001) / (q2 + 0.0001)",
                "--agg", "q1 := count(*) WHERE T.ap = 'good'",
                "--agg", "q2 := count(*) WHERE T.ap = 'poor'",
                "--attributes", "T.marital,T.tobacco",
                "--top", "3",
            ]
        )
        assert code == 0
        assert "rank" in capsys.readouterr().out

    def test_ask_csv_requires_pk(self, tmp_path, capsys):
        path = tmp_path / "x.csv"
        path.write_text("a,b\n1,2\n")
        code = main(
            [
                "ask", "--csv", str(path),
                "--dir", "high", "--expr", "q1",
                "--agg", "q1 := count(*)",
                "--attributes", "T.a",
            ]
        )
        assert code == 2

    def test_ask_bad_expression(self, capsys):
        code = main(
            [
                "ask",
                "--dataset", "running-example",
                "--dir", "high",
                "--expr", "q1 +",
                "--agg", "q1 := count(*)",
                "--attributes", "Author.name",
            ]
        )
        assert code == 2


class TestBackendFlag:
    def test_demo_sqlite_matches_memory(self, capsys):
        assert main(["demo", "running-example", "--top", "5"]) == 0
        memory_out = capsys.readouterr().out
        assert (
            main(
                ["demo", "running-example", "--top", "5",
                 "--backend", "sqlite"]
            )
            == 0
        )
        assert capsys.readouterr().out == memory_out

    def test_unavailable_backend_reports_error(self, capsys):
        from repro.backends import DuckDBBackend

        if DuckDBBackend.is_available():
            pytest.skip("duckdb installed; unavailability path not reachable")
        code = main(
            ["demo", "running-example", "--backend", "duckdb"]
        )
        assert code == 2
        assert "pip install repro[duckdb]" in capsys.readouterr().err

    def test_ask_defaults_to_cube_on_sql_backend(self, capsys):
        code = main(
            [
                "ask",
                "--dataset", "running-example",
                "--dir", "high",
                "--expr", "q1",
                "--agg",
                "q1 := count(distinct Publication.pubid)"
                " WHERE Publication.venue = 'SIGMOD'",
                "--attributes", "Author.name",
                "--backend", "sqlite",
            ]
        )
        assert code == 0
        assert "method: cube" in capsys.readouterr().out

    def test_sql_dialect_flag(self, capsys):
        assert main(["sql", "running-example", "--dialect", "sqlite"]) == 0
        out = capsys.readouterr().out
        assert "UNION ALL" in out
        assert "WITH CUBE" not in out
        assert main(["sql", "running-example", "--dialect", "duckdb"]) == 0
        out = capsys.readouterr().out
        assert "GROUPING SETS" in out


class TestVersionFlag:
    def test_version_exits_zero_and_prints_package_version(self, capsys):
        import repro

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert out.strip() == f"repro {repro.__version__}"

    def test_version_matches_pyproject(self):
        import re
        from pathlib import Path

        import repro

        pyproject = Path(__file__).resolve().parents[2] / "pyproject.toml"
        match = re.search(
            r'^version\s*=\s*"([^"]+)"', pyproject.read_text(), re.MULTILINE
        )
        assert match is not None
        assert repro.__version__ == match.group(1)


class TestAnalyze:
    def test_chain_reports_n_minus_1(self, capsys):
        assert main(["analyze", "chain", "--chain-p", "3"]) == 0
        out = capsys.readouterr().out
        # p = 3 gives n = 13 tuples, so the certified bound is n - 1 = 12.
        assert "n - 1 = 12" in out
        assert "prop-3.4" in out

    def test_all_strict_passes(self, capsys):
        assert main(["analyze", "--all", "--strict"]) == 0
        out = capsys.readouterr().out
        assert "== running-example ==" in out
        assert "== chain ==" in out

    def test_json_output(self, capsys):
        import json

        assert main(["analyze", "running-example", "natality", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["running-example"]["convergence"]["bound"] == 4
        assert payload["natality"]["convergence"]["selected_rule"] == "prop-3.5"

    def test_schema_only_keeps_bound_symbolic(self, capsys):
        assert main(["analyze", "chain", "--schema-only"]) == 0
        out = capsys.readouterr().out
        assert "n - 1 iterations" in out

    def test_unknown_dataset_fails(self, capsys):
        assert main(["analyze", "no-such-dataset"]) == 2
        assert "error" in capsys.readouterr().err

    def test_tpch_cyclic_certificate(self, capsys):
        """The partsupp diamond forces the honest prop-3.4 verdict:
        sharp rules refuse (cyclic join graph), RS009 flags it, and
        --strict still passes because warnings are not errors."""
        assert main(["analyze", "tpch", "--strict"]) == 0
        out = capsys.readouterr().out
        assert "prop-3.4" in out
        assert "n - 1" in out
        assert "RS009" in out
        assert "cyclic" in out
        assert "recommended method: cube" in out
