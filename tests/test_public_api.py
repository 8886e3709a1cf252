"""Tests for the top-level package surface.

The README and tutorial import from ``repro`` and ``repro.engine`` /
``repro.core`` directly; these tests pin that surface so refactors
cannot silently break documented imports.
"""

import pytest

import repro


class TestTopLevel:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_core_all_names_resolve(self):
        import repro.core as core

        for name in core.__all__:
            assert hasattr(core, name), name

    def test_engine_all_names_resolve(self):
        import repro.engine as engine

        for name in engine.__all__:
            assert hasattr(engine, name), name

    def test_documented_imports(self):
        """The exact import lines used in README/tutorial."""
        from repro import (
            AggregateQuery,
            Explainer,
            UserQuestion,
            compute_intervention,
            count_distinct,
            parse_explanation,
            ratio_query,
            render_ranking,
            single_query,
        )
        from repro.core import (
            explain_question,
            parse_question,
            validate_database,
        )
        from repro.datasets import chains, dblp, geodblp, natality, running_example
        from repro.engine import (
            Col,
            Comparison,
            Const,
            Database,
            DatabaseSchema,
            ForeignKey,
            foreign_key,
            make_schema,
            save_database,
            universal_table,
        )

        assert Explainer and Database  # imported successfully

    def test_incremental_all_names_resolve(self):
        import repro.incremental as incremental

        for name in incremental.__all__:
            assert hasattr(incremental, name), name

    def test_error_hierarchy(self):
        from repro.errors import (
            ConvergenceError,
            ExplanationError,
            IntegrityError,
            NotAdditiveError,
            QueryError,
            ReproError,
            SchemaError,
        )

        for exc in (
            SchemaError,
            IntegrityError,
            QueryError,
            ExplanationError,
            ConvergenceError,
        ):
            assert issubclass(exc, ReproError)
        assert issubclass(NotAdditiveError, ExplanationError)

        from repro.errors import IncrementalError

        assert issubclass(IncrementalError, ReproError)

    def test_py_typed_marker_shipped(self):
        from pathlib import Path

        marker = Path(repro.__file__).parent / "py.typed"
        assert marker.exists()


class TestNoOrphanModules:
    """ROADMAP: "no module that only its own tests import".

    RL009's module rule owns the check: it walks the import graph from
    the entry points and from every caller outside ``src/``.
    """

    def test_every_module_is_reachable_from_an_entry_point(self):
        import subprocess
        import sys
        from pathlib import Path

        proc = subprocess.run(
            [sys.executable, "-m", "tools.reprolint", "--select", "RL009", "src"],
            cwd=Path(__file__).resolve().parents[1],
            capture_output=True,
            text=True,
        )
        orphans = [line for line in proc.stdout.splitlines() if "module repro." in line]
        assert orphans == [], "\n".join(orphans)
        assert proc.returncode == 0, proc.stdout + proc.stderr
