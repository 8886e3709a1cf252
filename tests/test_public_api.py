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

    Walks the ``src/repro`` import graph with ``ast`` (function-level
    and TYPE_CHECKING imports included) from the entry points and
    fails on any module nothing reaches.  A package ``__init__`` is a
    re-export, not a use: ``from ..engine import Table`` reaches
    ``engine.table`` through it, but the ``__init__`` listing a module
    does not keep that module alive.
    """

    #: What a user runs.
    ENTRY_POINTS = ("repro.__main__", "repro.cli")
    #: Public leaf APIs: documented paper/CLI surface that the package
    #: itself only re-exports (or, for the backends, registers from
    #: ``backends/__init__``).  Keep this list short and literal.
    PUBLIC_LEAVES = (
        "repro.core.rewrite",  # Section 4.1 schema rewriting
        "repro.backends.sqlite_backend",
        "repro.backends.duckdb_backend",
    )

    @staticmethod
    def _graph():
        import ast
        from pathlib import Path

        root = Path(repro.__file__).parent
        is_package, imports = {}, {}
        for path in sorted(root.rglob("*.py")):
            parts = path.relative_to(root.parent).with_suffix("").parts
            package = parts[-1] == "__init__"
            name = ".".join(parts[:-1] if package else parts)
            is_package[name] = package
            base = name if package else name.rpartition(".")[0]
            found = []
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    found += [(alias.name, None) for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    target = node.module or ""
                    if node.level:
                        up = base.split(".")
                        up = up[: len(up) - node.level + 1]
                        target = ".".join(up + ([target] if target else []))
                    found += [(target, alias.name) for alias in node.names]
            imports[name] = [
                (t, n) for t, n in found if t.split(".")[0] == "repro"
            ]
        return is_package, imports

    def test_every_module_is_reachable_from_an_entry_point(self):
        is_package, imports = self._graph()

        def resolve(target, name, seen=()):
            """The module ``from target import name`` really uses."""
            if name is None:
                return target
            if f"{target}.{name}" in is_package:
                return f"{target}.{name}"
            if is_package.get(target) and (target, name) not in seen:
                for t, n in imports[target]:
                    if n == name:
                        return resolve(t, n, seen + ((target, name),))
            return target

        for root in self.ENTRY_POINTS + self.PUBLIC_LEAVES:
            assert root in is_package, f"stale exemption: {root}"
        live, stack = set(), list(self.ENTRY_POINTS + self.PUBLIC_LEAVES)
        while stack:
            module = stack.pop()
            if module in live or module not in is_package:
                continue
            live.add(module)
            if not is_package[module]:
                stack.extend(resolve(t, n) for t, n in imports[module])
        orphans = sorted(
            m for m, package in is_package.items() if not package and m not in live
        )
        assert orphans == [], (
            "modules nothing in src/ uses (delete them, or wire them in): "
            f"{orphans}"
        )
