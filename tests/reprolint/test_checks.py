"""One planted-violation golden test per RL check.

Each test materializes a tiny fixture project under ``tmp_path``, runs
exactly one check over it, and pins the expected code, file, and line.
A paired negative case shows the sanctioned idiom passing.
"""

import sys

import pytest

pytestmark = pytest.mark.skipif(
    sys.version_info < (3, 10),
    reason="reprolint needs sys.stdlib_module_names",
)


def only(result, code):
    found = [f for f in result.active if f.code == code]
    assert found, f"expected a {code} finding, got {result.active}"
    return found


class TestRL001Layering:
    def test_upward_module_level_import(self, lint):
        result = lint(
            {
                "src/repro/engine/bad.py": """\
                from repro.service import app
                """
            },
            select={"RL001"},
        )
        (finding,) = only(result, "RL001")
        assert finding.path == "src/repro/engine/bad.py"
        assert finding.line == 1
        assert "layer violation" in finding.message

    def test_function_level_import_crosses_freely(self, lint):
        result = lint(
            {
                "src/repro/engine/ok.py": """\
                def build():
                    from repro.service import app
                    return app
                """
            },
            select={"RL001"},
        )
        assert result.active == []


class TestRL002StdlibPurity:
    def test_third_party_import_in_pure_subpackage(self, lint):
        result = lint(
            {
                "src/repro/core/bad.py": """\
                import json
                import numpy
                """
            },
            select={"RL002"},
        )
        (finding,) = only(result, "RL002")
        assert finding.line == 2
        assert "numpy" in finding.message

    def test_backends_are_exempt(self, lint):
        result = lint(
            {"src/repro/backends/ok.py": "import duckdb\n"},
            select={"RL002"},
        )
        assert result.active == []


def _store_class(mutator_body):
    """A subscriber-bearing Store class with one batch mutator planted."""
    header = """\
class Store:
    def subscribe(self, fn):
        self._subs.append(fn)

    def _notify(self, inserted, deleted):
        pass

    def _insert_row(self, row):
        self._rows.append(row)

"""
    return header + mutator_body


class TestRL003NotifyInFinally:
    def test_batch_mutator_never_notifies(self, lint):
        result = lint(
            {
                "src/repro/engine/bad.py": _store_class(
                    """\
    def insert_many(self, rows):
        for row in rows:
            self._insert_row(row)
"""
                )
            },
            select={"RL003"},
        )
        (finding,) = only(result, "RL003")
        assert "never calls" in finding.message
        assert "insert_many" in finding.message

    def test_notify_outside_finally(self, lint):
        result = lint(
            {
                "src/repro/engine/bad.py": _store_class(
                    """\
    def insert_many(self, rows):
        for row in rows:
            self._insert_row(row)
        self._notify(rows, ())
"""
                )
            },
            select={"RL003"},
        )
        (finding,) = only(result, "RL003")
        assert "outside a finally block" in finding.message

    def test_notify_in_finally_passes(self, lint):
        result = lint(
            {
                "src/repro/engine/ok.py": _store_class(
                    """\
    def insert_many(self, rows):
        landed = []
        try:
            for row in rows:
                self._insert_row(row)
                landed.append(row)
        finally:
            self._notify(landed, ())
"""
                )
            },
            select={"RL003"},
        )
        assert result.active == []


class TestRL004CacheStaleness:
    def test_unguarded_cache_slot(self, lint):
        result = lint(
            {
                "src/repro/core/bad.py": """\
                class Planner:
                    def plan(self, key):
                        if key not in self._plan_cache:
                            self._plan_cache[key] = key
                        return self._plan_cache[key]
                """
            },
            select={"RL004"},
        )
        (finding,) = only(result, "RL004")
        assert "'_plan_cache'" in finding.message

    def test_version_guard_passes(self, lint):
        result = lint(
            {
                "src/repro/core/ok.py": """\
                class Planner:
                    def plan(self, db, key):
                        token = (db.version, key)
                        if token not in self._plan_cache:
                            self._plan_cache[token] = key
                        return self._plan_cache[token]
                """
            },
            select={"RL004"},
        )
        assert result.active == []

    def test_subscriber_invalidation_passes(self, lint):
        result = lint(
            {
                "src/repro/core/ok2.py": """\
                class Index:
                    def __init__(self, relation):
                        relation.subscribe(self._on_change)

                    def _on_change(self, inserted, deleted):
                        self._row_cache = None

                    def rows(self):
                        if self._row_cache is None:
                            self._row_cache = [1]
                        return self._row_cache
                """
            },
            select={"RL004"},
        )
        assert result.active == []


class TestRL006SqlHygiene:
    def test_fstring_sql_outside_sqlgen(self, lint):
        result = lint(
            {
                "src/repro/core/bad.py": """\
                def q(table):
                    return f"SELECT * FROM {table}"
                """
            },
            select={"RL006"},
        )
        (finding,) = only(result, "RL006")
        assert "outside the sqlgen layer" in finding.message

    def test_unsanctioned_hole_inside_sqlgen(self, lint):
        result = lint(
            {
                "src/repro/core/sqlgen.py": """\
                def render(name):
                    return f"SELECT {name} FROM t"
                """
            },
            select={"RL006"},
        )
        (finding,) = only(result, "RL006")
        assert "unsanctioned interpolation" in finding.message
        assert "{name}" in finding.message

    def test_sanctioned_holes_pass(self, lint):
        result = lint(
            {
                "src/repro/core/sqlgen.py": """\
                def qid(name):
                    return '"' + name + '"'

                def render(name, where_sql, limit: int):
                    return f"SELECT {qid(name)} FROM t {where_sql} LIMIT {limit}"
                """
            },
            select={"RL006"},
        )
        assert result.active == []


class TestRL007MetricFamilies:
    def test_dynamic_family_name(self, lint):
        result = lint(
            {
                "src/repro/obs/bad.py": """\
                def track(registry, group):
                    return registry.counter(f"repro_{group}_total")
                """
            },
            select={"RL007"},
        )
        findings = only(result, "RL007")
        assert any("dynamically computed" in f.message for f in findings)

    def test_counter_naming_convention(self, lint):
        result = lint(
            {
                "src/repro/obs/bad.py": """\
                def track(registry):
                    return registry.counter("repro_widgets", help="Widgets.")
                """
            },
            select={"RL007"},
        )
        (finding,) = only(result, "RL007")
        assert "must end with _total" in finding.message

    def test_unregistered_reference(self, lint):
        result = lint(
            {
                "src/repro/obs/bad.py": """\
                def track(registry):
                    registry.counter("repro_requests_total", help="Requests.")
                    return "repro_misspelled_total"
                """
            },
            select={"RL007"},
        )
        (finding,) = only(result, "RL007")
        assert "never registered" in finding.message

    def test_dict_of_literals_lookup_passes(self, lint):
        result = lint(
            {
                "src/repro/obs/ok.py": """\
                FAMILIES = {
                    "requests": "repro_requests_total",
                    "compute": "repro_compute_total",
                }

                def track(registry, group):
                    return registry.counter(FAMILIES[group], help="Events.")
                """
            },
            select={"RL007"},
        )
        assert result.active == []


class TestRL008CodeTableSync:
    LINTER = '''\
        """Plan linter.

        =========  ========  =======
        code       severity  meaning
        =========  ========  =======
        ``RS001``  warning   x
        =========  ========  =======
        """

        RS_CODES = (("RS001", "error", "x"),)

        def lint_plan():
            return [("RS001", "boom")]
        '''

    def test_drifted_docstring_table(self, lint):
        result = lint(
            {"src/repro/analysis/linter.py": self.LINTER},
            select={"RL008"},
        )
        messages = [f.message for f in only(result, "RL008")]
        # The docstring row says warning, the registry says error.
        assert any("drifted" in m for m in messages)
        # Neither rendered doc exists in the fixture project.
        assert any("docs/analysis.md" in m for m in messages)
        assert any("docs/static_analysis.md" in m for m in messages)

    def test_undeclared_code_is_flagged(self, lint):
        linter = self.LINTER + """\

        def extra():
            return "RS099"
        """
        result = lint(
            {"src/repro/analysis/linter.py": linter},
            select={"RL008"},
        )
        messages = [f.message for f in only(result, "RL008")]
        assert any("RS099 constructed but not declared" in m for m in messages)


class TestRL009ProductionCaller:
    LIB = {
        "src/repro/core/lib.py": """\
        def used():
            return 1


        def helper():
            return 2


        def only_tested():
            return helper()
        """,
        "src/repro/core/__init__.py": """\
        from .lib import only_tested, used

        __all__ = ["only_tested", "used"]
        """,
        "src/repro/cli.py": """\
        from repro.core import used

        used()
        """,
        "tests/test_lib.py": """\
        from repro.core.lib import only_tested, used
        """,
    }

    def test_symbol_only_tests_use(self, lint):
        result = lint(self.LIB, select={"RL009"})
        (finding,) = only(result, "RL009")
        assert finding.path == "src/repro/core/lib.py"
        assert finding.line == 9
        assert "'only_tested'" in finding.message

    @pytest.mark.parametrize(
        "caller",
        ["src/repro/service/app.py", "benchmarks/bench_lib.py", "examples/demo.py"],
    )
    def test_a_production_caller_clears_it(self, lint, caller):
        files = dict(self.LIB)
        files[caller] = """\
        from repro.core.lib import only_tested
        """
        if caller.startswith("src/"):
            # A caller inside src/ counts once the entry point reaches it.
            files["src/repro/cli.py"] += "import repro.service.app\n"
        assert lint(files, select={"RL009"}).active == []

    def test_patch_point_string_is_a_caller(self, lint):
        files = dict(self.LIB)
        files["benchmarks/layers.py"] = """\
        PATCH = "repro.core.lib:only_tested"
        """
        assert lint(files, select={"RL009"}).active == []

    def test_reexport_is_not_a_caller(self, lint):
        files = dict(self.LIB)
        files["src/repro/__init__.py"] = """\
        from .core import only_tested
        """
        (finding,) = only(lint(files, select={"RL009"}), "RL009")
        assert "'only_tested'" in finding.message

    def test_module_nothing_calls(self, lint):
        files = dict(self.LIB)
        files["src/repro/core/orphan.py"] = """\
        def a():
            return 1
        """
        found = only(lint(files, select={"RL009"}), "RL009")
        orphan = [f for f in found if f.path == "src/repro/core/orphan.py"]
        assert [f.line for f in orphan] == [1]
        assert "module repro.core.orphan" in orphan[0].message

    def test_modules_that_only_import_each_other(self, lint):
        files = dict(self.LIB)
        files["src/repro/core/ping.py"] = """\
        def ping():
            from .pong import pong

            return pong()
        """
        files["src/repro/core/pong.py"] = """\
        from .ping import ping


        def pong():
            return ping
        """
        found = only(lint(files, select={"RL009"}), "RL009")
        assert sorted(f.path for f in found if f.line == 1) == [
            "src/repro/core/ping.py",
            "src/repro/core/pong.py",
        ]

    def test_a_package_reaches_what_its_own_statements_use(self, lint):
        files = dict(self.LIB)
        files["src/repro/backends/__init__.py"] = """\
        from .listed import Listed
        from .plugin import Plugin

        __all__ = ["Listed"]
        REGISTRY = [Plugin]
        """
        for name in ("listed", "plugin"):
            files[f"src/repro/backends/{name}.py"] = f"""\
            class {name.title()}:
                pass
            """
        files["src/repro/cli.py"] += "import repro.backends\n"
        found = only(lint(files, select={"RL009"}), "RL009")
        assert [f.path for f in found if f.line == 1] == [
            "src/repro/backends/listed.py"
        ]

    def test_pragma_with_reason_suppresses(self, lint):
        files = dict(self.LIB)
        files["src/repro/core/lib.py"] = files["src/repro/core/lib.py"].replace(
            "def only_tested():",
            "def only_tested():  # reprolint: disable=RL009 (loaded by name)",
        )
        result = lint(files, select={"RL009"})
        assert result.active == []
        assert [f.code for f in result.suppressed] == ["RL009"]
