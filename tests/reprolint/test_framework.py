"""Framework behavior: pragmas, baseline, registry, reporters."""

import json
import sys

import pytest

pytestmark = pytest.mark.skipif(
    sys.version_info < (3, 10),
    reason="reprolint needs sys.stdlib_module_names",
)

# A minimal planted violation reused across suppression/baseline tests:
# a module-level numpy import in a stdlib-only subpackage (RL002).
VIOLATION = """\
    import numpy
    """


def codes(findings):
    return [f.code for f in findings]


class TestSuppressionPragmas:
    def test_file_level_pragma_suppresses_whole_file(self, lint):
        result = lint(
            {
                "src/repro/core/x.py": """\
                # reprolint: disable=RL002 (fixture: justified for the test)
                import numpy
                """
            },
            select={"RL002"},
        )
        assert result.active == []
        assert codes(result.suppressed) == ["RL002"]
        assert result.exit_code() == 0

    def test_line_level_pragma_covers_only_its_line(self, lint):
        result = lint(
            {
                "src/repro/core/x.py": """\
                import numpy  # reprolint: disable=RL002 (fixture: this line only)
                import zlib_not_stdlib_either
                """
            },
            select={"RL002"},
        )
        assert codes(result.suppressed) == ["RL002"]
        assert codes(result.active) == ["RL002"]
        assert result.active[0].line == 2

    def test_pragma_without_reason_is_rl000_error(self, lint):
        result = lint(
            {
                "src/repro/core/x.py": """\
                # reprolint: disable=RL002
                import numpy
                """
            },
            select={"RL002"},
        )
        # The pragma is rejected, so it suppresses nothing: the RL002
        # stays active and the malformed pragma is its own error.
        assert sorted(codes(result.active)) == ["RL000", "RL002"]
        rl000 = next(f for f in result.active if f.code == "RL000")
        assert rl000.severity == "error"
        assert "justification" in rl000.message

    def test_pragma_with_malformed_code_is_rl000_warning(self, lint):
        result = lint(
            {
                "src/repro/core/x.py": """\
                # reprolint: disable=RLXX,RL002 (half of this pragma is junk)
                import numpy
                """
            },
            select={"RL002"},
        )
        # RLXX is not an RLnnn code (warning); RL002 still suppresses.
        assert codes(result.suppressed) == ["RL002"]
        assert codes(result.active) == ["RL000"]
        assert result.active[0].severity == "warning"
        assert "RLXX" in result.active[0].message

    def test_rl000_findings_are_not_pragma_suppressible(self, lint):
        result = lint(
            {
                "src/repro/core/x.py": """\
                # reprolint: disable=RL000 (trying to silence the meta-check)
                # reprolint: disable=RL002
                import numpy
                """
            },
            select={"RL002"},
        )
        assert "RL000" in codes(result.active)


class TestBaseline:
    def _baseline(self, tmp_path, entries):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"entries": entries}), encoding="utf-8")
        return path

    def test_matching_entry_reports_but_does_not_fail(self, lint, tmp_path):
        baseline = self._baseline(
            tmp_path,
            [
                {
                    "code": "RL002",
                    "path": "src/repro/core/x.py",
                    "contains": "numpy",
                    "reason": "fixture: known and accepted",
                }
            ],
        )
        result = lint(
            {"src/repro/core/x.py": VIOLATION},
            select={"RL002"},
            baseline=baseline,
        )
        assert result.active == []
        assert codes(result.baselined) == ["RL002"]
        assert result.exit_code() == 0

    def test_stale_entry_becomes_rl000_warning(self, lint, tmp_path):
        baseline = self._baseline(
            tmp_path,
            [
                {
                    "code": "RL002",
                    "path": "src/repro/core/clean.py",
                    "reason": "fixture: nothing matches this anymore",
                }
            ],
        )
        result = lint(
            {"src/repro/core/clean.py": "import json\n"},
            select={"RL002"},
            baseline=baseline,
        )
        assert codes(result.active) == ["RL000"]
        assert "stale baseline entry" in result.active[0].message
        assert result.exit_code() == 0  # warning, not error
        assert result.exit_code(strict=True) == 1

    def test_entry_without_reason_is_rejected(self, lint, tmp_path):
        baseline = self._baseline(
            tmp_path,
            [{"code": "RL002", "path": "src/repro/core/x.py"}],
        )
        result = lint(
            {"src/repro/core/x.py": VIOLATION},
            select={"RL002"},
            baseline=baseline,
        )
        assert sorted(codes(result.active)) == ["RL000", "RL002"]


class TestRegistry:
    def test_all_checks_register(self):
        from tools.reprolint import code_table_rows, load_checks

        # RL005 is retired, not renumbered.
        live = [f"RL00{i}" for i in (1, 2, 3, 4, 6, 7, 8, 9)]
        checks = load_checks()
        assert sorted(checks) == live
        rows = code_table_rows()
        # RL000 leads the rendered table even though it is not a check.
        assert [code for code, _, _ in rows] == ["RL000"] + live
        assert all(summary for _, _, summary in rows)

    def test_unknown_select_code_raises(self, lint):
        with pytest.raises(ValueError, match="RL998"):
            lint({"src/repro/core/x.py": "x = 1\n"}, select={"RL998"})


class TestReporters:
    def test_json_report_round_trips(self, lint):
        from tools.reprolint.reporters import render_json, render_text

        result = lint({"src/repro/core/x.py": VIOLATION}, select={"RL002"})
        payload = json.loads(render_json(result))
        assert payload["summary"]["errors"] == 1
        assert payload["findings"][0]["code"] == "RL002"
        text = render_text(result)
        assert "RL002" in text and "FAILED" in text
