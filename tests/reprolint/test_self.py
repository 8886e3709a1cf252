"""reprolint must pass over the repository that ships it."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

pytestmark = pytest.mark.skipif(
    sys.version_info < (3, 10),
    reason="reprolint needs sys.stdlib_module_names",
)

REPO_ROOT = Path(__file__).resolve().parents[2]


def run_reprolint(*argv):
    return subprocess.run(
        [sys.executable, "-m", "tools.reprolint", *argv],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )


def test_repository_is_clean():
    proc = run_reprolint("src", "tools")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "reprolint: ok" in proc.stdout


def test_json_report_has_no_unbaselined_errors():
    proc = run_reprolint("--format", "json", "src", "tools")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["summary"]["errors"] == 0
    # Every suppressed/baselined finding exists for a *reason*: the
    # pragma grammar and the baseline schema both require one, so a
    # non-empty set here proves the escape hatches are exercised.
    assert payload["summary"]["suppressed"] >= 1
    assert payload["summary"]["baselined"] >= 1


def test_code_tables_are_in_sync():
    # RL008 runs as part of the full suite above, but pin it explicitly:
    # a drifted docs table must fail even if everything else is green.
    proc = run_reprolint("--select", "RL008", "src", "tools")
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_rendered_rs_table_matches_linter_docstring():
    sys.path.insert(0, str(REPO_ROOT / "src"))
    try:
        from repro.analysis import linter
    finally:
        sys.path.pop(0)
    assert linter.render_code_table("rst") in (linter.__doc__ or "")
    declared = {code for code, _, _ in linter.RS_CODES}
    assert declared == {f"RS00{i}" for i in (1, 2, 3, 4, 5, 6, 7, 9)}


def test_strict_run_over_benchmarks_and_tests_is_clean():
    # What the CI job lints: benchmarks/ and tests/ too, warnings fatal.
    proc = run_reprolint("--strict", "src", "tools", "benchmarks", "tests")
    assert proc.returncode == 0, proc.stdout + proc.stderr
