"""The reprolint core: findings, the check registry, pragmas, baselines.

reprolint is a stdlib-only, AST-based static analyzer that encodes this
repository's cross-cutting invariants as machine-checked rules (see
``docs/static_analysis.md``).  The moving parts:

* :class:`Finding` — one diagnostic, with a stable ``RL…`` code.
* :class:`Check` — one rule; subclasses register themselves with
  :func:`register` and receive the whole parsed :class:`Project`, so
  both per-file AST rules (RL003) and repo-wide cross-file rules
  (RL007, RL008) fit the same interface.
* Suppression pragmas — ``# reprolint: disable=RL00x (reason)``.  On a
  comment-only line the pragma disables the codes for the whole file;
  as a trailing comment it disables them for that line only.  A pragma
  without a parenthesized justification is itself a finding (RL000).
* The baseline — ``tools/reprolint/baseline.json`` lists known,
  justified violations.  Baselined findings are reported but do not
  fail the run; baseline entries that no longer match anything are
  flagged as stale (RL000 warning) so the file never rots.

The analyzer never imports the code it checks: everything is derived
from source text and ``ast`` trees, so it is safe to run on any
checkout regardless of installed extras.
"""

from __future__ import annotations

import ast
import io
import json
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

SEVERITY_ERROR = "error"
SEVERITY_WARNING = "warning"

#: Framework-owned code for pragma/baseline hygiene findings.
FRAMEWORK_CODE = "RL000"
FRAMEWORK_SUMMARY = "malformed suppression pragma or stale baseline entry"

_CODE_RE = re.compile(r"^RL\d{3}$")
_PRAGMA_RE = re.compile(
    r"#\s*reprolint:\s*disable=([A-Za-z0-9_,\s]+?)\s*(?:\((.+)\))?\s*$"
)


@dataclass(frozen=True)
class Finding:
    """One diagnostic produced by a check."""

    code: str
    severity: str  # "error" | "warning"
    path: str  # repo-relative POSIX path
    line: int
    message: str

    def to_dict(self) -> Dict[str, object]:
        return {
            "code": self.code,
            "severity": self.severity,
            "path": self.path,
            "line": self.line,
            "message": self.message,
        }

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.code} {self.severity}: {self.message}"


class SourceFile:
    """One scanned file: text, lazily parsed AST, module identity."""

    def __init__(self, path: Path, root: Path) -> None:
        self.path = path
        self.rel = path.relative_to(root).as_posix()
        self.text = path.read_text(encoding="utf-8")
        self._tree: Optional[ast.Module] = None
        self.parse_error: Optional[str] = None
        self._parsed = False

    @property
    def tree(self) -> Optional[ast.Module]:
        if not self._parsed:
            self._parsed = True
            try:
                self._tree = ast.parse(self.text, filename=self.rel)
            except SyntaxError as exc:  # pragma: no cover - broken checkout
                self.parse_error = str(exc)
        return self._tree

    @property
    def module_parts(self) -> Tuple[str, ...]:
        """Dotted module path, e.g. ``src/repro/core/x.py`` → (repro, core, x)."""
        parts = Path(self.rel).parts
        stem = Path(self.rel).stem
        if parts and parts[0] == "src":
            module = parts[1:-1] + (stem,)
        else:
            module = parts[:-1] + (stem,)
        if stem == "__init__":
            module = module[:-1]
        return module

    @property
    def subpackage(self) -> Optional[str]:
        """The ``repro`` subpackage this file belongs to, or None.

        Top-level modules (``repro/errors.py``, ``repro/cli.py``, …) have
        no subpackage; ``repro/engine/__init__.py`` belongs to ``engine``.
        """
        dirs = Path(self.rel).parts[:-1]
        if dirs[:2] == ("src", "repro") and len(dirs) > 2:
            return dirs[2]
        return None


class Project:
    """All scanned files plus shared helpers for checks."""

    def __init__(self, root: Path, files: Sequence[SourceFile]) -> None:
        self.root = root
        self.files = list(files)
        self._by_rel = {f.rel: f for f in self.files}

    def get(self, rel: str) -> Optional[SourceFile]:
        return self._by_rel.get(rel)

    def src_files(self) -> List[SourceFile]:
        return [f for f in self.files if f.rel.startswith("src/")]

    def tree_files(self, roots: Sequence[str]) -> List[SourceFile]:
        """Every ``*.py`` file under *roots* (repo-relative), scanned or not.

        For cross-file checks whose answer must not depend on which
        paths were linted (RL009 looks for callers everywhere).
        """
        out: List[SourceFile] = []
        for root in roots:
            base = self.root / root
            if not base.is_dir():
                continue
            for path in sorted(base.rglob("*.py")):
                if "__pycache__" in path.parts:
                    continue
                rel = path.relative_to(self.root).as_posix()
                out.append(self._by_rel.get(rel) or SourceFile(path, self.root))
        return out

    def read_text(self, rel: str) -> Optional[str]:
        """Text of a repo file, scanned or not (for doc-sync checks)."""
        scanned = self._by_rel.get(rel)
        if scanned is not None:
            return scanned.text
        path = self.root / rel
        if path.is_file():
            return path.read_text(encoding="utf-8")
        return None


class Check:
    """Base class for one RL-coded rule."""

    code: str = ""
    name: str = ""
    severity: str = SEVERITY_ERROR
    #: One-line summary used in the generated code tables (RL008).
    summary: str = ""

    def run(self, project: Project) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self,
        file: "SourceFile | str",
        line: int,
        message: str,
        severity: Optional[str] = None,
    ) -> Finding:
        rel = file if isinstance(file, str) else file.rel
        return Finding(
            code=self.code,
            severity=severity or self.severity,
            path=rel,
            line=line,
            message=message,
        )


#: code -> check instance, populated by :func:`register`.
REGISTRY: Dict[str, Check] = {}


def register(cls: type) -> type:
    """Class decorator: instantiate and index one check by its code."""
    check = cls()
    if not _CODE_RE.match(check.code):
        raise ValueError(f"check code must match RLnnn: {check.code!r}")
    if check.code in REGISTRY:
        raise ValueError(f"duplicate check code {check.code}")
    REGISTRY[check.code] = check
    return cls


def load_checks() -> Dict[str, Check]:
    """Import every bundled check module (idempotent) and return the registry."""
    from . import checks  # noqa: F401  (import populates REGISTRY)

    return REGISTRY


def code_table_rows() -> List[Tuple[str, str, str]]:
    """(code, severity, summary) for RL000 + every registered check."""
    rows = [(FRAMEWORK_CODE, SEVERITY_WARNING, FRAMEWORK_SUMMARY)]
    for code in sorted(load_checks()):
        check = REGISTRY[code]
        rows.append((code, check.severity, check.summary))
    return rows


def render_code_table(fmt: str = "markdown") -> str:
    """The RL code table as markdown (docs) or reST (docstrings)."""
    rows = code_table_rows()
    if fmt == "markdown":
        lines = ["| code | severity | meaning |", "| --- | --- | --- |"]
        lines += [f"| {c} | {s} | {m} |" for c, s, m in rows]
        return "\n".join(lines)
    if fmt == "rst":
        width = max(len(m) for _, _, m in rows)
        bar = f"=========  ========  {'=' * width}"
        lines = [bar, f"code       severity  {'meaning'.ljust(width)}".rstrip(), bar]
        lines += [
            f"``{c}``  {s.ljust(8)}  {m}".rstrip() for c, s, m in rows
        ]
        lines.append(bar)
        return "\n".join(lines)
    raise ValueError(f"unknown table format {fmt!r}")


# -- suppression pragmas -----------------------------------------------------


@dataclass
class Suppressions:
    """Parsed ``# reprolint: disable=…`` pragmas for one file."""

    #: code -> line the file-level pragma sits on.
    file_level: Dict[str, int] = field(default_factory=dict)
    #: (line, code) -> pragma line.
    line_level: Dict[Tuple[int, str], int] = field(default_factory=dict)
    #: Malformed-pragma findings (RL000).
    problems: List[Finding] = field(default_factory=list)

    def covers(self, finding: Finding) -> bool:
        return (
            finding.code in self.file_level
            or (finding.line, finding.code) in self.line_level
        )


def parse_suppressions(file: SourceFile) -> Suppressions:
    """Extract pragmas via the tokenizer (comments inside strings ignored)."""
    out = Suppressions()
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(file.text).readline))
    except (tokenize.TokenError, SyntaxError):  # pragma: no cover
        return out
    for tok in tokens:
        if tok.type != tokenize.COMMENT or "reprolint:" not in tok.string:
            continue
        line = tok.start[0]
        match = _PRAGMA_RE.search(tok.string)
        if match is None:
            out.problems.append(
                Finding(
                    FRAMEWORK_CODE,
                    SEVERITY_ERROR,
                    file.rel,
                    line,
                    "unparseable reprolint pragma; expected "
                    "'# reprolint: disable=RL00x (reason)'",
                )
            )
            continue
        codes = [c.strip() for c in match.group(1).split(",") if c.strip()]
        reason = (match.group(2) or "").strip()
        if not reason:
            out.problems.append(
                Finding(
                    FRAMEWORK_CODE,
                    SEVERITY_ERROR,
                    file.rel,
                    line,
                    "reprolint pragma must carry a parenthesized "
                    "justification: disable=%s (why it is safe)"
                    % ",".join(codes),
                )
            )
            continue
        standalone = tok.line.strip().startswith("#")
        for code in codes:
            if not _CODE_RE.match(code):
                out.problems.append(
                    Finding(
                        FRAMEWORK_CODE,
                        SEVERITY_WARNING,
                        file.rel,
                        line,
                        f"pragma names unknown code {code!r}",
                    )
                )
                continue
            if standalone:
                out.file_level[code] = line
            else:
                out.line_level[(line, code)] = line
    return out


# -- baseline ---------------------------------------------------------------


@dataclass
class BaselineEntry:
    code: str
    path: str
    reason: str
    contains: Optional[str] = None
    matched: int = 0

    def covers(self, finding: Finding) -> bool:
        if finding.code != self.code or finding.path != self.path:
            return False
        if self.contains is not None and self.contains not in finding.message:
            return False
        return True


def load_baseline(path: Path) -> Tuple[List[BaselineEntry], List[Finding]]:
    """Parse the baseline file; malformed entries become RL000 findings."""
    entries: List[BaselineEntry] = []
    problems: List[Finding] = []
    if not path.is_file():
        return entries, problems
    rel = path.name
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (ValueError, OSError) as exc:
        problems.append(
            Finding(
                FRAMEWORK_CODE, SEVERITY_ERROR, rel, 1, f"unreadable baseline: {exc}"
            )
        )
        return entries, problems
    for i, raw in enumerate(payload.get("entries", ())):
        code = raw.get("code", "")
        target = raw.get("path", "")
        reason = (raw.get("reason") or "").strip()
        if not (_CODE_RE.match(code) and target and reason):
            problems.append(
                Finding(
                    FRAMEWORK_CODE,
                    SEVERITY_ERROR,
                    rel,
                    1,
                    f"baseline entry #{i} needs code/path/reason "
                    f"(got {sorted(raw)})",
                )
            )
            continue
        entries.append(
            BaselineEntry(
                code=code, path=target, reason=reason, contains=raw.get("contains")
            )
        )
    return entries, problems


# -- runner -----------------------------------------------------------------

DEFAULT_BASELINE = Path(__file__).resolve().parent / "baseline.json"


def repo_root() -> Path:
    """The checkout root (the directory containing ``tools/``)."""
    return Path(__file__).resolve().parents[2]


def collect_files(paths: Sequence[Path], root: Path) -> List[SourceFile]:
    files: List[SourceFile] = []
    seen: Set[Path] = set()
    for raw in paths:
        path = raw if raw.is_absolute() else root / raw
        path = path.resolve()
        if path.is_dir():
            candidates = sorted(path.rglob("*.py"))
        elif path.is_file():
            candidates = [path]
        else:
            raise FileNotFoundError(f"no such file or directory: {raw}")
        for candidate in candidates:
            if "__pycache__" in candidate.parts or candidate in seen:
                continue
            seen.add(candidate)
            files.append(SourceFile(candidate, root))
    return files


@dataclass
class RunResult:
    """Everything one reprolint run produced, pre-partitioned."""

    active: List[Finding]
    suppressed: List[Finding]
    baselined: List[Finding]
    stale_baseline: List[Finding]
    files: int
    checks: int

    @property
    def errors(self) -> List[Finding]:
        return [f for f in self.active if f.severity == SEVERITY_ERROR]

    @property
    def warnings(self) -> List[Finding]:
        return [f for f in self.active if f.severity != SEVERITY_ERROR]

    def exit_code(self, strict: bool = False) -> int:
        if self.errors:
            return 1
        if strict and self.warnings:
            return 1
        return 0


def run_paths(
    paths: Sequence[Path],
    *,
    root: Optional[Path] = None,
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
    baseline_path: Optional[Path] = DEFAULT_BASELINE,
) -> RunResult:
    """Run every (selected) check over *paths* and partition the findings."""
    root = root or repo_root()
    checks = load_checks()
    selected = set(select) if select else set(checks)
    selected -= set(ignore or ())
    unknown = selected - set(checks)
    if unknown:
        raise ValueError(f"unknown check code(s): {sorted(unknown)}")
    project = Project(root, collect_files(paths, root))

    findings: List[Finding] = []
    for code in sorted(selected):
        findings.extend(checks[code].run(project))
    for file in project.files:
        if file.parse_error is not None:  # pragma: no cover - broken checkout
            findings.append(
                Finding(
                    FRAMEWORK_CODE,
                    SEVERITY_ERROR,
                    file.rel,
                    1,
                    f"syntax error: {file.parse_error}",
                )
            )

    suppressions = {f.rel: parse_suppressions(f) for f in project.files}
    for sup in suppressions.values():
        findings.extend(sup.problems)

    entries: List[BaselineEntry] = []
    stale: List[Finding] = []
    if baseline_path is not None:
        entries, baseline_problems = load_baseline(baseline_path)
        findings.extend(baseline_problems)

    active: List[Finding] = []
    suppressed: List[Finding] = []
    baselined: List[Finding] = []
    for finding in sorted(findings, key=lambda f: (f.path, f.line, f.code)):
        sup = suppressions.get(finding.path)
        if sup is not None and finding.code != FRAMEWORK_CODE and sup.covers(finding):
            suppressed.append(finding)
            continue
        entry = next((e for e in entries if e.covers(finding)), None)
        if entry is not None:
            entry.matched += 1
            baselined.append(finding)
            continue
        active.append(finding)
    for entry in entries:
        if entry.matched == 0:
            stale.append(
                Finding(
                    FRAMEWORK_CODE,
                    SEVERITY_WARNING,
                    DEFAULT_BASELINE.name
                    if baseline_path is None
                    else baseline_path.name,
                    1,
                    f"stale baseline entry: {entry.code} at {entry.path} "
                    f"no longer matches any finding",
                )
            )
    active.extend(stale)
    return RunResult(
        active=active,
        suppressed=suppressed,
        baselined=baselined,
        stale_baseline=stale,
        files=len(project.files),
        checks=len(selected),
    )
