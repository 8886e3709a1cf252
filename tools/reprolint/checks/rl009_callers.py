"""RL009 — every public ``src/`` symbol has a production caller.

A top-level public function or class in ``src/`` is dead surface when
nothing uses it but tests and package ``__init__`` re-exports.  Use in
its own module counts, except inside the symbol's own body: a public
helper its module calls is alive.  A module is dead when no import
chain reaches it from an entry point (``__main__``, ``ENTRY_MODULES``)
or from a caller outside ``src/``: modules that only import each other
are dead together.  ``from package import name`` reaches the module the
``__init__`` takes *name* from; an ``__init__`` reaches only what its
own statements use.  Callers are looked up in ``conventions.CALLER_ROOTS``
under the repo root whatever paths were given on the command line, so
linting ``src`` alone sees the same callers as linting everything.

What counts as a reference, by name: a ``Name`` or attribute access, an
imported alias, or a ``"repro.module:Name"`` string (the benchmark's
patch-point spelling).  In a package ``__init__`` the import statements
and ``__all__`` do not count; re-exporting is not calling.  Matching is
by bare name, so a same-named symbol elsewhere hides a finding rather
than inventing one.

A registry that reaches a symbol only by a computed name is invisible
to the AST; such a symbol carries ``# reprolint: disable=RL009 (why)``
on its ``def``/``class`` line.
"""

from __future__ import annotations

import ast
from collections import defaultdict
from typing import Dict, Iterator, List, Set, Tuple

from ..conventions import CALLER_ROOTS, ENTRY_MODULES
from ..framework import Check, Finding, Project, SourceFile, register

_ENTRY_MODULES = {"__init__", "__main__"}


def _module_name(file: SourceFile) -> str:
    return ".".join(file.module_parts)


def _resolve_from(file: SourceFile, node: ast.ImportFrom) -> str:
    """Absolute dotted module an ``ImportFrom`` reads from."""
    if not node.level:
        return node.module or ""
    package = list(file.module_parts)
    if file.path.stem != "__init__":
        package = package[:-1]
    if node.level > 1:
        package = package[: len(package) - (node.level - 1)]
    return ".".join(package + ([node.module] if node.module else []))


def _is_all_assignment(node: ast.stmt) -> bool:
    targets = node.targets if isinstance(node, ast.Assign) else (
        [node.target] if isinstance(node, (ast.AnnAssign, ast.AugAssign)) else []
    )
    return any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)


def _references(file: SourceFile, nodes: List[ast.stmt]) -> Set[str]:
    """The names the statements *nodes* of *file* use."""
    names: Set[str] = set()
    reexporter = file.rel.startswith("src/") and file.path.stem == "__init__"
    for top in nodes:
        if reexporter and (
            isinstance(top, (ast.Import, ast.ImportFrom)) or _is_all_assignment(top)
        ):
            continue
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                target, sep, attr = node.value.partition(":")
                if sep and target.startswith("repro"):
                    names.add(attr.split(".")[0])
    return names


def _imports(file: SourceFile, tree: ast.Module) -> List[Tuple[str, str]]:
    """``(module, name)`` per import in *tree*, ``name`` empty for a whole
    module; function-level imports and patch-point strings included."""
    out: List[Tuple[str, str]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.extend((alias.name, "") for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = _resolve_from(file, node)
            out.extend((base, alias.name) for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            target, sep, _ = node.value.partition(":")
            if sep and target.startswith("repro"):
                out.append((target, ""))
    return out


def _live_modules(callers: List[SourceFile]) -> Set[str]:
    """The ``src/`` modules an import chain reaches from an entry point
    or from a caller outside ``src/``."""
    imports: Dict[str, List[Tuple[str, str]]] = {}
    packages: Dict[str, Set[str]] = {}  # package -> names its body uses
    roots = list(ENTRY_MODULES)
    for file in callers:
        if file.tree is None:
            continue
        key = _module_name(file) if file.rel.startswith("src/") else file.rel
        imports[key] = _imports(file, file.tree)
        if key == file.rel or file.path.stem == "__main__":
            roots.append(key)
        elif file.path.stem == "__init__":
            packages[key] = _references(file, file.tree.body)

    def resolve(module: str, name: str, seen: Set[str]) -> str:
        """The module that ``from module import name`` takes *name* from."""
        if not name or f"{module}.{name}" in imports:
            return f"{module}.{name}" if name else module
        if module in packages and module not in seen:
            for source, imported in imports[module]:
                if imported == name:
                    return resolve(source, name, seen | {module})
        return module

    live: Set[str] = set()
    while roots:
        module = roots.pop()
        if module in live or module not in imports:
            continue
        live.add(module)
        body = packages.get(module)
        for source, name in imports[module]:
            if body is None or name in body:
                roots.append(resolve(source, name, set()))
            if body is None:
                roots.append(source)
    return live


def _public_definitions(tree: ast.Module) -> List[ast.stmt]:
    return [
        node
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    ]


@register
class ProductionCallerCheck(Check):
    code = "RL009"
    name = "production-caller"
    severity = "error"
    summary = "public src/ symbol or module that only tests or re-exports use"

    def run(self, project: Project) -> Iterator[Finding]:
        targets = [
            f
            for f in project.files
            if f.rel.startswith("src/") and f.path.stem not in _ENTRY_MODULES
        ]
        if not targets:
            return
        #: name / dotted module -> the caller files that use it.
        users: Dict[str, Set[str]] = defaultdict(set)
        callers = project.tree_files(CALLER_ROOTS)
        for file in callers:
            if file.tree is None:
                continue
            for name in _references(file, file.tree.body):
                users[name].add(file.rel)
        live = _live_modules(callers)
        for file in targets:
            tree = file.tree
            if tree is None:
                continue
            own = _module_name(file)
            per_stmt = [_references(file, [stmt]) for stmt in tree.body]
            definitions = _public_definitions(tree)
            dead = [
                node
                for node in definitions
                if not users[node.name] - {file.rel}
                and not any(
                    node.name in names
                    for stmt, names in zip(tree.body, per_stmt)
                    if stmt is not node
                )
            ]
            if own not in live:
                yield self.finding(
                    file,
                    1,
                    f"module {own} has no production caller: no import chain "
                    "reaches it from an entry point or from code outside src/",
                )
                continue
            for node in dead:
                yield self.finding(
                    file,
                    node.lineno,
                    f"{node.name!r} has no production caller: only tests or "
                    "package re-exports use it",
                )
