"""Shared AST helpers used by multiple checks."""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple


def parent_map(tree: ast.AST) -> Dict[ast.AST, ast.AST]:
    parents: Dict[ast.AST, ast.AST] = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    return parents


def module_level_imports(
    tree: ast.Module,
) -> Iterator[Tuple[ast.AST, bool]]:
    """Yield every import statement with a flag: True if module-level.

    Imports nested under module-scope ``if``/``try``/``with`` still count
    as module-level (they execute at import time); imports inside
    function or class-method bodies do not.  ``if TYPE_CHECKING:`` blocks
    are reported as non-module-level — they never execute.
    """

    def walk(nodes: List[ast.stmt], module_level: bool) -> Iterator[Tuple[ast.AST, bool]]:
        for node in nodes:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                yield node, module_level
            elif isinstance(node, ast.If):
                guarded = module_level and not _is_type_checking_test(node.test)
                yield from walk(node.body, guarded)
                yield from walk(node.orelse, module_level)
            elif isinstance(node, ast.Try):
                for block in (node.body, node.orelse, node.finalbody):
                    yield from walk(block, module_level)
                for handler in node.handlers:
                    yield from walk(handler.body, module_level)
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                yield from walk(node.body, module_level)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield from walk(node.body, False)
            else:
                for child in ast.iter_child_nodes(node):
                    if isinstance(child, (ast.Import, ast.ImportFrom)):
                        yield child, False
                    elif hasattr(child, "body"):
                        inner = getattr(child, "body")
                        if isinstance(inner, list):
                            yield from walk(inner, False)

    yield from walk(tree.body, True)


def _is_type_checking_test(test: ast.expr) -> bool:
    if isinstance(test, ast.Name) and test.id == "TYPE_CHECKING":
        return True
    if (
        isinstance(test, ast.Attribute)
        and test.attr == "TYPE_CHECKING"
        and isinstance(test.value, ast.Name)
        and test.value.id == "typing"
    ):
        return True
    return False


def imported_roots(node: ast.AST) -> Iterator[Tuple[str, int]]:
    """(top-level package name, line) for one import statement."""
    if isinstance(node, ast.Import):
        for alias in node.names:
            yield alias.name.split(".")[0], node.lineno
    elif isinstance(node, ast.ImportFrom):
        if node.level and node.level > 0:
            return  # relative import: stays inside the package
        if node.module:
            yield node.module.split(".")[0], node.lineno


def repro_subpackage_of_import(node: ast.AST) -> Optional[Tuple[str, int, str]]:
    """For ``repro.X`` imports: (subpackage, line, imported-name hint)."""
    if isinstance(node, ast.Import):
        for alias in node.names:
            parts = alias.name.split(".")
            if parts[0] == "repro" and len(parts) > 1:
                return parts[1], node.lineno, alias.name
    elif isinstance(node, ast.ImportFrom):
        if node.level and node.level > 0:
            return None
        if node.module:
            parts = node.module.split(".")
            if parts[0] == "repro":
                if len(parts) > 1:
                    return parts[1], node.lineno, node.module
                # ``from repro import X`` — X itself is the subpackage.
                for alias in node.names:
                    return alias.name, node.lineno, f"repro.{alias.name}"
    return None


def str_constants(tree: ast.AST) -> Iterator[Tuple[str, int]]:
    """Every string literal in the tree, excluding docstrings."""
    docstrings: Set[ast.Constant] = set()
    for node in ast.walk(tree):
        if isinstance(
            node, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                docstrings.add(body[0].value)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and node not in docstrings
        ):
            yield node.value, node.lineno


def module_constant_strings(tree: ast.Module) -> Dict[str, str]:
    """UPPER_CASE module-level names assigned a single string literal."""
    out: Dict[str, str] = {}
    for node in tree.body:
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        if value is None or not (
            isinstance(value, ast.Constant) and isinstance(value.value, str)
        ):
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                out[target.id] = value.value
    return out


def module_constant_str_dicts(tree: ast.Module) -> Dict[str, Dict[str, str]]:
    """Module-level names assigned a dict of string-literal values."""
    out: Dict[str, Dict[str, str]] = {}
    for node in tree.body:
        targets: List[ast.expr]
        value: Optional[ast.expr]
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign):
            targets, value = [node.target], node.value
        else:
            continue
        if not isinstance(value, ast.Dict):
            continue
        mapping: Dict[str, str] = {}
        ok = True
        for key, item in zip(value.keys, value.values):
            if (
                isinstance(key, ast.Constant)
                and isinstance(key.value, str)
                and isinstance(item, ast.Constant)
                and isinstance(item.value, str)
            ):
                mapping[key.value] = item.value
            else:
                ok = False
                break
        if not ok:
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                out[target.id] = mapping
    return out


def enclosing_function(
    node: ast.AST, parents: Dict[ast.AST, ast.AST]
) -> Optional[ast.AST]:
    cur: Optional[ast.AST] = node
    while cur is not None:
        cur = parents.get(cur)
        if isinstance(cur, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return cur
    return None


def in_finally_block(node: ast.AST, parents: Dict[ast.AST, ast.AST]) -> bool:
    """True if *node* sits (possibly nested) inside some ``finally:`` body."""
    cur: ast.AST = node
    while True:
        parent = parents.get(cur)
        if parent is None:
            return False
        if isinstance(parent, ast.Try):
            stmt = cur
            for fin in parent.finalbody:
                if stmt is fin or _contains(fin, stmt):
                    return True
        cur = parent


def _contains(haystack: ast.AST, needle: ast.AST) -> bool:
    for node in ast.walk(haystack):
        if node is needle:
            return True
    return False
