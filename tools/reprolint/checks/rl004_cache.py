"""RL004 — memo/cache slots must be staleness-guarded.

The bug class behind ``StaleClosureIndexError`` (PR 8): a derived
structure cached on a :class:`Relation`/:class:`Database` keeps serving
after the underlying rows change.  The repo has two sanctioned guards:

* **mutation-version keying** — the code reading the cache also reads a
  ``version`` token and compares/keys by it (``Database.derived``'s one
  per-version slot, which holds the fingerprint, ``U(D)``, the delta
  reducer and the closure index), or
* **subscriber invalidation** — the module registers via
  ``.subscribe(...)`` and somewhere clears/None-s the cached attribute
  when notified.

Any attribute or module global whose name marks it as a cache
(``*_cache``, ``*_memo``, …) that is used without either guard is an
error.  Caches that are immune by construction (e.g. keyed by an
immutable scatter token) carry a pragma with the justification.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterator, List, Optional, Set

from .. import astutil
from ..conventions import VERSION_FRAGMENT
from ..framework import Check, Finding, Project, register

_CACHE_RE = re.compile(r"(^|_)(cache|cached|memo|memoized)(_|$)")


def _is_cache_name(name: str) -> bool:
    return bool(_CACHE_RE.search(name.lower().strip("_")))


def _mentions_version(fn: ast.AST) -> bool:
    for node in ast.walk(fn):
        if isinstance(node, ast.Name) and VERSION_FRAGMENT in node.id.lower():
            return True
        if isinstance(node, ast.Attribute) and VERSION_FRAGMENT in node.attr.lower():
            return True
    return False


def _getattr_literal(node: ast.Call) -> Optional[str]:
    if (
        isinstance(node.func, ast.Name)
        and node.func.id in {"getattr", "setattr", "delattr"}
        and len(node.args) >= 2
        and isinstance(node.args[1], ast.Constant)
        and isinstance(node.args[1].value, str)
    ):
        return node.args[1].value
    return None


@register
class CacheStalenessCheck(Check):
    code = "RL004"
    name = "cache-staleness"
    severity = "error"
    summary = "cache/memo slot used without a version guard or subscriber invalidation"

    def run(self, project: Project) -> Iterator[Finding]:
        for file in project.src_files():
            tree = file.tree
            if tree is None:
                continue
            yield from self._check_module(file, tree)

    def _check_module(self, file: object, tree: ast.Module) -> Iterator[Finding]:
        text = getattr(file, "text", "")
        has_subscribe = ".subscribe(" in text
        module_globals: Set[str] = set()
        for stmt in tree.body:
            targets: List[ast.expr] = []
            if isinstance(stmt, ast.Assign):
                targets = stmt.targets
            elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
                targets = [stmt.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    module_globals.add(target.id)

        parents = astutil.parent_map(tree)
        # (attr name) -> occurrences, plus observed invalidation sites.
        occurrences: Dict[str, List[ast.AST]] = {}
        invalidated: Set[str] = set()
        for node in ast.walk(tree):
            name: Optional[str] = None
            if isinstance(node, ast.Attribute) and _is_cache_name(node.attr):
                # Only attributes on self/cls: a cache slot is owned by the
                # class that guards it.  ``args.cache_entries`` (config) or
                # ``result.cache_status`` (payload) are not cache slots.
                receiver = node.value
                if not (
                    isinstance(receiver, ast.Name)
                    and receiver.id in {"self", "cls"}
                ):
                    continue
                # ``self._build_projection_cache()`` is a method named
                # after the cache it builds, not a slot read.
                parent = parents.get(node)
                if isinstance(parent, ast.Call) and parent.func is node:
                    continue
                name = node.attr
            elif (
                isinstance(node, ast.Name)
                and node.id in module_globals
                and _is_cache_name(node.id)
            ):
                name = node.id
            elif isinstance(node, ast.Call):
                literal = _getattr_literal(node)
                if literal is not None and _is_cache_name(literal):
                    name = literal
                    func = node.func
                    if isinstance(func, ast.Name) and func.id in {
                        "setattr",
                        "delattr",
                    }:
                        if func.id == "delattr" or _assigns_none_via_setattr(node):
                            invalidated.add(literal)
            if name is None:
                continue
            occurrences.setdefault(name, []).append(node)
            parent = parents.get(node)
            if isinstance(node, (ast.Attribute, ast.Name)):
                if isinstance(parent, ast.Assign) and node in parent.targets:
                    if (
                        isinstance(parent.value, ast.Constant)
                        and parent.value.value is None
                    ):
                        invalidated.add(name)
                elif isinstance(parent, ast.Delete):
                    invalidated.add(name)
                elif (
                    isinstance(parent, ast.Attribute)
                    and parent.attr in {"clear", "pop", "popitem"}
                ):
                    invalidated.add(name)

        for name, nodes in sorted(occurrences.items()):
            if has_subscribe and name in invalidated:
                continue
            reading_fns = {
                astutil.enclosing_function(node, parents) for node in nodes
            }
            if any(fn is not None and _mentions_version(fn) for fn in reading_fns):
                continue
            first = min(nodes, key=lambda n: getattr(n, "lineno", 1))
            yield self.finding(
                file,  # type: ignore[arg-type]
                getattr(first, "lineno", 1),
                f"cache slot {name!r} is used without a mutation-version "
                "guard or subscriber invalidation; a mutation to the "
                "underlying relations would keep serving stale results "
                "(the StaleClosureIndexError bug class)",
            )


def _assigns_none_via_setattr(node: ast.Call) -> bool:
    return (
        len(node.args) >= 3
        and isinstance(node.args[2], ast.Constant)
        and node.args[2].value is None
    )
