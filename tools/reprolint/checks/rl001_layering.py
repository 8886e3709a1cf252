"""RL001 — import layering.

A ``repro`` subpackage may import, at module level, only from its own
layer or below (see ``conventions.LAYERS``).  Function-level imports
across layers are fine — they express an optional, late-bound
dependency — as are ``if TYPE_CHECKING:`` imports.
"""

from __future__ import annotations

from typing import Iterator

from .. import astutil
from ..conventions import LAYERS, TOP_LEVEL_MODULES
from ..framework import Check, Finding, Project, register


@register
class LayeringCheck(Check):
    code = "RL001"
    name = "layering"
    severity = "error"
    summary = "module-level import crosses a layer upward"

    def run(self, project: Project) -> Iterator[Finding]:
        for file in project.files:
            tree = file.tree
            if tree is None or not file.rel.startswith("src/repro/"):
                continue
            module = file.module_parts
            if len(module) < 2 or module[-1] in TOP_LEVEL_MODULES:
                continue
            sub = file.subpackage
            if sub is None or sub in TOP_LEVEL_MODULES:
                continue
            layer = LAYERS.get(sub)
            if layer is None:
                yield self.finding(
                    file,
                    1,
                    f"subpackage {sub!r} has no layer assignment in "
                    "tools/reprolint/conventions.py",
                )
                continue
            for node, module_level in astutil.module_level_imports(tree):
                if not module_level:
                    continue
                hit = astutil.repro_subpackage_of_import(node)
                if hit is None:
                    continue
                target, line, dotted = hit
                if target == sub or target in TOP_LEVEL_MODULES:
                    continue
                target_layer = LAYERS.get(target)
                if target_layer is None:
                    yield self.finding(
                        file,
                        line,
                        f"import of {dotted!r}: subpackage {target!r} has no "
                        "layer assignment in tools/reprolint/conventions.py",
                    )
                elif target_layer > layer:
                    yield self.finding(
                        file,
                        line,
                        f"layer violation: {sub!r} (layer {layer}) imports "
                        f"{dotted!r} (layer {target_layer}) at module level; "
                        "move the import into the function that needs it",
                    )
