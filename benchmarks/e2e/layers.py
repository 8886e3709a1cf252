"""Per-layer tracing, installed from outside the program under test.

The traced run replays a workload's operations in-process with timing
wrappers around the public functions of each layer (a layer is a
``repro`` module).  A wrapped function is found once, at its defining
module, and every name bound to it in an imported ``repro`` module is
rebound to the wrapper; methods are replaced on their class.  A patch
point that no longer exists is reported as ``missing`` and its metric
reads 0 — the run never crashes over it.

Each span records name, start, end, parent and the request it belongs
to.  Spans stay in memory and are written once, by ``write_trace``.  A
layer's *self time* is its span's duration minus the durations of its
direct children.  The untraced runs import none of this.
"""

from __future__ import annotations

import functools
import gc
import importlib
import json
import sys
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple


class Span:
    """One timed call: a node of a request's call tree."""

    __slots__ = ("index", "name", "start", "end", "parent", "request")

    def __init__(
        self, index: int, name: str, start: float, parent: int, request: str
    ) -> None:
        self.index = index
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.request = request

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> Dict[str, object]:
        return {
            "id": self.index,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "request": self.request,
        }


class Tracer:
    """In-memory span recorder for single-threaded in-process replays."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = {}
        self._stack: List[int] = []
        self._request = ""
        self._gc_started = 0.0

    # -- recording ----------------------------------------------------------

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else -1
        span = Span(
            len(self.spans), name, time.perf_counter(), parent, self._request
        )
        self.spans.append(span)
        self._stack.append(span.index)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        """Time a block as one span under the current parent."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    @contextmanager
    def request(self, group: str, number: int) -> Iterator[Span]:
        """Open the root span of one replayed request of *group*."""
        self._request = f"{group}/{number}"
        try:
            with self.span("request") as root:
                yield root
        finally:
            self._request = ""

    def count(self, name: str, value: float = 1) -> None:
        # Counts are kept per request group like the spans are; a call
        # outside any request is set-up work, counted under "setup".
        group = self._request.split("/", 1)[0] or "setup"
        key = f"{group}:{name}"
        self.counts[key] = self.counts.get(key, 0) + value

    def on_gc(self, phase: str, info: Dict[str, int]) -> None:
        """A ``gc.callbacks`` hook: collector pauses, counted like any
        other boundary (the pause is also inside the self time of
        whichever layer was running)."""
        if phase == "start":
            self._gc_started = time.perf_counter()
            return
        self.count(
            "python.gc.pause_ms", 1000.0 * (time.perf_counter() - self._gc_started)
        )
        if info["generation"] == 2:
            self.count("python.gc.full_collections")

    def wrap(
        self,
        name: str,
        fn: Callable,
        *,
        label: Optional[Callable[[tuple, dict], str]] = None,
        after: Optional[Callable[["Tracer", tuple, dict, object], None]] = None,
    ) -> Callable:
        """*fn* wrapped in a span called *name*.

        *label* fills a ``{}`` in the name from the call's arguments;
        *after* reads counts off a successful call's arguments/result.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(
                name if label is None else name.format(label(args, kwargs))
            )
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return traced

    # -- reading ------------------------------------------------------------

    def self_times(self) -> List[float]:
        """Self time per span: duration minus its direct children's."""
        own = [span.duration for span in self.spans]
        for span in self.spans:
            if span.parent >= 0:
                own[span.parent] -= span.duration
        return own

    def group_of(self, span: Span) -> str:
        return span.request.split("/", 1)[0]

    def self_total(self, group: str, name: str) -> float:
        """Summed self time (seconds) of layer *name* within *group*."""
        own = self.self_times()
        return sum(
            own[s.index]
            for s in self.spans
            if s.name == name and self.group_of(s) == group
        )

    def duration_total(self, group: str, name: str) -> float:
        """Summed inclusive duration (seconds) of *name* within *group*."""
        return sum(
            s.duration
            for s in self.spans
            if s.name == name and self.group_of(s) == group
        )

    def counted(self, group: str, name: str) -> float:
        return self.counts.get(f"{group}:{name}", 0)

    def ranked_self_times(self, group: str) -> List[Tuple[str, float, int]]:
        """(layer, total self seconds, calls) of *group*, largest first."""
        own = self.self_times()
        totals: Dict[str, List[float]] = {}
        for s in self.spans:
            if self.group_of(s) != group:
                continue
            entry = totals.setdefault(s.name, [0.0, 0])
            entry[0] += own[s.index]
            entry[1] += 1
        return sorted(
            ((n, t, int(c)) for n, (t, c) in totals.items()),
            key=lambda row: -row[1],
        )

    def write_trace(self, path: str, extra: Dict[str, object]) -> None:
        """Write every span and count, once, when the run ends."""
        with open(path, "w") as fh:
            json.dump(
                {
                    **extra,
                    "counts": self.counts,
                    "spans": [s.to_dict() for s in self.spans],
                },
                fh,
            )
            fh.write("\n")


# -- count hooks --------------------------------------------------------------


def _count_rows_scanned(tracer, args, kwargs, result) -> None:
    tracer.count("core.topk.rows_scanned", len(args[0]))


def _count_universal_rows(tracer, args, kwargs, result) -> None:
    tracer.count("engine.universal.rows", len(result))


def _count_table_rows(tracer, args, kwargs, result) -> None:
    tracer.count("core.cube_algorithm.table_rows", len(result))


def _count_candidates(tracer, args, kwargs, result) -> None:
    tracer.count("core.iterative.candidates", len(result))


def _count_intervention(tracer, args, kwargs, result) -> None:
    tracer.count("core.intervention.calls")
    tracer.count("core.intervention.iterations", result.iterations)
    tracer.count("core.intervention.delta_rows", result.delta.size())


def _count_reduction(tracer, args, kwargs, result) -> None:
    tracer.count("engine.reduction.calls")


def _count_refresh(tracer, args, kwargs, result) -> None:
    tracer.count("incremental.session.refreshes")
    if result.strategy == "patched":
        tracer.count("incremental.session.patched")
    elif result.strategy == "rebuilt":
        tracer.count("incremental.session.fallbacks")
        tracer.count(f"incremental.session.fallbacks.{result.reason}")


def _strategy_label(args: tuple, kwargs: dict) -> str:
    return str(kwargs.get("strategy", "minimal_append"))


#: (span name, "module:qualified.name", label hook, count hook).  Span
#: names are layer (module) names; several patch points may share one.
PATCH_POINTS: Sequence[
    Tuple[str, str, Optional[Callable], Optional[Callable]]
] = (
    ("service.engine.prepare",
     "repro.service.engine:ExplanationService.prepare", None, None),
    ("service.cache.get",
     "repro.service.cache:ExplanationTableCache.get", None, None),
    ("service.cache.put",
     "repro.service.cache:ExplanationTableCache.put", None, None),
    ("service.protocol.render",
     "repro.service.protocol:ranking_payload", None, None),
    ("core.topk.{}",
     "repro.core.topk:top_k_explanations", _strategy_label, _count_rows_scanned),
    ("core.cube_algorithm.hybrid",
     "repro.core.cube_algorithm:add_hybrid_column", None, None),
    ("analysis.analyzer.analyze_plan",
     "repro.analysis.analyzer:analyze_plan", None, None),
    ("engine.universal.build",
     "repro.engine.universal:universal_table", None, _count_universal_rows),
    ("core.cube_algorithm.build",
     "repro.core.cube_algorithm:build_explanation_table", None, _count_table_rows),
    ("core.cube_algorithm.finalize",
     "repro.core.cube_algorithm:finalize_explanation_table", None, None),
    ("core.additivity.analyze",
     "repro.core.additivity:analyze_additivity", None, None),
    ("core.numquery.filtered",
     "repro.core.numquery:AggregateQuery.filtered", None, None),
    ("core.numquery.evaluate",
     "repro.core.numquery:AggregateQuery.evaluate", None, None),
    ("engine.fastpath.cube_numpy",
     "repro.engine.fastpath:cube_numpy", None, None),
    ("engine.cube.cube", "repro.engine.cube:cube", None, None),
    ("engine.cube.dummy_rewrite", "repro.engine.cube:dummy_rewrite", None, None),
    ("engine.joins.outer_join",
     "repro.engine.joins:full_outer_join_many", None, None),
    ("core.iterative.index_build",
     "repro.core.iterative:IndexedInterventionEvaluator.__init__", None, None),
    ("core.iterative.build_table",
     "repro.core.iterative:IndexedInterventionEvaluator.build_table", None, None),
    ("core.iterative.build_table",
     "repro.core.iterative:IndexedInterventionEvaluator.candidate_assignments",
     None, _count_candidates),
    ("core.intervention.compute",
     "repro.core.intervention:FixpointStrategy.compute", None, _count_intervention),
    ("core.intervention.compute",
     "repro.core.intervention:ClosureStrategy.compute", None, _count_intervention),
    ("engine.reduction.reduce",
     "repro.engine.reduction:reduce_row_sets", None, _count_reduction),
    ("engine.closure.build",
     "repro.engine.closure:ClosureIndex.__init__", None, None),
    ("incremental.session.refresh",
     "repro.incremental.session:IncrementalSession.refresh", None, _count_refresh),
    ("engine.relation.write",
     "repro.engine.relation:Relation.delete_many", None, None),
    ("engine.relation.write",
     "repro.engine.relation:Relation.insert_many", None, None),
    ("engine.database.fingerprint",
     "repro.engine.database:Database.content_fingerprint", None, None),
    ("service.registry.resolve",
     "repro.service.registry:DatasetRegistry.resolve", None, None),
    ("datasets.natality.generate", "repro.datasets.natality:generate", None, None),
    ("datasets.tpch.generate", "repro.datasets.tpch:generate", None, None),
    ("datasets.dblp.generate", "repro.datasets.dblp:generate", None, None),
)

#: Modules that bind the functions above by name; imported before
#: patching so that every importer is rebound.
_IMPORTERS = (
    "repro",
    "repro.cli",
    "repro.service",
    "repro.analysis",
    "repro.incremental",
    "repro.backends.sqlbase",
)


def _rebind_everywhere(original: object, replacement: object) -> None:
    """Point every ``repro`` module-level name bound to *original* at
    *replacement* (``from x import f`` copies the binding, so patching
    the defining module alone would miss the importers)."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not (
            module_name == "repro" or module_name.startswith("repro.")
        ):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


@contextmanager
def installed(tracer: Tracer) -> Iterator[List[str]]:
    """Wrap every patch point for the block; yields the missing ones."""
    for name in _IMPORTERS:
        importlib.import_module(name)
    gc.callbacks.append(tracer.on_gc)
    undo: List[Callable[[], None]] = [
        functools.partial(gc.callbacks.remove, tracer.on_gc)
    ]
    missing: List[str] = []
    try:
        for span_name, target, label, after in PATCH_POINTS:
            module_name, _, qualname = target.partition(":")
            try:
                owner: object = importlib.import_module(module_name)
                *path, attr = qualname.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                missing.append(target)
                continue
            wrapper = tracer.wrap(span_name, original, label=label, after=after)
            if path:  # a method: replace it on its class
                setattr(owner, attr, wrapper)
                undo.append(functools.partial(setattr, owner, attr, original))
            else:  # a function: rebind every importer's name
                _rebind_everywhere(original, wrapper)
                undo.append(
                    functools.partial(_rebind_everywhere, wrapper, original)
                )
        yield missing
    finally:
        for restore in reversed(undo):
            restore()


# -- per-layer metrics ----------------------------------------------------------

#: (metric, unit, better, source).  A source is
#:   ("self", group, span)   summed self time of the layer, per unit of group
#:   ("dur", group, span)    summed inclusive duration, per unit of group
#:   ("count", group, name)  a count made at the layer boundary, per unit
#:   ("value",)              computed by the runner (see run.py)
#: where a *unit* of the "main" group is one replayed operation (one
#: mutate-plus-reads cycle on mutate-refresh), the "setup" group is
#: reported as a total, and the standalone groups per replay.
PER_LAYER: Sequence[Tuple[str, str, str, tuple]] = (
    ("service.server.http_overhead_ms", "ms", "lower", ("value",)),
    ("service.server.response_bytes", "count", "lower", ("value",)),
    ("service.protocol.parse_ms", "ms", "lower",
     ("self", "main", "service.protocol.parse")),
    ("service.protocol.render_ms", "ms", "lower",
     ("self", "main", "service.protocol.render")),
    ("service.engine.prepare_ms", "ms", "lower",
     ("dur", "main", "service.engine.prepare")),
    ("service.cache.get_ms", "ms", "lower", ("self", "main", "service.cache.get")),
    ("service.cache.put_ms", "ms", "lower", ("self", "main", "service.cache.put")),
    ("service.cache.hit_share", "share", "higher", ("value",)),
    ("service.cache.bytes", "count", "lower", ("value",)),
    ("service.registry.resolve_cold_ms", "ms", "lower",
     ("dur", "setup", "service.registry.resolve")),
    ("datasets.natality.generate_ms", "ms", "lower",
     ("self", "*", "datasets.natality.generate")),
    ("datasets.tpch.generate_ms", "ms", "lower",
     ("self", "*", "datasets.tpch.generate")),
    ("datasets.dblp.generate_ms", "ms", "lower",
     ("self", "*", "datasets.dblp.generate")),
    ("engine.database.fingerprint_cold_ms", "ms", "lower",
     ("self", "setup", "engine.database.fingerprint")),
    ("analysis.analyzer.analyze_plan_ms", "ms", "lower",
     ("self", "main", "analysis.analyzer.analyze_plan")),
    ("engine.universal.build_ms", "ms", "lower",
     ("self", "main", "engine.universal.build")),
    ("engine.universal.rows", "count", "lower",
     ("count", "main", "engine.universal.rows")),
    ("core.cube_algorithm.build_self_ms", "ms", "lower",
     ("self", "main", "core.cube_algorithm.build")),
    ("core.cube_algorithm.finalize_ms", "ms", "lower",
     ("self", "main", "core.cube_algorithm.finalize")),
    ("core.cube_algorithm.table_rows", "count", "lower",
     ("count", "main", "core.cube_algorithm.table_rows")),
    ("core.cube_algorithm.hybrid_ms", "ms", "lower",
     ("self", "main", "core.cube_algorithm.hybrid")),
    ("core.numquery.filtered_ms", "ms", "lower",
     ("self", "main", "core.numquery.filtered")),
    ("core.numquery.evaluate_ms", "ms", "lower",
     ("self", "main", "core.numquery.evaluate")),
    ("engine.fastpath.cube_numpy_ms", "ms", "lower",
     ("self", "main", "engine.fastpath.cube_numpy")),
    ("engine.cube.cube_ms", "ms", "lower", ("self", "columnar", "engine.cube.cube")),
    ("engine.cube.dummy_rewrite_ms", "ms", "lower",
     ("self", "main", "engine.cube.dummy_rewrite")),
    ("engine.joins.outer_join_ms", "ms", "lower",
     ("self", "main", "engine.joins.outer_join")),
    ("core.topk.no_minimal_ms", "ms", "lower",
     ("self", "main", "core.topk.no_minimal")),
    ("core.topk.minimal_self_join_ms", "ms", "lower",
     ("self", "main", "core.topk.minimal_self_join")),
    ("core.topk.minimal_append_ms", "ms", "lower",
     ("self", "main", "core.topk.minimal_append")),
    ("core.topk.rows_scanned", "count", "lower",
     ("count", "main", "core.topk.rows_scanned")),
    ("core.iterative.index_build_ms", "ms", "lower",
     ("self", "main", "core.iterative.index_build")),
    ("core.iterative.build_table_ms", "ms", "lower",
     ("self", "main", "core.iterative.build_table")),
    ("core.iterative.candidates", "count", "lower",
     ("count", "main", "core.iterative.candidates")),
    ("core.intervention.compute_ms", "ms", "lower",
     ("self", "main", "core.intervention.compute")),
    ("core.intervention.calls", "count", "lower",
     ("count", "main", "core.intervention.calls")),
    ("core.intervention.iterations", "count", "lower",
     ("count", "main", "core.intervention.iterations")),
    ("core.intervention.delta_rows", "count", "lower",
     ("count", "main", "core.intervention.delta_rows")),
    ("engine.reduction.reduce_ms", "ms", "lower",
     ("self", "main", "engine.reduction.reduce")),
    ("engine.reduction.calls", "count", "lower",
     ("count", "main", "engine.reduction.calls")),
    ("core.additivity.analyze_ms", "ms", "lower",
     ("self", "main", "core.additivity.analyze")),
    ("engine.closure.build_ms", "ms", "lower",
     ("self", "closure", "engine.closure.build")),
    ("core.iterative.build_table_closure_ms", "ms", "lower",
     ("dur", "closure", "core.iterative.build_table")),
    ("cli.interpreter_ms", "ms", "lower", ("value",)),
    ("cli.import_ms", "ms", "lower", ("value",)),
    ("incremental.session.refresh_ms", "ms", "lower",
     ("self", "main", "incremental.session.refresh")),
    ("incremental.session.patched_share", "share", "higher", ("value",)),
    ("incremental.session.fallbacks", "count", "lower",
     ("count", "main", "incremental.session.fallbacks")),
    ("incremental.session.live_sessions", "count", "lower", ("value",)),
    ("engine.relation.write_ms", "ms", "lower",
     ("self", "main", "engine.relation.write")),
    ("engine.database.fingerprint_after_write_ms", "ms", "lower",
     ("self", "main", "engine.database.fingerprint")),
    ("backends.sqlite.build_ms", "ms", "lower", ("dur", "sqlite", "request")),
    ("python.gc.pause_ms", "ms", "lower", ("count", "main", "python.gc.pause_ms")),
    ("python.gc.full_collections", "count", "lower",
     ("count", "main", "python.gc.full_collections")),
    ("trace.unattributed_share", "share", "lower", ("value",)),
    ("trace.overhead_share", "share", "lower", ("value",)),
)


def layer_metrics(
    tracer: Tracer, units: Dict[str, int], values: Dict[str, float]
) -> Dict[str, float]:
    """Every per-layer metric of one traced run.

    *units* maps a request group to its number of units; *values*
    holds the metrics the runner computed itself.  A layer the
    workload never reaches reads 0: that is the measurement.
    """

    def per_unit(total: float, group: str) -> float:
        return total / units[group] if units.get(group) else 0.0

    metrics: Dict[str, float] = {}
    for name, _unit, _better, source in PER_LAYER:
        kind = source[0]
        if kind == "value":
            metrics[name] = float(values.get(name, 0.0))
            continue
        _, group, key = source
        groups = ("setup", "main") if group == "*" else (group,)
        if kind == "count":
            metrics[name] = sum(
                per_unit(tracer.counted(g, key), g) for g in groups
            )
        else:
            total = tracer.self_total if kind == "self" else tracer.duration_total
            metrics[name] = 1000.0 * sum(
                per_unit(total(g, key), g) for g in groups
            )
    return metrics
