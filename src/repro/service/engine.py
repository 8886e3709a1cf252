"""The explanation service: cache + coalescing over the backend registry.

:class:`ExplanationService` is the transport-agnostic core of the
serving subsystem — the asyncio HTTP server is a thin shell around it,
and it can equally be embedded in a notebook or another process.  One
request flows through:

1. **resolve** — dataset name → materialized database (memoized),
   question/attributes (request or dataset defaults), backend (with
   graceful degradation to ``memory`` when unavailable);
2. **plan** — the :class:`~repro.core.explainer.ExplanationPlan`
   content fingerprint that addresses the result;
3. **cache** — a finalized table under that fingerprint skips cube
   construction entirely;
4. **coalesce** — concurrent identical misses trigger exactly one
   build (single-flight); everyone shares the result;
5. **rank** — the Section 4.3 top-K strategies scan the table.

Every count the ``/v1/stats`` endpoint reports is read back from the
per-service :class:`~repro.obs.MetricsRegistry` that ``/v1/metrics``
renders — one store, two views — so the "50 concurrent identical
requests → one computation" property is directly observable.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .._version import __version__
from ..backends import (
    available_backends,
    backend_names,
    get_backend_with_fallback,
)
from ..core.cube_algorithm import ExplanationTable
from ..core.explainer import (
    Explainer,
    ExplanationPlan,
    backend_key,
    question_key,
    resolve_method,
)
from ..core.parsing import parse_question
from ..core.question import UserQuestion
from ..core.topk import rank_table
from ..errors import ExplanationError, ReproError
from ..incremental import IncrementalSession
from ..obs import MetricsRegistry, get_registry, render_prometheus
from .cache import ExplanationTableCache
from .coalescer import SingleFlight
from .errors import BadRequestError, ServiceError
from .protocol import (
    MutateRequest,
    ServiceRequest,
    jsonable_value,
    ranking_payload,
)
from .registry import DatasetRegistry, ResolvedDataset

#: Valid refresh modes: ``"full"`` (mutations age cached tables out via
#: new fingerprints) or ``"incremental"`` (the service patches tables
#: in place and re-inserts them under the successor plan fingerprint).
REFRESH_MODES = ("full", "incremental")


def _kind_of(exc: BaseException) -> str:
    """``NotAdditiveError`` → ``"not_additive_error"`` etc."""
    name = type(exc).__name__
    out = []
    for i, ch in enumerate(name):
        if ch.isupper() and i > 0:
            out.append("_")
        out.append(ch.lower())
    return "".join(out)


def _timings_block(
    cache_status: str, **phases: float
) -> Dict[str, object]:
    """The opt-in per-response ``timings`` payload.

    Carries per-request execution state by design (see the protocol
    docstring): a cache hit legitimately reports a near-zero
    ``table_s``, so the cache status is included to interpret it.
    """
    block: Dict[str, object] = {
        name: round(seconds, 6) for name, seconds in phases.items()
    }
    block["total_s"] = round(sum(phases.values()), 6)
    block["cache"] = cache_status
    return block


@dataclass(frozen=True)
class PreparedRequest:
    """A fully resolved request, ready to build or hit the cache."""

    request: ServiceRequest
    dataset: ResolvedDataset
    question: UserQuestion
    attributes: Tuple[str, ...]
    method: str
    backend_impl: object
    backend_name: str
    fingerprint: str
    static_warnings: Tuple[str, ...] = ()
    #: The plan certificate, when static analysis already ran for this
    #: request (``method: "auto"`` resolution or ``/v1/analyze``).
    certificate: Optional[object] = None


@dataclass
class ServiceResult:
    """One computed answer plus its per-request serving metadata."""

    payload: Dict[str, object]
    cache_status: str  # "hit" | "miss" | "coalesced" | "none" (uncached)
    warnings: Tuple[str, ...] = ()


@dataclass
class _TrackedSession:
    """One live incremental session plus the plan template it serves.

    The template re-derives the successor plan fingerprint after each
    mutation (only ``database_fingerprint`` changes), so patched tables
    land in the cache exactly where the next request will look.

    A session lives only as long as the cache holds its table
    (``cached_key``) and the registry still serves the database it was
    built over; the service closes and drops it otherwise, so live
    sessions are bounded by the cache and never outlive their dataset.
    """

    session: IncrementalSession
    dataset_key: Tuple[str, Tuple[Tuple[str, object], ...]]
    question: str  # canonical question_key text
    attributes: Tuple[str, ...]
    method: str
    support_threshold: Optional[float]
    #: Cache key the session's current table was last stored under.
    cached_key: str = ""
    lock: threading.Lock = field(default_factory=threading.Lock)

    def plan_fingerprint(self, database_fingerprint: str) -> str:
        return ExplanationPlan(
            database_fingerprint=database_fingerprint,
            question=self.question,
            attributes=self.attributes,
            method=self.method,
            backend="memory",
            support_threshold=self.support_threshold,
        ).fingerprint


class ExplanationService:
    """Compute-once-serve-many explanations over registered datasets."""

    def __init__(
        self,
        *,
        registry: Optional[DatasetRegistry] = None,
        cache: Optional[ExplanationTableCache] = None,
        max_cache_entries: int = 256,
        max_cache_bytes: int = 256 * 1024 * 1024,
        metrics: Optional[MetricsRegistry] = None,
        refresh: str = "full",
    ) -> None:
        self.registry = registry if registry is not None else DatasetRegistry()
        #: How cached tables follow database mutations.  Under
        #: ``"incremental"`` the service keeps an
        #: :class:`~repro.incremental.IncrementalSession` per built
        #: cube plan and ``mutate()`` patches tables in place.
        if refresh not in REFRESH_MODES:
            raise ValueError(
                f"refresh must be one of {REFRESH_MODES}, got {refresh!r}"
            )
        self.refresh = refresh
        # Per-instance registry: one service per test gets clean counts;
        # the process-wide default registry (phase histograms) is merged
        # in at render time by metrics_text().
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.cache = (
            cache
            if cache is not None
            else ExplanationTableCache(
                max_entries=max_cache_entries,
                max_bytes=max_cache_bytes,
                metrics=self.metrics,
            )
        )
        self.flights = SingleFlight(metrics=self.metrics)
        # Incremental sessions keyed by plan template (dataset, question,
        # attributes, method, support); _mutate_lock serializes writes so
        # one refresh sees one consistent net delta.
        self._sessions: Dict[tuple, _TrackedSession] = {}
        self._sessions_lock = threading.Lock()
        self._mutate_lock = threading.Lock()

    def _count_compute(self, kind: str) -> None:
        self.metrics.counter(
            "repro_compute_total",
            labels={"kind": kind},
            help="Service compute events by kind.",
        ).inc()

    def _count_mutate(self, kind: str, n: int) -> None:
        self.metrics.counter(
            "repro_mutate_total",
            labels={"kind": kind},
            help="Service mutate events by kind.",
        ).inc(n)

    # -- resolution ---------------------------------------------------------

    def prepare(self, request: ServiceRequest) -> PreparedRequest:
        """Resolve names to objects and fix the plan fingerprint."""
        dataset = self.registry.resolve(request.dataset, dict(request.params))
        if request.question is not None:
            try:
                question = parse_question(
                    request.question.direction,
                    request.question.expression,
                    request.question.aggregates,
                )
            except ReproError as exc:
                raise BadRequestError(
                    f"bad question: {exc}", kind=_kind_of(exc)
                ) from exc
        elif dataset.default_question is not None:
            question = dataset.default_question
        else:
            raise BadRequestError(
                f"dataset {dataset.name!r} has no default question; "
                "supply a 'question' object"
            )
        attributes = request.attributes or dataset.default_attributes
        if not attributes:
            raise BadRequestError(
                f"dataset {dataset.name!r} has no default attributes; "
                "supply an 'attributes' list"
            )
        certificate = None

        def recommended() -> str:
            nonlocal certificate
            certificate = self._certificate_for(dataset, question, attributes)
            return certificate.recommended_method

        try:
            method = resolve_method(
                request.method, request.backend, recommended
            )
        except ExplanationError as exc:
            raise BadRequestError(str(exc)) from exc
        try:
            backend_impl, warning = get_backend_with_fallback(request.backend)
        except ExplanationError as exc:
            raise BadRequestError(str(exc), kind="unknown_backend") from exc
        backend_name = backend_key(backend_impl)
        if warning:
            self._count_compute("fallbacks")
        plan = ExplanationPlan(
            database_fingerprint=dataset.fingerprint,
            question=question_key(question),
            attributes=tuple(attributes),
            method=method,
            backend=backend_name,
            support_threshold=request.support_threshold,
        )
        return PreparedRequest(
            request=request,
            dataset=dataset,
            question=question,
            attributes=tuple(attributes),
            method=method,
            backend_impl=backend_impl,
            backend_name=backend_name,
            fingerprint=plan.fingerprint,
            static_warnings=(warning,) if warning else (),
            certificate=certificate,
        )

    def _certificate_for(self, dataset, question, attributes):
        """Run the static analyzer for one resolved request (data-aware)."""
        from ..analysis import analyze_plan

        self._count_compute("analyses")
        return analyze_plan(
            dataset.database.schema,
            question,
            attributes,
            database=dataset.database,
        )

    # -- table construction --------------------------------------------------

    def _build_table(
        self, prepared: PreparedRequest, warnings_out: List[str]
    ) -> ExplanationTable:
        def build_with(backend: object) -> ExplanationTable:
            explainer = Explainer(
                prepared.dataset.database,
                prepared.question,
                prepared.attributes,
                support_threshold=prepared.request.support_threshold,
                backend=backend,
            )
            return explainer.explanation_table(prepared.method)

        try:
            return build_with(prepared.backend_impl)
        except Exception as exc:
            if isinstance(exc, ServiceError):
                raise
            if prepared.backend_name != "memory":
                # Graceful degradation: a DBMS-side failure must not take
                # the request down when the reference engine can answer.
                self._count_compute("fallbacks")
                warnings_out.append(
                    f"backend {prepared.backend_name!r} failed "
                    f"({type(exc).__name__}: {exc}); fell back to 'memory'"
                )
                try:
                    return build_with("memory")
                except ReproError as exc2:
                    raise BadRequestError(
                        str(exc2), kind=_kind_of(exc2)
                    ) from exc2
            if isinstance(exc, ReproError):
                raise BadRequestError(str(exc), kind=_kind_of(exc)) from exc
            raise

    def _session_key(self, prepared: PreparedRequest) -> tuple:
        return (
            prepared.dataset.name,
            tuple(sorted(dict(prepared.dataset.params).items())),
            question_key(prepared.question),
            prepared.attributes,
            prepared.method,
            prepared.request.support_threshold,
        )

    def _incremental_eligible(self, prepared: PreparedRequest) -> bool:
        """Plans the mutate path keeps warm: in-memory cube builds.

        Other methods (naive/exact/indexed) stay on the cold path —
        after a mutation their fingerprints change and the next request
        rebuilds on a normal cache miss.
        """
        return (
            self.refresh == "incremental"
            and prepared.method == "cube"
            and prepared.backend_name == "memory"
        )

    def _session_valid(
        self, tracked: _TrackedSession, database: object
    ) -> bool:
        """Whether *tracked* may still serve reads/patches of *database*."""
        return (
            tracked.session.database is database
            and tracked.cached_key in self.cache
        )

    def _drop_session(self, key: tuple, tracked: _TrackedSession) -> None:
        with self._sessions_lock:
            if self._sessions.get(key) is tracked:
                del self._sessions[key]
        tracked.session.close()

    def _prune_sessions(self) -> None:
        """Drop every session whose table the cache has evicted.

        Run after each insertion on the incremental path: the cache is
        bounded, so the sessions (and their relation subscriptions) are
        too.  Timing never affects answers — tables are addressed by
        content — only which plans the next mutate keeps warm.
        """
        with self._sessions_lock:
            stale = [
                (key, tracked)
                for key, tracked in self._sessions.items()
                if tracked.cached_key not in self.cache
            ]
        for key, tracked in stale:
            self._drop_session(key, tracked)

    def _incremental_table(
        self, prepared: PreparedRequest, warnings_out: List[str]
    ) -> ExplanationTable:
        """The table from a new-or-existing incremental session, cached
        under the request's plan fingerprint."""
        key = self._session_key(prepared)
        database = prepared.dataset.database
        with self._sessions_lock:
            tracked = self._sessions.get(key)
        if tracked is not None and not self._session_valid(tracked, database):
            self._drop_session(key, tracked)
            tracked = None
        fresh = tracked is None
        if fresh:
            try:
                session = IncrementalSession(
                    database,
                    prepared.question,
                    prepared.attributes,
                    method=prepared.method,
                    support_threshold=prepared.request.support_threshold,
                    metrics=self.metrics,
                )
            except ReproError as exc:
                raise BadRequestError(str(exc), kind=_kind_of(exc)) from exc
            tracked = _TrackedSession(
                session=session,
                dataset_key=(
                    prepared.dataset.name,
                    tuple(sorted(dict(prepared.dataset.params).items())),
                ),
                question=question_key(prepared.question),
                attributes=prepared.attributes,
                method=prepared.method,
                support_threshold=prepared.request.support_threshold,
            )
        with tracked.lock:
            try:
                table = tracked.session.table()
            except ReproError as exc:
                raise BadRequestError(str(exc), kind=_kind_of(exc)) from exc
            stats = tracked.session.last_stats
            origin = (
                "patched" if stats and stats.strategy == "patched" else "built"
            )
            self.cache.put(prepared.fingerprint, table, origin=origin)
            tracked.cached_key = prepared.fingerprint
        if stats is not None and stats.strategy == "rebuilt":
            warnings_out.append(
                "incremental refresh fell back to full recompute "
                f"(reason: {stats.reason})"
            )
        if fresh:
            # Registered only now that its table is cached, so a
            # concurrent prune never sees a session without one.
            with self._sessions_lock:
                registered = self._sessions.setdefault(key, tracked)
            if registered is not tracked:
                tracked.session.close()  # lost a registration race
        self._prune_sessions()
        return table

    def table_for(
        self, request: ServiceRequest
    ) -> Tuple[PreparedRequest, ExplanationTable, str, Tuple[str, ...]]:
        """(prepared, table, cache_status, warnings) for one request."""
        prepared = self.prepare(request)
        key = prepared.fingerprint
        cached = self.cache.get(key)
        if cached is not None:
            return prepared, cached, "hit", prepared.static_warnings
        runtime_warnings: List[str] = []

        def compute() -> ExplanationTable:
            existing = self.cache.peek(key)
            if existing is not None:
                return existing
            if self._incremental_eligible(prepared):
                table = self._incremental_table(prepared, runtime_warnings)
            else:
                table = self._build_table(prepared, runtime_warnings)
                self.cache.put(key, table)
            self._count_compute("tables_built")
            return table

        table, leader = self.flights.do(key, compute)
        status = "miss" if leader else "coalesced"
        warnings = prepared.static_warnings + tuple(runtime_warnings)
        return prepared, table, status, warnings

    # -- endpoints ------------------------------------------------------------

    def topk(self, request: ServiceRequest) -> ServiceResult:
        """Ranked explanations for one request (the ``/v1/topk`` body)."""
        t0 = time.perf_counter()
        prepared, table, status, warnings = self.table_for(request)
        t1 = time.perf_counter()
        ranking = rank_table(
            table,
            k=request.k,
            by=request.by,
            strategy=request.strategy,
            minimality=request.minimality,
            hybrid_weight=request.hybrid_weight,
        )
        t2 = time.perf_counter()
        payload = self._base_payload(prepared, table)
        payload.update(
            {
                "k": request.k,
                "by": request.by,
                "strategy": request.strategy,
                "minimality": request.minimality,
                "ranking": ranking_payload(ranking),
            }
        )
        if request.include_timings:
            payload["timings"] = _timings_block(
                status, table_s=t1 - t0, rank_s=t2 - t1
            )
        return ServiceResult(payload, status, warnings)

    def explain(self, request: ServiceRequest) -> ServiceResult:
        """Table metadata plus top-K under both degrees (``/v1/explain``)."""
        t0 = time.perf_counter()
        prepared, table, status, warnings = self.table_for(request)
        t1 = time.perf_counter()
        top_i = rank_table(
            table, k=request.k, by="intervention", strategy=request.strategy
        )
        top_a = rank_table(
            table, k=request.k, by="aggravation", strategy=request.strategy
        )
        t2 = time.perf_counter()
        payload = self._base_payload(prepared, table)
        payload.update(
            {
                "k": request.k,
                "strategy": request.strategy,
                "q_original": {
                    name: jsonable_value(value)
                    for name, value in sorted(table.q_original.items())
                },
                "top_by_intervention": ranking_payload(top_i),
                "top_by_aggravation": ranking_payload(top_a),
            }
        )
        if request.include_timings:
            payload["timings"] = _timings_block(
                status, table_s=t1 - t0, rank_s=t2 - t1
            )
        return ServiceResult(payload, status, warnings)

    def analyze(self, request: ServiceRequest) -> ServiceResult:
        """The static plan certificate for one request (``/v1/analyze``).

        No table is built and nothing is cached: the analyzer reads
        only the schema, the query and (for footnote-11 resolution and
        the n − 1 fallback bound) instance statistics.
        """
        prepared = self.prepare(request)
        certificate = prepared.certificate
        if certificate is None:
            certificate = self._certificate_for(
                prepared.dataset, prepared.question, prepared.attributes
            )
        payload: Dict[str, object] = {
            "dataset": prepared.dataset.name,
            "params": dict(prepared.dataset.params),
            "fingerprint": prepared.fingerprint,
            "question": str(prepared.question.query),
            "direction": prepared.question.direction.value,
            "attributes": list(prepared.attributes),
            "method": prepared.method,
            "backend": prepared.backend_name,
            "certificate": certificate.to_dict(),
        }
        return ServiceResult(payload, "none", prepared.static_warnings)

    def mutate(self, request: MutateRequest) -> ServiceResult:
        """Apply insert/delete batches to a dataset (``/v1/mutate``).

        Deletes run before inserts within each mutation spec.  Under
        ``refresh="incremental"`` every live session for the dataset is
        refreshed immediately and its (patched or rebuilt) table is
        re-inserted under the successor plan fingerprint, so the next
        read is a cache hit; under ``"full"`` the mutation just changes
        the content fingerprint and stale entries age out via LRU.
        """
        dataset = self.registry.resolve(request.dataset, dict(request.params))
        database = dataset.database
        warnings_out: List[str] = []
        with self._mutate_lock:
            old_fingerprint = database.content_fingerprint()
            inserted = deleted = 0
            touched: List[str] = []
            for spec in request.mutations:
                try:
                    relation = database.relation(spec.relation)
                except ReproError as exc:
                    raise BadRequestError(
                        str(exc), kind=_kind_of(exc)
                    ) from exc
                for row in spec.insert + spec.delete:
                    if len(row) != relation.arity:
                        raise BadRequestError(
                            f"{spec.relation}: row arity {len(row)} != "
                            f"schema arity {relation.arity}"
                        )
                try:
                    deleted += relation.delete_many(spec.delete)
                    inserted += relation.insert_many(spec.insert)
                except ReproError as exc:
                    raise BadRequestError(
                        str(exc), kind=_kind_of(exc)
                    ) from exc
                touched.append(spec.relation)
            self._count_mutate("batches", len(request.mutations))
            self._count_mutate("rows_inserted", inserted)
            self._count_mutate("rows_deleted", deleted)
            new_fingerprint = database.content_fingerprint()
            patched = self._refresh_sessions(dataset, warnings_out)
        payload: Dict[str, object] = {
            "dataset": dataset.name,
            "params": dict(dataset.params),
            "fingerprint": new_fingerprint,
            "previous_fingerprint": old_fingerprint,
            "inserted": inserted,
            "deleted": deleted,
            "relations": touched,
            "refresh": self.refresh,
            "patched": patched,
        }
        return ServiceResult(payload, "none", tuple(warnings_out))

    def _refresh_sessions(
        self,
        dataset: ResolvedDataset,
        warnings_out: List[str],
    ) -> List[Dict[str, object]]:
        """Refresh every session serving *dataset*; re-cache the tables."""
        if self.refresh != "incremental":
            return []
        dataset_key = (
            dataset.name,
            tuple(sorted(dict(dataset.params).items())),
        )
        with self._sessions_lock:
            serving = [
                (key, tracked)
                for key, tracked in self._sessions.items()
                if tracked.dataset_key == dataset_key
            ]
        # Validity is decided for all of them up front: the re-caching
        # below may evict a later session's predecessor table.
        live = []
        for key, tracked in serving:
            if self._session_valid(tracked, dataset.database):
                live.append((key, tracked))
            else:
                self._drop_session(key, tracked)
        patched: List[Dict[str, object]] = []
        for key, tracked in live:
            entry: Dict[str, object] = {
                "question": tracked.question,
                "attributes": list(tracked.attributes),
                "method": tracked.method,
            }
            try:
                with tracked.lock:
                    stats = tracked.session.refresh()
                    table = tracked.session.table()
            except ReproError as exc:
                # The successor plan itself fails (e.g. a count_distinct
                # verdict flip made a cube plan non-additive).  The
                # mutation stands; the session is dropped and the next
                # request surfaces the error through the normal path.
                self._drop_session(key, tracked)
                entry["error"] = {"kind": _kind_of(exc), "message": str(exc)}
                warnings_out.append(
                    f"incremental refresh failed for plan "
                    f"{tracked.question!r}: {exc}"
                )
                patched.append(entry)
                continue
            origin = "patched" if stats.strategy == "patched" else "built"
            tracked.cached_key = tracked.plan_fingerprint(stats.fingerprint)
            self.cache.put(tracked.cached_key, table, origin=origin)
            self._count_mutate("refreshes", 1)
            if stats.strategy == "rebuilt":
                warnings_out.append(
                    "incremental refresh fell back to full recompute "
                    f"(reason: {stats.reason})"
                )
            entry.update(stats.to_dict())
            patched.append(entry)
        self._prune_sessions()
        return patched

    def _base_payload(
        self, prepared: PreparedRequest, table: ExplanationTable
    ) -> Dict[str, object]:
        original = prepared.question.query.evaluate_environment(
            table.q_original
        )
        return {
            "dataset": prepared.dataset.name,
            "params": dict(prepared.dataset.params),
            "fingerprint": prepared.fingerprint,
            "question": str(prepared.question.query),
            "direction": prepared.question.direction.value,
            "attributes": list(prepared.attributes),
            "method": prepared.method,
            "backend": prepared.backend_name,
            "warnings": list(prepared.static_warnings),
            "original_value": jsonable_value(original),
            "table_size": len(table),
        }

    # -- introspection ---------------------------------------------------------

    def _by_label(self, family: str, label: str) -> Dict[str, int]:
        """One registry family as ``{label value: count}``."""
        return {
            dict(key)[label]: int(value)
            for key, value in sorted(self.metrics.series(family).items())
        }

    def stats_payload(self) -> Dict[str, object]:
        """The ``/v1/stats`` body: a JSON view of the metrics registry.

        Every count is read back from the series ``/v1/metrics``
        renders, so the two endpoints can never disagree.
        """
        compute = {"tables_built": 0, "fallbacks": 0}
        compute.update(self._by_label("repro_compute_total", "kind"))
        compute["coalesced_waits"] = self._by_label(
            "repro_singleflight_total", "outcome"
        )["coalesced"]
        return {
            "requests": self._by_label("repro_requests_total", "kind"),
            "compute": compute,
            "cache": self.cache.stats().to_dict(),
            "incremental": self._incremental_stats(),
            "inflight": self.flights.inflight(),
        }

    def _incremental_stats(self) -> Dict[str, object]:
        """The ``incremental`` block of ``/v1/stats`` (the sessions
        increment ``repro_incremental_*`` counters in the registry)."""
        patches = self.metrics.series("repro_incremental_patches_total")
        with self._sessions_lock:
            sessions = len(self._sessions)
            patchable = sum(
                1 for t in self._sessions.values() if t.session.patchable
            )
        return {
            "mode": self.refresh,
            "sessions": sessions,
            "patchable_sessions": patchable,
            "patches": int(patches.get((), 0)),
            "fallbacks": self._by_label(
                "repro_incremental_fallbacks_total", "reason"
            ),
        }

    def metrics_text(self) -> str:
        """The ``/v1/metrics`` body: Prometheus text exposition.

        Concatenates this service's private registry (request, compute,
        cache, single-flight families) with the process-wide default
        registry (``repro_phase_seconds``,
        ``repro_program_p_iterations``); the namespaces are disjoint so
        no family repeats.
        """
        return render_prometheus(self.metrics, get_registry())

    def health_payload(self) -> Dict[str, object]:
        """The ``/v1/health`` body."""
        available = set(available_backends())
        return {
            "status": "ok",
            "version": __version__,
            "datasets": list(self.registry.names()),
            "backends": {
                name: name in available for name in backend_names()
            },
            "refresh": self.refresh,
        }
