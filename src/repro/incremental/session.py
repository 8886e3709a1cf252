"""The :class:`IncrementalSession`: patched-table lifecycle management.

A session owns, for one explanation plan (database, question,
attributes, method), the triple of

* a :class:`~repro.incremental.log.MutationLog` recording writes,
* a :class:`~repro.incremental.delta.DeltaCubeBuilder` holding the
  plan's retractable cube states (when the plan is patchable), and
* the current :class:`~repro.core.cube_algorithm.ExplanationTable`.

:meth:`IncrementalSession.refresh` brings the table up to date with
the database: on the additive path it folds the net delta into the
cube states and re-emits (cost proportional to the delta, not the
data); on any non-additive plan or exactness violation it **falls
back to a full recompute** — a :class:`RuntimeWarning` plus a
``repro_incremental_fallbacks_total{reason}`` counter increment, never
a wrong table.  Successful patches increment
``repro_incremental_patches_total``.

Patchability is gated by the static additivity verdicts
(:mod:`repro.analysis`): every aggregate must hold an *exact-cube*
verdict.  Those are the retractable kinds (COUNT(*), COUNT,
COUNT(DISTINCT), SUM).  Plans containing
``count(distinct ...)`` have data-dependent verdicts (footnote 11 of
the paper), so they are re-certified against the mutated instance on
every refresh; a verdict flip falls back with reason
``verdict-changed``.

Verification: conservation checks run on every patch (see
:mod:`repro.incremental.delta`); the test suite holds every patched
table equal to a cold rebuild.
"""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Any, Dict, Optional, Sequence

from ..engine.database import Database
from ..obs import get_registry
from ..obs.metrics import MetricsRegistry
from ..errors import IncrementalError
from .delta import DeltaCubeBuilder
from .log import MutationLog

if TYPE_CHECKING:  # pragma: no cover - typing only (core sits above us)
    from ..core.cube_algorithm import ExplanationTable
    from ..core.explainer import Explainer
    from ..core.question import UserQuestion

__all__ = ["RefreshStats", "IncrementalSession"]

#: Fallback reason labels (the ``reason`` label values of
#: ``repro_incremental_fallbacks_total``).
REASON_NEEDS_ITERATIVE = "needs-iterative"
REASON_METHOD = "method"
REASON_VERDICT_CHANGED = "verdict-changed"
REASON_CONSERVATION = "conservation"


@dataclass
class RefreshStats:
    """What one :meth:`IncrementalSession.refresh` call did.

    ``strategy`` is ``"patched"`` (delta applied to the cube states),
    ``"rebuilt"`` (full recompute: the fallback path, with ``reason``
    set), ``"initial"`` (first build), or ``"noop"`` (nothing
    pending).
    """

    strategy: str
    reason: Optional[str] = None
    batches: int = 0
    rows_inserted: int = 0
    rows_deleted: int = 0
    relations: int = 0
    delta_rows_added: int = 0
    delta_rows_removed: int = 0
    groups_touched: int = 0
    base_fingerprint: str = ""
    fingerprint: str = ""

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-ready rendering (service payloads, CLI output)."""
        return asdict(self)


class IncrementalSession:
    """Keeps one explanation table in sync with a mutating database.

    Not thread-safe on its own; concurrent writers must serialize
    refreshes externally (the service layer holds a per-dataset lock).
    Call :meth:`close` — or use the session as a context manager — so
    the mutation log detaches its relation subscriptions.
    """

    def __init__(
        self,
        database: Database,
        question: "UserQuestion",
        attributes: Sequence[str],
        *,
        method: str = "auto",
        support_threshold: Optional[float] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.database = database
        self.question = question
        self.attributes = tuple(attributes)
        self.method = method
        self.support_threshold = support_threshold
        self._metrics = metrics if metrics is not None else get_registry()
        self.log = MutationLog(database)
        self._builder: Optional[DeltaCubeBuilder] = None
        self._static_reason: Optional[str] = None
        self._table: Optional["ExplanationTable"] = None
        self._has_count_distinct = any(
            q.aggregate.kind == "count_distinct"
            for q in question.query.aggregates
        )
        self.patches = 0
        self.fallbacks = 0
        self.last_stats: Optional[RefreshStats] = None
        try:
            self._initialize()
        except BaseException:
            # No session object reaches the caller, so nothing else
            # could ever detach the log from the database's relations.
            self.log.detach()
            raise

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        """Detach the mutation log (idempotent)."""
        self.log.detach()

    def __enter__(self) -> "IncrementalSession":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- construction helpers --------------------------------------------

    def _make_explainer(self) -> "Explainer":
        # Upward import: core sits above incremental in the layering.
        from ..core.explainer import Explainer

        return Explainer(
            self.database,
            self.question,
            self.attributes,
            support_threshold=self.support_threshold,
        )

    def _initialize(self) -> None:
        explainer = self._make_explainer()
        resolved = explainer.resolve_method(self.method)
        if resolved != "cube":
            self._static_reason = (
                REASON_METHOD
                if self.method not in ("cube", "auto")
                else REASON_NEEDS_ITERATIVE
            )
        elif not explainer.certificate().additivity.all_exact_cube:
            self._static_reason = REASON_NEEDS_ITERATIVE
        if self._static_reason is None:
            self._builder = DeltaCubeBuilder(
                self.database,
                self.question,
                self.attributes,
                support_threshold=self.support_threshold,
                universal=explainer.universal,
            )
            self._table = self._builder.table()
        else:
            self._table = explainer.explanation_table(self.method)
        self.last_stats = RefreshStats(
            strategy="initial",
            base_fingerprint=self.log.base_fingerprint,
            fingerprint=self.log.base_fingerprint,
        )

    # -- properties ------------------------------------------------------

    @property
    def patchable(self) -> bool:
        """True while the plan has live retractable cube states."""
        return self._builder is not None

    @property
    def pending(self) -> int:
        """Mutation batches recorded since the last refresh."""
        return len(self.log)

    # -- the main entry points -------------------------------------------

    def table(self) -> "ExplanationTable":
        """The up-to-date explanation table (refreshing if needed)."""
        if not self.log.is_empty:
            self.refresh()
        assert self._table is not None
        return self._table

    def refresh(self) -> RefreshStats:
        """Bring the table up to date with the database.

        Returns the stats of what happened; also stored as
        :attr:`last_stats`.
        """
        stats = RefreshStats(
            strategy="noop",
            batches=len(self.log),
            rows_inserted=self.log.rows_inserted(),
            rows_deleted=self.log.rows_deleted(),
            base_fingerprint=self.log.base_fingerprint,
        )
        if self.log.is_empty:
            stats.fingerprint = self.log.base_fingerprint
            self.last_stats = stats
            return stats
        if self._builder is None:
            return self._fallback(
                self._static_reason or REASON_METHOD, stats
            )
        if self._has_count_distinct and not self._recertify():
            return self._fallback(REASON_VERDICT_CHANGED, stats)
        net = self.log.net_delta()
        try:
            applied = self._builder.apply(net)
            table = self._builder.table()
        except IncrementalError as exc:
            return self._fallback(exc.reason, stats)
        stats.relations = applied.relations
        stats.delta_rows_added = applied.delta_rows_added
        stats.delta_rows_removed = applied.delta_rows_removed
        stats.groups_touched = applied.groups_touched
        stats.strategy = "patched"
        self._table = table
        self.patches += 1
        self._metrics.counter(
            "repro_incremental_patches_total",
            help="Explanation tables patched in place from a mutation delta.",
        ).inc()
        stats.fingerprint = self.log.checkpoint()
        self.last_stats = stats
        return stats

    def _recertify(self) -> bool:
        """Re-run the data-dependent additivity check (footnote 11).

        Only called for plans containing ``count(distinct ...)`` —
        their exact-cube verdicts depend on the instance, so a
        mutation can flip them.
        """
        # Upward import: analysis sits above incremental in the layering.
        from ..analysis.additivity import certify_additivity
        from ..engine.universal import universal_table

        certificate = certify_additivity(
            self.database.schema,
            self.question.query,
            universal=universal_table(self.database),
        )
        return certificate.all_exact_cube

    def _fallback(
        self,
        reason: str,
        stats: RefreshStats,
    ) -> RefreshStats:
        """Full recompute with a warning and a labelled counter bump."""
        self._metrics.counter(
            "repro_incremental_fallbacks_total",
            labels={"reason": reason},
            help="Incremental refreshes that fell back to a full recompute.",
        ).inc()
        warnings.warn(
            f"incremental refresh fell back to full recompute "
            f"(reason: {reason})",
            RuntimeWarning,
            stacklevel=3,
        )
        explainer = self._make_explainer()
        self._table = explainer.explanation_table(self.method)
        if self._builder is not None:
            # Re-arm patching from the fresh state.
            self._builder.reset(universal=explainer.universal)
        self.fallbacks += 1
        stats.strategy = "rebuilt"
        stats.reason = reason
        stats.fingerprint = self.log.checkpoint()
        self.last_stats = stats
        return stats
