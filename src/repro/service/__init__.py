"""Explanations-as-a-service: cache, coalescing, HTTP serving.

Algorithm 1's cost profile — expensive table-*M* construction, cheap
top-K scans — makes the explanation workload a natural fit for a
compute-once-serve-many deployment.  This package turns the batch
reproduction into that serving system, with stdlib-only dependencies:

* :mod:`~repro.service.cache` — a content-addressed LRU + byte-budget
  cache of finalized explanation tables, keyed by the
  :class:`~repro.core.explainer.ExplanationPlan` fingerprint (database
  content hash, question, attributes, method, backend);
* :mod:`~repro.service.coalescer` — single-flight deduplication of
  concurrent identical requests;
* :mod:`~repro.service.registry` — named datasets with per-parameter
  memoization and request defaults;
* :mod:`~repro.service.engine` — the transport-agnostic
  :class:`ExplanationService` tying the above to the execution-backend
  registry, with graceful degradation to the memory engine;
* :mod:`~repro.service.server` — the asyncio HTTP server
  (``/v1/explain``, ``/v1/topk``, ``/v1/health``, ``/v1/stats``) and
  the :class:`BackgroundServer` thread harness;
* :mod:`~repro.service.client` — a thin blocking client.

Start a server with ``python -m repro serve``; see ``docs/service.md``.
"""

from .cache import CacheStats, ExplanationTableCache, estimate_table_bytes
from .client import ServiceClient, ServiceResponse
from .coalescer import SingleFlight
from .engine import (
    REFRESH_MODES,
    ExplanationService,
    ServiceResult,
    rank_table,
)
from .errors import (
    BadRequestError,
    ClientError,
    NotFoundError,
    PayloadTooLargeError,
    RequestTimeoutError,
    ServiceError,
)
from .protocol import (
    MutateRequest,
    MutationSpec,
    QuestionSpec,
    ServiceRequest,
    ranking_payload,
)
from .registry import DatasetRegistry, ResolvedDataset
from .server import BackgroundServer, ExplanationServer

__all__ = [
    "BackgroundServer",
    "BadRequestError",
    "CacheStats",
    "ClientError",
    "DatasetRegistry",
    "ExplanationServer",
    "ExplanationService",
    "ExplanationTableCache",
    "MutateRequest",
    "MutationSpec",
    "NotFoundError",
    "PayloadTooLargeError",
    "QuestionSpec",
    "REFRESH_MODES",
    "RequestTimeoutError",
    "ResolvedDataset",
    "ServiceClient",
    "ServiceError",
    "ServiceRequest",
    "ServiceResponse",
    "ServiceResult",
    "SingleFlight",
    "estimate_table_bytes",
    "rank_table",
    "ranking_payload",
]
