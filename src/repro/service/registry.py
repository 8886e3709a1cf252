"""Named datasets the service can answer questions about.

A server process hosts a registry of datasets.  Each entry is either a
live :class:`~repro.engine.database.Database` (registered
programmatically, e.g. loaded from disk at startup) or a *loader* — a
callable building the database on first use, parameterized by the
request's ``params`` object (``rows``/``scale``/``seed`` for the
built-in synthetic generators).  Resolved instances are memoized per
parameter set, so the generation cost is paid once per server process.

Entries may carry a default question and attribute list; requests that
omit ``question``/``attributes`` fall back to those, which is what
makes ``curl``-sized requests possible against the demo datasets.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Optional, Sequence, Tuple

from ..core.question import UserQuestion
from ..datasets.catalog import BUNDLED
from ..engine.database import Database
from .errors import BadRequestError, NotFoundError

#: A loader returns (database, default_question, default_attributes).
DatasetLoader = Callable[
    ..., Tuple[Database, Optional[UserQuestion], Optional[Sequence[str]]]
]


@dataclass(frozen=True)
class ResolvedDataset:
    """One materialized dataset plus its request-facing defaults."""

    name: str
    params: Tuple[Tuple[str, object], ...]
    database: Database
    default_question: Optional[UserQuestion] = None
    default_attributes: Optional[Tuple[str, ...]] = None

    @property
    def fingerprint(self) -> str:
        """The database's content fingerprint (memoized by the db)."""
        return self.database.content_fingerprint()


class DatasetRegistry:
    """Thread-safe name → dataset resolution with per-params memoization."""

    def __init__(self, *, with_builtins: bool = True) -> None:
        self._lock = threading.RLock()
        self._loaders: Dict[str, DatasetLoader] = {}
        self._resolved: Dict[
            Tuple[str, Tuple[Tuple[str, object], ...]], ResolvedDataset
        ] = {}
        if with_builtins:
            self._loaders.update(BUNDLED)

    def names(self) -> Tuple[str, ...]:
        """All registered dataset names."""
        with self._lock:
            return tuple(sorted(self._loaders))

    def register_loader(self, name: str, loader: DatasetLoader) -> None:
        """Register (or replace) a lazy dataset loader under *name*."""
        with self._lock:
            self._loaders[name] = loader
            stale = [k for k in self._resolved if k[0] == name]
            for k in stale:
                del self._resolved[k]

    def register_database(
        self,
        name: str,
        database: Database,
        *,
        question: Optional[UserQuestion] = None,
        attributes: Optional[Sequence[str]] = None,
    ) -> None:
        """Register a live database instance under *name*.

        The instance is shared across requests (requests must treat it
        as read-only); *question*/*attributes* become the defaults for
        requests that omit them.
        """

        def loader():
            return database, question, attributes

        self.register_loader(name, loader)

    def resolve(
        self, name: str, params: Optional[Mapping[str, object]] = None
    ) -> ResolvedDataset:
        """Materialize dataset *name* with *params*, memoized."""
        with self._lock:
            loader = self._loaders.get(name)
        if loader is None:
            raise NotFoundError(
                f"unknown dataset {name!r}; registered: {list(self.names())}",
                kind="unknown_dataset",
            )
        try:
            key_params = tuple(sorted((params or {}).items()))
        except TypeError:
            raise BadRequestError(
                "dataset params must be a JSON object of scalars"
            ) from None
        cache_key = (name, key_params)
        with self._lock:
            hit = self._resolved.get(cache_key)
            if hit is not None:
                return hit
        try:
            db, question, attributes = loader(**dict(key_params))
        except TypeError as exc:
            raise BadRequestError(
                f"bad params for dataset {name!r}: {exc}",
                kind="bad_dataset_params",
            ) from None
        resolved = ResolvedDataset(
            name=name,
            params=key_params,
            database=db,
            default_question=question,
            default_attributes=tuple(attributes) if attributes else None,
        )
        with self._lock:
            # A racing resolver may have beaten us; keep the first one so
            # every request shares a single database instance.
            existing = self._resolved.get(cache_key)
            if existing is not None:
                return existing
            self._resolved[cache_key] = resolved
        return resolved
