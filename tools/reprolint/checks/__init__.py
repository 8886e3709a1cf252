"""Bundled RL checks.  Importing this package populates the registry."""

from __future__ import annotations

from . import (  # noqa: F401
    rl001_layering,
    rl002_stdlib,
    rl003_notify,
    rl004_cache,
    rl006_sql,
    rl007_metrics,
    rl008_codes,
    rl009_callers,
)
