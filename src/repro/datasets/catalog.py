"""The bundled-dataset catalog: one loader per ready-to-ask workload.

:data:`BUNDLED` is what ``repro demo``/``ask``/``report``/… offer as
datasets and what the service registry registers as built-ins.  Each
loader takes its generator's size and seed (the service passes a
request's ``params`` object straight through) and returns
``(database, question, attributes)`` — the instance plus the paper
question asked of it by default.
"""

from __future__ import annotations

from typing import Callable, Dict, Sequence, Tuple

from ..core.numquery import AggregateQuery, single_query
from ..core.question import UserQuestion
from ..engine.aggregates import count_distinct
from ..engine.database import Database
from ..engine.expressions import Col, Comparison, Const
from . import dblp, geodblp, natality, running_example, tpch

__all__ = ["BUNDLED", "Workload"]

Workload = Tuple[Database, UserQuestion, Sequence[str]]


def _running_example() -> Workload:
    q = single_query(
        AggregateQuery(
            "q",
            count_distinct("Publication.pubid", "q"),
            Comparison("=", Col("Publication.venue"), Const("SIGMOD")),
        )
    )
    return (
        running_example.database(),
        UserQuestion.high(q),
        ["Author.name", "Publication.year"],
    )


def _natality(rows: int = 20_000, seed: int = 2014) -> Workload:
    db = natality.generate(rows=rows, seed=seed)
    return db, natality.q_race_question(), natality.default_attributes("race")


def _dblp(scale: float = 1.0, seed: int = 2014) -> Workload:
    db = dblp.generate(scale=scale, seed=seed)
    return db, dblp.bump_question(), dblp.default_attributes()


def _geodblp(scale: float = 1.0, seed: int = 2014) -> Workload:
    db = geodblp.generate(scale=scale, seed=seed)
    return db, geodblp.uk_question(), geodblp.default_attributes()


def _tpch(sf: float = 0.01, seed: int = 2014) -> Workload:
    db = tpch.generate(sf=sf, seed=seed)
    return db, tpch.default_question(), tpch.default_attributes()


BUNDLED: Dict[str, Callable[..., Workload]] = {
    "running-example": _running_example,
    "natality": _natality,
    "dblp": _dblp,
    "geodblp": _geodblp,
    "tpch": _tpch,
}
