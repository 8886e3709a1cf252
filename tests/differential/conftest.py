"""Fixture matrix for the differential suite.

One session-scoped cache hands out ``(database, question, attributes)``
workloads and finalized explanation tables keyed by
``(dataset, method, backend)``, so every pairwise comparison in
``test_matrix.py`` reuses the same build instead of recomputing it —
the whole matrix costs one table build per distinct configuration.

Datasets are deliberately small instances of every bundled generator:
the differential claims being checked (byte-identical fingerprints,
identical rankings) are size-independent, and the matrix multiplies
fast.
"""

import functools

import pytest

from repro.backends import available_backends
from repro.core.explainer import Explainer
from repro.core.numquery import AggregateQuery, single_query
from repro.core.parsing import parse_question
from repro.core.question import UserQuestion
from repro.datasets import dblp, geodblp, natality, tpch
from repro.datasets import running_example as rex
from repro.engine.aggregates import count_distinct
from repro.engine.expressions import Col, Comparison, Const

#: Every bundled dataset, small enough for the full matrix.
DATASETS = (
    "running-example",
    "natality-small",
    "dblp-small",
    "geodblp-small",
    "tpch-small",
)

#: The execution-knob differentials (backend, auto resolution)
#: additionally sweep the six other TPC-H questions and natality's
#: Q_Marital.  The method and strategy differentials stay on
#: DATASETS: ``brand-revenue`` is the sum question whose zero-support
#: cells read NULL under program P (the indexed and exact methods, which
#: evaluate every aggregate kind) but 0 under the cube's subtraction
#: (docs/datasets.md), so it stays out of the cube-vs-indexed *method*
#: comparison — cube-vs-cube across execution knobs is not affected
#: by it.
EXECUTION_DATASETS = DATASETS + (
    "tpch-europe-bump",
    "tpch-region-share",
    "tpch-returned-share",
    "tpch-urgent-air",
    "tpch-brand-revenue",
    "tpch-france-surge",
    "natality-marital",
)

#: A question mixing an exact-cube aggregate (a count(*)) with a
#: needs-iterative one (a count(distinct) the footnote-11 condition
#: rejects): the method differential compares indexed with exact on it.
MIXED_DATASET = "tpch-mixed"

#: SQL backends the matrix attempts; missing drivers skip, not fail.
SQL_BACKENDS = ("sqlite", "duckdb")


@functools.lru_cache(maxsize=None)
def _instance(family):
    """The canonical small instance every workload of *family* shares
    (the golden-ranking seeds; workloads only read it)."""
    if family == "tpch":
        return tpch.generate(sf=0.01, seed=2014)
    return natality.generate(rows=400, seed=7)


def _build_workload(name):
    if name == "running-example":
        question = UserQuestion.high(
            single_query(
                AggregateQuery(
                    "q",
                    count_distinct("Publication.pubid", "q"),
                    Comparison(
                        "=", Col("Publication.venue"), Const("SIGMOD")
                    ),
                )
            )
        )
        return rex.database(), question, ("Author.name", "Publication.year")
    if name == "natality-small":
        return (
            _instance("natality"),
            natality.q_race_question(),
            tuple(natality.default_attributes("race")),
        )
    if name == "natality-marital":
        return (
            _instance("natality"),
            natality.q_marital_question(),
            tuple(natality.default_attributes("marital")),
        )
    if name == "dblp-small":
        return (
            dblp.generate(scale=0.1, seed=2014),
            dblp.bump_question(),
            tuple(dblp.default_attributes()),
        )
    if name == "geodblp-small":
        return (
            geodblp.generate(scale=0.1, seed=2014),
            geodblp.uk_question(),
            tuple(geodblp.default_attributes()),
        )
    if name == "tpch-small":
        # promo-share joins 6 relations through the partsupp diamond
        # (Lineitem-Orders-Customer-Nation and Lineitem-Partsupp-Part)
        # and is clean under exact-vs-cube candidate comparison; see
        # the sum-boundary note in docs/datasets.md for why the sum
        # question is not used here.
        return (
            _instance("tpch"),
            tpch.question("promo-share"),
            tpch.question_attributes("promo-share"),
        )
    if name == MIXED_DATASET:
        return (
            _instance("tpch"),
            parse_question(
                "high",
                "(q1 + 1) / (q2 + 1)",
                [
                    "q1 := count(*) WHERE Lineitem.shipmode = 'AIR'",
                    "q2 := count(distinct Orders.custkey)",
                ],
            ),
            ("Lineitem.shipmode", "Orders.priority"),
        )
    if name.startswith("tpch-"):
        question = name[len("tpch-"):]
        return (
            _instance("tpch"),
            tpch.question(question),
            tpch.question_attributes(question),
        )
    raise ValueError(f"unknown differential dataset {name!r}")


def require_backend(backend):
    """Skip (never fail) configurations whose driver is not installed."""
    if backend not in available_backends():
        pytest.skip(f"backend {backend!r} not available in this environment")


@pytest.fixture(scope="session")
def workloads():
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = _build_workload(name)
        return cache[name]

    return get


@pytest.fixture(scope="session")
def tables(workloads):
    cache = {}

    def get(dataset, method="cube", backend="memory"):
        key = (dataset, method, backend)
        if key not in cache:
            db, question, attributes = workloads(dataset)
            explainer = Explainer(
                db, question, list(attributes), backend=backend
            )
            kwargs = {}
            if method == "cube" and dataset == "dblp-small":
                # The bump question is no longer certified additive
                # (footnote-11 WHERE/FD condition); the matrix still
                # compares its cube as the Section 6 approximation.
                kwargs["check_additivity"] = False
            cache[key] = explainer.explanation_table(method, **kwargs)
        return cache[key]

    return get
