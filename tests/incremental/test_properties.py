"""Property tests: random mutation batches never change the answer.

For arbitrary interleaved insert/delete batches — against the natality
``Birth`` relation, and against both relations of a two-relation FK
join for every retractable aggregate kind — the incrementally patched
explanation table must be content-identical (same
``content_fingerprint()``) to a cold rebuild on the mutated instance.  This is the end-to-end exactness property the
conservation checks and the sequential delta rule exist to guarantee.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.cube_algorithm import build_explanation_table
from repro.core.explainer import Explainer
from repro.core.numquery import AggregateQuery, single_query
from repro.core.question import UserQuestion
from repro.datasets import natality
from repro.engine.aggregates import AggregateSpec
from repro.engine.database import Database
from repro.engine.expressions import Col, Comparison, Const
from repro.engine.schema import DatabaseSchema, foreign_key, make_schema
from repro.engine.types import NULL
from repro.incremental import DeltaCubeBuilder, IncrementalSession, MutationLog

ROWS = 300
SEED = 7


@pytest.fixture(scope="module")
def base_rows():
    """A pool of natality rows to draw deletes and (re)inserts from."""
    db = natality.generate(rows=ROWS, seed=SEED)
    return db.relation("Birth").row_list()


def _fresh_workload():
    db = natality.generate(rows=ROWS, seed=SEED)
    return (
        db,
        natality.q_race_question(),
        tuple(natality.default_attributes("race")),
    )


@st.composite
def mutation_scripts(draw, pool_size):
    """A list of (delete_indexes, reinsert_indexes) batch pairs.

    Indexes address the original row pool; deleting an absent row or
    re-inserting a present one is a legal no-op, so scripts are
    unconstrained interleavings.
    """
    index = st.integers(min_value=0, max_value=pool_size - 1)
    batch = st.tuples(
        st.lists(index, max_size=8, unique=True),
        st.lists(index, max_size=8, unique=True),
    )
    return draw(st.lists(batch, min_size=1, max_size=4))


class TestRandomBatchesIdentical:
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_patched_equals_cold_rebuild(self, base_rows, data):
        script = data.draw(mutation_scripts(len(base_rows)))
        db, question, attributes = _fresh_workload()
        birth = db.relation("Birth")
        with IncrementalSession(
            db, question, attributes, method="cube"
        ) as session:
            session.table()
            for delete_idx, insert_idx in script:
                birth.delete_many([base_rows[i] for i in delete_idx])
                birth.insert_many([base_rows[i] for i in insert_idx])
                stats = session.refresh()
                assert stats.strategy in ("patched", "noop")
            patched = session.table()
        cold = Explainer(db, question, attributes).explanation_table("cube")
        assert (
            patched.content_fingerprint() == cold.content_fingerprint()
        ), f"patched table diverged after script {script!r}"


# -- every retractable aggregate kind over a two-relation FK instance -----

FK_SCHEMA = DatabaseSchema(
    (
        make_schema("T", ["id", "g", "h", "x", "y", "fk"], ["id"]),
        make_schema("S", ["id", "s"], ["id"]),
    ),
    (foreign_key("T", "fk", "S", "id"),),
)
FK_ATTRIBUTES = ("T.g", "S.s")

#: count(*), count(T.x) and sum(T.x) over NULL-bearing integers, and
#: count(distinct T.y) over values that repeat within a group.
RETRACTABLE_SPECS = (
    AggregateSpec("count_star", None, "q"),
    AggregateSpec("count", "T.x", "q"),
    AggregateSpec("count_distinct", "T.y", "q"),
    AggregateSpec("sum", "T.x", "q"),
)


@st.composite
def fk_pools(draw):
    """Candidate rows of T and S, keyed by id, so any subset is legal."""
    s_rows = [
        (i, draw(st.sampled_from(["p", "q"]))) for i in range(3)
    ]
    t_rows = [
        (
            i,
            draw(st.sampled_from(["a", "b"])),
            draw(st.sampled_from(["u", "v"])),
            draw(st.one_of(st.just(NULL), st.integers(-3, 3))),
            draw(st.integers(1, 3)),
            draw(st.integers(0, 2)),
        )
        for i in range(8)
    ]
    return t_rows, s_rows


def _subset(draw, rows):
    return [r for r in rows if draw(st.booleans())]


class TestEveryRetractableKind:
    """Mixed delete/insert batches on both relations of an FK join:
    the builder's patched table equals a cold cube build."""

    @pytest.mark.parametrize(
        "spec", RETRACTABLE_SPECS, ids=[s.kind for s in RETRACTABLE_SPECS]
    )
    @pytest.mark.parametrize("where", [False, True], ids=["all", "where"])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_patched_equals_cold(self, spec, where, data):
        t_rows, s_rows = data.draw(fk_pools())
        db = Database(
            FK_SCHEMA,
            {"T": _subset(data.draw, t_rows), "S": _subset(data.draw, s_rows)},
        )
        condition = Comparison("=", Col("T.h"), Const("u")) if where else None
        question = UserQuestion.high(
            single_query(AggregateQuery("q", spec, condition))
        )
        builder = DeltaCubeBuilder(db, question, FK_ATTRIBUTES)
        with MutationLog(db) as log:
            for _ in range(data.draw(st.integers(1, 3))):
                for name, pool in (("T", t_rows), ("S", s_rows)):
                    relation = db.relation(name)
                    relation.delete_many(_subset(data.draw, pool))
                    relation.insert_many(_subset(data.draw, pool))
                builder.apply(log.net_delta())
                log.checkpoint()
                cold = build_explanation_table(
                    db, question, FK_ATTRIBUTES, check_additivity=False
                )
                assert (
                    builder.table().content_fingerprint()
                    == cold.content_fingerprint()
                )
