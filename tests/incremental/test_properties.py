"""Property tests: random mutation batches never change the answer.

For arbitrary interleaved insert/delete batches against the natality
``Birth`` relation, the incrementally patched explanation table must be
content-identical (same ``content_fingerprint()``) to a cold rebuild on
the mutated instance.  This is the end-to-end exactness property the
conservation checks and the sequential delta rule exist to guarantee.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.explainer import Explainer
from repro.datasets import natality
from repro.incremental import IncrementalSession

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
