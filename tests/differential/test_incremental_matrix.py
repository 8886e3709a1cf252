"""Differential matrix: incremental refresh vs cold rebuild.

For every bundled dataset workload, apply a small mutation batch and
require the :class:`~repro.incremental.IncrementalSession` table —
whether it *patched* (additive plans) or *rebuilt* (fallback) — to be
content-identical to a cold :class:`~repro.core.Explainer` build on the
mutated instance.  This is the incremental analogue of the rebuild-
determinism claim that underpins service cache keying: a session must
never serve a table a from-scratch computation would not produce.

``tests/service/test_mutate.py`` checks the same guarantee through
``/v1/explain`` + ``/v1/mutate`` on a ``refresh="incremental"``
service.
"""

import warnings

import pytest

from repro.core.explainer import Explainer
from repro.incremental import IncrementalSession

from conftest import DATASETS

pytestmark = pytest.mark.differential

#: The relation each workload mutates (always part of the join tree).
MUTATED = {
    "running-example": "Authored",
    "natality-small": "Birth",
    "dblp-small": "Authored",
    "geodblp-small": "Authored",
    "tpch-small": "Lineitem",
}


def _mutate(db, relation, batch=5):
    """Delete a few rows, re-insert some: a mixed non-trivial delta."""
    rel = db.relation(relation)
    victims = rel.row_list()[:batch]
    rel.delete_many(victims)
    rel.insert_many(victims[: batch // 2])


@pytest.mark.parametrize("dataset", DATASETS)
class TestIncrementalDifferential:
    def test_refresh_matches_cold_rebuild(self, dataset, workloads):
        db, question, attributes = workloads(dataset)
        db = db.copy()  # session fixtures are shared; mutate a clone
        with IncrementalSession(db, question, attributes, method="auto") as s:
            s.table()
            _mutate(db, MUTATED[dataset])
            with warnings.catch_warnings():
                # Fallback paths warn; the differential claim is about
                # the table contents, not the strategy taken.
                warnings.simplefilter("ignore", RuntimeWarning)
                stats = s.refresh()
            assert stats.strategy in ("patched", "rebuilt")
            cold = Explainer(db, question, list(attributes))
            assert (
                s.table().content_fingerprint()
                == cold.explanation_table("auto").content_fingerprint()
            ), f"{dataset}: {stats.strategy} table diverged from cold rebuild"
