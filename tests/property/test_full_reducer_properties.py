"""The full-reducer theorem with NULL join keys (hypothesis).

On an acyclic schema the Yannakakis full reducer keeps exactly the
tuples that take part in the universal relation:
``reduce_row_sets(D)[R] == Π_R(U(D))`` for every relation R.  That only
holds when both sides read a NULL key the same way.  ``U(D)``'s hash
joins follow SQL, where a NULL key joins nothing, so the reducer must
not let a NULL key match a NULL key either.

The instances are the bundled acyclic schemas (the running example in
both foreign-key flavours, DBLP, Geo-DBLP and both Example 3.7 chain
shapes) with some foreign-key values set to NULL and, per foreign key,
possibly one target row whose key is NULL.
"""

import functools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import chains, dblp, geodblp
from repro.datasets import running_example as rex
from repro.engine.database import Database
from repro.engine.reduction import DeltaReducer, reduce_row_sets, semijoin_reduce
from repro.engine.types import NULL
from repro.engine.universal import universal_table
from repro.errors import IntegrityError

from support.intervention import project_universal
from test_semi_naive_properties import null_key_databases


@functools.lru_cache(maxsize=None)
def _base(name):
    if name == "running-example":
        return rex.database()
    if name == "running-example-standard":
        return rex.database(back_and_forth=False)
    if name == "dblp":
        return dblp.generate(scale=0.02, seed=2014)
    if name == "geodblp":
        return geodblp.generate(scale=0.02, seed=2014)
    if name == "chain-two-keys":
        return chains.example_37_database(3)
    return chains.single_back_and_forth_chain(3)[0]


def _nulled(row, positions):
    return tuple(NULL if i in positions else v for i, v in enumerate(row))


@st.composite
def null_key_instances(draw):
    """A bundled acyclic instance with NULLs put into join keys."""
    base = _base(
        draw(
            st.sampled_from(
                [
                    "running-example",
                    "running-example-standard",
                    "dblp",
                    "geodblp",
                    "chain-two-keys",
                    "chain-one-key",
                ]
            )
        )
    )
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    share = draw(st.sampled_from([0.1, 0.3, 0.6]))
    schema = base.schema
    rows = {name: base.relation(name).sorted_rows() for name in schema.relation_names}
    for fk in schema.foreign_keys:
        source = schema.relation(fk.source)
        pos = set(source.indexes_of(fk.source_attrs))
        rows[fk.source] = [
            _nulled(row, pos) if rng.random() < share else row
            for row in rows[fk.source]
        ]
        if rows[fk.target] and rng.random() < 0.7:
            target = schema.relation(fk.target)
            pos = set(target.indexes_of(fk.target_attrs))
            rows[fk.target].append(_nulled(rng.choice(rows[fk.target]), pos))
    db = Database(schema)
    for name, relation_rows in rows.items():
        for row in relation_rows:
            try:
                db.relation(name).insert(row)
            except IntegrityError:
                pass  # a NULL made two primary keys equal; keep the first
    return db


def _assert_full_reducer_identity(db):
    universal = universal_table(db)
    rowsets = {name: set(db.relation(name).rows()) for name in db.relation_names}
    reduce_row_sets(db.schema, rowsets)
    for name in db.relation_names:
        projected = set(project_universal(universal, db.schema, name).rows())
        assert rowsets[name] == projected, name
    reduced, removed = semijoin_reduce(db)
    assert all(reduced.relation(n).rows() == rowsets[n] for n in db.relation_names)
    reducer = DeltaReducer.for_database(db)
    dropped = {reducer.entries[rid] for rid in reducer.start().drop(())}
    assert dropped == {
        (name, row) for name in db.relation_names for row in removed.rows_for(name)
    }


class TestFullReducerWithNullKeys:
    @settings(max_examples=60, deadline=None)
    @given(null_key_instances())
    def test_reduction_is_the_projection_of_u(self, db):
        _assert_full_reducer_identity(db)

    @settings(max_examples=30, deadline=None)
    @given(st.booleans().flatmap(lambda bf: null_key_databases(back_and_forth=bf)))
    def test_running_example_populations(self, db):
        _assert_full_reducer_identity(db)
