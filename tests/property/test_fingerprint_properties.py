"""The maintained content fingerprint equals a from-scratch one (hypothesis).

Each relation keeps its sorted row digests current from the effective
batches of every mutator, once a first ``content_fingerprint()`` has
built them; a batch above the bisect limit drops the list instead.
After any sequence of writes — including a mid-batch primary-key
failure of ``insert_many``, a rolled-back ``update_where`` and deletes
of one of two rows sharing a digest — the fingerprint must equal that
of a database freshly built from the same rows.
"""

from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.engine import relation as relation_module
from repro.engine.database import Database
from repro.engine.schema import DatabaseSchema, ForeignKey, make_schema
from repro.engine.types import NULL
from repro.errors import IntegrityError

SCHEMA = DatabaseSchema(
    (
        make_schema("R", ["k", "v"], ["k"]),
        make_schema("S", ["a", "b"], ["a", "b"]),
        make_schema("T", ["k", "v", "w"], ["k", "v"]),
    ),
    (
        ForeignKey("S", ("a",), "R", ("k",)),
        ForeignKey("T", ("k",), "R", ("k",)),
    ),
)

#: Equal values with distinct digests (``1``, ``1.0``, ``True``; ``0.0``
#: and ``-0.0``) make a delete's argument differ from the stored row.
values = st.sampled_from(
    [0, 1, 1.0, True, 0.0, -0.0, "a", "b", "a\x1fs:b", NULL]
)
keys = st.integers(0, 5)

#: The digest joins values with an unescaped "\x1f", so ``(k, "a\x1fs:b",
#: "c")`` and ``(k, "a", "b\x1fs:c")`` are distinct rows of T (its key is
#: ``(k, v)``) with one digest: the digest list is a multiset.
colliding = st.tuples(
    keys, st.sampled_from([("a\x1fs:b", "c"), ("a", "b\x1fs:c")])
).map(lambda pair: (pair[0], *pair[1]))
rows = {
    "R": st.tuples(keys, values),
    "S": st.tuples(keys, values),
    "T": st.one_of(colliding, st.tuples(keys, values, values)),
}
names = st.sampled_from(["R", "S", "T"])

#: The bisect limit the test runs under, and a bulk batch above it.
LIMIT = 16
BULK = 20


@st.composite
def steps(draw):
    name = draw(names)
    kind = draw(
        st.sampled_from(
            [
                "insert",
                "insert_many",
                "delete",
                "delete_many",
                "clear",
                "delete_where",
                "update_where",
                "bulk_insert",
                "bulk_delete",
            ]
        )
    )
    if kind in ("insert", "delete", "bulk_delete"):
        return name, kind, draw(rows[name])
    if kind in ("insert_many", "delete_many"):
        return name, kind, draw(st.lists(rows[name], max_size=6))
    if kind in ("delete_where", "update_where"):
        return name, kind, (draw(keys), draw(values))
    return name, kind, None


def _bulk_rows(relation):
    return [
        (100 + i,) + ("bulk",) * (relation.arity - 1) for i in range(BULK)
    ]


def _apply(db, step):
    name, kind, arg = step
    relation = db.relation(name)
    first = relation.schema.attribute_names[0]
    try:
        if kind == "insert":
            relation.insert(arg)
        elif kind == "insert_many":
            relation.insert_many(arg)
        elif kind == "delete":
            relation.delete(arg)
        elif kind == "delete_many":
            relation.delete_many(arg)
        elif kind == "clear":
            relation.clear()
        elif kind == "delete_where":
            relation.delete_where(lambda env: env[first] <= arg[0])
        elif kind == "update_where":
            # Setting the key column of several rows to one value
            # collides on R's primary key: the update rolls back.
            relation.update_where(
                lambda env: env[first] >= arg[0], {first: arg[0]}
            )
        elif kind == "bulk_insert":
            relation.insert_many(_bulk_rows(relation))
        else:
            # One large batch removing the drawn row (maybe one of a
            # colliding pair) together with the bulk rows.
            relation.delete_many([arg, *_bulk_rows(relation)])
    except IntegrityError:
        pass


def _fresh_fingerprint(db):
    rows_by_name = {name: rel.rows() for name, rel in db.relations.items()}
    return Database(db.schema, rows_by_name).content_fingerprint()


COLLIDING_PAIR = [("T", (0, "a\x1fs:b", "c")), ("T", (0, "a", "b\x1fs:c"))]


class TestMaintainedFingerprint:
    @settings(max_examples=120)
    @example(initial=COLLIDING_PAIR,
             sequence=[("T", "bulk_insert", None),
                       ("T", "bulk_delete", COLLIDING_PAIR[1][1])])
    @example(initial=COLLIDING_PAIR,
             sequence=[("T", "delete", COLLIDING_PAIR[0][1])])
    @given(initial=st.lists(names.flatmap(
               lambda name: rows[name].map(lambda row: (name, row))),
               max_size=8),
           sequence=st.lists(steps(), max_size=12))
    def test_matches_fresh_database_after_every_step(self, initial, sequence):
        db = Database(SCHEMA)
        for name, row in initial:
            try:
                db.relation(name).insert(row)
            except IntegrityError:
                pass
        db.content_fingerprint()  # builds the digest lists
        with mock.patch.object(relation_module, "_BISECT_BATCH", LIMIT):
            for step in sequence:
                _apply(db, step)
                assert db.content_fingerprint() == _fresh_fingerprint(db)

    def test_separator_in_a_string_cannot_forge_a_digest(self):
        (_, first), (_, second) = COLLIDING_PAIR
        digest = relation_module._row_digest
        assert digest(first) != digest(second)
