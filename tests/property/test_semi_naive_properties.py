"""Semi-naive program P against its naive oracle (hypothesis).

Both production schedules reach Δ^φ by deletion propagation: the
fixpoint schedule in semi-naive stages, the closure schedule with a
support-loss repair per round, and both over one
:class:`~repro.engine.reduction.DeltaReducer` per database version.
The oracles in :mod:`support.program_p` are the naive schedules they
replaced, which re-reduce the whole residual after every step.  The
properties:

* the semi-naive fixpoint gives the naive Δ^φ, iteration count and
  per-rule trace;
* the closure schedule gives the full-reduction Δ^φ, rounds, per-round
  counts and probes;
* the delta reducer drops exactly ``residual − reduce_row_sets(residual)``
  for random deletion sets, in one step or in two.

The instances are the running-example populations of
``test_intervention_properties`` (both foreign-key flavours), the same
populations with NULL foreign-key values and dangling tuples, both
Example 3.7 chain shapes for p ≤ 32, tiny cyclic TPC-H instances and
small DBLP / Geo-DBLP ones.
"""

import functools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.intervention import ClosureStrategy, FixpointStrategy
from repro.core.predicates import AtomicPredicate, Explanation
from repro.datasets import chains, dblp, geodblp, tpch
from repro.engine.database import Database
from repro.engine.reduction import DeltaReducer, reduce_row_sets
from repro.engine.types import NULL
from repro.engine.universal import universal_table
from test_intervention_properties import explanations, small_databases

from support.program_p import NaiveFixpointStrategy, full_reduction_delta

oracle_settings = settings(max_examples=30)


# -- instances ----------------------------------------------------------------


@st.composite
def null_key_databases(draw, back_and_forth=True):
    """A running-example population where some foreign-key values are
    NULL, plus optional NULL-keyed Author / Publication rows.  A NULL
    key joins nothing, so every NULL-keyed tuple dangles."""
    db = draw(small_databases(back_and_forth=back_and_forth))
    authored = []
    for author, pub in sorted(db.relation("Authored").rows()):
        kind = draw(st.sampled_from(["keep", "keep", "null-id", "null-pubid"]))
        if kind == "null-id":
            author = NULL
        elif kind == "null-pubid":
            pub = NULL
        authored.append((author, pub))
    authors = list(db.relation("Author").rows())
    pubs = list(db.relation("Publication").rows())
    if draw(st.booleans()):
        authors.append((NULL, "JG", "C.edu", "edu"))
    if draw(st.booleans()):
        pubs.append((NULL, 2011, "VLDB"))
    return Database(
        db.schema,
        {"Author": authors, "Authored": authored, "Publication": pubs},
    )


@st.composite
def chain_instances(draw):
    """(database, φ) on either Example 3.7 chain shape, p ≤ 32, with φ
    picking one R3 tuple anywhere along the chain."""
    p = draw(st.integers(1, 32))
    shape = draw(st.sampled_from(["two-keys", "one-key"]))
    if shape == "two-keys":
        db = chains.example_37_database(p)
    else:
        db, _ = chains.single_back_and_forth_chain(p)
    i = draw(st.integers(1, p))
    side = draw(st.sampled_from("ab"))
    return db, Explanation.of(AtomicPredicate("R3", "c", "=", f"c{i}{side}"))


@functools.lru_cache(maxsize=None)
def _tpch_base():
    return tpch.generate(sf=0.01, seed=2014)


@st.composite
def tiny_tpch(draw):
    """A few orders of TPC-H with everything they reach, then a random
    handful of rows removed so that some tuples dangle — on a schema
    whose partsupp diamond closes a cycle."""
    base = _tpch_base()
    orders = sorted(base.relation("Orders").rows())
    picked = draw(st.lists(st.sampled_from(orders), min_size=1, max_size=3, unique=True))
    orderkeys = {o[0] for o in picked}
    lineitems = [r for r in base.relation("Lineitem").rows() if r[0] in orderkeys]
    custkeys = {o[1] for o in picked}
    pskeys = {(r[2], r[3]) for r in lineitems}
    parts = {k[0] for k in pskeys}
    supps = {k[1] for k in pskeys}
    rows = {
        "Lineitem": lineitems,
        "Orders": picked,
        "Customer": [r for r in base.relation("Customer").rows() if r[0] in custkeys],
        "Partsupp": [
            r for r in base.relation("Partsupp").rows() if (r[0], r[1]) in pskeys
        ],
        "Part": [r for r in base.relation("Part").rows() if r[0] in parts],
        "Supplier": [r for r in base.relation("Supplier").rows() if r[0] in supps],
    }
    nations = {r[2] for r in rows["Customer"]} | {r[2] for r in rows["Supplier"]}
    rows["Nation"] = [r for r in base.relation("Nation").rows() if r[0] in nations]
    regions = {r[2] for r in rows["Nation"]}
    rows["Region"] = [r for r in base.relation("Region").rows() if r[0] in regions]
    for name in sorted(rows):
        kept = [r for r in sorted(rows[name]) if not draw(st.integers(0, 7)) == 0]
        rows[name] = kept
    return Database(base.schema, rows)


def _phi_from_universal(draw, db, columns):
    """A 1–2 atom equality φ over values that occur in U(D)."""
    universal = universal_table(db)
    if not len(universal):
        return None
    row = draw(st.integers(0, len(universal) - 1))
    chosen = draw(st.lists(st.sampled_from(columns), min_size=1, max_size=2, unique=True))
    atoms = []
    for column in chosen:
        relation, attribute = column.split(".", 1)
        value = universal.column(column)[row]
        atoms.append(AtomicPredicate(relation, attribute, "=", value))
    return Explanation(tuple(atoms))


_TPCH_COLUMNS = ("Nation.name", "Customer.mktsegment", "Orders.status", "Part.brand")


@st.composite
def tpch_instances(draw):
    db = draw(tiny_tpch())
    return db, _phi_from_universal(draw, db, _TPCH_COLUMNS)


# -- the comparisons ------------------------------------------------------------


def _assert_fixpoint_matches_naive(db, phi):
    fast = FixpointStrategy(db).compute(phi)
    slow = NaiveFixpointStrategy(db).compute(phi)
    assert fast.delta == slow.delta
    assert fast.iterations == slow.iterations
    assert fast.trace == slow.trace


def _assert_closure_matches_full_reduction(db, phi):
    strategy = ClosureStrategy(db)
    seeds = strategy.seed_delta(phi)
    fast = strategy.index.delta_from_seeds(seeds)
    slow = full_reduction_delta(strategy.index, seeds)
    assert fast == slow


def _assert_both(db, phi):
    if phi is None or db.total_rows() == 0:
        return
    _assert_fixpoint_matches_naive(db, phi)
    _assert_closure_matches_full_reduction(db, phi)


class TestSchedulesMatchTheNaiveOracle:
    @oracle_settings
    @given(db=small_databases(), phi=explanations())
    def test_running_example_with_back_and_forth(self, db, phi):
        _assert_both(db, phi)

    @oracle_settings
    @given(db=small_databases(back_and_forth=False), phi=explanations())
    def test_running_example_without_back_and_forth(self, db, phi):
        _assert_both(db, phi)

    @oracle_settings
    @given(db=null_key_databases(), phi=explanations())
    def test_null_foreign_key_values(self, db, phi):
        _assert_both(db, phi)

    @oracle_settings
    @given(db=null_key_databases(back_and_forth=False), phi=explanations())
    def test_null_foreign_key_values_without_back_and_forth(self, db, phi):
        _assert_both(db, phi)

    @settings(max_examples=20)
    @given(instance=chain_instances())
    def test_chains(self, instance):
        _assert_both(*instance)

    @settings(max_examples=20)
    @given(instance=tpch_instances())
    def test_tiny_cyclic_tpch(self, instance):
        _assert_both(*instance)

    def test_example_37_counts(self):
        """Fig 5's n − 2 iterations, and the naive trace, for p ≤ 32."""
        for p in (1, 2, 8, 32):
            db, phi = chains.example_37(p)
            fast = FixpointStrategy(db).compute(phi)
            assert fast.iterations == chains.expected_iterations(p)
            assert fast.trace == NaiveFixpointStrategy(db).compute(phi).trace


# -- the delta reducer ----------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _reducer_instance(name):
    if name == "dblp":
        return dblp.generate(scale=0.05, seed=2014)
    if name == "geodblp":
        return geodblp.generate(scale=0.1, seed=2014)
    return _tpch_base()


def _assert_reducer_matches(db, deleted_ids, split):
    reducer = DeltaReducer(db)
    deleted_ids = sorted(deleted_ids)
    support = reducer.start()
    dropped = set(support.drop(deleted_ids[:split]))
    dropped |= set(support.drop(deleted_ids[split:]))
    dropped -= set(deleted_ids)
    deleted = {name: set() for name in db.relation_names}
    for rid in deleted_ids:
        name, row = reducer.entries[rid]
        deleted[name].add(row)
    residual = {
        name: set(db.relation(name).rows()) - deleted[name]
        for name in db.relation_names
    }
    reduced = reduce_row_sets(db.schema, {n: set(r) for n, r in residual.items()})
    expected = {
        (name, row)
        for name in db.relation_names
        for row in residual[name] - reduced[name]
    }
    assert {reducer.entries[rid] for rid in dropped} == expected
    assert support.dead == set(deleted_ids) | dropped


class TestDeltaReducerMatchesFullReduction:
    @settings(max_examples=30)
    @given(
        name=st.sampled_from(["tpch", "dblp", "geodblp"]),
        data=st.data(),
    )
    def test_random_deletion_sets(self, name, data):
        db = _reducer_instance(name)
        n = db.total_rows()
        deleted = data.draw(st.sets(st.integers(0, n - 1), max_size=40))
        split = data.draw(st.integers(0, len(deleted)))
        _assert_reducer_matches(db, deleted, split)

    @oracle_settings
    @given(db=null_key_databases(), data=st.data())
    def test_null_keys_and_dangling_tuples(self, db, data):
        n = db.total_rows()
        deleted = data.draw(st.sets(st.integers(0, n - 1), max_size=n))
        split = data.draw(st.integers(0, len(deleted)))
        _assert_reducer_matches(db, deleted, split)

    @settings(max_examples=20)
    @given(db=tiny_tpch(), data=st.data())
    def test_tiny_cyclic_tpch(self, db, data):
        n = db.total_rows()
        if not n:
            return
        deleted = data.draw(st.sets(st.integers(0, n - 1), max_size=n))
        split = data.draw(st.integers(0, len(deleted)))
        _assert_reducer_matches(db, deleted, split)

    def test_memoized_per_database_version(self):
        db = chains.example_37_database(2)
        reducer = DeltaReducer.for_database(db)
        assert DeltaReducer.for_database(db) is reducer
        db.relation("R1").delete_many([("a1",)])
        rebuilt = DeltaReducer.for_database(db)
        assert rebuilt is not reducer
        assert len(rebuilt.entries) == db.total_rows()
