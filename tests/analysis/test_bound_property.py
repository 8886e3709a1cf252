"""Property tests: certified iteration bounds are never exceeded.

The certificate promises a bound on program P's productive iteration
count *before any data is seen*.  These tests wire the certified bound
into :class:`FixpointStrategy` (which raises
:class:`AnalysisInvariantError` on violation) and additionally assert
the count directly, over

* random instances of the running-example schema, with and without the
  back-and-forth flavour of Eq. (2);
* the Example 3.7 worst-case chains, where the bound is tight up to
  one merged round.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import certify_convergence
from repro.core.intervention import FixpointStrategy
from repro.core.predicates import AtomicPredicate, Explanation
from repro.datasets import chains
from repro.datasets import running_example as rex
from repro.engine.database import Database
from repro.engine.reduction import semijoin_reduce

NAMES = ["JG", "RR", "CM"]
INSTS = ["C.edu", "M.com"]
DOMS = ["edu", "com"]
YEARS = [2001, 2011]
VENUES = ["SIGMOD", "VLDB"]

common = settings(max_examples=50)


@st.composite
def small_databases(draw, back_and_forth=True):
    """A random, semijoin-reduced instance of the Example 2.2 schema."""
    n_authors = draw(st.integers(1, 3))
    n_pubs = draw(st.integers(1, 3))
    authors = [
        (
            f"A{i}",
            draw(st.sampled_from(NAMES)),
            draw(st.sampled_from(INSTS)),
            draw(st.sampled_from(DOMS)),
        )
        for i in range(n_authors)
    ]
    pubs = [
        (f"P{j}", draw(st.sampled_from(YEARS)), draw(st.sampled_from(VENUES)))
        for j in range(n_pubs)
    ]
    pairs = [
        (f"A{i}", f"P{j}") for i in range(n_authors) for j in range(n_pubs)
    ]
    chosen = draw(
        st.lists(
            st.sampled_from(pairs), min_size=1, max_size=len(pairs), unique=True
        )
    )
    db = Database(
        rex.schema(back_and_forth=back_and_forth),
        {"Author": authors, "Publication": pubs, "Authored": chosen},
    )
    reduced, _ = semijoin_reduce(db)
    return reduced


@st.composite
def explanations(draw):
    atoms = [
        AtomicPredicate("Author", "name", "=", draw(st.sampled_from(NAMES))),
        AtomicPredicate("Author", "dom", "=", draw(st.sampled_from(DOMS))),
        AtomicPredicate(
            "Publication", "year", "=", draw(st.sampled_from(YEARS))
        ),
    ]
    chosen = draw(
        st.lists(
            st.sampled_from(atoms),
            min_size=1,
            max_size=2,
            unique_by=lambda a: (a.relation, a.attribute),
        )
    )
    return Explanation.of(*chosen)


def checked_engine(db):
    """An engine that raises AnalysisInvariantError past the bound."""
    cert = certify_convergence(db.schema, total_rows=db.total_rows())
    assert cert.bound is not None  # total_rows makes every bound concrete
    return FixpointStrategy(db, certified_bound=cert.bound), cert


class TestRunningExampleBounds:
    @common
    @given(db=small_databases(back_and_forth=True), phi=explanations())
    def test_back_and_forth_within_bound(self, db, phi):
        engine, cert = checked_engine(db)
        result = engine.compute(phi)
        assert result.iterations <= cert.bound

    @common
    @given(db=small_databases(back_and_forth=False), phi=explanations())
    def test_standard_keys_within_bound(self, db, phi):
        engine, cert = checked_engine(db)
        result = engine.compute(phi)
        assert result.iterations <= cert.bound
        # Proposition 3.5's bound also holds regardless of n.
        assert result.iterations <= 2


class TestChainBounds:
    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_worst_case_stays_within_n_minus_1(self, p):
        db, phi = chains.example_37(p)
        engine, cert = checked_engine(db)
        result = engine.compute(phi)
        assert cert.bound == db.total_rows() - 1 == 4 * p
        assert result.iterations == chains.expected_iterations(p)
        assert result.iterations <= cert.bound

    @common
    @given(
        p=st.integers(1, 3),
        relation=st.sampled_from(["R1", "R2", "R3"]),
        index=st.integers(0, 12),
    )
    def test_every_seed_tuple_within_bound(self, p, relation, index):
        db, _ = chains.example_37(p)
        rows = list(db.relation(relation))
        row = rows[index % len(rows)]
        attr = db.schema.relation(relation).attributes[0].name
        phi = Explanation.of(AtomicPredicate(relation, attr, "=", row[0]))
        engine, cert = checked_engine(db)
        result = engine.compute(phi)
        assert result.iterations <= cert.bound
