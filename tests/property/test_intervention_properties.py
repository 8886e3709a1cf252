"""Property-based tests for program P (hypothesis).

The instances are random populations of the running-example schema
(Author ⋈ Authored ⋈ Publication with the Eq. (2) foreign keys, both
with and without the back-and-forth flavour).  The properties are the
formal guarantees of Sections 2–3:

* Δ^φ is a valid intervention (Definition 2.6);
* Δ^φ is *the minimum*: exhaustively, every valid Δ contains it
  (Theorem 3.3's uniqueness), checked on tiny instances;
* iteration counts respect Propositions 3.4 and 3.5;
* μ degrees computed by the cube equal the ground truth on
  intervention-additive queries.
"""

from itertools import chain, combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Explanation, AtomicPredicate, compute_intervention
from repro.core.intervention import FixpointStrategy
from repro.datasets import running_example as rex
from repro.engine.database import Database, Delta
from repro.engine.reduction import semijoin_reduce

from support.intervention import is_valid_intervention


NAMES = ["JG", "RR", "CM"]
INSTS = ["C.edu", "M.com"]
DOMS = ["edu", "com"]
YEARS = [2001, 2011]
VENUES = ["SIGMOD", "VLDB"]


@st.composite
def small_databases(draw, max_authors=3, max_pubs=3, back_and_forth=True):
    """A random, semijoin-reduced instance of the Example 2.2 schema."""
    n_authors = draw(st.integers(1, max_authors))
    n_pubs = draw(st.integers(1, max_pubs))
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
    pairs = [(f"A{i}", f"P{j}") for i in range(n_authors) for j in range(n_pubs)]
    chosen = draw(
        st.lists(st.sampled_from(pairs), min_size=1, max_size=len(pairs), unique=True)
    )
    db = Database(
        rex.schema(back_and_forth=back_and_forth),
        {"Author": authors, "Publication": pubs, "Authored": chosen},
    )
    reduced, _ = semijoin_reduce(db)
    return reduced


@st.composite
def explanations(draw):
    """A random 1–2 atom equality explanation over the toy schema."""
    atoms = []
    choices = draw(
        st.lists(
            st.sampled_from(["name", "inst", "dom", "year", "venue"]),
            min_size=1,
            max_size=2,
            unique=True,
        )
    )
    for attr in choices:
        if attr == "name":
            atoms.append(AtomicPredicate("Author", "name", "=", draw(st.sampled_from(NAMES))))
        elif attr == "inst":
            atoms.append(AtomicPredicate("Author", "inst", "=", draw(st.sampled_from(INSTS))))
        elif attr == "dom":
            atoms.append(AtomicPredicate("Author", "dom", "=", draw(st.sampled_from(DOMS))))
        elif attr == "year":
            atoms.append(AtomicPredicate("Publication", "year", "=", draw(st.sampled_from(YEARS))))
        else:
            atoms.append(AtomicPredicate("Publication", "venue", "=", draw(st.sampled_from(VENUES))))
    return Explanation(tuple(atoms))


common_settings = settings(max_examples=40)


class TestValidity:
    @common_settings
    @given(db=small_databases(), phi=explanations())
    def test_computed_delta_is_valid(self, db, phi):
        if db.total_rows() == 0:
            return
        result = compute_intervention(db, phi)
        assert is_valid_intervention(db, phi, result.delta)

    @common_settings
    @given(db=small_databases(back_and_forth=False), phi=explanations())
    def test_valid_without_back_and_forth(self, db, phi):
        if db.total_rows() == 0:
            return
        result = compute_intervention(db, phi)
        assert is_valid_intervention(db, phi, result.delta)

    @common_settings
    @given(db=small_databases(), phi=explanations())
    def test_no_residual_row_satisfies_phi(self, db, phi):
        if db.total_rows() == 0:
            return
        from repro.engine.universal import universal_table

        result = compute_intervention(db, phi)
        residual = db.subtract(result.delta)
        u = universal_table(residual)
        expr = phi.to_expression()
        assert all(not expr.evaluate(u.environment(r)) for r in u.rows())


def _all_deltas(db):
    """Every possible Delta of a tiny database (exponential!)."""

    def powerset(rows):
        rows = list(rows)
        return chain.from_iterable(
            combinations(rows, r) for r in range(len(rows) + 1)
        )

    names = db.schema.relation_names
    pools = [list(powerset(db.relation(n).rows())) for n in names]

    def rec(i, acc):
        if i == len(names):
            yield Delta(db.schema, dict(zip(names, acc)))
            return
        for subset in pools[i]:
            yield from rec(i + 1, acc + [subset])

    yield from rec(0, [])


class TestMinimality:
    @settings(max_examples=12)
    @given(db=small_databases(max_authors=2, max_pubs=2), phi=explanations())
    def test_delta_is_contained_in_every_valid_delta(self, db, phi):
        """Theorem 3.3 / Definition 2.6: Δ^φ ⊆ Δ' for all valid Δ'."""
        if db.total_rows() > 7:
            return  # keep the exhaustive sweep tractable
        computed = compute_intervention(db, phi).delta
        for candidate in _all_deltas(db):
            if is_valid_intervention(db, phi, candidate):
                assert computed.issubset(candidate)

    @settings(max_examples=15)
    @given(db=small_databases(max_authors=2, max_pubs=2), phi=explanations())
    def test_local_minimality(self, db, phi):
        """Dropping any single tuple from Δ^φ breaks validity."""
        delta = compute_intervention(db, phi).delta
        for name in db.schema.relation_names:
            for row in delta.rows_for(name):
                parts = delta.parts()
                parts[name] = parts[name] - {row}
                assert not is_valid_intervention(db, phi, Delta(db.schema, parts))


class TestConvergence:
    @common_settings
    @given(db=small_databases(), phi=explanations())
    def test_proposition_34(self, db, phi):
        result = compute_intervention(db, phi)
        assert result.iterations <= db.total_rows() + 1

    @common_settings
    @given(db=small_databases(back_and_forth=False), phi=explanations())
    def test_proposition_35(self, db, phi):
        """No back-and-forth keys: at most 2 productive iterations."""
        result = compute_intervention(db, phi)
        assert result.iterations <= 2

    @common_settings
    @given(db=small_databases(), phi=explanations())
    def test_idempotent_recompute(self, db, phi):
        engine = FixpointStrategy(db)
        assert engine.compute(phi).delta == engine.compute(phi).delta

    @common_settings
    @given(db=small_databases(), phi=explanations())
    def test_trace_monotone(self, db, phi):
        result = compute_intervention(db, phi)
        sizes = [t.delta_size for t in result.trace]
        assert sizes == sorted(sizes)


class TestResidualProperties:
    @common_settings
    @given(db=small_databases(), phi=explanations())
    def test_residual_is_semijoin_reduced(self, db, phi):
        from support.intervention import database_is_reduced

        result = compute_intervention(db, phi)
        assert database_is_reduced(db.subtract(result.delta))

    @common_settings
    @given(db=small_databases(), phi=explanations())
    def test_corollary_36_without_bf(self, db, phi):
        """Corollary 3.6: with standard keys only,
        U(D − Δ^φ) = σ_¬φ(U(D))."""
        from repro.engine.universal import universal_table

        db_std = Database(
            rex.schema(back_and_forth=False),
            {n: db.relation(n).rows() for n in db.schema.relation_names},
        )
        result = compute_intervention(db_std, phi)
        residual_u = universal_table(db_std.subtract(result.delta))
        expr = phi.to_expression()
        full_u = universal_table(db_std)
        expected = [
            r for r in full_u.rows() if not expr.evaluate(full_u.environment(r))
        ]
        assert sorted(map(str, residual_u.rows())) == sorted(map(str, expected))
