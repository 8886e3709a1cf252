"""Metamorphic invariants of the explanation pipeline (hypothesis).

Unlike the direct property suites, these tests never assert an absolute
answer — they perturb an input and assert the paper-implied *relation*
between the two runs:

* **Duplication stability** — cloning an author under a fresh key with
  identical attributes and an identical publication set adds universal
  rows but changes no ``count(distinct pubid)`` sub-population value,
  so every μ_aggr degree (and hence the μ_aggr ranking) is unchanged.
* **Refinement monotonicity** — for a refinement ``φ' ⊇ φ`` (a
  superset of atoms), ``σ_φ'(U) ⊆ σ_φ(U)``, so Δ^φ remains a valid
  intervention for φ' and Theorem 3.3 minimality forces
  ``Δ^φ' ⊆ Δ^φ``.  It needs no oracle, so it is checked under both
  program-P schedules on the running example, the Example 3.7 chains
  and a tiny DBLP instance too.
* **Exact additivity** — on the running-example schema with the
  back-and-forth key, ``count(distinct Publication.pubid)`` filtered
  on attributes of the counted relation is intervention-additive:
  ``q(D − Δ^φ) = q(D) − q(D_φ)`` holds *exactly* (integer equality,
  no tolerance), which is what licenses the Algorithm 1 cube.

The instances are random semijoin-reduced populations of the
Example 2.2 schema, mirroring ``test_intervention_properties``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AtomicPredicate, Explanation, compute_intervention
from repro.core.cube_algorithm import MU_AGGR
from repro.core.explainer import Explainer
from repro.core.numquery import AggregateQuery, single_query
from repro.core.question import UserQuestion
from repro.datasets import chains, dblp
from repro.datasets import running_example as rex
from repro.engine.aggregates import count_distinct
from repro.engine.database import Database
from repro.engine.expressions import Col, Comparison, Const
from repro.engine.reduction import semijoin_reduce
from repro.engine.universal import universal_table

import pytest

pytestmark = pytest.mark.metamorphic

NAMES = ["JG", "RR", "CM"]
INSTS = ["C.edu", "M.com"]
DOMS = ["edu", "com"]
YEARS = [2001, 2011]
VENUES = ["SIGMOD", "VLDB"]

ATTRIBUTES = ["Author.name", "Author.inst", "Publication.year"]

#: (relation, attribute) → value pool, for drawing equality atoms.
ATOM_POOLS = {
    ("Author", "name"): NAMES,
    ("Author", "inst"): INSTS,
    ("Author", "dom"): DOMS,
    ("Publication", "year"): YEARS,
    ("Publication", "venue"): VENUES,
}


@st.composite
def small_databases(draw, max_authors=3, max_pubs=3):
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
    pairs = [
        (f"A{i}", f"P{j}") for i in range(n_authors) for j in range(n_pubs)
    ]
    chosen = draw(
        st.lists(
            st.sampled_from(pairs), min_size=1, max_size=len(pairs), unique=True
        )
    )
    db = Database(
        rex.schema(back_and_forth=True),
        {"Author": authors, "Publication": pubs, "Authored": chosen},
    )
    reduced, _ = semijoin_reduce(db)
    return reduced


@st.composite
def explanations(draw, max_atoms=2):
    """A random 1–2 atom equality explanation over the toy schema."""
    keys = draw(
        st.lists(
            st.sampled_from(sorted(ATOM_POOLS)),
            min_size=1,
            max_size=max_atoms,
            unique=True,
        )
    )
    return Explanation(
        tuple(
            AtomicPredicate(rel, attr, "=", draw(st.sampled_from(ATOM_POOLS[rel, attr])))
            for rel, attr in keys
        )
    )


def sigmod_question():
    """``q := count(distinct Publication.pubid) WHERE venue = 'SIGMOD'``."""
    return UserQuestion.high(
        single_query(
            AggregateQuery(
                "q",
                count_distinct("Publication.pubid", "q"),
                Comparison("=", Col("Publication.venue"), Const("SIGMOD")),
            )
        )
    )


def mu_aggr_map(db):
    """μ_aggr degree per explanation string for the SIGMOD question."""
    table = Explainer(db, sigmod_question(), ATTRIBUTES).explanation_table(
        "cube"
    )
    pos = table.table.position(MU_AGGR)
    return {
        str(table.explanation_of(row)): row[pos] for row in table.table.rows()
    }


class TestDuplicationStability:
    @settings(max_examples=30)
    @given(db=small_databases(), data=st.data())
    def test_cloning_an_author_preserves_mu_aggr(self, db, data):
        authors = sorted(db.relation("Author").rows())
        if not authors:
            return
        aid, name, inst, dom = data.draw(
            st.sampled_from(authors), label="cloned author"
        )
        clone_links = [
            ("A_dup", pubid)
            for author, pubid in db.relation("Authored").rows()
            if author == aid
        ]
        doubled = Database(
            db.schema,
            {
                "Author": list(db.relation("Author").rows())
                + [("A_dup", name, inst, dom)],
                "Publication": list(db.relation("Publication").rows()),
                "Authored": list(db.relation("Authored").rows()) + clone_links,
            },
        )
        before = mu_aggr_map(db)
        after = mu_aggr_map(doubled)
        assert after == before
        # In particular the argmax set — the rank-1 explanations — is
        # stable, which is the rank-stability claim in plain form.
        if before:
            top = max(before.values())
            assert {e for e, v in after.items() if v == top} == {
                e for e, v in before.items() if v == top
            }


class TestRefinementMonotonicity:
    @settings(max_examples=40)
    @given(db=small_databases(), phi=explanations(), data=st.data())
    def test_refined_delta_is_contained(self, db, phi, data):
        used = {(a.relation, a.attribute) for a in phi.atoms}
        free = sorted(k for k in ATOM_POOLS if k not in used)
        rel, attr = data.draw(st.sampled_from(free), label="extra atom")
        value = data.draw(st.sampled_from(ATOM_POOLS[rel, attr]))
        refined = Explanation(
            phi.atoms + (AtomicPredicate(rel, attr, "=", value),)
        )
        coarse = compute_intervention(db, phi).delta
        fine = compute_intervention(db, refined).delta
        assert fine.issubset(coarse)


def _universal_pools(db, columns):
    """(relation, attribute) → the values that column takes in U(D)."""
    universal = universal_table(db)
    return {
        tuple(column.split(".", 1)): sorted(set(universal.column(column)))
        for column in columns
    }


@st.composite
def explanations_from(draw, pools, max_atoms=2):
    keys = draw(
        st.lists(
            st.sampled_from(sorted(pools)), min_size=1, max_size=max_atoms, unique=True
        )
    )
    return Explanation(
        tuple(
            AtomicPredicate(rel, attr, "=", draw(st.sampled_from(pools[rel, attr])))
            for rel, attr in keys
        )
    )


@st.composite
def refinements(draw, pools):
    """(φ, φ') with φ' = φ plus one equality atom on another column."""
    phi = draw(explanations_from(pools, max_atoms=1))
    used = {(a.relation, a.attribute) for a in phi.atoms}
    rel, attr = draw(st.sampled_from(sorted(k for k in pools if k not in used)))
    value = draw(st.sampled_from(pools[rel, attr]))
    return phi, Explanation(phi.atoms + (AtomicPredicate(rel, attr, "=", value),))


def _assert_refinement_contained(db, phi, refined):
    for strategy in ("fixpoint", "closure"):
        coarse = compute_intervention(db, phi, strategy=strategy).delta
        fine = compute_intervention(db, refined, strategy=strategy).delta
        assert fine.issubset(coarse), strategy


_CHAIN_COLUMNS = ("R1.a", "R2.b", "R3.c", "R3.a", "R3.b")
_DBLP_COLUMNS = (
    "Author.name",
    "Author.inst",
    "Author.dom",
    "Publication.year",
    "Publication.venue",
)


class TestRefinementMonotonicityBothSchedules:
    @settings(max_examples=30)
    @given(db=small_databases(), data=st.data())
    def test_running_example(self, db, data):
        phi, refined = data.draw(refinements(ATOM_POOLS))
        _assert_refinement_contained(db, phi, refined)

    @settings(max_examples=20)
    @given(
        p=st.integers(1, 16),
        shape=st.sampled_from(["two-keys", "one-key"]),
        data=st.data(),
    )
    def test_chains(self, p, shape, data):
        if shape == "two-keys":
            db = chains.example_37_database(p)
        else:
            db, _ = chains.single_back_and_forth_chain(p)
        pools = _universal_pools(db, _CHAIN_COLUMNS)
        phi, refined = data.draw(refinements(pools))
        _assert_refinement_contained(db, phi, refined)

    @settings(max_examples=20)
    @given(seed=st.sampled_from([2014, 2015]), data=st.data())
    def test_tiny_dblp(self, seed, data):
        db = dblp.generate(scale=0.02, seed=seed)
        pools = _universal_pools(db, _DBLP_COLUMNS)
        phi, refined = data.draw(refinements(pools))
        _assert_refinement_contained(db, phi, refined)


class TestExactAdditivity:
    @settings(max_examples=40)
    @given(db=small_databases(), phi=explanations())
    def test_q_of_residual_is_q_minus_subpopulation(self, db, phi):
        aggregate = sigmod_question().query.aggregates[0]
        u = universal_table(db)
        q_full = aggregate.evaluate(u)
        q_sub = aggregate.evaluate(u.filter(phi.to_expression()))
        delta = compute_intervention(db, phi).delta
        residual = db.subtract(delta)
        q_residual = aggregate.evaluate(universal_table(residual))
        assert q_residual == q_full - q_sub
