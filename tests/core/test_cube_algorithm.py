"""Tests for Algorithm 1 — degrees via the data cube."""

import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.cube_algorithm import (
    MU_AGGR,
    MU_INTERV,
    build_explanation_table,
)
from repro.core.explainer import Explainer
from repro.core.numquery import AggregateQuery, ratio_query, single_query
from repro.core.question import UserQuestion
from repro.datasets import natality
from repro.datasets import running_example as rex
from repro.engine.aggregates import agg_sum, count_distinct, count_star
from repro.engine.database import Database
from repro.engine.expressions import Col, Comparison, Const
from repro.engine.schema import single_table_schema
from repro.engine.types import NULL, is_dummy
from repro.errors import NotAdditiveError, QueryError


def sigmod_question(direction="high"):
    q = single_query(
        AggregateQuery(
            "q",
            count_distinct("Publication.pubid", "q"),
            Comparison("=", Col("Publication.venue"), Const("SIGMOD")),
        )
    )
    return UserQuestion.high(q) if direction == "high" else UserQuestion.low(q)


ATTRS = ["Author.name", "Publication.year"]


class TestBuildTable:
    def test_columns(self):
        db = rex.database()
        m = build_explanation_table(db, sigmod_question(), ATTRS)
        assert list(m.table.columns) == ATTRS + ["v_q", MU_INTERV, MU_AGGR]

    def test_row_count_matches_cube(self):
        db = rex.database()
        m = build_explanation_table(db, sigmod_question(), ATTRS)
        # name x year combos present in SIGMOD rows: (JG,2001),(RR,2001),
        # (CM,2001) + 3 name-only + 1 year-only + grand total = 8
        assert len(m) == 8

    def test_additivity_enforced(self):
        db = rex.database()
        question = UserQuestion.high(
            single_query(AggregateQuery("q", count_star("q")))
        )
        with pytest.raises(NotAdditiveError):
            build_explanation_table(db, question, ATTRS)

    def test_additivity_check_can_be_skipped(self):
        db = rex.database()
        question = UserQuestion.high(
            single_query(AggregateQuery("q", count_star("q")))
        )
        m = build_explanation_table(
            db, question, ATTRS, check_additivity=False
        )
        assert len(m) > 0

    def test_unknown_attribute_rejected(self):
        db = rex.database()
        with pytest.raises(QueryError):
            build_explanation_table(db, sigmod_question(), ["Author.zzz"])

    def test_explanation_of_row(self):
        db = rex.database()
        m = build_explanation_table(db, sigmod_question(), ATTRS)
        for row in m.table.rows():
            phi = m.explanation_of(row)
            dummies = sum(
                1 for i in m.table.positions(ATTRS) if is_dummy(row[i])
            )
            assert phi.size == len(ATTRS) - dummies

    def test_q_original_stored(self):
        db = rex.database()
        m = build_explanation_table(db, sigmod_question(), ATTRS)
        assert m.q_original == {"q": 2}


class TestDegreesMatchNaive:
    """The core soundness claim: on intervention-additive queries the
    cube degrees equal the ground-truth (program P) degrees."""

    @pytest.mark.parametrize("direction", ["high", "low"])
    def test_running_example_all_rows(self, direction):
        db = rex.database()
        question = sigmod_question(direction)
        explainer = Explainer(db, question, ATTRS)
        cube_m = explainer.explanation_table("cube")
        exact_m = explainer.explanation_table("exact")

        def degree_map(m, column):
            out = {}
            for row in m.table.rows():
                phi = m.explanation_of(row)
                out[str(phi)] = row[m.table.position(column)]
            return out

        cube_interv = degree_map(cube_m, MU_INTERV)
        exact_interv = degree_map(exact_m, MU_INTERV)
        for phi_text, degree in cube_interv.items():
            assert exact_interv[phi_text] == pytest.approx(degree), phi_text

    def test_natality_count_star(self):
        db = natality.generate(rows=400, seed=11)
        question = natality.q_race_question()
        attrs = ["Birth.marital", "Birth.tobacco"]
        explainer = Explainer(db, question, attrs)
        cube_m = explainer.explanation_table("cube")
        exact_m = explainer.explanation_table("exact")

        def degree_map(m):
            return {
                str(m.explanation_of(row)): row[m.table.position(MU_INTERV)]
                for row in m.table.rows()
            }

        cube_map, exact_map = degree_map(cube_m), degree_map(exact_m)
        # The cube only materializes explanations with support in the
        # filtered (Asian) sub-population; compare on the intersection.
        shared = set(cube_map) & set(exact_map)
        assert len(shared) >= 6
        for key in shared:
            assert cube_map[key] == pytest.approx(exact_map[key]), key

    def test_naive_equals_cube_on_additive(self):
        db = natality.generate(rows=300, seed=5)
        question = natality.q_marital_question()
        attrs = ["Birth.tobacco", "Birth.prenatal"]
        explainer = Explainer(db, question, attrs)
        cube_m = explainer.explanation_table("cube")
        naive_m = explainer.explanation_table("naive")

        def degree_map(m):
            return {
                str(m.explanation_of(row)): (
                    row[m.table.position(MU_INTERV)],
                    row[m.table.position(MU_AGGR)],
                )
                for row in m.table.rows()
            }

        cube_map, naive_map = degree_map(cube_m), degree_map(naive_m)
        assert set(cube_map) == set(naive_map)
        for key, (ci, ca) in cube_map.items():
            ni, na = naive_map[key]
            assert ci == pytest.approx(ni)
            assert ca == pytest.approx(na)


class TestOptions:
    def test_brute_force_cube_same_result(self):
        # The v_j columns of M against the retained 2^d-group-bys
        # oracle on the same per-aggregate inputs; production code
        # never imports it.
        from repro.engine.cube import dummy_rewrite
        from support.cube import cube_bruteforce
        from repro.engine.universal import universal_table

        db = natality.generate(rows=200, seed=3)
        question = natality.q_race_question()
        attrs = ["Birth.marital", "Birth.prenatal"]
        m = build_explanation_table(db, question, attrs)
        key_pos = m.table.positions(attrs)
        u = universal_table(db)
        for q in question.query.aggregates:
            brute = dummy_rewrite(
                cube_bruteforce(q.filtered(u), attrs, (q.aggregate,)), attrs
            )
            expected = {row[:-1]: row[-1] for row in brute.rows()}
            v_pos = m.table.position(f"v_{q.name}")
            got = {
                tuple(row[i] for i in key_pos): row[v_pos]
                for row in m.table.rows()
            }
            # Explanations missing from this aggregate's cube carry its
            # empty-input default in M.
            default = q.aggregate.default_value
            assert got == {key: expected.get(key, default) for key in got}
            assert set(expected) <= set(got)

    def test_support_threshold_filters(self):
        db = natality.generate(rows=500, seed=3)
        question = natality.q_race_question()
        attrs = ["Birth.marital"]
        all_rows = build_explanation_table(db, question, attrs)
        filtered = build_explanation_table(
            db, question, attrs, support_threshold=10
        )
        assert len(filtered) <= len(all_rows)
        v_pos = filtered.table.positions(["v_q1", "v_q2"])
        for row in filtered.table.rows():
            assert any(row[i] >= 10 for i in v_pos)

    def test_missing_explanations_get_zero(self):
        """An explanation appearing in one cube but not another gets 0
        for the missing aggregate (Algorithm 1, full outer join)."""
        db = rex.database()
        q_sigmod = AggregateQuery(
            "qs",
            count_distinct("Publication.pubid", "qs"),
            Comparison("=", Col("Publication.venue"), Const("SIGMOD")),
        )
        q_vldb = AggregateQuery(
            "qv",
            count_distinct("Publication.pubid", "qv"),
            Comparison("=", Col("Publication.venue"), Const("VLDB")),
        )
        question = UserQuestion.high(ratio_query(q_sigmod, q_vldb, epsilon=0.5))
        m = build_explanation_table(db, question, ["Publication.year"])
        rows = {
            row[0]: (row[1], row[2])
            for row in m.table.rows()
        }
        # year=2001 appears only in the SIGMOD cube: v_qv filled with 0.
        assert rows[2001] == (2, 0)
        # year=2011 appears only in the VLDB cube: v_qs filled with 0.
        assert rows[2011] == (0, 1)


class TestContentFingerprint:
    @staticmethod
    def table(row):
        from repro.core.cube_algorithm import ExplanationTable
        from repro.engine.table import Table

        return ExplanationTable(
            table=Table(["R.a", "R.b", "v_q", MU_INTERV, MU_AGGR], [row]),
            attributes=("R.a", "R.b"),
            aggregate_names=("q",),
            q_original={"q": 0},
        )

    def test_separator_text_in_a_cell_cannot_forge_a_row(self):
        # Joined with a bare \x1f, both rows read "s:a\x1fs:b\x1fs:c".
        left = self.table(("a\x1fs:b", "c", 1, 1.0, 1.0))
        right = self.table(("a", "b\x1fs:c", 1, 1.0, 1.0))
        assert left.content_fingerprint() != right.content_fingerprint()


def _cents_database(rows):
    schema = single_table_schema("T", ["id", "g", "h", "w", "x"], ["id"])
    return Database(schema, {"T": rows})


def _cents_question():
    return UserQuestion.high(
        ratio_query(
            AggregateQuery("q1", agg_sum("T.x", "q1")),
            AggregateQuery(
                "q2",
                agg_sum("T.x", "q2"),
                Comparison("=", Col("T.w"), Const("p")),
            ),
        )
    )


class TestOrderIndependence:
    """*M* is a function of the database, not of its row order: a float
    SUM is exact whatever order its rows arrive in or merge tree it
    rolls up through (ROADMAP 3(g))."""

    def test_cent_sums_forwards_and_reversed(self):
        rng = random.Random(2014)
        rows = [
            (
                i,
                rng.choice("abcde"),
                rng.choice("xyz"),
                rng.choice("pq"),
                rng.randint(1, 99_999) / 100,
            )
            for i in range(3000)
        ]
        attributes = ["T.g", "T.h"]
        question = _cents_question()
        forwards = build_explanation_table(
            _cents_database(rows), question, attributes, check_additivity=False
        )
        backwards = build_explanation_table(
            _cents_database(rows[::-1]),
            question,
            attributes,
            check_additivity=False,
        )
        assert forwards.content_fingerprint() == backwards.content_fingerprint()

    def test_insert_then_delete_leaves_both_fingerprints(self):
        """Rows inserted into three relations and deleted again, with a
        table *M* built in between, leave the database and *M*
        fingerprints as they were."""
        db = rex.database()
        before = (
            db.content_fingerprint(),
            build_explanation_table(db, sigmod_question(), ATTRS).content_fingerprint(),
        )
        added = {
            "Author": [("A4", "XY", "Z.edu", "edu")],
            "Publication": [("P4", 2001, "SIGMOD"), ("P5", 2011, "VLDB")],
            "Authored": [("A4", "P4"), ("A1", "P4"), ("A4", "P5")],
        }
        for name, rows in added.items():
            assert db[name].insert_many(rows) == len(rows)
        during = build_explanation_table(db, sigmod_question(), ATTRS)
        assert during.content_fingerprint() != before[1]
        for name, rows in reversed(list(added.items())):
            for row in rows:
                assert db[name].delete(row)
        after = (
            db.content_fingerprint(),
            build_explanation_table(db, sigmod_question(), ATTRS).content_fingerprint(),
        )
        assert after == before


ROOT = Path(__file__).resolve().parents[2]

#: The database and *M* fingerprints of bundled natality, then the
#: ``repro ask`` top-5 of its default question (Q_Race over the five
#: Section 5.1.1 attributes).
_NATALITY_IDENTITY = """
from repro.cli import main
from repro.core.explainer import Explainer
from repro.datasets.catalog import BUNDLED

database, question, attributes = BUNDLED["natality"]()
print(database.content_fingerprint())
m = Explainer(database, question, attributes).explanation_table("cube")
print(m.content_fingerprint())
main([
    "ask", "--dataset", "natality", "--top", "5", "--dir", "high",
    "--expr", "(q1 + 0.0001) / (q2 + 0.0001)",
    "--agg", "q1 := count(*) WHERE Birth.ap = 'good' AND Birth.race = 'Asian'",
    "--agg", "q2 := count(*) WHERE Birth.ap = 'poor' AND Birth.race = 'Asian'",
    "--attributes", ",".join(attributes),
])
"""


class TestHashSeedIndependence:
    def test_fingerprints_and_ranking_equal_under_two_hash_seeds(self):
        """Relations are sets, so *M*'s row order follows the hash seed;
        neither fingerprint nor the ranking may."""
        outputs = [
            subprocess.run(
                [sys.executable, "-c", _NATALITY_IDENTITY],
                capture_output=True,
                text=True,
                timeout=300,
                check=True,
                cwd=str(ROOT),
                env={
                    "PYTHONPATH": str(ROOT / "src"),
                    "PATH": "/usr/bin:/bin",
                    "PYTHONHASHSEED": seed,
                },
            ).stdout
            for seed in ("0", "1")
        ]
        lines = outputs[0].splitlines()
        assert len(lines) > 2 and "Birth." in outputs[0]
        assert outputs[0] == outputs[1]


class TestNullDimension:
    """A NULL in an explanation attribute of a selected row is still
    refused (ROADMAP 3(h) changes that); one in a row no ``q_j``
    selects is never read."""

    def test_null_in_a_selected_row_raises(self):
        db = _cents_database([(1, "a", NULL, "p", 1.5), (2, "b", "x", "q", 2.0)])
        with pytest.raises(QueryError, match="cube dimension 'T.h' contains NULL"):
            build_explanation_table(
                db, _cents_question(), ["T.g", "T.h"], check_additivity=False
            )

    def test_null_in_an_unselected_row_is_not_read(self):
        db = _cents_database([(1, "a", NULL, "q", 1.5), (2, "b", "x", "p", 2.0)])
        question = UserQuestion.high(
            single_query(
                AggregateQuery(
                    "q",
                    agg_sum("T.x", "q"),
                    Comparison("=", Col("T.w"), Const("p")),
                )
            )
        )
        m = build_explanation_table(
            db, question, ["T.g", "T.h"], check_additivity=False
        )
        assert m.q_original == {"q": 2.0}
        assert len(m) == 4
