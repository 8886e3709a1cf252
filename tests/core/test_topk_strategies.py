"""Tests for the three Section 4.3 top-K strategies."""

import pytest

from repro.core.cube_algorithm import MU_AGGR, MU_INTERV, ExplanationTable
from repro.core.topk import (
    STRATEGIES,
    top_k_explanations,
    top_k_minimal_append,
    top_k_minimal_self_join,
    top_k_no_minimal,
)
from repro.engine.table import Table
from repro.engine.types import DUMMY
from repro.errors import ExplanationError

from support.topk import dominated_rows


def make_m(rows, attributes=("R.a", "R.b")):
    """Build an ExplanationTable from (a, b, mu) triples."""
    table = Table(
        list(attributes) + ["v_q", MU_INTERV, MU_AGGR],
        [(a, b, 0, mu, mu) for a, b, mu in rows],
    )
    return ExplanationTable(
        table=table,
        attributes=tuple(attributes),
        aggregate_names=("q",),
        q_original={"q": 0},
    )


@pytest.fixture
def redundancy_m():
    """The Section 4.3 redundancy situation: φ3 = [a=RR ∧ b=MS] has the
    same degree as both of its generalizations φ1 = [a=RR] and
    φ2 = [b=MS], so φ3 is dominated."""
    return make_m(
        [
            ("RR", DUMMY, 10.0),   # φ1 minimal
            (DUMMY, "MS", 10.0),   # φ2 minimal
            ("RR", "MS", 10.0),    # φ3 dominated by both
            ("JG", DUMMY, 7.0),
            (DUMMY, DUMMY, 99.0),  # trivial row: always excluded
        ]
    )


class TestNoMinimal:
    def test_returns_dominated_rows(self, redundancy_m):
        top = top_k_no_minimal(redundancy_m, 3)
        texts = [str(r.explanation) for r in top]
        assert any("RR" in t and "MS" in t for t in texts)  # φ3 present

    def test_excludes_trivial(self, redundancy_m):
        top = top_k_no_minimal(redundancy_m, 10)
        assert all(not r.explanation.is_trivial() for r in top)
        assert len(top) == 4

    def test_ranks_sequential(self, redundancy_m):
        top = top_k_no_minimal(redundancy_m, 4)
        assert [r.rank for r in top] == [1, 2, 3, 4]


class TestDomination:
    def test_dominated_rows_found(self, redundancy_m):
        dominated = dominated_rows(redundancy_m)
        assert len(dominated) == 1
        row = next(iter(dominated))
        assert row[0] == "RR" and row[1] == "MS"

    def test_higher_degree_specialization_not_dominated(self):
        m = make_m(
            [
                ("RR", DUMMY, 5.0),
                ("RR", "MS", 10.0),  # more specific but strictly better
            ]
        )
        assert dominated_rows(m) == set()

    def test_equal_degree_specialization_dominated(self):
        m = make_m([("RR", DUMMY, 5.0), ("RR", "MS", 5.0)])
        assert len(dominated_rows(m)) == 1

    def test_lower_degree_specialization_dominated(self):
        m = make_m([("RR", DUMMY, 5.0), ("RR", "MS", 3.0)])
        assert len(dominated_rows(m)) == 1


class TestMinimalStrategies:
    def test_self_join_removes_redundant(self, redundancy_m):
        top = top_k_minimal_self_join(redundancy_m, 10)
        texts = [str(r.explanation) for r in top]
        assert len(top) == 3
        assert not any("RR" in t and "MS" in t for t in texts)

    def test_append_removes_redundant(self, redundancy_m):
        top = top_k_minimal_append(redundancy_m, 10)
        texts = [str(r.explanation) for r in top]
        assert len(top) == 3
        assert not any("RR" in t and "MS" in t for t in texts)

    def test_strategies_agree(self, redundancy_m):
        a = top_k_minimal_self_join(redundancy_m, 3)
        b = top_k_minimal_append(redundancy_m, 3)
        assert [str(r.explanation) for r in a] == [
            str(r.explanation) for r in b
        ]
        assert [r.degree for r in a] == [r.degree for r in b]

    def test_append_prefers_shorter_on_ties(self):
        m = make_m(
            [
                ("X", "Y", 5.0),
                ("X", DUMMY, 5.0),  # same degree, more general
            ]
        )
        top = top_k_minimal_append(m, 1)
        assert top[0].explanation.size == 1

    def test_append_k_larger_than_supply(self, redundancy_m):
        top = top_k_minimal_append(redundancy_m, 99)
        assert len(top) == 3

    def test_self_join_on_three_levels(self):
        m = make_m(
            [
                ("X", DUMMY, 5.0),
                ("X", "Y", 5.0),
                ("X", "Z", 9.0),  # better than its generalization
            ]
        )
        top = top_k_minimal_self_join(m, 10)
        texts = {str(r.explanation) for r in top}
        assert len(top) == 2
        assert any("'Z'" in t for t in texts)

    def test_append_specialization_pruned_even_if_unseen(self):
        """After φ1=[X] is output, [X∧Y] is pruned even though it was
        never output itself."""
        m = make_m(
            [
                ("X", DUMMY, 5.0),
                ("X", "Y", 4.0),
                (DUMMY, "W", 3.0),
            ]
        )
        top = top_k_minimal_append(m, 3)
        texts = [str(r.explanation) for r in top]
        assert len(top) == 2
        assert "Y" not in "".join(texts)


class TestDispatch:
    def test_dispatch(self, redundancy_m):
        for name in STRATEGIES:
            result = top_k_explanations(redundancy_m, 2, strategy=name)
            assert len(result) == 2

    def test_unknown_strategy(self, redundancy_m):
        with pytest.raises(ExplanationError):
            top_k_explanations(redundancy_m, 2, strategy="zzz")

    def test_by_aggravation_column(self, redundancy_m):
        result = top_k_explanations(redundancy_m, 2, by=MU_AGGR)
        assert len(result) == 2


class TestSpecificMinimality:
    """Footnote 12: the alternative minimality preferring specific
    (more-condition) explanations."""

    @pytest.fixture
    def layered_m(self):
        return make_m(
            [
                ("RR", DUMMY, 10.0),   # generalization
                ("RR", "MS", 10.0),    # equal-degree specialization
                ("JG", DUMMY, 7.0),
                ("JG", "X", 6.0),      # worse specialization
            ]
        )

    def test_specific_domination_flips(self, layered_m):
        general = dominated_rows(layered_m, minimality="general")
        specific = dominated_rows(layered_m, minimality="specific")
        # General: the (RR, MS) specialization is dominated.
        assert ("RR", "MS", 0, 10.0, 10.0) in general
        # Specific: the (RR, -) generalization is dominated instead.
        assert ("RR", DUMMY, 0, 10.0, 10.0) in specific
        assert ("RR", "MS", 0, 10.0, 10.0) not in specific

    def test_worse_specialization_not_a_dominator(self, layered_m):
        specific = dominated_rows(layered_m, minimality="specific")
        # (JG, X) has lower degree than (JG, -): it dominates nothing.
        assert ("JG", DUMMY, 0, 7.0, 7.0) not in specific

    def test_self_join_specific(self, layered_m):
        top = top_k_minimal_self_join(
            layered_m, 10, minimality="specific"
        )
        texts = [str(r.explanation) for r in top]
        assert any("'MS'" in t for t in texts)
        # The dominated generalization [a=RR] is gone; [a=RR ∧ b=MS] stays.
        assert not any(t == "[R.a = 'RR']" for t in texts)

    def test_append_specific_agrees_with_self_join(self, layered_m):
        a = top_k_minimal_self_join(layered_m, 10, minimality="specific")
        b = top_k_minimal_append(layered_m, 10, minimality="specific")
        assert [str(r.explanation) for r in a] == [
            str(r.explanation) for r in b
        ]

    def test_tie_break_prefers_longer(self):
        m = make_m([("X", DUMMY, 5.0), ("X", "Y", 5.0)])
        top = top_k_minimal_append(m, 1, minimality="specific")
        assert top[0].explanation.size == 2

    def test_invalid_minimality_rejected(self, layered_m):
        with pytest.raises(ExplanationError):
            top_k_no_minimal(layered_m, 1, minimality="zzz")
        with pytest.raises(ExplanationError):
            dominated_rows(layered_m, minimality="zzz")

    def test_dispatch_with_minimality(self, layered_m):
        from repro.core.topk import top_k_explanations

        result = top_k_explanations(
            layered_m, 2, strategy="minimal_append", minimality="specific"
        )
        assert len(result) == 2
