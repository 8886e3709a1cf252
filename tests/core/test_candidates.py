"""Tests for candidate-explanation enumeration."""

import pytest

from repro.core.candidates import (
    active_domain,
    count_candidates,
    enumerate_explanations,
)
from repro.datasets import running_example as rex
from repro.engine.table import Table
from repro.engine.types import NULL
from repro.engine.universal import universal_table
from repro.errors import ExplanationError


@pytest.fixture
def universal():
    return universal_table(rex.database())


class TestActiveDomain:
    def test_values_sorted(self, universal):
        assert active_domain(universal, "Publication.year") == [2001, 2011]

    def test_limit(self, universal):
        assert active_domain(universal, "Author.name", limit=2) == ["CM", "JG"]

    def test_nulls_excluded(self):
        t = Table(["R.a"], [(1,), (NULL,), (2,)])
        assert active_domain(t, "R.a") == [1, 2]


class TestEnumeration:
    def test_single_attribute(self, universal):
        phis = list(enumerate_explanations(universal, ["Author.name"]))
        assert len(phis) == 3  # CM, JG, RR
        assert all(phi.size == 1 for phi in phis)

    def test_two_attributes(self, universal):
        phis = list(
            enumerate_explanations(
                universal, ["Author.name", "Publication.year"]
            )
        )
        # 3 + 2 singletons + 3*2 pairs = 11
        assert len(phis) == 11

    def test_max_atoms(self, universal):
        phis = list(
            enumerate_explanations(
                universal,
                ["Author.name", "Publication.year"],
                max_atoms=1,
            )
        )
        assert len(phis) == 5

    def test_include_trivial(self, universal):
        phis = list(
            enumerate_explanations(
                universal, ["Author.name"], include_trivial=True
            )
        )
        assert phis[0].is_trivial()
        assert len(phis) == 4

    def test_domain_limit(self, universal):
        phis = list(
            enumerate_explanations(
                universal, ["Author.name"], domain_limit=1
            )
        )
        assert len(phis) == 1

    def test_unqualified_attribute_rejected(self, universal):
        with pytest.raises(ExplanationError):
            list(enumerate_explanations(universal, ["name"]))

    def test_count_matches_enumeration(self, universal):
        attrs = ["Author.name", "Publication.year", "Publication.venue"]
        count = count_candidates(universal, attrs)
        phis = list(enumerate_explanations(universal, attrs))
        assert count == len(phis)

    def test_count_with_max_atoms(self, universal):
        attrs = ["Author.name", "Publication.year"]
        assert count_candidates(universal, attrs, max_atoms=1) == 5
