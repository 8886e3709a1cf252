"""E5 — Example 4.1: the data-cube over the running example.

Regenerates the 11-row cube table printed in the paper and times the
single-pass cube against the naive plan it replaces: one ``group_by``
per subset of the grouping attributes, ``2^d`` scans in all.
"""

import pytest

from repro.datasets import running_example as rex
from repro.engine.aggregates import count_star
from repro.engine.cube import cube, grouping_sets
from repro.engine.groupby import group_by
from repro.engine.universal import universal_table


def cube_by_group_bys(table, dimensions, aggregates):
    """The cube as 2^d independent group-bys, one per grouping set."""
    return [group_by(table, gset, aggregates) for gset in grouping_sets(dimensions)]


@pytest.fixture(scope="module")
def name_year_table():
    u = universal_table(rex.database())
    return u.project(["Author.name", "Publication.year"], distinct=False).rename(
        {"Author.name": "name", "Publication.year": "year"}
    )


def test_example41_cube(benchmark, name_year_table):
    result = benchmark(
        cube, name_year_table, ["name", "year"], [count_star("c")]
    )
    print("\n== Example 4.1 cube ==")
    print(result.order_by(["name", "year"]).pretty(limit=20))
    assert len(result) == 11  # exactly the paper's table


def test_example41_cube_bruteforce(benchmark, name_year_table):
    result = benchmark(
        cube_by_group_bys, name_year_table, ["name", "year"], [count_star("c")]
    )
    assert sum(len(grouped) for grouped in result) == 11
