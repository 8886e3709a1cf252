"""Shared fixtures and helpers for the benchmark suite.

Every paper table/figure has one ``bench_*`` module.  Benchmarks use
seeded synthetic datasets (see DESIGN.md for the substitutions) at
scales that keep the full suite in the minutes range; the *shapes* of
the paper's plots — who wins, how times grow — are what we reproduce,
not SQL Server's absolute numbers.  Each module prints the series it
regenerates so ``pytest benchmarks/ --benchmark-only -s`` doubles as a
report generator; the same numbers are attached to
``benchmark.extra_info`` for machine consumption.

Machine-readable output: every ``bench_*`` script accepts a shared
``--json PATH`` flag::

    pytest benchmarks/bench_fig12_cube_vs_naive.py --json fig12.json

Each test that uses the ``benchmark`` fixture contributes one record —
its node id, ``extra_info`` series, and timing stats — collected by an
autouse fixture and written once at session end, so BENCH_*.json
trajectories can accumulate across runs without per-module plumbing.
Tests can add free-form records via the ``json_record`` fixture.
"""

import gc
import json
import time

import pytest

from repro.datasets import dblp, geodblp, natality


def pytest_addoption(parser):
    parser.addoption(
        "--json",
        action="store",
        default=None,
        metavar="PATH",
        help="write machine-readable benchmark results to PATH",
    )
    parser.addoption(
        "--preset",
        action="store",
        choices=("small", "full"),
        default="full",
        help="workload size for presettable benchmarks (CI smoke uses "
        "'small'; default 'full')",
    )
    parser.addoption(
        "--strategy",
        action="store",
        choices=("fixpoint", "closure"),
        default=None,
        help="pin program P's schedule for the convergence benchmarks "
        "(bench_fig5's strategy axis; default: chosen from the schema)",
    )


def pytest_configure(config):
    config._repro_json_records = []


def pytest_sessionfinish(session, exitstatus):
    path = session.config.getoption("--json", default=None)
    if not path:
        return
    records = getattr(session.config, "_repro_json_records", [])
    with open(path, "w") as fh:
        json.dump(
            {"records": records}, fh, indent=2, sort_keys=True, default=str
        )
        fh.write("\n")


@pytest.fixture(scope="session")
def preset(request):
    """The ``--preset`` workload size ('small' or 'full')."""
    return request.config.getoption("--preset")


@pytest.fixture(scope="session")
def strategy_option(request):
    """The ``--strategy`` name, or None to let the schema pick."""
    return request.config.getoption("--strategy")


@pytest.fixture
def json_record(request):
    """Append one free-form record to the ``--json`` report."""

    def record(name, **payload):
        request.config._repro_json_records.append(
            {"bench": name, "test": request.node.nodeid, **payload}
        )

    return record


@pytest.fixture(autouse=True)
def _collect_benchmark_json(request):
    """Auto-capture ``benchmark`` extra_info + stats for ``--json``."""
    wanted = request.config.getoption("--json", default=None) is not None
    bench = (
        request.getfixturevalue("benchmark")
        if wanted and "benchmark" in request.fixturenames
        else None
    )
    yield
    if bench is None:
        return
    record = {
        "test": request.node.nodeid,
        "extra_info": dict(getattr(bench, "extra_info", {}) or {}),
    }
    stats = getattr(bench, "stats", None)
    inner = getattr(stats, "stats", None)
    if inner is not None:
        record["stats"] = {
            name: getattr(inner, name)
            for name in ("min", "max", "mean", "stddev", "rounds")
            if hasattr(inner, name)
        }
    request.config._repro_json_records.append(record)

# Scales chosen so the whole benchmark suite completes in minutes on a
# laptop while still showing the growth trends of Figures 12-14.
# 40k rows keeps the poor-APGAR Asian subpopulation (~30 births) large
# enough for stable Figure 10 rankings.
NATALITY_ROWS = 40_000
NATALITY_SEED = 2014
DBLP_SCALE = 1.0
DBLP_SEED = 3
GEODBLP_SCALE = 1.0
GEODBLP_SEED = 5


@pytest.fixture(scope="session")
def natality_db():
    """The benchmark natality instance (session-cached)."""
    return natality.generate(rows=NATALITY_ROWS, seed=NATALITY_SEED)


@pytest.fixture(scope="session")
def dblp_db():
    """The benchmark DBLP instance (session-cached)."""
    return dblp.generate(scale=DBLP_SCALE, seed=DBLP_SEED)


@pytest.fixture(scope="session")
def geodblp_db():
    """The benchmark Geo-DBLP instance (session-cached)."""
    return geodblp.generate(scale=GEODBLP_SCALE, seed=GEODBLP_SEED)


def print_ranking(title, ranking):
    """Render a ranked-explanation table to stdout."""
    print(f"\n== {title} ==")
    for r in ranking:
        degree = (
            f"{r.degree:.4g}"
            if isinstance(r.degree, (int, float))
            else str(r.degree)
        )
        print(f"  {r.rank:>2}. {degree:>12}  {r.explanation}")


def min_time(run, setup=tuple):
    """The least wall time of ``run(*setup())`` over 3 rounds.

    Each round gets fresh arguments from *setup* (untimed) and starts
    after a full collection, so a gen-2 pass that lands in one round
    cannot decide a timing gate.
    """
    best = float("inf")
    for _ in range(3):
        args = setup()
        gc.collect()
        start = time.perf_counter()
        run(*args)
        best = min(best, time.perf_counter() - start)
    return best


def print_series(title, pairs, unit=""):
    """Render an (x, y) series to stdout."""
    print(f"\n== {title} ==")
    for x, y in pairs:
        if isinstance(y, float):
            print(f"  {x:>12}: {y:.4f}{unit}")
        else:
            print(f"  {x:>12}: {y}{unit}")
