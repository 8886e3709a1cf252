"""Cache correctness: LRU order, byte budget, counters, and the
cached-equals-fresh ranking property across methods and backends."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Explainer
from repro.core.parsing import parse_question
from repro.engine.database import Database
from repro.engine.schema import single_table_schema
from repro.service import (
    DatasetRegistry,
    ExplanationService,
    ExplanationTableCache,
    ServiceRequest,
    estimate_table_bytes,
)
from repro.service.protocol import ranking_payload


def _table(rows=3):
    """A small finalized ExplanationTable to use as a cache value."""
    schema = single_table_schema(
        "T", ["id", "g"], ["id"], dtypes={"id": "int", "g": "str"}
    )
    db = Database(schema, {"T": [(i, f"v{i % rows}") for i in range(rows * 2)]})
    question = parse_question("high", "q1", ["q1 := count(*)"])
    return Explainer(db, question, ["T.g"]).explanation_table("cube")


class TestLRUAndCounters:
    def test_hit_miss_counters(self):
        cache = ExplanationTableCache(max_entries=4)
        m = _table()
        assert cache.get("a") is None
        cache.put("a", m)
        assert cache.get("a") is m
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.entries) == (1, 1, 1)

    def test_lru_eviction_order(self):
        cache = ExplanationTableCache(max_entries=2)
        m = _table()
        cache.put("a", m)
        cache.put("b", m)
        assert cache.get("a") is m  # refresh a: b is now the LRU entry
        cache.put("c", m)
        assert cache.keys() == ("a", "c")
        assert cache.peek("b") is None
        assert cache.stats().evictions == 1

    def test_refresh_does_not_duplicate(self):
        cache = ExplanationTableCache(max_entries=2)
        m = _table()
        cache.put("a", m)
        cache.put("a", m)
        assert len(cache) == 1

    def test_byte_budget_enforced(self):
        m = _table()
        size = estimate_table_bytes(m)
        cache = ExplanationTableCache(max_entries=100, max_bytes=int(size * 2.5))
        for key in ("a", "b", "c", "d"):
            cache.put(key, m)
        stats = cache.stats()
        assert stats.current_bytes <= stats.max_bytes
        assert stats.entries == 2
        assert stats.evictions == 2
        assert cache.keys() == ("c", "d")  # LRU evicted first

    def test_oversized_entry_refused(self):
        m = _table()
        cache = ExplanationTableCache(max_entries=4, max_bytes=10)
        assert cache.put("a", m) is False
        assert len(cache) == 0

    def test_invalidate_and_clear(self):
        cache = ExplanationTableCache(max_entries=4)
        m = _table()
        cache.put("a", m)
        assert cache.invalidate("a") is True
        assert cache.invalidate("a") is False
        cache.put("b", m)
        cache.clear()
        assert len(cache) == 0
        assert cache.stats().current_bytes == 0

    def test_put_leaves_columnar_rows_unbuilt(self, monkeypatch):
        from repro.engine.table import Table

        m = _table()

        def refuse(self):
            raise AssertionError("measuring M built its row tuples")

        monkeypatch.setattr(Table, "rows", refuse)
        assert ExplanationTableCache(max_entries=4).put("a", m)

    def test_estimate_same_in_either_layout(self):
        m = _table()
        columnar = estimate_table_bytes(m)
        m.table.rows()  # now the row tuples exist and are measured
        assert estimate_table_bytes(m) == columnar

    def test_estimate_positive_and_monotone(self):
        small, large = _table(rows=2), _table(rows=6)
        assert 0 < estimate_table_bytes(small) < estimate_table_bytes(large)


class TestBudgetCountsResident:
    def test_estimate_matches_bytes_held(self):
        """The byte budget counts what *M* holds resident: the estimate
        of a wide natality *M* is within half again of the bytes
        tracemalloc sees held once it is built.  U, its postings and the
        question's analysis are built first, so only *M* is new."""
        import gc
        import tracemalloc

        from repro.datasets import natality

        db = natality.generate(rows=20_000, seed=1)
        attributes = natality.wide_attributes()[:7]
        explainer = Explainer(db, natality.q_race_question(), attributes)
        explainer.explanation_table("cube")  # memoizes U and its postings
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            m = Explainer(
                db, natality.q_race_question(), attributes
            ).explanation_table("cube")
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(m) > 1_000
        assert 0.5 <= estimate_table_bytes(m) / held <= 1.5


class TestFingerprintInvalidation:
    def test_mutated_database_misses_cache(self):
        """A mutation changes the plan fingerprint, so the stale cached
        table can never be addressed again."""
        schema = single_table_schema(
            "T", ["id", "g"], ["id"], dtypes={"id": "int", "g": "str"}
        )
        db = Database(schema, {"T": [(1, "x"), (2, "y"), (3, "x")]})
        registry = DatasetRegistry(with_builtins=False)
        registry.register_database(
            "t",
            db,
            question=parse_question("high", "q1", ["q1 := count(*)"]),
            attributes=["T.g"],
        )
        service = ExplanationService(registry=registry)
        request = ServiceRequest.from_dict({"dataset": "t", "k": 3})

        first = service.topk(request)
        assert first.cache_status == "miss"
        again = service.topk(request)
        assert again.cache_status == "hit"
        assert again.payload == first.payload

        db.relation("T").insert((4, "y"))
        mutated = service.topk(request)
        assert mutated.cache_status == "miss"
        assert mutated.payload["fingerprint"] != first.payload["fingerprint"]
        assert mutated.payload["table_size"] >= first.payload["table_size"]
        assert service.stats_payload()["compute"]["tables_built"] == 2


    def test_separator_in_a_value_gets_its_own_fingerprint(self):
        """Two datasets whose rows differ only in where a ``\x1f`` sits
        once shared a fingerprint, and the second was served the
        first's table: an explanation naming a value it lacks."""
        schema = single_table_schema(
            "T",
            ["id", "a", "b"],
            ["id"],
            dtypes={"id": "int", "a": "str", "b": "str"},
        )
        registry = DatasetRegistry(with_builtins=False)
        for name, row in (("one", (0, "a\x1fs:b", "c")), ("two", (0, "a", "b\x1fs:c"))):
            registry.register_database(
                name,
                Database(schema, {"T": [row]}),
                question=parse_question("high", "q1", ["q1 := count(*)"]),
                attributes=["T.b"],
            )
        service = ExplanationService(registry=registry)
        one = service.topk(ServiceRequest.from_dict({"dataset": "one", "k": 1}))
        two = service.topk(ServiceRequest.from_dict({"dataset": "two", "k": 1}))
        assert two.cache_status == "miss"
        assert two.payload["fingerprint"] != one.payload["fingerprint"]
        assert "'c'" not in json.dumps(two.payload)


# -- cached == fresh property ------------------------------------------------

COMBOS = [
    ("cube", "memory"),
    ("cube", "sqlite"),
    ("naive", "memory"),
    ("indexed", "memory"),
]


@st.composite
def small_tables(draw):
    n = draw(st.integers(min_value=1, max_value=18))
    g1s = st.sampled_from(["x", "y", "z"])
    clss = st.sampled_from(["a", "b"])
    return [(i, draw(g1s), draw(clss)) for i in range(n)]


def _make_service(rows):
    schema = single_table_schema(
        "T",
        ["id", "g1", "cls"],
        ["id"],
        dtypes={"id": "int", "g1": "str", "cls": "str"},
    )
    db = Database(schema, {"T": rows})
    registry = DatasetRegistry(with_builtins=False)
    registry.register_database("t", db)
    return ExplanationService(registry=registry), db


QUESTION = {
    "dir": "high",
    "expr": "q1 / (q2 + 0.001)",
    "aggregates": ["q1 := count(*) WHERE T.cls = 'a'", "q2 := count(*)"],
}


class TestCachedEqualsFresh:
    @settings(max_examples=12)
    @given(rows=small_tables())
    @pytest.mark.parametrize(("method", "backend"), COMBOS)
    def test_cached_ranking_matches_fresh(self, method, backend, rows):
        service, db = _make_service(rows)
        request = ServiceRequest.from_dict(
            {
                "dataset": "t",
                "question": QUESTION,
                "attributes": ["T.g1", "T.cls"],
                "method": method,
                "backend": backend,
                "k": 8,
            }
        )
        cold = service.topk(request)
        warm = service.topk(request)
        assert cold.cache_status == "miss"
        assert warm.cache_status == "hit"
        assert warm.payload == cold.payload

        question = parse_question(
            QUESTION["dir"], QUESTION["expr"], QUESTION["aggregates"]
        )
        fresh = Explainer(
            db, question, ["T.g1", "T.cls"], backend=backend
        ).top(8, method=method)
        assert cold.payload["ranking"] == ranking_payload(fresh)
