"""End-to-end tests against a live ``BackgroundServer``.

Covers the happy path (health, stats, topk/explain correctness, the
miss -> hit cache transition) and every failure path the issue calls
out: malformed predicates, unknown datasets/backends, timeouts, and
protocol-level errors — all of which must surface as structured JSON,
never a traceback.
"""

import importlib.util
import json
import re
import time

import pytest

from repro.core import Explainer
from repro.core.parsing import parse_question
from repro.engine.database import Database
from repro.engine.schema import single_table_schema
from repro.service import (
    BackgroundServer,
    DatasetRegistry,
    ExplanationService,
)
from repro.service.protocol import ranking_payload

DUCKDB_MISSING = importlib.util.find_spec("duckdb") is None

K = 3


@pytest.fixture(scope="module")
def live():
    """One shared server over the built-in running example."""
    service = ExplanationService()
    with BackgroundServer(service) as bg:
        yield bg


@pytest.fixture(scope="module")
def client(live):
    return live.client()


class TestHappyPath:
    def test_health(self, client):
        body = client.health()
        assert body["status"] == "ok"
        import repro

        assert body["version"] == repro.__version__
        assert "running-example" in body["datasets"]
        assert body["backends"]["memory"] is True
        assert body["backends"]["sqlite"] is True
        assert set(body) == {
            "status", "version", "datasets", "backends", "refresh"
        }

    def test_topk_matches_offline_and_cache_warms(self, live, client):
        first = client.topk(dataset="running-example", k=K)
        assert first.status == 200
        second = client.topk(dataset="running-example", k=K)
        assert second.cache_status in ("hit", "coalesced")
        assert second.data == first.data

        dataset = live.service.registry.resolve("running-example", {})
        offline = Explainer(
            dataset.database,
            dataset.default_question,
            dataset.default_attributes,
        ).top(K)
        assert first.data["ranking"] == ranking_payload(offline)
        assert first.data["dataset"] == "running-example"
        assert first.data["backend"] == "memory"
        # The payload carries the *plan* fingerprint (database content +
        # question + attributes + method + backend), a 64-char sha256.
        assert len(first.data["fingerprint"]) == 64
        assert first.data["fingerprint"] != dataset.fingerprint

    def test_explain_payload_shape(self, client):
        body = client.explain(dataset="running-example", k=K).data
        assert body["method"] == "cube"
        assert body["direction"] in ("high", "low")
        assert isinstance(body["original_value"], (int, float))
        assert body["table_size"] > 0
        assert len(body["top_by_intervention"]) <= K
        assert len(body["top_by_aggravation"]) <= K

    def test_stats_counts_requests(self, client):
        before = client.stats()
        client.topk(dataset="running-example", k=K)
        after = client.stats()
        assert after["requests"]["topk"] >= before["requests"]["topk"] + 1
        assert after["cache"]["hits"] >= before["cache"]["hits"]
        assert after["compute"]["tables_built"] >= 1
        assert set(after) == {
            "requests", "compute", "cache", "incremental", "inflight"
        }

    def test_sqlite_backend_round_trip(self, client):
        response = client.topk(
            dataset="running-example", backend="sqlite", k=K
        )
        assert response.status == 200
        assert response.data["backend"] == "sqlite"
        memory = client.topk(dataset="running-example", k=K)
        assert response.data["ranking"] == memory.data["ranking"]


class TestFailurePaths:
    def _error(self, response):
        assert isinstance(response.data, dict), response.data
        assert set(response.data) == {"error"}
        text = json.dumps(response.data)
        assert "Traceback" not in text
        return response.data["error"]

    def test_malformed_predicate_is_structured_400(self, client):
        response = client.topk(
            raise_on_error=False,
            dataset="running-example",
            question={
                "dir": "high",
                "expr": "q1",
                "aggregates": ["q1 := count(*) WHERE ???"],
            },
        )
        assert response.status == 400
        error = self._error(response)
        assert error["type"]  # a stable snake_case kind, never a traceback
        assert "question" in error["message"]

    def test_bad_question_shape(self, client):
        response = client.topk(
            raise_on_error=False,
            dataset="running-example",
            question={"dir": "sideways", "expr": "q", "aggregates": ["x"]},
        )
        assert response.status == 400
        assert "dir" in self._error(response)["message"]

    def test_unknown_dataset_is_404(self, client):
        response = client.topk(raise_on_error=False, dataset="nope")
        assert response.status == 404
        error = self._error(response)
        assert error["type"] == "unknown_dataset"
        assert "nope" in error["message"]

    def test_unknown_backend_is_400(self, client):
        response = client.topk(
            raise_on_error=False, dataset="running-example", backend="oracle9i"
        )
        assert response.status == 400
        assert self._error(response)["type"] == "unknown_backend"

    def test_unknown_endpoint_is_404(self, client):
        response = client.request("GET", "/v1/nope")
        assert response.status == 404
        assert self._error(response)["type"] == "unknown_endpoint"

    def test_wrong_method_is_405(self, client):
        response = client.request("GET", "/v1/topk")
        assert response.status == 405
        assert self._error(response)["type"] == "method_not_allowed"

    def test_bad_json_body_is_400(self, live):
        import http.client

        connection = http.client.HTTPConnection(
            live.host, live.port, timeout=30
        )
        try:
            connection.request(
                "POST",
                "/v1/topk",
                body=b"{not json",
                headers={"Content-Type": "application/json"},
            )
            raw = connection.getresponse()
            data = json.loads(raw.read().decode("utf-8"))
        finally:
            connection.close()
        assert raw.status == 400
        assert data["error"]["type"] == "bad_json"

    def test_unknown_field_is_400(self, client):
        response = client.topk(
            raise_on_error=False, dataset="running-example", frobnicate=1
        )
        assert response.status == 400
        error = self._error(response)
        assert error["type"] == "unknown_field"
        assert "frobnicate" in error["message"]

    def test_invalid_k_is_400(self, client):
        response = client.topk(
            raise_on_error=False, dataset="running-example", k=0
        )
        assert response.status == 400
        assert "k must be" in self._error(response)["message"]

    def test_client_raises_structured_error_by_default(self, client):
        from repro.service import ClientError

        with pytest.raises(ClientError) as excinfo:
            client.topk(dataset="nope")
        assert excinfo.value.status == 404
        assert excinfo.value.kind == "unknown_dataset"


class TestTimeouts:
    def test_slow_computation_times_out_as_504(self):
        registry = DatasetRegistry(with_builtins=False)
        schema = single_table_schema(
            "T", ["id", "g"], ["id"], dtypes={"id": "int", "g": "str"}
        )
        db = Database(schema, {"T": [(1, "x"), (2, "y")]})
        question = parse_question("high", "q1", ["q1 := count(*)"])

        def slow_loader():
            time.sleep(3.0)
            return db, question, ("T.g",)

        registry.register_loader("slow", slow_loader)
        service = ExplanationService(registry=registry)
        with BackgroundServer(service) as bg:
            response = bg.client().topk(
                raise_on_error=False, dataset="slow", timeout_s=0.2
            )
            assert response.status == 504
            assert response.data["error"]["type"] == "timeout"
            stats = bg.client().stats()
            assert stats["requests"]["timeouts"] >= 1

    def test_server_side_timeout_cap_applies(self):
        registry = DatasetRegistry(with_builtins=False)

        def slow_loader():
            time.sleep(3.0)
            return None, None, None

        registry.register_loader("slow", slow_loader)
        service = ExplanationService(registry=registry)
        with BackgroundServer(service, request_timeout=0.2) as bg:
            response = bg.client().topk(raise_on_error=False, dataset="slow")
            assert response.status == 504
            assert response.data["error"]["type"] == "timeout"


class TestRequestLimits:
    def test_oversized_body_is_413(self):
        service = ExplanationService()
        with BackgroundServer(service, max_request_bytes=256) as bg:
            response = bg.client().topk(
                raise_on_error=False,
                dataset="running-example",
                attributes=["Author.name"] * 200,
            )
            assert response.status == 413
            assert response.data["error"]["type"] == "payload_too_large"


@pytest.mark.skipif(
    not DUCKDB_MISSING, reason="duckdb is installed; no fallback to observe"
)
class TestGracefulDegradation:
    def test_duckdb_request_degrades_to_memory_with_warning(self, client):
        response = client.topk(
            dataset="running-example", backend="duckdb", k=K
        )
        assert response.status == 200
        assert response.data["backend"] == "memory"
        assert "duckdb" in response.warning
        assert response.data["warnings"]  # static warning is in the body too
        memory = client.topk(dataset="running-example", k=K)
        assert response.data["ranking"] == memory.data["ranking"]


class TestCoalescingOverHTTP:
    def test_concurrent_identical_requests_coalesce(self):
        from concurrent.futures import ThreadPoolExecutor

        service = ExplanationService()
        service.registry.resolve("running-example", {})
        with BackgroundServer(service, max_workers=8) as bg:

            def fire(_):
                return bg.client().topk(dataset="running-example", k=K)

            with ThreadPoolExecutor(max_workers=12) as pool:
                responses = list(pool.map(fire, range(12)))
            stats = bg.client().stats()

        assert stats["compute"]["tables_built"] == 1
        bodies = {json.dumps(r.data, sort_keys=True) for r in responses}
        assert len(bodies) == 1
        assert all(r.status == 200 for r in responses)


class TestMetricsEndpoint:
    """`/v1/metrics` smoke: valid Prometheus text over a warm service."""

    LINE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [0-9.eE+-]+$")

    def test_metrics_is_prometheus_text(self, client):
        client.topk(dataset="running-example", k=K)  # warm one request
        response = client.request("GET", "/v1/metrics")
        assert response.status == 200
        assert response.headers["content-type"].startswith(
            "text/plain; version=0.0.4"
        )
        text = response.data
        assert isinstance(text, str) and text.endswith("\n")
        for line in text.splitlines():
            if not line or line.startswith("#"):
                continue
            assert self.LINE.match(line), f"malformed sample line: {line!r}"

    def test_metrics_covers_the_pipeline(self, client):
        text = client.request("GET", "/v1/metrics").data
        assert "# TYPE repro_requests_total counter" in text
        assert '"topk"' in text or 'kind="topk"' in text
        assert "# TYPE repro_cache_hits_total counter" in text
        assert "# TYPE repro_request_seconds histogram" in text
        assert 'repro_request_seconds_bucket{endpoint="/v1/topk",le="+Inf"}' in text
        # Phase histograms live on the process-global registry and are
        # merged into the exposition: a topk request runs the cube.
        assert "# TYPE repro_phase_seconds histogram" in text
        assert 'phase="universal_table"' in text

    def test_timings_block_is_opt_in(self, client):
        without = client.topk(dataset="running-example", k=K)
        assert "timings" not in without.data
        with_timings = client.topk(
            dataset="running-example", k=K, include_timings=True
        )
        timings = with_timings.data["timings"]
        assert timings["cache"] in ("miss", "hit", "coalesced")
        assert timings["total_s"] >= 0
        assert set(timings) >= {"cache", "total_s"}
