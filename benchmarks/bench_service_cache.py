"""Service-layer serving benchmarks: cube cache and request coalescing.

Two acceptance properties of the serving subsystem, measured against a
live ``BackgroundServer`` over the Figure 12 workload (Q_Race on the
synthetic natality data, two explanation attributes):

* **Warm vs cold** — the first ``/v1/topk`` pays for Algorithm 1 (the
  per-aggregate cubes plus the outer join); every repeat is a cache
  lookup plus a top-K scan.  Hit/miss status and identical bodies are
  asserted; the ratio is reported (``benchmarks/e2e`` warm-explore vs
  cold-cube is the regression watch).
* **Coalescing** — 50 concurrent identical requests against a cold
  server trigger exactly one underlying explanation-table computation
  (observed via ``/v1/stats``), and all 50 responses are bit-identical
  to the ranking the offline :class:`~repro.core.Explainer` produces.
"""

import json
import time
from concurrent.futures import ThreadPoolExecutor

from conftest import print_series

from repro.core import Explainer
from repro.service import BackgroundServer, ExplanationService
from repro.service.protocol import ranking_payload

ROWS = 8_000
SEED = 7
ATTRS = ["Birth.marital", "Birth.prenatal"]
K = 5
WARM_ROUNDS = 20
CONCURRENCY = 50

REQUEST = {
    "dataset": "natality",
    "params": {"rows": ROWS, "seed": SEED},
    "attributes": ATTRS,
    "k": K,
}


def _offline_ranking(service):
    """The ground-truth ranking, computed without the server."""
    dataset = service.registry.resolve(
        "natality", {"rows": ROWS, "seed": SEED}
    )
    explainer = Explainer(
        dataset.database, dataset.default_question, ATTRS
    )
    return ranking_payload(explainer.top(K))


class TestServiceCacheSpeedup:
    def test_warm_topk_vs_cold(self, benchmark, json_record):
        service = ExplanationService()
        # Materialize the dataset up front so "cold" measures table
        # construction, not synthetic-data generation.
        service.registry.resolve("natality", {"rows": ROWS, "seed": SEED})

        with BackgroundServer(service, max_workers=16) as bg:
            client = bg.client()

            def measure():
                start = time.perf_counter()
                cold = client.topk(**REQUEST)
                cold_s = time.perf_counter() - start
                assert cold.cache_status == "miss"
                warm_times = []
                for _ in range(WARM_ROUNDS):
                    start = time.perf_counter()
                    warm = client.topk(**REQUEST)
                    warm_times.append(time.perf_counter() - start)
                    assert warm.cache_status == "hit"
                    assert warm.data == cold.data
                return cold_s, min(warm_times)

            cold_s, warm_s = benchmark.pedantic(measure, rounds=1, iterations=1)

        speedup = cold_s / max(warm_s, 1e-9)
        print_series(
            "Service cache: /v1/topk latency",
            [("cold", cold_s), ("warm (best)", warm_s), ("speedup", speedup)],
            unit="",
        )
        benchmark.extra_info["cold_s"] = cold_s
        benchmark.extra_info["warm_s"] = warm_s
        benchmark.extra_info["speedup"] = speedup
        json_record(
            "service_cache_speedup",
            cold_s=cold_s,
            warm_s=warm_s,
            speedup=speedup,
            rows=ROWS,
            attributes=ATTRS,
        )


class TestServiceCoalescing:
    def test_50_concurrent_requests_one_computation(
        self, benchmark, json_record
    ):
        service = ExplanationService()
        service.registry.resolve("natality", {"rows": ROWS, "seed": SEED})
        expected_ranking = _offline_ranking(service)

        with BackgroundServer(service, max_workers=16) as bg:

            def fire():
                client = bg.client()
                return client.topk(**REQUEST)

            def storm():
                with ThreadPoolExecutor(max_workers=CONCURRENCY) as pool:
                    return list(pool.map(lambda _: fire(), range(CONCURRENCY)))

            responses = benchmark.pedantic(storm, rounds=1, iterations=1)
            stats = bg.client().stats()

        built = stats["compute"]["tables_built"]
        statuses = [r.cache_status for r in responses]
        bodies = {json.dumps(r.data, sort_keys=True) for r in responses}
        print_series(
            "Service coalescing: 50 identical concurrent /v1/topk",
            [
                ("tables_built", built),
                ("distinct bodies", len(bodies)),
                ("miss", statuses.count("miss")),
                ("coalesced", statuses.count("coalesced")),
                ("hit", statuses.count("hit")),
            ],
        )
        benchmark.extra_info["tables_built"] = built
        benchmark.extra_info["statuses"] = {
            s: statuses.count(s) for s in set(statuses)
        }
        json_record(
            "service_coalescing",
            tables_built=built,
            distinct_bodies=len(bodies),
            concurrency=CONCURRENCY,
        )
        assert built == 1, f"expected 1 computation, saw {built}"
        assert len(bodies) == 1, "responses were not bit-identical"
        assert all(r.status == 200 for r in responses)
        assert responses[0].data["ranking"] == expected_ranking