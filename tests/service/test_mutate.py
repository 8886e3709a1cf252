"""Tests for ``POST /v1/mutate`` and the incremental refresh mode.

Covers the mutate wire protocol (happy path, validation failures), the
incremental session lifecycle behind ``refresh="incremental"`` (patch
on mutate, re-cache under the successor fingerprint, served tables
identical to a cold service), and the observability surface (cache
origin counts, ``/v1/stats`` incremental block).
"""

import re

import pytest

from repro.core.explainer import Explainer
from repro.datasets import natality
from repro.engine.closure import ClosureIndex
from repro.obs import get_registry, render_prometheus
from repro.service.errors import BadRequestError
from repro.service import (
    BackgroundServer,
    ExplanationService,
    MutateRequest,
    MutationSpec,
    ServiceRequest,
    ranking_payload,
)

ROWS = 400
SEED = 7
PARAMS = {"rows": ROWS, "seed": SEED}
ATTRS = ["Birth.sex", "Birth.marital"]

EXPLAIN = {
    "dataset": "natality",
    "params": PARAMS,
    "attributes": ATTRS,
    "method": "cube",
}


def _incremental_service():
    return ExplanationService(refresh="incremental")


def _birth_rows(service, n, *, offset=0):
    db = service.registry.resolve("natality", PARAMS).database
    return [list(r) for r in db.relation("Birth").row_list()[offset : offset + n]]


class TestProtocol:
    def test_request_parses(self):
        request = MutateRequest.from_dict(
            {
                "dataset": "natality",
                "params": PARAMS,
                "mutations": [
                    {"relation": "Birth", "delete": [[1, 2]], "insert": []}
                ],
            }
        )
        assert request.dataset == "natality"
        assert isinstance(request.mutations[0], MutationSpec)

    def test_empty_mutations_rejected(self):
        with pytest.raises(BadRequestError, match="mutations"):
            MutateRequest.from_dict({"dataset": "natality", "mutations": []})

    def test_unknown_field_rejected(self):
        with pytest.raises(BadRequestError):
            MutateRequest.from_dict(
                {
                    "dataset": "natality",
                    "mutations": [{"relation": "Birth", "nope": []}],
                }
            )


class TestMutateEndpoint:
    def test_mutate_changes_fingerprint(self):
        service = _incremental_service()
        with BackgroundServer(service) as bg:
            client = bg.client()
            victims = _birth_rows(service, 3)
            response = client.mutate(
                dataset="natality",
                params=PARAMS,
                mutations=[{"relation": "Birth", "delete": victims}],
            )
            assert response.status == 200
            body = response.data
            assert body["deleted"] == 3
            assert body["inserted"] == 0
            assert body["fingerprint"] != body["previous_fingerprint"]
            assert body["refresh"] == "incremental"

    def test_unknown_relation_is_400(self):
        service = _incremental_service()
        with BackgroundServer(service) as bg:
            response = bg.client().mutate(
                dataset="natality",
                params=PARAMS,
                mutations=[{"relation": "Nope", "insert": [[1]]}],
                raise_on_error=False,
            )
            assert response.status == 400
            assert response.data["error"]["type"] == "schema_error"

    def test_arity_mismatch_is_400(self):
        service = _incremental_service()
        with BackgroundServer(service) as bg:
            response = bg.client().mutate(
                dataset="natality",
                params=PARAMS,
                mutations=[{"relation": "Birth", "insert": [[1, 2]]}],
                raise_on_error=False,
            )
            assert response.status == 400
            assert "arity" in response.data["error"]["message"]


class TestIncrementalServing:
    def test_mutate_patches_sessions_and_rewarns_cache(self):
        service = _incremental_service()
        with BackgroundServer(service) as bg:
            client = bg.client()
            first = client.explain(**EXPLAIN)
            assert first.cache_status == "miss"
            victims = _birth_rows(service, 5)
            body = client.mutate(
                dataset="natality",
                params=PARAMS,
                mutations=[{"relation": "Birth", "delete": victims}],
            ).data
            assert len(body["patched"]) == 1
            assert body["patched"][0]["strategy"] == "patched"
            # The patched table was re-cached under the successor
            # fingerprint: the next read is a hit, not a rebuild.
            second = client.explain(**EXPLAIN)
            assert second.cache_status == "hit"
            assert second.data != first.data

    def test_served_table_identical_to_cold_service(self):
        warm_service = _incremental_service()
        with BackgroundServer(warm_service) as bg:
            client = bg.client()
            client.explain(**EXPLAIN)
            victims = _birth_rows(warm_service, 5)
            client.mutate(
                dataset="natality",
                params=PARAMS,
                mutations=[{"relation": "Birth", "delete": victims}],
            )
            warm = client.explain(**EXPLAIN)

        # A fresh full-refresh service over the same mutated state.
        cold_service = ExplanationService(refresh="full")
        db = cold_service.registry.resolve("natality", PARAMS).database
        db.relation("Birth").delete_many(
            [tuple(row) for row in victims]
        )
        with BackgroundServer(cold_service) as bg:
            cold = bg.client().explain(**EXPLAIN)
        comparable = (
            "q_original",
            "original_value",
            "table_size",
            "top_by_intervention",
            "top_by_aggravation",
            "fingerprint",
        )
        for key in comparable:
            assert warm.data[key] == cold.data[key], key

    def test_stats_expose_incremental_counters(self):
        service = _incremental_service()
        with BackgroundServer(service) as bg:
            client = bg.client()
            client.explain(**EXPLAIN)
            client.mutate(
                dataset="natality",
                params=PARAMS,
                mutations=[
                    {"relation": "Birth", "delete": _birth_rows(service, 2)}
                ],
            )
            stats = client.stats()
            block = stats["incremental"]
            assert block["mode"] == "incremental"
            assert block["sessions"] == 1
            assert block["patchable_sessions"] == 1
            assert block["patches"] >= 1
            cache = stats["cache"]
            assert cache["built_entries"] >= 1
            assert cache["patched_entries"] >= 1

    def test_stats_is_a_view_of_the_metrics_registry(self):
        """After a mixed explain/topk/analyze/mutate/error sequence,
        every count in ``/v1/stats`` equals the series ``/v1/metrics``
        renders — there is one counter store, not two."""
        service = _incremental_service()
        with BackgroundServer(service) as bg:
            client = bg.client()
            client.explain(**EXPLAIN)
            client.topk(**EXPLAIN, k=3)
            client.analyze(**EXPLAIN)
            client.mutate(
                dataset="natality",
                params=PARAMS,
                mutations=[
                    {"relation": "Birth", "delete": _birth_rows(service, 2)}
                ],
            )
            client.explain(**EXPLAIN)
            assert not client.topk(dataset="nope", raise_on_error=False).ok
            assert not client.request("GET", "/v1/nope").ok
            stats = client.stats()
            text = client.request("GET", "/v1/metrics").data

        # Drop the process-wide registry appended after the service's
        # own: sessions other tests ran repeat repro_incremental_* there.
        text = text.removesuffix(render_prometheus(get_registry()))
        series = {}
        for line in text.splitlines():
            if line and not line.startswith("#"):
                name, _, value = line.rpartition(" ")
                family, _, labels = name.partition("{")
                pairs = frozenset(re.findall(r'(\w+)="([^"]*)"', labels))
                series[family, pairs] = float(value)

        def by(family, label):
            return {
                dict(pairs)[label]: value
                for (name, pairs), value in series.items()
                if name == family
            }

        # The /v1/metrics request itself came after the stats snapshot.
        assert by("repro_requests_total", "kind") == {
            **stats["requests"],
            "metrics": 1,
        }
        assert stats["requests"]["errors"] == 2
        assert stats["compute"] == {
            "fallbacks": 0,
            **by("repro_compute_total", "kind"),
            "coalesced_waits": by("repro_singleflight_total", "outcome")[
                "coalesced"
            ],
        }
        assert stats["compute"]["tables_built"] == 1
        for key, family in {
            "hits": "repro_cache_hits_total",
            "misses": "repro_cache_misses_total",
            "evictions": "repro_cache_evictions_total",
            "entries": "repro_cache_entries",
            "current_bytes": "repro_cache_bytes",
            "built_entries": "repro_cache_built_entries",
            "patched_entries": "repro_cache_patched_entries",
        }.items():
            assert stats["cache"][key] == series[family, frozenset()], key
        incremental = stats["incremental"]
        assert incremental["patches"] == 1
        assert incremental["patches"] == series[
            "repro_incremental_patches_total", frozenset()
        ]
        assert incremental["fallbacks"] == by(
            "repro_incremental_fallbacks_total", "reason"
        )
        assert stats["inflight"] == series["repro_inflight_builds", frozenset()]

    def test_cli_mutate_subcommand(self, capsys):
        import json

        from repro.cli import main

        service = _incremental_service()
        with BackgroundServer(service) as bg:
            bg.client().explain(**EXPLAIN)
            victims = _birth_rows(service, 2)
            mutations = json.dumps(
                [{"relation": "Birth", "delete": victims}]
            )
            rc = main(
                [
                    "mutate",
                    "natality",
                    "--mutations",
                    mutations,
                    "--params",
                    json.dumps(PARAMS),
                    "--host",
                    bg.host,
                    "--port",
                    str(bg.port),
                ]
            )
        out = capsys.readouterr().out
        assert rc == 0
        assert "-2 rows" in out or "deleted" in out
        assert "patched" in out

    def test_closure_strategy_fresh_after_mutate(self):
        # PR-8 regression: program P over DBLP (back-and-forth keys, so
        # the closure schedule) caches a cascade closure index per
        # database version.  POST /v1/mutate must invalidate it — a
        # stale index would either raise or serve pre-mutation deltas.
        # The served table after the mutation has to match a cold
        # service over the same mutated state.
        params = {"scale": 0.1, "seed": 2014}
        explain = {"dataset": "dblp", "params": params, "method": "indexed"}
        warm_service = _incremental_service()
        with BackgroundServer(warm_service) as bg:
            client = bg.client()
            first = client.explain(**explain)
            db = warm_service.registry.resolve("dblp", params).database
            index = ClosureIndex.for_database(db)  # the one `first` built
            # New co-authorships for the top-ranked institution add
            # cascade edges the old index lacks, so its degree moves.
            authored = db.relation("Authored").rows()
            links = [
                [author[0], pub[0]]
                for author in db.relation("Author").row_list()
                if author[2] == "bell-labs.com"
                for pub in db.relation("Publication").row_list()[:20]
                if (author[0], pub[0]) not in authored
            ]
            client.mutate(
                dataset="dblp",
                params=params,
                mutations=[{"relation": "Authored", "insert": links}],
            )
            assert index.stale
            warm = client.explain(**explain)
            assert warm.data["fingerprint"] != first.data["fingerprint"]

        cold_service = ExplanationService(refresh="full")
        db = cold_service.registry.resolve("dblp", params).database
        db.relation("Authored").insert_many([tuple(row) for row in links])
        with BackgroundServer(cold_service) as bg:
            cold = bg.client().explain(**explain)
        comparable = (
            "q_original",
            "original_value",
            "table_size",
            "top_by_intervention",
            "top_by_aggravation",
            "fingerprint",
        )
        for key in comparable:
            assert warm.data[key] == cold.data[key], key

    def test_full_mode_has_no_sessions(self):
        service = ExplanationService(refresh="full")
        with BackgroundServer(service) as bg:
            client = bg.client()
            client.explain(**EXPLAIN)
            body = client.mutate(
                dataset="natality",
                params=PARAMS,
                mutations=[
                    {"relation": "Birth", "delete": _birth_rows(service, 2)}
                ],
            ).data
            assert body["patched"] == []
            assert body["refresh"] == "full"
            # Stale entry is simply not hit under the new fingerprint.
            again = client.explain(**EXPLAIN)
            assert again.cache_status == "miss"


class TestSessionLifetime:
    """A tracked session serves only the database it was built over,
    and only while the cache still holds its table."""

    def test_reregistered_dataset_serves_the_new_database(self):
        service = _incremental_service()
        question = natality.q_race_question()
        attributes = natality.default_attributes("race")
        request = ServiceRequest.from_dict({"dataset": "mine", "k": 3})
        served = {}
        for seed in (1, 2):
            db = natality.generate(rows=2000, seed=seed)
            service.registry.register_database(
                "mine", db, question=question, attributes=attributes
            )
            result = service.topk(request)
            assert result.cache_status == "miss"
            cold = Explainer(db, question, attributes).top(3)
            assert result.payload["ranking"] == ranking_payload(cold), seed
            served[seed] = result.payload["ranking"]
        assert served[1] != served[2]
        # The first database's session went with it.
        assert service.stats_payload()["incremental"]["sessions"] == 1

    def test_sessions_are_bounded_by_the_cache(self):
        service = ExplanationService(
            refresh="incremental", max_cache_entries=2
        )
        wide = natality.wide_attributes()  # twelve single-attribute plans
        for attribute in wide:
            service.topk(
                ServiceRequest.from_dict(
                    {
                        "dataset": "natality",
                        "params": PARAMS,
                        "attributes": [attribute],
                    }
                )
            )
        assert len(service.cache) == 2
        assert service.stats_payload()["incremental"]["sessions"] <= 2
        birth = service.registry.resolve("natality", PARAMS).database.relation(
            "Birth"
        )
        assert len(birth._subscribers) <= 2
        body = service.mutate(
            MutateRequest.from_dict(
                {
                    "dataset": "natality",
                    "params": PARAMS,
                    "mutations": [
                        {
                            "relation": "Birth",
                            "delete": _birth_rows(service, 2),
                        }
                    ],
                }
            )
        ).payload
        assert 1 <= len(body["patched"]) <= 2
        assert all(p["strategy"] == "patched" for p in body["patched"])
        # The plans still cached are the ones kept warm: reading the
        # last-built one after the mutate is a hit.
        again = service.topk(
            ServiceRequest.from_dict(
                {
                    "dataset": "natality",
                    "params": PARAMS,
                    "attributes": [wide[-1]],
                }
            )
        )
        assert again.cache_status == "hit"


class TestSharedJoinIndexes:
    def test_lineitem_mutate_keeps_other_relations_join_indexes(self):
        """A refresh joins the delta against the live relations' own
        join indexes: a Lineitem-only write rebuilds none of them."""
        service = _incremental_service()
        params = {"sf": 0.01}
        read = ServiceRequest.from_dict(
            {
                "dataset": "tpch",
                "params": params,
                "attributes": ["Nation.name", "Orders.priority", "Part.brand"],
                "k": 5,
            }
        )
        assert service.topk(read).cache_status == "miss"
        db = service.registry.resolve("tpch", params).database

        def join_indexes(name):
            return dict(db.relation(name)._columnar_snapshot()[2])

        before = {name: join_indexes(name) for name in ("Orders", "Partsupp")}
        assert all(before.values())
        victims = db.relation("Lineitem").sorted_rows()[:3]
        body = service.mutate(
            MutateRequest.from_dict(
                {
                    "dataset": "tpch",
                    "params": params,
                    "mutations": [
                        {
                            "relation": "Lineitem",
                            "delete": [list(row) for row in victims],
                        }
                    ],
                }
            )
        ).payload
        assert [p["strategy"] for p in body["patched"]] == ["patched"]
        for name, indexes in before.items():
            after = join_indexes(name)
            assert all(after[key] is index for key, index in indexes.items())
        assert service.topk(read).cache_status == "hit"
