"""Incremental maintenance benchmarks: warm delta refresh vs cold rebuild.

The acceptance property of :mod:`repro.incremental`: once a session has
seeded its delta-cube state, refreshing after a small mutation batch
must be far cheaper than rebuilding the explanation table from scratch,
while producing a *content-identical* table (same
``content_fingerprint()``).

Two workloads, mirroring the paper's datasets:

* **Natality / Q_Race** (count aggregates, additive cube path) — the
  pure delta path: warm refresh is O(touched groups + changed rows)
  against a cold rebuild that re-scans all of ``Birth``.  The ratio is
  reported, not gated (≈10× on the full preset; at the small preset's
  4 000 rows the cold rebuild is already near the per-refresh emission
  floor — the final cube rollup + outer join is O(distinct keys),
  independent of row count).  The regression watch for refresh cost
  is ``benchmarks/e2e`` mutate-refresh.
* **DBLP / count-distinct window ratio** — exercises the footnote-11
  data-condition recertification, which re-checks the distinct-value
  conditions in O(n) per refresh.  Warm still wins, but the ratio is
  structurally capped (~2-4×); we assert identity and direction, and
  report the ratio.

Run ``--preset small`` (CI smoke) or ``--preset full`` (default).
"""

import random
import time

from conftest import print_series

from repro.core import Explainer
from repro.core.parsing import parse_question
from repro.datasets import dblp, natality
from repro.incremental import IncrementalSession

PRESETS = {
    "small": {
        "natality_rows": 4_000,
        "dblp_scale": 0.25,
        "batch": 50,
        "rounds": 3,
    },
    "full": {
        "natality_rows": 40_000,
        "dblp_scale": 1.0,
        "batch": 50,
        "rounds": 5,
    },
}

DBLP_QUESTION = (
    "high",
    "(q1 + 0.0001) / (q2 + 0.0001)",
    [
        "q1 := count(distinct Publication.pubid) "
        "WHERE Publication.year >= 2007",
        "q2 := count(distinct Publication.pubid) "
        "WHERE Publication.year <= 2004",
    ],
)
DBLP_ATTRS = ("Author.inst", "Author.name")


def _measure_cycle(session, relation, victims):
    """One delete + reinsert refresh pair; returns both warm timings."""
    relation.delete_many(victims)
    start = time.perf_counter()
    session.refresh()
    t_del = time.perf_counter() - start
    assert session.last_stats.strategy == "patched", (
        f"delete refresh fell back: {session.last_stats.reason}"
    )
    relation.insert_many(victims)
    start = time.perf_counter()
    session.refresh()
    t_ins = time.perf_counter() - start
    assert session.last_stats.strategy == "patched", (
        f"insert refresh fell back: {session.last_stats.reason}"
    )
    return [t_del, t_ins]


def _warm_vs_cold(db, question, attrs, mutated, *, batch, rounds, seed):
    """min warm refresh vs cold rebuild on the mutated database."""
    session = IncrementalSession(db, question, attrs, method="cube")
    try:
        session.table()
        rng = random.Random(seed)
        relation = db.relation(mutated)
        warm_times = []
        for _ in range(rounds):
            victims = rng.sample(relation.row_list(), batch)
            warm_times += _measure_cycle(session, relation, victims)
        warm = min(warm_times)
        start = time.perf_counter()
        cold_table = Explainer(db, question, attrs).explanation_table("cube")
        cold = time.perf_counter() - start
        identical = (
            session.table().content_fingerprint()
            == cold_table.content_fingerprint()
        )
        return warm, cold, identical
    finally:
        session.close()


class TestIncrementalNatality:
    """Additive count path: patched == cold."""

    def test_warm_refresh_beats_cold_rebuild(
        self, benchmark, preset, json_record
    ):
        cfg = PRESETS[preset]
        db = natality.generate(rows=cfg["natality_rows"], seed=2014)
        question = natality.q_race_question()
        attrs = natality.default_attributes()

        def measure():
            return _warm_vs_cold(
                db,
                question,
                attrs,
                "Birth",
                batch=cfg["batch"],
                rounds=cfg["rounds"],
                seed=7,
            )

        warm, cold, identical = benchmark.pedantic(
            measure, rounds=1, iterations=1
        )
        ratio = cold / max(warm, 1e-9)
        print_series(
            f"Incremental refresh vs cold rebuild "
            f"(natality {cfg['natality_rows']} rows, Q_Race)",
            [
                ("warm (best)", warm),
                ("cold", cold),
                ("speedup", ratio),
            ],
            unit="",
        )
        benchmark.extra_info["warm_s"] = warm
        benchmark.extra_info["cold_s"] = cold
        benchmark.extra_info["speedup"] = ratio
        json_record(
            "incremental_natality",
            preset=preset,
            rows=cfg["natality_rows"],
            warm_s=warm,
            cold_s=cold,
            speedup=ratio,
            identical=identical,
        )
        assert identical, "patched table differs from cold rebuild"


class TestIncrementalDblp:
    """count_distinct path: recertification caps the ratio; identity holds."""

    def test_patched_table_identical_and_faster(
        self, benchmark, preset, json_record
    ):
        cfg = PRESETS[preset]
        db = dblp.generate(scale=cfg["dblp_scale"], seed=3)
        question = parse_question(*DBLP_QUESTION)

        def measure():
            return _warm_vs_cold(
                db,
                question,
                DBLP_ATTRS,
                "Authored",
                batch=20,
                rounds=cfg["rounds"],
                seed=11,
            )

        warm, cold, identical = benchmark.pedantic(
            measure, rounds=1, iterations=1
        )
        ratio = cold / max(warm, 1e-9)
        print_series(
            f"Incremental refresh vs cold rebuild "
            f"(dblp scale {cfg['dblp_scale']}, count-distinct ratio)",
            [
                ("warm (best)", warm),
                ("cold", cold),
                ("speedup", ratio),
            ],
            unit="",
        )
        benchmark.extra_info["warm_s"] = warm
        benchmark.extra_info["cold_s"] = cold
        benchmark.extra_info["speedup"] = ratio
        json_record(
            "incremental_dblp",
            preset=preset,
            scale=cfg["dblp_scale"],
            warm_s=warm,
            cold_s=cold,
            speedup=ratio,
            identical=identical,
        )
        assert identical, "patched table differs from cold rebuild"
        assert ratio > 1.0, (
            f"warm count_distinct refresh slower than cold ({ratio:.2f}x)"
        )
