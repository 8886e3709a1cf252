"""Self-tests of the benchmark harness (not of the program under test).

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

Tier-1 (``testpaths = tests``) never collects this directory.
"""

import json
import re
import subprocess
from pathlib import Path

import compare
import layers
import loadgen
import run
import workloads

BENCHMARK = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text()
)


# -- the percentile rule --------------------------------------------------------


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert loadgen.MIN_BEYOND == 10
    assert loadgen.supported_tail(39) == 50
    assert loadgen.supported_tail(40) == 75
    assert loadgen.supported_tail(99) == 75
    assert loadgen.supported_tail(100) == 90
    assert loadgen.supported_tail(200) == 95
    assert loadgen.supported_tail(1000) == 99


def test_percentile_interpolates():
    values = [10.0, 20.0, 30.0, 40.0, 50.0]
    assert loadgen.percentile(values, 0) == 10.0
    assert loadgen.percentile(values, 50) == 30.0
    assert loadgen.percentile(values, 90) == 46.0
    assert loadgen.percentile(values, 100) == 50.0


def test_failed_operations_have_no_latency():
    ok = loadgen.Op("primary", "x", "/p")
    outcomes = [
        loadgen.Outcome(ok, True, 0.010),
        loadgen.Outcome(ok, False, 9.0),
        loadgen.Outcome(loadgen.Op("secondary", "y", "/s"), True, 0.020),
    ]
    summary = loadgen.summarize(outcomes, 2.0, ("x", "y"))
    assert summary["primary_p50_ms"] == 10.0
    assert summary["secondary_p50_ms"] == 20.0
    assert summary["throughput_per_s"] == 1.0
    assert loadgen.tail(outcomes, "primary") == {"n": 1, "percentile": 50}
    many = [loadgen.Outcome(ok, True, ms / 1000.0) for ms in range(1, 42)]
    assert loadgen.tail(many, "primary") == {"n": 41, "percentile": 75, "ms": 31.0}


def test_a_role_whose_every_operation_failed_has_no_median_and_still_reports():
    op = loadgen.Op("primary", "x", "/p")
    outcomes = [loadgen.Outcome(op, False, 1.0)] * 3
    summary = loadgen.summarize(outcomes, 2.0, ("x",))
    assert summary == {
        "primary_p50_ms": None, "secondary_p50_ms": None, "throughput_per_s": 0.0
    }
    assert loadgen.tail(outcomes, "primary") == {"n": 0, "percentile": 50}


def test_every_round_runs_whatever_the_clock_and_the_cap_fails_the_rest(monkeypatch):
    op = loadgen.Op("primary", "x", "/p")
    rounds = [[op, op]] * 7
    sent = []

    def execute(op):
        sent.append(op)
        return loadgen.Outcome(op, True, 0.0)

    outcomes, _ = loadgen.run_rounds(rounds, execute, cap_seconds=60.0)
    assert len(sent) == 14 and all(o.ok for o in outcomes)

    ticks = iter(range(100))  # one second per look at the clock
    monkeypatch.setattr(loadgen.time, "perf_counter", lambda: next(ticks))
    del sent[:]
    outcomes, _ = loadgen.run_rounds(rounds, execute, cap_seconds=3.0)
    assert len(sent) == 3 and len(outcomes) == 14
    assert [o.ok for o in outcomes] == [True] * 3 + [False] * 11


def test_an_ask_that_never_exits_is_a_failed_operation(monkeypatch):
    def hang(args):
        raise subprocess.TimeoutExpired(args, workloads.ASK_TIMEOUT)

    monkeypatch.setattr(workloads, "_python", hang)
    ask = workloads.WORKLOADS["cli-ask"]
    outcome = ask.run_op(None, ask.rounds(1, 1)[0][0])
    assert not outcome.ok and "no exit" in outcome.detail


# -- request sequences ------------------------------------------------------------


def _hash(workload, seed):
    return loadgen.sequence_hash(workload.rounds(seed, 2))


def test_the_run_length_is_fixed_and_stated_in_benchmark_json():
    stated = {w["name"]: w["why"] for w in BENCHMARK["workloads"]}
    for workload in workloads.WORKLOADS.values():
        for seed in (1, 2):
            rounds = workload.rounds(seed)
            assert len(rounds) == workload.n_rounds
            n = sum(len(ops) for ops in rounds)
            assert re.match(rf"n = {n} ", stated[workload.name]), workload.name


def test_same_seed_same_sequence_and_another_seed_another():
    for workload in workloads.WORKLOADS.values():
        assert _hash(workload, 7) == _hash(workload, 7), workload.name
        assert _hash(workload, 7) != _hash(workload, 8), workload.name


def test_the_seed_orders_a_round_but_never_changes_its_composition():
    def composition(ops):
        # What costs time: the kind of operation and the *set* of
        # attributes; their order and the mutated rows are free.
        return sorted(
            json.dumps(
                [
                    op.role,
                    op.kind,
                    op.target,
                    {
                        k: sorted(v) if k == "attributes" else v
                        for k, v in (op.body or {}).items()
                        if k != "mutations"
                    },
                ],
                sort_keys=True,
            )
            for op in ops
        )

    for workload in workloads.WORKLOADS.values():
        first = workload.rounds(1, 1)[0]
        other = workload.rounds(2, 2)[1]
        assert composition(first) == composition(other), workload.name


def test_cold_cube_never_repeats_a_plan():
    rounds = workloads.WORKLOADS["cold-cube"].rounds(3, 24)
    plans = [
        (op.body["dataset"], tuple(op.body["attributes"]))
        for ops in rounds
        for op in ops
    ]
    assert len(plans) == 24 * 6 == len(set(plans))


# -- span arithmetic ----------------------------------------------------------------


def _tracer_with_clock(monkeypatch, ticks):
    times = iter(ticks)
    monkeypatch.setattr(layers.time, "perf_counter", lambda: next(times))
    return layers.Tracer()


def test_self_time_is_duration_minus_direct_children(monkeypatch):
    tracer = _tracer_with_clock(monkeypatch, [0, 1, 2, 5, 7, 10])
    with tracer.request("main", 0):          # 0 .. 10
        with tracer.span("outer"):           # 1 .. 7
            with tracer.span("inner"):       # 2 .. 5
                pass
            tracer.count("rows", 3)
    own = {s.name: t for s, t in zip(tracer.spans, tracer.self_times())}
    assert own == {"request": 4, "outer": 3, "inner": 3}
    assert tracer.self_total("main", "outer") == 3
    assert tracer.duration_total("main", "outer") == 6
    assert tracer.counted("main", "rows") == 3
    assert tracer.ranked_self_times("main")[0] == ("request", 4, 1)


def test_layer_metrics_are_per_unit_and_zero_when_unreached(monkeypatch):
    tracer = _tracer_with_clock(monkeypatch, [0.0, 0.001, 0.003, 0.004])
    with tracer.request("main", 0):
        with tracer.span("core.topk.no_minimal"):
            pass
    metrics = layers.layer_metrics(
        tracer, {"main": 2}, {"trace.overhead_share": 0.5}
    )
    assert abs(metrics["core.topk.no_minimal_ms"] - 1.0) < 1e-9
    assert metrics["engine.universal.build_ms"] == 0.0
    assert metrics["trace.overhead_share"] == 0.5
    assert set(metrics) == {name for name, *_ in layers.PER_LAYER}


def test_wrappers_rebind_importers_and_come_off_again():
    from repro.core import explainer
    from repro.engine import universal

    original = universal.universal_table
    with layers.installed(layers.Tracer()) as missing:
        assert missing == []
        assert explainer.universal_table is not original
        assert explainer.universal_table is universal.universal_table
    assert explainer.universal_table is original
    assert universal.universal_table is original


def test_a_missing_patch_point_is_reported_not_raised(monkeypatch):
    monkeypatch.setattr(
        layers, "PATCH_POINTS",
        (("gone.layer", "repro.engine.universal:no_such_function", None, None),),
    )
    with layers.installed(layers.Tracer()) as missing:
        assert missing == ["repro.engine.universal:no_such_function"]


# -- compare.py verdicts --------------------------------------------------------------


def test_compare_verdicts_on_synthetic_runs():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]
    noisy = [100.0, 130.0, 80.0, 120.0, 75.0, 125.0, 85.0, 115.0, 90.0, 100.0]

    def word(old, new, better="lower", bound=0.10):
        return compare.verdict(old, new, better=better, bound=bound)[0]

    assert word(steady, steady) == "same"
    assert word(steady, [v * 1.05 for v in steady]) == "same"
    assert word(steady, [v * 1.12 for v in steady]) == "worse"
    assert word(steady, [v * 0.95 for v in steady]) == "better"
    assert word(steady, [v * 0.88 for v in steady], better="higher") == "worse"
    assert word(steady, [v * 1.05 for v in steady], better="higher") == "better"
    assert word(noisy, [v * 1.05 for v in noisy]) == "unresolved"
    assert word(noisy, [60.0] * 10) == "better"


def _runs(factor=1.0, failed=0, without=()):
    readings = {
        m["name"]: {"value": 100.0 * factor, "unit": m["unit"]}
        for m in BENCHMARK["end_to_end"]
        if m["name"] not in without
    }
    run = {"correct": not failed, "attempted": 50, "failed": failed,
           "metrics": readings}
    return [run] * 4


def _verdicts(old, new):
    rows = compare.compare(old, new, BENCHMARK["end_to_end"])
    return {(r["workload"], r["metric"]): r["verdict"] for r in rows}


def test_compare_exits_nonzero_only_on_worse(tmp_path):
    def run_set(factor):
        return {"workloads": {"warm-explore": _runs(factor)}}

    old, new = tmp_path / "old.json", tmp_path / "new.json"
    old.write_text(json.dumps({"sets": [run_set(1.0)]}))
    new.write_text(json.dumps({"sets": [run_set(1.0)]}))
    assert compare.main([str(old), str(new)]) == 0
    new.write_text(json.dumps({"sets": [run_set(1.0), run_set(1.5)]}))
    assert compare.main([str(old), str(new)]) == 1


def test_any_rise_of_the_failed_share_is_worse_however_the_timings_read():
    old = {"warm-explore": _runs()}
    assert _verdicts(old, old)[("warm-explore", "failed_share")] == "same"
    # The slow requests failed, so what is left reads faster.
    new = {"warm-explore": _runs(0.5, failed=1)}
    found = _verdicts(old, new)
    assert found[("warm-explore", "failed_share")] == "worse"
    assert found[("warm-explore", "primary_p50_ms")] == "better"
    assert _verdicts(new, old)[("warm-explore", "failed_share")] == "better"
    crashed = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    new = {"warm-explore": _runs()[:3] + [crashed]}
    assert _verdicts(old, new)[("warm-explore", "failed_share")] == "worse"


def test_what_old_has_and_new_lacks_is_worse():
    old = {"warm-explore": _runs(), "cold-cube": _runs()}
    found = _verdicts(old, {"warm-explore": _runs(without=("primary_p50_ms",))})
    assert found[("warm-explore", "primary_p50_ms")] == "worse"
    assert found[("warm-explore", "secondary_p50_ms")] == "same"
    assert all(
        word == "worse" for (workload, _), word in found.items()
        if workload == "cold-cube"
    )
    assert ("cold-cube", "setup_s") in found


# -- the contract file ----------------------------------------------------------------


def test_benchmark_json_names_what_the_harness_prints():
    assert BENCHMARK["run_seconds"] == run.RUN_SECONDS
    assert [(w["name"], w["why"]) for w in BENCHMARK["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()
    ]
    assert [
        (m["name"], m["unit"], m["better"], m["bound"])
        for m in BENCHMARK["end_to_end"]
    ] == list(loadgen.END_TO_END)
    assert [
        (m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]
    ] == [(n, u, b) for n, u, b, _ in layers.PER_LAYER]
    assert all(path in BENCHMARK["command"][1] for path in BENCHMARK["paths"])
