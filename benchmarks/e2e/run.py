"""The repository's benchmark: one command, four user-level workloads.

    python3 benchmarks/e2e/run.py --workload warm-explore --seed 1 \\
        --seconds 30 --trace 0          # one run, as the driver makes it
    python3 benchmarks/e2e/run.py --all [--seed N] [--trace 1]
    python3 benchmarks/e2e/run.py --all --runs 10 --out BENCH_new.json

A run builds its request sequence from ``--seed``, sets the system up
(once before the window and twice more after it; ``setup_s`` is the
median), sends the workload's fixed number of operations, checks a
seeded sample of the outputs against the public ``Explainer`` API,
prints every metric by name with its unit, and ends with one JSON line.
``--seconds`` is not the run length but its cap: the window is sized to
about two thirds of it, and operations still unsent when it passes count
as failed.  ``--trace 1`` instead replays a few rounds in-process under
the timing wrappers of ``layers.py`` and prints the per-layer metrics.
``--all`` runs each workload in a process of its own, exactly as the
driver would.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))

RUN_SECONDS = 30
SETUPS_PER_RUN = 3


def _timed_setup(workload):
    start = time.perf_counter()
    env = workload.setup()
    return env, time.perf_counter() - start


def _failures(outcomes) -> List[str]:
    return [
        f"{o.op.family} {o.op.target}: {o.detail}" for o in outcomes if not o.ok
    ]


def run_untraced(workload, seed: int, seconds: float) -> Dict[str, object]:
    import loadgen

    rounds = workload.rounds(seed)
    env, first_setup = _timed_setup(workload)
    setups = [first_setup]
    try:
        outcomes, elapsed = loadgen.run_rounds(
            rounds, lambda op: workload.run_op(env, op), cap_seconds=seconds
        )
        attempted = len(outcomes)
        # Before the checks and the further set-ups: both build tables
        # in this process that the measured system never held.
        peak = loadgen.peak_rss_mb(children=workload.peak_rss_children)
        checked = workload.check(env, outcomes, seed)
    finally:
        workload.teardown(env)
    while len(setups) < SETUPS_PER_RUN:
        gc.collect()
        env, again = _timed_setup(workload)
        workload.teardown(env)
        setups.append(again)
    setup_s = statistics.median(setups)
    failed = _failures(outcomes)
    metrics = {"setup_s": setup_s, "peak_rss_mb": peak}
    metrics.update(loadgen.summarize(outcomes, elapsed, workload.unit_families))
    units = {name: unit for name, unit, _, _ in loadgen.END_TO_END}
    return {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]}
            for name in units
        },
        "info": {
            "workload": workload.name,
            "seed": seed,
            "window_s": elapsed,
            "outputs_checked": checked,
            "tail": {
                role: loadgen.tail(outcomes, role)
                for role in ("primary", "secondary")
            },
            "sequence_sha256": loadgen.sequence_hash(rounds),
            "failures": failed[:5],
        },
    }


def _family_ms(outcomes, family: str) -> List[float]:
    return [o.seconds * 1000.0 for o in outcomes if o.op.family == family]


def run_traced(workload, seed: int) -> Dict[str, object]:
    import layers

    from repro.service import DatasetRegistry

    tracer = layers.Tracer()
    values: Dict[str, float] = {}

    # Set-up layers: each dataset resolved cold, on a registry of its own.
    with layers.installed(tracer) as missing:
        for number, (dataset, params) in enumerate(workload.datasets):
            with tracer.request("setup", number):
                DatasetRegistry().resolve(dataset, params).fingerprint

    stream = iter(workload.rounds(seed, 3 * workload.trace_rounds))
    env = workload.setup()
    try:
        # Each round is replayed three ways on consecutive rounds of
        # equal composition — end to end, in-process, in-process under
        # the wrappers — interleaved so that drift hits all three alike.
        service = getattr(env, "service", None)
        before = service.cache.stats() if service else None
        end_to_end, in_process, traced = [], [], []
        executed = []  # in the order they ran: replaying mutations needs it
        for _ in range(workload.trace_rounds):
            first = [workload.run_op(env, op) for op in next(stream)]
            second = [workload.run_in_process(env, op) for op in next(stream)]
            third = []
            with layers.installed(tracer):
                for op in next(stream):
                    with tracer.request("main", len(traced) + len(third)):
                        third.append(workload.run_in_process(env, op, tracer))
            end_to_end += first
            in_process += second
            traced += third
            executed += first + second + third
        after = service.cache.stats() if service else None
        with layers.installed(tracer):
            values.update(
                workload.trace_extras(env, tracer, [o.op for o in traced])
            )
        seconds = {
            "end_to_end": sum(o.seconds for o in end_to_end),
            "in_process": sum(o.seconds for o in in_process),
            "traced": sum(o.seconds for o in traced),
        }
        if service is not None:
            values["service.server.response_bytes"] = statistics.mean(
                int(o.reply.headers["content-length"]) for o in end_to_end
            )
        checked = workload.check(env, executed, seed)
        if service is not None:
            stats = service.stats_payload()
            lookups = (after.hits + after.misses) - (before.hits + before.misses)
            values["service.cache.hit_share"] = (
                (after.hits - before.hits) / lookups if lookups else 0.0
            )
            values["service.cache.bytes"] = service.cache.stats().current_bytes
            values["incremental.session.live_sessions"] = stats["incremental"][
                "sessions"
            ]
    finally:
        workload.teardown(env)

    units = {
        "main": sum(1 for o in traced if o.op.family in workload.unit_families),
        "setup": 1,
        "columnar": 2,
        "sqlite": 1,
        "closure": 1,
    }
    per_unit = {
        phase: 1000.0 * total / units["main"] for phase, total in seconds.items()
    }
    if service is not None:
        # Medians per family (a collector pause in one slice must not
        # read as transport cost), weighted back to one unit.
        values["service.server.http_overhead_ms"] = sum(
            (
                statistics.median(_family_ms(end_to_end, family))
                - statistics.median(_family_ms(in_process, family))
            )
            * len(_family_ms(traced, family)) / units["main"]
            for family in {o.op.family for o in traced}
        )
    refreshes = tracer.counted("main", "incremental.session.refreshes")
    values["incremental.session.patched_share"] = (
        tracer.counted("main", "incremental.session.patched") / refreshes
        if refreshes
        else 0.0
    )
    root_self = tracer.self_total("main", "request")
    root_time = tracer.duration_total("main", "request")
    values["trace.unattributed_share"] = root_self / root_time
    values["trace.overhead_share"] = seconds["traced"] / seconds["in_process"] - 1.0

    metrics = layers.layer_metrics(tracer, units, values)
    failed = _failures(executed)
    info = {
        "workload": workload.name,
        "seed": seed,
        "units": units["main"],
        "outputs_checked": checked,
        "missing_patch_points": missing,
        "end_to_end_ms_per_unit": per_unit["end_to_end"],
        "in_process_ms_per_unit": per_unit["in_process"],
        "traced_ms_per_unit": per_unit["traced"],
        "self_times": [
            {"layer": name, "ms_per_unit": 1000.0 * t / units["main"], "calls": c}
            for name, t, c in tracer.ranked_self_times("main")
        ],
        "failures": failed[:5],
    }
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    tracer.write_trace(str(out_dir / f"{workload.name}.trace.json"), info)
    units_of = {name: unit for name, unit, _, _ in layers.PER_LAYER}
    return {
        "correct": not failed,
        "attempted": len(end_to_end) + len(in_process) + len(traced),
        "failed": len(failed),
        "metrics": {
            name: {"value": metrics[name], "unit": units_of[name]}
            for name in units_of
        },
        "info": info,
    }


def report(result: Dict[str, object]) -> None:
    """Every metric by name with its unit, then the one JSON line."""
    info = result.pop("info")
    print(f"== {info['workload']} (seed {info['seed']}) ==")
    for name, metric in result["metrics"].items():
        value = metric["value"]
        shown = "-" if value is None else f"{value:.4f}"  # None: every op failed
        print(f"{name:46s} {shown:>14s} {metric['unit']}")
    share = result["failed"] / result["attempted"]
    print(f"{'failed_share':46s} {share:14.4f} share")
    for role, tail in info.get("tail", {}).items():
        if "ms" in tail:
            label = f"{role}_p{tail['percentile']}_ms (n = {tail['n']}, no bound)"
            print(f"{label:46s} {tail['ms']:14.4f} ms")
    for missing in info.get("missing_patch_points", ()):
        print(f"{'missing ' + missing:46s} {'-':>14s}")
    if "self_times" in info:
        traced = info["traced_ms_per_unit"]
        print("-- where the time goes (self ms per unit; traced unit = "
              f"{traced:.3f} ms, end to end = "
              f"{info['end_to_end_ms_per_unit']:.3f} ms) --")
        for row in info["self_times"]:
            label = "unattributed" if row["layer"] == "request" else row["layer"]
            print(f"{label:46s} {row['ms_per_unit']:14.4f} ms "
                  f"{100.0 * row['ms_per_unit'] / traced:6.2f} %")
    for failure in info["failures"]:
        print(f"FAILED {failure}")
    compact = {k: v for k, v in info.items() if k not in ("self_times", "failures")}
    print("info " + json.dumps(compact, sort_keys=True))
    print(json.dumps(result))


def run_all(args: argparse.Namespace, names: Sequence[str]) -> int:
    """Each workload (and each of ``--runs`` seeds) in its own process."""
    collected: Dict[str, List[dict]] = {}
    status = 0
    for name in names:
        for seed in range(args.seed, args.seed + args.runs):
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                capture_output=True, text=True, timeout=600,
            )
            sys.stdout.write(done.stdout)
            sys.stdout.flush()
            if done.returncode != 0:
                # Kept in the run set as one failed operation, so that
                # compare.py sees the failure share rise.
                sys.stderr.write(done.stderr)
                result = {"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}, "info": {"workload": name, "seed": seed,
                                                  "crashed": done.stderr[-500:]}}
            else:
                lines = done.stdout.strip().splitlines()
                result = json.loads(lines[-1])
                result["info"] = json.loads(lines[-2][len("info "):])
            collected.setdefault(name, []).append(result)
            if not result["correct"]:
                status = 1
    if args.out:
        _append_point(args, collected)
    return status


def _append_point(args: argparse.Namespace, collected: Dict[str, List[dict]]) -> None:
    """Add this run set to the trajectory file (created if absent):
    untraced sets under ``sets``, traced ones under ``traced``."""
    path = Path(args.out)
    doc = json.loads(path.read_text()) if path.exists() else {"sets": [], "traced": []}
    doc["traced" if args.trace else "sets"].append(
        {
            "meta": {
                "seconds": args.seconds,
                "first_seed": args.seed,
                "runs": args.runs,
                "python": platform.python_version(),
                "nproc": os.cpu_count(),
            },
            "workloads": collected,
        }
    )
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def main(argv: Sequence[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", metavar="NAME")
    parser.add_argument("--all", action="store_true",
                        help="run every workload, each in its own process")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="cap on the timed window, not its length")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the per-layer metrics of a traced replay")
    parser.add_argument("--runs", type=int, default=1,
                        help="with --all: seeds SEED..SEED+RUNS-1 per workload")
    parser.add_argument("--out", help="with --all: append the run set to this "
                        "trajectory file (BENCH_*.json)")
    args = parser.parse_args(argv)
    if args.all == bool(args.workload):
        parser.error("give exactly one of --workload NAME and --all")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import workloads

    if args.all:
        return run_all(args, list(workloads.WORKLOADS))
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"--workload must be one of {list(workloads.WORKLOADS)}")
    if args.trace:
        result = run_traced(workload, args.seed)
    else:
        result = run_untraced(workload, args.seed, args.seconds)
    report(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
