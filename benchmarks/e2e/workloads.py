"""The four user-level workloads: what they send, set up and check.

Every workload is a fixed number of *rounds*.  A round always holds the
same multiset of work; the seed fixes the order inside it and the free
parameters that do not change the amount of work (which rows a mutation
touches, in which order a request lists its attributes).  Keeping the
length and the composition fixed is what lets runs with different seeds
and of different commits be compared: the seed changes the request
sequence, never how much there is to do.

The program under test only ever sees the generated JSON bodies and
argument vectors.  Datasets come from the built-in registry loaders,
by ``params``.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from loadgen import Op, Outcome

from repro import cli
from repro.core import Explainer, render_ranking
from repro.core.parsing import parse_question
from repro.datasets import dblp, natality, tpch
from repro.service import (
    BackgroundServer,
    ExplanationService,
    MutateRequest,
    ServiceRequest,
    ranking_payload,
)

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"

NATALITY = {"rows": 100_000}
TPCH = {"sf": 0.5}

BYS = ("intervention", "aggravation", "hybrid")
STRATEGIES = ("no_minimal", "minimal_self_join", "minimal_append")
KS = (5, 10)


class HttpEnv:
    """A running service: what set-up builds and the timed window uses."""

    def __init__(self, refresh: str = "full") -> None:
        self.service = ExplanationService(refresh=refresh)
        # nproc is 2: the server's worker plus one waiting client is
        # the whole machine, so more workers would only add switching.
        self.server = BackgroundServer(self.service, max_workers=2).start()
        self.client = self.server.client(timeout=120.0)

    def close(self) -> None:
        self.server.stop()


def _post(env: HttpEnv, op: Op) -> Outcome:
    start = time.perf_counter()
    response = env.client.request("POST", op.target, op.body)
    seconds = time.perf_counter() - start
    ok = response.ok and response.cache_status == op.expect
    detail = "" if ok else f"{response.status} cache={response.cache_status!r}"
    return Outcome(op, ok, seconds, response, detail)


_ENDPOINTS = {
    "/v1/topk": (ServiceRequest, "topk"),
    "/v1/explain": (ServiceRequest, "explain"),
    "/v1/mutate": (MutateRequest, "mutate"),
}


@dataclass
class _Reply:
    """An in-process answer, shaped like the client's response."""

    data: object
    headers: Dict[str, str] = field(default_factory=dict)


def _call_in_process(env: HttpEnv, op: Op, tracer=None) -> Outcome:
    """The same operation without the socket: parse, serve, render."""
    model, method = _ENDPOINTS[op.target]
    span = tracer.span if tracer is not None else contextlib.nullcontext
    start = time.perf_counter()
    with span("service.protocol.parse"):
        request = model.from_dict(op.body)
    result = getattr(env.service, method)(request)
    with span("service.protocol.render"):
        json.dumps(result.payload, sort_keys=True)
    seconds = time.perf_counter() - start
    return Outcome(
        op, result.cache_status == op.expect, seconds, _Reply(result.payload)
    )


def _expected_reply(explainer: Explainer, op: Op) -> Dict[str, object]:
    """What a correct server answers *op* with, from the public API."""
    body = op.body or {}
    k = body.get("k", 5)
    strategy = body.get("strategy", "minimal_append")
    if op.target == "/v1/explain":
        return {
            "top_by_intervention": ranking_payload(
                explainer.top(k, by="intervention", strategy=strategy)
            ),
            "top_by_aggravation": ranking_payload(
                explainer.top(k, by="aggravation", strategy=strategy)
            ),
        }
    by = body.get("by", "intervention")
    return {"ranking": ranking_payload(explainer.top(k, by=by, strategy=strategy))}


def _reply_matches(outcome: Outcome, expected: Dict[str, object]) -> bool:
    data = outcome.reply.data
    return isinstance(data, dict) and all(
        data.get(key) == value for key, value in expected.items()
    )


class Workload:
    """One workload: its rounds, its set-up and its output checks."""

    name = ""
    #: One line for BENCHMARK.json; opens with the run length in operations.
    why = ""
    #: Rounds in the timed window, the same on every commit.
    n_rounds = 1
    #: Rounds replayed per phase of the traced run.
    trace_rounds = 1
    #: Families whose operations count as units of throughput.
    unit_families: Sequence[str] = ()
    #: Datasets resolved cold in the traced run's set-up group.
    datasets: Sequence[tuple] = ()
    peak_rss_children = False

    def rng(self, seed: int) -> random.Random:
        return random.Random(f"{self.name}:{seed}")

    def rounds(self, seed: int, count: Optional[int] = None) -> List[List[Op]]:
        """The first *count* rounds (default ``n_rounds``) of *seed*."""
        raise NotImplementedError

    def setup(self):
        raise NotImplementedError

    def teardown(self, env) -> None:
        env.close()

    def run_op(self, env, op: Op) -> Outcome:
        return _post(env, op)

    def run_in_process(self, env, op: Op, tracer=None) -> Outcome:
        return _call_in_process(env, op, tracer)

    def check(self, env, outcomes: List[Outcome], seed: int) -> int:
        """Mark outcomes whose output is wrong; returns checks made."""
        raise NotImplementedError

    def trace_extras(self, env, tracer, ops: List[Op]) -> Dict[str, float]:
        """Standalone informational timings of the traced run."""
        return {}


# -- warm-explore ---------------------------------------------------------------


class WarmExplore(Workload):
    name = "warm-explore"
    why = (
        "n = 288 requests (216 /v1/topk + 72 /v1/explain, all hits): the "
        "paper's section-5 loop, re-ranking one cached table M; core.topk and "
        "service.* do all the work, cube and universal none"
    )
    n_rounds = 12
    trace_rounds = 3
    unit_families = ("topk", "explain")
    datasets = (("natality", NATALITY),)

    attributes = natality.extended_attributes()[:6]

    def _body(self, **fields) -> dict:
        return {
            "dataset": "natality",
            "params": NATALITY,
            "attributes": self.attributes,
            **fields,
        }

    def rounds(self, seed: int, count: Optional[int] = None) -> List[List[Op]]:
        rng = self.rng(seed)
        # Three /v1/topk for each /v1/explain, every combination once.
        ops = [
            Op("primary", f"topk/{by}/{strategy}/{k}", "/v1/topk",
               self._body(by=by, strategy=strategy, k=k), "hit")
            for by in BYS for strategy in STRATEGIES for k in KS
        ] + [
            Op("secondary", f"explain/{strategy}/{k}", "/v1/explain",
               self._body(strategy=strategy, k=k), "hit")
            for strategy in STRATEGIES for k in KS
        ]
        return [rng.sample(ops, len(ops)) for _ in range(count or self.n_rounds)]

    def setup(self) -> HttpEnv:
        env = HttpEnv()
        built = _post(env, Op("setup", "topk", "/v1/topk", self._body(), "miss"))
        if not built.ok:
            raise RuntimeError(f"warm-explore set-up failed: {built.detail}")
        return env

    def check(self, env, outcomes: List[Outcome], seed: int) -> int:
        database = natality.generate(**NATALITY)
        explainer = Explainer(
            database, natality.q_race_question(), self.attributes
        )
        sample = self.rng(seed).sample(outcomes, min(8, len(outcomes)))
        for outcome in sample:
            if outcome.ok and not _reply_matches(
                outcome, _expected_reply(explainer, outcome.op)
            ):
                outcome.ok, outcome.detail = False, "ranking differs from Explainer"
        return len(sample)


# -- cold-cube ------------------------------------------------------------------


def _windows(items: Sequence[str], size: int, offsets: Sequence[int]) -> List[tuple]:
    n = len(items)
    return [tuple(items[(o + i) % n] for i in range(size)) for o in offsets]


class ColdCube(Workload):
    name = "cold-cube"
    why = (
        "n = 42 requests (21 wide + 21 join, all misses): Algorithm 1 end to "
        "end, a wide single relation (cube/rollup dominate) and an 8-table "
        "join (universal table rebuilt per request); core.topk does little"
    )
    n_rounds = 7
    trace_rounds = 2
    unit_families = ("wide", "join")
    datasets = (("natality", NATALITY), ("tpch", TPCH))

    #: Three fixed 7-of-10 attribute sets (every attribute in 2 or 3).
    wide_sets = _windows(natality.wide_attributes()[:10], 7, (0, 3, 6))
    #: Three fixed 4-of-6 attribute sets over the TPC-H join.
    join_sets = _windows(
        (
            "Customer.mktsegment",
            "Lineitem.shipmode",
            "Orders.priority",
            "Nation.name",
            "Part.brand",
            "Part.type",
        ),
        4,
        (0, 2, 4),
    )

    def rounds(self, seed: int, count: Optional[int] = None) -> List[List[Op]]:
        rng = self.rng(seed)
        # The attribute *order* is part of the plan fingerprint and not
        # of the work, so a fresh ordering of a fixed set is a distinct
        # plan of equal cost (a join set has 4! = 24 of them).
        join_orders = {
            s: rng.sample(list(itertools.permutations(s)), 24)
            for s in self.join_sets
        }
        used = set()

        def fresh_wide(attrs: tuple) -> List[str]:
            while True:
                order = tuple(rng.sample(attrs, len(attrs)))
                if order not in used:
                    used.add(order)
                    return list(order)

        rounds = []
        for round_index in range(count or self.n_rounds):
            wide = [
                Op("primary", f"wide/{self.wide_sets.index(s)}", "/v1/topk",
                   {"dataset": "natality", "params": NATALITY,
                    "attributes": fresh_wide(s), "k": 5}, "miss")
                for s in rng.sample(self.wide_sets, len(self.wide_sets))
            ]
            join = [
                Op("secondary", f"join/{self.join_sets.index(s)}", "/v1/topk",
                   {"dataset": "tpch", "params": TPCH,
                    "attributes": list(join_orders[s][round_index]),
                    "k": 5}, "miss")
                for s in rng.sample(self.join_sets, len(self.join_sets))
            ]
            rounds.append([op for pair in zip(wide, join) for op in pair])
        return rounds

    def setup(self) -> HttpEnv:
        env = HttpEnv()
        # One request per dataset with its registered defaults loads
        # both datasets and finishes every lazy import on the cube path.
        for dataset, params in self.datasets:
            built = _post(
                env,
                Op("setup", dataset, "/v1/topk",
                   {"dataset": dataset, "params": params}, "miss"),
            )
            if not built.ok:
                raise RuntimeError(f"cold-cube set-up failed: {built.detail}")
        return env

    def check(self, env, outcomes: List[Outcome], seed: int) -> int:
        rng = self.rng(seed)
        sources = {
            "wide": (lambda: natality.generate(**NATALITY), natality.q_race_question),
            "join": (lambda: tpch.generate(**TPCH), tpch.default_question),
        }
        checked = 0
        for family, (generate, question) in sources.items():
            pool = [o for o in outcomes if o.op.family == family]
            if not pool:
                continue
            outcome = rng.choice(pool)
            explainer = Explainer(
                generate(), question(), outcome.op.body["attributes"]
            )
            checked += 1
            if outcome.ok and not _reply_matches(
                outcome, _expected_reply(explainer, outcome.op)
            ):
                outcome.ok, outcome.detail = False, "ranking differs from Explainer"
        return checked

    def trace_extras(self, env, tracer, ops: List[Op]) -> Dict[str, float]:
        from repro.core import cube_algorithm

        picks = [
            next(op for op in ops if op.family == family)
            for family in ("wide", "join")
        ]
        for number, op in enumerate(picks):
            resolved = env.service.registry.resolve(
                op.body["dataset"], op.body["params"]
            )
            # The columnar kernel on the inputs the numpy kernel got.
            with tracer.request("columnar", number):
                cube_algorithm.build_explanation_table(
                    resolved.database,
                    resolved.default_question,
                    op.body["attributes"],
                    use_fastpath=False,
                )
        join = picks[1]
        resolved = env.service.registry.resolve("tpch", TPCH)
        with tracer.request("sqlite", 0):
            Explainer(
                resolved.database,
                resolved.default_question,
                join.body["attributes"],
                backend="sqlite",
            ).explanation_table("cube")
        return {}


# -- mutate-refresh ---------------------------------------------------------------


class MutateRefresh(Workload):
    name = "mutate-refresh"
    why = (
        "n = 500 requests (100 /v1/mutate, each followed by a read of the 4 "
        "live plans it patched): writes beside reads over the same cube "
        "states; incremental.* and relation writes work, the cube kernel idles"
    )
    n_rounds = 100
    trace_rounds = 20
    unit_families = ("mutate",)
    datasets = (("tpch", TPCH),)
    batch = 20

    #: Exactly four live plans: /v1/mutate refreshes every session a
    #: cold request registered, so its latency scales with this count.
    plans = (
        ("Nation.name", "Customer.mktsegment", "Lineitem.shipmode"),
        ("Nation.name", "Orders.priority", "Part.brand"),
        ("Customer.mktsegment", "Lineitem.shipmode", "Part.type"),
        ("Nation.name", "Part.brand", "Part.type"),
    )

    def _read(self, role: str, plan: Sequence[str], expect: str) -> Op:
        return Op(role, f"read/{self.plans.index(tuple(plan))}", "/v1/topk",
                  {"dataset": "tpch", "params": TPCH,
                   "attributes": list(plan), "k": 5}, expect)

    def rounds(self, seed: int, count: Optional[int] = None) -> List[List[Op]]:
        rng = self.rng(seed)
        live = tpch.generate(**TPCH).relation("Lineitem").sorted_rows()
        fresh_line = itertools.count(1000)

        def one_round() -> List[Op]:
            delete = [
                live.pop(rng.randrange(len(live))) for _ in range(self.batch)
            ]
            insert = []
            for _ in range(self.batch):
                # A new line of an existing order keeps every foreign
                # key valid; the line number is the new key.
                row = list(rng.choice(live))
                row[1] = next(fresh_line)
                row[4] = rng.randint(1, 50)
                row[6] = rng.choice(("A", "N", "R"))
                row[7] = rng.choice(tpch.SHIPMODES)
                insert.append(tuple(row))
            live.extend(insert)
            mutate = Op(
                "primary", "mutate", "/v1/mutate",
                {"dataset": "tpch", "params": TPCH,
                 "mutations": [{
                     "relation": "Lineitem",
                     "delete": [list(r) for r in delete],
                     "insert": [list(r) for r in insert],
                 }]},
                "none",
            )
            reads = [
                self._read("secondary", plan, "hit")
                for plan in rng.sample(self.plans, len(self.plans))
            ]
            return [mutate] + reads

        return [one_round() for _ in range(count or self.n_rounds)]

    def setup(self) -> HttpEnv:
        env = HttpEnv(refresh="incremental")
        for plan in self.plans:
            built = _post(env, self._read("setup", plan, "miss"))
            if not built.ok:
                raise RuntimeError(f"mutate-refresh set-up failed: {built.detail}")
        return env

    def run_op(self, env, op: Op) -> Outcome:
        outcome = _post(env, op)
        if outcome.ok and op.family == "mutate":
            data = outcome.reply.data
            if (data["deleted"], data["inserted"]) != (self.batch, self.batch):
                outcome.ok, outcome.detail = False, "mutation not fully applied"
        return outcome

    def check(self, env, outcomes: List[Outcome], seed: int) -> int:
        """Staleness 0: the served rankings equal a cold rebuild on a
        database replayed with the same mutations."""
        database = tpch.generate(**TPCH)
        lineitem = database.relation("Lineitem")
        for outcome in outcomes:
            if outcome.op.family == "mutate":
                for spec in outcome.op.body["mutations"]:
                    lineitem.delete_many(tuple(map(tuple, spec["delete"])))
                    lineitem.insert_many(tuple(map(tuple, spec["insert"])))
        for plan in self.plans:
            final = _post(env, self._read("check", plan, "hit"))
            explainer = Explainer(database, tpch.default_question(), plan)
            if not (
                final.ok
                and _reply_matches(final, _expected_reply(explainer, final.op))
            ):
                final.ok = False
                final.detail = final.detail or "ranking differs from cold rebuild"
            outcomes.append(final)
        return len(self.plans)


# -- cli-ask --------------------------------------------------------------------

#: The Figure-2 bump question and Q_Race, in the CLI's wire text.
_DBLP_QUESTION = {
    "dir": "high",
    "expr": "((q1 + 0.0001) / (q2 + 0.0001)) / ((q3 + 0.0001) / (q4 + 0.0001))",
    "aggs": [
        f"{name} := count(distinct Publication.pubid) "
        f"WHERE Publication.venue = 'SIGMOD' AND Author.dom = '{dom}' "
        f"AND Publication.year >= {lo} AND Publication.year <= {hi}"
        for name, dom, lo, hi in (
            ("q1", "com", 2000, 2004),
            ("q2", "com", 2007, 2011),
            ("q3", "edu", 2000, 2004),
            ("q4", "edu", 2007, 2011),
        )
    ],
    "attributes": "Author.inst,Author.name",
}
_NATALITY_QUESTION = {
    "dir": "high",
    "expr": "(q1 + 0.0001) / (q2 + 0.0001)",
    "aggs": [
        "q1 := count(*) WHERE Birth.ap = 'good' AND Birth.race = 'Asian'",
        "q2 := count(*) WHERE Birth.ap = 'poor' AND Birth.race = 'Asian'",
    ],
    "attributes":
        "Birth.age,Birth.tobacco,Birth.prenatal,Birth.education,Birth.marital",
}


def _ask(role: str, spec: dict) -> Op:
    """One ``repro ask`` run; *spec* (kept as the op's body) names the
    dataset, its size flag and seed, and the question."""
    flag, size = spec["size"]
    question = spec["question"]
    argv = [
        "-m", "repro", "ask",
        "--dataset", spec["dataset"], flag, str(size), "--seed", str(spec["seed"]),
        "--dir", question["dir"], "--expr", question["expr"],
        *(part for agg in question["aggs"] for part in ("--agg", agg)),
        "--attributes", question["attributes"], "--top", "5",
    ]
    return Op(role, f"ask-{spec['dataset']}/{spec['seed']}", argv, spec)


class CliAsk(Workload):
    name = "cli-ask"
    why = (
        "n = 16 runs of python -m repro ask (8 program P over DBLP, 8 cube "
        "over natality): the other front door and branch, no server and no "
        "cache, each run paying interpreter start and import"
    )
    n_rounds = 4
    trace_rounds = 2
    unit_families = ("ask-dblp", "ask-natality")
    peak_rss_children = True

    #: Dataset seeds are fixed (program P's work depends on the
    #: instance); the workload seed orders the runs.
    dataset_seeds = (2014, 2015)

    def _ops(self, role_dblp: str = "primary",
             role_natality: str = "secondary") -> List[Op]:
        ops = []
        for s in self.dataset_seeds:
            ops.append(_ask(role_dblp, {
                "dataset": "dblp", "size": ["--scale", 0.25], "seed": s,
                "question": _DBLP_QUESTION}))
            ops.append(_ask(role_natality, {
                "dataset": "natality", "size": ["--rows", 20000], "seed": s,
                "question": _NATALITY_QUESTION}))
        return ops

    def rounds(self, seed: int, count: Optional[int] = None) -> List[List[Op]]:
        rng = self.rng(seed)
        ops = self._ops()
        return [rng.sample(ops, len(ops)) for _ in range(count or self.n_rounds)]

    def setup(self) -> None:
        # No server and no cache: all there is to warm is the byte-code
        # and page cache that the first run of each kind fills.
        for op in self._ops("setup", "setup")[:2]:
            warmed = self.run_op(None, op)
            if not warmed.ok:
                raise RuntimeError(f"cli-ask set-up failed: {warmed.detail}")

    def teardown(self, env) -> None:
        pass

    def run_op(self, env, op: Op) -> Outcome:
        start = time.perf_counter()
        try:
            done = _python(op.target)
        except subprocess.TimeoutExpired as hung:
            return Outcome(op, False, hung.timeout, detail=f"no exit in {hung.timeout} s")
        seconds = time.perf_counter() - start
        ok = done.returncode == 0
        return Outcome(op, ok, seconds, done.stdout,
                       "" if ok else f"exit {done.returncode}: {done.stderr[-200:]}")

    def run_in_process(self, env, op: Op, tracer=None) -> Outcome:
        out = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = cli.main(op.target[2:])
        seconds = time.perf_counter() - start
        return Outcome(op, code == 0, seconds, out.getvalue())

    def _in_process_answer(self, op: Op):
        """(explainer, method) for one ask, built as ``cmd_ask`` does."""
        spec = op.body
        _, size = spec["size"]
        if spec["dataset"] == "dblp":
            database = dblp.generate(scale=size, seed=spec["seed"])
        else:
            database = natality.generate(rows=size, seed=spec["seed"])
        asked = spec["question"]
        question = parse_question(asked["dir"], asked["expr"], asked["aggs"])
        explainer = Explainer(
            database, question, asked["attributes"].split(",")
        )
        return explainer, explainer.resolve_method("auto")

    def check(self, env, outcomes: List[Outcome], seed: int) -> int:
        rng = self.rng(seed)
        checked = 0
        for family, method in (("ask-dblp", "indexed"), ("ask-natality", "cube")):
            pool = [o for o in outcomes if o.op.family == family]
            if not pool:
                continue
            outcome = rng.choice(pool)
            explainer, resolved = self._in_process_answer(outcome.op)
            answer = render_ranking(explainer.top(5, method=resolved)) + "\n"
            checked += 1
            if outcome.ok and not (
                resolved == method
                and f"method: {method}\n" in outcome.reply
                and outcome.reply.endswith(answer)
            ):
                outcome.ok, outcome.detail = False, "stdout differs from in-process answer"
        return checked

    def trace_extras(self, env, tracer, ops: List[Op]) -> Dict[str, float]:
        # The same DBLP plan under strategy="closure" (no workload
        # routes through it today; the numbers are informational).
        op = next(op for op in ops if op.family == "ask-dblp")
        explainer, method = self._in_process_answer(op)
        with tracer.request("closure", 0):
            Explainer(
                explainer.database, explainer.question, explainer.attributes,
                strategy="closure",
            ).explanation_table(method)
        interpreter = _median_seconds(["-c", "pass"], 5)
        imported = _median_seconds(["-c", "import repro.cli"], 5)
        return {
            "cli.interpreter_ms": interpreter * 1000.0,
            "cli.import_ms": (imported - interpreter) * 1000.0,
        }


#: An ask takes a few seconds; one that hangs must still leave the run
#: inside the driver's 180 s.
ASK_TIMEOUT = 60


def _python(args: Sequence[str]) -> "subprocess.CompletedProcess[str]":
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run(
        [sys.executable, *args],
        cwd=str(ROOT), env=env, capture_output=True, text=True, timeout=ASK_TIMEOUT,
    )


def _median_seconds(args: Sequence[str], repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        _python(args)
        times.append(time.perf_counter() - start)
    return sorted(times)[len(times) // 2]


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (WarmExplore(), ColdCube(), MutateRefresh(), CliAsk())
}
