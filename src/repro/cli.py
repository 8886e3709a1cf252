"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``demo``
    Run one of the paper's experiments end to end on a synthetic
    dataset and print the ranked explanations::

        python -m repro demo natality --top 5
        python -m repro demo dblp --by aggravation

``intervene``
    Compute the minimal intervention Δ^φ for a predicate on the
    built-in running example (or a dataset) and print the deleted
    tuples and the fixpoint trace::

        python -m repro intervene "Author.name = 'JG' AND Publication.year = 2001"

``explain``
    Explain a ratio question over a single-table CSV file: counts of
    rows matching the numerator filter divided by counts matching the
    denominator filter, searched over the given attributes::

        python -m repro explain births.csv --pk bid \\
            --numerator ap=good --denominator ap=poor \\
            --dir high --attributes marital,tobacco --top 5

``analyze``
    Print the static plan certificate — the certified convergence
    bound with the proposition that derived it, per-aggregate
    additivity verdicts, and any ``RS###`` lint diagnostics — for one
    or more bundled datasets, with no ranking work::

        python -m repro analyze chain --chain-p 4
        python -m repro analyze --all --strict --json

``sql``
    Print the SQL script of Algorithm 1, or program P as datalog, for
    one of the built-in schemas::

        python -m repro sql dblp
        python -m repro sql running-example --datalog

``serve``
    Run the explanation HTTP service (asyncio, stdlib only): cached,
    request-coalescing ``/v1/explain`` and ``/v1/topk`` endpoints over
    the built-in datasets and any execution backend::

        python -m repro serve --port 8722
        curl -s localhost:8722/v1/health
        curl -s localhost:8722/v1/metrics   # Prometheus text format

    See ``docs/service.md`` for the wire protocol.

Most analysis commands accept ``--profile``, which enables the tracer
for the run and prints the phase tree (wall/CPU time per pipeline
phase, row counts, program-P iterations vs the certified bound) after
the normal output.  See ``docs/observability.md``.
"""

from __future__ import annotations

import argparse
import inspect
import sys
from typing import Optional, Sequence

from ._version import __version__
from .core import (
    AggregateQuery,
    Direction,
    Explainer,
    UserQuestion,
    compute_intervention,
    parse_explanation,
    ratio_query,
    render_ranking,
)
from .backends import backend_names
from .core.explainer import AUTO_METHOD
from .core.sqlgen import DIALECTS, algorithm1_script, program_p_datalog
from .datasets.catalog import BUNDLED
from .engine import Col, Comparison, Const, conj, count_star
from .engine.csvio import load_table
from .engine.database import Database
from .engine.schema import single_table_schema
from .errors import ReproError

DEMOS = tuple(BUNDLED)

#: Commands that accept ``--profile`` (set in ``build_parser``).
PROFILED_COMMANDS = ("demo", "intervene", "explain", "ask", "report")


def _print_profile() -> None:
    """Render the tracer's phase tree plus a program-P summary line.

    Printed after the command's normal output when ``--profile`` is
    set.  The summary cross-checks the observed program-P iteration
    counts against the statically certified convergence bound carried
    on the spans — the run-time witness of Propositions 3.4–3.11.
    """
    from .obs import get_tracer, render_tree

    tracer = get_tracer()
    roots = tracer.roots()
    print()
    print("-- profile (phase tree: wall / cpu / payload) --")
    if not roots:
        print("(no phases recorded)")
        return
    print(render_tree(roots))
    runs = [
        span
        for root in roots
        for span in root.walk()
        if span.name == "program_p" and "iterations" in span.payload
    ]
    if runs:
        iterations = max(int(s.payload["iterations"]) for s in runs)
        bounds = [
            int(str(s.payload["certified_bound"]))
            for s in runs
            if s.payload.get("certified_bound") is not None
        ]
        line = (
            f"program P: {len(runs)} fixpoint run(s), "
            f"max {iterations} productive iteration(s)"
        )
        if bounds:
            bound = max(bounds)
            verdict = "within" if iterations <= bound else "EXCEEDS"
            line += f" — {verdict} certified bound {bound}"
        print(line)
    if tracer.dropped:
        print(f"({tracer.dropped} span(s) dropped at the max_spans cap)")

#: Datasets ``repro analyze`` accepts: every demo plus the Example 3.7
#: worst-case chain (whose size is set with ``--chain-p``).
ANALYZE_DATASETS = DEMOS + ("chain",)


def _demo_setup(name: str, rows: int, scale: float, seed: int):
    """(database, question, attributes) for one named demo.

    Maps the CLI's size flags onto whichever of them the bundled
    loader takes.  ``--scale`` multiplies tpch's canonical miniature
    sf 0.01, so the default invocation is the test workload exactly.
    """
    loader = BUNDLED[name]
    flags = {"rows": rows, "scale": scale, "sf": 0.01 * scale, "seed": seed}
    accepted = inspect.signature(loader).parameters
    return loader(**{k: v for k, v in flags.items() if k in accepted})


def _csv_database(path: str, pk: str) -> Database:
    """A single-table database ``T`` over a headed CSV file."""
    table = load_table(path)
    if pk not in table.columns:
        raise ReproError(f"primary key column {pk!r} not in CSV header")
    schema = single_table_schema("T", list(table.columns), [pk])
    return Database(schema, {"T": table.rows()})


def cmd_demo(args: argparse.Namespace) -> int:
    db, question, attributes = _demo_setup(
        args.dataset, args.rows, args.scale, args.seed
    )
    print(f"dataset: {db}")
    explainer = Explainer(db, question, attributes, backend=args.backend)
    print(f"Q(D) = {explainer.original_value()}")
    method = explainer.resolve_method(AUTO_METHOD)
    if (
        args.backend != "memory"
        and not explainer.certificate().additivity.all_exact_cube
    ):
        print(
            "note: the certificate flags this query as not "
            "intervention-additive; cube degrees are the Algorithm-1 "
            "approximation (the memory backend's 'auto' method is exact)"
        )
        explainer.seed_table(
            "cube",
            explainer.explanation_table("cube", check_additivity=False),
        )
    ranking = explainer.top(
        args.top, method=method, by=args.by, strategy=args.strategy
    )
    print(render_ranking(ranking))
    return 0


def cmd_intervene(args: argparse.Namespace) -> int:
    db, _, _ = _demo_setup(args.dataset, args.rows, args.scale, args.seed)
    phi = parse_explanation(args.phi)
    # The printed trace is the paper's: the fixpoint schedule's
    # iterations are the counts of Props 3.4/3.5/3.10/3.11.
    result = compute_intervention(db, phi, strategy="fixpoint")
    print(f"φ = {phi}")
    print(f"iterations: {result.iterations}")
    for trace in result.trace:
        fired = ", ".join(f"{k}:{v}" for k, v in trace.new_by_rule.items())
        print(f"  iteration {trace.iteration}: +{trace.new_total} ({fired})")
    print(result.delta.describe())
    return 0


def _parse_filter(text: str, relation: str):
    """``a=x,b=y`` -> conjunction of equality comparisons."""
    atoms = []
    for part in text.split(","):
        if "=" not in part:
            raise ReproError(f"bad filter fragment {part!r}; use attr=value")
        attr, value = part.split("=", 1)
        parsed: object = value
        for cast in (int, float):
            try:
                parsed = cast(value)
                break
            except ValueError:
                continue
        atoms.append(
            Comparison("=", Col(f"{relation}.{attr.strip()}"), Const(parsed))
        )
    return conj(*atoms)


def cmd_explain(args: argparse.Namespace) -> int:
    db = _csv_database(args.csv, args.pk)
    q1 = AggregateQuery(
        "q1", count_star("q1"), _parse_filter(args.numerator, "T")
    )
    q2 = AggregateQuery(
        "q2", count_star("q2"), _parse_filter(args.denominator, "T")
    )
    query = ratio_query(q1, q2, epsilon=args.epsilon)
    question = UserQuestion(query, Direction.parse(args.dir))
    attributes = [f"T.{a.strip()}" for a in args.attributes.split(",")]
    explainer = Explainer(
        db, question, attributes,
        support_threshold=args.support, backend=args.backend,
    )
    rows = len(db.relation("T"))
    print(f"rows: {rows}   Q(D) = {explainer.original_value():.4f}")
    print(render_ranking(explainer.top(args.top, strategy=args.strategy)))
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    from .core.validation import validate_database, validate_question

    db, question, attributes = _demo_setup(
        args.dataset, args.rows, args.scale, args.seed
    )
    db_report = validate_database(db)
    print(db_report.render())
    q_report = validate_question(db, question, attributes)
    print(q_report.render())
    return 0 if db_report.ok and q_report.ok else 1


def _analyze_setup(name: str, args: argparse.Namespace):
    """(database, question-or-None, attributes) for one analyze target."""
    if name == "chain":
        from .datasets import chains

        db = chains.example_37_database(args.chain_p)
        # The chain relations are all keys, so any explanation dimension
        # draws a PK/FK lint warning — which is itself instructive.
        return db, None, ("R3.a", "R3.b")
    if name not in BUNDLED:
        raise ReproError(
            f"unknown dataset {name!r}; choose from {ANALYZE_DATASETS}"
        )
    return _demo_setup(name, args.rows, args.scale, args.seed)


def cmd_analyze(args: argparse.Namespace) -> int:
    import json

    from .analysis import analyze_plan

    names = list(ANALYZE_DATASETS) if args.all else list(args.datasets)
    if not names:
        raise ReproError("analyze needs at least one dataset (or --all)")
    payload = {}
    failed = False
    for name in names:
        db, question, attributes = _analyze_setup(name, args)
        certificate = analyze_plan(
            db.schema,
            question,
            attributes,
            database=None if args.schema_only else db,
        )
        payload[name] = certificate.to_dict()
        if not args.json:
            print(f"== {name} ==")
            print(certificate.render())
            print()
        if certificate.has_errors:
            failed = True
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    if args.strict and failed:
        print("error-severity diagnostics present (--strict)", file=sys.stderr)
        return 1
    return 0


def cmd_ask(args: argparse.Namespace) -> int:
    from .core.parsing import parse_question

    if args.csv is not None:
        if args.pk is None:
            raise ReproError("--csv requires --pk")
        db = _csv_database(args.csv, args.pk)
    else:
        db, _, _ = _demo_setup(args.dataset, args.rows, args.scale, args.seed)
    question = parse_question(args.dir, args.expr, args.agg)
    attributes = [a.strip() for a in args.attributes.split(",")]
    explainer = Explainer(
        db, question, attributes,
        support_threshold=args.support, backend=args.backend,
    )
    print(f"Q(D) = {explainer.original_value()}")
    report = explainer.additivity_report()
    print(report.explain())
    # Without --method the certificate picks the fastest sound method
    # (cube when every aggregate is exact-cube, indexed otherwise); an
    # explicit one is checked by the build, after it is echoed.
    method = args.method or explainer.resolve_method(AUTO_METHOD)
    print(f"method: {method}")
    print(render_ranking(explainer.top(args.top, method=method)))
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from .core.report import explain_question

    db, question, attributes = _demo_setup(
        args.dataset, args.rows, args.scale, args.seed
    )
    report = explain_question(db, question, attributes, k=args.top)
    if args.json:
        print(report.to_json(indent=2))
    else:
        print(report.render())
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    from .engine.storage import save_database

    db, _, _ = _demo_setup(args.dataset, args.rows, args.scale, args.seed)
    save_database(db, args.out)
    sizes = ", ".join(
        f"{name}={len(rel)}" for name, rel in db.relations.items()
    )
    print(f"wrote {args.out}: {sizes}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .service import ExplanationServer, ExplanationService

    service = ExplanationService(
        max_cache_entries=args.cache_entries,
        max_cache_bytes=int(args.cache_mb * 1024 * 1024),
        refresh=args.refresh,
    )
    server = ExplanationServer(
        service,
        host=args.host,
        port=args.port,
        request_timeout=args.timeout,
        max_request_bytes=int(args.max_request_kb * 1024),
        max_workers=args.workers,
    )

    async def run() -> None:
        await server.start()
        print(f"repro explanation service listening on {server.url}")
        print(f"  datasets: {', '.join(service.registry.names())}")
        print(f"  refresh: {service.refresh}")
        print(
            "  endpoints: /v1/explain /v1/topk /v1/analyze /v1/mutate "
            "/v1/health /v1/stats /v1/metrics"
        )
        await server.serve_forever()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("shutting down")
    return 0


def cmd_mutate(args: argparse.Namespace) -> int:
    import json

    from .service.client import ServiceClient
    from .service.errors import ClientError

    if args.mutations.startswith("@"):
        with open(args.mutations[1:], "r", encoding="utf-8") as handle:
            mutations = json.load(handle)
    else:
        mutations = json.loads(args.mutations)
    if isinstance(mutations, dict):
        mutations = [mutations]
    params = json.loads(args.params) if args.params else None
    client = ServiceClient(args.host, args.port, timeout=args.timeout)
    try:
        response = client.mutate(
            dataset=args.dataset, mutations=mutations, params=params
        )
    except ClientError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    data = response.data
    if args.json:
        print(json.dumps(data, indent=2, sort_keys=True))
        return 0
    print(
        f"{data['dataset']}: +{data['inserted']} -{data['deleted']} rows "
        f"across {', '.join(data['relations'])}"
    )
    print(f"  fingerprint: {data['previous_fingerprint'][:12]} -> "
          f"{data['fingerprint'][:12]}  (refresh: {data['refresh']})")
    for patch in data.get("patched", ()):
        if "error" in patch:
            print(f"  plan {patch['question']!r}: "
                  f"error {patch['error']['kind']}")
            continue
        line = f"  plan {patch['question']!r}: {patch['strategy']}"
        if patch.get("reason"):
            line += f" (reason: {patch['reason']})"
        if patch["strategy"] == "patched":
            line += (f", {patch['groups_touched']} groups via "
                     f"{patch['delta_rows_added']}+/"
                     f"{patch['delta_rows_removed']}- delta rows")
        print(line)
    if response.warning:
        print(f"  warning: {response.warning}")
    return 0


def cmd_sql(args: argparse.Namespace) -> int:
    db, question, attributes = _demo_setup(
        args.dataset, rows=10, scale=0.1, seed=0
    )
    if args.datalog:
        print(program_p_datalog(db.schema))
    else:
        print(algorithm1_script(db.schema, question, attributes, args.dialect))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Intervention-based explanations for database queries "
        "(Roy & Suciu, SIGMOD 2014).",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--rows", type=int, default=20_000,
                       help="synthetic natality rows (default 20000)")
        p.add_argument("--scale", type=float, default=1.0,
                       help="synthetic DBLP/Geo-DBLP scale (default 1.0)")
        p.add_argument("--seed", type=int, default=2014)

    def add_backend(p):
        p.add_argument(
            "--backend",
            choices=backend_names(),
            default="memory",
            help="execution substrate for Algorithm 1 (default: memory)",
        )

    def add_profile(p):
        p.add_argument(
            "--profile",
            action="store_true",
            help="print the traced phase tree (timings, row counts, "
            "program-P iterations vs certified bound) after the output",
        )

    demo = sub.add_parser("demo", help="run a built-in experiment")
    demo.add_argument("dataset", choices=DEMOS)
    demo.add_argument("--top", type=int, default=5)
    demo.add_argument("--by", choices=("intervention", "aggravation"),
                      default="intervention")
    demo.add_argument(
        "--strategy",
        choices=("no_minimal", "minimal_self_join", "minimal_append"),
        default="minimal_append",
    )
    add_common(demo)
    add_backend(demo)
    add_profile(demo)
    demo.set_defaults(func=cmd_demo)

    interv = sub.add_parser("intervene", help="compute Δ^φ for a predicate")
    interv.add_argument("phi", help="predicate, e.g. \"Author.name = 'JG'\"")
    interv.add_argument("--dataset", choices=DEMOS, default="running-example")
    add_common(interv)
    add_profile(interv)
    interv.set_defaults(func=cmd_intervene)

    explain = sub.add_parser("explain", help="explain a CSV ratio question")
    explain.add_argument("csv", help="path to a headed CSV file")
    explain.add_argument("--pk", required=True, help="primary key column")
    explain.add_argument("--numerator", required=True,
                         help="filter a=x,b=y for the numerator count")
    explain.add_argument("--denominator", required=True,
                         help="filter for the denominator count")
    explain.add_argument("--dir", choices=("high", "low"), default="high")
    explain.add_argument("--attributes", required=True,
                         help="comma-separated explanation attributes")
    explain.add_argument("--top", type=int, default=5)
    explain.add_argument("--epsilon", type=float, default=0.0001)
    explain.add_argument("--support", type=float, default=None)
    explain.add_argument(
        "--strategy",
        choices=("no_minimal", "minimal_self_join", "minimal_append"),
        default="minimal_append",
    )
    add_backend(explain)
    add_profile(explain)
    explain.set_defaults(func=cmd_explain)

    check = sub.add_parser(
        "check", help="validate a dataset + question before analysis"
    )
    check.add_argument("dataset", choices=DEMOS)
    add_common(check)
    check.set_defaults(func=cmd_check)

    analyze = sub.add_parser(
        "analyze",
        help="static plan certificate: convergence bound, additivity, lints",
    )
    analyze.add_argument(
        "datasets",
        nargs="*",
        metavar="dataset",
        help=f"one or more of {ANALYZE_DATASETS}",
    )
    analyze.add_argument("--all", action="store_true",
                         help="analyze every bundled dataset")
    analyze.add_argument("--json", action="store_true",
                         help="emit certificates as JSON")
    analyze.add_argument("--strict", action="store_true",
                         help="exit 1 on any error-severity diagnostic")
    analyze.add_argument("--schema-only", action="store_true",
                         help="ignore the instance: symbolic bounds, "
                              "unresolved data-dependent verdicts")
    analyze.add_argument("--chain-p", type=int, default=3,
                         help="chain parameter p (n = 4p + 1 tuples)")
    add_common(analyze)
    # Analysis only touches data for footnote-11 resolution and the
    # n - 1 bound; small instances keep `--all` fast in CI.
    analyze.set_defaults(func=cmd_analyze, rows=2_000, scale=0.25)

    ask = sub.add_parser(
        "ask", help="ask a custom (Q, dir) question in text syntax"
    )
    ask.add_argument("--dataset", choices=DEMOS, default="running-example")
    ask.add_argument("--csv", default=None, help="single-table CSV instead")
    ask.add_argument("--pk", default=None, help="primary key column for --csv")
    ask.add_argument("--dir", choices=("high", "low"), required=True)
    ask.add_argument(
        "--expr", required=True, help="E expression, e.g. '(q1/q2)/(q3/q4)'"
    )
    ask.add_argument(
        "--agg",
        action="append",
        required=True,
        help="aggregate, e.g. \"q1 := count(*) WHERE T.ap = 'good'\" (repeat)",
    )
    ask.add_argument("--attributes", required=True)
    ask.add_argument("--top", type=int, default=5)
    ask.add_argument("--support", type=float, default=None)
    ask.add_argument(
        "--method", choices=("cube", "naive", "exact", "indexed"), default=None
    )
    add_common(ask)
    add_backend(ask)
    add_profile(ask)
    ask.set_defaults(func=cmd_ask)

    report = sub.add_parser(
        "report", help="full explanation report for a built-in experiment"
    )
    report.add_argument("dataset", choices=DEMOS)
    report.add_argument("--top", type=int, default=5)
    report.add_argument("--json", action="store_true")
    add_common(report)
    add_profile(report)
    report.set_defaults(func=cmd_report)

    generate = sub.add_parser(
        "generate", help="write a synthetic dataset to a directory"
    )
    generate.add_argument("dataset", choices=DEMOS)
    generate.add_argument("out", help="output directory")
    add_common(generate)
    generate.set_defaults(func=cmd_generate)

    serve = sub.add_parser(
        "serve", help="run the explanation HTTP service"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8722)
    serve.add_argument("--workers", type=int, default=8,
                       help="thread-pool size for explanation builds")
    serve.add_argument("--timeout", type=float, default=30.0,
                       help="per-request deadline in seconds")
    serve.add_argument("--cache-entries", type=int, default=256,
                       help="max cached explanation tables")
    serve.add_argument("--cache-mb", type=float, default=256.0,
                       help="cache byte budget in MiB")
    serve.add_argument("--max-request-kb", type=float, default=1024.0,
                       help="request body size limit in KiB")
    serve.add_argument("--refresh", choices=("full", "incremental"),
                       default="full",
                       help="cache refresh mode under mutations "
                            "(default: full)")
    serve.set_defaults(func=cmd_serve)

    mutate = sub.add_parser(
        "mutate",
        help="POST insert/delete batches to a running service "
             "(/v1/mutate)",
    )
    mutate.add_argument("dataset", help="registered dataset name")
    mutate.add_argument(
        "--mutations", required=True,
        help="JSON array of {relation, insert, delete} objects "
             "(or one object), or @file.json",
    )
    mutate.add_argument("--params", default=None,
                        help="dataset params as a JSON object")
    mutate.add_argument("--host", default="127.0.0.1")
    mutate.add_argument("--port", type=int, default=8722)
    mutate.add_argument("--timeout", type=float, default=60.0)
    mutate.add_argument("--json", action="store_true",
                        help="print the raw response payload")
    mutate.set_defaults(func=cmd_mutate)

    sql = sub.add_parser("sql", help="print SQL / datalog renderings")
    sql.add_argument("dataset", choices=DEMOS)
    sql.add_argument("--datalog", action="store_true",
                     help="print program P as datalog instead of SQL")
    sql.add_argument("--dialect", choices=DIALECTS, default="sqlserver",
                     help="SQL dialect for the Algorithm 1 script")
    sql.set_defaults(func=cmd_sql)
    return parser


def _run(args: argparse.Namespace) -> int:
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "profile", False):
        return _run(args)
    from .obs import TraceRecorder

    with TraceRecorder():
        try:
            return _run(args)
        finally:
            _print_profile()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
