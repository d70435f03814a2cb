"""Command-line interface for the library.

The subcommands mirror what a user typically wants:

* ``repro tables`` — print the paper's complexity classification
  (Tables 1–3), derived from the border-case propositions;
* ``repro classify --query-class 1WP --instance-class DWT --setting labeled``
  — look up one cell of the classification;
* ``repro solve QUERY INSTANCE.json`` — compute ``Pr(G ⇝ H)`` for a query
  (a JSON file in the format of :mod:`repro.graphs.serialization`, or a
  query-language string such as ``"R(x, y), S(y, z)"``) and a probabilistic
  instance JSON file, reporting the algorithm used;
* ``repro parse "R(x, y), S(y, z), S(t, z)" --explain`` — print the parsed
  IR, its homomorphic core, and the resulting (class, cell, method)
  classification, showing when minimization changes the complexity cell;
* ``repro serve --batch REQUESTS.jsonl`` — drive the parallel serving layer
  (:mod:`repro.service`) from a JSONL request stream, streaming JSONL
  results (``-`` reads stdin); with ``--state-dir`` the serving state is
  durable (:mod:`repro.persist`) and a restart warm-starts from disk;
* ``repro store {verify,compact,inspect} DIR`` — check every checksum in a
  state directory (exit 1 on corruption), fold its write-ahead log, or
  list what it holds;
* ``repro metrics SNAPSHOT`` / ``repro trace FILE [--validate]`` /
  ``repro top SNAPSHOT [--watch]`` — render the observability artifacts of
  a serving session (:mod:`repro.obs`): Prometheus text from a metrics
  snapshot, a span tree from a JSONL trace, and a live per-route serving
  dashboard;
* ``repro bench {plans,sampling,service,query}`` — run a benchmark suite
  and record its ``BENCH_*.json`` report.

The module is also importable: :func:`main` takes an ``argv`` list and
returns an exit code, which is how the test suite exercises it.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from typing import List, Optional

from repro.classification.tables import (
    Setting,
    classify_cell,
    format_table,
    table1,
    table2,
    table3,
    table_rows,
)
from repro.core.solver import PHomSolver
from repro.exceptions import IntractableFallbackWarning, ReproError
from repro.graphs.classes import GraphClass
from repro.graphs.serialization import load_instance, load_query

#: Accepted spellings of the graph classes on the command line.
_CLASS_ALIASES = {
    "1wp": GraphClass.ONE_WAY_PATH,
    "2wp": GraphClass.TWO_WAY_PATH,
    "dwt": GraphClass.DOWNWARD_TREE,
    "pt": GraphClass.POLYTREE,
    "connected": GraphClass.CONNECTED,
    "all": GraphClass.ALL,
    "u1wp": GraphClass.UNION_ONE_WAY_PATH,
    "u2wp": GraphClass.UNION_TWO_WAY_PATH,
    "udwt": GraphClass.UNION_DOWNWARD_TREE,
    "upt": GraphClass.UNION_POLYTREE,
}


def _parse_class(value: str) -> GraphClass:
    key = value.strip().lower().replace("⊔", "u")
    if key not in _CLASS_ALIASES:
        raise argparse.ArgumentTypeError(
            f"unknown graph class {value!r}; expected one of {sorted(_CLASS_ALIASES)}"
        )
    return _CLASS_ALIASES[key]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Probabilistic graph homomorphism (PODS 2017 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("tables", help="print the complexity classification tables 1-3")

    classify = subparsers.add_parser("classify", help="classify one (query class, instance class) cell")
    classify.add_argument("--query-class", type=_parse_class, required=True)
    classify.add_argument("--instance-class", type=_parse_class, required=True)
    classify.add_argument(
        "--setting", choices=["labeled", "unlabeled"], default="labeled",
        help="labeled (|σ|>1) or unlabeled (|σ|=1) setting",
    )

    solve = subparsers.add_parser(
        "solve",
        help="compute Pr(query ⇝ instance) from JSON files or a query string",
    )
    solve.add_argument(
        "query",
        help=(
            "path to the query graph JSON file, or a query-language string "
            "such as 'R(x, y), S(y, z)' (anything that is not an existing file)"
        ),
    )
    solve.add_argument("instance", help="path to the probabilistic instance JSON file")
    solve.add_argument(
        "--no-minimize", action="store_true",
        help="classify the query exactly as written instead of minimizing it "
        "to its homomorphic core first",
    )
    solve.add_argument(
        "--method", default="auto",
        help="algorithm to use ('auto' or one of PHomSolver.available_methods())",
    )
    solve.add_argument(
        "--no-brute-force", action="store_true",
        help="fail instead of falling back to exponential enumeration on #P-hard cells",
    )
    solve.add_argument(
        "--prefer", choices=["dp", "lineage", "automaton"], default="dp",
        help="evaluation flavour for the tractable cases",
    )
    solve.add_argument(
        "--precision", choices=["exact", "float", "approx"], default="exact",
        help=(
            "numeric backend: exact rationals (default), fast floats, or "
            "'approx' to answer #P-hard combinations with the Karp-Luby "
            "(epsilon, delta) sampler instead of exponential brute force"
        ),
    )
    solve.add_argument(
        "--epsilon", type=float, default=0.05,
        help="approx: relative error bound of the sampler (default 0.05)",
    )
    solve.add_argument(
        "--delta", type=float, default=0.01,
        help="approx: failure probability of the error bound (default 0.01)",
    )
    solve.add_argument(
        "--seed", type=int, default=None,
        help="approx: RNG seed for reproducible estimates (default: fresh entropy)",
    )

    parse = subparsers.add_parser(
        "parse",
        help=(
            "parse a query-language string, print its IR and homomorphic "
            "core, and (--explain) the classification cell and dispatch route"
        ),
    )
    parse.add_argument("query", help="the query string, e.g. 'R(x, y), S(y, z), S(t, z)'")
    parse.add_argument(
        "--explain", action="store_true",
        help="additionally print the (class, cell, method) classification "
        "before and after minimization",
    )
    parse.add_argument(
        "--instance-class", type=_parse_class, default=GraphClass.ALL,
        help="instance class to classify against (default: all)",
    )
    parse.add_argument(
        "--setting", choices=["auto", "labeled", "unlabeled"], default="auto",
        help="labeled/unlabeled setting (default: inferred from the query's labels)",
    )

    serve = subparsers.add_parser(
        "serve",
        help=(
            "serve a JSONL request stream through the parallel QueryService "
            "(register/solve/update ops in, JSONL results out)"
        ),
    )
    serve.add_argument(
        "--batch", required=True, metavar="REQUESTS",
        help="path to a JSONL request file, or '-' to read stdin",
    )
    serve.add_argument(
        "--output", default="-",
        help="where to stream the JSONL results (default: stdout)",
    )
    serve.add_argument(
        "--workers", type=int, default=None,
        help=(
            "worker processes for instance-affinity sharding "
            "(default: min(4, cpu count); 0 serves inline in-process)"
        ),
    )
    serve.add_argument(
        "--precision", choices=["exact", "float", "approx"], default="exact",
        help="default precision for requests that do not choose one",
    )
    serve.add_argument(
        "--no-brute-force", action="store_true",
        help="fail #P-hard exact requests instead of enumerating worlds",
    )
    serve.add_argument(
        "--prefer", choices=["dp", "lineage", "automaton"], default="dp",
        help="evaluation flavour for the tractable cases",
    )
    serve.add_argument(
        "--plan-cache-size", type=int, default=128,
        help="per-worker compiled-plan cache capacity (0 disables)",
    )
    serve.add_argument(
        "--result-cache-size", type=int, default=1024,
        help="capacity of the service's result cache (0 disables)",
    )
    serve.add_argument(
        "--state-dir", default=None, metavar="DIR",
        help=(
            "durable-state directory: registrations and updates are "
            "write-ahead logged, compiled plans are stored on disk, and a "
            "restart with the same directory warm-starts from both"
        ),
    )
    serve.add_argument(
        "--wal-fsync", choices=["always", "batch", "never"], default="batch",
        help="write-ahead-log durability policy (with --state-dir)",
    )
    serve.add_argument(
        "--stats", action="store_true",
        help="print serving statistics to stderr when the stream ends",
    )
    serve.add_argument(
        "--trace", default=None, metavar="PATH",
        help=(
            "write a span JSONL trace of the session to PATH; render it "
            "with 'repro trace PATH'"
        ),
    )
    serve.add_argument(
        "--trace-sample-rate", type=float, default=None, metavar="RATE",
        help=(
            "fraction of request batches traced, in [0, 1] "
            "(default: 1.0 when --trace is given, otherwise tracing is off)"
        ),
    )
    serve.add_argument(
        "--slow-query-ms", type=float, default=None, metavar="MS",
        help=(
            "record requests slower than this in the slow-query log "
            "(printed to stderr with --stats)"
        ),
    )
    serve.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help=(
            "write the pool-wide metrics snapshot (JSON) to PATH, refreshed "
            "after every batch; render it with 'repro metrics' or watch it "
            "with 'repro top --watch'"
        ),
    )
    serve.add_argument(
        "--metrics-interval", type=float, default=2.0, metavar="SECONDS",
        help=(
            "minimum seconds between metrics-snapshot refreshes with "
            "--metrics-out (the final snapshot is always written)"
        ),
    )

    metrics = subparsers.add_parser(
        "metrics",
        help=(
            "render a metrics snapshot (the JSON written by "
            "'repro serve --metrics-out') as Prometheus text-format output"
        ),
    )
    metrics.add_argument(
        "snapshot", metavar="SNAPSHOT",
        help="path to the snapshot JSON file, or '-' to read stdin",
    )

    trace = subparsers.add_parser(
        "trace",
        help=(
            "render a span JSONL trace (written by 'repro serve --trace') "
            "as an indented span tree with per-phase totals"
        ),
    )
    trace.add_argument(
        "trace_file", metavar="TRACE",
        help="path to the span JSONL file",
    )
    trace.add_argument(
        "--validate", action="store_true",
        help=(
            "check the trace invariants (unique span ids, no orphan "
            "parents, closed statuses, monotonic timestamps) and exit 1 "
            "on any violation"
        ),
    )

    top = subparsers.add_parser(
        "top",
        help=(
            "serving dashboard from a metrics snapshot: per-route request "
            "counts and latency percentiles, cache hit rates, sampler "
            "volume, restart/retry counters"
        ),
    )
    top.add_argument(
        "snapshot", metavar="SNAPSHOT",
        help="path to the snapshot JSON file (as written by --metrics-out)",
    )
    top.add_argument(
        "--watch", action="store_true",
        help="re-read the snapshot periodically and render request rates",
    )
    top.add_argument(
        "--interval", type=float, default=2.0, metavar="SECONDS",
        help="refresh period with --watch (default 2s)",
    )
    top.add_argument(
        "--iterations", type=int, default=0, metavar="N",
        help="with --watch, stop after N refreshes (0 = until interrupted)",
    )

    store = subparsers.add_parser(
        "store",
        help=(
            "operate on a QueryService state directory: 'verify' checks every "
            "write-ahead-log frame and plan-store entry against its checksum "
            "(exit 1 on any corruption), 'compact' folds the log into fresh "
            "snapshots, 'inspect' lists the durable state"
        ),
    )
    store.add_argument(
        "action", choices=["verify", "compact", "inspect"],
        help="what to do with the state directory",
    )
    store.add_argument(
        "state_dir", metavar="DIR",
        help="the state directory (as passed to 'repro serve --state-dir')",
    )

    bench = subparsers.add_parser(
        "bench",
        help=(
            "run a benchmark suite: "
            "'plans' (compiled query plans, records BENCH_plans.json), "
            "'sampling' (Karp-Luby vs brute force, records BENCH_sampling.json), "
            "'service' (parallel serving layer, records BENCH_service.json) or "
            "'query' (core minimization, records BENCH_query.json)"
        ),
    )
    bench.add_argument(
        "suite", choices=["plans", "sampling", "service", "query"],
        help="which benchmark suite to run",
    )
    bench.add_argument(
        "--instance-size", type=int, default=60,
        help="plans: instance size knob for the benchmark workloads",
    )
    bench.add_argument(
        "--queries", type=int, default=40,
        help="plans: number of queries per workload",
    )
    bench.add_argument(
        "--rounds", type=int, default=5,
        help="plans: number of probability-drift rounds per workload",
    )
    bench.add_argument(
        "--updates", type=int, default=200,
        help="plans: number of single-edge updates in the incremental stream",
    )
    bench.add_argument(
        "--min-reuse-speedup", type=float, default=0.0,
        help="plans: fail when the recorded plan-reuse speedup drops below this",
    )
    bench.add_argument(
        "--min-incremental-speedup", type=float, default=0.0,
        help="plans: fail when the recorded incremental-update speedup drops below this",
    )
    bench.add_argument(
        "--min-tape-speedup", type=float, default=0.0,
        help=(
            "plans: fail when the batched-tape speedup at the largest batch "
            "size drops below this"
        ),
    )
    bench.add_argument(
        "--min-exact-tape-speedup", type=float, default=0.0,
        help=(
            "plans: fail when exact evaluation on the integer tape is less "
            "than this many times faster than on the object graph, on any route"
        ),
    )
    bench.add_argument(
        "--min-first-exact-speedup", type=float, default=0.0,
        help=(
            "plans: fail when lowering plus the first exact integer replay is "
            "less than this many times faster than one object-graph exact "
            "evaluation, on any route"
        ),
    )
    bench.add_argument(
        "--min-cold-exact-speedup", type=float, default=0.0,
        help=(
            "plans: fail when a cold plan's first exact answer through the "
            "direct pass is less than this many times faster than lowering "
            "plus the first integer replay, on any route"
        ),
    )
    bench.add_argument(
        "--min-interval-match-speedup", type=float, default=0.0,
        help=(
            "plans: fail when Proposition 4.11's bitset interval matching is "
            "less than this many times faster than the X-property sweep"
        ),
    )
    bench.add_argument(
        "--min-live-speedup", type=float, default=0.0,
        help=(
            "plans: fail when set_probability plus a live plan.evaluate() "
            "catch-up is less than this many times faster than a full tape "
            "replay on the union instance, in either precision"
        ),
    )
    bench.add_argument(
        "--min-repeated-lane-speedup", type=float, default=0.0,
        help=(
            "plans: fail when a float evaluate_many batch of 256 lanes drawn "
            "from 8 tables is less than this many times faster than 256 "
            "distinct lanes"
        ),
    )
    bench.add_argument(
        "--min-what-if-speedup", type=float, default=0.0,
        help=(
            "plans: fail when a float one-lane what-if plan.evaluate on the "
            "union instance is less than this many times faster than a full "
            "tape replay of the same table"
        ),
    )
    bench.add_argument(
        "--min-sampling-speedup", type=float, default=0.0,
        help=(
            "sampling: fail when the Karp-Luby speedup over brute force on the "
            "largest instance drops below this"
        ),
    )
    bench.add_argument(
        "--min-service-speedup", type=float, default=0.0,
        help=(
            "service: fail when the 4-worker throughput speedup over "
            "single-process solve_many drops below this"
        ),
    )
    bench.add_argument(
        "--min-worker-scaling", type=float, default=0.0,
        help=(
            "service: fail when max-worker throughput over 1-worker "
            "throughput on the balanced trace drops below this (enforced "
            "only on machines with at least as many CPU cores as workers; "
            "recorded everywhere)"
        ),
    )
    bench.add_argument(
        "--max-p99-ms", type=float, default=0.0,
        help=(
            "service: fail when any worker count's p99 tick latency on the "
            "balanced trace exceeds this many ms"
        ),
    )
    bench.add_argument(
        "--min-minimization-speedup", type=float, default=0.0,
        help=(
            "query: fail when the minimized-dispatch speedup over unminimized "
            "solving on the redundant-core workload drops below this"
        ),
    )
    bench.add_argument(
        "--min-core-speedup", type=float, default=0.0,
        help=(
            "query: fail when query_core on fresh 2WP or single-label DWT "
            "parses is less than this many times faster than the fold search"
        ),
    )
    bench.add_argument(
        "--min-parse-speedup", type=float, default=0.0,
        help=(
            "query: fail when parse_query on fresh plain atom lists is less "
            "than this many times faster than the recursive-descent parser"
        ),
    )
    bench.add_argument(
        "--max-epsilon-ratio", type=float, default=0.0,
        help=(
            "sampling: fail when |estimate - exact| / exact exceeds this multiple "
            "of epsilon on any instance (1.0 = the (epsilon, delta) contract)"
        ),
    )
    bench.add_argument(
        "--faults", action="store_true",
        help=(
            "service: also run the chaos scenario (a FaultPlan kills one "
            "worker mid-trace) and record a service_recovery section"
        ),
    )
    bench.add_argument(
        "--max-recovery-ms", type=float, default=0.0,
        help=(
            "service: with --faults, fail when the worst worker restart "
            "(detect + respawn + journal replay) exceeds this many ms"
        ),
    )
    bench.add_argument(
        "--min-obs-overhead-ratio", type=float, default=0.0,
        help=(
            "service: fail when the traced replay (trace sample rate 1.0) "
            "keeps less than this ratio of the untraced throughput: the "
            "median per-round CPU-time ratio lies below it, or its interval "
            "is too wide to judge (0.95 = at most 5%% overhead)"
        ),
    )
    bench.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help=(
            "service: keep the traced replay's span JSONL at PATH "
            "(for 'repro trace --validate')"
        ),
    )
    bench.add_argument(
        "--output", default=None,
        help=(
            "where to write the JSON report ('-' to skip writing; defaults to "
            "BENCH_<suite>.json, e.g. BENCH_plans.json)"
        ),
    )
    bench.add_argument(
        "--restart", action="store_true",
        help=(
            "service: also run the cold-vs-warm restart scenario (durable "
            "state + seeded disk faults) and record a restart_recovery "
            "section; fails unless the warm restart recompiles zero plans, "
            "answers bit-identically, and every injected corruption is "
            "detected and recovered"
        ),
    )
    bench.add_argument(
        "--smoke", action="store_true",
        help="tiny sizes for CI smoke runs (overrides the size knobs)",
    )
    return parser


def _run_tables(out) -> int:
    out.write("Table 1 - unlabeled setting, disconnected queries\n")
    out.write(format_table(table1(), table_rows(1)) + "\n\n")
    out.write("Table 2 - labeled setting, connected queries\n")
    out.write(format_table(table2(), table_rows(2)) + "\n\n")
    out.write("Table 3 - unlabeled setting, connected queries\n")
    out.write(format_table(table3(), table_rows(3)) + "\n")
    return 0


def _run_classify(args, out) -> int:
    setting = Setting.LABELED if args.setting == "labeled" else Setting.UNLABELED
    cell = classify_cell(args.query_class, args.instance_class, setting)
    out.write(
        f"PHom_{'L' if setting is Setting.LABELED else '#L'}"
        f"({args.query_class}, {args.instance_class}) is {cell.complexity}"
        f"  [{cell.proposition}]\n"
    )
    return 0


def _load_query_argument(value: str):
    """A query CLI argument: an existing JSON file path, or a query string."""
    import os

    from repro.query import parse_query_graph

    if os.path.exists(value):
        return load_query(value)
    if value.lstrip().startswith("{"):
        # Looks like inline JSON, which `solve` does not accept — say so
        # instead of producing a confusing parse-error caret.
        raise ReproError(
            f"query argument {value!r} looks like JSON but is not an existing "
            f"file; pass a path to a query JSON file or a query-language "
            f"string such as 'R(x, y), S(y, z)'"
        )
    if "/" in value or "\\" in value or value.endswith(".json"):
        # Path-shaped (and never valid query syntax): a mistyped file path
        # deserves a file error, not a parse-error caret under the filename.
        raise ReproError(f"query file {value!r} does not exist")
    return parse_query_graph(value)


def _run_solve(args, out, err) -> int:
    try:
        query = _load_query_argument(args.query)
        instance = load_instance(args.instance)
    except (OSError, ValueError, ReproError) as exc:
        err.write(f"error: could not load inputs: {exc}\n")
        return 2
    try:
        solver = PHomSolver(
            allow_brute_force=not args.no_brute_force,
            prefer=args.prefer,
            precision=args.precision,
            epsilon=args.epsilon,
            delta=args.delta,
            seed=args.seed,
            minimize_queries=not args.no_minimize,
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", IntractableFallbackWarning)
            result = solver.solve(query, instance, method=args.method)
    except (ReproError, ValueError) as exc:
        err.write(f"error: {exc}\n")
        return 1
    out.write(f"probability = {result.probability} ({float(result.probability)})\n")
    out.write(f"method      = {result.method}\n")
    if result.proposition:
        out.write(f"backed by   = {result.proposition}\n")
    out.write(f"query class = {result.query_class}, instance class = {result.instance_class}\n")
    if result.notes and result.method in PHomSolver.SAMPLING_METHODS:
        out.write(f"note: sampled estimate — {result.notes}\n")
    elif "query minimized" in result.notes:
        out.write(f"note: {result.notes[result.notes.index('query minimized'):]}\n")
    if any(issubclass(w.category, IntractableFallbackWarning) for w in caught):
        out.write("note: this query/instance combination is #P-hard; brute force was used\n")
    return 0


def _run_parse(args, out, err) -> int:
    from repro.classification.tables import Setting
    from repro.query import explain_query, format_query, parse_query

    try:
        ir = parse_query(args.query)
        setting = {
            "auto": None,
            "labeled": Setting.LABELED,
            "unlabeled": Setting.UNLABELED,
        }[args.setting]
        explanation = explain_query(
            ir, instance_class=args.instance_class, setting=setting
        )
    except ReproError as exc:
        err.write(f"error: {exc}\n")
        return 1
    normalized = explanation.normalized
    out.write(f"query       = {format_query(ir)}\n")
    out.write(
        f"atoms       = {len(ir.atoms)} atom(s) over "
        f"{len(ir.variables())} variable(s)\n"
    )
    out.write(f"query class = {normalized.original_class}\n")
    if normalized.changed:
        out.write(f"core        = {explanation.format_core()}\n")
        out.write(
            f"core class  = {normalized.core_class} "
            f"(folded {normalized.folded_vertices} variable(s), "
            f"{normalized.folded_edges} atom(s))\n"
        )
    else:
        out.write("core        = (the query is already minimal)\n")
    if args.explain:
        label = "L" if explanation.setting is Setting.LABELED else "#L"
        out.write(
            f"cell        = PHom_{label}({normalized.original_class}, "
            f"{explanation.instance_class}) is "
            f"{explanation.original_cell.complexity} "
            f"[{explanation.original_cell.proposition}]\n"
        )
        if normalized.changed:
            out.write(
                f"core cell   = PHom_{label}({normalized.core_class}, "
                f"{explanation.instance_class}) is "
                f"{explanation.core_cell.complexity} "
                f"[{explanation.core_cell.proposition}]\n"
            )
            if explanation.unlocked:
                out.write(
                    "note: minimization moves this query into a polynomial "
                    "dispatch cell\n"
                )
        out.write(f"method      = {explanation.method}\n")
        if explanation.proposition:
            out.write(f"backed by   = {explanation.proposition}\n")
    return 0


def _write_metrics_snapshot(service, path: str) -> None:
    """Atomically replace ``path`` with the service's metrics snapshot."""
    import json
    import os

    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(service.metrics_snapshot(), handle, sort_keys=True)
    os.replace(tmp, path)


def _run_serve(args, out, err) -> int:
    import time as _time

    from repro.service import QueryService, run_jsonl_session

    try:
        if args.batch == "-":
            lines = sys.stdin
            close_input = None
        else:
            close_input = open(args.batch, "r", encoding="utf-8")
            lines = close_input
    except OSError as exc:
        err.write(f"error: could not open request stream: {exc}\n")
        return 2
    try:
        output = out if args.output == "-" else open(args.output, "w", encoding="utf-8")
    except OSError as exc:
        if close_input is not None:
            close_input.close()
        err.write(f"error: could not open output stream: {exc}\n")
        return 2
    trace_sample_rate = args.trace_sample_rate
    if trace_sample_rate is None:
        trace_sample_rate = 1.0 if args.trace else 0.0
    try:
        with QueryService(
            num_workers=args.workers,
            default_precision=args.precision,
            allow_brute_force=not args.no_brute_force,
            prefer=args.prefer,
            plan_cache_size=args.plan_cache_size,
            result_cache_size=args.result_cache_size,
            state_dir=args.state_dir,
            wal_fsync=args.wal_fsync,
            trace_sample_rate=trace_sample_rate,
            trace_path=args.trace,
            slow_query_ms=args.slow_query_ms,
        ) as service:
            if args.stats and service.recovery is not None:
                recovered = service.recovery
                err.write(
                    f"recovered {recovered['instances_restored']} instance(s) "
                    f"and pre-loaded {recovered['plans_warmed']} plan(s) "
                    f"from {args.state_dir}\n"
                )
            on_batch = None
            if args.metrics_out:
                last_write = [0.0]

                def on_batch() -> None:
                    now = _time.monotonic()
                    if now - last_write[0] >= args.metrics_interval:
                        last_write[0] = now
                        _write_metrics_snapshot(service, args.metrics_out)

            code = run_jsonl_session(lines, output, service, on_batch=on_batch)
            if args.metrics_out:
                _write_metrics_snapshot(service, args.metrics_out)
            if args.stats:
                stats = service.stats()
                err.write(
                    f"served {stats.requests} request(s) in {stats.batches} "
                    f"batch(es): {stats.coalesced} coalesced "
                    f"({stats.dedupe_hit_rate():.0%}), "
                    f"{stats.result_cache_hits()} result-cache hit(s), "
                    f"{stats.updates} update(s)\n"
                )
                err.write(
                    f"reliability: {stats.restarts} worker restart(s), "
                    f"{stats.retries} retried dispatch(es), "
                    f"{stats.deadline_hits} deadline hit(s), "
                    f"{stats.degraded} degraded answer(s)\n"
                )
                for entry in service.slow_queries:
                    err.write(
                        f"slow query: {entry['duration_ms']:.1f} ms "
                        f"id={entry['request_id']} instance={entry['instance']} "
                        f"method={entry['method']} worker={entry['worker']}\n"
                    )
            return code
    finally:
        if close_input is not None:
            close_input.close()
        if output is not out:
            output.close()


def _load_snapshot(path: str):
    """Load a metrics snapshot JSON file ('-' reads stdin)."""
    import json

    if path == "-":
        return json.load(sys.stdin)
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _run_metrics(args, out, err) -> int:
    from repro.obs.metrics import render_prometheus

    try:
        snapshot = _load_snapshot(args.snapshot)
    except (OSError, ValueError) as exc:
        err.write(f"error: could not load snapshot: {exc}\n")
        return 2
    out.write(render_prometheus(snapshot))
    return 0


def _run_trace(args, out, err) -> int:
    from repro.obs.trace import read_trace, render_trace, validate_trace

    try:
        records = read_trace(args.trace_file)
    except (OSError, ValueError) as exc:
        err.write(f"error: could not read trace: {exc}\n")
        return 2
    if args.validate:
        problems = validate_trace(records)
        if problems:
            for problem in problems:
                err.write(f"invalid: {problem}\n")
            err.write(f"error: {len(problems)} trace violation(s)\n")
            return 1
        out.write(f"ok: {len(records)} span(s), all invariants hold\n")
        return 0
    out.write(render_trace(records) + "\n")
    return 0


def _format_top(snapshot, previous=None, elapsed: Optional[float] = None) -> str:
    """Render one ``repro top`` frame from a metrics snapshot.

    With a ``previous`` snapshot and the ``elapsed`` seconds between the
    two reads, per-route request rates are the deltas — the live view of
    ``--watch``; a single snapshot renders totals with rates left blank.
    """
    from repro.obs.metrics import counter_total, histogram_quantile

    def rate(now: float, before: float) -> str:
        if previous is None or not elapsed:
            return "-"
        return f"{max(0.0, now - before) / elapsed:.1f}/s"

    lines = ["route          requests    req/s     p50 ms    p99 ms"]
    family = (snapshot.get("histograms") or {}).get("repro_request_duration_ms")
    prev_counts: dict = {}
    if previous is not None:
        prev_family = (previous.get("histograms") or {}).get(
            "repro_request_duration_ms"
        )
        if prev_family:
            prev_counts = {
                tuple(labels): data["count"]
                for labels, data in prev_family["samples"]
            }
    if family:
        bounds = family["buckets"]
        for labels, data in sorted(family["samples"]):
            if not data["count"]:
                continue
            route = labels[0] if labels else "?"
            p50 = histogram_quantile(bounds, data["counts"], 0.5)
            p99 = histogram_quantile(bounds, data["counts"], 0.99)
            lines.append(
                f"{route:<14} {data['count']:>8} {rate(data['count'], prev_counts.get(tuple(labels), 0)):>8} "
                f"{p50:>9.2f} {p99:>9.2f}"
            )
    else:
        lines.append("(no request latency samples)")

    def total(name: str) -> int:
        return int(counter_total(snapshot, name))

    cache_hits = total("repro_service_result_cache_hits_total")
    submitted = total("repro_service_requests_total")
    dispatched = total("repro_service_dispatched_total")
    hit_rate = cache_hits / dispatched if dispatched else 0.0
    dedupe = (submitted - dispatched) / submitted if submitted else 0.0
    lines.append(
        f"caches: result-cache hit rate {hit_rate:.0%} "
        f"({cache_hits}/{dispatched}), dedupe rate {dedupe:.0%} "
        f"({submitted - dispatched}/{submitted} coalesced)"
    )
    lines.append(
        f"sampler: {total('repro_sampler_samples_total')} sample(s) drawn"
    )
    lines.append(
        f"pool: {total('repro_service_restarts_total')} restart(s), "
        f"{total('repro_service_retries_total')} retried dispatch(es), "
        f"{total('repro_service_deadline_hits_total')} deadline hit(s), "
        f"{total('repro_service_degraded_total')} degraded answer(s)"
    )
    return "\n".join(lines)


def _run_top(args, out, err) -> int:
    import time as _time

    try:
        snapshot = _load_snapshot(args.snapshot)
    except (OSError, ValueError) as exc:
        err.write(f"error: could not load snapshot: {exc}\n")
        return 2
    if not args.watch:
        out.write(_format_top(snapshot) + "\n")
        return 0
    iterations = 0
    previous = snapshot
    out.write(_format_top(snapshot) + "\n")
    try:
        while args.iterations <= 0 or iterations < args.iterations:
            _time.sleep(args.interval)
            iterations += 1
            try:
                snapshot = _load_snapshot(args.snapshot)
            except (OSError, ValueError):
                continue  # mid-rewrite or gone; keep the last frame
            out.write("\x1b[2J\x1b[H" if out.isatty() else "\n")
            out.write(
                _format_top(snapshot, previous, elapsed=args.interval) + "\n"
            )
            previous = snapshot
    except KeyboardInterrupt:
        pass
    return 0


def _run_store(args, out, err) -> int:
    import os

    from repro.persist import PlanStore, WriteAheadLog, scan_wal

    state_dir = args.state_dir
    if not os.path.isdir(state_dir):
        err.write(f"error: {state_dir!r} is not a state directory\n")
        return 2
    wal_dir = os.path.join(state_dir, "wal")
    plans_dir = os.path.join(state_dir, "plans")

    if args.action == "verify":
        wal_report = scan_wal(wal_dir)
        out.write(
            f"wal: {wal_report.segments_scanned} segment(s), "
            f"{wal_report.records_replayed} valid record(s), "
            f"{wal_report.torn_tail_bytes} torn tail byte(s), "
            f"{wal_report.corrupt_frames} corrupt frame(s), "
            f"{wal_report.quarantined_segments} bad segment header(s)\n"
        )
        store_report = PlanStore(plans_dir).verify()
        out.write(
            f"plans: {store_report['entries']} entr(ies), "
            f"{store_report['valid']} valid, {store_report['corrupt']} corrupt\n"
        )
        for path, reason in sorted(store_report["failures"].items()):
            out.write(f"  corrupt entry {path}: {reason}\n")
        if wal_report.corruption_detected or store_report["corrupt"]:
            err.write("error: corruption detected\n")
            return 1
        out.write("ok: every checksum verified\n")
        return 0

    if args.action == "compact":
        # Offline compaction folds the log exactly as a restarting service
        # replays it and writes what QueryService.compact_state writes.
        from repro.service.service import compaction_records, replay_journals

        with WriteAheadLog(wal_dir) as wal:
            before = wal.recovery
            records = compaction_records(replay_journals(wal.replay()))
            wal.compact(records)
        if before.corruption_detected:
            out.write(
                f"repaired on open: {before.torn_tail_bytes} torn tail "
                f"byte(s), {before.corrupt_frames} corrupt frame(s), "
                f"{before.quarantined_segments} quarantined segment(s)\n"
            )
        out.write(
            f"compacted {before.records_replayed} record(s) into "
            f"{len(records)} snapshot(s)\n"
        )
        return 0

    # inspect
    wal_report = scan_wal(wal_dir)
    out.write(
        f"wal: {wal_report.segments_scanned} segment(s), "
        f"{wal_report.records_replayed} record(s)"
        + (" [corruption detected]\n" if wal_report.corruption_detected else "\n")
    )
    rows = PlanStore(plans_dir).inspect()
    out.write(f"plans: {len(rows)} entr(ies)\n")
    for row in rows:
        out.write(
            f"  {row['digest'][:12]}  method={row['method']}  "
            f"namespace={row['namespace']}  tape={'yes' if row['tape'] else 'no'}  "
            f"{row['bytes']} bytes\n"
        )
    return 0


def _finish_bench(report, what, check, format_report, write_report, output, out, err) -> int:
    """Print a benchmark report, then enforce its gates with ``check()``.

    A run that fails a gate still shows every row it measured; the report
    file (``output``, or nothing for ``-``) is written only when the gates
    pass.
    """
    out.write(format_report(report) + "\n")
    try:
        check()
    except AssertionError as exc:
        err.write(f"error: {what} benchmark check failed: {exc}\n")
        return 1
    if output != "-":
        write_report(report, output)
        out.write(f"report written to {output}\n")
    return 0


def _run_bench(args, out, err) -> int:
    runner = {
        "plans": _run_bench_plans,
        "sampling": _run_bench_sampling,
        "service": _run_bench_service,
        "query": _run_bench_query,
    }[args.suite]
    return runner(args, out, err)


def _run_bench_plans(args, out, err) -> int:
    from repro.bench_plans import (
        check_plan_thresholds,
        format_plan_report,
        run_plan_benchmarks,
        write_plan_report,
    )

    if args.smoke:
        instance_size, queries, rounds, updates = 12, 6, 2, 30
    else:
        instance_size, queries, rounds, updates = (
            args.instance_size, args.queries, args.rounds, args.updates,
        )
    try:
        report = run_plan_benchmarks(
            instance_size=instance_size,
            num_queries=queries,
            rounds=rounds,
            updates=updates,
        )
    except AssertionError as exc:
        err.write(f"error: plan benchmark check failed: {exc}\n")
        return 1
    return _finish_bench(
        report, "plan", lambda: check_plan_thresholds(
            report,
            min_reuse_speedup=args.min_reuse_speedup,
            min_incremental_speedup=args.min_incremental_speedup,
            min_tape_speedup=args.min_tape_speedup,
            min_exact_tape_speedup=args.min_exact_tape_speedup,
            min_first_exact_speedup=args.min_first_exact_speedup,
            min_cold_exact_speedup=args.min_cold_exact_speedup,
            min_interval_match_speedup=args.min_interval_match_speedup,
            min_live_speedup=args.min_live_speedup,
            min_repeated_lane_speedup=args.min_repeated_lane_speedup,
            min_what_if_speedup=args.min_what_if_speedup,
        ),
        format_plan_report, write_plan_report, args.output or "BENCH_plans.json", out, err,
    )


def _run_bench_sampling(args, out, err) -> int:
    from repro.bench_sampling import (
        check_sampling_thresholds,
        format_sampling_report,
        run_sampling_benchmarks,
        write_sampling_report,
    )

    try:
        report = run_sampling_benchmarks(smoke=args.smoke)
    except AssertionError as exc:
        err.write(f"error: sampling benchmark check failed: {exc}\n")
        return 1
    return _finish_bench(
        report, "sampling", lambda: check_sampling_thresholds(
            report,
            min_speedup=args.min_sampling_speedup,
            max_epsilon_ratio=args.max_epsilon_ratio,
        ),
        format_sampling_report, write_sampling_report, args.output or "BENCH_sampling.json", out, err,
    )


def _run_bench_service(args, out, err) -> int:
    from repro.bench_service import (
        check_service_thresholds,
        format_service_report,
        run_service_benchmarks,
        write_service_report,
    )

    try:
        report = run_service_benchmarks(
            smoke=args.smoke, faults=args.faults, restart=args.restart,
            trace_out=args.trace_out,
        )
    except AssertionError as exc:
        err.write(f"error: service benchmark check failed: {exc}\n")
        return 1
    return _finish_bench(
        report, "service", lambda: check_service_thresholds(
            report,
            min_speedup=args.min_service_speedup,
            max_recovery_ms=args.max_recovery_ms,
            min_worker_scaling=args.min_worker_scaling,
            max_p99_ms=args.max_p99_ms,
            min_obs_overhead_ratio=args.min_obs_overhead_ratio,
        ),
        format_service_report, write_service_report, args.output or "BENCH_service.json", out, err,
    )


def _run_bench_query(args, out, err) -> int:
    from repro.bench_query import (
        check_query_thresholds,
        format_query_report,
        run_query_benchmarks,
        write_query_report,
    )

    try:
        report = run_query_benchmarks(smoke=args.smoke)
    except AssertionError as exc:
        err.write(f"error: query benchmark check failed: {exc}\n")
        return 1
    return _finish_bench(
        report, "query", lambda: check_query_thresholds(
            report,
            min_minimization_speedup=args.min_minimization_speedup,
            min_core_speedup=args.min_core_speedup,
            min_parse_speedup=args.min_parse_speedup,
        ),
        format_query_report, write_query_report, args.output or "BENCH_query.json", out, err,
    )


def main(argv: Optional[List[str]] = None, out=None, err=None) -> int:
    """Entry point; returns a process exit code."""
    out = out or sys.stdout
    err = err or sys.stderr
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "tables":
        return _run_tables(out)
    if args.command == "classify":
        return _run_classify(args, out)
    if args.command == "solve":
        return _run_solve(args, out, err)
    if args.command == "parse":
        return _run_parse(args, out, err)
    if args.command == "serve":
        return _run_serve(args, out, err)
    if args.command == "metrics":
        return _run_metrics(args, out, err)
    if args.command == "trace":
        return _run_trace(args, out, err)
    if args.command == "top":
        return _run_top(args, out, err)
    if args.command == "store":
        return _run_store(args, out, err)
    if args.command == "bench":
        return _run_bench(args, out, err)
    parser.error(f"unknown command {args.command!r}")  # pragma: no cover
    return 2  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
