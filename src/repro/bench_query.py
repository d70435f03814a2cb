"""Query-frontend benchmark: core minimization as a dispatch-level speedup.

The paper's classification is driven by the *shape* of the query graph, so a
query written with redundant atoms can land in a #P-hard cell even though
its homomorphic core sits in a polynomial one.  This suite measures what the
:mod:`repro.query` frontend buys on exactly those queries:

* ``minimization`` — for redundant-atom queries over tractable 1WP cores
  (:func:`repro.workloads.generators.redundant_query_workload`) on
  downward-tree instances of growing size, the wall-clock of the minimizing
  dispatcher (which folds the query and runs the polynomial DWT route)
  versus the non-minimizing dispatcher's exact brute force and Karp–Luby
  sampling; the minimized exact answer is asserted **equal** (as a bit-exact
  rational) to the unminimized brute-force oracle on every workload;
* ``overhead`` — the cost of the frontend itself: parse time, minimization
  time, and the steady-state cost of solving a *string* query per call under
  plan caching (parse + minimize + cached-plan evaluate) against the cold
  compile, showing the frontend amortizes;
* ``coalescing`` — a service trace of syntactically distinct string queries
  with equal cores, replayed through an inline
  :class:`~repro.service.QueryService`: the recorded stats verify that
  :func:`repro.plan.canonical_query_key` merges the variants (distinct
  computations == distinct cores, not distinct spellings);
* ``core_fast_path`` — per query shape (2WP, single-label DWT, 1WP), the
  cost per query of :func:`repro.query.query_core` on fresh parses (class
  recognition included) against the generic fold search
  (:func:`repro.query.minimize.fold_search_core`) on the same queries, each
  in its best round; the canonical keys of the two cores are asserted
  equal on every query;
* ``parse_fast_path`` — per query shape (3-atom 2WP, 4-atom unlabeled
  tree, 12-atom 1WP), the cost of :func:`repro.query.parse_query`, whose
  one-pass scan reads these plain atom lists, against the recursive-descent
  parser on the same texts; the two IRs (spans included) are asserted equal
  on every text.

Every side of every row is timed by :func:`repro.bench.time_sides`.  Cold
solves and the steady-state loops of ``overhead`` take one round; the
other sides take interleaved rounds whose first side alternates.  Every
speedup is the best round of one side over the best round of the other,
and ``overhead``'s parse and minimize times are medians.  Results are
written to ``BENCH_query.json``; run with ``repro bench query`` or
``python benchmarks/bench_query.py``.  ``--min-minimization-speedup``,
``--min-core-speedup`` and ``--min-parse-speedup`` turn regressions into a
non-zero exit code (the CI smoke gates).
"""

from __future__ import annotations

import os
import platform
import warnings
from fractions import Fraction
from typing import Dict, List, Optional, Sequence

from repro.bench import BENCH_SEED, time_sides, write_report
from repro.approx import make_rng
from repro.core.solver import PHomSolver
from repro.exceptions import IntractableFallbackWarning
from repro.graphs.classes import GraphClass, graph_in_class
from repro.plan import canonical_query_key
from repro.query import format_query, parse_query, parse_query_graph, query_core
from repro.query.minimize import fold_search_core
from repro.query.parser import _Parser
from repro.service import QueryService, ServiceRequest
from repro.workloads.generators import (
    attach_random_probabilities,
    make_instance,
    make_query,
    redundant_query_workload,
)
from repro import __version__

#: Instance sizes (vertices of the DWT instance) for the speedup ladder.
MINIMIZATION_INSTANCE_SIZES = (10, 14, 18)
SMOKE_INSTANCE_SIZES = (8, 10)

#: Redundant atoms added on top of the 2-edge 1WP core.
REDUNDANCY = 4
SMOKE_REDUNDANCY = 3

#: Calls used to measure the steady-state string-query cost.
OVERHEAD_CALLS = 200
SMOKE_OVERHEAD_CALLS = 50
#: Fresh parses behind ``parse_seconds`` and ``minimize_seconds``: each is
#: the median over this many rounds (one cold call swings with the machine).
OVERHEAD_TIMINGS = 25

#: Coalescing trace shape: distinct cores x spelling variants x repetitions.
TRACE_CORES = 4
TRACE_VARIANTS = 3
TRACE_REPEATS = 5

#: Core fast-path shapes: (name, query class, labeled, size in
#: :func:`~repro.workloads.generators.make_query` units).  The DWT shape is
#: the unlabeled Zipf serving query; the 2WP shape sits between the Zipf
#: (3 edges) and cold-traffic (6 edges) two-way paths.
CORE_SHAPES = (
    ("2WP", GraphClass.TWO_WAY_PATH, True, 5),
    ("DWT", GraphClass.DOWNWARD_TREE, False, 4),
    ("1WP", GraphClass.ONE_WAY_PATH, True, 3),
)
#: Shapes ``--min-core-speedup`` applies to: those with a class-specific
#: algorithm.  A one-way path returns before any search; its row is the
#: floor that class recognition alone costs.
CORE_GATED_SHAPES = ("2WP", "DWT")
CORE_QUERIES = 40
SMOKE_CORE_QUERIES = 16
CORE_ROUNDS = 5
SMOKE_CORE_ROUNDS = 3

#: Parse fast-path shapes, in the units of :data:`CORE_SHAPES`: the Zipf
#: two-way path (3 atoms), the unlabeled Zipf tree (4 atoms) and the
#: cold-traffic one-way path (12 atoms).  Each shape's time is the best of
#: its rounds, which ``--min-parse-speedup`` applies to.
PARSE_SHAPES = (
    ("2WP", GraphClass.TWO_WAY_PATH, True, 3),
    ("DWT", GraphClass.DOWNWARD_TREE, False, 4),
    ("1WP", GraphClass.ONE_WAY_PATH, True, 12),
)
PARSE_ROUNDS = 9
SMOKE_PARSE_ROUNDS = 5


def _non_path_dwt_instance(size: int, rng) -> object:
    """A labeled DWT instance that is *not* a union of two-way paths.

    On a path-shaped instance every connected query is answered by the
    Proposition 4.11 route, minimized or not — which would let the
    unminimized dispatcher off the #P-hard hook and void the comparison.
    """
    while True:
        graph = make_instance(GraphClass.DOWNWARD_TREE, True, size, rng)
        if not graph_in_class(graph, GraphClass.UNION_TWO_WAY_PATH):
            return attach_random_probabilities(graph, rng, certain_fraction=0.2)


def run_query_benchmarks(
    instance_sizes: Optional[Sequence[int]] = None,
    seed: int = BENCH_SEED,
    smoke: bool = False,
) -> Dict[str, object]:
    """Run the full suite and return the JSON-serialisable report."""
    if instance_sizes is None:
        instance_sizes = SMOKE_INSTANCE_SIZES if smoke else MINIMIZATION_INSTANCE_SIZES
    redundancy = SMOKE_REDUNDANCY if smoke else REDUNDANCY

    rows: List[Dict[str, object]] = []
    for size in instance_sizes:
        rng = make_rng(seed + size)
        workload = redundant_query_workload(
            core_class=GraphClass.ONE_WAY_PATH,
            core_size=2,
            redundancy=redundancy,
            instance_size=size,
            labeled=True,
            rng=rng,
        )
        # Swap in an instance guaranteed to keep the unminimized dispatcher
        # on the #P-hard fallback (see _non_path_dwt_instance).
        instance = _non_path_dwt_instance(size, rng)
        query = workload.query
        core = query_core(query)

        # One cold solve per side, each on a fresh solver, so minimization
        # and plan compile are paid inside the timing: the unminimized
        # exact oracle (the dispatcher as it was before this frontend
        # existed, brute-forcing the #P-hard cell), unminimized sampling
        # (the cell's other route without the frontend) and the minimized
        # dispatch.
        plain = PHomSolver(minimize_queries=False)
        sampler = PHomSolver(
            minimize_queries=False, precision="approx",
            epsilon=0.1, delta=0.05, seed=seed,
        )
        minimizing = PHomSolver()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IntractableFallbackWarning)
            timings = time_sides(
                {
                    "brute_force": lambda: plain.solve(query, instance),
                    "karp_luby": lambda: sampler.solve(query, instance),
                    "minimized": lambda: minimizing.solve(query, instance),
                }
            )
        oracle_result = timings["brute_force"].result
        sampled_result = timings["karp_luby"].result
        minimized_result = timings["minimized"].result
        brute_seconds = timings["brute_force"].best
        sampling_seconds = timings["karp_luby"].best
        minimized_seconds = timings["minimized"].best
        if oracle_result.method != "brute-force-worlds":
            raise AssertionError(
                f"expected the unminimized dispatcher to brute-force the "
                f"redundant query, got {oracle_result.method!r}"
            )
        if minimized_result.method == "brute-force-worlds":
            raise AssertionError(
                "expected the minimizing dispatcher to reach a polynomial route"
            )
        if minimized_result.probability != oracle_result.probability:
            raise AssertionError(
                f"minimized exact answer {minimized_result.probability} differs "
                f"from the unminimized oracle {oracle_result.probability}"
            )
        rows.append(
            {
                "instance_size": size,
                "instance_uncertain_edges": len(instance.uncertain_edges()),
                "query": format_query(query),
                "core": format_query(core),
                "query_atoms": query.num_edges(),
                "core_atoms": core.num_edges(),
                "minimized_method": minimized_result.method,
                "exact": str(oracle_result.probability),
                "exact_float": float(oracle_result.probability),
                "estimate_float": float(sampled_result.probability),
                "exact_equal": minimized_result.probability == oracle_result.probability,
                "brute_force_seconds": brute_seconds,
                "karp_luby_seconds": sampling_seconds,
                "minimized_seconds": minimized_seconds,
                "speedup_vs_brute_force": (
                    brute_seconds / minimized_seconds if minimized_seconds else None
                ),
                "speedup_vs_karp_luby": (
                    sampling_seconds / minimized_seconds if minimized_seconds else None
                ),
            }
        )

    overhead = _overhead_measurements(
        SMOKE_OVERHEAD_CALLS if smoke else OVERHEAD_CALLS, seed, smoke
    )
    coalescing = _coalescing_trace(seed, smoke)
    core_fast_path = _core_fast_path(seed, smoke)
    parse_fast_path = _parse_fast_path(seed, smoke)

    return {
        "suite": "query",
        "meta": {
            "version": __version__,
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpus": os.cpu_count() or 1,
            "seed": seed,
            "smoke": smoke,
            "redundancy": redundancy,
            "contract": (
                "minimized dispatch answers are bit-identical rationals to "
                "the unminimized brute-force oracle; speedups compare one "
                "cold solve each"
            ),
        },
        "minimization": rows,
        "overhead": overhead,
        "coalescing": coalescing,
        "core_fast_path": core_fast_path,
        "parse_fast_path": parse_fast_path,
    }


def _overhead_measurements(calls: int, seed: int, smoke: bool) -> Dict[str, object]:
    """Parse/minimize cost versus the plan-cache steady state."""
    rng = make_rng(seed)
    text = "r1 -[R]-> q1, R(q0, q1), S(q1, q2), S(r2, q2)"
    instance = _non_path_dwt_instance(8 if smoke else 12, rng)

    # The core is memoised on the graph, so each minimize call gets a
    # fresh parse.
    frontend = time_sides(
        {"parse": lambda: parse_query_graph(text), "minimize": query_core},
        rounds=OVERHEAD_TIMINGS,
        prepare={"minimize": lambda: parse_query_graph(text)},
    )

    solver = PHomSolver()
    cold_seconds = time_sides({"cold": lambda: solver.solve(text, instance)})["cold"].best
    shared = parse_query_graph(text)
    solver.solve(shared, instance)  # warm the memoised core on the object
    steady = time_sides(
        {
            # Re-parses on every call; hits the plan cache.
            "string": lambda: [solver.solve(text, instance) for _ in range(calls)],
            "graph": lambda: [solver.solve(shared, instance) for _ in range(calls)],
        }
    )
    string_call_seconds = steady["string"].best / calls
    graph_call_seconds = steady["graph"].best / calls
    return {
        "query": text,
        "calls": calls,
        "timings": OVERHEAD_TIMINGS,
        "parse_seconds": frontend["parse"].median,
        "minimize_seconds": frontend["minimize"].median,
        "cold_solve_seconds": cold_seconds,
        "string_steady_seconds_per_call": string_call_seconds,
        "graph_steady_seconds_per_call": graph_call_seconds,
        "frontend_overhead_ratio": (
            string_call_seconds / graph_call_seconds if graph_call_seconds else None
        ),
        "amortized_vs_cold": (
            cold_seconds / string_call_seconds if string_call_seconds else None
        ),
    }


def _coalescing_trace(seed: int, smoke: bool) -> Dict[str, object]:
    """Replay spelling variants through a service; verify core coalescing."""
    rng = make_rng(seed + 1)
    instance = _non_path_dwt_instance(8 if smoke else 12, rng)
    labels = sorted(instance.graph.labels())
    first, second = labels[0], labels[-1]
    cores = [
        f"{first}(a, b)",
        f"{first}(a, b), {second}(b, c)",
        f"a -[{first}{{2}}]-> b",
        f"{second}(a, b), {second}(b, c)",
    ][: TRACE_CORES]

    def variants(core_text: str) -> List[str]:
        graph = parse_query_graph(core_text)
        renamed = {v: f"v{i}" for i, v in enumerate(sorted(graph.vertices))}
        spelled = ", ".join(
            f"{e.label}({renamed[e.source]}, {renamed[e.target]})"
            for e in graph.edges()
        )
        edge = graph.edges()[0]
        redundant = f"{core_text}, {edge.label}(extra, {edge.target})"
        return [core_text, spelled, redundant][:TRACE_VARIANTS]

    requests = []
    for core_text in cores:
        for variant in variants(core_text):
            for _ in range(TRACE_REPEATS):
                requests.append(variant)
    rng.shuffle(requests)

    with QueryService(num_workers=0) as service:
        instance_id = service.register_instance(instance)
        batch = [
            ServiceRequest(query=text, instance_id=instance_id, precision="exact")
            for text in requests
        ]
        results = service.submit_many(batch)
        stats = service.stats()

    distinct_keys = {
        request.coalesce_key(default_precision="exact") for request in batch
    }
    if len(distinct_keys) > len(cores):
        raise AssertionError(
            f"canonical_query_key left {len(distinct_keys)} distinct keys for "
            f"{len(cores)} distinct cores; spelling variants did not coalesce"
        )
    # Spelling variants of one core must also report identical probabilities.
    by_key: Dict[object, Fraction] = {}
    for request, outcome in zip(batch, results):
        key = request.coalesce_key(default_precision="exact")
        previous = by_key.setdefault(key, outcome.probability)
        if previous != outcome.probability:
            raise AssertionError("coalesced variants returned different answers")
    return {
        "requests": len(requests),
        "distinct_cores": len(cores),
        "variants_per_core": TRACE_VARIANTS,
        "repeats": TRACE_REPEATS,
        "distinct_coalesce_keys": len(distinct_keys),
        "coalesced": stats.coalesced,
        "verified": True,
    }


def _core_fast_path(seed: int, smoke: bool) -> List[Dict[str, object]]:
    """``query_core`` against the fold search on fresh parses, per shape."""
    rng = make_rng(seed + 2)
    count = SMOKE_CORE_QUERIES if smoke else CORE_QUERIES
    rounds = SMOKE_CORE_ROUNDS if smoke else CORE_ROUNDS
    rows: List[Dict[str, object]] = []
    for shape, query_class, labeled, size in CORE_SHAPES:
        texts = [
            format_query(make_query(query_class, labeled, size, rng))
            for _ in range(count)
        ]
        folded = 0
        for text in texts:
            query = parse_query_graph(text)
            oracle = fold_search_core(parse_query_graph(text))
            if canonical_query_key(query) != canonical_query_key(oracle, minimize=False):
                raise AssertionError(
                    f"query_core and the fold search disagree on the key of {text!r}"
                )
            if query_core(query) is not query:
                folded += 1
        # Each round minimizes fresh parses, made off the clock: the core
        # is memoised on the graph.
        timings = time_sides(
            {
                "query_core": lambda graphs: [query_core(graph) for graph in graphs],
                "fold_search": lambda graphs: [fold_search_core(graph) for graph in graphs],
            },
            rounds=rounds,
            prepare=dict.fromkeys(
                ("query_core", "fold_search"),
                lambda: [parse_query_graph(text) for text in texts],
            ),
        )
        fast, fold = timings["query_core"].best, timings["fold_search"].best
        rows.append(
            {
                "shape": shape,
                "labeled": labeled,
                "size": size,
                "queries": len(texts),
                "folded": folded,
                "rounds": rounds,
                "query_core_us": fast / len(texts) * 1e6,
                "fold_search_us": fold / len(texts) * 1e6,
                "speedup": fold / fast if fast else None,
                "keys_equal": True,
            }
        )
    return rows


def _parse_fast_path(seed: int, smoke: bool) -> List[Dict[str, object]]:
    """``parse_query`` against the recursive-descent parser, per shape."""
    rng = make_rng(seed + 3)
    count = SMOKE_CORE_QUERIES if smoke else CORE_QUERIES
    rounds = SMOKE_PARSE_ROUNDS if smoke else PARSE_ROUNDS
    rows: List[Dict[str, object]] = []
    for shape, query_class, labeled, size in PARSE_SHAPES:
        texts = [
            format_query(make_query(query_class, labeled, size, rng))
            for _ in range(count)
        ]
        for text in texts:
            scanned, parsed = parse_query(text), _Parser(text).parse()
            spans = [atom.span for atom in scanned.atoms]
            if scanned != parsed or spans != [atom.span for atom in parsed.atoms]:
                raise AssertionError(
                    f"parse_query and the recursive-descent parser disagree on {text!r}"
                )
        timings = time_sides(
            {
                "parse_query": lambda: [parse_query(text) for text in texts],
                "recursive_descent": lambda: [_Parser(text).parse() for text in texts],
            },
            rounds=rounds,
        )
        scan, full = timings["parse_query"].best, timings["recursive_descent"].best
        rows.append(
            {
                "shape": shape,
                "labeled": labeled,
                "atoms": len(parse_query(texts[0]).atoms),
                "queries": len(texts),
                "rounds": rounds,
                "parse_query_us": scan / len(texts) * 1e6,
                "recursive_descent_us": full / len(texts) * 1e6,
                "speedup": full / scan if scan else None,
                "irs_equal": True,
            }
        )
    return rows


def check_query_thresholds(
    report: Dict[str, object],
    min_minimization_speedup: float = 0.0,
    min_core_speedup: float = 0.0,
    min_parse_speedup: float = 0.0,
) -> None:
    """Raise ``AssertionError`` when the recorded run violates the gates.

    ``min_minimization_speedup`` applies to the *largest* instance of the
    ladder, against the cheaper of the two unminimized baselines (brute
    force and Karp–Luby) — the honest comparison, since an operator would
    pick whichever baseline is faster.  ``min_core_speedup`` applies to
    every shape in :data:`CORE_GATED_SHAPES`, ``min_parse_speedup`` to
    every shape in :data:`PARSE_SHAPES`.
    """
    rows = report["minimization"]
    for row in rows:
        if not row["exact_equal"]:
            raise AssertionError(
                f"minimized answer on the size-{row['instance_size']} workload "
                f"is not bit-identical to the unminimized oracle"
            )
    if min_minimization_speedup > 0 and rows:
        largest = rows[-1]
        speedup = min(
            largest["speedup_vs_brute_force"] or 0.0,
            largest["speedup_vs_karp_luby"] or 0.0,
        )
        if speedup < min_minimization_speedup:
            raise AssertionError(
                f"minimization speedup on the size-{largest['instance_size']} "
                f"workload is {speedup:.1f}x, below the required "
                f"{min_minimization_speedup}x"
            )
    if not report["coalescing"]["verified"]:
        raise AssertionError("service-trace coalescing was not verified")
    for row in report["core_fast_path"]:
        if min_core_speedup > 0 and row["shape"] in CORE_GATED_SHAPES:
            if (row["speedup"] or 0.0) < min_core_speedup:
                raise AssertionError(
                    f"query_core on {row['shape']} queries is "
                    f"{row['speedup']:.1f}x faster than the fold search, below "
                    f"the required {min_core_speedup}x"
                )
    for row in report["parse_fast_path"]:
        if min_parse_speedup > 0 and (row["speedup"] or 0.0) < min_parse_speedup:
            raise AssertionError(
                f"parse_query on {row['shape']} texts is {row['speedup']:.1f}x "
                f"faster than the recursive-descent parser, below the required "
                f"{min_parse_speedup}x"
            )


def format_query_report(report: Dict[str, object]) -> str:
    """A human-readable summary of the recorded run."""
    lines = [
        "query frontend benchmark (core minimization vs as-written dispatch)",
        f"  seed={report['meta']['seed']}, redundancy={report['meta']['redundancy']}",
    ]
    for row in report["minimization"]:
        lines.append(
            f"  |H|={row['instance_size']:>3} ({row['instance_uncertain_edges']} "
            f"uncertain edges): {row['query_atoms']} atoms -> "
            f"{row['core_atoms']} ({row['minimized_method']}) | "
            f"brute {row['brute_force_seconds']:.3f}s, "
            f"karp-luby {row['karp_luby_seconds']:.3f}s vs minimized "
            f"{row['minimized_seconds']:.4f}s = "
            f"{row['speedup_vs_brute_force']:.0f}x / "
            f"{row['speedup_vs_karp_luby']:.0f}x"
        )
    overhead = report["overhead"]
    lines.append(
        f"  frontend overhead (median of {overhead['timings']} fresh parses): "
        f"parse {overhead['parse_seconds'] * 1e6:.0f}us, "
        f"minimize {overhead['minimize_seconds'] * 1e6:.0f}us; steady-state "
        f"string solve {overhead['string_steady_seconds_per_call'] * 1e6:.0f}us/call "
        f"({overhead['frontend_overhead_ratio']:.1f}x the shared-graph call, "
        f"{overhead['amortized_vs_cold']:.1f}x faster than a cold compile)"
    )
    coalescing = report["coalescing"]
    lines.append(
        f"  coalescing: {coalescing['requests']} requests over "
        f"{coalescing['distinct_cores']} cores x "
        f"{coalescing['variants_per_core']} spellings -> "
        f"{coalescing['distinct_coalesce_keys']} coalesce key(s), "
        f"{coalescing['coalesced']} request(s) coalesced"
    )
    for row in report["core_fast_path"]:
        lines.append(
            f"  core {row['shape']} (size {row['size']}, {row['folded']}/"
            f"{row['queries']} fold): query_core {row['query_core_us']:.0f}us vs "
            f"fold search {row['fold_search_us']:.0f}us = {row['speedup']:.1f}x"
        )
    for row in report["parse_fast_path"]:
        lines.append(
            f"  parse {row['shape']} ({row['atoms']} atoms): parse_query "
            f"{row['parse_query_us']:.1f}us vs recursive descent "
            f"{row['recursive_descent_us']:.1f}us = {row['speedup']:.1f}x"
        )
    return "\n".join(lines)


def write_query_report(report: Dict[str, object], path: str) -> None:
    """Serialise the report (shared JSON writer with the other suites)."""
    write_report(report, path)
