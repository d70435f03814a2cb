"""Compiled-plan benchmark: re-evaluation and incremental-update workloads.

The serving scenario behind :mod:`repro.plan` is a fleet answering the *same*
queries against an instance whose probabilities drift between rounds (fresh
observations, decaying confidences).  The pre-plan API pays the structural
phase — interval matching, KMP skeletons, d-DNNF compilation — on every
call; a compiled plan pays it once and then reruns only arithmetic.  This
module measures exactly that, plus the incremental single-edge update path:

* ``plan_reuse`` — per workload, ``R`` drift rounds each re-evaluating every
  query: PR-1-style ``solve_many`` (float backend, plan cache disabled)
  versus one ``compile`` (which lowers each plan to its tape) followed by
  ``plan.evaluate`` per round;
* ``incremental`` — a stream of single-edge probability updates answered by
  ``plan.update`` (a replay of the tape operations depending on the edge)
  versus a full re-solve per update, in float and in exact mode;
* ``live`` — per route, plus a disjoint union of 8 labeled downward trees
  shaped like the repository benchmark's Zipf instances:
  ``instance.set_probability`` followed by ``plan.evaluate()``, which
  catches the plan's live session up with the change, versus the same
  change followed by a full tape replay, in exact and float mode;
* ``what_if`` — on the ``live`` row's union instance, a one-lane override
  ``plan.evaluate(probabilities=...)``, which starts from the plan's live
  session, versus a full tape replay of the same table, in exact and float
  mode;
* ``tape_batch`` — a batch of probability valuations answered in one
  vectorized pass over the plan's flat tape
  (:meth:`repro.plan.CompiledPlan.evaluate_many`, see :mod:`repro.tape`)
  versus one ``plan.evaluate`` call per valuation, across batch sizes
  1 / 16 / 256, plus a ``repeated`` point: 256 lanes drawn from 8 of the
  tables, which run once per distinct table, versus 256 distinct lanes;
* ``exact_evaluate`` — per workload (one dispatch route each), one exact
  evaluation on the object graph versus one replay of the plan's tape on
  integer registers, plus the lowering time that replay amortises;
* ``first_exact`` — per workload, what a plan's second exact answer
  costs, the first that lowers it: lowering plus the first integer replay
  (which builds the replay's exponent program) versus one exact evaluation
  on the object graph;
* ``cold_exact`` — per workload, a cold plan's first exact answer, the
  kernels run once on scaled integers (the direct pass of
  ``plan.evaluate``), versus lowering plus the first integer replay;
* ``interval_match`` — on the connected-2wp workload, Proposition 4.11's
  structural phase per query and instance component: the bitset interval
  matcher of ``compile_connected_on_2wp`` versus the same sweep deciding
  each interval by Theorem 4.13 on the induced subpath graph.

Every configuration is cross-checked: plan results must be *bit-identical*
to the one-shot API in exact mode and within ``1e-9`` of exact in float
mode.  Every side of every row is timed by :func:`repro.bench.time_sides`
in interleaved rounds whose first side alternates, and every speedup is
the best round of one side over the best round of the other; only
``plan_reuse`` precedes each timed call with an untimed one, and the
``incremental`` row times one round.  Results are written to
``BENCH_plans.json``; run it with ``repro bench plans`` or
``python benchmarks/bench_plans.py``.
"""

from __future__ import annotations

import copy
import os
import platform
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Tuple

from repro.bench import BENCH_SEED, FLOAT_TOLERANCE, _rng, time_sides, write_report
from repro.core.labeled_2wp import (
    TwoWayPathSkeleton,
    _shortest_match_lengths,
    compile_connected_on_2wp,
)
from repro.core.solver import PHomSolver
from repro.csp.xproperty import x_property_has_homomorphism
from repro.graphs.classes import GraphClass, two_way_path_order
from repro.graphs.digraph import DiGraph, Edge
from repro.graphs.generators import DEFAULT_ALPHABET, random_disjoint_union
from repro.numeric import EXACT, FAST, resolve_context
from repro.plan import CompiledPlan, ComponentPlan
from repro.probability.prob_graph import ProbabilisticGraph
from repro.tape import compile_plan_tape
from repro.workloads.generators import attach_random_probabilities, make_instance, make_query
from repro import __version__


@dataclass
class PlanWorkload:
    """One re-evaluation workload: shared instance, repeated queries, a drift schedule."""

    name: str
    description: str
    instance: ProbabilisticGraph
    queries: List[DiGraph]
    #: Solver keyword overrides (e.g. ``prefer="automaton"`` for the d-DNNF route).
    solver_kwargs: Dict[str, object] = field(default_factory=dict)
    #: Whether to time Proposition 4.11's interval matching (2WP instances only).
    interval_match: bool = False


def build_plan_workloads(instance_size: int, num_queries: int) -> List[PlanWorkload]:
    """Three drifting-probability workloads, one per structural phase kind."""
    workloads: List[PlanWorkload] = []

    # Labeled 1WP queries on a downward tree: KMP skeletons (Prop 4.10).
    rng = _rng(1)
    dwt = make_instance(GraphClass.DOWNWARD_TREE, True, instance_size, rng)
    workloads.append(
        PlanWorkload(
            name="labeled-dwt",
            description=f"labeled 1WP queries on a {instance_size}-vertex downward tree",
            instance=attach_random_probabilities(dwt, rng),
            queries=[
                make_query(GraphClass.ONE_WAY_PATH, True, 3 + (i % 3), rng)
                for i in range(num_queries)
            ],
        )
    )

    # Connected labeled queries on a two-way path: interval matching (Prop 4.11).
    rng = _rng(2)
    two_wp = make_instance(GraphClass.TWO_WAY_PATH, True, max(instance_size // 2, 4), rng)
    workloads.append(
        PlanWorkload(
            name="connected-2wp",
            description=(
                f"connected labeled queries on a {max(instance_size // 2, 4)}-edge two-way path"
            ),
            instance=attach_random_probabilities(two_wp, rng),
            queries=[
                make_query(GraphClass.TWO_WAY_PATH, True, 2 + (i % 2), rng)
                for i in range(num_queries)
            ],
            interval_match=True,
        )
    )

    # Unlabeled tree queries on a polytree via the tree-automaton d-DNNF
    # route (Prop 5.4/5.5): the compiled circuit is the structural phase.
    rng = _rng(3)
    polytree = make_instance(GraphClass.POLYTREE, False, max(instance_size // 2, 6), rng)
    workloads.append(
        PlanWorkload(
            name="unlabeled-polytree-ddnnf",
            description=(
                f"unlabeled tree queries on a {max(instance_size // 2, 6) + 1}-vertex polytree, "
                "automaton/d-DNNF route"
            ),
            instance=attach_random_probabilities(polytree, rng),
            queries=[
                make_query(GraphClass.DOWNWARD_TREE, False, 2 + (i % 3), rng)
                for i in range(num_queries)
            ],
            solver_kwargs={"prefer": "automaton"},
        )
    )
    return workloads


def _drift_schedule(
    instance: ProbabilisticGraph, rounds: int, rng, edges_per_round: int = 4
) -> List[List[Tuple[Edge, Fraction]]]:
    """Per round, a batch of edge-probability changes (deterministic from the rng)."""
    edges = instance.edges()
    schedule: List[List[Tuple[Edge, Fraction]]] = []
    for _ in range(rounds):
        changes = []
        for _ in range(min(edges_per_round, len(edges))):
            edge = rng.choice(edges)
            changes.append((edge, Fraction(rng.randint(1, 15), 16)))
        schedule.append(changes)
    return schedule


def _object_graph(plan: CompiledPlan, overrides=None, context=EXACT):
    """The plan's answer from its kernels run on numbers, never its tape."""
    return plan._evaluate_with(plan._probability_table(overrides, context), context)


def _cold_copy(plan: CompiledPlan) -> CompiledPlan:
    """``plan`` as a solve leaves it on a cache miss: no tape, never evaluated."""
    cold = copy.copy(plan)
    cold._tape = None
    cold._live_sessions = None
    return cold


def measure_exact_evaluate(
    plans: List[CompiledPlan], instance: ProbabilisticGraph, repeats: int = 40
) -> Tuple[Dict[str, object], Dict[str, object], Dict[str, object]]:
    """The exact evaluate layer of one route: object graph, integer tape, direct pass.

    For every distinct tractable plan, ``repeats`` interleaved rounds time
    four sides: one exact object-graph evaluation, the lowering of a fresh
    tape followed by its first integer replay, the first exact
    ``evaluate`` of a cold copy of the plan (the direct pass, which runs
    the kernels once on scaled integers; the copy is made off the clock),
    and a replay of a tape lowered before the rounds.  The lowering alone,
    which no gate reads, is timed after them in rounds of its own.  Each
    side keeps its best round.  Returns the ``exact_evaluate`` row (steady
    replay and lowering against the object graph), the ``first_exact`` row
    (lowering plus first replay against the object graph) and the
    ``cold_exact`` row (the direct pass against lowering plus first
    replay).  The plans are left untouched (their own tapes are not
    replaced), and the last answer of every side must be bit-identical to
    the object graph before anything is recorded.
    """
    table = EXACT.instance_probabilities(instance)
    graph_us: List[float] = []
    tape_us: List[float] = []
    lower_ms: List[float] = []
    first_us: List[float] = []
    direct_us: List[float] = []
    distinct = {id(plan): plan for plan in plans if isinstance(plan, ComponentPlan)}
    for plan in distinct.values():
        tape = compile_plan_tape(plan)
        # The object graph's Fraction arithmetic slows whichever side runs
        # right after it, so it sits at an end of the order: on odd rounds
        # it follows itself, and lowering follows the direct pass.
        timings = time_sides(
            {
                "graph": lambda: _object_graph(plan),
                "first": lambda: compile_plan_tape(plan).evaluate(table, EXACT),
                "direct": lambda cold: cold.evaluate(precision=EXACT),
                "steady": lambda: tape.evaluate(table, EXACT),
            },
            rounds=repeats,
            prepare={"direct": lambda: _cold_copy(plan)},
        )
        lowering = time_sides({"lower": lambda: compile_plan_tape(plan)}, rounds=repeats)
        want = timings["graph"].result
        answer = timings["direct"].result
        if (
            timings["first"].result != want
            or timings["steady"].result != want
            or answer != want
            or type(answer) is not type(want)
        ):
            raise AssertionError(
                f"integer tape replay or direct pass diverged from the object "
                f"graph ({plan.method})"
            )
        graph_us.append(timings["graph"].best * 1e6)
        lower_ms.append(lowering["lower"].best * 1e3)
        first_us.append(timings["first"].best * 1e6)
        tape_us.append(timings["steady"].best * 1e6)
        direct_us.append(timings["direct"].best * 1e6)
    count = max(len(graph_us), 1)

    def ratio(slow: List[float], fast: List[float]) -> float:
        return round(sum(slow) / sum(fast), 2) if fast else float("inf")

    exact_evaluate = {
        "plans": len(graph_us),
        "object_graph_us": round(sum(graph_us) / count, 2),
        "tape_us": round(sum(tape_us) / count, 2),
        "lower_ms": round(sum(lower_ms) / count, 3),
        "speedup": ratio(graph_us, tape_us),
        "bit_identical": True,
    }
    first_exact = {
        "plans": len(graph_us),
        "object_graph_us": round(sum(graph_us) / count, 2),
        "lower_and_first_replay_us": round(sum(first_us) / count, 2),
        "speedup": ratio(graph_us, first_us),
        "bit_identical": True,
    }
    cold_exact = {
        "plans": len(direct_us),
        "direct_us": round(sum(direct_us) / count, 2),
        "lower_and_first_replay_us": round(sum(first_us) / count, 2),
        "speedup": ratio(first_us, direct_us),
        "bit_identical": True,
    }
    return exact_evaluate, first_exact, cold_exact


def _x_property_compile(
    query: DiGraph, graph: DiGraph, subpaths: Dict[Tuple[int, int], DiGraph]
) -> TwoWayPathSkeleton:
    """Proposition 4.11's structural phase with every interval decided by Theorem 4.13.

    The same two-pointer sweep as :func:`compile_connected_on_2wp`, but each
    interval runs :func:`x_property_has_homomorphism` on its induced subpath
    graph, taken from ``subpaths`` (built on first use and kept, as the
    instance-side memo of that route did).
    """
    order = two_way_path_order(graph)
    edges = tuple(
        graph.get_edge(left, right) if graph.has_edge(left, right) else graph.get_edge(right, left)
        for left, right in zip(order, order[1:])
    )

    def matches(start: int, end: int) -> bool:
        vertices = order[start - 1 : end + 1]
        subpath = subpaths.get((start, end))
        if subpath is None:
            subpath = subpaths[(start, end)] = graph.induced_component(vertices).freeze()
        return x_property_has_homomorphism(query, subpath, vertices)

    shortest = _shortest_match_lengths(len(edges), matches)
    return TwoWayPathSkeleton(edges=edges, shortest=tuple(shortest))


def measure_interval_match(
    queries: List[DiGraph], instance: ProbabilisticGraph, repeats: int = 15
) -> Dict[str, object]:
    """Per query and instance component: bitset interval matching vs the X-property sweep.

    Times (best of ``repeats`` interleaved rounds) one
    ``compile_connected_on_2wp`` against :func:`_x_property_compile` on the
    component's graph.  Both run warm, as a serving instance does: the
    bitset route's label masks are memoised on the graph after the first
    compile, and the X-property route's subpath graphs are built before
    timing.  The two skeletons
    must be identical before anything is recorded.
    """
    bitset_us: List[float] = []
    x_property_us: List[float] = []
    for component in instance.connected_components():
        graph = component.graph
        subpaths: Dict[Tuple[int, int], DiGraph] = {}
        for query in queries:
            if _x_property_compile(query, graph, subpaths) != compile_connected_on_2wp(
                query, graph
            ):
                raise AssertionError(
                    "bitset interval matching diverged from the X-property sweep"
                )
            timings = time_sides(
                {
                    "x_property": lambda: _x_property_compile(query, graph, subpaths),
                    "bitset": lambda: compile_connected_on_2wp(query, graph),
                },
                rounds=repeats,
            )
            x_property_us.append(timings["x_property"].best * 1e6)
            bitset_us.append(timings["bitset"].best * 1e6)
    count = max(len(bitset_us), 1)
    return {
        "pairs": len(bitset_us),
        "x_property_us": round(sum(x_property_us) / count, 2),
        "bitset_us": round(sum(bitset_us) / count, 2),
        "speedup": round(sum(x_property_us) / sum(bitset_us), 2)
        if bitset_us
        else float("inf"),
        "identical_skeletons": True,
    }


def run_plan_workload(workload: PlanWorkload, rounds: int) -> Dict[str, object]:
    """Time plan re-evaluation against PR-1-style ``solve_many`` under drift."""
    instance = workload.instance
    queries = workload.queries
    baseline_solver = PHomSolver(plan_cache_size=0, **workload.solver_kwargs)
    plan_solver = PHomSolver(**workload.solver_kwargs)
    schedule = _drift_schedule(instance, rounds, _rng(99))

    def apply_round(index: int) -> None:
        for edge, probability in schedule[index]:
            instance.set_probability(edge, probability)

    # Structural phase: compile once per distinct query (through the cache).
    compiled = time_sides(
        {"compile": lambda: [plan_solver.compile(query, instance) for query in queries]}
    )["compile"]
    compile_seconds, plans = compiled.best, compiled.result

    # Correctness contract, checked on every drift round before timing:
    # exact plan results bit-identical to the plan's kernels on Fractions
    # (never a tape) and to the cache-less one-shot API, float plan results
    # within FLOAT_TOLERANCE of exact.
    for index in range(rounds):
        apply_round(index)
        for query, plan in zip(queries, plans):
            exact = _object_graph(plan)
            if (
                plan.evaluate() != exact
                or baseline_solver.solve(query, instance).probability != exact
            ):
                raise AssertionError(
                    f"exact plan result diverged on workload {workload.name}"
                )
            drift = abs(float(exact) - plan.evaluate(precision="float"))
            if drift > FLOAT_TOLERANCE:
                raise AssertionError(
                    f"float plan result diverged by {drift} on workload {workload.name}"
                )

    def baseline_run() -> None:
        for index in range(rounds):
            apply_round(index)
            baseline_solver.solve_many(queries, instance, precision="float")

    def plan_run() -> None:
        for index in range(rounds):
            apply_round(index)
            for plan in plans:
                plan.evaluate(precision="float")

    # Best of seven rounds: at smoke sizes one pass of plan_run takes under
    # a millisecond and can absorb a whole GC pause.  Each timed pass
    # follows an untimed pass of its own side, so neither side runs on
    # caches the other one left behind.
    reuse = time_sides({"solve_many": baseline_run, "plan": plan_run}, rounds=7, warm=True)
    baseline_seconds, plan_seconds = reuse["solve_many"].best, reuse["plan"].best
    evaluations = rounds * len(queries)
    speedup = baseline_seconds / plan_seconds if plan_seconds > 0 else float("inf")
    exact_evaluate, first_exact, cold_exact = measure_exact_evaluate(plans, instance)
    report: Dict[str, object] = {
        "name": workload.name,
        "description": workload.description,
        "num_queries": len(queries),
        "rounds": rounds,
        "instance_vertices": instance.graph.num_vertices(),
        "instance_edges": instance.graph.num_edges(),
        "compile_seconds": round(compile_seconds, 6),
        "modes": {
            "solve_many_float": {
                "seconds": round(baseline_seconds, 6),
                "evals_per_sec": round(evaluations / baseline_seconds, 2)
                if baseline_seconds > 0
                else float("inf"),
            },
            "plan_evaluate_float": {
                "seconds": round(plan_seconds, 6),
                "evals_per_sec": round(evaluations / plan_seconds, 2)
                if plan_seconds > 0
                else float("inf"),
            },
        },
        "plan_reuse_speedup": round(speedup, 2),
        "exact_evaluate": exact_evaluate,
        "first_exact": first_exact,
        "cold_exact": cold_exact,
    }
    if workload.interval_match:
        report["interval_match"] = measure_interval_match(queries, instance)
    return report


def run_incremental_benchmark(instance_size: int, updates: int) -> Dict[str, object]:
    """Single-edge updates: ``plan.update`` vs a full re-solve per change.

    Uses the d-DNNF route (``prefer="automaton"``); ``plan.update``
    rewrites the edge's input slot on the plan's tape and replays only the
    operations that depend on it.  The float stream is timed against the
    float re-solve; the exact stream, on the integer registers of an exact
    session, is recorded beside it.
    """
    rng = _rng(7)
    graph = make_instance(GraphClass.POLYTREE, False, max(instance_size, 6), rng)
    instance = attach_random_probabilities(graph, rng)
    query = make_query(GraphClass.DOWNWARD_TREE, False, 3, rng)

    baseline_solver = PHomSolver(plan_cache_size=0, prefer="automaton")
    plan_solver = PHomSolver(prefer="automaton")
    plan = plan_solver.compile(query, instance)

    edges = instance.edges()
    schedule = [
        (rng.choice(edges), Fraction(rng.randint(1, 15), 16)) for _ in range(updates)
    ]

    # Correctness: on every update of a prefix of the stream, the update
    # agrees with the full re-solve and with the plan's kernels on floats
    # (never a tape).
    check = max(1, updates // 10)
    max_error = 0.0
    for edge, probability in schedule[:check]:
        instance.set_probability(edge, probability)
        full = baseline_solver.solve(query, instance, precision="float").probability
        kernels = _object_graph(plan, context=FAST)
        incremental = plan.update(edge, probability, precision="float")
        max_error = max(max_error, abs(full - incremental), abs(kernels - incremental))
    if max_error > FLOAT_TOLERANCE:
        raise AssertionError(
            f"incremental update diverged from full re-solve by {max_error}"
        )
    # Exact-mode spot check: after the drift applied above, the tape must
    # reproduce the plan's kernels on Fractions and the one-shot result
    # bit-identically.
    exact = _object_graph(plan)
    if (
        plan.evaluate() != exact
        or baseline_solver.solve(query, instance).probability != exact
    ):
        raise AssertionError("exact plan result diverged after incremental updates")

    def full_run() -> None:
        for edge, probability in schedule:
            instance.set_probability(edge, probability)
            baseline_solver.solve(query, instance, precision="float")

    def incremental_run(precision: str) -> None:
        for edge, probability in schedule:
            plan.update(edge, probability, precision=precision)

    stream = time_sides({"full": full_run, "float": lambda: incremental_run("float")})
    full_seconds, incremental_seconds = stream["full"].best, stream["float"].best
    speedup = (
        full_seconds / incremental_seconds if incremental_seconds > 0 else float("inf")
    )
    # The exact what-if session, on integer registers: checked against the
    # plan's kernels on Fractions over a prefix of the stream, then timed.
    plan.reset_serving()
    for edge, probability in schedule[:check]:
        instance.set_probability(edge, probability)
        if plan.update(edge, probability, precision="exact") != _object_graph(plan):
            raise AssertionError("exact plan.update diverged from the plan's kernels")
    exact_seconds = time_sides({"exact": lambda: incremental_run("exact")})["exact"].best
    return {
        "description": (
            f"single-edge updates on a {graph.num_vertices()}-vertex polytree, "
            "d-DNNF route"
        ),
        "updates": updates,
        "instance_vertices": graph.num_vertices(),
        "instance_edges": graph.num_edges(),
        "modes": {
            "full_resolve_float": {
                "seconds": round(full_seconds, 6),
                "updates_per_sec": round(updates / full_seconds, 2)
                if full_seconds > 0
                else float("inf"),
            },
            "plan_update_float": {
                "seconds": round(incremental_seconds, 6),
                "updates_per_sec": round(updates / incremental_seconds, 2)
                if incremental_seconds > 0
                else float("inf"),
            },
            "plan_update_exact": {
                "seconds": round(exact_seconds, 6),
                "updates_per_sec": round(updates / exact_seconds, 2)
                if exact_seconds > 0
                else float("inf"),
            },
        },
        "incremental_speedup": round(speedup, 2),
        "float_max_abs_error": max_error,
    }


#: Component shape of the ``live`` row's union instance, as in the
#: repository benchmark's labeled DWT Zipf instances: 8 components of 10
#: vertices, one-way path queries of 3 edges.
LIVE_UNION_COMPONENTS = 8
LIVE_UNION_COMPONENT_SIZE = 10


def _live_union_workload() -> PlanWorkload:
    """A disjoint union of labeled downward trees (the gated ``live`` case)."""
    rng = _rng(17)
    graph = random_disjoint_union(
        [LIVE_UNION_COMPONENT_SIZE] * LIVE_UNION_COMPONENTS, "DWT", DEFAULT_ALPHABET, rng
    )
    return PlanWorkload(
        name="union-dwt",
        description=(
            f"labeled 1WP query on a union of {LIVE_UNION_COMPONENTS} "
            f"{LIVE_UNION_COMPONENT_SIZE}-vertex downward trees"
        ),
        instance=attach_random_probabilities(graph, rng, certain_fraction=0.2),
        queries=[make_query(GraphClass.ONE_WAY_PATH, True, 3, rng)],
    )


def measure_live(
    workload: PlanWorkload, changes: int, repeats: int = 3
) -> Dict[str, object]:
    """``set_probability`` + live ``plan.evaluate()`` vs a full tape replay per change.

    The plan of the workload's first query is evaluated twice per
    precision first, so its live session is bound, as on a hot serving
    plan.  Each change sets one uncertain edge to ``k/8`` (the serving
    denominators).  Before timing, the live answer after every change must
    equal a full replay of the tape over the live table, bit for bit and in
    type.  Each side keeps its best of ``repeats`` interleaved rounds.
    """
    instance = workload.instance
    plan = PHomSolver(**workload.solver_kwargs).compile(workload.queries[0], instance)
    tape = plan.tape()
    rng = _rng(23)
    edges = instance.uncertain_edges() or instance.edges()
    schedule = [
        (rng.choice(edges), Fraction(rng.randint(1, 7), 8)) for _ in range(changes)
    ]
    row: Dict[str, object] = {
        "name": workload.name,
        "description": workload.description,
        "method": plan.method,
        "tape_ops": tape.num_ops(),
        "tape_inputs": tape.num_inputs(),
        "changes": changes,
    }
    for precision in ("exact", "float"):
        context = resolve_context(precision)

        def live_run() -> None:
            for edge, probability in schedule:
                instance.set_probability(edge, probability)
                plan.evaluate(precision=context)

        def full_run() -> None:
            for edge, probability in schedule:
                instance.set_probability(edge, probability)
                tape.evaluate(context.instance_probabilities(instance), context)

        plan.evaluate(precision=context)
        plan.evaluate(precision=context)
        for edge, probability in schedule:
            instance.set_probability(edge, probability)
            live = plan.evaluate(precision=context)
            full = tape.evaluate(context.instance_probabilities(instance), context)
            if type(live) is not type(full) or live != full:
                raise AssertionError(
                    f"live {precision} plan.evaluate diverged from a full tape "
                    f"replay on {workload.name}"
                )
        timings = time_sides({"full": full_run, "live": live_run}, rounds=repeats)
        live_best, full_best = timings["live"].best, timings["full"].best
        row[precision] = {
            "full_replay_us": round(full_best / changes * 1e6, 2),
            "catch_up_us": round(live_best / changes * 1e6, 2),
            "speedup": round(full_best / live_best, 2) if live_best > 0 else float("inf"),
        }
    row["bit_identical"] = True
    return row


#: Edges a ``what_if`` lane overrides, as in the repository benchmark's
#: what-if calls.
WHAT_IF_OVERRIDES = 3
#: Interleaved rounds per precision of the ``what_if`` row.
WHAT_IF_ROUNDS = 20


def measure_what_if(workload: PlanWorkload) -> Dict[str, object]:
    """A one-lane override ``plan.evaluate`` vs ``PlanTape.evaluate`` of the same table.

    The lane sets :data:`WHAT_IF_OVERRIDES` uncertain edges to ``k/16``
    (keyed by endpoints, as serving requests are) on the plan of the
    workload's first query, whose live session is bound first, as on a
    hot serving plan.  The other side replays the whole tape over the live
    table with the same overrides applied, built afresh for every call
    and off the clock.  Before timing, the two answers must be
    bit-identical (``repr`` and type) in each precision, and so must the
    last answers of the timed calls.
    """
    instance = workload.instance
    plan = PHomSolver(**workload.solver_kwargs).compile(workload.queries[0], instance)
    tape = plan.tape()
    rng = _rng(29)
    edges = instance.uncertain_edges() or instance.edges()
    overrides = {
        (edge.source, edge.target): Fraction(rng.randint(1, 15), 16)
        for edge in rng.sample(edges, min(WHAT_IF_OVERRIDES, len(edges)))
    }
    row: Dict[str, object] = {
        "name": workload.name,
        "description": workload.description,
        "tape_ops": tape.num_ops(),
        "overrides": len(overrides),
    }
    for precision in ("exact", "float"):
        context = resolve_context(precision)

        def full_table() -> Dict[Edge, object]:
            table = dict(context.instance_probabilities(instance))
            for (source, target), value in overrides.items():
                table[instance.graph.get_edge(source, target)] = context.convert(value)
            return table

        plan.evaluate(precision=context)
        answers = [plan.evaluate(overrides, context), tape.evaluate(full_table(), context)]
        timings = time_sides(
            {
                "full": lambda table: tape.evaluate(table, context),
                "what_if": lambda: plan.evaluate(overrides, context),
            },
            rounds=WHAT_IF_ROUNDS,
            prepare={"full": full_table},
        )
        answers += [timings["what_if"].result, timings["full"].result]
        if len({(type(value), repr(value)) for value in answers}) != 1:
            raise AssertionError(
                f"{precision} what-if plan.evaluate diverged from a full tape "
                f"replay of the same table on {workload.name}"
            )
        what_if_best, full_best = timings["what_if"].best, timings["full"].best
        row[precision] = {
            "full_replay_us": round(full_best * 1e6, 2),
            "what_if_us": round(what_if_best * 1e6, 2),
            "speedup": round(full_best / what_if_best, 2) if what_if_best > 0 else float("inf"),
        }
    row["bit_identical"] = True
    return row


def run_live_benchmark(instance_size: int, changes: int) -> Dict[str, object]:
    """The ``live`` row: every route's workload plus the union instance."""
    routes = [
        measure_live(workload, changes)
        for workload in build_plan_workloads(instance_size, 1)
    ]
    union = measure_live(_live_union_workload(), changes)
    return {
        "description": (
            "set_probability + live plan.evaluate() (session catch-up) vs the "
            "same change + a full tape replay, per change"
        ),
        "routes": routes,
        "union": union,
    }


#: The ``repeated`` point of the tape row draws its lanes from this many
#: tables, as the repository benchmark's what-if calls do.
REPEATED_TABLES = 8


def run_tape_benchmark(
    instance_size: int, batch_sizes: Tuple[int, ...] = (1, 16, 256)
) -> Dict[str, object]:
    """Batched tape evaluation vs one ``plan.evaluate`` call per valuation.

    Uses the d-DNNF route (the largest arithmetic half) with a floor on the
    instance size so even smoke runs exercise a real tape.  Before timing,
    the exact-mode contract is asserted *in the bench*: ``evaluate_many``
    must be bit-identical to looped ``evaluate`` calls, and the float
    backend must stay within ``FLOAT_TOLERANCE`` of the per-call float
    path.  Each valuation overrides a couple of edge probabilities — the
    serving drift shape the batched path is built for.  The ``repeated``
    point times the largest batch drawn from :data:`REPEATED_TABLES` of
    those valuations against the same number of distinct ones; its float
    answers must equal per-lane ``plan.evaluate`` calls.
    """
    from repro.numeric import numpy_module

    rng = _rng(13)
    size = max(instance_size, 60)
    graph = make_instance(GraphClass.POLYTREE, False, size, rng)
    instance = attach_random_probabilities(graph, rng)
    query = make_query(GraphClass.DOWNWARD_TREE, False, 4, rng)
    solver = PHomSolver(prefer="automaton")
    plan = solver.compile(query, instance)
    tape = plan.tape()

    edges = instance.edges()
    largest = max(batch_sizes)
    batch = [
        {rng.choice(edges): Fraction(rng.randint(1, 15), 16) for _ in range(2)}
        for _ in range(largest)
    ]

    # Correctness contract, checked before any timing.  Exact mode must be
    # bit-identical to the object-graph evaluator (`==` on Fractions) —
    # this is the acceptance gate for the tape backend itself.  The oracle
    # runs the kernels directly: plan.evaluate replays the tape too.
    check = batch[: min(largest, 32)]
    if plan.evaluate_many(check) != [_object_graph(plan, overrides) for overrides in check]:
        raise AssertionError(
            "exact evaluate_many diverged from the object-graph evaluator"
        )
    float_loop = [_object_graph(plan, overrides, FAST) for overrides in check]
    float_many = plan.evaluate_many(check, precision="float")
    drift = max(abs(a - b) for a, b in zip(float_loop, float_many))
    if drift > FLOAT_TOLERANCE:
        raise AssertionError(
            f"float evaluate_many drifted {drift} from the object-graph evaluator"
        )

    curve = []
    for batch_size in batch_sizes:
        subset = batch[:batch_size]
        timings = time_sides(
            {
                "evaluate": lambda: [
                    plan.evaluate(overrides, precision="float") for overrides in subset
                ],
                "evaluate_many": lambda: plan.evaluate_many(subset, precision="float"),
            },
            rounds=3,
        )
        baseline_seconds = timings["evaluate"].best
        tape_seconds = timings["evaluate_many"].best
        speedup = baseline_seconds / tape_seconds if tape_seconds > 0 else float("inf")
        curve.append(
            {
                "batch": batch_size,
                "evaluate_seconds": round(baseline_seconds, 6),
                "evaluate_many_seconds": round(tape_seconds, 6),
                "speedup": round(speedup, 2),
            }
        )

    # Repeated lanes: what-if serving draws its lanes from a few tables,
    # and a batch runs once per distinct one.
    repeated = [rng.choice(batch[:REPEATED_TABLES]) for _ in range(largest)]
    if plan.evaluate_many(repeated, precision="float") != [
        plan.evaluate(overrides, precision="float") for overrides in repeated
    ]:
        raise AssertionError(
            "float evaluate_many on repeated lanes differs from per-lane evaluate"
        )
    lanes = time_sides(
        {
            "distinct": lambda: plan.evaluate_many(batch, precision="float"),
            "repeated": lambda: plan.evaluate_many(repeated, precision="float"),
        },
        rounds=3,
    )
    distinct_seconds, repeated_seconds = lanes["distinct"].best, lanes["repeated"].best
    return {
        "description": (
            f"batched tape re-evaluation on a {graph.num_vertices()}-vertex "
            "polytree, d-DNNF route"
        ),
        "backend": "numpy" if numpy_module() is not None else "stdlib",
        "tape": tape.describe(),
        "instance_vertices": graph.num_vertices(),
        "instance_edges": graph.num_edges(),
        "tape_batch": curve,
        "batched_speedup": curve[-1]["speedup"],
        "repeated": {
            "batch": largest,
            "tables": REPEATED_TABLES,
            "distinct_seconds": round(distinct_seconds, 6),
            "repeated_seconds": round(repeated_seconds, 6),
            "speedup": round(distinct_seconds / repeated_seconds, 2),
        },
        "exact_bit_identical": True,
        "float_max_abs_error": drift,
    }


def run_plan_benchmarks(
    instance_size: int = 60,
    num_queries: int = 20,
    rounds: int = 5,
    updates: int = 200,
) -> Dict[str, object]:
    """Run every plan workload plus the incremental stream; return the report."""
    workload_reports = [
        run_plan_workload(workload, rounds)
        for workload in build_plan_workloads(instance_size, num_queries)
    ]
    incremental = run_incremental_benchmark(max(instance_size // 2, 6), updates)
    live = run_live_benchmark(instance_size, updates)
    what_if = measure_what_if(_live_union_workload())
    tape_batch = run_tape_benchmark(instance_size)
    return {
        "benchmark": "plans",
        "version": __version__,
        "python": platform.python_version(),
        "cpus": os.cpu_count() or 1,
        "config": {
            "instance_size": instance_size,
            "num_queries": num_queries,
            "rounds": rounds,
            "updates": updates,
            "seed": BENCH_SEED,
            "float_tolerance": FLOAT_TOLERANCE,
        },
        "workloads": workload_reports,
        "incremental": incremental,
        "live": live,
        "what_if": what_if,
        "tape": tape_batch,
        "summary": {
            "min_plan_reuse_speedup": min(
                w["plan_reuse_speedup"] for w in workload_reports
            ),
            "incremental_update_speedup": incremental["incremental_speedup"],
            "live_union_speedup": min(
                live["union"][precision]["speedup"] for precision in ("exact", "float")
            ),
            "what_if_speedup": what_if["float"]["speedup"],
            "tape_batched_speedup": tape_batch["batched_speedup"],
            "repeated_lane_speedup": tape_batch["repeated"]["speedup"],
            "min_exact_tape_speedup": min(
                w["exact_evaluate"]["speedup"] for w in workload_reports
            ),
            "min_first_exact_speedup": min(
                w["first_exact"]["speedup"] for w in workload_reports
            ),
            "min_cold_exact_speedup": min(
                w["cold_exact"]["speedup"] for w in workload_reports
            ),
            "interval_match_speedup": min(
                w["interval_match"]["speedup"]
                for w in workload_reports
                if "interval_match" in w
            ),
            "contract": (
                "exact plan results bit-identical to the one-shot API "
                "(including batched and integer tape evaluation); "
                f"float within {FLOAT_TOLERANCE}"
            ),
        },
    }


def check_plan_thresholds(
    report: Dict[str, object],
    min_reuse_speedup: float = 0.0,
    min_incremental_speedup: float = 0.0,
    min_tape_speedup: float = 0.0,
    min_exact_tape_speedup: float = 0.0,
    min_first_exact_speedup: float = 0.0,
    min_cold_exact_speedup: float = 0.0,
    min_interval_match_speedup: float = 0.0,
    min_live_speedup: float = 0.0,
    min_repeated_lane_speedup: float = 0.0,
    min_what_if_speedup: float = 0.0,
) -> None:
    """Raise AssertionError when a recorded speedup falls below a threshold."""
    summary = report["summary"]
    reuse = summary["min_plan_reuse_speedup"]
    if reuse < min_reuse_speedup:
        raise AssertionError(
            f"plan reuse speedup {reuse}x is below the required {min_reuse_speedup}x"
        )
    incremental = summary["incremental_update_speedup"]
    if incremental < min_incremental_speedup:
        raise AssertionError(
            f"incremental update speedup {incremental}x is below the required "
            f"{min_incremental_speedup}x"
        )
    tape = summary["tape_batched_speedup"]
    if tape < min_tape_speedup:
        raise AssertionError(
            f"batched tape speedup {tape}x is below the required "
            f"{min_tape_speedup}x"
        )
    exact = summary["min_exact_tape_speedup"]
    if exact < min_exact_tape_speedup:
        raise AssertionError(
            f"exact integer-tape speedup {exact}x over the object graph is below "
            f"the required {min_exact_tape_speedup}x"
        )
    first = summary["min_first_exact_speedup"]
    if first < min_first_exact_speedup:
        raise AssertionError(
            f"first exact evaluation (lowering plus first integer replay) is "
            f"{first}x faster than the object graph, below the required "
            f"{min_first_exact_speedup}x"
        )
    cold = summary["min_cold_exact_speedup"]
    if cold < min_cold_exact_speedup:
        raise AssertionError(
            f"a cold plan's first exact answer through the direct pass is "
            f"{cold}x faster than lowering plus the first integer replay, "
            f"below the required {min_cold_exact_speedup}x"
        )
    interval = summary["interval_match_speedup"]
    if interval < min_interval_match_speedup:
        raise AssertionError(
            f"bitset interval matching is {interval}x faster than the X-property "
            f"sweep, below the required {min_interval_match_speedup}x"
        )
    live = summary["live_union_speedup"]
    if live < min_live_speedup:
        raise AssertionError(
            f"live plan.evaluate catch-up on the union instance is {live}x faster "
            f"than a full tape replay, below the required {min_live_speedup}x"
        )
    repeated = summary["repeated_lane_speedup"]
    if repeated < min_repeated_lane_speedup:
        raise AssertionError(
            f"a float batch drawn from {REPEATED_TABLES} tables is {repeated}x "
            f"faster than the same number of distinct lanes, below the required "
            f"{min_repeated_lane_speedup}x"
        )
    what_if = summary["what_if_speedup"]
    if what_if < min_what_if_speedup:
        raise AssertionError(
            f"a float what-if plan.evaluate on the union instance is {what_if}x "
            f"faster than a full tape replay of the same table, below the "
            f"required {min_what_if_speedup}x"
        )


#: Serialise the report to disk — the writer every suite shares.
write_plan_report = write_report


def format_plan_report(report: Dict[str, object]) -> str:
    """A terse human-readable rendering of the report."""
    lines = [f"compiled-plan benchmark (seed {report['config']['seed']})"]
    for workload in report["workloads"]:
        lines.append(f"  {workload['name']}: {workload['description']}")
        for name, numbers in workload["modes"].items():
            lines.append(f"    {name:<22} {numbers['evals_per_sec']:>12.1f} evals/sec")
        lines.append(
            f"    plan reuse speedup     {workload['plan_reuse_speedup']}x "
            f"(compile {workload['compile_seconds']}s, amortised)"
        )
        exact = workload["exact_evaluate"]
        lines.append(
            f"    exact evaluate         {exact['object_graph_us']} us object graph, "
            f"{exact['tape_us']} us integer tape ({exact['speedup']}x; "
            f"lowering {exact['lower_ms']} ms)"
        )
        first = workload["first_exact"]
        lines.append(
            f"    first exact            {first['object_graph_us']} us object graph, "
            f"{first['lower_and_first_replay_us']} us lowering + first replay "
            f"({first['speedup']}x)"
        )
        cold = workload["cold_exact"]
        lines.append(
            f"    cold exact             {cold['direct_us']} us direct pass, "
            f"{cold['lower_and_first_replay_us']} us lowering + first replay "
            f"({cold['speedup']}x)"
        )
        interval = workload.get("interval_match")
        if interval is not None:
            lines.append(
                f"    interval match         {interval['x_property_us']} us X-property sweep, "
                f"{interval['bitset_us']} us bitset ({interval['speedup']}x)"
            )
    incremental = report["incremental"]
    lines.append(f"  incremental: {incremental['description']}")
    for name, numbers in incremental["modes"].items():
        lines.append(f"    {name:<22} {numbers['updates_per_sec']:>12.1f} updates/sec")
    lines.append(
        f"    incremental speedup    {incremental['incremental_speedup']}x vs full re-solve"
    )
    live = report["live"]
    lines.append(f"  live: {live['description']}")
    for row in live["routes"] + [live["union"]]:
        lines.append(
            f"    {row['name']:<24} ({row['tape_ops']} ops) "
            + ", ".join(
                f"{precision} {row[precision]['full_replay_us']} -> "
                f"{row[precision]['catch_up_us']} us ({row[precision]['speedup']}x)"
                for precision in ("exact", "float")
            )
        )
    what_if = report["what_if"]
    lines.append(
        f"  what-if: {what_if['name']} ({what_if['tape_ops']} ops, "
        f"{what_if['overrides']} overrides) "
        + ", ".join(
            f"{precision} {what_if[precision]['full_replay_us']} -> "
            f"{what_if[precision]['what_if_us']} us ({what_if[precision]['speedup']}x)"
            for precision in ("exact", "float")
        )
    )
    tape = report["tape"]
    lines.append(f"  tape: {tape['description']} ({tape['backend']} backend)")
    for point in tape["tape_batch"]:
        lines.append(
            f"    batch {point['batch']:>4}            "
            f"{point['speedup']:>8.1f}x vs per-call evaluate"
        )
    repeated = tape["repeated"]
    lines.append(
        f"    repeated {repeated['batch']:>4}         "
        f"{repeated['speedup']:>8.1f}x vs distinct lanes "
        f"({repeated['tables']} tables)"
    )
    summary = report["summary"]
    lines.append(
        f"  minimum plan reuse speedup vs solve_many(float): "
        f"{summary['min_plan_reuse_speedup']}x"
    )
    lines.append(
        f"  batched tape speedup (batch {tape['tape_batch'][-1]['batch']}): "
        f"{summary['tape_batched_speedup']}x"
    )
    lines.append(
        f"  minimum exact integer-tape speedup over the object graph: "
        f"{summary['min_exact_tape_speedup']}x"
    )
    lines.append(
        f"  minimum first-exact speedup (lowering + first replay): "
        f"{summary['min_first_exact_speedup']}x"
    )
    lines.append(
        f"  minimum cold-exact speedup (direct pass vs lowering + first replay): "
        f"{summary['min_cold_exact_speedup']}x"
    )
    lines.append(
        f"  interval matching speedup over the X-property sweep: "
        f"{summary['interval_match_speedup']}x"
    )
    lines.append(
        f"  live catch-up speedup over a full replay (union instance): "
        f"{summary['live_union_speedup']}x"
    )
    lines.append(
        f"  float what-if speedup over a full replay (union instance): "
        f"{summary['what_if_speedup']}x"
    )
    return "\n".join(lines)
