"""Differential tests for flat-tape compilation (:mod:`repro.tape`).

The tape backend re-implements nothing: it lowers each plan's own
arithmetic by running its kernels with the tape builder as the numeric
context, so its one correctness obligation is *equivalence* — tape
evaluation must be bit-identical (exact mode) or ulp-close (float mode)
to the same kernels run on numbers (the object graph) on every plan route,
under randomized instances, randomized probability tables, batched
evaluation, and incremental-update streams.  This suite asserts exactly
that, extending the :mod:`tests.test_plan_fuzz` idiom: seeds are pinned
(``REPRO_FUZZ_SEED`` overrides), so failures reproduce deterministically.
"""

from __future__ import annotations

import os
import pickle
import random
import warnings
import zlib
from fractions import Fraction

import pytest

import repro.numeric as repro_numeric
from repro.core.solver import PHomSolver
from repro.exceptions import (
    GraphError,
    IntractableFallbackWarning,
    PlanError,
    ProbabilityError,
    ReproError,
    ServiceError,
)
from repro.graphs.builders import one_way_path
from repro.graphs.classes import GraphClass
from repro.graphs.digraph import Edge
from repro.numeric import EXACT, resolve_context
from repro.obs.trace import Tracer, set_tracer
from repro.graphs.digraph import DiGraph
from repro.graphs.generators import random_disjoint_union
from repro.persist import PlanStore, instance_digest
from repro.plan import ComponentPlan, ConstantPlan, FallbackPlan
from repro.probability.brute_force import brute_force_phom
from repro.probability.prob_graph import CHANGE_LOG_LIMIT, ProbabilisticGraph
from repro.service import QueryService, ServiceRequest
from repro.tape import (
    OP_COMPL,
    OPCODE_NAMES,
    PlanTape,
    TapeEvaluator,
    compile_plan_tape,
)
from repro.workloads.generators import intractable_workload, workload_for_cell

SEED = int(os.environ.get("REPRO_FUZZ_SEED", "20170514"))

#: The compiled-plan routes of test_plan_fuzz, all of which must lower.
PLAN_ROUTES = [
    (GraphClass.ONE_WAY_PATH, GraphClass.DOWNWARD_TREE, True, {}),
    (GraphClass.TWO_WAY_PATH, GraphClass.TWO_WAY_PATH, True, {}),
    (GraphClass.DOWNWARD_TREE, GraphClass.UNION_DOWNWARD_TREE, False, {}),
    (GraphClass.UNION_ONE_WAY_PATH, GraphClass.UNION_POLYTREE, False, {}),
    (GraphClass.DOWNWARD_TREE, GraphClass.POLYTREE, False, {"prefer": "automaton"}),
]

#: The five dispatch routes of a tractable plan, each pinned by its method
#: name: (method, query class, instance class, labeled, solver keywords).
DISPATCH_ROUTES = [
    ("labeled-dwt", GraphClass.ONE_WAY_PATH, GraphClass.DOWNWARD_TREE, True, {}),
    ("connected-2wp", GraphClass.TWO_WAY_PATH, GraphClass.TWO_WAY_PATH, True, {}),
    (
        "graded-collapse", GraphClass.DOWNWARD_TREE, GraphClass.UNION_DOWNWARD_TREE,
        False, {"minimize_queries": False},
    ),
    ("polytree-dp", GraphClass.DOWNWARD_TREE, GraphClass.POLYTREE, False, {}),
    (
        "polytree-automaton", GraphClass.DOWNWARD_TREE, GraphClass.POLYTREE,
        False, {"prefer": "automaton"},
    ),
]

FLOAT_TOLERANCE = 1e-9

#: The seed of the golden tape shapes: fixed, so REPRO_FUZZ_SEED cannot move them.
GOLDEN_SEED = 20170514

#: The tape of ``dispatch_plan(index, GOLDEN_SEED)`` per dispatch route, as
#: lowered when the golden shapes were recorded: ``describe()``, the root
#: slot, the input slots as (source, target, slot) and the
#: :func:`program_digest` of the op arrays and constant pool.
GOLDEN_TAPES = {
    "labeled-dwt": {
        "describe": {"slots": 57, "inputs": 10, "consts": 2, "ops": 45, "compl": 11, "add": 15, "mul": 19},
        "root": 56,
        "inputs": [
            ("q2", "q5", 2),
            ("q7", "q8", 3),
            ("q7", "q9", 4),
            ("q2", "q7", 5),
            ("q1", "q2", 6),
            ("q0", "q1", 7),
            ("q4", "q10", 8),
            ("q4", "q6", 9),
            ("q3", "q4", 10),
            ("q0", "q3", 11),
        ],
        "digest": 4055198512,
    },
    "connected-2wp": {
        "describe": {"slots": 116, "inputs": 12, "consts": 2, "ops": 102, "compl": 13, "add": 27, "mul": 62},
        "root": 115,
        "inputs": [
            ("q0", "q1", 2),
            ("q1", "q2", 4),
            ("q2", "q3", 11),
            ("q4", "q3", 21),
            ("q5", "q4", 34),
            ("q6", "q5", 50),
            ("q7", "q6", 64),
            ("q7", "q8", 71),
            ("q8", "q9", 81),
            ("q10", "q9", 91),
            ("q11", "q10", 98),
            ("q11", "q12", 106),
        ],
        "digest": 3178184940,
    },
    "graded-collapse": {
        "describe": {"slots": 68, "inputs": 9, "consts": 2, "ops": 57, "compl": 12, "add": 12, "mul": 33},
        "root": 67,
        "inputs": [
            (("c0", "t1"), ("c0", "t3"), 2),
            (("c0", "t0"), ("c0", "t1"), 4),
            (("c0", "t0"), ("c0", "t2"), 10),
            (("c1", "t0"), ("c1", "t1"), 24),
            (("c1", "t0"), ("c1", "t2"), 26),
            (("c1", "t0"), ("c1", "t3"), 34),
            (("c2", "t2"), ("c2", "t3"), 42),
            (("c2", "t0"), ("c2", "t1"), 44),
            (("c2", "t0"), ("c2", "t2"), 46),
        ],
        "digest": 1121634866,
    },
    "polytree-dp": {
        "describe": {"slots": 90, "inputs": 6, "consts": 2, "ops": 82, "compl": 6, "add": 24, "mul": 52},
        "root": 89,
        "inputs": [
            ("q6", "q2", 2),
            ("q5", "q3", 4),
            ("q2", "q1", 6),
            ("q1", "q3", 12),
            ("q1", "q0", 47),
            ("q4", "q0", 72),
        ],
        "digest": 3316536298,
    },
    "polytree-automaton": {
        "describe": {"slots": 57, "inputs": 4, "consts": 2, "ops": 51, "compl": 4, "add": 11, "mul": 36},
        "root": 56,
        "inputs": [
            ("q0", "q1", 2),
            ("q2", "q1", 3),
            ("q1", "q3", 4),
            ("q4", "q0", 5),
        ],
        "digest": 2160217405,
    },
}


def fresh_exact(query, instance):
    """The ground truth, computed without any tape.

    A cache-less solver compiles a fresh plan (it lowers nothing) and its
    arithmetic half runs on Fractions; #P-hard cells use brute force.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntractableFallbackWarning)
        plan = PHomSolver(plan_cache_size=0).compile(query, instance)
    if isinstance(plan, FallbackPlan):
        return brute_force_phom(query, instance)
    return plan._evaluate_with(EXACT.instance_probabilities(instance), EXACT)


#: Probabilities with coprime and float-derived denominators, so the exact
#: replay's lcm scaling sees more than powers of two.
ODD_PROBABILITIES = (Fraction(1, 3), Fraction(2, 7), Fraction(5, 11), Fraction(0.1))


def random_probability(rng: random.Random) -> Fraction:
    """A random rational in [0, 1], hitting the 0 and 1 boundaries too."""
    roll = rng.random()
    if roll < 0.1:
        return Fraction(0)
    if roll < 0.2:
        return Fraction(1)
    if roll < 0.4:
        return rng.choice(ODD_PROBABILITIES)
    return Fraction(rng.randint(1, 15), 16)


def object_graph(plan, overrides=None, precision="exact"):
    """The plan's answer from its kernels run on numbers, never its tape.

    ``plan.evaluate`` replays the tape once the plan has one, so comparing
    a tape against it would compare the tape with itself.
    """
    context = resolve_context(precision)
    return plan._evaluate_with(plan._probability_table(overrides, context), context)


def route_plan(route: int):
    """A compiled (workload, plan) pair for one PLAN_ROUTES entry."""
    query_class, instance_class, labeled, solver_kwargs = PLAN_ROUTES[route]
    rng = random.Random(SEED + route)
    workload = workload_for_cell(
        query_class, instance_class, labeled,
        query_size=rng.randint(2, 3), instance_size=rng.randint(5, 8), rng=rng,
    )
    solver = PHomSolver(**solver_kwargs)
    plan = solver.compile(workload.query, workload.instance)
    assert isinstance(plan, (ComponentPlan, ConstantPlan))
    return workload, plan, rng


def dispatch_plan(index: int, seed: int = SEED):
    """A small (workload, plan, rng) triple whose plan runs DISPATCH_ROUTES[index].

    Draws seeded workloads until the solver dispatches one to the pinned
    method with real arithmetic (not a constant verdict), so every route
    is covered under every fuzz seed.
    """
    method, query_class, instance_class, labeled, solver_kwargs = DISPATCH_ROUTES[index]
    rng = random.Random(seed + index)
    for _ in range(200):
        workload = workload_for_cell(
            query_class, instance_class, labeled,
            query_size=rng.randint(2, 5), instance_size=rng.randint(4, 12), rng=rng,
        )
        plan = PHomSolver(**solver_kwargs).compile(workload.query, workload.instance)
        if plan.method == method and isinstance(plan, ComponentPlan):
            return workload, plan, rng
    raise AssertionError(f"no {method} plan in 200 draws")


def graded_collapse_plan():
    """A plan pinned to the graded-collapse route (Proposition 3.6 product).

    With query minimization on, every unlabeled downward-tree query
    collapses to its height path and dispatches to the path routes, so the
    graded-collapse method is only reachable with ``minimize_queries=False``
    — a branching unlabeled tree query on a union-of-downward-trees
    instance.
    """
    rng = random.Random(SEED)
    workload = workload_for_cell(
        GraphClass.DOWNWARD_TREE, GraphClass.UNION_DOWNWARD_TREE, False,
        query_size=5, instance_size=14, rng=rng,
    )
    solver = PHomSolver(minimize_queries=False)
    plan = solver.compile(workload.query, workload.instance)
    assert plan.method == "graded-collapse"
    return workload, plan, rng


def traced(call):
    """``call()`` under a full-rate tracer: its value and the span records."""
    tracer = Tracer(sample_rate=1.0)
    previous = set_tracer(tracer)
    try:
        value = call()
    finally:
        set_tracer(previous)
    return value, tracer.drain()


def traced_evaluate_many(plan, batches, precision):
    """``plan.evaluate_many`` plus the executor each ``tape.run`` span reports."""
    values, records = traced(lambda: plan.evaluate_many(batches, precision=precision))
    executors = [
        record["attrs"]["backend"] for record in records if record["name"] == "tape.run"
    ]
    return values, executors


def span_attrs(records, name):
    """The attributes of every span called ``name``, in record order."""
    return [record["attrs"] for record in records if record["name"] == name]


def program_digest(tape) -> int:
    """CRC-32 of a tape's op arrays and constant pool."""
    program = (
        list(tape.opcodes), list(tape.dsts), list(tape.lhs), list(tape.rhs),
        [(slot, str(value)) for slot, value in tape.consts],
    )
    return zlib.crc32(repr(program).encode())


def random_tables(instance, rng, count):
    """Full edge-probability tables with randomized (boundary-heavy) entries."""
    edges = instance.edges()
    return [
        {edge: random_probability(rng) for edge in edges} for _ in range(count)
    ]


# ----------------------------------------------------------------------
# tape vs object graph, per plan route
# ----------------------------------------------------------------------
class TestTapeVsObjectGraph:
    @pytest.mark.parametrize("route", range(len(PLAN_ROUTES)))
    def test_exact_bit_identical(self, route):
        workload, plan, rng = route_plan(route)
        tape = plan.tape()
        assert plan.has_tape()
        for step, table in enumerate(random_tables(workload.instance, rng, 8)):
            got = tape.evaluate(table)
            want = object_graph(plan, table)
            assert got == want, f"route {route} diverged on table {step}"

    @pytest.mark.parametrize("route", range(len(PLAN_ROUTES)))
    def test_float_close(self, route):
        workload, plan, rng = route_plan(route)
        tape = plan.tape()
        for table in random_tables(workload.instance, rng, 8):
            got = tape.evaluate(table, precision="float")
            want = object_graph(plan, table, precision="float")
            assert abs(got - want) <= FLOAT_TOLERANCE

    @pytest.mark.parametrize("route", range(len(PLAN_ROUTES)))
    def test_tape_matches_fresh_solve(self, route):
        # Transitivity guard: the tape must agree with the kernels of a
        # freshly compiled plan, not merely with its own plan's object graph.
        workload, plan, _rng = route_plan(route)
        tape = plan.tape()
        table = dict(workload.instance.probabilities_view())
        assert tape.evaluate(table) == fresh_exact(workload.query, workload.instance)

    def test_graded_collapse_route_exact(self):
        workload, plan, rng = graded_collapse_plan()
        tape = plan.tape()
        for table in random_tables(workload.instance, rng, 8):
            assert tape.evaluate(table) == object_graph(plan, table)

    @pytest.mark.parametrize("index", range(len(DISPATCH_ROUTES)))
    def test_integer_replay_matches_brute_force(self, index):
        # The oracle of the paper's definition, independent of every plan:
        # enumerate the possible worlds of the reweighted instance.
        workload, plan, rng = dispatch_plan(index)
        tape = plan.tape()
        for table in random_tables(workload.instance, rng, 3):
            world = ProbabilisticGraph(workload.instance.graph, table)
            assert tape.evaluate(table) == brute_force_phom(workload.query, world)

    def test_constant_plan_lowers_to_inputless_tape(self):
        rng = random.Random(SEED)
        workload = workload_for_cell(
            GraphClass.ONE_WAY_PATH, GraphClass.DOWNWARD_TREE, True,
            query_size=2, instance_size=6, rng=rng,
        )
        # A query over a label the instance lacks compiles to a constant 0.
        plan = PHomSolver().compile(one_way_path(["Z"], prefix="q"), workload.instance)
        assert isinstance(plan, ConstantPlan)
        tape = plan.tape()
        assert tape.num_inputs() == 0
        assert tape.num_ops() == 0
        assert tape.evaluate({}) == plan.evaluate() == 0

    def test_fallback_plan_cannot_lower(self):
        rng = random.Random(SEED)
        workload = intractable_workload(6, rng)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IntractableFallbackWarning)
            plan = PHomSolver().compile(workload.query, workload.instance)
        assert isinstance(plan, FallbackPlan)
        with pytest.raises(PlanError):
            plan.tape()
        with pytest.raises(PlanError):
            compile_plan_tape(plan)
        assert not plan.has_tape()


# ----------------------------------------------------------------------
# batched evaluation vs looped evaluate
# ----------------------------------------------------------------------
class TestEvaluateMany:
    @pytest.mark.parametrize("route", range(len(PLAN_ROUTES)))
    def test_exact_matches_looped_evaluate(self, route):
        workload, plan, rng = route_plan(route)
        edges = workload.instance.edges()
        batches = [None, {}]
        for _ in range(10):
            overrides = {
                rng.choice(edges): random_probability(rng)
                for _ in range(rng.randint(1, 3))
            }
            batches.append(overrides)
        batches.extend(random_tables(workload.instance, rng, 3))
        got = plan.evaluate_many(batches)
        want = [object_graph(plan, overrides) for overrides in batches]
        assert got == want

    @pytest.mark.parametrize("route", range(len(PLAN_ROUTES)))
    def test_float_matches_looped_evaluate(self, route):
        workload, plan, rng = route_plan(route)
        batches = [None] + random_tables(workload.instance, rng, 6)
        got = plan.evaluate_many(batches, precision="float")
        want = [object_graph(plan, overrides, "float") for overrides in batches]
        assert max(abs(a - b) for a, b in zip(got, want)) <= FLOAT_TOLERANCE

    @pytest.mark.parametrize("index", range(len(DISPATCH_ROUTES)))
    def test_override_lanes_with_different_denominators(self, index):
        # Every lane has its own lcm D: powers of two, coprime primes and a
        # float-derived 2**55 in one batch, next to the live table.
        _workload, plan, _rng = dispatch_plan(index)
        inputs = plan.tape().inputs
        first, last = inputs[0][0], inputs[-1][0]
        batches = [None] + [{first: value} for value in ODD_PROBABILITIES] + [
            {first: Fraction(1, 3), last: Fraction(2, 7)},
            {first: Fraction(0.1), last: Fraction(5, 11)},
            {last: Fraction(3, 16)},
        ]
        got = plan.evaluate_many(batches)
        assert got == [object_graph(plan, overrides) for overrides in batches]

    @pytest.mark.parametrize(
        "precision, lanes",
        [
            pytest.param("exact", 1, id="exact"),
            pytest.param("float", 1, id="float"),
            # Exact batches of any size replay each valuation on integers.
            pytest.param("exact", 4, id="exact-batch"),
        ],
    )
    def test_single_valuation_runs_the_scalar_replay(
        self, precision, lanes, monkeypatch
    ):
        workload, plan, rng = route_plan(4)
        tables = random_tables(workload.instance, rng, lanes)
        want = [object_graph(plan, table, precision) for table in tables]

        def vectorized(*_args):
            raise AssertionError("a scalar batch ran the vectorized lanes")

        monkeypatch.setattr(PlanTape, "_replay_segments", vectorized)
        monkeypatch.setattr(PlanTape, "_replay_lanes", vectorized)
        got, executors = traced_evaluate_many(plan, tables, precision)
        assert executors == ["scalar"]
        assert got == plan.tape().evaluate_many(tables, precision=precision)
        if precision == "exact":
            assert got == want
        else:
            assert max(abs(g - w) for g, w in zip(got, want)) <= FLOAT_TOLERANCE

    def test_stdlib_and_numpy_backends_agree(self, monkeypatch):
        if repro_numeric.numpy_module() is None:
            pytest.skip("numpy is not importable in this environment")
        workload, plan, rng = route_plan(4)
        batches = random_tables(workload.instance, rng, 6)
        via_numpy, executors = traced_evaluate_many(plan, batches, "float")
        assert executors == ["numpy"]
        monkeypatch.setattr(repro_numeric, "_numpy_cache", None)
        via_stdlib, executors = traced_evaluate_many(plan, batches, "float")
        assert executors == ["stdlib"]
        assert max(abs(a - b) for a, b in zip(via_numpy, via_stdlib)) <= FLOAT_TOLERANCE

    def test_empty_batch(self):
        _workload, plan, _rng = route_plan(0)
        assert plan.evaluate_many([]) == []

    def test_numpy_absence_falls_back_to_stdlib(self, monkeypatch):
        # Stub the numpy seam: a float batch degrades silently to stdlib
        # lanes, and their results stay correct.
        monkeypatch.setattr(repro_numeric, "_numpy_cache", None)
        workload, plan, rng = dispatch_plan(1)
        batches = random_tables(workload.instance, rng, 4)
        want = [plan.evaluate(overrides, precision="float") for overrides in batches]
        got, executors = traced_evaluate_many(plan, batches, "float")
        assert executors == ["stdlib"]
        assert max(abs(a - b) for a, b in zip(got, want)) <= FLOAT_TOLERANCE

    def test_solver_entry_point_matches_plan(self):
        workload, plan, rng = route_plan(0)
        solver = PHomSolver()
        batches = [None] + random_tables(workload.instance, rng, 3)
        got = solver.evaluate_many(workload.query, workload.instance, batches)
        want = plan.evaluate_many(batches)
        assert got == want

    def test_solver_entry_point_rejects_approx(self):
        workload, _plan, _rng = route_plan(0)
        solver = PHomSolver()
        with pytest.raises(ReproError):
            solver.evaluate_many(
                workload.query, workload.instance, [None], precision="approx"
            )

    def test_service_inline_dispatch_matches_solver(self):
        from repro.service import QueryService

        workload, plan, rng = route_plan(0)
        edges = workload.instance.edges()
        batches = [
            None,
            {(edges[0].source, edges[0].target): Fraction(1, 7)},
            {(edges[-1].source, edges[-1].target): Fraction(0)},
        ]
        service = QueryService(num_workers=0)
        try:
            instance_id = service.register_instance(workload.instance)
            got = service.evaluate_many(
                instance_id, workload.query, batches, precision="exact"
            )
        finally:
            service.close()
        assert got == plan.evaluate_many(batches)

    def test_generator_batch_answers_alike_traced_and_untraced(self):
        # The batch is read once, at entry: a generator used to fail only
        # when a tracer asked for its length.
        workload, plan, rng = dispatch_plan(0)
        tables = random_tables(workload.instance, rng, 3)
        want = [object_graph(plan, table) for table in tables]
        assert plan.evaluate_many(table for table in tables) == want
        got, _executors = traced_evaluate_many(plan, (table for table in tables), "exact")
        assert got == want
        solver = PHomSolver()
        got, _records = traced(
            lambda: solver.evaluate_many(workload.query, workload.instance, iter(tables))
        )
        assert got == want

    @pytest.mark.parametrize(
        "entry", [("a", "b"), "x", 3, [("a", "b")]], ids=["tuple", "str", "int", "list"]
    )
    def test_non_mapping_entry_raises_plan_error(self, entry):
        _workload, plan, _rng = dispatch_plan(0)
        kind = type(entry).__name__
        with pytest.raises(PlanError, match=f"batch entry 0 .*got {kind}"):
            plan.evaluate_many([entry])
        with pytest.raises(PlanError, match=f"batch entry 2 .*got {kind}"):
            plan.evaluate_many([None, {}, entry])
        with pytest.raises(PlanError, match=f"probabilities .*got {kind}"):
            plan.evaluate(probabilities=entry)

    def test_service_names_a_non_mapping_entry(self):
        workload, plan, _rng = dispatch_plan(0)
        with QueryService(num_workers=0) as service:
            instance_id = service.register_instance(workload.instance)
            with pytest.raises(ServiceError, match="PlanError: batch entry 1 .*got tuple"):
                service.evaluate_many(instance_id, workload.query, [None, ("a", "b")])
            got = service.evaluate_many(instance_id, workload.query, [None])
        assert got == [object_graph(plan)]


def duplicate_batch(plan):
    """A batch holding every kind of duplicate lane, and its groups of equal lanes.

    Each group lists the entries that set the tape's inputs alike: ``None``
    next to ``{}``; one mapping object repeated, an equal mapping and the
    same override keyed by ``(source, target)``; a two-edge mapping next to
    its reordered copy keyed by endpoints.
    """
    inputs = [edge for edge, _slot in plan.tape().inputs]
    first, last = inputs[0], inputs[-1]
    shared = {first: Fraction(1, 3)}
    pair = {first: Fraction(2, 7), last: Fraction(5, 11)}
    reordered = {
        (edge.source, edge.target): str(value) for edge, value in reversed(list(pair.items()))
    }
    batch = [
        None, shared, {}, pair, shared,
        {first: Fraction(1, 3)}, {(first.source, first.target): "1/3"}, reordered,
    ]
    return batch, [[0, 2], [1, 4, 5, 6], [3, 7]]


# ----------------------------------------------------------------------
# coalesced lanes: a batch runs once per distinct valuation
# ----------------------------------------------------------------------
class TestCoalescedLanes:
    @pytest.mark.parametrize("precision", ["exact", "float"])
    @pytest.mark.parametrize("index", range(len(DISPATCH_ROUTES)))
    def test_duplicate_lanes_run_once_and_share_results(self, index, precision):
        _workload, plan, _rng = dispatch_plan(index)
        batch, groups = duplicate_batch(plan)
        got, records = traced(lambda: plan.evaluate_many(batch, precision=precision))
        if precision == "exact":
            assert got == [object_graph(plan, overrides) for overrides in batch]
        else:
            assert got == [plan.evaluate(overrides, precision="float") for overrides in batch]
        for group in groups:
            assert all(got[lane] is got[group[0]] for lane in group)
        (evaluate,) = span_attrs(records, "tape.evaluate")
        (run,) = span_attrs(records, "tape.run")
        assert (evaluate["batch"], evaluate["distinct"]) == (len(batch), len(groups))
        assert run["batch"] == len(groups)
        vectorized = "stdlib" if repro_numeric.numpy_module() is None else "numpy"
        assert run["backend"] == ("scalar" if precision == "exact" else vectorized)

    @pytest.mark.parametrize("precision", ["exact", "float"])
    def test_all_duplicate_batch_runs_the_scalar_replay(self, precision, monkeypatch):
        _workload, plan, _rng = dispatch_plan(3)
        edge = plan.tape().inputs[0][0]
        shared = {edge: Fraction(3, 8)}
        batch = [shared] * 4 + [dict(shared), {(edge.source, edge.target): "3/8"}]

        def vectorized(*_args):
            raise AssertionError("an all-duplicate batch ran the vectorized lanes")

        monkeypatch.setattr(PlanTape, "_replay_segments", vectorized)
        monkeypatch.setattr(PlanTape, "_replay_lanes", vectorized)
        got, records = traced(lambda: plan.evaluate_many(batch, precision=precision))
        assert all(value is got[0] for value in got)
        assert got[0] == plan.evaluate(shared, precision=precision)
        (evaluate,) = span_attrs(records, "tape.evaluate")
        (run,) = span_attrs(records, "tape.run")
        assert (evaluate["batch"], evaluate["distinct"]) == (len(batch), 1)
        assert (run["backend"], run["batch"]) == ("scalar", 1)

    def test_lanes_differing_only_in_unread_edges_coalesce(self):
        workload, plan, _rng = dispatch_plan(0)
        # A query over a label the instance lacks compiles to a constant
        # plan, whose tape reads no edge: every override is unread.
        constant = PHomSolver().compile(one_way_path(["Z"], prefix="q"), workload.instance)
        assert constant.tape().num_inputs() == 0
        batch = [None] + [{edge: Fraction(1, 5)} for edge in workload.instance.edges()[:3]]
        got, records = traced(lambda: constant.evaluate_many(batch, precision="float"))
        assert got == [0.0] * len(batch)
        assert all(value is got[0] for value in got)
        (run,) = span_attrs(records, "tape.run")
        assert (run["backend"], run["batch"]) == ("scalar", 1)
        # On a tape with inputs, an edge outside them drops out of its lane.
        tape = plan.tape()
        first = tape.inputs[0][0]
        foreign = Edge("tape-test-x", "tape-test-y", "R")
        lanes = [{first: 0.25}, {first: 0.25, foreign: 0.5}, {foreign: 0.75}, None]
        assert tape._distinct_lanes(lanes) == ([((0, 0.25),), ()], [0, 0, 1, 1])

    @pytest.mark.parametrize("index", range(len(DISPATCH_ROUTES)))
    def test_numpy_and_stdlib_lanes_agree_bitwise(self, index, monkeypatch):
        if repro_numeric.numpy_module() is None:
            pytest.skip("numpy is not importable in this environment")
        workload, plan, rng = dispatch_plan(index)
        batch, _groups = duplicate_batch(plan)
        batch += random_tables(workload.instance, rng, 4)
        via_numpy, executors = traced_evaluate_many(plan, batch, "float")
        assert executors == ["numpy"]
        monkeypatch.setattr(repro_numeric, "_numpy_cache", None)
        via_stdlib, executors = traced_evaluate_many(plan, batch, "float")
        assert executors == ["stdlib"]
        assert via_numpy == via_stdlib

    def test_pool_service_with_shared_tables_matches_inline(self):
        workload, plan, _rng = dispatch_plan(1)
        batch, _groups = duplicate_batch(plan)
        batch *= 2  # the same mapping objects again, pickled once per payload
        answers = []
        for workers in (0, 1):
            with QueryService(num_workers=workers) as service:
                instance_id = service.register_instance(workload.instance)
                answers.append([
                    service.evaluate_many(instance_id, workload.query, batch, precision=precision)
                    for precision in ("exact", "float")
                ])
        assert answers[1] == answers[0]
        assert answers[0][0] == [object_graph(plan, overrides) for overrides in batch]


# ----------------------------------------------------------------------
# incremental updates through the tape
# ----------------------------------------------------------------------
class TestTapeUpdateStream:
    @pytest.mark.parametrize("route", range(len(PLAN_ROUTES)))
    def test_update_stream_matches_fresh_solve(self, route):
        workload, plan, rng = route_plan(route)
        mirror = ProbabilisticGraph(
            workload.instance.graph, workload.instance.probabilities()
        )
        edges = workload.instance.edges()
        for step in range(12):
            edge = edges[rng.randrange(len(edges))]
            value = random_probability(rng)
            key = edge if step % 2 == 0 else (edge.source, edge.target)
            served = plan.update(key, value)
            mirror.set_probability(edge, value)
            assert served == fresh_exact(workload.query, mirror), (
                f"route {route} diverged at step {step} after setting "
                f"{edge!r} to {value}"
            )

    def test_tape_evaluator_updates_match_full_replay(self):
        workload, plan, rng = route_plan(4)
        tape = plan.tape()
        instance = workload.instance
        session = TapeEvaluator(tape)
        assert session.follow(instance) == tape.evaluate(dict(instance.probabilities_view()))
        edges = instance.edges()
        for _ in range(15):
            instance.set_probability(edges[rng.randrange(len(edges))], random_probability(rng))
            got = session.follow(instance)
            assert got == tape.evaluate(dict(instance.probabilities_view()))
            # With nothing set since, the stored root answers.
            assert session.follow(instance) == got
            assert (session.path, session.replayed) == ("catch_up", 0)

    def test_update_of_unread_edge_keeps_value(self):
        # An edge the tape has no input slot for cannot affect the result:
        # a constant plan's tape reads no edge, so its updates replay
        # nothing, while edges outside the instance are rejected.
        workload, plan, _rng = route_plan(0)
        foreign = Edge("tape-test-x", "tape-test-y", "R")
        assert foreign not in dict(plan.tape().inputs)
        with pytest.raises(GraphError):
            plan.update(foreign, Fraction(1, 9))
        constant = PHomSolver().compile(one_way_path(["Z"], prefix="q"), workload.instance)
        assert isinstance(constant, ConstantPlan)
        assert constant.tape().num_inputs() == 0
        edge = workload.instance.edges()[0]
        assert constant.update(edge, Fraction(1, 9)) == 0
        _table, session = constant._tape_serving
        assert constant.update(edge, Fraction(1, 7)) == 0
        assert (session.path, session.replayed) == ("catch_up", 0)
        with pytest.raises(GraphError):
            constant.update(foreign, Fraction(1, 9))

    def test_exact_session_converts_a_float_update(self):
        # An exact plan must answer a Fraction whatever number type an
        # update brings: the value goes through as_probability and the
        # session's precision, never straight into a register.
        graph = DiGraph(edges=[("a", "b", "R"), ("b", "c", "S")])
        instance = ProbabilisticGraph(graph, {("a", "b"): "1/2", ("b", "c"): "1/3"})
        plan = PHomSolver().compile(one_way_path(["R", "S"]), instance)
        edge = instance.edges()[0]
        got = plan.update(edge, 0.5)
        assert isinstance(got, Fraction) and got == Fraction(1, 6)
        assert plan.update(edge, 0.25) == Fraction(1, 12)
        with pytest.raises(ReproError):
            plan.update(edge, 1.5)
        plan.reset_serving()
        table = dict(instance.float_probabilities())
        table[edge] = 0.25
        want = plan.tape().evaluate(table, precision="float")
        assert plan.update(edge, Fraction(1, 4), precision="float").hex() == want.hex()

    def test_follow_is_the_only_session_entry(self):
        # A session has no unbound state to misuse: its first follow() binds.
        workload, plan, _rng = route_plan(0)
        public = {name for name in vars(TapeEvaluator) if not name.startswith("_")}
        assert public == {"follow"}
        session = TapeEvaluator(plan.tape())
        assert session.follow(workload.instance) == fresh_exact(
            workload.query, workload.instance
        )
        assert (session.path, session.replayed) == ("bind", plan.tape().num_ops())

    @pytest.mark.parametrize("precision", ["exact", "float"])
    @pytest.mark.parametrize("index", range(len(DISPATCH_ROUTES)))
    def test_what_if_stream_matches_a_fresh_solve(self, index, precision):
        workload, plan, rng = dispatch_plan(index)
        context = resolve_context(precision)
        mirror = ProbabilisticGraph(
            workload.instance.graph, workload.instance.probabilities()
        )
        edges = workload.instance.edges()
        for step in range(12):
            edge = rng.choice(edges)
            value = random_probability(rng)
            got = plan.update(edge, value, precision=precision)
            mirror.set_probability(edge, value)
            want = plan.tape().evaluate(context.instance_probabilities(mirror), context)
            assert type(got) is type(want)
            if precision == "exact":
                assert got == want == fresh_exact(workload.query, mirror), step
            else:
                assert got.hex() == want.hex(), step

    @pytest.mark.parametrize("index", range(len(DISPATCH_ROUTES)))
    def test_failed_update_leaves_the_what_if_table_untouched(self, index):
        workload, plan, _rng = dispatch_plan(index)
        instance = workload.instance
        first, second = instance.edges()[0], instance.edges()[-1]
        mirror = ProbabilisticGraph(instance.graph, instance.probabilities())
        plan.update(first, Fraction(1, 3))
        mirror.set_probability(first, Fraction(1, 3))
        with pytest.raises(ProbabilityError):
            plan.update(second, Fraction(3, 2))
        with pytest.raises(GraphError):
            plan.update(Edge("tape-test-x", "tape-test-y", "R"), Fraction(1, 2))
        with pytest.raises(PlanError):
            plan.update(second, Fraction(1, 5), precision="float")
        # None of the failed calls reached the table.
        mirror.set_probability(second, Fraction(2, 5))
        assert plan.update(second, Fraction(2, 5)) == fresh_exact(workload.query, mirror)
        # A reset reseeds from the instance, which never saw those updates.
        plan.reset_serving()
        reseeded = ProbabilisticGraph(instance.graph, instance.probabilities())
        reseeded.set_probability(second, Fraction(2, 5))
        want = plan.tape().evaluate(reseeded.float_probabilities(), "float")
        assert plan.update(second, Fraction(2, 5), precision="float").hex() == want.hex()

    def test_precision_switch_mid_serving_raises(self):
        workload, plan, _rng = route_plan(0)
        plan.tape()
        edge = workload.instance.edges()[0]
        plan.update(edge, Fraction(1, 3), precision="exact")
        with pytest.raises(PlanError):
            plan.update(edge, Fraction(1, 4), precision="float")
        plan.reset_serving()
        # After the reset, the float session starts cleanly.
        drifted = plan.update(edge, Fraction(1, 4), precision="float")
        assert isinstance(drifted, float)

    def test_plan_without_tape_lowers_on_first_update(self):
        # A cache-less solver stores nothing, so it lowers nothing: the
        # plan's first update lowers it and opens the tape session.
        workload, _plan, rng = route_plan(0)
        plan = PHomSolver(plan_cache_size=0).compile(workload.query, workload.instance)
        assert not plan.has_tape()
        mirror = ProbabilisticGraph(
            workload.instance.graph, workload.instance.probabilities()
        )
        edges = workload.instance.edges()
        served = plan.update(edges[0], Fraction(1, 5))
        mirror.set_probability(edges[0], Fraction(1, 5))
        assert plan.has_tape()
        assert served == fresh_exact(workload.query, mirror)
        for step in range(5):
            drift_edge = edges[rng.randrange(len(edges))]
            value = random_probability(rng)
            served = plan.update(drift_edge, value)
            mirror.set_probability(drift_edge, value)
            assert served == fresh_exact(workload.query, mirror)

    def test_reset_serving_reseeds_tape_sessions(self):
        workload, plan, _rng = route_plan(0)
        plan.tape()
        edge = workload.instance.edges()[0]
        plan.update(edge, Fraction(1, 3))
        plan.reset_serving()
        assert plan.update(edge, workload.instance.probability(edge)) == fresh_exact(
            workload.query, workload.instance
        )


# ----------------------------------------------------------------------
# live sessions: plan.evaluate() catches up with set_probability
# ----------------------------------------------------------------------
def full_replay(plan, precision):
    """A fresh full replay of the plan's tape over the live table.

    A plan without a tape is not lowered: a tape of its own replays.
    """
    context = resolve_context(precision)
    tape = plan.tape() if plan.has_tape() else compile_plan_tape(plan)
    return tape.evaluate(context.instance_probabilities(plan.instance), context)


def assert_live_answer(workload, plan, precision):
    """``plan.evaluate()`` against a full replay, and in exact mode the oracles.

    Returns the ``path`` the call took.
    """
    got, path, _ops = evaluate_traced(plan, precision=precision)
    want = full_replay(plan, precision)
    assert type(got) is type(want)
    if precision == "exact":
        assert got == want == fresh_exact(workload.query, workload.instance)
        assert got == brute_force_phom(workload.query, workload.instance)
    else:
        assert got.hex() == want.hex()
    return path


def evaluate_traced(plan, overrides=None, precision=None):
    """``plan.evaluate(overrides, precision)`` plus the (path, ops) its span recorded.

    ``ops`` is ``None`` on the direct path, which replays no tape.
    """
    tracer = Tracer(sample_rate=1.0)
    previous = set_tracer(tracer)
    try:
        value = plan.evaluate(overrides, precision)
    finally:
        set_tracer(previous)
    (record,) = [r for r in tracer.drain() if r["name"] == "plan.evaluate"]
    return value, record["attrs"]["path"], record["attrs"].get("ops")


#: Burst sizes between live evaluations: none, one, a few, and more changes
#: than an instance's change log holds (the session must rebind).
BURSTS = (0, 1, 1, 2, 9, CHANGE_LOG_LIMIT + 3)


def live_bursts(workload, plan, rng):
    """Random bursts of changes, each followed by live calls checked by
    :func:`assert_live_answer`; returns the path of every live call."""
    instance = workload.instance
    edges = instance.edges()
    paths = []
    for _step in range(14):
        for _ in range(rng.choice(BURSTS)):
            instance.set_probability(rng.choice(edges), random_probability(rng))
        # Interleaved precisions: either order, or one of the two only,
        # so each session falls behind the other by a burst or more.
        order = rng.choice(
            (("exact", "float"), ("float", "exact"), ("exact",), ("float",))
        )
        paths += [assert_live_answer(workload, plan, precision) for precision in order]
    return paths


class TestLiveCatchUp:
    @pytest.mark.parametrize("index", range(len(DISPATCH_ROUTES)))
    def test_random_bursts_match_full_replay_and_oracles(self, index):
        workload, plan, rng = dispatch_plan(index)
        paths = live_bursts(workload, plan, rng)
        assert paths[0] == "bind"
        assert set(paths) <= {"bind", "catch_up"}
        sessions = plan._live_sessions
        assert isinstance(sessions["exact"], TapeEvaluator)
        assert isinstance(sessions["float"], TapeEvaluator)

    @pytest.mark.parametrize("index", range(len(DISPATCH_ROUTES)))
    def test_random_bursts_from_a_cold_start(self, index):
        # A tape-less plan: its first live call takes the direct pass, and
        # every later one, in either precision, follows a session.
        workload, _plan, rng = dispatch_plan(index)
        plan = cold_plan(workload.query, workload.instance, DISPATCH_ROUTES[index][4])
        paths = live_bursts(workload, plan, rng)
        assert paths[0] == "direct"
        assert set(paths[1:]) <= {"bind", "catch_up"}
        assert plan.has_tape()

    @pytest.mark.parametrize("index", range(len(DISPATCH_ROUTES)))
    def test_what_if_session_neither_leaks_nor_takes_in(self, index):
        workload, plan, rng = dispatch_plan(index)
        instance = workload.instance
        edges = instance.edges()
        for precision in ("exact", "float"):
            plan.reset_serving()
            what_if = dict(resolve_context(precision).instance_probabilities(instance))
            for step in range(10):
                edge = rng.choice(edges)
                value = random_probability(rng)
                if step % 2:
                    instance.set_probability(edge, value)
                else:
                    what_if[edge] = resolve_context(precision).convert(value)
                    got = plan.update(edge, value, precision=precision)
                    want = plan.tape().evaluate(what_if, precision)
                    assert type(got) is type(want) and got == want
                assert_live_answer(workload, plan, precision)

    def test_unread_edges_leave_the_session_untouched(self):
        # A session follows any instance holding its tape's edges; changes
        # to edges the tape never reads replay nothing.
        path_edges = [("a", "b", "R"), ("b", "c", "S")]
        probabilities = {("a", "b"): "1/2", ("b", "c"): "1/3"}
        query = one_way_path(["R", "S"])
        plan = PHomSolver().compile(
            query, ProbabilisticGraph(DiGraph(edges=path_edges), probabilities)
        )
        wider = ProbabilisticGraph(
            DiGraph(edges=path_edges + [("x", "y", "T")]),
            {**probabilities, ("x", "y"): "1/5"},
        )
        session = TapeEvaluator(plan.tape())
        assert session.follow(wider) == Fraction(1, 6)
        assert session.path == "bind"
        wider.set_probability(("x", "y"), "1/7")
        assert session.follow(wider) == Fraction(1, 6)
        assert (session.path, session.replayed) == ("catch_up", 0)
        wider.set_probability(("x", "y"), "1/9")
        wider.set_probability(("a", "b"), "1/3")  # 3 divides D = 6
        assert session.follow(wider) == Fraction(1, 9) == brute_force_phom(query, wider)
        assert session.path == "catch_up" and session.replayed > 0
        # Following another instance (a plan's what-if copy is one) moves
        # the registers off this one: following it again rebinds.
        twin = ProbabilisticGraph(wider.graph, wider.probabilities())
        twin.set_probability(("b", "c"), "1/2")
        assert session.follow(twin) == Fraction(1, 6)
        assert session.path == "bind"
        assert session.follow(wider) == Fraction(1, 9)
        assert session.path == "bind"
        # So does another precision.
        floaty = session.follow(wider, "float")
        assert isinstance(floaty, float) and session.path == "bind"
        assert floaty.hex() == plan.tape().evaluate(wider.float_probabilities(), "float").hex()

    def test_denominator_outside_d_rebinds_then_catches_up(self):
        graph = DiGraph(edges=[("a", "b", "R"), ("b", "c", "S")])
        instance = ProbabilisticGraph(graph, {("a", "b"): "1/2", ("b", "c"): "1/2"})
        query = one_way_path(["R", "S"])
        plan = PHomSolver().compile(query, instance)
        plan.evaluate()
        plan.evaluate()
        first = instance.edges()[0]
        instance.set_probability(first, "1/3")  # 3 does not divide D = 2
        value, path, _ops = evaluate_traced(plan)
        assert path == "bind" and value == Fraction(1, 6)
        instance.set_probability(first, "2/3")  # it divides the fresh D = 6
        value, path, _ops = evaluate_traced(plan)
        assert path == "catch_up" and value == Fraction(1, 3)
        assert value == brute_force_phom(query, instance)

    def test_first_use_binds_and_zero_change_replays_nothing(self):
        # A plan lowered at compile binds on its first live call.
        workload, plan, _rng = dispatch_plan(1)
        tape = plan.tape()
        assert plan._live_sessions is None
        value, path, ops = evaluate_traced(plan)
        assert (path, ops) == ("bind", tape.num_ops())
        assert value == fresh_exact(workload.query, workload.instance)
        assert tape._programs is None  # a bind builds no sub-program
        assert evaluate_traced(plan) == (value, "catch_up", 0)
        edges = [edge for edge, _slot in tape.inputs]
        workload.instance.set_probability(edges[-1], Fraction(3, 4))
        value, path, ops = evaluate_traced(plan)
        assert path == "catch_up" and 0 < ops <= tape.num_ops()
        assert value == fresh_exact(workload.query, workload.instance)
        # Overrides replay the whole tape and never touch the sessions.
        _value, path, ops = evaluate_traced(plan, {edges[0]: "1/9"})
        assert (path, ops) == ("replay", tape.num_ops())
        assert evaluate_traced(plan)[1:] == ("catch_up", 0)

    def test_change_log_overflow_rebinds(self):
        workload, plan, rng = dispatch_plan(0)
        plan.evaluate()
        plan.evaluate()
        edges = workload.instance.edges()
        for _ in range(CHANGE_LOG_LIMIT + 1):
            workload.instance.set_probability(rng.choice(edges), random_probability(rng))
        assert workload.instance.changes_since(0) is None
        value, path, _ops = evaluate_traced(plan)
        assert path == "bind"
        assert value == fresh_exact(workload.query, workload.instance)

    def test_pickles_carry_no_session_program_or_log(self):
        workload, plan, rng = dispatch_plan(3)
        instance = workload.instance
        for _ in range(3):
            plan.evaluate()
            plan.evaluate(precision="float")
            instance.set_probability(rng.choice(instance.edges()), random_probability(rng))
        plan.update(instance.edges()[0], Fraction(1, 3))
        tape = plan.tape()
        assert tape._programs is not None and instance.version == 3
        clone = pickle.loads(pickle.dumps(plan))
        assert clone._live_sessions is None
        assert "_tape_serving" not in clone.__dict__
        assert clone.tape()._programs is None
        assert clone.instance.version == 0
        assert clone.instance.changes_since(0) == []
        assert pickle.loads(pickle.dumps(tape))._programs is None
        copy = pickle.loads(pickle.dumps(instance))
        assert copy.version == 0 and copy.changes_since(0) == []
        assert clone.evaluate() == fresh_exact(workload.query, instance)

    def test_rebound_and_store_loaded_plans_answer_from_the_new_instance(self, tmp_path):
        workload, plan, rng = dispatch_plan(1)
        old = workload.instance
        plan.evaluate()
        plan.evaluate()
        new = ProbabilisticGraph(old.graph, random_tables(old, rng, 1)[0])
        plan.rebind(new)
        assert plan._live_sessions is None
        assert plan.evaluate() == fresh_exact(workload.query, new)
        assert plan.evaluate() == fresh_exact(workload.query, new)
        old.set_probability(old.edges()[0], Fraction(1, 7))
        new.set_probability(new.edges()[-1], Fraction(2, 7))
        assert plan.evaluate() == fresh_exact(workload.query, new)

        store_dir = str(tmp_path / "plans")
        writer = PHomSolver(plan_store=store_dir)
        for _ in range(3):
            writer.solve(workload.query, old)
        reader = PHomSolver(plan_store=store_dir)
        for _ in range(3):
            new.set_probability(rng.choice(new.edges()), random_probability(rng))
            got = reader.solve(workload.query, new).probability
            assert got == fresh_exact(workload.query, new)
        assert reader.plan_cache.stats["loads"] == 1

    @pytest.mark.parametrize("workers", [0, 2])
    def test_service_interleavings_match_fresh_solves(self, workers):
        workload, _plan, rng = dispatch_plan(0)
        instance = pickle.loads(pickle.dumps(workload.instance))
        edges = instance.edges()
        queries = [workload.query, one_way_path(["R"]), one_way_path(["R", "S"])]
        with QueryService(num_workers=workers) as service:
            instance_id = service.register_instance(instance, "live")
            for step in range(12):
                for _ in range(rng.choice((0, 1, 1, 3))):
                    edge = rng.choice(edges)
                    value = random_probability(rng)
                    key = edge if step % 2 else (edge.source, edge.target)
                    service.update_probability(instance_id, key, value)
                requests = [
                    ServiceRequest(query, instance_id, precision=precision)
                    for query in queries
                    for precision in ("exact", "float")
                ]
                for request, result in zip(requests, service.submit_many(requests)):
                    fresh = PHomSolver().solve(
                        request.query, instance, precision=request.precision
                    ).probability
                    assert type(result.probability) is type(fresh)
                    assert result.probability == fresh, f"step {step}"


# ----------------------------------------------------------------------
# direct first evaluation: a tape-less plan's first live answer
# ----------------------------------------------------------------------
#: Probabilities of the direct-pass inputs: coprime denominators, a
#: float-derived one, and certain and impossible edges.
DIRECT_PROBABILITIES = (
    Fraction(1, 3), Fraction(1, 7), Fraction(0.1), Fraction(1), Fraction(0),
    Fraction(5, 16),
)


def cold_plan(query, instance, solver_kwargs=None):
    """A plan compiled without a tape (a cache-less solver lowers nothing)."""
    plan = PHomSolver(plan_cache_size=0, **(solver_kwargs or {})).compile(query, instance)
    assert not plan.has_tape()
    return plan


def reweighted(instance, rng):
    """``instance``'s graph with every probability drawn from DIRECT_PROBABILITIES."""
    return ProbabilisticGraph(
        instance.graph,
        {edge: rng.choice(DIRECT_PROBABILITIES) for edge in instance.edges()},
    )


def assert_direct_answer(plan, precision):
    """The plan's first ``evaluate`` takes the direct path and matches its oracle."""
    table = resolve_context(precision).instance_probabilities(plan.instance)
    value, records = traced(lambda: plan.evaluate(precision=precision))
    (attrs,) = span_attrs(records, "plan.evaluate")
    assert attrs["path"] == "direct"
    assert not span_attrs(records, "tape.compile")
    assert not plan.has_tape()
    if precision == "exact":
        assert type(value) is Fraction
        assert value == plan._evaluate_with(table, EXACT)
    else:
        want = compile_plan_tape(plan).evaluate(table, "float")
        assert type(value) is float and value.hex() == want.hex()
    return value


class TestDirectFirstEvaluation:
    """A first live ``evaluate`` runs the kernels once, on scaled integers in
    exact mode, and must answer exactly as the kernels on Fractions and, in
    float, bitwise as the tape replay.  perfbench's oracle solver takes the
    same pass on its first solves, so this suite is its independent check."""

    @pytest.mark.parametrize("precision", ["exact", "float"])
    @pytest.mark.parametrize("index", range(len(DISPATCH_ROUTES)))
    def test_every_route_answers_directly(self, index, precision):
        workload, _plan, rng = dispatch_plan(index)
        solver_kwargs = DISPATCH_ROUTES[index][4]
        for instance in [workload.instance] + [
            reweighted(workload.instance, rng) for _ in range(4)
        ]:
            plan = cold_plan(workload.query, instance, solver_kwargs)
            assert plan.method == DISPATCH_ROUTES[index][0]
            value = assert_direct_answer(plan, precision)
            if precision == "exact":
                assert value == brute_force_phom(workload.query, instance)

    @pytest.mark.parametrize("precision", ["exact", "float"])
    def test_constant_plan_answers_directly(self, precision):
        rng = random.Random(SEED)
        workload = workload_for_cell(
            GraphClass.ONE_WAY_PATH, GraphClass.DOWNWARD_TREE, True,
            query_size=2, instance_size=6, rng=rng,
        )
        plan = cold_plan(one_way_path(["Z"], prefix="q"), workload.instance)
        assert isinstance(plan, ConstantPlan)
        assert assert_direct_answer(plan, precision) == 0

    @pytest.mark.parametrize("precision", ["exact", "float"])
    def test_multi_component_instance(self, precision):
        rng = random.Random(SEED)
        graph = random_disjoint_union([5, 5, 5], "DWT", rng=rng)
        instance = reweighted(ProbabilisticGraph(graph), rng)
        label = graph.edges()[0].label
        plan = cold_plan(one_way_path([label]), instance)
        assert isinstance(plan, ComponentPlan) and len(plan._components) == 3
        value = assert_direct_answer(plan, precision)
        if precision == "exact":
            assert value == brute_force_phom(one_way_path([label]), instance)

    def test_scaled_table_memo_follows_set_probability(self):
        # Two plans' first solves on one instance, with a change between
        # them: the second must read the new probabilities (and their new
        # denominator), not a scaled table memoised before the change.
        path = ProbabilisticGraph(
            DiGraph(edges=[("a", "b", "R"), ("b", "c", "S")]),
            {("a", "b"): "1/2", ("b", "c"): "1/3"},
        )
        cases = [(one_way_path(["R", "S"]), path, {})]
        for index in range(len(DISPATCH_ROUTES)):
            workload, _plan, _rng = dispatch_plan(index)
            cases.append((workload.query, workload.instance, DISPATCH_ROUTES[index][4]))
        moved = []
        for query, instance, solver_kwargs in cases:
            solver = PHomSolver(plan_cache_size=0, **solver_kwargs)
            before = solver.solve(query, instance).probability
            assert before == fresh_exact(query, instance)
            assert instance.scaled_probabilities() is instance.scaled_probabilities()
            # Every input the plan reads gets a value with a fresh
            # denominator, until the answer moves.
            tape = compile_plan_tape(cold_plan(query, instance, solver_kwargs))
            edges = [edge for edge, _slot in tape.inputs]
            for new in (Fraction(1, 11), Fraction(2, 13), Fraction(5, 17)):
                for edge in edges:
                    instance.set_probability(edge, new)
                if fresh_exact(query, instance) != before:
                    break
            else:
                continue  # an answer no input probability can move (e.g. 0)
            moved.append(query)
            den, table = instance.scaled_probabilities()
            assert den % new.denominator == 0
            assert table[edges[0]] == (new.numerator * den // new.denominator, 1)
            after, records = traced(lambda: solver.solve(query, instance))
            assert [attrs["path"] for attrs in span_attrs(records, "plan.evaluate")] == [
                "direct"
            ]
            assert after.probability == fresh_exact(query, instance) != before
            floaty = solver.solve(query, instance, precision="float").probability
            assert floaty == object_graph(
                cold_plan(query, instance, solver_kwargs), precision="float"
            )
        assert moved and moved[0] is cases[0][0]

    def test_second_live_call_lowers_and_binds(self):
        # After a direct answer, the next live call binds in either precision.
        workload, _plan, _rng = dispatch_plan(1)
        for precision in ("exact", "float"):
            plan = cold_plan(workload.query, workload.instance)
            assert_direct_answer(plan, "exact")
            assert plan._live_sessions == {}
            again, path, ops = evaluate_traced(plan, precision=precision)
            assert plan.has_tape()
            assert (path, ops) == ("bind", plan.tape().num_ops())
            want = full_replay(plan, precision)
            assert type(again) is type(want) and again == want
            assert evaluate_traced(plan, precision=precision) == (again, "catch_up", 0)

    def test_overrides_and_lowered_plans_never_take_the_direct_path(self):
        workload, lowered, _rng = dispatch_plan(0)
        assert evaluate_traced(lowered)[1:] == ("bind", lowered.tape().num_ops())
        plan = cold_plan(workload.query, workload.instance)
        edge = workload.instance.edges()[0]
        _value, records = traced(lambda: plan.evaluate({edge: "1/3"}))
        (attrs,) = span_attrs(records, "plan.evaluate")
        assert attrs["path"] == "replay" and plan.has_tape()
        # Lowered by the override call, the plan binds on its first live call.
        assert evaluate_traced(plan)[1] == "bind"

    def test_traced_cold_solve_emits_a_direct_span_and_no_lowering(self):
        workload, _plan, _rng = dispatch_plan(0)
        solver = PHomSolver()
        result, records = traced(lambda: solver.solve(workload.query, workload.instance))
        assert result.probability == fresh_exact(workload.query, workload.instance)
        assert [attrs["path"] for attrs in span_attrs(records, "plan.evaluate")] == [
            "direct"
        ]
        assert span_attrs(records, "plan.compile")
        assert not span_attrs(records, "tape.compile")
        _result, records = traced(lambda: solver.solve(workload.query, workload.instance))
        assert len(span_attrs(records, "tape.compile")) == 1
        assert [attrs["path"] for attrs in span_attrs(records, "plan.evaluate")] == [
            "bind"
        ]


# ----------------------------------------------------------------------
# tape structure invariants
# ----------------------------------------------------------------------
class TestTapeStructure:
    @pytest.mark.parametrize("route", range(len(PLAN_ROUTES)))
    def test_slots_are_topologically_ordered(self, route):
        _workload, plan, _rng = route_plan(route)
        tape = plan.tape()
        for opcode, dst, a, b in zip(tape.opcodes, tape.dsts, tape.lhs, tape.rhs):
            assert dst > a
            if opcode != OP_COMPL:
                assert dst > b
        assert 0 <= tape.root < tape.num_slots

    def test_describe_is_consistent(self):
        _workload, plan, _rng = route_plan(4)
        tape = plan.tape()
        shape = tape.describe()
        assert shape["ops"] == tape.num_ops() == len(tape.opcodes)
        assert shape["inputs"] == tape.num_inputs() == len(tape.inputs)
        assert shape["slots"] == tape.num_slots
        assert sum(shape[name] for name in OPCODE_NAMES.values()) == shape["ops"]

    def test_packed_segments_cover_all_ops_in_level_order(self):
        _workload, plan, _rng = route_plan(4)
        tape = plan.tape()
        segments = tape._packed_segments()
        covered = 0
        computed = set()
        for _opcode, dsts, lhs, rhs in segments:
            for a in lhs + rhs:
                # Every operand is a constant, an input, or the output of
                # an earlier segment — never of the same or a later one.
                assert a in computed or a not in set(tape.dsts)
            computed.update(dsts)
            covered += len(dsts)
        assert covered == tape.num_ops()

    def test_tape_pickle_roundtrips(self):
        workload, plan, rng = route_plan(2)
        tape = plan.tape()
        clone = pickle.loads(pickle.dumps(tape))
        for table in random_tables(workload.instance, rng, 3):
            assert clone.evaluate(table) == tape.evaluate(table)

    def test_pickle_drops_the_derived_arrays(self):
        workload, plan, rng = route_plan(4)
        tape = plan.tape()
        tables = random_tables(workload.instance, rng, 3)
        tape.evaluate_many(tables, precision="float")
        tape._packed_segments()  # numpy lanes build it; stdlib lanes do not
        want = [tape.evaluate(table) for table in tables]
        assert tape._scaled is not None and tape._segments is not None
        clone = pickle.loads(pickle.dumps(tape))
        for name in PlanTape._DERIVED:
            assert name not in clone.__dict__
        assert clone._scaled is None and clone._segments is None
        assert [clone.evaluate(table) for table in tables] == want
        ops, shifts, *_ = clone._scaled_program()
        assert len(ops) == len(shifts) == clone.num_ops()

    def test_unknown_opcode_is_rejected_at_construction(self):
        # The replay loops run every opcode other than mul and add as
        # compl, so an unknown opcode (3 was once ``sub``) must fail at
        # construction instead of replaying as ``1 - lhs``.
        with pytest.raises(PlanError):
            PlanTape(
                num_slots=4,
                consts=((0, Fraction(0)), (1, Fraction(1))),
                inputs=(),
                opcodes=[3],
                dsts=[3],
                lhs=[1],
                rhs=[0],
                root=3,
            )

    def test_constant_other_than_zero_or_one_is_rejected_at_construction(self):
        # The exact replay scales by the input denominators alone (lowering
        # emits only 0 and 1, pinned by the golden digests), so a tape
        # built with any other constant must fail at construction.
        with pytest.raises(PlanError):
            PlanTape(
                num_slots=4,
                consts=((0, Fraction(0)), (1, Fraction(1)), (2, Fraction(1, 2))),
                inputs=(),
                opcodes=[OP_COMPL],
                dsts=[3],
                lhs=[2],
                rhs=[2],
                root=3,
            )

    def test_compile_is_memoised_on_the_plan(self):
        _workload, plan, _rng = route_plan(0)
        assert plan.tape() is plan.tape()

    @pytest.mark.parametrize("index", range(len(DISPATCH_ROUTES)))
    def test_kernel_pairs_round_trip_through_pickle_and_the_store(self, index, tmp_path):
        # A ComponentPlan holds (kernel, structure) pairs; the kernels are
        # module functions or DDNNF.evaluate_with, which pickle by name.
        workload, plan, _rng = dispatch_plan(index)
        want = plan.evaluate()
        store = PlanStore(str(tmp_path))
        digest = instance_digest(workload.instance)
        store.put("key", digest, "ns", plan)
        copies = [
            pickle.loads(pickle.dumps(plan, protocol))
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
        ]
        copies.append(store.get("key", digest, "ns"))
        kernels = [kernel for kernel, _structure in plan._components]
        for copy in copies:
            assert [kernel for kernel, _structure in copy._components] == kernels
            assert copy.evaluate() == want
            assert object_graph(copy) == want
            relowered = compile_plan_tape(copy)
            assert program_digest(relowered) == program_digest(plan.tape())
            assert relowered.inputs == plan.tape().inputs


# ----------------------------------------------------------------------
# golden tape shapes
# ----------------------------------------------------------------------
class TestGoldenTapeShapes:
    """Plan-store entries carry tapes, so a drift in any route's op stream
    (order, operands, peepholes, input slots) must fail loudly here."""

    @pytest.mark.parametrize("index", range(len(DISPATCH_ROUTES)))
    def test_tape_shape_is_pinned(self, index):
        golden = GOLDEN_TAPES[DISPATCH_ROUTES[index][0]]
        _workload, plan, _rng = dispatch_plan(index, seed=GOLDEN_SEED)
        tape = plan.tape()
        assert tape.describe() == golden["describe"]
        assert tape.root == golden["root"]
        inputs = [(edge.source, edge.target, slot) for edge, slot in tape.inputs]
        assert inputs == golden["inputs"]
        assert program_digest(tape) == golden["digest"]


# ----------------------------------------------------------------------
# cache statistics hygiene
# ----------------------------------------------------------------------
class TestStatsHygiene:
    def test_tape_compiles_do_not_inflate_plan_compiles(self):
        workload, _plan, _rng = route_plan(0)
        solver = PHomSolver()
        solver.compile(workload.query, workload.instance)
        stats = solver.plan_cache.stats
        assert stats["compiles"] == 1
        assert stats["tape_compiles"] == 1  # lowered once, at compile
        solver.tape_for(workload.query, workload.instance)
        stats = solver.plan_cache.stats
        assert stats["compiles"] == 1, "tape compile double-counted as plan compile"
        assert stats["tape_compiles"] == 1

    def test_repeated_tape_requests_compile_once(self):
        workload, _plan, _rng = route_plan(0)
        solver = PHomSolver()
        first = solver.tape_for(workload.query, workload.instance)
        second = solver.tape_for(workload.query, workload.instance)
        assert first is second
        stats = solver.plan_cache.stats
        assert stats["compiles"] == 1
        assert stats["tape_compiles"] == 1

    def test_evaluate_many_accounts_like_tape_for(self):
        workload, _plan, _rng = route_plan(0)
        solver = PHomSolver()
        solver.evaluate_many(workload.query, workload.instance, [None, {}])
        solver.evaluate_many(workload.query, workload.instance, [None])
        stats = solver.plan_cache.stats
        assert stats["compiles"] == 1
        assert stats["tape_compiles"] == 1

    def test_stats_dict_exposes_tape_compiles(self):
        solver = PHomSolver()
        assert "tape_compiles" in solver.plan_cache.stats


# ----------------------------------------------------------------------
# lowering policy: at compile for compile/tape_for/evaluate_many, on reuse
# for solves
# ----------------------------------------------------------------------
def cached_plan(solver):
    """The solver's one cached plan, read without a lookup (which would lower)."""
    (plan,) = solver.plan_cache._entries.values()
    return plan


class TestLoweringOnReuse:
    @pytest.mark.parametrize("index", range(len(DISPATCH_ROUTES)))
    def test_compile_lowers_once(self, index, monkeypatch):
        # The one lowering happens at compile: the first solve already
        # replays the tape, and no later solve lowers again.
        workload, _plan, rng = dispatch_plan(index)
        query, instance = workload.query, workload.instance
        solver = PHomSolver(**DISPATCH_ROUTES[index][4])
        plan = solver.compile(query, instance)
        assert plan.has_tape()
        stats = solver.plan_cache.stats
        assert stats["compiles"] == 1 and stats["tape_compiles"] == 1

        def object_graph_run(*_args):
            raise AssertionError("a solve ran the object graph")

        want = fresh_exact(query, instance)
        monkeypatch.setattr(plan, "_evaluate_with", object_graph_run)
        assert solver.solve(query, instance).probability == want
        assert solver.solve(query, instance).probability == want
        edges = instance.edges()
        for _ in range(3):
            instance.set_probability(edges[rng.randrange(len(edges))], random_probability(rng))
            exact = fresh_exact(query, instance)
            assert solver.solve(query, instance).probability == exact
            drifted = solver.solve(query, instance, precision="float").probability
            assert abs(drifted - float(exact)) <= FLOAT_TOLERANCE
        stats = solver.plan_cache.stats
        assert stats["compiles"] == 1
        assert stats["tape_compiles"] == 1

    @pytest.mark.parametrize("index", range(len(DISPATCH_ROUTES)))
    def test_solve_lowers_on_reuse_once(self, index, monkeypatch):
        # A solve's plan answers its first call without a tape; the next
        # solve lowers it once, and from the third on the kernels never run.
        workload, _plan, rng = dispatch_plan(index)
        query, instance = workload.query, workload.instance
        solver = PHomSolver(**DISPATCH_ROUTES[index][4])
        want = fresh_exact(query, instance)
        assert solver.solve(query, instance).probability == want
        plan = cached_plan(solver)
        assert not plan.has_tape()
        stats = solver.plan_cache.stats
        assert stats["compiles"] == 1 and stats["tape_compiles"] == 0

        assert solver.solve(query, instance).probability == want
        assert plan.has_tape() and cached_plan(solver) is plan
        stats = solver.plan_cache.stats
        assert stats["compiles"] == 1 and stats["tape_compiles"] == 1

        def object_graph_run(*_args):
            raise AssertionError("a solve ran the kernels after the lowering")

        monkeypatch.setattr(plan, "_evaluate_with", object_graph_run)
        assert solver.solve(query, instance).probability == want
        edges = instance.edges()
        for _ in range(3):
            instance.set_probability(edges[rng.randrange(len(edges))], random_probability(rng))
            exact = fresh_exact(query, instance)
            assert solver.solve(query, instance).probability == exact
            drifted = solver.solve(query, instance, precision="float").probability
            assert abs(drifted - float(exact)) <= FLOAT_TOLERANCE
        solver.compile(query, instance)
        solver.tape_for(query, instance)
        stats = solver.plan_cache.stats
        assert stats["compiles"] == 1 and stats["tape_compiles"] == 1

    @pytest.mark.parametrize("entry", ["compile", "tape_for", "evaluate_many"])
    def test_compile_entries_lower_before_their_one_put(self, entry, tmp_path):
        workload, _plan, _rng = dispatch_plan(1)
        query, instance = workload.query, workload.instance
        solver = PHomSolver(plan_store=str(tmp_path / "plans"))
        calls = {
            "compile": lambda: solver.compile(query, instance),
            "tape_for": lambda: solver.tape_for(query, instance),
            "evaluate_many": lambda: solver.evaluate_many(query, instance, [None]),
        }
        calls[entry]()
        assert cached_plan(solver).has_tape()
        assert solver.plan_store.stats["puts"] == 1
        (row,) = solver.plan_store.inspect()
        assert row["tape"] is True
        stats = solver.plan_cache.stats
        assert stats["compiles"] == 1 and stats["tape_compiles"] == 1

    def test_uncached_solver_never_lowers(self):
        workload, _plan, _rng = dispatch_plan(0)
        solver = PHomSolver(plan_cache_size=0)
        for _ in range(3):
            solver.solve(workload.query, workload.instance)
        assert not solver.compile(workload.query, workload.instance).has_tape()

    def test_explicit_sampling_lowers_nothing(self):
        # An explicit karp-luby solve samples a fresh lineage of a tractable
        # pair and reads no tape, so its cache hits lower nothing; an auto
        # solve, which evaluates the plan, still lowers it on reuse.
        workload, _plan, _rng = dispatch_plan(0)
        query, instance = workload.query, workload.instance
        solver = PHomSolver(epsilon=0.5, delta=0.5, seed=3)
        for _ in range(3):
            solver.solve(query, instance, method="karp-luby")
        stats = solver.plan_cache.stats
        assert (stats["compiles"], stats["hits"], stats["tape_compiles"]) == (1, 2, 0)
        assert not cached_plan(solver).has_tape()
        want = fresh_exact(query, instance)
        for _ in range(2):
            assert solver.solve(query, instance).probability == want
        assert solver.plan_cache.stats["tape_compiles"] == 1

    def test_one_store_put_and_warm_restart_lowers_once_on_reuse(self, tmp_path):
        workload, _plan, _rng = dispatch_plan(1)
        store_dir = str(tmp_path / "plans")
        writer = PHomSolver(plan_store=store_dir)
        answers = {writer.solve(workload.query, workload.instance).probability for _ in range(4)}
        assert len(answers) == 1
        # One put, by the first solve's compile, and it carries no tape:
        # the writer lowered the plan on its second solve, after the put.
        assert writer.plan_store.stats["puts"] == 1
        (row,) = writer.plan_store.inspect()
        assert row["tape"] is False
        stats = writer.plan_cache.stats
        assert stats["compiles"] == 1 and stats["tape_compiles"] == 1

        # A restarted reader loads the tape-less entry and, since a load
        # is a reuse, lowers it once; it recompiles and writes nothing.
        reader = PHomSolver(plan_store=store_dir)
        assert reader.solve(workload.query, workload.instance).probability in answers
        assert reader.compile(workload.query, workload.instance).has_tape()
        stats = reader.plan_cache.stats
        assert stats["compiles"] == 0 and stats["tape_compiles"] == 1
        assert stats["loads"] == 1
        assert reader.plan_store.stats["puts"] == 0
