"""Tests for the compiled-plan subsystem: compile/evaluate halves, the plan
cache, batch deduplication, and incremental updates.

The contract under test: ``PHomSolver.compile(query, instance)`` captures
everything probability-independent, ``plan.evaluate`` is bit-identical to
the one-shot API in exact mode (and 1e-9-close in float mode), and
``plan.update`` matches a fresh plan's full re-evaluation after every
single-edge change.
"""

import pickle
import random
import warnings
from fractions import Fraction

import pytest

from repro.exceptions import GraphError, IntractableFallbackWarning, PlanError
from repro.graphs.builders import one_way_path, unlabeled_path
from repro.graphs.classes import GraphClass
from repro.graphs.digraph import DiGraph, Edge
from repro.lineage.ddnnf import DDNNF
from repro.numeric import resolve_context
from repro.plan import ComponentPlan, ConstantPlan, FallbackPlan, PlanCache, canonical_query_key
from repro.probability.prob_graph import ProbabilisticGraph
from repro.core.solver import PHomSolver
from repro.workloads import workload_for_cell

TOLERANCE = 1e-9

#: One cell per tractable dispatch route (mirrors test_precision_and_batch).
TRACTABLE_CELLS = [
    (GraphClass.ONE_WAY_PATH, GraphClass.DOWNWARD_TREE, True),
    (GraphClass.ONE_WAY_PATH, GraphClass.UNION_DOWNWARD_TREE, True),
    (GraphClass.TWO_WAY_PATH, GraphClass.TWO_WAY_PATH, True),
    (GraphClass.DOWNWARD_TREE, GraphClass.UNION_TWO_WAY_PATH, True),
    (GraphClass.ALL, GraphClass.UNION_DOWNWARD_TREE, False),
    (GraphClass.DOWNWARD_TREE, GraphClass.POLYTREE, False),
    (GraphClass.UNION_DOWNWARD_TREE, GraphClass.UNION_POLYTREE, False),
]


def _workload(query_class, instance_class, labeled, seed, query_size=3, instance_size=12):
    return workload_for_cell(
        query_class, instance_class, labeled, query_size, instance_size,
        rng=random.Random(seed),
    )


def _kernel_probability(query, instance, precision="exact", **solver_kwargs):
    """The pair's probability computed without any tape: the ground truth.

    A cache-less solver compiles a fresh plan (it lowers nothing) and the
    plan's arithmetic half runs on the numeric context itself.
    """
    plan = PHomSolver(plan_cache_size=0, **solver_kwargs).compile(query, instance)
    context = resolve_context(precision)
    return plan._evaluate_with(context.instance_probabilities(instance), context)


class TestCompileEvaluateMatchesOneShot:
    @pytest.mark.parametrize("query_class,instance_class,labeled", TRACTABLE_CELLS)
    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("prefer", ["dp", "automaton"])
    def test_exact_bit_identical_and_float_close(
        self, query_class, instance_class, labeled, seed, prefer
    ):
        workload = _workload(query_class, instance_class, labeled, seed)
        solver = PHomSolver(prefer=prefer)
        baseline = PHomSolver(prefer=prefer, plan_cache_size=0)
        plan = solver.compile(workload.query, workload.instance)
        exact = baseline.solve(workload.query, workload.instance)
        assert plan.evaluate() == exact.probability == _kernel_probability(
            workload.query, workload.instance, prefer=prefer
        )
        assert plan.method == exact.method
        assert plan.proposition == exact.proposition
        fast = plan.evaluate(precision="float")
        assert isinstance(fast, float)
        assert abs(float(exact.probability) - fast) <= TOLERANCE

    def test_trivial_plans(self):
        instance = ProbabilisticGraph(DiGraph(edges=[("a", "b", "R")]), default="0.5")
        solver = PHomSolver()
        edgeless = solver.compile(DiGraph(vertices=["q"]), instance)
        assert isinstance(edgeless, ConstantPlan)
        assert edgeless.evaluate() == Fraction(1)
        assert edgeless.evaluate(precision="float") == 1.0
        mismatch = solver.compile(DiGraph(edges=[("x", "y", "Z")]), instance)
        assert mismatch.evaluate() == Fraction(0)
        assert mismatch.method == "trivial-label-mismatch"

    def test_evaluate_with_override_table(self):
        graph = DiGraph(edges=[("a", "b"), ("b", "c")])
        instance = ProbabilisticGraph(graph, default=Fraction(1, 2))
        query = unlabeled_path(1)
        solver = PHomSolver()
        plan = solver.compile(query, instance)
        base = plan.evaluate()
        overridden = plan.evaluate(probabilities={("a", "b"): 0})
        # Overriding must not touch the instance or the plan's base answer.
        assert overridden == Fraction(1, 2)
        assert plan.evaluate() == base
        assert instance.probability(("a", "b")) == Fraction(1, 2)

    def test_fallback_plan_warns_and_rejects_overrides(self):
        # Labeled 1WP query on a polytree instance: #P-hard (Table 2).
        polytree = DiGraph(edges=[("a", "b", "R"), ("c", "b", "S"), ("b", "d", "R")])
        instance = ProbabilisticGraph.with_uniform_probability(polytree, "1/2")
        query = one_way_path(["R", "R"], prefix="q")
        solver = PHomSolver()
        plan = solver.compile(query, instance)
        assert isinstance(plan, FallbackPlan)
        with pytest.warns(IntractableFallbackWarning):
            value = plan.evaluate()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IntractableFallbackWarning)
            exact = PHomSolver(plan_cache_size=0).solve(query, instance)
        assert value == exact.probability
        with pytest.raises(PlanError):
            plan.evaluate(probabilities={})
        with pytest.raises(PlanError):
            plan.update(instance.edges()[0], "0.5")

    def test_fallback_plan_snapshots_the_query(self):
        # Regression: a cached fallback plan must keep answering for the
        # query shape it was compiled for, even if the caller mutates the
        # original (mutable) query graph afterwards.
        polytree = DiGraph(edges=[("a", "b", "R"), ("c", "b", "S"), ("b", "d", "R")])
        instance = ProbabilisticGraph.with_uniform_probability(polytree, "1/2")
        original = DiGraph(edges=[("q0", "q1", "R"), ("q1", "q2", "R")])
        twin = DiGraph(edges=[("q0", "q1", "R"), ("q1", "q2", "R")])
        solver = PHomSolver()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IntractableFallbackWarning)
            first = solver.solve(original, instance).probability
            original.add_edge("q2", "q3", "Z")
            cached = solver.solve(twin, instance).probability  # hits the old key
            cold = PHomSolver(plan_cache_size=0).solve(twin, instance).probability
        assert cached == cold == first


class TestCanonicalQueryKey:
    def test_isomorphic_paths_share_a_key(self):
        a = one_way_path(["R", "S"], prefix="a")
        b = one_way_path(["R", "S"], prefix="b")
        assert canonical_query_key(a) == canonical_query_key(b)

    def test_reversed_two_way_path_shares_a_key(self):
        forward = DiGraph(edges=[("x1", "x2", "R"), ("x3", "x2", "S")])
        # The same 2WP with vertex names that make the recogniser traverse
        # the path from the other endpoint.
        backward = DiGraph(edges=[("z9", "z5", "R"), ("z1", "z5", "S")])
        assert canonical_query_key(forward) == canonical_query_key(backward)

    def test_different_labels_different_keys(self):
        assert canonical_query_key(one_way_path(["R", "S"])) != canonical_query_key(
            one_way_path(["R", "T"])
        )

    def test_mutation_changes_the_key(self):
        query = DiGraph(edges=[("a", "b", "R")])
        before = canonical_query_key(query)
        query.add_edge("b", "c", "S")
        assert canonical_query_key(query) != before

    def test_non_path_queries_key_on_content(self):
        tree = DiGraph(edges=[("r", "a"), ("r", "b")])
        same = DiGraph(edges=[("r", "a"), ("r", "b")])
        other = DiGraph(edges=[("r", "a"), ("a", "b")])
        assert canonical_query_key(tree) == canonical_query_key(same)
        assert canonical_query_key(tree) != canonical_query_key(other)

    def test_repr_collisions_do_not_merge_distinct_queries(self):
        # Regression: distinct vertex objects whose reprs collide must not
        # collapse to one cache key (keys are value-based, not repr-based).
        class V:
            def __repr__(self):
                return "v"

        a, b, c = V(), V(), V()
        triangle = DiGraph(edges=[(a, b), (b, c), (a, c)])
        star_hub, l1, l2, l3 = V(), V(), V(), V()
        star = DiGraph(edges=[(star_hub, l1), (star_hub, l2), (star_hub, l3)])
        assert canonical_query_key(triangle) != canonical_query_key(star)
        instance = ProbabilisticGraph(
            DiGraph(edges=[("x", "y")]), default=Fraction(1, 2)
        )
        solver = PHomSolver()
        first = solver.solve(triangle, instance).probability
        second = solver.solve(star, instance).probability
        cold = PHomSolver(plan_cache_size=0)
        assert first == cold.solve(triangle, instance).probability
        assert second == cold.solve(star, instance).probability


class TestPlanCache:
    def test_solve_many_compiles_duplicates_once(self):
        workload = _workload(GraphClass.ONE_WAY_PATH, GraphClass.DOWNWARD_TREE, True, 5)
        solver = PHomSolver()
        queries = [workload.query] * 6
        results = solver.solve_many(queries, workload.instance)
        assert len(results) == 6
        assert solver.plan_cache.stats["compiles"] == 1
        assert len({r.probability for r in results}) == 1

    def test_isomorphic_duplicates_compile_once(self):
        instance = _workload(
            GraphClass.ONE_WAY_PATH, GraphClass.DOWNWARD_TREE, True, 6
        ).instance
        queries = [one_way_path(["a", "b"], prefix=f"q{i}_") for i in range(5)]
        solver = PHomSolver()
        results = solver.solve_many(queries, instance)
        assert solver.plan_cache.stats["compiles"] == 1
        assert len({r.probability for r in results}) == 1

    def test_repeated_solve_hits_the_cache(self):
        workload = _workload(GraphClass.TWO_WAY_PATH, GraphClass.TWO_WAY_PATH, True, 7)
        solver = PHomSolver()
        solver.solve(workload.query, workload.instance)
        solver.solve(workload.query, workload.instance)
        stats = solver.plan_cache.stats
        assert stats["compiles"] == 1
        assert stats["hits"] >= 1

    def test_lru_eviction(self):
        cache = PlanCache(maxsize=2)
        instance = ProbabilisticGraph(DiGraph(edges=[("a", "b")]), default="0.5")
        solver = PHomSolver()
        plans = [
            solver.compile(unlabeled_path(1), instance),
            solver.compile(unlabeled_path(1), instance),
            solver.compile(unlabeled_path(1), instance),
        ]
        for index, plan in enumerate(plans):
            cache.store(("key", index), instance, plan)
        assert len(cache) == 2
        assert cache.lookup(("key", 0), instance) is None
        assert cache.lookup(("key", 2), instance) is plans[2]

    def test_cache_disabled_with_zero_size(self):
        solver = PHomSolver(plan_cache_size=0)
        assert solver.plan_cache is None
        workload = _workload(GraphClass.ONE_WAY_PATH, GraphClass.DOWNWARD_TREE, True, 8)
        # Still solves correctly, just without caching.
        result = solver.solve(workload.query, workload.instance)
        reference = PHomSolver().solve(workload.query, workload.instance)
        assert result.probability == reference.probability


class TestIncrementalUpdate:
    def _polytree_setup(self, seed=9, instance_size=10):
        workload = _workload(
            GraphClass.DOWNWARD_TREE, GraphClass.POLYTREE, False, seed,
            instance_size=instance_size,
        )
        solver = PHomSolver(prefer="automaton")
        plan = solver.compile(workload.query, workload.instance)
        return workload, plan

    def test_update_matches_full_resolve_exact(self):
        workload, plan = self._polytree_setup()
        rng = random.Random(3)
        edges = workload.instance.edges()
        for _ in range(10):
            edge = rng.choice(edges)
            probability = Fraction(rng.randint(0, 8), 8)
            updated = plan.update(edge, probability)
            workload.instance.set_probability(edge, probability)
            full = _kernel_probability(
                workload.query, workload.instance, prefer="automaton"
            )
            assert updated == full  # exact mode: bit-identical

    def test_update_matches_full_resolve_float(self):
        workload, plan = self._polytree_setup(seed=10)
        rng = random.Random(4)
        edges = workload.instance.edges()
        for _ in range(10):
            edge = rng.choice(edges)
            probability = Fraction(rng.randint(0, 16), 16)
            updated = plan.update(edge, probability, precision="float")
            workload.instance.set_probability(edge, probability)
            full = _kernel_probability(
                workload.query, workload.instance, "float", prefer="automaton"
            )
            assert abs(updated - full) <= TOLERANCE

    def test_update_does_not_mutate_the_instance(self):
        workload, plan = self._polytree_setup(seed=11)
        edge = workload.instance.edges()[0]
        before = workload.instance.probability(edge)
        plan.update(edge, Fraction(1, 7))
        assert workload.instance.probability(edge) == before

    def test_interleaved_evaluate_does_not_corrupt_serving_state(self):
        workload, plan = self._polytree_setup(seed=12)
        instance = workload.instance
        edges = instance.edges()
        plan.update(edges[0], Fraction(1, 3))
        # A stateless evaluation against the (unchanged) instance...
        plan.evaluate()
        # ...must not disturb the serving table of subsequent updates.
        updated = plan.update(edges[0], Fraction(2, 3))
        instance.set_probability(edges[0], Fraction(2, 3))
        assert updated == _kernel_probability(workload.query, instance, prefer="automaton")

    def test_update_on_dp_plans_recomputes_arithmetic(self):
        # DP-backed plans update through the same tape session as circuits.
        workload = _workload(GraphClass.TWO_WAY_PATH, GraphClass.TWO_WAY_PATH, True, 13)
        solver = PHomSolver()
        plan = solver.compile(workload.query, workload.instance)
        assert isinstance(plan, ComponentPlan)
        edge = workload.instance.edges()[0]
        updated = plan.update(edge, Fraction(1, 5))
        workload.instance.set_probability(edge, Fraction(1, 5))
        assert updated == _kernel_probability(workload.query, workload.instance)

    def test_update_unknown_edge_raises(self):
        _workload_, plan = self._polytree_setup(seed=14)
        with pytest.raises(GraphError):
            plan.update(("nope", "nada"), "0.5")

    def test_precision_switch_mid_serving_raises_until_reset(self):
        workload, plan = self._polytree_setup(seed=15)
        edge = workload.instance.edges()[0]
        plan.update(edge, Fraction(1, 4), precision="float")
        with pytest.raises(PlanError):
            plan.update(edge, Fraction(1, 2))  # defaults to exact: mismatch
        plan.reset_serving()
        updated = plan.update(edge, Fraction(1, 2))  # fresh exact session
        workload.instance.set_probability(edge, Fraction(1, 2))
        assert updated == _kernel_probability(
            workload.query, workload.instance, prefer="automaton"
        )

    def test_compile_returns_shared_cached_plan(self):
        workload, plan = self._polytree_setup(seed=16)
        solver = PHomSolver(prefer="automaton")
        first = solver.compile(workload.query, workload.instance)
        second = solver.compile(workload.query, workload.instance)
        assert first is second  # documented: serving state is shared
        assert solver.plan_cache.stats["compiles"] == 1


class TestEdgeKeys:
    def test_edge_key_with_wrong_label_is_rejected(self):
        graph = DiGraph(edges=[("a", "b", "R"), ("b", "c", "S")])
        instance = ProbabilisticGraph(graph, {("a", "b"): "1/2", ("b", "c"): "1/3"})
        plan = PHomSolver().compile("R(x, y), S(y, z)", instance)
        right, wrong = Edge("a", "b", "R"), Edge("a", "b", "S")
        assert plan.evaluate({right: "1"}) == plan.evaluate({("a", "b"): "1"}) == Fraction(1, 3)
        # The instance's own resolver rejects the label, as set_probability does.
        with pytest.raises(GraphError, match="does not match the instance edge"):
            plan.evaluate({wrong: "1"})
        with pytest.raises(GraphError, match="does not match the instance edge"):
            plan.evaluate_many([None, {wrong: "1"}])
        with pytest.raises(GraphError, match="does not match the instance edge"):
            plan.update(wrong, "1")
        assert plan.update(right, "1") == Fraction(1, 3)


class TestCircuitPass:
    def _circuit(self):
        circuit = DDNNF()
        x, y = circuit.add_var("x"), circuit.add_var("y")
        not_x = circuit.add_not("x")
        both = circuit.add_and([x, y])
        neither = circuit.add_and([not_x, circuit.add_not("y")])
        circuit.set_root(circuit.add_or([both, neither]))
        return circuit

    @pytest.mark.parametrize("precision", ["exact", "float"])
    def test_pass_matches_probability(self, precision):
        # The pass plans lower is checked against the gate-by-gate walk.
        context = resolve_context(precision)
        circuit = self._circuit()
        table = {"x": Fraction(1, 3), "y": Fraction(1, 4)}
        converted = {variable: context.convert(p) for variable, p in table.items()}
        value = circuit.evaluate_with(converted, context)
        assert type(value) is type(context.one)
        assert value == circuit.probability(table, context)

    def test_pickle_drops_the_slot_program(self):
        circuit = self._circuit()
        table = {"x": Fraction(1, 3), "y": Fraction(1, 4)}
        value = circuit.evaluate_with(table, resolve_context("exact"))
        copy = pickle.loads(pickle.dumps(circuit))
        assert copy._derived == {}  # rebuilt on first use, never shipped
        assert copy.evaluate_with(table, resolve_context("exact")) == value

    def test_probability_converts_its_inputs(self):
        circuit = self._circuit()
        value = circuit.probability({"x": "1/3", "y": 0.25})
        assert isinstance(value, Fraction)
        assert value == Fraction(7, 12)


class TestDDNNFMemoisation:
    def test_variables_and_supports_track_growth(self):
        circuit = DDNNF()
        circuit.add_var("x")
        assert circuit.variables() == {"x"}
        circuit.add_var("y")
        assert circuit.variables() == {"x", "y"}
        first = circuit._supports()
        assert circuit._supports() is first  # memoised while unchanged
        circuit.add_var("z")
        assert len(circuit._supports()) == 3

    def test_literal_index(self):
        circuit = DDNNF()
        x, y = circuit.add_var("x"), circuit.add_var("y")
        gate = circuit.add_and([x, y])
        circuit.set_root(gate)
        assert circuit.literal_index() == {"x": (x,), "y": (y,)}

    def test_is_deterministic_still_detects_overlap(self):
        circuit = DDNNF()
        x, y = circuit.add_var("x"), circuit.add_var("y")
        circuit.set_root(circuit.add_or([x, y]))  # both true under x=y=1
        assert not circuit.is_deterministic()

    def test_is_deterministic_accepts_exclusive_or(self):
        circuit = DDNNF()
        x_and_not_y = circuit.add_and([circuit.add_var("x"), circuit.add_not("y")])
        y_and_not_x = circuit.add_and([circuit.add_var("y"), circuit.add_not("x")])
        circuit.set_root(circuit.add_or([x_and_not_y, y_and_not_x]))
        assert circuit.is_deterministic()


class TestBenchPlansSmoke:
    def test_cli_bench_plans_smoke(self, tmp_path):
        from repro.cli import main
        import io, json

        target = tmp_path / "plans.json"
        out, err = io.StringIO(), io.StringIO()
        code = main(
            ["bench", "plans", "--smoke", "--output", str(target),
             "--min-reuse-speedup", "1.0"],
            out=out, err=err,
        )
        assert code == 0, err.getvalue()
        report = json.loads(target.read_text())
        assert report["benchmark"] == "plans"
        assert report["summary"]["min_plan_reuse_speedup"] >= 1.0
        assert {w["name"] for w in report["workloads"]} == {
            "labeled-dwt", "connected-2wp", "unlabeled-polytree-ddnnf"
        }
