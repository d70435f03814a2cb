"""Tests for the performance subsystem: numeric backends, the batch API and
the cached graph metadata.

The precision contract under test is the one documented in the README:
``precision="exact"`` returns bit-exact :class:`~fractions.Fraction` values
(identical to the seed implementation), ``precision="float"`` returns native
floats agreeing with exact mode to within ``1e-9`` on every tractable
dispatch route.
"""

import random
import warnings
from fractions import Fraction

import pytest

from repro.exceptions import GraphError, IntractableFallbackWarning, ReproError
from repro.graphs.classes import GraphClass, graph_class_of
from repro.graphs.digraph import DiGraph, Edge
from repro.numeric import EXACT, FAST, resolve_context
from repro.probability.prob_graph import ProbabilisticGraph
from repro.core.solver import PHomSolver, phom_probability
from repro.workloads import workload_for_cell
from repro.workloads.generators import attach_random_probabilities, make_instance, make_query

TOLERANCE = 1e-9

#: One cell per tractable dispatch route of Tables 1-3 (and both trivial
#: short-circuits), exercised by the float-agreement property test.
TRACTABLE_CELLS = [
    # (query class, instance class, labeled) -> expected route
    (GraphClass.ONE_WAY_PATH, GraphClass.DOWNWARD_TREE, True),      # labeled-dwt
    (GraphClass.ONE_WAY_PATH, GraphClass.UNION_DOWNWARD_TREE, True),  # labeled-dwt + Lemma 3.7
    (GraphClass.TWO_WAY_PATH, GraphClass.TWO_WAY_PATH, True),       # connected-2wp
    (GraphClass.DOWNWARD_TREE, GraphClass.UNION_TWO_WAY_PATH, True),  # connected-2wp + Lemma 3.7
    (GraphClass.ALL, GraphClass.UNION_DOWNWARD_TREE, False),        # graded-collapse
    (GraphClass.DOWNWARD_TREE, GraphClass.POLYTREE, False),         # polytree-dp
    (GraphClass.UNION_DOWNWARD_TREE, GraphClass.UNION_POLYTREE, False),  # polytree + Lemma 3.7
]


#: Routes that serve many queries against one shared instance: labeled 1WP
#: queries on a downward tree (Prop 4.10), connected labeled queries on a
#: two-way path (Prop 4.11) and unlabeled tree queries on a union of
#: downward trees (Props 3.6 / 5.5 with Lemma 3.7).
BATCH_ROUTES = {
    "labeled-dwt": (GraphClass.ONE_WAY_PATH, GraphClass.DOWNWARD_TREE, True),
    "connected-2wp": (GraphClass.TWO_WAY_PATH, GraphClass.TWO_WAY_PATH, True),
    "unlabeled-union-dwt": (GraphClass.DOWNWARD_TREE, GraphClass.UNION_DOWNWARD_TREE, False),
}


def _workload(query_class, instance_class, labeled, seed, query_size=3, instance_size=12):
    return workload_for_cell(
        query_class, instance_class, labeled, query_size, instance_size,
        rng=random.Random(seed),
    )


def _route_batch(route):
    """A shared instance and six distinct queries of ``route``, the first repeated."""
    query_class, instance_class, labeled = BATCH_ROUTES[route]
    rng = random.Random(1)
    instance = attach_random_probabilities(make_instance(instance_class, labeled, 12, rng), rng)
    queries = [make_query(query_class, labeled, 2 + index % 3, rng) for index in range(6)]
    return instance, queries + queries[:1]


class TestFloatAgreesWithExact:
    @pytest.mark.parametrize("query_class,instance_class,labeled", TRACTABLE_CELLS)
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_auto_dispatch_agreement(self, query_class, instance_class, labeled, seed):
        workload = _workload(query_class, instance_class, labeled, seed)
        solver = PHomSolver()
        exact = solver.solve(workload.query, workload.instance)
        fast = solver.solve(workload.query, workload.instance, precision="float")
        assert isinstance(exact.probability, Fraction)
        assert isinstance(fast.probability, float)
        assert fast.method == exact.method
        assert abs(float(exact.probability) - fast.probability) <= TOLERANCE

    @pytest.mark.parametrize(
        "method",
        [
            "labeled-dwt-dp",
            "labeled-dwt-lineage",
            "connected-2wp-dp",
            "connected-2wp-lineage",
            "graded-collapse",
            "polytree-dp",
            "polytree-automaton",
            "generic-lineage",
            "brute-force-worlds",
            "brute-force-matches",
        ],
    )
    def test_explicit_methods_agreement(self, method):
        if method.startswith("labeled-dwt"):
            workload = _workload(GraphClass.ONE_WAY_PATH, GraphClass.DOWNWARD_TREE, True, 7)
        elif method.startswith("connected-2wp"):
            workload = _workload(GraphClass.TWO_WAY_PATH, GraphClass.TWO_WAY_PATH, True, 7)
        elif method in ("graded-collapse", "polytree-dp", "polytree-automaton"):
            workload = _workload(
                GraphClass.DOWNWARD_TREE, GraphClass.UNION_DOWNWARD_TREE, False, 7
            )
        else:
            workload = _workload(
                GraphClass.ONE_WAY_PATH, GraphClass.DOWNWARD_TREE, True, 7,
                query_size=2, instance_size=5,
            )
        solver = PHomSolver()
        exact = solver.solve(workload.query, workload.instance, method=method)
        fast = solver.solve(workload.query, workload.instance, method=method, precision="float")
        assert isinstance(exact.probability, Fraction)
        assert isinstance(fast.probability, float)
        assert abs(float(exact.probability) - fast.probability) <= TOLERANCE

    def test_brute_force_fallback_agreement(self):
        # A #P-hard cell: general labeled query on a general instance.
        workload = _workload(GraphClass.ALL, GraphClass.ALL, True, 11, query_size=2, instance_size=4)
        solver = PHomSolver()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IntractableFallbackWarning)
            exact = solver.solve(workload.query, workload.instance)
            fast = solver.solve(workload.query, workload.instance, precision="float")
        assert abs(float(exact.probability) - fast.probability) <= TOLERANCE

    def test_trivial_cases_use_backend_constants(self):
        instance = ProbabilisticGraph(DiGraph(edges=[("a", "b", "R")]), default="0.5")
        edgeless = DiGraph(vertices=["q"])
        mismatched = DiGraph(edges=[("x", "y", "Z")])
        solver = PHomSolver()
        assert solver.solve(edgeless, instance).probability == Fraction(1)
        assert solver.solve(edgeless, instance, precision="float").probability == 1.0
        assert isinstance(
            solver.solve(edgeless, instance, precision="float").probability, float
        )
        assert solver.solve(mismatched, instance, precision="float").probability == 0.0

    def test_phom_probability_precision_keyword(self):
        workload = _workload(GraphClass.ONE_WAY_PATH, GraphClass.DOWNWARD_TREE, True, 5)
        exact = phom_probability(workload.query, workload.instance)
        fast = phom_probability(workload.query, workload.instance, precision="float")
        assert isinstance(exact, Fraction)
        assert isinstance(fast, float)
        assert abs(float(exact) - fast) <= TOLERANCE

    def test_resolve_context(self):
        assert resolve_context(None) is EXACT
        assert resolve_context("exact") is EXACT
        assert resolve_context("float") is FAST
        assert resolve_context(FAST) is FAST
        with pytest.raises(ReproError):
            resolve_context("double")


class TestSolveMany:
    @pytest.mark.parametrize("precision", ["exact", "float"])
    def test_matches_repeated_solve(self, precision):
        rng = random.Random(21)
        instance = _workload(
            GraphClass.ONE_WAY_PATH, GraphClass.UNION_DOWNWARD_TREE, True, 21,
            instance_size=14,
        ).instance
        queries = [
            _workload(GraphClass.ONE_WAY_PATH, GraphClass.DOWNWARD_TREE, True, seed).query
            for seed in rng.sample(range(1000), 8)
        ]
        solver = PHomSolver()
        batch = solver.solve_many(queries, instance, precision=precision)
        singles = [solver.solve(q, instance, precision=precision) for q in queries]
        assert [r.probability for r in batch] == [r.probability for r in singles]
        assert [r.method for r in batch] == [r.method for r in singles]

    @pytest.mark.parametrize("route", BATCH_ROUTES)
    def test_exact_batch_is_bit_identical_to_cold_solver(self, route):
        instance, queries = _route_batch(route)
        batch = [r.probability for r in PHomSolver().solve_many(queries, instance)]
        # Every query against a rebuilt instance and a fresh solver: no
        # memoised instance metadata and no cached plan.
        cold = [
            PHomSolver().solve(
                query, ProbabilisticGraph(instance.graph.copy(), instance.probabilities())
            ).probability
            for query in queries
        ]
        assert batch == cold
        assert all(isinstance(p, Fraction) for p in batch)
        assert any(0 < p < 1 for p in batch)

    @pytest.mark.parametrize("route", BATCH_ROUTES)
    def test_float_batch_is_within_tolerance_of_exact(self, route):
        instance, queries = _route_batch(route)
        solver = PHomSolver()
        exact = [r.probability for r in solver.solve_many(queries, instance)]
        fast = [r.probability for r in solver.solve_many(queries, instance, precision="float")]
        assert all(isinstance(p, float) for p in fast)
        assert all(abs(float(e) - f) <= TOLERANCE for e, f in zip(exact, fast))
        assert any(0 < p < 1 for p in exact)

    def test_empty_batch(self):
        workload = _workload(GraphClass.ONE_WAY_PATH, GraphClass.DOWNWARD_TREE, True, 41)
        assert PHomSolver().solve_many([], workload.instance) == []


class TestEdgeOrdering:
    def test_mixed_type_vertices_sort(self):
        edges = [Edge(2, "b"), Edge("a", 1), Edge(1, 2), Edge("a", "b", "R")]
        ordered = sorted(edges)  # seed raised TypeError: int vs str comparison
        assert ordered == sorted(edges, key=lambda e: e.sort_key())

    def test_graph_with_mixed_type_vertices(self):
        graph = DiGraph(edges=[(1, "x"), ("x", 2), (2, 1)])
        assert len(graph.edges()) == 3  # edges() sorts deterministically
        assert graph.edges() == graph.edges()

    def test_order_is_total_and_consistent_with_eq(self):
        a, b = Edge(1, 2, "R"), Edge(1, 2, "R")
        assert a <= b and a >= b and not (a < b) and not (a > b)
        assert (a < Edge(1, 3)) != (a > Edge(1, 3))


class TestGraphCaching:
    def test_freeze_blocks_mutation(self):
        graph = DiGraph(edges=[("a", "b")])
        graph.freeze()
        assert graph.frozen
        with pytest.raises(GraphError):
            graph.add_edge("b", "c")
        with pytest.raises(GraphError):
            graph.add_vertex("z")
        with pytest.raises(GraphError):
            graph.remove_edge("a", "b")

    def test_copy_of_frozen_graph_is_mutable(self):
        graph = DiGraph(edges=[("a", "b")]).freeze()
        clone = graph.copy()
        assert not clone.frozen
        clone.add_edge("b", "c")
        assert clone.num_edges() == 2
        assert graph.num_edges() == 1

    def test_mutation_invalidates_caches(self):
        graph = DiGraph(edges=[("a", "b")])
        assert graph.is_weakly_connected()
        assert [e.endpoints for e in graph.edges()] == [("a", "b")]
        assert graph_class_of(graph) is GraphClass.ONE_WAY_PATH
        graph.add_vertex("lonely")
        assert not graph.is_weakly_connected()
        assert len(graph.weakly_connected_components()) == 2
        graph.add_edge("b", "lonely")
        assert graph.is_weakly_connected()
        assert [e.endpoints for e in graph.edges()] == [("a", "b"), ("b", "lonely")]
        assert graph.out_edges("b") == [graph.get_edge("b", "lonely")]
        assert graph.out_label_set("b") == {"_"}

    def test_instance_graph_is_frozen(self):
        instance = ProbabilisticGraph(DiGraph(edges=[("a", "b")]), default="0.5")
        assert instance.graph.frozen
        with pytest.raises(GraphError):
            instance.graph.add_edge("b", "c")

    def test_single_bfs_connectivity(self):
        path = DiGraph(edges=[(i, i + 1) for i in range(50)])
        assert path.is_weakly_connected()
        two = DiGraph(edges=[(0, 1), (2, 3)])
        assert not two.is_weakly_connected()
        assert not DiGraph().is_weakly_connected()


class TestProbabilisticGraphCaches:
    def _instance(self):
        graph = DiGraph(edges=[("a", "b"), ("c", "d"), ("d", "e")])
        return ProbabilisticGraph(graph, default="0.5")

    def test_probabilities_view_is_live_and_read_only(self):
        instance = self._instance()
        view = instance.probabilities_view()
        edge = instance.graph.get_edge("a", "b")
        assert view[edge] == Fraction(1, 2)
        instance.set_probability(("a", "b"), "0.25")
        assert view[edge] == Fraction(1, 4)
        with pytest.raises(TypeError):
            view[edge] = Fraction(1)

    def test_float_probabilities_memoised_and_invalidated(self):
        instance = self._instance()
        table = instance.float_probabilities()
        assert instance.float_probabilities() is table
        edge = instance.graph.get_edge("a", "b")
        assert table[edge] == 0.5
        instance.set_probability(("a", "b"), "0.75")
        assert instance.float_probabilities()[edge] == 0.75

    def test_connected_components_cached_and_invalidated(self):
        instance = self._instance()
        first = instance.connected_components()
        second = instance.connected_components()
        assert [c.graph.vertices for c in first] == [c.graph.vertices for c in second]
        assert first[0] is second[0]  # shared, not rebuilt
        instance.set_probability(("c", "d"), "0.125")
        refreshed = instance.connected_components()
        cd = [c for c in refreshed if c.graph.has_edge("c", "d")][0]
        assert cd.probability(("c", "d")) == Fraction(1, 8)

    def test_component_graphs_survive_parent_updates(self):
        # The component graphs (and every structural memo on them) are
        # memoised on the frozen instance graph; an update rebuilds only the
        # probability wrappers around them.
        instance = self._instance()
        before = instance.connected_components()
        cd = [c for c in before if c.graph.has_edge("c", "d")][0]
        cd.graph.cached("probe", lambda: "structural memo")
        instance.set_probability(("c", "d"), "0.125")
        after = instance.connected_components()
        assert [c.graph for c in after] == [c.graph for c in before]
        assert all(new.graph is old.graph for new, old in zip(after, before))
        fresh = [c for c in after if c.graph.has_edge("c", "d")][0]
        assert fresh is not cd
        assert fresh.graph.cached("probe", lambda: "recomputed") == "structural memo"
        assert fresh.probability(("c", "d")) == Fraction(1, 8)
        # The component handed out before the update keeps its snapshot.
        assert cd.probability(("c", "d")) == Fraction(1, 2)

    def test_mutating_shared_component_does_not_corrupt_parent(self):
        # Regression: components are shared through the parent's cache, so a
        # caller mutating one must detach the cache, not poison the parent.
        graph = DiGraph(edges=[(1, 2), (3, 4)])
        instance = ProbabilisticGraph(graph, default=Fraction(1, 2))
        from repro.graphs.builders import unlabeled_path

        query = unlabeled_path(1)
        solver = PHomSolver()
        before = solver.probability(query, instance)
        component = instance.connected_components()[0]
        component.set_probability(component.graph.edges()[0].endpoints, 0)
        assert solver.probability(query, instance) == before == Fraction(3, 4)

    def test_out_edges_mutation_does_not_poison_cache(self):
        graph = DiGraph(edges=[(1, 2, "a"), (1, 3, "b")])
        listing = graph.out_edges(1)
        listing.reverse()
        assert [e.label for e in graph.out_edges(1)] == ["a", "b"]
        graph.in_edges(2).clear()
        assert len(graph.in_edges(2)) == 1

    def test_float_probabilities_read_only(self):
        instance = self._instance()
        table = instance.float_probabilities()
        with pytest.raises(TypeError):
            table[instance.graph.get_edge("a", "b")] = 0.0

    def test_restrict_to_component_preserves_probabilities(self):
        instance = self._instance()
        instance.set_probability(("c", "d"), "0.375")
        component = instance.restrict_to_component(["c", "d", "e"])
        assert component.probability(("c", "d")) == Fraction(3, 8)
        assert component.probability(("d", "e")) == Fraction(1, 2)
        assert component.graph.num_vertices() == 3


class TestPlanCacheInvalidation:
    """Compiled plans are structural; every probability-side change must be
    reflected (plans re-read the live table) and every structural change must
    bypass the cached plan (the cache keys on canonical query content)."""

    def _instance(self):
        graph = DiGraph(edges=[("a", "b"), ("c", "d")])
        return ProbabilisticGraph(graph, default=Fraction(1, 2))

    def test_probability_mutation_is_picked_up_by_cached_plan(self):
        from repro.graphs.builders import unlabeled_path

        instance = self._instance()
        query = unlabeled_path(1)
        solver = PHomSolver()
        before = solver.solve(query, instance).probability
        assert before == Fraction(3, 4)
        instance.set_probability(("a", "b"), 0)
        after = solver.solve(query, instance).probability
        assert after == Fraction(1, 2)
        # The structural plan was reused, not recompiled...
        assert solver.plan_cache.stats["compiles"] == 1
        # ...and matches a cache-less solver on the mutated instance.
        cold = PHomSolver(plan_cache_size=0).solve(query, instance).probability
        assert after == cold

    def test_detaching_a_shared_component_does_not_corrupt_cached_plans(self):
        from repro.graphs.builders import unlabeled_path

        instance = self._instance()
        query = unlabeled_path(1)
        solver = PHomSolver()
        before = solver.solve(query, instance).probability
        # Mutating a component handed out by the parent's cache detaches it;
        # the parent's cached plan must keep answering from the parent's own
        # (unchanged) probabilities.
        component = instance.connected_components()[0]
        component.set_probability(component.graph.edges()[0].endpoints, 0)
        assert solver.solve(query, instance).probability == before == Fraction(3, 4)

    def test_unfrozen_query_edit_bypasses_the_cached_plan(self):
        from repro.graphs.builders import unlabeled_path

        instance = self._instance()
        query = unlabeled_path(1)  # query graphs stay mutable
        solver = PHomSolver()
        first = solver.solve(query, instance)
        assert first.probability == Fraction(3, 4)
        # Editing the query graph changes its canonical form: the old plan
        # must not be served for the new structure.
        query.add_edge("v1", "v2")
        second = solver.solve(query, instance)
        assert solver.plan_cache.stats["compiles"] == 2
        cold = PHomSolver(plan_cache_size=0).solve(query, instance)
        assert second.probability == cold.probability

    def test_new_instance_object_compiles_fresh_plans(self):
        from repro.graphs.builders import unlabeled_path

        instance = self._instance()
        query = unlabeled_path(1)
        solver = PHomSolver()
        solver.solve(query, instance)
        rebuilt = ProbabilisticGraph(instance.graph.copy(), instance.probabilities())
        solver.solve(query, rebuilt)
        assert solver.plan_cache.stats["compiles"] == 2
