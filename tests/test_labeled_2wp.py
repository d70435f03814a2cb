"""Unit tests for Proposition 4.11 (connected queries on 2WP instances)."""

from __future__ import annotations

import os
import random
from fractions import Fraction

import pytest

from repro.exceptions import ClassConstraintError
from repro.core.labeled_2wp import (
    compile_connected_on_2wp,
    phom_connected_on_2wp,
    two_way_path_lineage,
)
from repro.csp.xproperty import x_property_has_homomorphism
from repro.graphs.builders import disjoint_union, one_way_path, star_tree, two_way_path
from repro.graphs.classes import two_way_path_order
from repro.graphs.digraph import DiGraph
from repro.graphs.generators import (
    random_connected_graph,
    random_downward_tree,
    random_polytree,
    random_two_way_path,
)
from repro.lineage.builders import lineage_captures_query
from repro.probability.brute_force import brute_force_phom
from repro.probability.prob_graph import ProbabilisticGraph
from repro.workloads import attach_random_probabilities

#: Pinned seed of the randomized differential test (``REPRO_FUZZ_SEED`` overrides).
SEED = int(os.environ.get("REPRO_FUZZ_SEED", "20170514"))


def x_property_shortest(query: DiGraph, graph: DiGraph) -> tuple:
    """The reference for ``compile_connected_on_2wp(...).shortest``.

    For every right end ``j`` the edge intervals ``[i, j]`` are scanned from
    the shortest up, each decided by Theorem 4.13 on the induced subpath
    (:func:`repro.csp.xproperty.x_property_has_homomorphism`); the first
    match is the shortest one, because matching is monotone in the interval.
    """
    order = two_way_path_order(graph)
    shortest = [None] * len(order)
    for j in range(1, len(order)):
        for i in range(j, 0, -1):
            vertices = order[i - 1 : j + 1]
            subpath = graph.induced_component(vertices)
            if x_property_has_homomorphism(query, subpath, vertices):
                shortest[j] = j - i + 1
                break
    return tuple(shortest)


class TestLineageConstruction:
    def test_lineage_is_beta_acyclic(self, rng):
        for _ in range(10):
            graph = random_two_way_path(rng.randint(1, 7), ("R", "S"), rng)
            instance = attach_random_probabilities(graph, rng)
            query = random_connected_graph(rng.randint(2, 4), 0.3, ("R", "S"), rng, prefix="q")
            lineage = two_way_path_lineage(query, instance)
            assert lineage.is_beta_acyclic()

    def test_lineage_captures_query(self, rng):
        for _ in range(5):
            graph = random_two_way_path(rng.randint(1, 5), ("R", "S"), rng)
            instance = attach_random_probabilities(graph, rng)
            query = random_connected_graph(rng.randint(2, 3), 0.3, ("R", "S"), rng, prefix="q")
            lineage = two_way_path_lineage(query, instance)
            assert lineage_captures_query(lineage, query, instance)

    def test_edgeless_query_lineage_is_true(self):
        instance = ProbabilisticGraph(one_way_path(["R"]))
        query = DiGraph(vertices=["lonely"])
        assert two_way_path_lineage(query, instance).is_true()

    def test_requires_connected_query_and_path_instance(self):
        path_instance = ProbabilisticGraph(one_way_path(["R", "S"]))
        disconnected = disjoint_union([one_way_path(["R"]), one_way_path(["S"])], prefix="q")
        with pytest.raises(ClassConstraintError):
            two_way_path_lineage(disconnected, path_instance)
        tree_instance = ProbabilisticGraph(star_tree(3))
        with pytest.raises(ClassConstraintError):
            two_way_path_lineage(one_way_path(["R"], prefix="q"), tree_instance)


class TestSolver:
    def test_simple_forward_query(self):
        instance = ProbabilisticGraph(
            one_way_path(["R", "S", "R"]),
            {("v0", "v1"): "1/2", ("v1", "v2"): "1/3", ("v2", "v3"): "1/4"},
        )
        query = one_way_path(["R", "S"], prefix="q")
        expected = Fraction(1, 2) * Fraction(1, 3)
        assert phom_connected_on_2wp(query, instance, "dp") == expected
        assert phom_connected_on_2wp(query, instance, "lineage") == expected

    def test_two_way_query_on_two_way_instance(self):
        instance_graph = two_way_path(
            [("R", "forward"), ("S", "backward"), ("S", "forward"), ("R", "backward")]
        )
        instance = ProbabilisticGraph.with_uniform_probability(instance_graph, "1/2")
        query = two_way_path([("R", "forward"), ("S", "backward")], prefix="q")
        reference = brute_force_phom(query, instance)
        assert phom_connected_on_2wp(query, instance, "dp") == reference
        assert phom_connected_on_2wp(query, instance, "lineage") == reference

    def test_branching_and_cyclic_queries(self, rng):
        """Proposition 4.11 allows *arbitrary* connected queries, not just paths."""
        for _ in range(15):
            graph = random_two_way_path(rng.randint(1, 6), ("R", "S"), rng)
            instance = attach_random_probabilities(graph, rng)
            query = random_connected_graph(rng.randint(2, 4), 0.4, ("R", "S"), rng, prefix="q")
            reference = brute_force_phom(query, instance)
            assert phom_connected_on_2wp(query, instance, "dp") == reference
            assert phom_connected_on_2wp(query, instance, "lineage") == reference

    def test_tree_and_polytree_queries(self, rng):
        for _ in range(10):
            graph = random_two_way_path(rng.randint(1, 6), ("R", "S"), rng)
            instance = attach_random_probabilities(graph, rng)
            if rng.random() < 0.5:
                query = random_downward_tree(rng.randint(2, 4), ("R", "S"), rng, prefix="q")
            else:
                query = random_polytree(rng.randint(2, 4), ("R", "S"), rng, prefix="q")
            reference = brute_force_phom(query, instance)
            assert phom_connected_on_2wp(query, instance, "dp") == reference

    def test_edgeless_query_has_probability_one(self):
        instance = ProbabilisticGraph(one_way_path(["R"]), {("v0", "v1"): "1/5"})
        assert phom_connected_on_2wp(DiGraph(vertices=["q"]), instance) == 1

    def test_impossible_query_has_probability_zero(self):
        instance = ProbabilisticGraph(one_way_path(["R", "R"]))
        query = one_way_path(["T"], prefix="q")
        assert phom_connected_on_2wp(query, instance) == 0

    def test_unknown_method(self):
        instance = ProbabilisticGraph(one_way_path(["R"]))
        with pytest.raises(ValueError):
            phom_connected_on_2wp(one_way_path(["R"], prefix="q"), instance, "magic")

    def test_single_vertex_instance(self):
        instance = ProbabilisticGraph(DiGraph(vertices=["only"]))
        query = one_way_path(["R"], prefix="q")
        assert phom_connected_on_2wp(query, instance) == 0


class TestBitsetIntervalMatching:
    """The bitset arc consistency of Proposition 4.11 against the X-property route."""

    @staticmethod
    def _query(kind: str, rng: random.Random) -> DiGraph:
        # One query in four may use T, which no instance edge carries.
        labels = ("R", "S", "T") if rng.random() < 0.25 else ("R", "S")
        size = rng.randint(2, 5)
        if kind == "2wp":
            return random_two_way_path(size - 1, labels, rng, prefix="q")
        if kind == "branching":
            return random_downward_tree(size, labels, rng, prefix="q")
        if kind == "polytree":
            return random_polytree(size, labels, rng, prefix="q")
        return random_connected_graph(size, 0.4, labels, rng, prefix="q")

    @pytest.mark.parametrize("kind", ["2wp", "branching", "polytree", "cyclic"])
    def test_shortest_matches_equal_the_x_property_sweep(self, kind):
        rng = random.Random(f"{SEED}:{kind}")
        for _ in range(60):
            alphabet = ("R",) if rng.random() < 0.25 else ("R", "S")
            graph = random_two_way_path(rng.randint(1, 14), alphabet, rng).freeze()
            query = self._query(kind, rng)
            skeleton = compile_connected_on_2wp(query, graph)
            assert skeleton.shortest == x_property_shortest(query, graph)

    def test_self_loop_query_never_matches(self):
        graph = two_way_path([("R", "forward"), ("R", "backward"), ("R", "forward")])
        query = DiGraph(edges=[("x", "y", "R"), ("y", "y", "R")])
        shortest = compile_connected_on_2wp(query, graph).shortest
        assert shortest == x_property_shortest(query, graph) == (None,) * 4

    def test_single_vertex_query_matches_every_edge(self):
        graph = random_two_way_path(5, ("R", "S"), random.Random(SEED))
        query = DiGraph(vertices=["lonely"])
        shortest = compile_connected_on_2wp(query, graph).shortest
        assert shortest == x_property_shortest(query, graph) == (None,) + (1,) * 5
