"""Differential tests of the one-walk class recognisers and the bulk graph build.

``_compute_path_order``, ``is_one_way_path``, ``is_polytree`` and
``is_downward_tree`` read edge counts and degrees straight off the adjacency
and run at most one walk or connectivity pass.  The bodies they replaced are
kept below as the reference: on seeded random digraphs of up to 8 vertices
(self-loops, antiparallel pairs, isolated vertices and disjoint unions
included) the two must return the same verdicts and the same path-order
lists, and ``DiGraph(vertices, edges)`` must build the graph that one
``add_vertex`` / ``add_edge`` call per item builds, down to its dict orders
and its pickle.  On the workload generator's query texts, ``query_core`` and
``canonical_query_key`` must give the results they give with the reference
recognisers patched in.  Seeds follow ``REPRO_FUZZ_SEED`` (default
20170514), so CI draws them under two seeds.
"""

from __future__ import annotations

import os
import pickle
import random
from typing import List, Optional

import pytest

from repro.exceptions import GraphError
from repro.graphs import classes
from repro.graphs.classes import GraphClass, graph_in_class, two_way_path_order
from repro.graphs.digraph import DiGraph, Vertex
from repro.plan import canonical_query_key
from repro.query import format_query, parse_query
from repro.query.minimize import query_core
from repro.workloads.generators import make_query

SEED = int(os.environ.get("REPRO_FUZZ_SEED", "20170514"))
TRIALS = 3000


# ----------------------------------------------------------------------
# the reference recognisers (the bodies the one-walk versions replaced)
# ----------------------------------------------------------------------
def reference_path_order(graph: DiGraph) -> Optional[List[Vertex]]:
    n = graph.num_vertices()
    if n == 0:
        return None
    if graph.num_edges() != n - 1:
        return None
    if not graph.is_weakly_connected():
        return None
    if graph.underlying_has_undirected_cycle():
        return None
    degrees = {v: graph.degree(v) for v in graph.vertices}
    if any(d > 2 for d in degrees.values()):
        return None
    if n == 1:
        return [next(iter(graph.vertices))]
    endpoints = sorted((v for v, d in degrees.items() if d == 1), key=repr)
    if len(endpoints) != 2:
        return None
    order = [endpoints[0]]
    previous: Optional[Vertex] = None
    current = endpoints[0]
    while len(order) < n:
        neighbours = [w for w in graph.undirected_neighbours(current) if w != previous]
        if len(neighbours) != 1:
            return None
        previous, current = current, neighbours[0]
        order.append(current)
    return order


def reference_is_one_way_path(graph: DiGraph) -> bool:
    order = graph.cached("undirected_path_order", lambda: reference_path_order(graph))
    if order is None:
        return False
    if len(order) == 1:
        return True
    forward = all(graph.has_edge(order[i], order[i + 1]) for i in range(len(order) - 1))
    backward = all(graph.has_edge(order[i + 1], order[i]) for i in range(len(order) - 1))
    return forward or backward


def reference_is_polytree(graph: DiGraph) -> bool:
    if graph.num_vertices() == 0:
        return False
    return (
        graph.is_weakly_connected()
        and not graph.underlying_has_undirected_cycle()
        and graph.num_edges() == graph.num_vertices() - 1
    )


def reference_is_downward_tree(graph: DiGraph) -> bool:
    if not reference_is_polytree(graph):
        return False
    roots = [v for v in graph.vertices if graph.in_degree(v) == 0]
    if len(roots) != 1:
        return False
    return all(graph.in_degree(v) <= 1 for v in graph.vertices)


# ----------------------------------------------------------------------
# seeded random digraphs
# ----------------------------------------------------------------------
def _shape(rng: random.Random, names: List[Vertex]) -> List[tuple]:
    """Edges of a path, a tree or a random graph over ``names``."""
    kind = rng.choice(("1wp", "2wp", "dwt", "pt", "random"))
    edges = []
    if kind in ("1wp", "2wp"):
        for left, right in zip(names, names[1:]):
            flip = kind == "2wp" and rng.random() < 0.5
            edges.append((right, left) if flip else (left, right))
    elif kind in ("dwt", "pt"):
        for index in range(1, len(names)):
            parent = names[rng.randrange(index)]
            flip = kind == "pt" and rng.random() < 0.5
            edges.append((names[index], parent) if flip else (parent, names[index]))
    else:
        for _ in range(rng.randint(0, 2 * len(names))):
            edges.append((rng.choice(names), rng.choice(names)))
    return edges


def random_digraph_items(rng: random.Random):
    """Vertex and labeled-edge lists of a random digraph (at most 8 vertices).

    A path, tree or random shape, shuffled into a random insertion order,
    sometimes joined by a second disjoint shape and perturbed by a
    self-loop, an antiparallel edge or an isolated vertex.
    """
    size = rng.randint(0, 8)
    pool: List[Vertex] = [f"v{i}" for i in range(size)] if rng.random() < 0.7 else list(range(size))
    rng.shuffle(pool)
    split = rng.randint(0, size) if rng.random() < 0.3 else size
    edges = _shape(rng, pool[:split])
    if split < size:
        edges += _shape(rng, pool[split:])
    if pool and rng.random() < 0.2:
        vertex = rng.choice(pool)
        edges.append((vertex, vertex))
    if edges and rng.random() < 0.2:
        source, target = rng.choice(edges)
        edges.append((target, source))
    vertices = list(pool)
    if rng.random() < 0.2:
        vertices.append("isolated")
    rng.shuffle(vertices)
    labeled = {}
    for source, target in edges:
        labeled.setdefault((source, target), rng.choice("RS"))
    return vertices, [(s, t, label) for (s, t), label in labeled.items()]


def random_digraphs():
    rng = random.Random(SEED)
    return [random_digraph_items(rng) for _ in range(TRIALS)]


RANDOM_DIGRAPHS = random_digraphs()


def test_the_random_digraphs_cover_every_shape():
    verdicts = [reference_path_order(DiGraph(*items)) is not None for items in RANDOM_DIGRAPHS]
    trees = [reference_is_downward_tree(DiGraph(*items)) for items in RANDOM_DIGRAPHS]
    polytrees = [reference_is_polytree(DiGraph(*items)) for items in RANDOM_DIGRAPHS]
    for found in (verdicts, trees, polytrees):
        assert 0.05 * TRIALS < sum(found) < 0.95 * TRIALS
    loops = [any(s == t for s, t, _ in edges) for _, edges in RANDOM_DIGRAPHS]
    assert sum(loops) > TRIALS // 20


def test_path_orders_match_the_reference():
    for items in RANDOM_DIGRAPHS:
        assert classes._compute_path_order(DiGraph(*items)) == reference_path_order(
            DiGraph(*items)
        ), items


@pytest.mark.parametrize(
    "recogniser, reference",
    [
        (classes.is_one_way_path, reference_is_one_way_path),
        (classes.is_polytree, reference_is_polytree),
        (classes.is_downward_tree, reference_is_downward_tree),
    ],
    ids=["1WP", "PT", "DWT"],
)
def test_verdicts_match_the_reference(recogniser, reference):
    for items in RANDOM_DIGRAPHS:
        assert recogniser(DiGraph(*items)) == reference(DiGraph(*items)), items


def test_union_class_verdicts_match_the_reference():
    per_component = {
        GraphClass.UNION_ONE_WAY_PATH: reference_is_one_way_path,
        GraphClass.UNION_TWO_WAY_PATH: lambda g: reference_path_order(g) is not None,
        GraphClass.UNION_DOWNWARD_TREE: reference_is_downward_tree,
        GraphClass.UNION_POLYTREE: reference_is_polytree,
    }
    for items in RANDOM_DIGRAPHS:
        if not items[0]:
            continue
        for cls, reference in per_component.items():
            components = DiGraph(*items).connected_component_graphs()
            expected = all(reference(component) for component in components)
            assert graph_in_class(DiGraph(*items), cls) == expected, (cls, items)


def test_the_bulk_constructor_builds_what_add_edge_builds():
    for vertices, edges in RANDOM_DIGRAPHS:
        bulk = DiGraph(vertices, edges)
        stepwise = DiGraph()
        for vertex in vertices:
            stepwise.add_vertex(vertex)
        for source, target, label in edges:
            stepwise.add_edge(source, target, label)
        assert bulk == stepwise
        assert list(bulk._edges) == list(stepwise._edges)
        assert list(bulk._succ) == list(stepwise._succ)
        assert list(bulk._pred) == list(stepwise._pred)
        assert pickle.dumps(bulk) == pickle.dumps(stepwise)
        for built in (bulk.copy(), bulk.induced_component(vertices[::2])):
            assert pickle.loads(pickle.dumps(built)) == built


def test_the_bulk_constructor_rejects_multi_edges():
    with pytest.raises(GraphError, match="already exists; multi-edges are not allowed"):
        DiGraph(edges=[("a", "b", "R"), ("a", "b", "S")])


# ----------------------------------------------------------------------
# cores and keys of generated query texts
# ----------------------------------------------------------------------
QUERY_CLASSES = (
    GraphClass.ONE_WAY_PATH,
    GraphClass.TWO_WAY_PATH,
    GraphClass.DOWNWARD_TREE,
    GraphClass.POLYTREE,
    GraphClass.CONNECTED,
)


def generated_texts():
    rng = random.Random(SEED + 1)
    return [
        format_query(make_query(query_class, labeled, size, rng))
        for query_class in QUERY_CLASSES
        for labeled in (True, False)
        for size in range(1, 9)
    ]


def test_cores_and_keys_match_the_reference_recognisers(monkeypatch):
    texts = generated_texts()
    results = []
    for text in texts:
        graph = parse_query(text).to_graph()
        core = query_core(graph)
        order = two_way_path_order(core) if classes.is_two_way_path(core) else None
        results.append((core, order, canonical_query_key(graph)))
    monkeypatch.setattr(classes, "_compute_path_order", reference_path_order)
    monkeypatch.setattr(classes, "is_one_way_path", reference_is_one_way_path)
    monkeypatch.setattr(classes, "is_polytree", reference_is_polytree)
    monkeypatch.setattr(classes, "is_downward_tree", reference_is_downward_tree)
    for text, (core, order, key) in zip(texts, results):
        graph = parse_query(text).to_graph()
        reference_core = query_core(graph)
        assert reference_core == core, text
        if order is not None:
            assert two_way_path_order(reference_core) == order, text
        assert canonical_query_key(graph) == key, text
