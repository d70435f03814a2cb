"""Recognisers for the paper's graph classes and the Figure 2 inclusion lattice.

Section 2 of the paper defines the classes

* **1WP** — one-way paths ``a1 -R1-> a2 -R2-> ... -> am`` (distinct vertices);
* **2WP** — two-way paths (edges may point either way along the path);
* **DWT** — downward trees (rooted trees, all edges parent→child);
* **PT** — polytrees (underlying undirected graph is a tree);
* **Connected** — weakly connected graphs;
* **All** — all graphs;

and, for each class ``C`` among the first four, the class ``⊔C`` of disjoint
unions of members of ``C``.  This module provides a Boolean recogniser for
each class, a :class:`GraphClass` enumeration, the inclusion lattice of
Figure 2 (:func:`class_includes`), and helpers that recover the linear order
of a path-shaped graph, which the path-based solvers rely on.
"""

from __future__ import annotations

import enum
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.exceptions import ClassConstraintError, GraphError
from repro.graphs.digraph import DiGraph, Vertex


class GraphClass(enum.Enum):
    """The graph classes studied in the paper (Figure 2)."""

    ONE_WAY_PATH = "1WP"
    TWO_WAY_PATH = "2WP"
    DOWNWARD_TREE = "DWT"
    POLYTREE = "PT"
    CONNECTED = "Connected"
    ALL = "All"
    UNION_ONE_WAY_PATH = "⊔1WP"
    UNION_TWO_WAY_PATH = "⊔2WP"
    UNION_DOWNWARD_TREE = "⊔DWT"
    UNION_POLYTREE = "⊔PT"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Direct inclusions of Figure 2, extended with the disjoint-union classes.
_DIRECT_INCLUSIONS: Dict[GraphClass, Set[GraphClass]] = {
    GraphClass.ONE_WAY_PATH: {
        GraphClass.TWO_WAY_PATH,
        GraphClass.DOWNWARD_TREE,
        GraphClass.UNION_ONE_WAY_PATH,
    },
    GraphClass.TWO_WAY_PATH: {GraphClass.POLYTREE, GraphClass.UNION_TWO_WAY_PATH},
    GraphClass.DOWNWARD_TREE: {GraphClass.POLYTREE, GraphClass.UNION_DOWNWARD_TREE},
    GraphClass.POLYTREE: {GraphClass.CONNECTED, GraphClass.UNION_POLYTREE},
    GraphClass.CONNECTED: {GraphClass.ALL},
    GraphClass.UNION_ONE_WAY_PATH: {
        GraphClass.UNION_TWO_WAY_PATH,
        GraphClass.UNION_DOWNWARD_TREE,
    },
    GraphClass.UNION_TWO_WAY_PATH: {GraphClass.UNION_POLYTREE},
    GraphClass.UNION_DOWNWARD_TREE: {GraphClass.UNION_POLYTREE},
    GraphClass.UNION_POLYTREE: {GraphClass.ALL},
    GraphClass.ALL: set(),
}


def _reachable(origin: GraphClass) -> FrozenSet[GraphClass]:
    seen: Set[GraphClass] = {origin}
    stack = [origin]
    while stack:
        current = stack.pop()
        for nxt in _DIRECT_INCLUSIONS[current]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return frozenset(seen)


_INCLUSION_CLOSURE: Dict[GraphClass, FrozenSet[GraphClass]] = {
    cls: _reachable(cls) for cls in GraphClass
}


def class_includes(smaller: GraphClass, larger: GraphClass) -> bool:
    """Whether every member of ``smaller`` is a member of ``larger`` (Figure 2).

    The relation is reflexive and transitive: ``class_includes(c, c)`` is
    always ``True`` and inclusions compose along the lattice.
    """
    return larger in _INCLUSION_CLOSURE[smaller]


# ----------------------------------------------------------------------
# path recognisers and orders
# ----------------------------------------------------------------------
def _undirected_path_order(graph: DiGraph) -> Optional[List[Vertex]]:
    """The vertex order of the underlying undirected path, or ``None``.

    Returns a list of vertices ``a1 .. am`` such that consecutive vertices
    are joined by exactly one edge (in either direction) and no other edges
    exist, or ``None`` if the underlying undirected graph is not a simple
    path.  A single vertex yields a one-element order.  The order is
    memoised on the graph, so every path recogniser after the first is a
    dictionary lookup.
    """
    return graph.cached("undirected_path_order", lambda: _compute_path_order(graph))


def _compute_path_order(graph: DiGraph) -> Optional[List[Vertex]]:
    # With n - 1 edges, no isolated vertex and no degree above 2, exactly two
    # vertices have degree 1, and the graph is a path exactly when the walk
    # from one of them reaches all n vertices (anything else left over is a
    # cycle: a self-loop, an antiparallel pair or a longer one).
    succ, pred = graph._succ, graph._pred
    n = len(succ)
    if n == 0 or graph.num_edges() != n - 1:
        return None
    if n == 1:
        return list(succ)
    endpoints = []
    for v, out in succ.items():
        degree = len(out) + len(pred[v])
        if degree == 1:
            endpoints.append(v)
        elif degree != 2:
            return None
    previous: Optional[Vertex] = None
    current = min(endpoints, key=repr)
    order = [current]
    for _ in range(n - 1):
        ahead = [w for w in succ[current] if w != previous]
        ahead += [w for w in pred[current] if w != previous]
        if len(ahead) != 1:
            return None
        previous, current = current, ahead[0]
        order.append(current)
    return order


def is_two_way_path(graph: DiGraph) -> bool:
    """Whether the graph is a two-way path (class 2WP)."""
    return _undirected_path_order(graph) is not None


def two_way_path_order(graph: DiGraph) -> List[Vertex]:
    """The vertex sequence of a 2WP along the path (one of its two traversals)."""
    order = _undirected_path_order(graph)
    if order is None:
        raise ClassConstraintError("graph is not a two-way path")
    return list(order)


def two_way_path_steps(graph: DiGraph) -> Tuple[Tuple[str, str], ...]:
    """The ``(direction, label)`` steps of a 2WP along :func:`two_way_path_order`.

    Step ``i`` joins ``order[i]`` and ``order[i + 1]``; its direction is
    ``">"`` when the edge points along the traversal and ``"<"`` when it
    points back.
    """
    order = two_way_path_order(graph)
    steps = []
    for left, right in zip(order, order[1:]):
        if graph.has_edge(left, right):
            steps.append((">", graph.label_of(left, right)))
        else:
            steps.append(("<", graph.label_of(right, left)))
    return tuple(steps)


def is_one_way_path(graph: DiGraph) -> bool:
    """Whether the graph is a one-way path (class 1WP).

    A path has no antiparallel pair, so its first step fixes the only
    direction every step can share.
    """
    order = _undirected_path_order(graph)
    if order is None:
        return False
    if len(order) == 1:
        return True
    ahead = graph._succ if order[1] in graph._succ[order[0]] else graph._pred
    return all(right in ahead[left] for left, right in zip(order, order[1:]))


def one_way_path_order(graph: DiGraph) -> List[Vertex]:
    """The vertex sequence of a 1WP from its source to its sink."""
    order = _undirected_path_order(graph)
    if order is None:
        raise ClassConstraintError("graph is not a one-way path")
    if len(order) == 1:
        return list(order)
    if all(graph.has_edge(order[i], order[i + 1]) for i in range(len(order) - 1)):
        return list(order)
    if all(graph.has_edge(order[i + 1], order[i]) for i in range(len(order) - 1)):
        return list(reversed(order))
    raise ClassConstraintError("graph is not a one-way path")


# ----------------------------------------------------------------------
# tree recognisers
# ----------------------------------------------------------------------
def is_polytree(graph: DiGraph) -> bool:
    """Whether the graph is a polytree (underlying undirected graph is a tree).

    A connected graph on ``n`` vertices needs ``n - 1`` edges between
    distinct unordered pairs, so with exactly ``n - 1`` edges it has no
    self-loop, no antiparallel pair and no longer undirected cycle.
    """
    n = graph.num_vertices()
    return n > 0 and graph.num_edges() == n - 1 and graph.is_weakly_connected()


def is_downward_tree(graph: DiGraph) -> bool:
    """Whether the graph is a downward tree (rooted tree, all edges parent→child).

    With ``n - 1`` edges and every in-degree at most 1, exactly one vertex
    (the root) has in-degree 0.
    """
    n = graph.num_vertices()
    if n == 0 or graph.num_edges() != n - 1:
        return False
    if any(len(sources) > 1 for sources in graph._pred.values()):
        return False
    return graph.is_weakly_connected()


def downward_tree_root(graph: DiGraph) -> Vertex:
    """The root of a downward tree."""
    if not is_downward_tree(graph):
        raise ClassConstraintError("graph is not a downward tree")
    roots = [v for v in graph.vertices if graph.in_degree(v) == 0]
    return roots[0]


def is_connected_graph(graph: DiGraph) -> bool:
    """Whether the graph belongs to the class Connected (weak connectivity)."""
    return graph.is_weakly_connected()


# ----------------------------------------------------------------------
# membership and classification
# ----------------------------------------------------------------------
def _components(graph: DiGraph) -> List[DiGraph]:
    return graph.connected_component_graphs()


def graph_in_class(graph: DiGraph, cls: GraphClass) -> bool:
    """Whether ``graph`` belongs to the class ``cls`` (memoised per graph)."""
    if graph.num_vertices() == 0:
        return False
    if cls is GraphClass.ALL:
        return True
    return graph.cached(("in_class", cls), lambda: _compute_in_class(graph, cls))


def _compute_in_class(graph: DiGraph, cls: GraphClass) -> bool:
    if cls is GraphClass.CONNECTED:
        return is_connected_graph(graph)
    if cls is GraphClass.ONE_WAY_PATH:
        return is_one_way_path(graph)
    if cls is GraphClass.TWO_WAY_PATH:
        return is_two_way_path(graph)
    if cls is GraphClass.DOWNWARD_TREE:
        return is_downward_tree(graph)
    if cls is GraphClass.POLYTREE:
        return is_polytree(graph)
    per_component = {
        GraphClass.UNION_ONE_WAY_PATH: is_one_way_path,
        GraphClass.UNION_TWO_WAY_PATH: is_two_way_path,
        GraphClass.UNION_DOWNWARD_TREE: is_downward_tree,
        GraphClass.UNION_POLYTREE: is_polytree,
    }
    recogniser = per_component[cls]
    return all(recogniser(component) for component in _components(graph))


def classify_graph(graph: DiGraph) -> Set[GraphClass]:
    """The set of all classes (from Figure 2) that contain ``graph``."""
    return {cls for cls in GraphClass if graph_in_class(graph, cls)}


#: Classes ordered from most to least specific, used by :func:`graph_class_of`.
_SPECIFICITY_ORDER: Tuple[GraphClass, ...] = (
    GraphClass.ONE_WAY_PATH,
    GraphClass.TWO_WAY_PATH,
    GraphClass.DOWNWARD_TREE,
    GraphClass.POLYTREE,
    GraphClass.UNION_ONE_WAY_PATH,
    GraphClass.UNION_TWO_WAY_PATH,
    GraphClass.UNION_DOWNWARD_TREE,
    GraphClass.UNION_POLYTREE,
    GraphClass.CONNECTED,
    GraphClass.ALL,
)


def graph_class_of(graph: DiGraph) -> GraphClass:
    """The most specific class of Figure 2 that contains ``graph``.

    Ties between 2WP and DWT (both refine to neither) are broken in favour
    of 2WP; this only matters for reporting, never for correctness, because
    the dispatcher re-checks membership of whichever class it needs.  The
    lattice position is memoised on the graph.
    """
    if graph.num_vertices() == 0:
        raise GraphError("the empty graph belongs to no class")

    def compute() -> GraphClass:
        for cls in _SPECIFICITY_ORDER:
            if graph_in_class(graph, cls):
                return cls
        return GraphClass.ALL

    return graph.cached("class_of", compute)
