"""Chandra–Merlin core minimization and the class-aware ``normalize`` pass.

Two conjunctive queries are equivalent exactly when they are homomorphically
equivalent (Section 2 of the paper, after Chandra & Merlin 1977), and every
query is equivalent to its *homomorphic core* — the unique (up to
isomorphism) minimal retract onto which the query folds.  Minimization
matters here because the paper's whole complexity classification is driven
by the *shape* of the query graph: a query written with redundant atoms may
sit in a #P-hard cell of Tables 1–3 as written, while its core is a one-way
path that the dispatcher answers in polynomial time.  :func:`normalize`
packages this as a pre-classification pass: validate, minimize, and report
which class the core lands in.

:func:`query_core` picks its algorithm from the query's shape.  A one-way
path is its own core.  A two-way path folds onto its shortest subpath that
the whole path maps into, found by a position-set dynamic program over the
path's steps.  A downward tree with a single label is equivalent to the
one-way path of its height (Proposition 5.5), so its core is a deepest
root-to-leaf path.  Every other shape takes the generic fold search
(:func:`fold_search_core`), which is exponential in the query size in the
worst case (core computation is NP-hard) — the right trade-off for
conjunctive queries: they are small, and a successful fold can turn an
exponential *instance-side* computation into a polynomial one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.exceptions import ClassConstraintError
from repro.graphs.classes import (
    GraphClass,
    downward_tree_root,
    graph_class_of,
    graph_in_class,
    two_way_path_order,
    two_way_path_steps,
)
from repro.graphs.digraph import DiGraph, Vertex
from repro.graphs.homomorphism import find_homomorphism


def validate_query_graph(query: DiGraph) -> DiGraph:
    """Reject degenerate query graphs before they reach class recognition.

    A query whose every edge is a self-loop (``R(x, x)`` atoms only) belongs
    to no class of Figure 2 and degenerates the core machinery — its core is
    a single self-loop, which no path/tree recogniser accepts.  Such queries
    are rejected here with a clear :class:`~repro.exceptions.ClassConstraintError`
    instead of failing deep inside class recognition; mixed queries (a
    self-loop atom alongside ordinary atoms) remain valid and are answered
    through the general routes.  Returns the query unchanged when valid.
    """
    edges = query.edges()
    if edges and all(edge.source == edge.target for edge in edges):
        loops = ", ".join(
            f"{edge.label}({edge.source}, {edge.source})" for edge in edges[:3]
        )
        raise ClassConstraintError(
            f"the query consists only of self-loop atoms ({loops}{', ...' if len(edges) > 3 else ''}); "
            f"self-loop-only queries are degenerate — they belong to no class "
            f"of Figure 2 and are rejected at validation"
        )
    return query


def _image_graph(query: DiGraph, mapping) -> DiGraph:
    """The image subgraph of an endomorphism: ``(h(V), h(E))``."""
    image = DiGraph(vertices={mapping[v] for v in query.vertices})
    for edge in query.edges():
        source, target = mapping[edge.source], mapping[edge.target]
        if not image.has_edge(source, target):
            image.add_edge(source, target, edge.label)
    return image


def _fold_once(query: DiGraph) -> Optional[DiGraph]:
    """One fold step: a proper retract of ``query``, or ``None`` if it is a core.

    Tries, for each vertex ``u``, to map the whole query homomorphically
    into the subgraph induced by ``V \\ {u}``; the image of the first such
    homomorphism is an equivalent strictly smaller query.
    """
    if query.num_vertices() <= 1:
        return None
    for u in sorted(query.vertices, key=repr):
        candidate = query.induced_component(v for v in query.vertices if v != u)
        mapping = find_homomorphism(query, candidate)
        if mapping is not None:
            return _image_graph(query, mapping)
    return None


def fold_search_core(query: DiGraph) -> DiGraph:
    """The homomorphic core by generic fold search, for a query of any shape.

    Repeatedly folds the query onto a proper retract until no vertex can be
    dropped, and returns ``query`` itself when it already is a core.  Each
    fold runs one homomorphism search per candidate vertex.  This is the
    route :func:`query_core` takes for shapes without a class-specific
    algorithm, and the oracle its fast paths are tested and benchmarked
    against.  Nothing is memoised or frozen.
    """
    current = query
    while True:
        folded = _fold_once(current)
        if folded is None:
            return current
        current = folded


def _two_way_path_core(query: DiGraph) -> DiGraph:
    """The core of a two-way path: its shortest subpath the path maps into.

    The image of a connected query is connected, so a 2WP folds onto a
    subpath, and the shortest subpath it maps into is its core.  Whether the
    path maps into the window ``[start, start + length]`` of its own
    positions is a position-set DP: the positions the walk can occupy after
    each (direction, label) step, kept as an integer bitset.  Since every
    proper subpath lies inside one of the two subpaths one edge shorter, the
    path is a core exactly when it maps into neither; and a window of some
    length fits only if one of every longer length does, so the core length
    is binary-searched.  Windows are taken in :func:`two_way_path_order`.
    """
    steps = two_way_path_steps(query)
    length = len(steps)
    flip = {">": "<", "<": ">"}
    # Positions from which a query step can move right, resp. left, along
    # the path: right needs the path step there to equal the query step,
    # left needs the path step before it reversed.
    right: Dict[Tuple[str, str], int] = {}
    left: Dict[Tuple[str, str], int] = {}
    for position, (direction, label) in enumerate(steps):
        right[direction, label] = right.get((direction, label), 0) | 1 << position
        back = (flip[direction], label)
        left[back] = left.get(back, 0) | 1 << (position + 1)

    def maps_into(start: int, size: int) -> bool:
        window = ((1 << (size + 1)) - 1) << start
        reach = window
        for step in steps:
            reach = (
                ((reach & right.get(step, 0)) << 1) | ((reach & left.get(step, 0)) >> 1)
            ) & window
            if not reach:
                return False
        return True

    def first_window(size: int) -> Optional[int]:
        return next(
            (start for start in range(length - size + 1) if maps_into(start, size)),
            None,
        )

    best = first_window(length - 1)
    if best is None:
        return query
    low, high = 1, length - 1
    while low < high:
        middle = (low + high) // 2
        start = first_window(middle)
        if start is None:
            low = middle + 1
        else:
            high, best = middle, start
    order = two_way_path_order(query)
    return query.induced_component(order[best : best + high + 1])


def _height_path(query: DiGraph) -> DiGraph:
    """A deepest root-to-leaf path of a downward tree.

    With a single label, a downward tree maps onto the one-way path of its
    height (send every vertex to its depth) and that path is a subgraph, so
    the path is the core (Proposition 5.5).  Among the deepest leaves the one
    with the smallest ``repr`` is taken, so the choice is deterministic.
    """
    frontier = [downward_tree_root(query)]
    parent: Dict[Vertex, Vertex] = {}
    while True:
        below = []
        for vertex in frontier:
            for child in query.successors(vertex):
                parent[child] = vertex
                below.append(child)
        if not below:
            break
        frontier = below
    vertex = min(frontier, key=repr)
    path = [vertex]
    while vertex in parent:
        vertex = parent[vertex]
        path.append(vertex)
    return query.induced_component(path)


#: The ``query_core`` memo of a graph that is its own core.  Storing the
#: graph itself there would make every such graph reference itself, and
#: only the cyclic collector could free it.
_SELF_CORE = object()


def query_core(query: DiGraph) -> DiGraph:
    """The homomorphic core of a query graph (Chandra–Merlin minimization).

    The result is an equivalent query (``core(Q) ≡ Q`` in the
    homomorphic-equivalence sense of Section 2) of minimum size: a subgraph
    of the query, with vertex names drawn from it.  One-way paths, two-way
    paths and single-label downward trees are minimized by class-specific
    algorithms (see the module docstring); every other shape by
    :func:`fold_search_core`.  Minimization is idempotent:
    ``query_core(query_core(Q))`` equals ``query_core(Q)``.

    The result is memoised on the query graph (recomputed after mutation);
    when the query already is a core, the *same graph object* is returned,
    so plans and caches keyed on object identity are unaffected.
    """
    core = query.cached("query_core", lambda: _compute_core(query))
    return query if core is _SELF_CORE else core


def _compute_core(query: DiGraph):
    """The core of ``query``, or :data:`_SELF_CORE` when the query is one."""
    # Serving workers receive freshly unpickled query objects (no shared
    # memo), so the common path and tree shapes must not pay the fold search.
    if graph_in_class(query, GraphClass.ONE_WAY_PATH):
        # Every walk inside a simple directed path is a subpath, so the path
        # cannot map into any proper subgraph of itself.
        return _SELF_CORE
    if graph_in_class(query, GraphClass.TWO_WAY_PATH):
        core = _two_way_path_core(query)
    elif graph_in_class(query, GraphClass.DOWNWARD_TREE) and query.is_unlabeled():
        core = _height_path(query)
    else:
        core = fold_search_core(query)
    if core is query:
        return _SELF_CORE
    # Fresh core graphs are frozen (their memoised metadata is shared by
    # every cache keyed on them) and pre-seeded as their own core, so
    # ``query_core(query_core(q))`` never minimizes again.
    core.freeze()
    core.cached("query_core", lambda: _SELF_CORE)
    return core


@dataclass(frozen=True)
class NormalizedQuery:
    """The result of the class-aware :func:`normalize` pass.

    Attributes
    ----------
    original:
        The query as given (after validation).
    graph:
        The minimized query — the homomorphic core of ``original``.
    original_class / core_class:
        The Figure 2 class of each; minimization can only move a query
        *down* the lattice or keep it in place, never up.
    folded_vertices / folded_edges:
        How much minimization removed; both zero when the query already
        was a core (then ``graph is original``).
    """

    original: DiGraph
    graph: DiGraph
    original_class: GraphClass
    core_class: GraphClass
    folded_vertices: int
    folded_edges: int

    @property
    def changed(self) -> bool:
        """Whether minimization actually shrank the query."""
        return self.folded_vertices > 0 or self.folded_edges > 0

    def describe(self) -> str:
        """A one-line provenance note, empty when nothing changed."""
        if not self.changed:
            return ""
        return (
            f"query minimized to its homomorphic core: "
            f"folded {self.folded_vertices} variable(s) and "
            f"{self.folded_edges} atom(s); class {self.original_class} -> "
            f"{self.core_class}"
        )


def normalize(query: DiGraph) -> NormalizedQuery:
    """Validate and minimize a query, reporting the class movement.

    This is the pass :class:`~repro.core.solver.PHomSolver` runs before
    classification: redundant atoms are collapsed by the graph
    representation itself, two-way atoms were oriented at parse time, and
    :func:`query_core` computes the core — so a query whose
    core is a 1WP/DWT/PT reaches the polynomial dispatch routes even when
    the query *as written* sits in a #P-hard cell.  The verdict (the two
    classes and the fold counts) is memoised on the query graph; the
    :class:`NormalizedQuery` holding the two graphs is built per call, so
    the memo never references the graph it is stored on.
    """
    validate_query_graph(query)
    core = query_core(query)
    provenance = query.cached("normalize_provenance", lambda: _provenance(query, core))
    return NormalizedQuery(query, core, *provenance)


def _provenance(query: DiGraph, core: DiGraph) -> Tuple[GraphClass, GraphClass, int, int]:
    """``normalize``'s verdict: the two classes and the fold counts."""
    return (
        graph_class_of(query) if query.num_vertices() else GraphClass.ALL,
        graph_class_of(core),
        query.num_vertices() - core.num_vertices(),
        query.num_edges() - core.num_edges(),
    )
