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

Every consumer reads one memoised verdict per query graph, its
:class:`QueryNormalForm` (:func:`normal_form`): the class of the query as
written, the class of its core, the fold counts, the canonical key and the
minimization note.  For path spellings and single-label downward trees the
whole verdict comes from one walk of the spelling's own shape; the core
graph itself is built only when :func:`query_core` asks for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Optional, Tuple

from repro.exceptions import ClassConstraintError, GraphError
from repro.graphs.classes import (
    GraphClass,
    downward_tree_root,
    graph_class_of,
    graph_in_class,
    is_two_way_path,
    two_way_path_order,
    two_way_path_steps,
)
from repro.graphs.digraph import DiGraph, Vertex
from repro.graphs.homomorphism import find_homomorphism

#: Marker prefix of the minimization note (:meth:`NormalizedQuery.describe`).
MINIMIZATION_NOTE_PREFIX = "query minimized to its homomorphic core"

#: The ``(direction, label)`` steps of a path along one of its traversals.
Steps = Tuple[Tuple[str, str], ...]


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


def _path_key(steps: Steps) -> Hashable:
    """The canonical key of a path: the smaller of its two traversals."""
    backward = tuple((">" if d == "<" else "<", label) for d, label in reversed(steps))
    return ("2wp", min(steps, backward))


def _path_class(steps: Steps) -> GraphClass:
    """1WP when every step points the same way, 2WP otherwise."""
    one_way = all(direction == steps[0][0] for direction, _ in steps)
    return GraphClass.ONE_WAY_PATH if one_way else GraphClass.TWO_WAY_PATH


def spelling_key(query: DiGraph) -> Hashable:
    """The canonical key of a query exactly as written (no minimization).

    A two-way path (one-way paths included) keys on the smaller of its two
    traversal direction/label sequences, so *isomorphic* paths share one
    key regardless of vertex names.  Other shapes key on their exact content
    (vertex set + labeled edge set), which dedupes equal-by-value
    duplicates.  Keying on the actual (hashable) vertex and edge values, not
    their ``repr``, keeps distinct vertices with colliding reprs apart.
    """
    if is_two_way_path(query):
        return _path_key(two_way_path_steps(query))
    return ("graph", query.vertices, query.edge_set())


def _core_window(steps: Steps) -> Optional[Tuple[int, int]]:
    """The core of a two-way path: its shortest window the path maps into.

    Returns ``(start, length)``: the core is the subpath of positions
    ``start .. start + length`` along the traversal ``steps`` was read in,
    or ``None`` when the path is its own core.  The image of a connected
    query is connected, so a 2WP folds onto a subpath, and the shortest
    subpath it maps into is its core.  Whether the path maps into a window
    of its own positions is a position-set DP: the positions the walk can
    occupy after each (direction, label) step, kept as an integer bitset.
    Since every proper subpath lies inside one of the two subpaths one edge
    shorter, the path is a core exactly when it maps into neither; and a
    window of some length fits only if one of every longer length does, so
    the core length is binary-searched.
    """
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
        return None
    low, high = 1, length - 1
    while low < high:
        middle = (low + high) // 2
        start = first_window(middle)
        if start is None:
            low = middle + 1
        else:
            high, best = middle, start
    return best, high


def _height_path(query: DiGraph) -> Tuple[Vertex, ...]:
    """A deepest root-to-leaf path of a downward tree, leaf first.

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
    return tuple(path)


#: The core of a graph that is its own core.  Storing the graph itself in
#: its own memo would make the graph reference itself, and only the cyclic
#: collector could free it.
_SELF_CORE = object()


def _fold_note(
    original_class: GraphClass, core_class: GraphClass, vertices: int, edges: int
) -> str:
    """The one-line minimization note, empty when nothing folded."""
    if not (vertices or edges):
        return ""
    return (
        f"{MINIMIZATION_NOTE_PREFIX}: "
        f"folded {vertices} variable(s) and "
        f"{edges} atom(s); class {original_class} -> "
        f"{core_class}"
    )


class QueryNormalForm:
    """A query's minimization verdict, computed once per query graph.

    Attributes
    ----------
    query_class:
        The Figure 2 class of the query as written (``All`` for a graph
        without vertices).
    core_class:
        The class of its homomorphic core (``None`` for a graph without
        vertices, which belongs to no class).
    folded_vertices / folded_edges:
        How much minimization removed; both zero when the query is its own
        core.
    key:
        The canonical key of the core (:func:`spelling_key` of the core;
        :func:`repro.plan.canonical_query_key`).
    note:
        The minimization note a result answered for this spelling carries
        (:meth:`NormalizedQuery.describe`); empty when nothing folded, and
        for a degenerate (self-loop-only) spelling, which is answered only
        by explicit methods that never minimize.

    The form never references the graph it describes (it is memoised on
    that graph).  A path core is held as its vertex sequence and built by
    :func:`query_core` on first request; a fold-search core as its graph.
    """

    __slots__ = (
        "query_class", "core_class", "folded_vertices", "folded_edges", "key",
        "note", "_core",
    )

    def __init__(
        self,
        query_class: GraphClass,
        core_class: Optional[GraphClass],
        folded_vertices: int,
        folded_edges: int,
        key: Hashable,
        core: object = _SELF_CORE,
        degenerate: bool = False,
    ) -> None:
        self.query_class = query_class
        self.core_class = core_class
        self.folded_vertices = folded_vertices
        self.folded_edges = folded_edges
        self.key = key
        self.note = "" if degenerate else _fold_note(
            query_class, core_class, folded_vertices, folded_edges
        )
        self._core = core

    @property
    def changed(self) -> bool:
        """Whether minimization shrinks the query."""
        return self.folded_vertices > 0 or self.folded_edges > 0


def normal_form(query: DiGraph) -> QueryNormalForm:
    """The query's :class:`QueryNormalForm`, memoised on the query graph.

    Recomputed after a mutation of an unfrozen query graph (the graph's
    memo is cleared).  Validation is not part of it: a degenerate
    (self-loop-only) query has a normal form too, because the explicit
    sampling methods answer it (see :func:`validate_query_graph`).
    """
    return query.cached("normal_form", lambda: _normal_form(query))


def _normal_form(query: DiGraph) -> QueryNormalForm:
    """Classify, minimize and key ``query`` in one pass over its shape."""
    if is_two_way_path(query):
        # One walk gives the steps; a 1WP is its own core, and a 2WP core
        # is a window of the same steps, so neither needs the core graph.
        steps = two_way_path_steps(query)
        query_class = _path_class(steps) if steps else GraphClass.ONE_WAY_PATH
        window = _core_window(steps) if query_class is GraphClass.TWO_WAY_PATH else None
        if window is None:
            return QueryNormalForm(query_class, query_class, 0, 0, _path_key(steps))
        start, length = window
        core_steps = steps[start : start + length]
        return QueryNormalForm(
            query_class,
            _path_class(core_steps),
            query.num_vertices() - length - 1,
            len(steps) - length,
            _path_key(core_steps),
            tuple(two_way_path_order(query)[start : start + length + 1]),
        )
    if graph_in_class(query, GraphClass.DOWNWARD_TREE) and query.is_unlabeled():
        path = _height_path(query)
        height = len(path) - 1
        (label,) = query.labels()
        return QueryNormalForm(
            GraphClass.DOWNWARD_TREE,
            GraphClass.ONE_WAY_PATH,
            query.num_vertices() - height - 1,
            query.num_edges() - height,
            _path_key(((">", label),) * height),
            path,
        )
    if not query.num_vertices():
        return QueryNormalForm(GraphClass.ALL, None, 0, 0, spelling_key(query))
    core = fold_search_core(query)
    edges = query.edges()
    degenerate = bool(edges) and all(edge.source == edge.target for edge in edges)
    query_class = graph_class_of(query)
    if core is query:
        return QueryNormalForm(
            query_class, query_class, 0, 0, spelling_key(query), degenerate=degenerate
        )
    core_class = graph_class_of(core)
    key = spelling_key(core)
    _seal_core(core, core_class, key)
    return QueryNormalForm(
        query_class,
        core_class,
        query.num_vertices() - core.num_vertices(),
        query.num_edges() - core.num_edges(),
        key,
        core,
        degenerate,
    )


def _seal_core(core: DiGraph, core_class: GraphClass, key: Hashable) -> None:
    """Freeze a fresh core and seed it as its own core.

    Its memoised metadata is shared by every cache keyed on it, and
    ``query_core(query_core(q))`` never minimizes again.
    """
    core.freeze()
    core.cached(
        "normal_form", lambda: QueryNormalForm(core_class, core_class, 0, 0, key)
    )


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
    so plans and caches keyed on object identity are unaffected.  A fresh
    core is frozen.
    """
    form = normal_form(query)
    core = form._core
    if core is _SELF_CORE:
        return query
    if not isinstance(core, DiGraph):
        core = form._core = _compute_core(query, form)
    return core


def _compute_core(query: DiGraph, form: QueryNormalForm) -> DiGraph:
    """Build the path core ``form`` holds as a vertex sequence."""
    core = query.induced_component(form._core)
    _seal_core(core, form.core_class, form.key)
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
        return _fold_note(
            self.original_class, self.core_class, self.folded_vertices, self.folded_edges
        )


def normalize(query: DiGraph) -> NormalizedQuery:
    """Validate and minimize a query, reporting the class movement.

    This is the pass :class:`~repro.core.solver.PHomSolver` runs before
    classification: redundant atoms are collapsed by the graph
    representation itself, two-way atoms were oriented at parse time, and
    :func:`query_core` computes the core — so a query whose
    core is a 1WP/DWT/PT reaches the polynomial dispatch routes even when
    the query *as written* sits in a #P-hard cell.  The verdict is the
    query's :class:`QueryNormalForm`; the :class:`NormalizedQuery` holding
    the two graphs is built per call, so the memo never references the
    graph it is stored on.
    """
    validate_query_graph(query)
    form = normal_form(query)
    if form.core_class is None:
        raise GraphError("the empty graph belongs to no class")
    return NormalizedQuery(
        query,
        query_core(query),
        form.query_class,
        form.core_class,
        form.folded_vertices,
        form.folded_edges,
    )
