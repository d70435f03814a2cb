"""Directed edge-labeled graphs with the paper's conventions.

The paper (Section 2, "Graphs and homomorphisms") works with directed graphs
``H = (V, E, λ)`` where ``E ⊆ V²`` and ``λ : E → σ`` assigns a *single* label
to each edge (multi-edges are disallowed).  Two conventions matter:

* a *subgraph* keeps the full vertex set and removes edges only;
* in the *unlabeled* setting (``|σ| = 1``) all edges carry the same label,
  which we represent with the module constant :data:`UNLABELED`.

The :class:`DiGraph` class below implements exactly this object, plus the
structural helpers (weak connectivity, underlying undirected tree tests,
degree queries) that the rest of the library builds on.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Dict, FrozenSet, Hashable, Iterable, Iterator, List, Optional, Set, Tuple

from repro.exceptions import GraphError

#: Label used for every edge of an "unlabeled" graph (the ``|σ| = 1`` setting).
UNLABELED = "_"

Vertex = Hashable


@dataclass(frozen=True)
class Edge:
    """A directed labeled edge ``source --label--> target``.

    Edges are hashable and totally ordered, so they can directly serve as
    Boolean variables of lineage formulas and as dictionary keys of
    probability assignments.  The order is by the ``repr`` of the endpoints
    (then the label), which is deterministic and — unlike the field-wise
    dataclass order — well-defined even when different edges use vertices of
    mutually incomparable types (e.g. ints and strings).
    """

    source: Vertex
    target: Vertex
    label: str = UNLABELED

    @property
    def endpoints(self) -> Tuple[Vertex, Vertex]:
        """The ``(source, target)`` pair identifying the edge."""
        return (self.source, self.target)

    def sort_key(self) -> Tuple[str, str, str]:
        """A type-safe total-order key (repr of endpoints, then label)."""
        return (repr(self.source), repr(self.target), self.label)

    def reversed(self) -> "Edge":
        """The same edge with its orientation flipped (label preserved)."""
        return Edge(self.target, self.source, self.label)

    def __lt__(self, other: "Edge") -> bool:
        if not isinstance(other, Edge):
            return NotImplemented
        return self.sort_key() < other.sort_key()

    def __le__(self, other: "Edge") -> bool:
        if not isinstance(other, Edge):
            return NotImplemented
        return self.sort_key() <= other.sort_key()

    def __gt__(self, other: "Edge") -> bool:
        if not isinstance(other, Edge):
            return NotImplemented
        return self.sort_key() > other.sort_key()

    def __ge__(self, other: "Edge") -> bool:
        if not isinstance(other, Edge):
            return NotImplemented
        return self.sort_key() >= other.sort_key()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.source!r} -[{self.label}]-> {self.target!r}"


class DiGraph:
    """A directed graph with at most one labeled edge per ordered vertex pair.

    Parameters
    ----------
    vertices:
        Optional iterable of vertices to add immediately.
    edges:
        Optional iterable of :class:`Edge` objects or ``(source, target)`` /
        ``(source, target, label)`` tuples.

    Notes
    -----
    The class is deliberately small and dependency-free: it supports exactly
    the operations the paper's algorithms need (edge/vertex iteration,
    neighbourhood queries, weak connectivity, subgraph construction) and
    nothing else.  Vertices may be any hashable value.  The constructor
    fills the adjacency in one loop, in the order :meth:`add_vertex` and
    :meth:`add_edge` would, so the graph (and its pickle) is the one those
    calls build.
    """

    def __init__(
        self,
        vertices: Optional[Iterable[Vertex]] = None,
        edges: Optional[Iterable] = None,
    ) -> None:
        self._vertices: Set[Vertex] = set()
        self._edges: Dict[Tuple[Vertex, Vertex], Edge] = {}
        self._succ: Dict[Vertex, Set[Vertex]] = {}
        self._pred: Dict[Vertex, Set[Vertex]] = {}
        #: Memoised derived data (sorted edge lists, components, class
        #: recognition results, ...), cleared on every mutation.
        self._cache: Dict[Hashable, Any] = {}
        self._frozen: bool = False
        vertex_set, edge_map, succ, pred = self._vertices, self._edges, self._succ, self._pred
        if vertices is not None:
            for v in vertices:
                if v not in succ:
                    vertex_set.add(v)
                    succ[v] = set()
                    pred[v] = set()
        if edges is not None:
            for e in edges:
                if isinstance(e, Edge):
                    e = Edge(e.source, e.target, e.label)
                else:
                    e = Edge(e[0], e[1]) if len(e) == 2 else Edge(e[0], e[1], e[2])
                source, target = pair = e.source, e.target
                if pair in edge_map:
                    raise GraphError(
                        f"edge ({source!r}, {target!r}) already exists; "
                        f"multi-edges are not allowed"
                    )
                if source not in succ:
                    vertex_set.add(source)
                    succ[source] = set()
                    pred[source] = set()
                if target not in succ:
                    vertex_set.add(target)
                    succ[target] = set()
                    pred[target] = set()
                edge_map[pair] = e
                succ[source].add(target)
                pred[target].add(source)

    # ------------------------------------------------------------------
    # freezing and memoisation
    # ------------------------------------------------------------------
    def freeze(self) -> "DiGraph":
        """Mark the graph immutable and return it.

        A frozen graph rejects further mutation with
        :class:`~repro.exceptions.GraphError`, which makes its memoised
        derived data (edge order, components, class recognition) safe to
        share indefinitely.  To modify a frozen graph, take a :meth:`copy`
        (copies are always mutable).
        """
        self._frozen = True
        return self

    @property
    def frozen(self) -> bool:
        """Whether the graph has been frozen against mutation."""
        return self._frozen

    def _invalidate(self) -> None:
        """Reject mutation when frozen; otherwise drop memoised data."""
        if self._frozen:
            raise GraphError("graph is frozen; copy() it to obtain a mutable graph")
        if self._cache:
            self._cache.clear()

    def cached(self, key: Hashable, compute: Callable[[], Any]) -> Any:
        """Memoise ``compute()`` under ``key`` until the next mutation.

        This is the hook the class recognisers and solvers use to attach
        derived structural data (path orders, recognition verdicts) to the
        graph without recomputing them on every query.

        A memoised value must never reference the graph it is stored on:
        that makes the graph part of a reference cycle, so it is no longer
        freed when its last reference goes and lingers as cyclic garbage
        until the cyclic collector runs.  Store a marker instead (as
        :func:`repro.query.normal_form` does for a graph that is its own
        core).
        """
        try:
            return self._cache[key]
        except KeyError:
            value = compute()
            self._cache[key] = value
            return value

    def __getstate__(self) -> Dict[str, Any]:
        """Pickle without the memoised cache (recomputed on demand).

        Cache entries can hold arbitrarily large derived structures (compiled
        skeletons, component graphs); dropping them keeps pickles small and
        lets a receiving process warm its own caches, which is what the
        instance-affinity sharding of :mod:`repro.service` relies on.
        """
        state = self.__dict__.copy()
        state["_cache"] = {}
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_vertex(self, v: Vertex) -> None:
        """Add an isolated vertex (idempotent)."""
        if v not in self._vertices:
            self._invalidate()
            self._vertices.add(v)
            self._succ[v] = set()
            self._pred[v] = set()

    def add_edge(self, source: Vertex, target: Vertex, label: str = UNLABELED) -> Edge:
        """Add the edge ``source --label--> target``.

        Both endpoints are added to the vertex set if missing.  Adding an
        edge between an already-connected ordered pair raises
        :class:`~repro.exceptions.GraphError`, because the paper's graphs do
        not allow multi-edges (each edge has a unique label).
        """
        if (source, target) in self._edges:
            raise GraphError(
                f"edge ({source!r}, {target!r}) already exists; multi-edges are not allowed"
            )
        self._invalidate()
        self.add_vertex(source)
        self.add_vertex(target)
        edge = Edge(source, target, label)
        self._edges[(source, target)] = edge
        self._succ[source].add(target)
        self._pred[target].add(source)
        return edge

    def remove_edge(self, source: Vertex, target: Vertex) -> None:
        """Remove the edge ``source -> target`` (vertices are kept)."""
        if (source, target) not in self._edges:
            raise GraphError(f"edge ({source!r}, {target!r}) does not exist")
        self._invalidate()
        del self._edges[(source, target)]
        self._succ[source].discard(target)
        self._pred[target].discard(source)

    def copy(self) -> "DiGraph":
        """An independent copy of the graph."""
        return DiGraph(vertices=self._vertices, edges=self._edges.values())

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------
    @property
    def vertices(self) -> FrozenSet[Vertex]:
        """The vertex set (frozen view)."""
        return frozenset(self._vertices)

    def edges(self) -> List[Edge]:
        """All edges, in a deterministic (sorted by insertion-independent key) order.

        The sorted order is memoised until the next mutation; the returned
        list is a fresh copy, so callers may reorder it freely.
        """
        return list(
            self.cached(
                "edges",
                lambda: tuple(
                    sorted(
                        self._edges.values(),
                        key=lambda e: (repr(e.source), repr(e.target)),
                    )
                ),
            )
        )

    def edge_set(self) -> FrozenSet[Edge]:
        """All edges as a frozen set."""
        return frozenset(self._edges.values())

    def num_vertices(self) -> int:
        """Number of vertices."""
        return len(self._vertices)

    def num_edges(self) -> int:
        """Number of edges."""
        return len(self._edges)

    def has_vertex(self, v: Vertex) -> bool:
        """Whether ``v`` is a vertex of the graph."""
        return v in self._vertices

    def has_edge(self, source: Vertex, target: Vertex, label: Optional[str] = None) -> bool:
        """Whether the edge ``source -> target`` exists (optionally with the given label)."""
        edge = self._edges.get((source, target))
        if edge is None:
            return False
        return label is None or edge.label == label

    def get_edge(self, source: Vertex, target: Vertex) -> Edge:
        """The :class:`Edge` object for ``source -> target``."""
        try:
            return self._edges[(source, target)]
        except KeyError as exc:
            raise GraphError(f"edge ({source!r}, {target!r}) does not exist") from exc

    def label_of(self, source: Vertex, target: Vertex) -> str:
        """The label of the edge ``source -> target``."""
        return self.get_edge(source, target).label

    def labels(self) -> FrozenSet[str]:
        """The set of labels that actually appear on edges (memoised)."""
        return self.cached(
            "labels", lambda: frozenset(e.label for e in self._edges.values())
        )

    def is_unlabeled(self) -> bool:
        """Whether at most one distinct label appears (the ``|σ| = 1`` setting)."""
        return len(self.labels()) <= 1

    # ------------------------------------------------------------------
    # neighbourhoods and degrees
    # ------------------------------------------------------------------
    _EMPTY_SET: FrozenSet[Vertex] = frozenset()

    def successors(self, v: Vertex) -> Set[Vertex]:
        """Vertices ``w`` such that ``v -> w`` is an edge.

        Returns a live read-only view of the internal adjacency set (no
        defensive copy — this is on the hot path of every traversal).
        Callers must not mutate it; to keep an independent snapshot, wrap it
        in ``set(...)``.
        """
        return self._succ.get(v, self._EMPTY_SET)

    def predecessors(self, v: Vertex) -> Set[Vertex]:
        """Vertices ``u`` such that ``u -> v`` is an edge (read-only view)."""
        return self._pred.get(v, self._EMPTY_SET)

    def out_edges(self, v: Vertex) -> List[Edge]:
        """Edges leaving ``v``, in a deterministic order (memoised).

        The order is cached as a tuple and returned as a fresh list, so
        caller mutation cannot poison the cache.
        """
        return list(
            self.cached(
                ("out_edges", v),
                lambda: tuple(
                    self._edges[(v, w)] for w in sorted(self._succ.get(v, ()), key=repr)
                ),
            )
        )

    def in_edges(self, v: Vertex) -> List[Edge]:
        """Edges entering ``v``, in a deterministic order (memoised, fresh list)."""
        return list(
            self.cached(
                ("in_edges", v),
                lambda: tuple(
                    self._edges[(u, v)] for u in sorted(self._pred.get(v, ()), key=repr)
                ),
            )
        )

    def out_label_set(self, v: Vertex) -> FrozenSet[str]:
        """Labels on edges leaving ``v`` (memoised; arc-consistency hot path)."""
        return self.cached(
            ("out_labels", v),
            lambda: frozenset(self._edges[(v, w)].label for w in self._succ.get(v, ())),
        )

    def in_label_set(self, v: Vertex) -> FrozenSet[str]:
        """Labels on edges entering ``v`` (memoised; arc-consistency hot path)."""
        return self.cached(
            ("in_labels", v),
            lambda: frozenset(self._edges[(u, v)].label for u in self._pred.get(v, ())),
        )

    def out_degree(self, v: Vertex) -> int:
        """Number of edges leaving ``v``."""
        return len(self._succ.get(v, self._EMPTY_SET))

    def in_degree(self, v: Vertex) -> int:
        """Number of edges entering ``v``."""
        return len(self._pred.get(v, self._EMPTY_SET))

    def degree(self, v: Vertex) -> int:
        """Total (undirected) degree of ``v``."""
        return self.in_degree(v) + self.out_degree(v)

    def undirected_neighbours(self, v: Vertex) -> Set[Vertex]:
        """Neighbours of ``v`` in the underlying undirected graph."""
        return self.successors(v) | self.predecessors(v)

    # ------------------------------------------------------------------
    # subgraphs (paper semantics: same vertices, subset of edges)
    # ------------------------------------------------------------------
    def subgraph_with_edges(self, kept_edges: Iterable[Edge]) -> "DiGraph":
        """The subgraph keeping every vertex but only the given edges.

        This follows the paper's (slightly non-standard) definition of a
        subgraph: the vertex set is preserved, so possible worlds of a
        probabilistic graph always share the instance's vertex set.
        """
        kept = set(kept_edges)
        unknown = kept - set(self._edges.values())
        if unknown:
            raise GraphError(f"edges {unknown!r} are not edges of this graph")
        return DiGraph(self._vertices, kept)

    def induced_component(self, vertices: Iterable[Vertex]) -> "DiGraph":
        """The graph induced by a vertex subset (keeping only those vertices)."""
        keep = set(vertices)
        unknown = keep - self._vertices
        if unknown:
            raise GraphError(f"vertices {unknown!r} are not vertices of this graph")
        return DiGraph(
            keep,
            [e for e in self._edges.values() if e.source in keep and e.target in keep],
        )

    # ------------------------------------------------------------------
    # connectivity
    # ------------------------------------------------------------------
    def weakly_connected_components(self) -> List[FrozenSet[Vertex]]:
        """Connected components of the underlying undirected graph (memoised)."""
        return list(self.cached("wcc", self._compute_components))

    def _compute_components(self) -> Tuple[FrozenSet[Vertex], ...]:
        seen: Set[Vertex] = set()
        components: List[FrozenSet[Vertex]] = []
        for start in sorted(self._vertices, key=repr):
            if start in seen:
                continue
            component: Set[Vertex] = set()
            queue: deque = deque([start])
            seen.add(start)
            while queue:
                v = queue.popleft()
                component.add(v)
                for w in self._succ[v]:
                    if w not in seen:
                        seen.add(w)
                        queue.append(w)
                for w in self._pred[v]:
                    if w not in seen:
                        seen.add(w)
                        queue.append(w)
            components.append(frozenset(component))
        return tuple(components)

    def is_weakly_connected(self) -> bool:
        """Whether the underlying undirected graph is connected (and non-empty).

        Runs a single BFS from an arbitrary vertex and early-exits, instead
        of materialising every component; the verdict is memoised.
        """
        if not self._vertices:
            return False

        def compute() -> bool:
            if "wcc" in self._cache:
                return len(self._cache["wcc"]) == 1
            start = next(iter(self._vertices))
            seen: Set[Vertex] = {start}
            queue: deque = deque([start])
            while queue:
                v = queue.popleft()
                for w in self._succ[v]:
                    if w not in seen:
                        seen.add(w)
                        queue.append(w)
                for w in self._pred[v]:
                    if w not in seen:
                        seen.add(w)
                        queue.append(w)
            return len(seen) == len(self._vertices)

        return self.cached("is_wcc", compute)

    def connected_component_graphs(self) -> List["DiGraph"]:
        """The graphs induced by each weakly connected component (memoised).

        The returned component graphs are shared between calls and are
        frozen; :meth:`copy` one to mutate it.
        """
        return list(
            self.cached(
                "component_graphs",
                lambda: tuple(
                    self.induced_component(c).freeze()
                    for c in self.weakly_connected_components()
                ),
            )
        )

    # ------------------------------------------------------------------
    # structural tests used throughout the paper
    # ------------------------------------------------------------------
    def has_directed_cycle(self) -> bool:
        """Whether the graph contains a directed cycle (including self-loops; memoised)."""
        return self.cached("has_directed_cycle", self._compute_has_directed_cycle)

    def _compute_has_directed_cycle(self) -> bool:
        in_deg = {v: self.in_degree(v) for v in self._vertices}
        queue = deque(v for v, d in in_deg.items() if d == 0)
        seen = 0
        while queue:
            v = queue.popleft()
            seen += 1
            for w in self._succ.get(v, set()):
                in_deg[w] -= 1
                if in_deg[w] == 0:
                    queue.append(w)
        return seen != len(self._vertices)

    def underlying_has_undirected_cycle(self) -> bool:
        """Whether the underlying undirected (multi-)graph has a cycle.

        A pair of antiparallel edges ``u -> v`` and ``v -> u`` counts as an
        undirected cycle of length two, because the underlying undirected
        graph then has a multi-edge and is not a tree.
        """
        def compute() -> bool:
            # A forest has exactly |V| - (#components) undirected edges, where
            # antiparallel pairs count twice (they already make a cycle).
            undirected_pairs = set()
            for (u, v) in self._edges:
                if (v, u) in self._edges:
                    return True
                undirected_pairs.add(frozenset((u, v)))
            num_components = len(self.weakly_connected_components())
            return len(undirected_pairs) > len(self._vertices) - num_components

        return self.cached("undirected_cycle", compute)

    def longest_directed_path_length(self) -> int:
        """Length (number of edges) of the longest directed *simple* path.

        For acyclic graphs this is computed by dynamic programming over a
        topological order; for cyclic graphs the length is unbounded in the
        homomorphism sense, and :class:`~repro.exceptions.GraphError` is
        raised.
        """
        if self.has_directed_cycle():
            raise GraphError("longest directed path is undefined on cyclic graphs")
        order = self.topological_order()
        longest: Dict[Vertex, int] = {v: 0 for v in self._vertices}
        for v in order:
            for u in self._pred.get(v, set()):
                longest[v] = max(longest[v], longest[u] + 1)
        return max(longest.values(), default=0)

    def topological_order(self) -> List[Vertex]:
        """A topological order of the vertices (requires acyclicity; memoised)."""
        return list(self.cached("topological_order", self._compute_topological_order))

    def _compute_topological_order(self) -> Tuple[Vertex, ...]:
        in_deg = {v: self.in_degree(v) for v in self._vertices}
        queue = deque(sorted((v for v, d in in_deg.items() if d == 0), key=repr))
        order: List[Vertex] = []
        while queue:
            v = queue.popleft()
            order.append(v)
            for w in sorted(self._succ.get(v, set()), key=repr):
                in_deg[w] -= 1
                if in_deg[w] == 0:
                    queue.append(w)
        if len(order) != len(self._vertices):
            raise GraphError("graph has a directed cycle; no topological order exists")
        return tuple(order)

    # ------------------------------------------------------------------
    # combination
    # ------------------------------------------------------------------
    def relabel_vertices(self, mapping: Dict[Vertex, Vertex]) -> "DiGraph":
        """A copy of the graph with vertices renamed according to ``mapping``.

        Vertices missing from ``mapping`` keep their name.  The mapping must
        be injective on the vertex set.
        """
        def rename(v: Vertex) -> Vertex:
            return mapping.get(v, v)

        new_names = [rename(v) for v in self._vertices]
        if len(set(new_names)) != len(new_names):
            raise GraphError("vertex relabeling is not injective")
        return DiGraph(
            new_names,
            [(rename(e.source), rename(e.target), e.label) for e in self._edges.values()],
        )

    # ------------------------------------------------------------------
    # dunder helpers
    # ------------------------------------------------------------------
    def __contains__(self, v: Vertex) -> bool:
        return v in self._vertices

    def __iter__(self) -> Iterator[Vertex]:
        return iter(sorted(self._vertices, key=repr))

    def __len__(self) -> int:
        return len(self._vertices)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DiGraph):
            return NotImplemented
        return self._vertices == other._vertices and self._edges == other._edges

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DiGraph(|V|={self.num_vertices()}, |E|={self.num_edges()}, "
            f"labels={sorted(self.labels())})"
        )
