"""Exact graph homomorphism testing.

A homomorphism ``h`` from a query graph ``G`` to an instance graph ``H`` maps
every vertex of ``G`` to a vertex of ``H`` such that every labeled edge of
``G`` is sent to an edge of ``H`` with the same label (Section 2).  The
general problem is NP-complete, so this module implements a classic
backtracking search with arc-consistency pre-processing and forward
checking.  It is used:

* as the reference oracle inside the brute-force possible-world solver;
* to verify the specialised polynomial algorithms in the test suite;
* by :func:`homomorphic_equivalent`, the equivalence notion the paper uses
  to collapse queries (e.g. DWT queries to one-way paths, Prop 5.5).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.graphs.digraph import DiGraph, Vertex


def _initial_domains(query: DiGraph, instance: DiGraph) -> Optional[Dict[Vertex, Set[Vertex]]]:
    """Degree/label-based initial domains, or ``None`` if some domain is empty."""
    instance_vertices = list(instance.vertices)
    domains: Dict[Vertex, Set[Vertex]] = {}
    for u in query.vertices:
        out_labels = query.out_label_set(u)
        in_labels = query.in_label_set(u)
        candidates = set()
        for x in instance_vertices:
            if not out_labels <= instance.out_label_set(x):
                continue
            if not in_labels <= instance.in_label_set(x):
                continue
            candidates.add(x)
        if not candidates:
            return None
        domains[u] = candidates
    return domains


def _revise(
    query: DiGraph,
    instance: DiGraph,
    domains: Dict[Vertex, Set[Vertex]],
    u: Vertex,
    v: Vertex,
    label: str,
) -> bool:
    """AC-3 revision for the constraint ``(h(u), h(v)) is a label-edge of H``.

    Removes unsupported values from the domain of ``u``; returns ``True`` if
    the domain changed.
    """
    removed = False
    for x in list(domains[u]):
        if not any(instance.has_edge(x, y, label) for y in domains[v]):
            domains[u].discard(x)
            removed = True
    return removed


def arc_consistent_domains(
    query: DiGraph, instance: DiGraph
) -> Optional[Dict[Vertex, Set[Vertex]]]:
    """Arc-consistent domains for the CSP "map ``query`` into ``instance``".

    Returns ``None`` as soon as some domain becomes empty (no homomorphism
    can exist).  This is the consistency check underlying the X-property
    algorithm (Theorem 4.13) and a strong pruning step for backtracking.
    """
    domains = _initial_domains(query, instance)
    if domains is None:
        return None
    # Work queue of directed constraint checks: (variable to prune, other variable, label, forward?)
    queue: List[Tuple[Vertex, Vertex, str, bool]] = []
    for e in query.edges():
        queue.append((e.source, e.target, e.label, True))
        queue.append((e.target, e.source, e.label, False))
    pending = list(queue)
    while pending:
        u, v, label, forward = pending.pop()
        if forward:
            changed = _revise(query, instance, domains, u, v, label)
        else:
            # prune values of u (the edge target) lacking an incoming supporter
            removed = False
            for y in list(domains[u]):
                if not any(instance.has_edge(x, y, label) for x in domains[v]):
                    domains[u].discard(y)
                    removed = True
            changed = removed
        if changed:
            if not domains[u]:
                return None
            for item in queue:
                if item[1] == u and item not in pending:
                    pending.append(item)
    return domains


def _search_order(query: DiGraph) -> List[Vertex]:
    """A variable order that keeps the assigned prefix connected when possible."""
    order: List[Vertex] = []
    placed: Set[Vertex] = set()
    for component in query.weakly_connected_components():
        start = min(component, key=repr)
        stack = [start]
        seen = {start}
        while stack:
            v = stack.pop()
            order.append(v)
            placed.add(v)
            for w in sorted(query.undirected_neighbours(v), key=repr):
                if w in seen or w not in component:
                    continue
                seen.add(w)
                stack.append(w)
    return order


def enumerate_homomorphisms(
    query: DiGraph, instance: DiGraph, limit: Optional[int] = None
) -> Iterator[Dict[Vertex, Vertex]]:
    """Yield homomorphisms from ``query`` to ``instance`` (up to ``limit``).

    The enumeration is exhaustive (every homomorphism is produced exactly
    once) and uses backtracking with forward checking over arc-consistent
    domains.  Exponential in the worst case, as it must be.
    """
    if query.num_vertices() == 0:
        return
    domains = arc_consistent_domains(query, instance)
    if domains is None:
        return
    order = _search_order(query)
    assignment: Dict[Vertex, Vertex] = {}
    produced = 0

    def consistent(u: Vertex, x: Vertex) -> bool:
        for e in query.out_edges(u):
            if e.target in assignment and not instance.has_edge(x, assignment[e.target], e.label):
                return False
        for e in query.in_edges(u):
            if e.source in assignment and not instance.has_edge(assignment[e.source], x, e.label):
                return False
        return True

    # Depth-first search with an explicit stack of candidate iterators, one
    # per assigned position (a recursive closure would reference itself and
    # leave every search behind as cyclic garbage).
    stack = [iter(sorted(domains[order[0]], key=repr))]
    while stack:
        position = len(stack) - 1
        u = order[position]
        for x in stack[-1]:
            if limit is not None and produced >= limit:
                return
            if consistent(u, x):
                break
        else:
            stack.pop()
            if stack:
                del assignment[order[position - 1]]
            continue
        assignment[u] = x
        if position + 1 < len(order):
            stack.append(iter(sorted(domains[order[position + 1]], key=repr)))
            continue
        produced += 1
        yield dict(assignment)
        del assignment[u]


def find_homomorphism(query: DiGraph, instance: DiGraph) -> Optional[Dict[Vertex, Vertex]]:
    """A homomorphism from ``query`` to ``instance``, or ``None`` if none exists."""
    for h in enumerate_homomorphisms(query, instance, limit=1):
        return h
    return None


def has_homomorphism(query: DiGraph, instance: DiGraph) -> bool:
    """Whether ``query ⇝ instance`` (there exists a homomorphism)."""
    return find_homomorphism(query, instance) is not None


def homomorphic_equivalent(first: DiGraph, second: DiGraph) -> bool:
    """Whether the two query graphs are equivalent.

    Following Section 2, two queries ``G`` and ``G'`` are equivalent when,
    for every instance ``H``, ``G ⇝ H`` iff ``G' ⇝ H``; this holds exactly
    when ``G ⇝ G'`` and ``G' ⇝ G``.
    """
    return has_homomorphism(first, second) and has_homomorphism(second, first)


def match_image(homomorphism: Dict[Vertex, Vertex], query: DiGraph, instance: DiGraph) -> DiGraph:
    """The match (image subgraph of ``instance``) defined by a homomorphism.

    The match keeps every vertex of the instance (paper subgraph semantics)
    and exactly the edges ``(h(u), h(v))`` for edges ``(u, v)`` of the query.
    """
    edges = [
        instance.get_edge(homomorphism[e.source], homomorphism[e.target]) for e in query.edges()
    ]
    return instance.subgraph_with_edges(edges)
