"""The X-property (Definition 4.12) and the consistency algorithm of Theorem 4.13.

A labeled directed graph ``H`` has the X-property with respect to a total
order ``<`` of its vertices when, for every label ``R`` and all vertices
``n0 < n1`` and ``n2 < n3``, if ``n0 -R-> n3`` and ``n1 -R-> n2`` are edges
then ``n0 -R-> n2`` is an edge as well.  Equivalently, the set of ``R``-edges
is closed under taking coordinatewise minima.

Theorem 4.13 (Gottlob–Koch–Schulz, extending Gutjahr–Welzl–Woeginger) states
that homomorphism testing into an X-property target is decided by arc
consistency; the witness homomorphism maps every query vertex to the minimum
of its arc-consistent domain.  The correctness argument is exactly the
min-closure one: if ``(u, v)`` is a query edge with label ``R``, arc
consistency gives supporters ``(min D(u), y)`` and ``(x, min D(v))`` in the
``R``-edges of ``H``, and min-closure turns them into the edge
``(min D(u), min D(v))``.

Proposition 4.11 applies this with ``H`` a connected subpath of a two-way
path, which has the X-property vacuously (the premise of the implication can
never hold on a simple path without multi-edges).  Its solver
(:mod:`repro.core.labeled_2wp`) runs the same consistency on int bitsets
over the path positions; the set-based functions here are its reference.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Mapping, Optional, Sequence

from repro.exceptions import ClassConstraintError, GraphError
from repro.graphs.digraph import DiGraph, Vertex
from repro.graphs.homomorphism import arc_consistent_domains


def _position_map(order: Sequence[Vertex], graph: DiGraph) -> Dict[Vertex, int]:
    positions = {v: i for i, v in enumerate(order)}
    missing = set(graph.vertices) - set(positions)
    if missing:
        raise GraphError(f"order is missing vertices {missing!r}")
    if len(positions) != len(order):
        raise GraphError("order contains duplicate vertices")
    return positions


def has_x_property(graph: DiGraph, order: Sequence[Vertex]) -> bool:
    """Whether ``graph`` has the X-property w.r.t. the given total vertex order.

    The check is the direct quadratic test over pairs of equally-labeled
    edges; it is only used for validation and in the test suite, never on
    the hot path of the solvers.
    """
    position = _position_map(order, graph)
    edges_by_label: Dict[str, List] = {}
    for edge in graph.edges():
        edges_by_label.setdefault(edge.label, []).append(edge)
    for label, edges in edges_by_label.items():
        for first in edges:
            for second in edges:
                n0, n3 = first.source, first.target
                n1, n2 = second.source, second.target
                if position[n0] < position[n1] and position[n2] < position[n3]:
                    if not graph.has_edge(n0, n2, label):
                        return False
    return True


def x_property_homomorphism(
    query: DiGraph,
    instance: DiGraph,
    order: Sequence[Vertex],
    verify_property: bool = False,
) -> Optional[Dict[Vertex, Vertex]]:
    """A homomorphism from ``query`` to ``instance``, or ``None``, via Theorem 4.13.

    Parameters
    ----------
    query:
        The query graph ``G`` (any directed labeled graph).
    instance:
        The target graph ``H``, assumed to have the X-property w.r.t.
        ``order``.
    order:
        A total order of the vertices of ``instance``.
    verify_property:
        When true, the X-property of the instance is checked first and a
        :class:`~repro.exceptions.ClassConstraintError` is raised if it does
        not hold.  The solvers of Proposition 4.11 pass targets that have
        the property by construction and skip the check.

    Notes
    -----
    If the instance does not have the X-property the minimum-element
    assignment may fail; in that case the function raises
    :class:`~repro.exceptions.ClassConstraintError` rather than returning a
    wrong answer.
    """
    if verify_property and not has_x_property(instance, order):
        raise ClassConstraintError("instance does not have the X-property w.r.t. the order")
    if query.num_vertices() == 0:
        raise GraphError("the empty query has no homomorphism semantics")
    position = _position_map(order, instance)
    domains = arc_consistent_domains(query, instance)
    if domains is None:
        return None
    assignment = {u: min(domain, key=lambda v: position[v]) for u, domain in domains.items()}
    for edge in query.edges():
        if not instance.has_edge(assignment[edge.source], assignment[edge.target], edge.label):
            raise ClassConstraintError(
                "minimum-element assignment is not a homomorphism; "
                "the instance presumably lacks the X-property w.r.t. the given order"
            )
    return assignment


def x_property_has_homomorphism(
    query: DiGraph, instance: DiGraph, order: Sequence[Vertex]
) -> bool:
    """Whether ``query ⇝ instance``, assuming the instance has the X-property."""
    return x_property_homomorphism(query, instance, order) is not None
