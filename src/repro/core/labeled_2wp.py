"""Proposition 4.11: connected (labeled) queries on two-way-path instances.

The instance ``H`` is a two-way path ``a_1 − a_2 − ... − a_{k+1}`` (each ``−``
being a forward or backward labeled edge).  Because the query is connected,
the image of any homomorphism lies inside a connected subpath of ``H``, and
there are only quadratically many of those.  The paper's three-step scheme:

1. enumerate the connected subpaths ``C_{i,j}`` (vertices ``a_i .. a_{j+1}``);
2. decide for each one whether ``G ⇝ C_{i,j}``; a subpath trivially has the
   X-property w.r.t. its left-to-right order, so Theorem 4.13 (arc
   consistency + minimum assignment, :mod:`repro.csp.xproperty`) decides this
   in polynomial time even though ``G`` is an arbitrary connected graph;
3. the resulting lineage (one clause per matching subpath) is β-acyclic —
   eliminate edge variables from the ends of the path inward — so its
   probability is polynomial-time computable (Theorem 4.9).

Besides the lineage route, :func:`phom_connected_on_2wp` offers a direct
dynamic program: since a superpath of a matching subpath also matches, it is
enough to know, for every right endpoint ``j``, the *shortest* matching
subpath ending at ``j``; a left-to-right scan over the edge positions whose
state is the current run length of consecutively present edges then computes
the probability that some matching subpath is fully present, in ``O(k²)``
arithmetic operations.

Tape-lowering contract: the interval dynamic program does its arithmetic
through the context's ``mul``/``add``/``compl``, and :mod:`repro.tape` lowers
it to a flat tape by running it with the tape builder as the context, so
each operation emits one tape op.  The DP must therefore branch only on
structure (which subpaths match — decided at compile time), never on
probability values.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.exceptions import ClassConstraintError
from repro.csp.xproperty import x_property_has_homomorphism
from repro.graphs.classes import is_two_way_path, two_way_path_order
from repro.graphs.digraph import DiGraph, Edge, Vertex
from repro.lineage.dnf import PositiveDNF
from repro.numeric import EXACT, Number, NumericContext
from repro.probability.prob_graph import ProbabilisticGraph


def _path_edges_in_order(graph: DiGraph, order: Sequence[Vertex]) -> List[Edge]:
    """The edges of a 2WP listed along the path order (whatever their orientation)."""
    edges = []
    for left, right in zip(order, order[1:]):
        if graph.has_edge(left, right):
            edges.append(graph.get_edge(left, right))
        else:
            edges.append(graph.get_edge(right, left))
    return edges


def _interval_matches(
    query: DiGraph, graph: DiGraph, order: Sequence[Vertex], start: int, end: int
) -> bool:
    """Whether the connected query maps into the subpath with edge interval ``[start, end]``.

    The induced subpath graphs depend on the instance only, so they are
    memoised on the instance graph and shared by every query answered
    against it (the repeated-query hot path of :meth:`PHomSolver.solve_many`).
    """
    subpath_vertices = order[start - 1 : end + 1]
    subpath = graph.cached(
        ("2wp_subpath", start, end),
        lambda: graph.induced_component(subpath_vertices).freeze(),
    )
    return x_property_has_homomorphism(query, subpath, subpath_vertices)


def _shortest_match_lengths(
    query: DiGraph, graph: DiGraph, order: Sequence[Vertex]
) -> List[Optional[int]]:
    """For each edge position ``j`` (1-based), the length of the shortest matching subpath ending at ``j``.

    A subpath is identified by its edge interval ``[i, j]``; it matches when
    the connected query has a homomorphism to the subgraph induced by the
    vertices ``a_i .. a_{j+1}``.  Matching is monotone under extending the
    interval (a superpath contains every subpath), so the largest matching
    start position ``I(j)`` is non-decreasing in ``j``; a two-pointer sweep
    therefore finds every shortest matching interval with an amortised
    *linear* number of homomorphism tests instead of the naive quadratic
    scan.  Returns ``None`` at positions where no matching subpath ends.
    """
    k = len(order) - 1
    shortest: List[Optional[int]] = [None] * (k + 1)  # 1-based positions
    largest_start = 0  # 0 means "no matching interval found so far"
    for j in range(1, k + 1):
        if largest_start == 0:
            # The longest candidate ending at j is [1, j]; if even that does
            # not match, nothing ending at j does.
            if not _interval_matches(query, graph, order, 1, j):
                continue
            largest_start = 1
        # [largest_start, j] matches (it extends the previous matching
        # interval); shrink it from the left as far as possible.
        while largest_start < j and _interval_matches(query, graph, order, largest_start + 1, j):
            largest_start += 1
        shortest[j] = j - largest_start + 1
    return shortest


def two_way_path_lineage(query: DiGraph, instance: ProbabilisticGraph) -> PositiveDNF:
    """The β-acyclic lineage of a connected query on a 2WP instance.

    One clause per *shortest* matching subpath ending at each position
    (clauses for longer matching subpaths ending at the same position are
    supersets and therefore redundant for the union event).
    """
    graph = instance.graph
    if not is_two_way_path(graph):
        raise ClassConstraintError("two_way_path_lineage requires a two-way-path instance")
    if not query.is_weakly_connected():
        raise ClassConstraintError("Proposition 4.11 requires a connected query")
    lineage = PositiveDNF()
    if query.num_edges() == 0:
        lineage.add_clause([])
        return lineage
    order = two_way_path_order(graph)
    edges = _path_edges_in_order(graph, order)
    shortest = _shortest_match_lengths(query, graph, order)
    for j in range(1, len(order)):
        length = shortest[j]
        if length is not None:
            lineage.add_clause(edges[j - length : j])
    return lineage


def _interval_dp_probability(
    edges: Sequence[Edge],
    probabilities: Mapping[Edge, Fraction],
    shortest: Sequence[Optional[int]],
    context: NumericContext = EXACT,
) -> Number:
    """Probability that some matching edge interval is fully present.

    ``shortest[j]`` is the length of the shortest matching interval ending at
    position ``j`` (1-based), or ``None``.  The scan keeps the distribution
    of the current run length of present edges restricted to the event "no
    matching interval has been completed yet"; the answer is one minus the
    surviving mass.

    The run-length state is a flat list indexed by run length (the keys are
    dense integers starting at 0), which replaces the previous dict-of-ints
    state: no hashing, no ``dict.get`` on the inner loop, and the list never
    grows past the completion threshold at the current position.
    """
    zero = context.zero
    mul, add, compl = context.mul, context.add, context.compl
    no_match: List[Number] = [context.one]  # index = current run length
    for position, edge in enumerate(edges, start=1):
        probability = probabilities[edge]
        threshold = shortest[position]
        size = len(no_match) + 1
        if threshold is not None and threshold < size:
            size = threshold
        updated: List[Number] = [zero] * max(size, 1)
        absent_mass = zero
        for run_length, mass in enumerate(no_match):
            absent_mass = add(absent_mass, mul(compl(probability), mass))
            extended = run_length + 1
            if threshold is not None and extended >= threshold:
                continue  # a matching interval completes: leave the "no match" event
            updated[extended] = add(updated[extended], mul(probability, mass))
        updated[0] = add(updated[0], absent_mass)
        no_match = updated
    surviving = zero
    for mass in no_match:
        surviving = add(surviving, mass)
    return compl(surviving)


# ----------------------------------------------------------------------
# compile/evaluate halves (the structural vs arithmetic split)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TwoWayPathSkeleton:
    """The probability-independent structure of Proposition 4.11's DP.

    ``edges`` lists the instance edges along the path order and ``shortest``
    holds, per 1-based edge position, the length of the shortest matching
    subpath ending there (or ``None``).  Everything expensive — the path
    order, the X-property homomorphism tests of the two-pointer sweep — is
    paid once at compile time; :func:`evaluate_two_way_path_skeleton` is pure
    arithmetic over the current edge probabilities.
    """

    edges: Tuple[Edge, ...]
    shortest: Tuple[Optional[int], ...]


def compile_connected_on_2wp(query: DiGraph, graph: DiGraph) -> TwoWayPathSkeleton:
    """Compile the structural half of ``Pr(query ⇝ 2WP instance)``.

    ``graph`` is the (connected, two-way-path) instance graph; probabilities
    play no role here.  Raises :class:`~repro.exceptions.ClassConstraintError`
    outside Proposition 4.11's classes, like the one-shot solver.
    """
    if not is_two_way_path(graph):
        raise ClassConstraintError("Proposition 4.11 requires a two-way-path instance")
    if not query.is_weakly_connected():
        raise ClassConstraintError("Proposition 4.11 requires a connected query")
    order = two_way_path_order(graph)
    edges = tuple(_path_edges_in_order(graph, order))
    shortest = tuple(_shortest_match_lengths(query, graph, order))
    return TwoWayPathSkeleton(edges=edges, shortest=shortest)


def evaluate_two_way_path_skeleton(
    skeleton: TwoWayPathSkeleton,
    probabilities: Mapping[Edge, Fraction],
    context: NumericContext = EXACT,
) -> Number:
    """The arithmetic half: run the run-length DP over current probabilities."""
    return _interval_dp_probability(skeleton.edges, probabilities, skeleton.shortest, context)


def phom_connected_on_2wp(
    query: DiGraph,
    instance: ProbabilisticGraph,
    method: str = "dp",
    context: NumericContext = EXACT,
) -> Number:
    """``Pr(query ⇝ instance)`` for a connected query on a 2WP instance.

    Parameters
    ----------
    query:
        Any connected query graph (labels, branching and two-wayness all
        allowed).
    instance:
        A probabilistic two-way-path instance.
    method:
        ``"dp"`` (default) for the run-length dynamic program, ``"lineage"``
        for the paper's β-acyclic lineage route.
    context:
        Numeric backend (exact :class:`~fractions.Fraction` by default).
    """
    graph = instance.graph
    if not is_two_way_path(graph):
        raise ClassConstraintError("Proposition 4.11 requires a two-way-path instance")
    if not query.is_weakly_connected():
        raise ClassConstraintError("Proposition 4.11 requires a connected query")
    if query.num_edges() == 0:
        return context.one
    if method == "lineage":
        lineage = two_way_path_lineage(query, instance)
        return lineage.probability(
            context.instance_probabilities(instance), context=context
        )
    if method == "dp":
        skeleton = compile_connected_on_2wp(query, graph)
        return evaluate_two_way_path_skeleton(
            skeleton, context.instance_probabilities(instance), context
        )
    raise ValueError(f"unknown method {method!r}; expected 'dp' or 'lineage'")
