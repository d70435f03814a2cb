"""Proposition 4.11: connected (labeled) queries on two-way-path instances.

The instance ``H`` is a two-way path ``a_1 − a_2 − ... − a_{k+1}`` (each ``−``
being a forward or backward labeled edge).  Because the query is connected,
the image of any homomorphism lies inside a connected subpath of ``H``, and
there are only quadratically many of those.  The paper's three-step scheme:

1. enumerate the connected subpaths ``C_{i,j}`` (vertices ``a_i .. a_{j+1}``);
2. decide for each one whether ``G ⇝ C_{i,j}``; a subpath trivially has the
   X-property w.r.t. its left-to-right order, so Theorem 4.13 (arc
   consistency + minimum assignment, :mod:`repro.csp.xproperty`) decides this
   in polynomial time even though ``G`` is an arbitrary connected graph.
   Here the consistency runs on int bitsets over the path positions, where
   a revision is two shifts and a mask (:func:`_interval_matcher`); it
   reaches the same greatest arc-consistent domains as the set-based
   :func:`~repro.csp.xproperty.x_property_has_homomorphism` on the induced
   subpath, which stays the reference in the tests and benchmarks;
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
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.exceptions import ClassConstraintError
from repro.graphs.classes import is_two_way_path, two_way_path_order
from repro.graphs.digraph import DiGraph, Edge
from repro.lineage.dnf import PositiveDNF
from repro.numeric import EXACT, Number, NumericContext
from repro.probability.prob_graph import ProbabilisticGraph


def _path_structure(
    graph: DiGraph,
) -> Tuple[Tuple[Edge, ...], Dict[str, Tuple[int, int]]]:
    """The edges of a 2WP along :func:`two_way_path_order`, and its label bitmasks.

    Edge position ``p`` (0-based) joins ``order[p]`` and ``order[p + 1]``.
    Per label, the forward mask has bit ``p`` set when ``order[p] -> order[p + 1]``
    carries the label, the backward mask when ``order[p + 1] -> order[p]``
    does.  Both depend on the instance only, so they are memoised on the
    (frozen) instance graph and shared by every query compiled against it.
    """

    def compute() -> Tuple[Tuple[Edge, ...], Dict[str, Tuple[int, int]]]:
        order = two_way_path_order(graph)
        edges: List[Edge] = []
        masks: Dict[str, List[int]] = {}
        for position, (left, right) in enumerate(zip(order, order[1:])):
            backward = not graph.has_edge(left, right)
            edge = graph.get_edge(right, left) if backward else graph.get_edge(left, right)
            edges.append(edge)
            masks.setdefault(edge.label, [0, 0])[backward] |= 1 << position
        return tuple(edges), {label: (f, b) for label, (f, b) in masks.items()}

    return graph.cached("2wp_path_structure", compute)


def _interval_matcher(
    query: DiGraph, masks: Mapping[str, Tuple[int, int]]
) -> Callable[[int, int], bool]:
    """The test "``query`` maps into the subpath with edge interval ``[start, end]``".

    Theorem 4.13 on int bitsets: a domain is a set of path positions, and
    along a two-way path an ``l``-labeled revision is two shifts,

    * ``pred(S) = ((S >> 1) & F) | ((S & B) << 1)`` — positions with an
      ``l``-edge into ``S``;
    * ``succ(S) = ((S & F) << 1) | ((S >> 1) & B)`` — positions with an
      ``l``-edge from ``S``;

    with ``(F, B)`` the label's forward/backward masks (:func:`_path_structure`).
    The subpath ``a_start .. a_{end+1}`` is its set of positions
    ``start-1 .. end``: masking every domain to it restricts the revisions
    to the induced subpath, because a support found by ``pred``/``succ``
    joins two positions of the domains, hence two positions of the interval,
    so the label masks need no masking.  Domains start at the positions
    carrying the vertex's out- and in-labels; arc consistency then shrinks
    them to the greatest arc-consistent domains, which are unique, so the
    verdict is the X-property route's
    (:func:`repro.csp.xproperty.x_property_has_homomorphism` on the induced
    subpath).  Theorem 4.13's witness maps every query vertex to its
    leftmost position (the lowest set bit); it is checked edge by edge and a
    failure raises :class:`~repro.exceptions.ClassConstraintError`, exactly
    where :func:`~repro.csp.xproperty.x_property_homomorphism` does.
    """
    index = {vertex: i for i, vertex in enumerate(query.vertices)}
    everything = -1  # all positions: the neutral element of the ANDs below
    support = [everything] * len(index)
    arcs: List[Tuple[int, int, int, int]] = []
    for edge in query.edges():
        forward, backward = masks.get(edge.label, (0, 0))
        source, target = index[edge.source], index[edge.target]
        support[source] &= forward | (backward << 1)  # has an outgoing l-edge
        support[target] &= (forward << 1) | backward  # has an incoming l-edge
        arcs.append((source, target, forward, backward))

    def matches(start: int, end: int) -> bool:
        low = start - 1
        interval = ((1 << (end - low + 1)) - 1) << low
        domains = [interval & allowed for allowed in support]
        if not all(domains):
            return False
        changed = True
        while changed:
            changed = False
            for source, target, forward, backward in arcs:
                domain = domains[source]
                other = domains[target]
                pruned = domain & (((other >> 1) & forward) | ((other & backward) << 1))
                if pruned != domain:
                    if not pruned:
                        return False
                    domains[source] = domain = pruned
                    changed = True
                other = domains[target]  # the same domain on a self-loop
                pruned = other & (((domain & forward) << 1) | ((domain >> 1) & backward))
                if pruned != other:
                    if not pruned:
                        return False
                    domains[target] = pruned
                    changed = True
        lowest = [domain & -domain for domain in domains]
        for source, target, forward, backward in arcs:
            left, right = lowest[source], lowest[target]
            if not (
                (right == left << 1 and left & forward)
                or (left == right << 1 and right & backward)
            ):
                raise ClassConstraintError(
                    "minimum-element assignment is not a homomorphism; "
                    "the subpath presumably lacks the X-property"
                )
        return True

    return matches


def _shortest_match_lengths(
    num_edges: int, matches: Callable[[int, int], bool]
) -> List[Optional[int]]:
    """For each edge position ``j`` (1-based), the length of the shortest matching subpath ending at ``j``.

    A subpath is identified by its edge interval ``[i, j]``; ``matches(i,
    j)`` tells whether the connected query has a homomorphism to the
    subgraph induced by the vertices ``a_i .. a_{j+1}``.  Matching is
    monotone under extending the interval (a superpath contains every
    subpath), so the largest matching start position ``I(j)`` is
    non-decreasing in ``j``; a two-pointer sweep therefore finds every
    shortest matching interval with an amortised *linear* number of
    homomorphism tests instead of the naive quadratic scan.  Returns
    ``None`` at positions where no matching subpath ends.
    """
    shortest: List[Optional[int]] = [None] * (num_edges + 1)  # 1-based positions
    largest_start = 0  # 0 means "no matching interval found so far"
    for j in range(1, num_edges + 1):
        if largest_start == 0:
            # The longest candidate ending at j is [1, j]; if even that does
            # not match, nothing ending at j does.
            if not matches(1, j):
                continue
            largest_start = 1
        # [largest_start, j] matches (it extends the previous matching
        # interval); shrink it from the left as far as possible.
        while largest_start < j and matches(largest_start + 1, j):
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
    edges, masks = _path_structure(graph)
    shortest = _shortest_match_lengths(len(edges), _interval_matcher(query, masks))
    for j in range(1, len(edges) + 1):
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
    subpath ending there (or ``None``).  Everything structural is paid at
    compile time: the path order, edge list and label bitmasks once per
    instance component (memoised on its graph), the bitset homomorphism
    tests of the two-pointer sweep once per query;
    :func:`evaluate_two_way_path_skeleton` is pure arithmetic over the
    current edge probabilities.
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
    edges, masks = _path_structure(graph)
    shortest = _shortest_match_lengths(len(edges), _interval_matcher(query, masks))
    return TwoWayPathSkeleton(edges=edges, shortest=tuple(shortest))


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
