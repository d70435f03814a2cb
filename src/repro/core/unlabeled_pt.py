"""Propositions 5.4 and 5.5: unlabeled path/tree queries on polytree instances.

``PHom(1WP, PT)`` in the unlabeled setting asks for the probability that a
possible world of a polytree contains a directed path of at least ``m``
edges.  Proposition 5.4 solves it by compiling a deterministic bottom-up tree
automaton (:mod:`repro.automata.path_automaton`) over the binary encoding of
the instance into a d-DNNF lineage circuit and evaluating its probability —
everything polynomial in ``|G| · |H|``.

Proposition 5.5 extends the result to downward-tree queries and disjoint
unions thereof: in the unlabeled setting such a query is equivalent to the
one-way path whose length is the query's longest directed path (its height),
so it suffices to collapse the query and reuse Proposition 5.4.

Both an automaton route and a direct message-passing dynamic program over the
original polytree are provided; they implement the same state space
(⟨up, down, best⟩ capped at ``m``) and are cross-checked in the tests.

Tape-lowering contract: both routes (the d-DNNF evaluation and the
message-passing DP) do their arithmetic through the context's
``mul``/``add``/``compl``, and :mod:`repro.tape` lowers them to flat tapes by
running them with the tape builder as the context.  Their control flow —
automaton transitions, state-vector indexing, message schedules — depends
only on graph structure, never on probability values; preserve that
invariant when modifying either route.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Tuple

from repro.exceptions import ClassConstraintError
from repro.automata.binary_tree import LABEL_UP, _rooted_children, encode_polytree
from repro.automata.path_automaton import build_longest_path_automaton
from repro.automata.provenance import provenance_circuit
from repro.graphs.classes import (
    GraphClass,
    graph_in_class,
    is_one_way_path,
    is_polytree,
)
from repro.graphs.digraph import DiGraph, Edge, Vertex
from repro.lineage.ddnnf import DDNNF
from repro.numeric import EXACT, Number, NumericContext
from repro.probability.prob_graph import ProbabilisticGraph


# ----------------------------------------------------------------------
# Proposition 5.4: compile/evaluate halves of both routes
# ----------------------------------------------------------------------
def compile_path_circuit_on_polytree(
    path_length: int, instance: ProbabilisticGraph
) -> DDNNF:
    """Compile the d-DNNF lineage of ``→^m ⇝ instance`` (structural half).

    The circuit's shape depends only on the instance *graph* and the path
    length — the tree encoding, the automaton and the provenance
    construction never look at the edge probabilities — so one compiled
    circuit serves every probability assignment of the same instance.
    """
    tree = encode_polytree(instance)
    automaton = build_longest_path_automaton(path_length)
    return provenance_circuit(automaton, tree)


def _automaton_probability(
    path_length: int, instance: ProbabilisticGraph, context: NumericContext = EXACT
) -> Number:
    """Probability of a directed path of ``path_length`` edges, via d-DNNF compilation."""
    circuit = compile_path_circuit_on_polytree(path_length, instance)
    return circuit.probability(context.instance_probabilities(instance), context=context)


@dataclass(frozen=True)
class PolytreeDPSkeleton:
    """The probability-independent structure of Proposition 5.4's direct DP.

    ``order`` lists the vertices of the (arbitrarily rooted) underlying tree
    children-before-parents; ``children`` gives each vertex's fold sequence
    ``(child, direction, edge)`` exactly as the recursive DP visits it.  The
    rooting BFS is paid at compile time; evaluation folds distributions in
    the same order as the one-shot route, so exact results are bit-identical.
    """

    path_length: int
    order: Tuple[Vertex, ...]
    children: Mapping[Vertex, Tuple[Tuple[Vertex, str, Edge], ...]]


def compile_path_dp_on_polytree(path_length: int, graph: DiGraph) -> PolytreeDPSkeleton:
    """Compile the structural half of the message-passing DP on a polytree."""
    if not is_polytree(graph):
        raise ClassConstraintError("Proposition 5.4 requires a polytree instance")
    root = min(graph.vertices, key=repr)
    children = _rooted_children(graph, root)
    order: List[Vertex] = []
    stack: List[Tuple[Vertex, bool]] = [(root, False)]
    while stack:
        vertex, expanded = stack.pop()
        if expanded:
            order.append(vertex)
            continue
        stack.append((vertex, True))
        for child, _direction, _edge in reversed(children[vertex]):
            stack.append((child, False))
    return PolytreeDPSkeleton(
        path_length=path_length,
        order=tuple(order),
        children={vertex: tuple(folds) for vertex, folds in children.items()},
    )


def evaluate_polytree_dp_skeleton(
    skeleton: PolytreeDPSkeleton,
    probabilities: Mapping[Edge, Fraction],
    context: NumericContext = EXACT,
) -> Number:
    """The arithmetic half: fold ⟨up, down, best⟩ distributions bottom-up."""
    m = skeleton.path_length
    zero = context.zero
    mul, add, compl = context.mul, context.add, context.compl

    def cap(value: int) -> int:
        return min(m, value)

    distributions: Dict[Vertex, Dict[Tuple[int, int, int], Number]] = {}
    for vertex in skeleton.order:
        dist: Dict[Tuple[int, int, int], Number] = {(0, 0, 0): context.one}
        for child, direction, edge in skeleton.children[vertex]:
            child_dist = distributions.pop(child)
            probability = probabilities[edge]
            updated: Dict[Tuple[int, int, int], Number] = {}
            for (up, down, best), mass in dist.items():
                for (c_up, c_down, c_best), c_mass in child_dist.items():
                    weight = mul(mass, c_mass)
                    # Edge absent: only the child's internal best survives.
                    absent_state = (up, down, cap(max(best, c_best)))
                    updated[absent_state] = add(
                        updated.get(absent_state, zero), mul(weight, compl(probability))
                    )
                    # Edge present: extend paths through the current vertex.
                    if direction == LABEL_UP:
                        new_up = cap(max(up, c_up + 1))
                        new_down = down
                        new_best = cap(max(best, c_best, new_up, c_up + 1 + down))
                    else:
                        new_down = cap(max(down, c_down + 1))
                        new_up = up
                        new_best = cap(max(best, c_best, new_down, up + 1 + c_down))
                    present_state = (new_up, new_down, new_best)
                    updated[present_state] = add(
                        updated.get(present_state, zero), mul(weight, probability)
                    )
            dist = updated
        distributions[vertex] = dist

    total = zero
    for (_up, _down, best), mass in distributions[skeleton.order[-1]].items():
        if best >= m:
            total = add(total, mass)
    return total


def _direct_dp_probability(
    path_length: int, instance: ProbabilisticGraph, context: NumericContext = EXACT
) -> Number:
    """Probability of a directed path of ``path_length`` edges, via message passing.

    The state distribution at a vertex ``v`` ranges over triples
    ``(up, down, best)`` capped at ``m`` describing the part of the world
    inside the subtree of ``v`` (w.r.t. an arbitrary rooting of the underlying
    undirected tree).  Children are folded in one at a time; the fold is
    exactly the automaton transition of Proposition 5.4, applied to
    distributions instead of single states.  Implemented as compile +
    evaluate over the rooted skeleton.
    """
    skeleton = compile_path_dp_on_polytree(path_length, instance.graph)
    return evaluate_polytree_dp_skeleton(
        skeleton, context.instance_probabilities(instance), context
    )


def phom_unlabeled_path_on_polytree(
    path_length: int,
    instance: ProbabilisticGraph,
    method: str = "automaton",
    context: NumericContext = EXACT,
) -> Number:
    """``Pr(→^m ⇝ instance)`` for an unlabeled path query of ``path_length`` edges on a polytree.

    Parameters
    ----------
    path_length:
        The number of edges ``m`` of the one-way path query.
    instance:
        A probabilistic polytree instance (labels are ignored: the query is
        unlabeled, so Proposition 5.4 applies to the unlabeled setting only —
        the dispatcher checks that before routing here).
    method:
        ``"automaton"`` (default) for the tree-automaton + d-DNNF route of
        the paper, ``"dp"`` for the direct message-passing dynamic program.
    """
    if not is_polytree(instance.graph):
        raise ClassConstraintError("Proposition 5.4 requires a polytree instance")
    if path_length < 0:
        raise ValueError("the path length must be non-negative")
    if path_length == 0:
        return context.one
    if method == "automaton":
        return _automaton_probability(path_length, instance, context)
    if method == "dp":
        return _direct_dp_probability(path_length, instance, context)
    raise ValueError(f"unknown method {method!r}; expected 'automaton' or 'dp'")


# ----------------------------------------------------------------------
# Proposition 5.5: collapsing DWT / ⊔DWT queries to their height
# ----------------------------------------------------------------------
def collapse_query_to_path_length(query: DiGraph) -> int:
    """The length of the 1WP query equivalent to an unlabeled ⊔DWT query.

    For a downward tree this is its height (longest directed root-to-leaf
    path); for a disjoint union of downward trees, the greatest height of a
    component (Proposition 5.5).  One-way-path queries are downward trees,
    so they are covered as well.
    """
    if not graph_in_class(query, GraphClass.UNION_DOWNWARD_TREE):
        raise ClassConstraintError(
            "query collapse requires a downward-tree query or a disjoint union of downward trees"
        )
    return query.longest_directed_path_length()


def phom_unlabeled_tree_query_on_polytree(
    query: DiGraph,
    instance: ProbabilisticGraph,
    method: str = "automaton",
    context: NumericContext = EXACT,
) -> Number:
    """``Pr(query ⇝ instance)`` for an unlabeled ⊔DWT query on a polytree instance.

    Implements Proposition 5.5 by collapsing the query to the equivalent
    one-way path and delegating to Proposition 5.4.
    """
    length = collapse_query_to_path_length(query)
    return phom_unlabeled_path_on_polytree(length, instance, method=method, context=context)
