"""Proposition 4.10: labeled one-way-path queries on downward-tree instances.

The paper's argument has three steps: (i) the candidate matches of a 1WP
query in a DWT instance are the downward paths with as many edges as the
query — there are linearly many of them because a downward path is determined
by its lowest vertex; (ii) keeping only the label-matching ones yields a
positive DNF lineage; (iii) that lineage is β-acyclic (eliminate variables
bottom-up along the tree), so its probability is computable in polynomial
time by Theorem 4.9.

This module implements that construction (:func:`dwt_path_lineage`) and, as
the certified-polynomial evaluation route, a direct dynamic program
(:func:`phom_labeled_path_on_dwt` with ``method="dp"``): a
Knuth–Morris–Pratt automaton over the query's label string is run down the
tree, and the failure probability is multiplied over independent subtrees.
The state space is ``O(|H| · |G|)`` pairs, each processed in constant time
per child edge, so the overall complexity is ``O(|H| · |G|)`` — the same
bound as the paper's.

Tape-lowering contract: the KMP-automaton dynamic program does its
arithmetic through the context's ``mul``/``add``/``compl``, and
:mod:`repro.tape` lowers it to a flat tape by running it with the tape
builder as the context.  Automaton transitions depend only on labels
(structure), so the control flow is probability-independent — keep it that
way when modifying the DP, or compiled tapes would specialise to the
probabilities seen at compile time.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.exceptions import ClassConstraintError
from repro.graphs.builders import path_query_labels
from repro.graphs.classes import GraphClass, graph_in_class, is_downward_tree, is_one_way_path
from repro.graphs.digraph import DiGraph, Edge, Vertex
from repro.lineage.dnf import PositiveDNF
from repro.numeric import EXACT, Number, NumericContext
from repro.probability.prob_graph import ProbabilisticGraph


# ----------------------------------------------------------------------
# lineage construction (the paper's route)
# ----------------------------------------------------------------------
def dwt_path_lineage(query_labels: Sequence[str], instance: ProbabilisticGraph) -> PositiveDNF:
    """The β-acyclic lineage of the 1WP query ``R1 ... Rm`` on a DWT instance.

    One clause per downward path of ``m`` edges whose label string equals the
    query's; the clause contains exactly the edges of that path.  A query of
    length zero yields the constant-true lineage (the single-vertex query
    always holds).
    """
    graph = instance.graph
    if not is_downward_tree(graph):
        raise ClassConstraintError("dwt_path_lineage requires a downward-tree instance")
    labels = list(query_labels)
    m = len(labels)
    lineage = PositiveDNF()
    if m == 0:
        lineage.add_clause([])
        return lineage
    parent_edge: Dict[Vertex, Optional[Edge]] = {v: None for v in graph.vertices}
    for edge in graph.edges():
        parent_edge[edge.target] = edge
    for bottom in graph.vertices:
        # Walk up m edges from ``bottom``; the walk is unique in a DWT.
        edges_bottom_up: List[Edge] = []
        current = bottom
        while len(edges_bottom_up) < m:
            edge = parent_edge[current]
            if edge is None:
                break
            edges_bottom_up.append(edge)
            current = edge.source
        if len(edges_bottom_up) < m:
            continue
        top_down = list(reversed(edges_bottom_up))
        if all(edge.label == label for edge, label in zip(top_down, labels)):
            lineage.add_clause(top_down)
    return lineage


# ----------------------------------------------------------------------
# KMP machinery for the direct dynamic program
# ----------------------------------------------------------------------
def _prefix_function(pattern: Sequence[str]) -> List[int]:
    """The classic KMP prefix (failure) function of the label pattern."""
    m = len(pattern)
    failure = [0] * (m + 1)
    k = 0
    for i in range(1, m):
        while k > 0 and pattern[i] != pattern[k]:
            k = failure[k]
        if pattern[i] == pattern[k]:
            k += 1
        failure[i + 1] = k
    return failure


def kmp_transition_table(
    pattern: Sequence[str], alphabet: Sequence[str]
) -> Dict[Tuple[int, str], int]:
    """The KMP automaton ``δ(state, letter)`` for the label pattern.

    State ``q`` means "the last ``q`` consecutive present edges spell the
    first ``q`` labels of the pattern"; reaching state ``m`` means a full
    occurrence of the pattern ends at the current edge.
    """
    m = len(pattern)
    failure = _prefix_function(pattern)
    table: Dict[Tuple[int, str], int] = {}
    letters = sorted(set(alphabet) | set(pattern))
    for state in range(m + 1):
        for letter in letters:
            if state < m and letter == pattern[state]:
                table[(state, letter)] = state + 1
                continue
            if state == 0:
                table[(state, letter)] = 0
                continue
            # Follow failure links until a match or state 0.
            fallback = failure[state] if state < m else failure[m]
            table[(state, letter)] = table[(fallback, letter)]
    return table


# ----------------------------------------------------------------------
# compile/evaluate halves (the structural vs arithmetic split)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DWTPathSkeleton:
    """The probability-independent structure of Proposition 4.10's KMP DP.

    Every reachable ``(vertex, KMP state)`` pair of the recursion is
    flattened into one node, listed children-before-parents, and each node
    carries its *ops*: one ``(edge_index, absent_node, present_node)``
    triple per child edge, where ``edge_index`` points into ``edges``,
    ``absent_node`` is the index of ``(child, 0)`` and ``present_node`` the
    index of ``(child, δ(state, label))`` — or ``None`` when the transition
    completes the pattern.  Ops reference edges by dense index so the
    arithmetic pass hashes each edge once (to look its probability up)
    instead of once per ``(vertex, state)`` pair using it.  Compiling pays
    for the KMP table and the reachability walk once; evaluation is a single
    linear pass of products and sums over the current probabilities.
    """

    edges: Tuple[Edge, ...]
    nodes: Tuple[Tuple[Tuple[int, int, Optional[int]], ...], ...]
    root_index: int


def _downward_tree_structure(
    graph: DiGraph,
) -> Tuple[Vertex, Dict[Vertex, Tuple[Edge, ...]]]:
    """The root of a downward tree and every vertex's out-edges in traversal order.

    Memoised on the (frozen) instance graph, so every query compiled
    against the instance walks the tree without rescanning it for the root
    or re-listing a vertex's children.
    """

    def compute() -> Tuple[Vertex, Dict[Vertex, Tuple[Edge, ...]]]:
        root = next(vertex for vertex in graph.vertices if graph.in_degree(vertex) == 0)
        children = {vertex: tuple(graph.out_edges(vertex)) for vertex in graph.vertices}
        return root, children

    return graph.cached("dwt_structure", compute)


def compile_labeled_path_on_dwt(
    query_labels: Sequence[str], graph: DiGraph
) -> DWTPathSkeleton:
    """Compile the structural half of the KMP dynamic program on a DWT."""
    if not graph_in_class(graph, GraphClass.DOWNWARD_TREE):
        raise ClassConstraintError("Proposition 4.10 requires a downward-tree instance")
    pattern = list(query_labels)
    m = len(pattern)
    table = kmp_transition_table(pattern, sorted(graph.labels()))
    root, children = _downward_tree_structure(graph)
    edges: List[Edge] = []
    edge_index: Dict[Edge, int] = {}
    index: Dict[Tuple[Vertex, int], int] = {}
    nodes: List[Tuple[Tuple[int, int, Optional[int]], ...]] = []
    # The post-order of the recursive ``build(vertex, state)`` the DP is
    # stated as, walked with an explicit stack (a recursive closure would
    # keep this working set alive as cyclic garbage).  A frame is (vertex,
    # KMP state, out-edges, ops so far) and works on ``out_edges[len(ops)]``:
    # it pushes the edge's child pairs not yet numbered, then takes the
    # edge; a frame that has taken every edge numbers its node.
    stack = [(root, 0, children[root], [])]
    while stack:
        vertex, state, out_edges, ops = stack[-1]
        if len(ops) == len(out_edges):
            stack.pop()
            index[(vertex, state)] = len(nodes)
            nodes.append(tuple(ops))
            continue
        edge = out_edges[len(ops)]
        child = edge.target
        absent_node = index.get((child, 0))
        if absent_node is None:
            stack.append((child, 0, children[child], []))
            continue
        next_state = table[(state, edge.label)]
        present_node = None
        if next_state < m:
            present_node = index.get((child, next_state))
            if present_node is None:
                stack.append((child, next_state, children[child], []))
                continue
        position = edge_index.get(edge)
        if position is None:
            position = edge_index[edge] = len(edges)
            edges.append(edge)
        ops.append((position, absent_node, present_node))
    return DWTPathSkeleton(
        edges=tuple(edges), nodes=tuple(nodes), root_index=index[(root, 0)]
    )


def evaluate_dwt_path_skeleton(
    skeleton: DWTPathSkeleton,
    probabilities: Mapping[Edge, Fraction],
    context: NumericContext = EXACT,
) -> Number:
    """The arithmetic half: ``Pr(some matching path present)`` over the skeleton.

    Performs exactly the products and sums of the recursive DP, in the same
    order, so exact-mode results are bit-identical to the one-shot route.
    """
    one = context.one
    mul, add, compl = context.mul, context.add, context.compl
    dense = [probabilities[edge] for edge in skeleton.edges]
    complements = [compl(probability) for probability in dense]
    values: List[Number] = []
    append = values.append
    for ops in skeleton.nodes:
        result = one
        for edge_position, absent_node, present_node in ops:
            absent = mul(complements[edge_position], values[absent_node])
            if present_node is None:
                result = mul(result, absent)  # 'present' completes the pattern: mass 0
            else:
                result = mul(
                    result, add(absent, mul(dense[edge_position], values[present_node]))
                )
        append(result)
    return compl(values[skeleton.root_index])


# ----------------------------------------------------------------------
# public solver
# ----------------------------------------------------------------------
def phom_labeled_path_on_dwt(
    query: DiGraph,
    instance: ProbabilisticGraph,
    method: str = "dp",
    context: NumericContext = EXACT,
) -> Number:
    """``Pr(query ⇝ instance)`` for a (labeled) 1WP query on a DWT instance.

    Parameters
    ----------
    query:
        A one-way path query (labels allowed).
    instance:
        A probabilistic downward-tree instance.
    method:
        ``"dp"`` (default) for the KMP dynamic program, ``"lineage"`` for the
        paper's β-acyclic lineage route evaluated by memoised Shannon
        expansion along the reverse β-elimination order.
    context:
        Numeric backend (exact :class:`~fractions.Fraction` by default).
    """
    if not is_one_way_path(query):
        raise ClassConstraintError("Proposition 4.10 requires a one-way path query")
    graph = instance.graph
    if not graph_in_class(graph, GraphClass.DOWNWARD_TREE):
        raise ClassConstraintError("Proposition 4.10 requires a downward-tree instance")
    labels = path_query_labels(query)
    if not labels:
        return context.one
    if method == "dp":
        skeleton = compile_labeled_path_on_dwt(labels, graph)
        return evaluate_dwt_path_skeleton(
            skeleton, context.instance_probabilities(instance), context
        )
    if method == "lineage":
        lineage = dwt_path_lineage(labels, instance)
        return lineage.probability(
            context.instance_probabilities(instance), context=context
        )
    raise ValueError(f"unknown method {method!r}; expected 'dp' or 'lineage'")
