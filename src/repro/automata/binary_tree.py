"""Uncertain full binary trees and the binary encoding of polytree instances.

Proposition 5.4 runs tree automata on *full binary* trees (every node has 0
or 2 children), so the polytree instance must first be binarised.  We use a
child-spine encoding in the spirit of the paper's appendix (a variant of the
left-child-right-sibling encoding with ε nodes):

* the underlying undirected tree of the polytree is rooted at an arbitrary
  vertex;
* the fragment of an original node ``n`` is the spine of its children: each
  spine node ("attach node") carries one original edge ``n — c`` (its
  direction relative to the rooting — ``up`` when the edge points from the
  child towards ``n``, ``down`` when it points from ``n`` to the child — and
  its probability), has the encoding of the child's fragment as left child
  and the continuation of the spine as right child;
* the spine ends with an ``ε`` leaf, and a childless original node is encoded
  by an ``ε`` leaf alone.

The binary subtree rooted at a spine node therefore represents the original
node ``n`` together with a suffix of its children subtrees — exactly the
invariant the longest-path automaton of :mod:`repro.automata.path_automaton`
relies on.  Every original edge appears on exactly one attach node, so the
attach nodes' Boolean annotations are in bijection with the possible worlds
of the instance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Tuple

from repro.exceptions import AutomatonError, ClassConstraintError
from repro.graphs.classes import is_polytree
from repro.graphs.digraph import DiGraph, Edge, Vertex
from repro.probability.prob_graph import ProbabilisticGraph

#: Node label: the original edge points from the child towards the parent.
LABEL_UP = "up"
#: Node label: the original edge points from the parent towards the child.
LABEL_DOWN = "down"
#: Node label: structural node with no original edge attached.
LABEL_EPSILON = "eps"

#: The alphabet Γ of the uncertain trees produced by :func:`encode_polytree`.
ALPHABET: Tuple[str, ...] = (LABEL_UP, LABEL_DOWN, LABEL_EPSILON)


@dataclass
class BinaryTreeNode:
    """One node of an uncertain full binary tree.

    Attributes
    ----------
    label:
        A letter of the alphabet Γ (for polytree encodings: ``up``, ``down``
        or ``eps``).
    probability:
        The probability that the node's Boolean annotation is 1.
    variable:
        The Boolean variable this node stands for (an instance
        :class:`~repro.graphs.digraph.Edge`), or ``None`` for structural
        nodes whose annotation is always 1.
    left, right:
        The children; either both present (internal node) or both absent
        (leaf), so that the tree is full binary.
    """

    label: str
    probability: Fraction = Fraction(1)
    variable: Optional[Edge] = None
    left: Optional["BinaryTreeNode"] = None
    right: Optional["BinaryTreeNode"] = None

    def is_leaf(self) -> bool:
        """Whether the node has no children."""
        return self.left is None and self.right is None

    def validate(self) -> None:
        """Check the full-binary invariant on the subtree rooted here."""
        if (self.left is None) != (self.right is None):
            raise AutomatonError("binary tree nodes must have zero or two children")
        if self.left is not None:
            self.left.validate()
        if self.right is not None:
            self.right.validate()


@dataclass
class UncertainBinaryTree:
    """An uncertain full binary tree together with its variable inventory."""

    root: BinaryTreeNode
    variables: List[Edge] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.root.validate()

    def nodes(self) -> Iterator[BinaryTreeNode]:
        """All nodes, in a post-order traversal (children before parents)."""
        stack: List[Tuple[BinaryTreeNode, bool]] = [(self.root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded or node.is_leaf():
                yield node
            else:
                stack.append((node, True))
                if node.right is not None:
                    stack.append((node.right, False))
                if node.left is not None:
                    stack.append((node.left, False))

    def num_nodes(self) -> int:
        """Number of nodes in the tree."""
        return sum(1 for _ in self.nodes())

    def depth(self) -> int:
        """The depth (number of edges on the longest root-to-leaf path)."""
        deepest = 0
        stack = [(self.root, 0)]
        while stack:
            node, depth = stack.pop()
            if node.is_leaf():
                deepest = max(deepest, depth)
            else:
                stack.append((node.left, depth + 1))
                stack.append((node.right, depth + 1))
        return deepest


def _rooted_children(
    graph: DiGraph, root: Vertex
) -> Dict[Vertex, List[Tuple[Vertex, str, Edge]]]:
    """Children lists of the underlying undirected tree rooted at ``root``.

    Each entry maps a vertex ``n`` to the list of ``(child, direction,
    original_edge)`` triples, where ``direction`` is :data:`LABEL_UP` when
    the original edge is ``child -> n`` and :data:`LABEL_DOWN` when it is
    ``n -> child``.
    """
    children: Dict[Vertex, List[Tuple[Vertex, str, Edge]]] = {v: [] for v in graph.vertices}
    visited = {root}
    stack = [root]
    while stack:
        current = stack.pop()
        for neighbour in sorted(graph.undirected_neighbours(current), key=repr):
            if neighbour in visited:
                continue
            visited.add(neighbour)
            if graph.has_edge(neighbour, current):
                direction = LABEL_UP
                edge = graph.get_edge(neighbour, current)
            else:
                direction = LABEL_DOWN
                edge = graph.get_edge(current, neighbour)
            children[current].append((neighbour, direction, edge))
            stack.append(neighbour)
    return children


def encode_polytree(
    instance: ProbabilisticGraph, root: Optional[Vertex] = None
) -> UncertainBinaryTree:
    """Encode a probabilistic polytree instance as an uncertain full binary tree.

    Parameters
    ----------
    instance:
        A probabilistic graph whose underlying graph is a polytree.
    root:
        Optional root vertex for the undirected rooting; defaults to the
        lexicographically smallest vertex.  The encoding (and hence the
        lineage circuit) depends on the rooting, but the computed
        probability does not.

    Raises
    ------
    ClassConstraintError:
        If the instance graph is not a polytree.
    """
    graph = instance.graph
    if not is_polytree(graph):
        raise ClassConstraintError("encode_polytree requires a polytree instance")
    if root is None:
        root = min(graph.vertices, key=repr)
    elif not graph.has_vertex(root):
        raise AutomatonError(f"root {root!r} is not a vertex of the instance")
    children = _rooted_children(graph, root)
    variables: List[Edge] = []
    tree_root = _encode_fragment(children[root], children, instance, variables)
    return UncertainBinaryTree(root=tree_root, variables=variables)


def _encode_fragment(
    remaining: List[Tuple[Vertex, str, Edge]],
    children: Dict[Vertex, List[Tuple[Vertex, str, Edge]]],
    instance: ProbabilisticGraph,
    variables: List[Edge],
) -> BinaryTreeNode:
    """The spine of a vertex's ``remaining`` children, appending its edges to ``variables``.

    A plain function, not a closure over :func:`encode_polytree`'s locals: a
    recursive closure references itself, and would keep every encoding
    alive as cyclic garbage.
    """
    if not remaining:
        return BinaryTreeNode(label=LABEL_EPSILON, probability=Fraction(1), variable=None)
    child, direction, edge = remaining[0]
    variables.append(edge)
    return BinaryTreeNode(
        label=direction,
        probability=instance.probability(edge),
        variable=edge,
        left=_encode_fragment(children[child], children, instance, variables),
        right=_encode_fragment(remaining[1:], children, instance, variables),
    )
