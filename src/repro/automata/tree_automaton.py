"""Bottom-up deterministic tree automata on full binary trees (Definition 5.2).

An automaton ``A = (Q, F, ι, Δ)`` runs on full binary trees whose nodes are
labeled by an alphabet ``Γ̄``; here ``Γ̄ = Γ × {0, 1}`` because the trees of
Proposition 5.4 are *uncertain*: each node carries a base label from ``Γ``
and a Boolean annotation saying whether the corresponding instance edge is
present in the possible world.

* ``ι : Γ̄ → Q`` gives the state of a leaf from its (annotated) label;
* ``Δ : Γ̄ × Q² → Q`` gives the state of an internal node from its
  (annotated) label and the states of its two (ordered) children;
* the automaton accepts when the root's state is in ``F``.

Determinism (``ι`` and ``Δ`` are functions) is what makes the provenance
circuit of :mod:`repro.automata.provenance` a d-DNNF.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Hashable, Iterable, Mapping, Optional, Set, Tuple

from repro.exceptions import AutomatonError
from repro.automata.binary_tree import BinaryTreeNode, UncertainBinaryTree
from repro.graphs.digraph import Edge

State = Hashable
#: Annotated letter: a base label from Γ together with a Boolean annotation.
AnnotatedLabel = Tuple[str, bool]


@dataclass
class BottomUpTreeAutomaton:
    """A bottom-up deterministic tree automaton on annotated full binary trees.

    The transition maps may be given extensionally (dictionaries) or
    intensionally (callables); the latter keeps polynomially-large automata
    such as the longest-path automaton small in memory, while
    :meth:`materialise` can still produce the explicit transition tables
    over a given set of reachable states when needed.
    """

    alphabet: FrozenSet[str]
    accepting: Callable[[State], bool]
    initial: Callable[[AnnotatedLabel], State]
    transition: Callable[[AnnotatedLabel, State, State], State]
    description: str = "bottom-up deterministic tree automaton"

    # ------------------------------------------------------------------
    # runs
    # ------------------------------------------------------------------
    def _check_label(self, label: str) -> None:
        if label not in self.alphabet:
            raise AutomatonError(f"label {label!r} is not in the automaton alphabet")

    def run_annotated(
        self, tree: UncertainBinaryTree, annotation: Mapping[Edge, bool]
    ) -> State:
        """The root state of the run on ``tree`` under the given edge annotation.

        Nodes whose ``variable`` is ``None`` (structural ε nodes) are always
        annotated 1; other nodes read their annotation from ``annotation``
        (missing edges default to absent).
        """
        return self._state_of(tree.root, annotation)

    def _state_of(self, node: BinaryTreeNode, annotation: Mapping[Edge, bool]) -> State:
        self._check_label(node.label)
        bit = True if node.variable is None else bool(annotation.get(node.variable, False))
        letter: AnnotatedLabel = (node.label, bit)
        if node.is_leaf():
            return self.initial(letter)
        left_state = self._state_of(node.left, annotation)
        right_state = self._state_of(node.right, annotation)
        return self.transition(letter, left_state, right_state)

    def accepts(self, tree: UncertainBinaryTree, annotation: Mapping[Edge, bool]) -> bool:
        """Whether the automaton accepts ``tree`` under the given annotation."""
        return bool(self.accepting(self.run_annotated(tree, annotation)))

    # ------------------------------------------------------------------
    # reachable-state exploration (used by tests and the ablation bench)
    # ------------------------------------------------------------------
    def reachable_states(self, tree: UncertainBinaryTree) -> Set[State]:
        """All states reachable at some node of ``tree`` under *some* annotation.

        Computed bottom-up: the reachable set of a node is the image of its
        children's reachable sets under both annotations of the node.  This
        is exactly the state space the provenance circuit will instantiate.
        """
        return self._reachable_at(tree.root)

    def _reachable_at(self, node: BinaryTreeNode) -> Set[State]:
        self._check_label(node.label)
        bits = (True,) if node.variable is None else (False, True)
        if node.is_leaf():
            return {self.initial((node.label, bit)) for bit in bits}
        left_states = self._reachable_at(node.left)
        right_states = self._reachable_at(node.right)
        states: Set[State] = set()
        for bit in bits:
            for ls in left_states:
                for rs in right_states:
                    states.add(self.transition((node.label, bit), ls, rs))
        return states

    def materialise(
        self, states: Iterable[State]
    ) -> Tuple[Dict[AnnotatedLabel, State], Dict[Tuple[AnnotatedLabel, State, State], State]]:
        """Explicit initialisation and transition tables over the given states.

        Only meaningful for small state sets; used by the documentation
        examples and by tests that inspect the automaton structure.
        """
        state_list = list(states)
        init_table: Dict[AnnotatedLabel, State] = {}
        delta_table: Dict[Tuple[AnnotatedLabel, State, State], State] = {}
        for label in sorted(self.alphabet):
            for bit in (False, True):
                letter = (label, bit)
                init_table[letter] = self.initial(letter)
                for left in state_list:
                    for right in state_list:
                        delta_table[(letter, left, right)] = self.transition(letter, left, right)
        return init_table, delta_table
