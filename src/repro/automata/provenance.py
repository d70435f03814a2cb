"""Provenance (lineage) circuits of deterministic tree automata on uncertain trees.

Following [5, Proposition 3.1] and [6, Theorem 6.11] (as used by
Proposition 5.4), the lineage of a bottom-up *deterministic* tree automaton
``A`` on an uncertain tree ``T`` — the Boolean function over the uncertain
nodes' variables that is true exactly on the annotations making ``A``
accept — can be compiled into a d-DNNF circuit of size
``O(|A| · |T|)``:

* for every tree node ``x`` and every state ``q`` reachable at ``x``, the
  circuit has a gate ``g[x][q]`` that is true under an annotation iff the run
  of ``A`` on the subtree of ``x`` ends in state ``q``;
* the gate is an OR over the node's possible annotations (and, for internal
  nodes, over pairs of child states) of ANDs combining the node's literal
  with the child gates — the OR is *deterministic* because the automaton is
  deterministic (each annotation yields exactly one run), and the ANDs are
  *decomposable* because the node variable and the two child subtrees carry
  disjoint variables;
* the circuit output is the OR of ``g[root][q]`` over accepting states
  ``q``, deterministic for the same reason.

Probability computation on the resulting circuit is linear
(:meth:`repro.lineage.ddnnf.DDNNF.probability`), which yields the
polynomial combined complexity of Proposition 5.4.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Tuple

from repro.automata.binary_tree import BinaryTreeNode, UncertainBinaryTree
from repro.automata.tree_automaton import BottomUpTreeAutomaton
from repro.lineage.ddnnf import DDNNF

State = Hashable


def provenance_circuit(
    automaton: BottomUpTreeAutomaton, tree: UncertainBinaryTree
) -> DDNNF:
    """Compile the lineage of ``automaton`` on ``tree`` into a d-DNNF circuit.

    The circuit's variables are the ``variable`` fields of the tree nodes
    (the original instance edges); structural nodes (``variable is None``)
    are treated as always present and contribute no literal.
    """
    circuit = DDNNF()
    root_gates = _compile_node(automaton, circuit, tree.root)
    accepting_gates = [gate for state, gate in root_gates.items() if automaton.accepting(state)]
    root = circuit.add_or(accepting_gates) if accepting_gates else circuit.add_false()
    circuit.set_root(root)
    return circuit


def _literal_gates(circuit: DDNNF, node: BinaryTreeNode) -> Dict[bool, Optional[int]]:
    """Gate of the literal asserting the node's annotation bit, or ``None`` for 'true'."""
    if node.variable is None:
        # Structural node: annotation is always 1, the 0 branch is dead.
        return {True: None}
    return {True: circuit.add_var(node.variable), False: circuit.add_not(node.variable)}


def _compile_node(
    automaton: BottomUpTreeAutomaton, circuit: DDNNF, node: BinaryTreeNode
) -> Dict[State, int]:
    """The gates ``g[node][q]``, one per state ``q`` reachable at ``node``.

    A plain function, not a closure: a recursive closure references itself,
    and would keep every circuit build alive as cyclic garbage.
    """
    literals = _literal_gates(circuit, node)
    gates: Dict[State, List[int]] = {}
    if node.is_leaf():
        for bit, literal in literals.items():
            state = automaton.initial((node.label, bit))
            gate = circuit.add_true() if literal is None else literal
            gates.setdefault(state, []).append(gate)
    else:
        left_gates = _compile_node(automaton, circuit, node.left)
        right_gates = _compile_node(automaton, circuit, node.right)
        for bit, literal in literals.items():
            for left_state, left_gate in left_gates.items():
                for right_state, right_gate in right_gates.items():
                    state = automaton.transition((node.label, bit), left_state, right_state)
                    parts = [left_gate, right_gate]
                    if literal is not None:
                        parts.append(literal)
                    gates.setdefault(state, []).append(circuit.add_and(parts))
    return {state: circuit.add_or(alternatives) for state, alternatives in gates.items()}
