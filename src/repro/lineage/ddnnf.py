"""d-DNNF circuits (Definition 5.3) with linear-time probability computation.

A deterministic decomposable negation normal form circuit is a Boolean
circuit in which

* negation is only applied to input gates,
* the children of every AND gate depend on pairwise disjoint sets of input
  variables (*decomposability*), and
* the children of every OR gate are mutually exclusive (*determinism*).

Under these restrictions the probability of the circuit under independent
variables is computed bottom-up in linear time: AND gates multiply, OR gates
add.  This is the compilation target of the tree-automaton lineage of
Proposition 5.4: the provenance circuit of a *deterministic* bottom-up tree
automaton on an uncertain tree is a d-DNNF, so the probability of the query
follows in polynomial combined complexity.

The class below is a small arena-based DAG of gates.  Structural property
*checkers* are included (syntactic decomposability; exhaustive determinism on
small supports) so the test suite can verify that the circuits produced by
:mod:`repro.automata.provenance` really are d-DNNFs.

Tape-lowering contract
----------------------

The plans' circuit pass (:meth:`DDNNF.evaluate_with`) does its arithmetic
through the context's ``mul``/``add``/``compl``, and :mod:`repro.tape`
lowers it to a flat postfix tape by running it with the tape builder as the
context.  That is sound because the bottom-up pass branches only on circuit
*structure* (gate kinds and wires), never on the probability values flowing
through it; keep it that way — a value-dependent branch (e.g. a
short-circuit on ``p == 0``) would silently specialise compiled tapes to the
probabilities seen at compile time.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Dict, FrozenSet, Hashable, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from typing import Any, Callable

from repro.exceptions import LineageError
from repro.numeric import EXACT, Number, NumericContext

Variable = Hashable


class GateKind(enum.Enum):
    """The kinds of gates a d-DNNF circuit may contain."""

    VAR = "var"
    NOT = "not"
    AND = "and"
    OR = "or"
    TRUE = "true"
    FALSE = "false"


@dataclass(frozen=True)
class Gate:
    """One gate of the circuit: its kind, its variable (for literals) and its children."""

    kind: GateKind
    variable: Optional[Variable] = None
    children: Tuple[int, ...] = ()


class DDNNF:
    """An arena-based d-DNNF circuit.

    Gates are created through the ``add_*`` methods, which return integer
    gate identifiers; the circuit's output gate is set with
    :meth:`set_root`.  Literal gates are hash-consed so repeated requests
    for the same variable reuse the same gate.
    """

    def __init__(self) -> None:
        self._gates: List[Gate] = []
        self._literal_cache: Dict[Tuple[bool, Variable], int] = {}
        self._constant_cache: Dict[GateKind, int] = {}
        self._root: Optional[int] = None
        #: Memoised derived data (supports, literal index, the slot program
        #: of :meth:`evaluate_with`), keyed by the gate count at computation
        #: time so adding gates invalidates lazily.
        self._derived: Dict[str, Tuple[int, Any]] = {}

    def __getstate__(self):
        """Pickle the gates only; derived data is rebuilt on first use."""
        state = self.__dict__.copy()
        state["_derived"] = {}
        return state

    def _cached_derived(self, key: str, compute: Callable[[], Any]) -> Any:
        """Memoise ``compute()`` until the arena grows (gates are append-only)."""
        entry = self._derived.get(key)
        if entry is not None and entry[0] == len(self._gates):
            return entry[1]
        value = compute()
        self._derived[key] = (len(self._gates), value)
        return value

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _add(self, gate: Gate) -> int:
        self._gates.append(gate)
        return len(self._gates) - 1

    def add_var(self, variable: Variable) -> int:
        """The positive literal gate for ``variable``."""
        key = (True, variable)
        if key not in self._literal_cache:
            self._literal_cache[key] = self._add(Gate(GateKind.VAR, variable=variable))
        return self._literal_cache[key]

    def add_not(self, variable: Variable) -> int:
        """The negative literal gate for ``variable`` (negation applies to inputs only)."""
        key = (False, variable)
        if key not in self._literal_cache:
            self._literal_cache[key] = self._add(Gate(GateKind.NOT, variable=variable))
        return self._literal_cache[key]

    def add_true(self) -> int:
        """The constant-true gate."""
        if GateKind.TRUE not in self._constant_cache:
            self._constant_cache[GateKind.TRUE] = self._add(Gate(GateKind.TRUE))
        return self._constant_cache[GateKind.TRUE]

    def add_false(self) -> int:
        """The constant-false gate."""
        if GateKind.FALSE not in self._constant_cache:
            self._constant_cache[GateKind.FALSE] = self._add(Gate(GateKind.FALSE))
        return self._constant_cache[GateKind.FALSE]

    def add_and(self, children: Sequence[int]) -> int:
        """An AND gate over the given children (empty AND is the constant true)."""
        children = tuple(children)
        if not children:
            return self.add_true()
        if len(children) == 1:
            return children[0]
        self._check_children(children)
        return self._add(Gate(GateKind.AND, children=children))

    def add_or(self, children: Sequence[int]) -> int:
        """An OR gate over the given children (empty OR is the constant false)."""
        children = tuple(children)
        if not children:
            return self.add_false()
        if len(children) == 1:
            return children[0]
        self._check_children(children)
        return self._add(Gate(GateKind.OR, children=children))

    def _check_children(self, children: Sequence[int]) -> None:
        for child in children:
            if not (0 <= child < len(self._gates)):
                raise LineageError(f"unknown gate identifier {child!r}")

    def set_root(self, gate: int) -> None:
        """Declare the circuit's output gate."""
        self._check_children([gate])
        self._root = gate

    @property
    def root(self) -> int:
        """The output gate (raises if not set)."""
        if self._root is None:
            raise LineageError("circuit root has not been set")
        return self._root

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------
    def gate(self, gate_id: int) -> Gate:
        """The gate with the given identifier."""
        return self._gates[gate_id]

    def num_gates(self) -> int:
        """Number of gates in the arena."""
        return len(self._gates)

    def num_wires(self) -> int:
        """Total number of child wires (circuit size measure)."""
        return sum(len(g.children) for g in self._gates)

    def variables(self) -> Set[Variable]:
        """The input variables mentioned by the circuit (memoised)."""
        return set(self.literal_index())

    def _supports(self) -> List[FrozenSet[Variable]]:
        """Variable support of every gate, computed bottom-up (memoised)."""
        return self._cached_derived("supports", self._compute_supports)

    def _compute_supports(self) -> List[FrozenSet[Variable]]:
        supports: List[FrozenSet[Variable]] = []
        for gate in self._gates:
            if gate.kind in (GateKind.VAR, GateKind.NOT):
                supports.append(frozenset([gate.variable]))
            elif gate.kind in (GateKind.TRUE, GateKind.FALSE):
                supports.append(frozenset())
            else:
                merged: Set[Variable] = set()
                for child in gate.children:
                    merged |= supports[child]
                supports.append(frozenset(merged))
        return supports

    # ------------------------------------------------------------------
    # literal index
    # ------------------------------------------------------------------
    def literal_index(self) -> Dict[Variable, Tuple[int, ...]]:
        """Variable → identifiers of its literal gates (VAR and NOT; memoised)."""
        return self._cached_derived("literals", self._compute_literal_index)

    def _compute_literal_index(self) -> Dict[Variable, Tuple[int, ...]]:
        index: Dict[Variable, List[int]] = {}
        for gate_id, gate in enumerate(self._gates):
            if gate.kind in (GateKind.VAR, GateKind.NOT):
                index.setdefault(gate.variable, []).append(gate_id)
        return {variable: tuple(gates) for variable, gates in index.items()}

    # ------------------------------------------------------------------
    # semantics
    # ------------------------------------------------------------------
    def evaluate(self, valuation: Mapping[Variable, bool]) -> bool:
        """Evaluate the circuit under a valuation (missing variables default to false)."""
        values: List[bool] = []
        for gate in self._gates:
            if gate.kind is GateKind.VAR:
                values.append(bool(valuation.get(gate.variable, False)))
            elif gate.kind is GateKind.NOT:
                values.append(not valuation.get(gate.variable, False))
            elif gate.kind is GateKind.TRUE:
                values.append(True)
            elif gate.kind is GateKind.FALSE:
                values.append(False)
            elif gate.kind is GateKind.AND:
                values.append(all(values[c] for c in gate.children))
            else:
                values.append(any(values[c] for c in gate.children))
        return values[self.root]

    def probability(
        self,
        probabilities: Mapping[Variable, Fraction],
        context: NumericContext = EXACT,
    ) -> Number:
        """The probability of the circuit under independent variables.

        AND gates multiply and OR gates add, which is only correct because
        of decomposability and determinism; callers constructing circuits by
        hand should validate them with :meth:`is_decomposable` and
        :meth:`is_deterministic`.  ``context`` selects the numeric backend
        (exact :class:`~fractions.Fraction` by default, floats via
        :data:`repro.numeric.FAST`).  This gate-by-gate walk is the
        reference :meth:`evaluate_with` is tested against.
        """
        convert = context.convert
        one = context.one
        zero = context.zero
        values: List[Number] = []
        for gate in self._gates:
            if gate.kind is GateKind.VAR:
                values.append(convert(probabilities[gate.variable]))
            elif gate.kind is GateKind.NOT:
                values.append(one - convert(probabilities[gate.variable]))
            elif gate.kind is GateKind.TRUE:
                values.append(one)
            elif gate.kind is GateKind.FALSE:
                values.append(zero)
            elif gate.kind is GateKind.AND:
                term = one
                for child in gate.children:
                    term *= values[child]
                values.append(term)
            else:
                total = zero
                for child in gate.children:
                    total += values[child]
                values.append(total)
        return values[self.root]

    def evaluate_with(
        self, probabilities: Mapping[Variable, Number], context
    ) -> Number:
        """The pass plans evaluate and lower, on numbers of ``context`` already.

        Same values as :meth:`probability` (identical gate order), over a
        slot program memoised on the circuit, with every operation going
        through the context's ``mul``/``add``/``compl``: the tape builder of
        :mod:`repro.tape`, whose numbers are slot indices, lowers this very
        pass.
        """
        var_slots, not_slots, true_slots, op_slots = self._cached_derived(
            "program", self._compute_program
        )
        one = context.one
        zero = context.zero
        mul, add, compl = context.mul, context.add, context.compl
        # Every read happens here, in literal-index order: a tape numbers
        # its input slots in the order the pass reads the edges.
        table = {variable: probabilities[variable] for variable in self.literal_index()}
        values: List[Number] = [zero] * len(self._gates)
        for gate_id, variable in var_slots:
            values[gate_id] = table[variable]
        for gate_id, variable in not_slots:
            values[gate_id] = compl(table[variable])
        for gate_id in true_slots:
            values[gate_id] = one
        for is_and, gate_id, children in op_slots:
            if is_and:
                term = one
                for child in children:
                    term = mul(term, values[child])
                values[gate_id] = term
            else:
                total = zero
                for child in children:
                    total = add(total, values[child])
                values[gate_id] = total
        return values[self.root]

    def _compute_program(self) -> Tuple[List, List, List, List]:
        # Literal and constant-true slots, then the AND/OR gates in ascending
        # (topological) order: a pass needs no per-gate kind dispatch.
        var_slots, not_slots, true_slots, op_slots = [], [], [], []
        for gate_id, gate in enumerate(self._gates):
            if gate.kind is GateKind.VAR:
                var_slots.append((gate_id, gate.variable))
            elif gate.kind is GateKind.NOT:
                not_slots.append((gate_id, gate.variable))
            elif gate.kind is GateKind.TRUE:
                true_slots.append(gate_id)
            elif gate.kind in (GateKind.AND, GateKind.OR):
                op_slots.append((gate.kind is GateKind.AND, gate_id, gate.children))
        return var_slots, not_slots, true_slots, op_slots

    # ------------------------------------------------------------------
    # property checkers (used by the test suite)
    # ------------------------------------------------------------------
    def is_decomposable(self) -> bool:
        """Whether every AND gate has children with pairwise disjoint supports."""
        supports = self._supports()
        for gate in self._gates:
            if gate.kind is not GateKind.AND:
                continue
            seen: Set[Variable] = set()
            for child in gate.children:
                if supports[child] & seen:
                    return False
                seen |= supports[child]
        return True

    def is_deterministic(self, max_support: int = 16) -> bool:
        """Whether every OR gate has mutually exclusive children.

        The check is semantic and exhaustive over the support of each OR
        gate, so it is limited to gates whose support has at most
        ``max_support`` variables; a larger support raises
        :class:`~repro.exceptions.LineageError` rather than silently
        checking nothing.

        Each OR gate's cone (the sub-DAG below it) is evaluated *iteratively*
        with one shared value table per valuation, so gates shared between
        children are computed once per valuation instead of once per path —
        the naive recursive walk is exponential on shared sub-DAGs.
        """
        supports = self._supports()

        def cone_of(gate_id: int) -> List[int]:
            """Gate identifiers reachable below ``gate_id``, ascending (topological)."""
            seen: Set[int] = set()
            stack = [gate_id]
            while stack:
                current = stack.pop()
                if current in seen:
                    continue
                seen.add(current)
                stack.extend(self._gates[current].children)
            return sorted(seen)

        for gate_id, gate in enumerate(self._gates):
            if gate.kind is not GateKind.OR or len(gate.children) < 2:
                continue
            support = sorted(supports[gate_id], key=repr)
            if len(support) > max_support:
                raise LineageError(
                    f"OR gate support of size {len(support)} exceeds max_support={max_support}"
                )
            cone = cone_of(gate_id)
            for bits in product((False, True), repeat=len(support)):
                valuation = dict(zip(support, bits))
                values: Dict[int, bool] = {}
                for current in cone:
                    g = self._gates[current]
                    if g.kind is GateKind.VAR:
                        values[current] = bool(valuation.get(g.variable, False))
                    elif g.kind is GateKind.NOT:
                        values[current] = not valuation.get(g.variable, False)
                    elif g.kind is GateKind.TRUE:
                        values[current] = True
                    elif g.kind is GateKind.FALSE:
                        values[current] = False
                    elif g.kind is GateKind.AND:
                        values[current] = all(values[c] for c in g.children)
                    else:
                        values[current] = any(values[c] for c in g.children)
                true_children = sum(1 for c in gate.children if values[c])
                if true_children > 1:
                    return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DDNNF(gates={self.num_gates()}, wires={self.num_wires()}, vars={len(self.variables())})"
