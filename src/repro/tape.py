"""Flat postfix tapes: compiled plans lowered to array programs.

A :class:`~repro.plan.CompiledPlan` separates the structural phase from
the arithmetic, but its arithmetic half is written over Python object
graphs — circuit arenas, skeleton tuples, dict-keyed distributions — and
the serving layer's dominant access pattern (one plan, many drifted
probability tables) would pay that interpretation per valuation.  This
module lowers a plan one level further, to a :class:`PlanTape`, the only
runtime a plan evaluates on: a flat register program over parallel arrays

* ``opcodes`` / ``dsts`` / ``lhs`` / ``rhs`` — one entry per operation, in
  dependency (topological) order, over a semiring-with-complement opcode set
  (:data:`OP_COMPL`, :data:`OP_ADD`, :data:`OP_MUL`);
* a *constant pool* mapping register slots to exact
  :class:`~fractions.Fraction` constants;
* an *edge-slot indirection*: which input register each instance edge's
  probability is loaded into.

Evaluation is a single non-recursive loop — no gate dispatch, no dict
hashing, no recursion — and :meth:`PlanTape.evaluate_many` answers a whole
batch of probability valuations in one structural pass.  The executor is
picked from what the batch is, never by the caller: one valuation, or an
exact batch, replays the scalar loop per valuation; a float batch
vectorizes each operation across its lanes, on numpy when
:func:`repro.numeric.numpy_module` returns it and on stdlib lists
otherwise.

Exact mode replays on plain Python integers instead of
:class:`~fractions.Fraction` registers: with ``D`` the lcm of the input
and constant denominators, each slot holds an integer ``X`` standing for
``X / D**e``, where the exponent ``e`` is a static property of the slot
(1 for inputs and constants, summed by ``mul``, the maximum of the operand
exponents for ``add``).  No operation pays a gcd; one ``Fraction``
is built at the root, so results are bit-identical to Fraction arithmetic.

How tapes are compiled
----------------------

Every probability kernel — the interval DP of Proposition 4.11, the KMP DP
of Proposition 4.10, the polytree distribution fold and the d-DNNF circuit
of Proposition 5.4, and the Lemma 3.7 survival product over components —
does its arithmetic through a context's ``mul``, ``add`` and ``compl``
(``1 - x``) rather than through operators.  With a
:class:`~repro.numeric.NumericContext` it computes a number; the compiler
instead calls ``plan._evaluate_with`` with the tape builder as the context,
whose numbers are slot indices and whose operations append tape ops, and
with a lazy probability table that allocates an input slot the first time
an edge's probability is read.  Every route is thereby lowered *by running
it* (direct emission), with zero duplicated logic: the tape performs the
same operations in the same order as the numeric evaluation, so exact-mode
results are bit-identical by construction.  (The kernels branch only on
*structural* data — interval thresholds, KMP states, distribution keys —
never on probability values, which is what makes this sound.)

The only rewrites applied are identity peepholes (``0 + x → x``,
``1 * x → x``, ``0 * x → 0``, ``1 - x`` folded to one complement op, and
complement sharing), all of which are bitwise-exact in both precisions for
the non-negative finite values probabilities produce.  A caching
:class:`~repro.core.solver.PHomSolver` lowers every tractable plan when it
compiles it, so plans reach the evaluator, the serving workers and the
persistent store with their tape.

Brute-force :class:`~repro.plan.FallbackPlan` objects have no arithmetic
half, so they cannot be lowered: :func:`compile_plan_tape` raises
:class:`~repro.exceptions.PlanError` for them.

>>> from repro import DiGraph, ProbabilisticGraph, one_way_path, PHomSolver
>>> H = DiGraph()
>>> _ = H.add_edge("a", "b", "R"); _ = H.add_edge("b", "c", "S")
>>> instance = ProbabilisticGraph(H, {("a", "b"): "1/2", ("b", "c"): "1/3"})
>>> plan = PHomSolver().compile(one_way_path(["R", "S"]), instance)
>>> tape = plan.tape()
>>> tape.evaluate(dict(instance.probabilities_view())) == plan.evaluate()
True
"""

from __future__ import annotations

from array import array
from fractions import Fraction
from math import lcm
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.exceptions import PlanError
from repro.graphs.digraph import Edge
from repro.numeric import Number, NumericContext, numpy_module, resolve_context
from repro.obs.trace import current_tracer

#: Opcodes of the tape instruction set.  ``COMPL`` is the semiring
#: complement ``dst = 1 - lhs`` (``rhs`` unused); the rest are binary.
#: Every kernel subtracts only as ``1 - x``, so these three suffice.
OP_COMPL = 0
OP_ADD = 1
OP_MUL = 2

#: Human-readable opcode names (docs, ``describe()``, error messages).
OPCODE_NAMES = {OP_COMPL: "compl", OP_ADD: "add", OP_MUL: "mul"}

#: Opcodes of the exact integer replay: the tape opcodes with the operand
#: pre-scaling of ``add`` resolved statically (``_L``: the left operand is
#: multiplied by ``D**shift``, ``_R``: the right one).
_X_MUL, _X_ADD, _X_ADD_L, _X_ADD_R, _X_COMPL = range(5)

#: The builder interns the constants 0 and 1 before anything else, so they
#: always sit in these slots; the peepholes compare against them.
_ZERO_SLOT, _ONE_SLOT = 0, 1
_ZERO, _ONE = Fraction(0), Fraction(1)


class _TapeBuilder:
    """Accumulates slots, constants and operations during lowering.

    The builder is the lowering's numeric context: it has the
    :class:`~repro.numeric.NumericContext` members the kernels use
    (``zero``, ``one``, ``convert``, ``mul``, ``add``, ``compl``),
    its numbers are slot indices, and each operation emits one tape op or
    folds through an identity peephole.
    """

    name = "tape"

    def __init__(self) -> None:
        self.num_slots = 2
        self._const_slots: Dict[Fraction, int] = {_ZERO: _ZERO_SLOT, _ONE: _ONE_SLOT}
        self.consts: List[Tuple[int, Fraction]] = [(_ZERO_SLOT, _ZERO), (_ONE_SLOT, _ONE)]
        # Plain int lists: a lowering allocates no GC-tracked object per op
        # (a tuple per op would trigger collections of the whole heap).
        self.opcodes: List[int] = []
        self.dsts: List[int] = []
        self.lhs: List[int] = []
        self.rhs: List[int] = []
        #: Complement sharing: operand slot -> slot holding ``1 - operand``.
        self._compl_cache: Dict[int, int] = {}
        self.zero, self.one = _ZERO_SLOT, _ONE_SLOT

    def new_slot(self) -> int:
        slot = self.num_slots
        self.num_slots = slot + 1
        return slot

    def convert(self, value: Any) -> int:
        """The (deduplicated) constant-pool slot holding ``value``."""
        value = Fraction(value)
        slot = self._const_slots.get(value)
        if slot is None:
            slot = self._const_slots[value] = self.new_slot()
            self.consts.append((slot, value))
        return slot

    # -- op emission (with identity peepholes) ------------------------
    def _emit(self, opcode: int, a: int, b: int) -> int:
        dst = self.num_slots
        self.num_slots = dst + 1
        self.opcodes.append(opcode)
        self.dsts.append(dst)
        self.lhs.append(a)
        self.rhs.append(b)
        return dst

    def add(self, a: int, b: int) -> int:
        if a == _ZERO_SLOT:
            return b
        if b == _ZERO_SLOT:
            return a
        return self._emit(OP_ADD, a, b)

    def mul(self, a: int, b: int) -> int:
        if a == _ONE_SLOT:
            return b
        if b == _ONE_SLOT:
            return a
        if a == _ZERO_SLOT or b == _ZERO_SLOT:
            return _ZERO_SLOT
        return self._emit(OP_MUL, a, b)

    def compl(self, a: int) -> int:
        if a == _ZERO_SLOT:
            return _ONE_SLOT
        if a == _ONE_SLOT:
            return _ZERO_SLOT
        cached = self._compl_cache.get(a)
        if cached is None:
            cached = self._compl_cache[a] = self._emit(OP_COMPL, a, a)
        return cached


class _SymbolicTable(dict):
    """A lazy probability table: reading an edge allocates its input slot."""

    def __init__(self, builder: _TapeBuilder) -> None:
        super().__init__()
        self.builder = builder

    def __missing__(self, edge: Edge) -> int:
        slot = self[edge] = self.builder.new_slot()
        return slot


def compile_plan_tape(plan) -> "PlanTape":
    """Lower a compiled plan's arithmetic half to a :class:`PlanTape`.

    Works on every tractable plan kind (:class:`~repro.plan.ConstantPlan`,
    :class:`~repro.plan.ComponentPlan` on all five dispatch routes); raises
    :class:`~repro.exceptions.PlanError` for brute-force
    :class:`~repro.plan.FallbackPlan` objects, which have no arithmetic
    half to lower.  Prefer :meth:`repro.plan.CompiledPlan.tape`, which
    memoises the result on the plan.
    """
    from repro.plan import FallbackPlan

    if isinstance(plan, FallbackPlan):
        raise PlanError(
            "brute-force fallback plans have no arithmetic half to lower to "
            "a tape; use plan.estimate(...) to sample them instead"
        )
    builder = _TapeBuilder()
    table = _SymbolicTable(builder)
    root = plan._evaluate_with(table, builder)
    return PlanTape(
        num_slots=builder.num_slots,
        consts=tuple(builder.consts),
        inputs=tuple(table.items()),
        opcodes=array("B", builder.opcodes),
        dsts=array("I", builder.dsts),
        lhs=array("I", builder.lhs),
        rhs=array("I", builder.rhs),
        root=root,
    )


class PlanTape:
    """A compiled plan's arithmetic, flattened to a register program.

    The tape is pure structure — picklable, instance-independent up to the
    edge identities in :attr:`inputs` — and therefore travels with its plan
    through the plan cache, the persistent plan store and the serving
    workers.  Registers (*slots*) are numbered so every operation writes a
    fresh slot greater than its operands: replaying the parallel op arrays
    front to back is a valid evaluation order, which is all
    :meth:`evaluate` does.
    """

    #: Derived data, built lazily and dropped from pickles: the level
    #: segments of the numpy lanes (:meth:`_packed_segments`), the
    #: edge -> input position map and the exact replay's integer program
    #: (:meth:`_scaled_program`).  Class-level defaults, so tapes pickled
    #: without a field still load.
    _DERIVED = ("_segments", "_input_index", "_scaled")
    _segments = None
    _input_index: Optional[Dict[Edge, int]] = None
    _scaled = None

    def __init__(
        self,
        num_slots: int,
        consts: Tuple[Tuple[int, Fraction], ...],
        inputs: Tuple[Tuple[Edge, int], ...],
        opcodes: Sequence[int],
        dsts: Sequence[int],
        lhs: Sequence[int],
        rhs: Sequence[int],
        root: int,
    ) -> None:
        # The replay loops run every opcode other than mul and add as compl.
        unknown = set(opcodes).difference(OPCODE_NAMES)
        if unknown:
            raise PlanError(
                f"unknown tape opcode(s) {sorted(unknown)}; "
                f"expected one of {OPCODE_NAMES}"
            )
        self.num_slots = num_slots
        self.consts = consts
        self.inputs = inputs
        self.opcodes = opcodes
        self.dsts = dsts
        self.lhs = lhs
        self.rhs = rhs
        self.root = root

    def __getstate__(self):
        state = dict(self.__dict__)
        for name in self._DERIVED:
            state.pop(name, None)
        return state

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def num_ops(self) -> int:
        """Number of operations on the tape."""
        return len(self.opcodes)

    def num_inputs(self) -> int:
        """Number of edge-probability input slots."""
        return len(self.inputs)

    def describe(self) -> Dict[str, int]:
        """Tape shape summary: slots, inputs, constants and per-opcode counts."""
        counts = {name: 0 for name in OPCODE_NAMES.values()}
        for opcode in self.opcodes:
            counts[OPCODE_NAMES[opcode]] += 1
        return {
            "slots": self.num_slots,
            "inputs": self.num_inputs(),
            "consts": len(self.consts),
            "ops": self.num_ops(),
            **counts,
        }

    def _packed_segments(self) -> Tuple[Tuple[int, array, array, array], ...]:
        """The ops grouped into data-independent level segments (memoised).

        A slot's *level* is 0 for constants and inputs and
        ``1 + max(operand levels)`` for op destinations, so all operations
        of one level read only slots computed at strictly earlier levels —
        a segment ``(opcode, dsts, lhs, rhs)`` can therefore be executed as
        *one* gather/compute/scatter batch regardless of how many ops it
        packs.  This is what keeps the numpy lanes' fixed cost
        proportional to the tape's *depth* (a few dozen segments) instead
        of its length (thousands of ops).  The slot lists are ``array("I")``
        objects, which numpy indexes through the buffer protocol.
        """
        if self._segments is None:
            level = [0] * self.num_slots
            groups: Dict[Tuple[int, int], Tuple[int, array, array, array]] = {}
            for opcode, dst, a, b in zip(self.opcodes, self.dsts, self.lhs, self.rhs):
                depth = 1 + (level[a] if opcode == OP_COMPL else max(level[a], level[b]))
                level[dst] = depth
                segment = groups.get((depth, opcode))
                if segment is None:
                    segment = (opcode, array("I"), array("I"), array("I"))
                    groups[(depth, opcode)] = segment
                segment[1].append(dst)
                segment[2].append(a)
                segment[3].append(b)
            self._segments = tuple(
                segment for _key, segment in sorted(groups.items())
            )
        return self._segments

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def _inputs_of(self, probabilities: Mapping[Edge, Number]) -> List[Any]:
        """The probabilities of the :attr:`inputs` edges, in input order."""
        return [probabilities[edge] for edge, _slot in self.inputs]

    def _input_positions(self) -> Dict[Edge, int]:
        """Edge -> its position in :attr:`inputs` (memoised)."""
        if self._input_index is None:
            self._input_index = {
                edge: position for position, (edge, _slot) in enumerate(self.inputs)
            }
        return self._input_index

    def _load(self, inputs: Sequence[Any], context: NumericContext) -> List[Any]:
        """Initial register file: constants plus converted input probabilities."""
        convert = context.convert
        values: List[Any] = [None] * self.num_slots
        for slot, value in self.consts:
            values[slot] = convert(value)
        for (_edge, slot), value in zip(self.inputs, inputs):
            values[slot] = convert(value)
        return values

    def _run(
        self, values: List[Any], program: Optional[Tuple[Sequence[int], ...]] = None
    ) -> None:
        """Replay op arrays over a scalar register file, in place.

        ``program`` is an ``(opcodes, dsts, lhs, rhs)`` subsequence of the
        tape's ops (an update's, see :class:`TapeEvaluator`); the whole tape
        by default.
        """
        if program is None:
            program = (self.opcodes, self.dsts, self.lhs, self.rhs)
        for opcode, dst, a, b in zip(*program):
            if opcode == OP_MUL:
                values[dst] = values[a] * values[b]
            elif opcode == OP_ADD:
                values[dst] = values[a] + values[b]
            else:
                values[dst] = 1 - values[a]

    def _replay(self, inputs: Sequence[Any], context: NumericContext) -> Number:
        """One valuation of the input probabilities (in :attr:`inputs` order)."""
        if context.name == "exact":
            return self._replay_exact(inputs)
        values = self._load(inputs, context)
        self._run(values)
        return values[self.root]

    def _scaled_program(self) -> Tuple[array, array, int, int, int]:
        """The exact replay's static program (memoised, dropped from pickles).

        Returns ``(ops, shifts, root_exp, top, const_den)``.  ``ops`` and
        ``shifts`` are small-int arrays parallel to :attr:`opcodes`: the
        integer opcode (``_X_*``) of each operation and the power of ``D``
        it applies — the pre-scaling of the operand with the smaller
        exponent for ``add``, the operand's exponent ``e`` for
        ``compl`` (``D**e - X``), 0 for ``mul``.  ``root_exp`` is the root
        slot's exponent, ``top`` the largest power of ``D`` the replay uses
        and ``const_den`` the lcm of the constant denominators.
        """
        if self._scaled is None:
            exponents = [1] * self.num_slots
            ops = array("B")
            shifts: List[int] = []
            for opcode, dst, a, b in zip(self.opcodes, self.dsts, self.lhs, self.rhs):
                left = exponents[a]
                if opcode == OP_MUL:
                    code, shift, exponent = _X_MUL, 0, left + exponents[b]
                elif opcode == OP_ADD:
                    right = exponents[b]
                    if left < right:
                        code, shift, exponent = _X_ADD_L, right - left, right
                    elif right < left:
                        code, shift, exponent = _X_ADD_R, left - right, left
                    else:
                        code, shift, exponent = _X_ADD, 0, left
                else:
                    code, shift, exponent = _X_COMPL, left, left
                exponents[dst] = exponent
                ops.append(code)
                shifts.append(shift)
            root_exp = exponents[self.root]
            top = max(shifts + [root_exp])
            self._scaled = (
                ops,
                array("I", shifts),
                root_exp,
                top,
                lcm(*[value.denominator for _slot, value in self.consts]),
            )
        return self._scaled

    def _replay_exact(self, inputs: Sequence[Any]) -> Fraction:
        """One exact valuation on integer registers; one Fraction at the root.

        Register ``X`` of a slot with exponent ``e`` stands for
        ``X / D**e``, where ``D`` is the lcm of this valuation's input and
        constant denominators (see :meth:`_scaled_program`), so no
        operation pays a gcd and the root is normalised once.
        """
        ops, shifts, root_exp, top, const_den = self._scaled_program()
        values = [v if isinstance(v, Fraction) else Fraction(v) for v in inputs]
        den = lcm(const_den, *[value.denominator for value in values])
        powers = [1] * (top + 1)
        for k in range(1, top + 1):
            powers[k] = powers[k - 1] * den
        registers = [0] * self.num_slots
        for slot, value in self.consts:
            registers[slot] = value.numerator * (den // value.denominator)
        for (_edge, slot), value in zip(self.inputs, values):
            registers[slot] = value.numerator * (den // value.denominator)
        for code, dst, a, b, shift in zip(ops, self.dsts, self.lhs, self.rhs, shifts):
            if code == _X_MUL:
                registers[dst] = registers[a] * registers[b]
            elif code == _X_ADD:
                registers[dst] = registers[a] + registers[b]
            elif code == _X_COMPL:
                registers[dst] = powers[shift] - registers[a]
            elif code == _X_ADD_L:
                registers[dst] = registers[a] * powers[shift] + registers[b]
            else:
                registers[dst] = registers[a] + registers[b] * powers[shift]
        return Fraction(registers[self.root], powers[root_exp])

    def evaluate(
        self,
        probabilities: Mapping[Edge, Number],
        precision: Any = None,
    ) -> Number:
        """One valuation: replay the tape over a full edge-probability table.

        ``probabilities`` must cover every edge in :attr:`inputs` (the
        plan-level :meth:`repro.plan.CompiledPlan.evaluate` builds such
        tables from the live instance plus overrides).  Exact mode replays
        on integer registers and is bit-identical to the object-graph
        evaluator.
        """
        context = resolve_context(precision)
        return self._replay(self._inputs_of(probabilities), context)

    def evaluate_many(
        self,
        tables: Sequence[Mapping[Edge, Number]],
        precision: Any = None,
    ) -> List[Number]:
        """A batch of valuations in one structural pass over the tape.

        Each entry of ``tables`` is a full edge-probability table (as in
        :meth:`evaluate`); the result list is index-aligned with it.  A
        float batch of several valuations vectorizes every tape operation
        across the whole batch, on numpy when
        :func:`repro.numeric.numpy_module` returns it and on stdlib lists
        otherwise.  Exact mode replays each valuation on scaled Python
        integers, preserving bit-identity, and a batch of one runs the
        scalar replay in either precision.
        """
        context = resolve_context(precision)
        batch = len(tables)
        if batch <= 1 or context.name == "exact":
            return [self._replay(self._inputs_of(table), context) for table in tables]
        convert = context.convert
        np = numpy_module()
        if np is not None:
            registers = self._seed_registers(np, batch)
            for edge, slot in self.inputs:
                registers[slot] = [float(table[edge]) for table in tables]
            return self._replay_segments(np, registers)
        values = self._seed_lanes(convert, batch)
        for edge, slot in self.inputs:
            values[slot] = [convert(table[edge]) for table in tables]
        return self._replay_lanes(values)

    def evaluate_overrides(
        self,
        base: Mapping[Edge, Number],
        overrides: Sequence[Optional[Mapping[Edge, Number]]],
        precision: Any = None,
    ) -> List[Number]:
        """A batch of valuations given as deltas against one base table.

        The serving-shaped variant of :meth:`evaluate_many`: ``base`` is a
        full edge-probability table and each batch entry is an override
        mapping (``None``/``{}`` for "just the base") whose values are
        already in the precision's number type.  Each input row is seeded
        once from ``base`` and only the overridden cells are rewritten, so
        the per-valuation setup cost scales with the number of overridden
        edges instead of the instance size.  Results are identical to
        building the full per-valuation tables and calling
        :meth:`evaluate_many`; overridden edges the tape never reads are
        ignored (they provably cannot affect the result).  The ``tape.run``
        span's ``backend`` attribute records the executor the batch ran on:
        ``"scalar"``, ``"numpy"`` or ``"stdlib"``.
        """
        context = resolve_context(precision)
        batch = len(overrides)
        if batch == 0:
            return []
        scalar = batch == 1 or context.name == "exact"
        np = None if scalar else numpy_module()
        with current_tracer().span("tape.run") as span:
            if span:
                span.attrs["backend"] = (
                    "scalar" if scalar else "stdlib" if np is None else "numpy"
                )
                span.attrs["batch"] = batch
            if scalar:
                return [
                    self._replay(inputs, context)
                    for inputs in self._lane_inputs(base, overrides)
                ]
            return self._evaluate_overrides(np, context, base, overrides, batch)

    def _lane_inputs(
        self,
        base: Mapping[Edge, Number],
        overrides: Sequence[Optional[Mapping[Edge, Number]]],
    ):
        """Per valuation, its input probabilities: ``base`` plus its overrides."""
        shared = self._inputs_of(base)
        positions = self._input_positions()
        for delta in overrides:
            if not delta:
                yield shared
                continue
            inputs = list(shared)
            for edge, value in delta.items():
                position = positions.get(edge)
                if position is not None:
                    inputs[position] = value
            yield inputs

    def _evaluate_overrides(
        self,
        np,
        context: NumericContext,
        base: Mapping[Edge, Number],
        overrides: Sequence[Optional[Mapping[Edge, Number]]],
        batch: int,
    ) -> List[Number]:
        """The float batch over vectorized lanes (numpy or stdlib lists)."""
        positions = self._input_positions()
        inputs = self.inputs
        convert = context.convert
        if np is not None:
            registers = self._seed_registers(np, batch)
            for edge, slot in inputs:
                registers[slot] = float(base[edge])
            for lane, delta in enumerate(overrides):
                if not delta:
                    continue
                for edge, value in delta.items():
                    position = positions.get(edge)
                    if position is not None:
                        registers[inputs[position][1], lane] = float(value)
            return self._replay_segments(np, registers)
        values = self._seed_lanes(convert, batch)
        for edge, slot in inputs:
            values[slot] = [convert(base[edge])] * batch
        for lane, delta in enumerate(overrides):
            if not delta:
                continue
            for edge, value in delta.items():
                position = positions.get(edge)
                if position is not None:
                    values[inputs[position][1]][lane] = convert(value)
        return self._replay_lanes(values)

    # -- vectorized-lane internals -------------------------------------
    def _seed_registers(self, np, batch: int):
        """A fresh (slots × batch) register matrix with constants filled in."""
        registers = np.empty((self.num_slots, batch), dtype=float)
        for slot, value in self.consts:
            registers[slot] = float(value)
        return registers

    def _seed_lanes(self, convert, batch: int) -> List[Any]:
        """Fresh per-slot value lanes (stdlib path) with constants filled in."""
        values: List[Any] = [None] * self.num_slots
        for slot, value in self.consts:
            values[slot] = [convert(value)] * batch
        return values

    def _replay_segments(self, np, registers) -> List[float]:
        """Replay the level segments over a register matrix; returns the roots.

        One gather/compute/scatter per segment: the numpy call count scales
        with tape depth, not op count.
        """
        for opcode, dsts, lhs, rhs in self._packed_segments():
            if opcode == OP_MUL:
                registers[dsts] = registers[lhs] * registers[rhs]
            elif opcode == OP_ADD:
                registers[dsts] = registers[lhs] + registers[rhs]
            else:
                registers[dsts] = 1.0 - registers[lhs]
        return registers[self.root].tolist()

    def _replay_lanes(self, values: List[Any]) -> List[Number]:
        """Replay the op arrays over stdlib value lanes; returns the roots."""
        for opcode, dst, a, b in zip(self.opcodes, self.dsts, self.lhs, self.rhs):
            if opcode == OP_MUL:
                values[dst] = [x * y for x, y in zip(values[a], values[b])]
            elif opcode == OP_ADD:
                values[dst] = [x + y for x, y in zip(values[a], values[b])]
            else:
                values[dst] = [1 - x for x in values[a]]
        return list(values[self.root])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PlanTape(ops={self.num_ops()}, slots={self.num_slots}, "
            f"inputs={self.num_inputs()})"
        )


class TapeEvaluator:
    """Stateful tape evaluation with incremental single-edge updates.

    The serving session behind :meth:`repro.plan.CompiledPlan.update`, on
    *every* tractable plan kind: after :meth:`bind` performs one full pass
    and keeps the register file, :meth:`update` rewrites one input slot
    and replays, through the same loop as a full pass
    (:meth:`PlanTape._run`), the sub-program of the operations
    transitively reading it.  Each edge's sub-program is cut with one
    linear scan and memoised, and because replayed ops recompute from
    identical operand values, an update stream is bitwise-identical (in
    both precisions) to re-running the full tape after each change.
    """

    def __init__(self, tape: PlanTape) -> None:
        self.tape = tape
        self._edge_slots: Dict[Edge, int] = dict(tape.inputs)
        self._programs: Dict[int, Tuple[array, array, array, array]] = {}
        self._values: Optional[List[Any]] = None
        self.context: Optional[NumericContext] = None

    def bind(
        self,
        probabilities: Mapping[Edge, Number],
        precision: Any = None,
    ) -> Number:
        """Full pass over ``probabilities``; keeps the register file."""
        context = resolve_context(precision)
        values = self.tape._load(self.tape._inputs_of(probabilities), context)
        self.tape._run(values)
        self._values = values
        self.context = context
        return values[self.tape.root]

    def _program_for(self, slot: int) -> Tuple[array, array, array, array]:
        """The ops transitively reading ``slot``, in tape order (memoised)."""
        program = self._programs.get(slot)
        if program is None:
            tape = self.tape
            affected = {slot}
            program = (array("B"), array("I"), array("I"), array("I"))
            opcodes, dsts, lhs, rhs = program
            for opcode, dst, a, b in zip(tape.opcodes, tape.dsts, tape.lhs, tape.rhs):
                if a in affected or (opcode != OP_COMPL and b in affected):
                    affected.add(dst)
                    opcodes.append(opcode)
                    dsts.append(dst)
                    lhs.append(a)
                    rhs.append(b)
            self._programs[slot] = program
        return program

    def update(self, edge: Edge, probability: Number) -> Number:
        """Set one edge's probability and replay only the ops depending on it.

        ``probability`` must already be in the bound backend's number type
        (the plan-level :meth:`repro.plan.ComponentPlan.update` converts and
        validates).  An edge the tape never reads leaves the value unchanged
        — the probability provably does not affect the result.  Returns the
        new root value.
        """
        if self._values is None:
            raise PlanError("call bind() before update()")
        slot = self._edge_slots.get(edge)
        if slot is not None:
            self._values[slot] = probability
            self.tape._run(self._values, self._program_for(slot))
        return self._values[self.tape.root]

    def current_value(self) -> Number:
        """The root value from the last bind/update."""
        if self._values is None:
            raise PlanError("call bind() before current_value()")
        return self._values[self.tape.root]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TapeEvaluator({self.tape!r})"
