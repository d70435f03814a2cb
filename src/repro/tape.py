"""Flat postfix tapes: compiled plans lowered to array programs.

A :class:`~repro.plan.CompiledPlan` separates the structural phase from
the arithmetic, but its arithmetic half is written over Python object
graphs — circuit arenas, skeleton tuples, dict-keyed distributions — and
the serving layer's dominant access pattern (one plan, many drifted
probability tables) would pay that interpretation per valuation.  This
module lowers a plan one level further, to a :class:`PlanTape`, the
runtime every reuse of a plan evaluates on: a flat register program over
parallel arrays

* ``opcodes`` / ``dsts`` / ``lhs`` / ``rhs`` — one entry per operation, in
  dependency (topological) order, over a semiring-with-complement opcode set
  (:data:`OP_COMPL`, :data:`OP_ADD`, :data:`OP_MUL`);
* a *constant pool* mapping register slots to exact
  :class:`~fractions.Fraction` constants (only 0 and 1: the kernels
  read every other number from the probability table);
* an *edge-slot indirection*: which input register each instance edge's
  probability is loaded into.

Evaluation is a single non-recursive loop — no gate dispatch, no dict
hashing, no recursion — and :meth:`PlanTape.evaluate_many` answers a whole
batch of probability valuations in one structural pass.  Every stateless
evaluation but :meth:`PlanTape.evaluate` (one full table: one full pass
itself) — :meth:`PlanTape.evaluate_many`, and a plan's override tables
and batches — runs as lanes over one base register file: a plan's live
:class:`TapeEvaluator` session, or one pass over the first table of
:meth:`PlanTape.evaluate_many`.  The executor is picked from the lanes in
one place, never by the caller: one lane, or exact mode, runs each lane
on a copy of the base registers, replaying only the operations its
inputs reach; a float batch vectorizes each operation across its lanes,
on numpy when :func:`repro.numeric.numpy_module` returns it and on
stdlib lists otherwise.  Override batches
(:meth:`repro.plan.CompiledPlan.evaluate_many`) run once per distinct
valuation, and their executor is picked from the distinct count.

Exact mode replays on plain Python integers instead of
:class:`~fractions.Fraction` registers: with ``D`` the lcm of the input
denominators, each slot holds an integer ``X`` standing for
``X / D**e``, where the exponent ``e`` is a static property of the slot
(1 for inputs and constants, summed by ``mul``, the maximum of the operand
exponents for ``add``).  No operation pays a gcd; one ``Fraction``
is built at the root, so results are bit-identical to Fraction arithmetic.
A plan's first answer needs no tape: :class:`ScaledContext` does the same
arithmetic one kernel operation at a time, carrying each exponent beside
its integer.

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
the non-negative finite values probabilities produce.  Lowering costs
more than one direct pass of the kernels, so a plan is lowered only when
it is reused: a :class:`~repro.core.solver.PHomSolver` solve answers a
tape-less plan's first live call directly (a fresh plan, one a sampler
cached, or one loaded from the persistent store) and lowers the plan on
a cache hit once it has answered, while ``compile``, ``tape_for`` and
``evaluate_many`` lower at compile, so their plans reach the serving
workers and the persistent store with their tape.

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
from collections.abc import Mapping
from fractions import Fraction
from math import lcm
from typing import Any, Callable, Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from repro.exceptions import PlanError
from repro.graphs.digraph import Edge
from repro.numeric import Number, NumericContext, numpy_module, resolve_context
from repro.obs.trace import current_tracer
from repro.probability.prob_graph import ProbabilisticGraph, as_probability

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

#: The constant pool: 0 and 1, in the first two slots of every tape, which
#: the builder's peepholes compare against.
_ZERO_SLOT, _ONE_SLOT = 0, 1
_ZERO, _ONE = Fraction(0), Fraction(1)

#: A session or lane replays the whole tape instead of its inputs'
#: sub-programs when they hold more than this fraction of the tape's ops:
#: the indexed loop costs about 1.5x the zip loop per op.
FULL_REPLAY_FRACTION = 0.5


def _as_fraction(value: Any) -> Fraction:
    """``value`` as an exact register input: a Fraction is used as it is."""
    return value if isinstance(value, Fraction) else Fraction(value)


def _require_mapping(overrides: Any, where: str) -> None:
    """Raise :class:`PlanError` naming ``where`` unless ``overrides`` is a mapping."""
    if not isinstance(overrides, Mapping):
        raise PlanError(
            f"{where} must be a mapping of edges to probabilities (or None), "
            f"got {type(overrides).__name__}"
        )


class _TapeBuilder:
    """Accumulates slots and operations during lowering.

    The builder is the lowering's numeric context: it has the
    :class:`~repro.numeric.NumericContext` members the kernels use
    (``zero``, ``one``, ``mul``, ``add``, ``compl``), its numbers are slot
    indices, and each operation emits one tape op or folds through an
    identity peephole.
    """

    name = "tape"

    def __init__(self) -> None:
        self.num_slots = 2
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
        consts=((_ZERO_SLOT, _ZERO), (_ONE_SLOT, _ONE)),
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

    #: Derived data, built lazily and dropped from pickles: the numpy
    #: lanes' level segments as index arrays (:meth:`_index_segments`), the
    #: edge and endpoints -> input position maps, the exact replay's
    #: integer program (:meth:`_scaled_program`) and the per-input
    #: sub-programs of the sessions and lanes (:meth:`_sub_programs`).
    #: Class-level defaults, so tapes pickled without a field still load.
    _DERIVED = (
        "_np_segments", "_input_index", "_endpoint_index", "_scaled", "_programs",
    )
    _np_segments = None
    _input_index: Optional[Dict[Edge, int]] = None
    _endpoint_index: Optional[Dict[Tuple[Hashable, Hashable], int]] = None
    _scaled = None
    _programs: Optional[List[Optional[array]]] = None

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
        # The exact replay scales its integers by the input denominators only.
        if any(value not in (0, 1) for _slot, value in consts):
            raise PlanError("a tape's constant pool holds only 0 and 1")
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
        """The ops grouped into data-independent level segments.

        A slot's *level* is 0 for constants and inputs and
        ``1 + max(operand levels)`` for op destinations, so all operations
        of one level read only slots computed at strictly earlier levels —
        a segment ``(opcode, dsts, lhs, rhs)`` can therefore be executed as
        *one* gather/compute/scatter batch regardless of how many ops it
        packs.  This is what keeps the numpy lanes' fixed cost
        proportional to the tape's *depth* (a few dozen segments) instead
        of its length (thousands of ops).  The slot lists are ``array("I")``
        objects; only their numpy copies are kept (:meth:`_index_segments`),
        so this runs once per tape.
        """
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
        return tuple(segment for _key, segment in sorted(groups.items()))

    def _index_segments(self, np) -> Tuple[Tuple[int, Any, Any, Any], ...]:
        """:meth:`_packed_segments` with numpy ``intp`` index arrays (memoised).

        numpy converts an ``array("I")`` index to ``intp`` on every
        indexing call; converting once here takes that off every batch.
        """
        if self._np_segments is None:
            self._np_segments = tuple(
                (opcode, *(np.asarray(slots, dtype=np.intp) for slots in operands))
                for opcode, *operands in self._packed_segments()
            )
        return self._np_segments

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

    def _endpoint_positions(self) -> Dict[Tuple[Hashable, Hashable], int]:
        """``(source, target)`` -> the position of that edge in :attr:`inputs` (memoised)."""
        if self._endpoint_index is None:
            self._endpoint_index = {
                (edge.source, edge.target): position
                for position, (edge, _slot) in enumerate(self.inputs)
            }
        return self._endpoint_index

    def _run(self, values: List[Any]) -> None:
        """Replay the whole tape over a scalar register file, in place."""
        for opcode, dst, a, b in zip(self.opcodes, self.dsts, self.lhs, self.rhs):
            if opcode == OP_MUL:
                values[dst] = values[a] * values[b]
            elif opcode == OP_ADD:
                values[dst] = values[a] + values[b]
            else:
                values[dst] = 1 - values[a]

    def _run_indexed(self, values: List[Any], program: Sequence[int]) -> None:
        """Replay the ops at the indices ``program`` (ascending), in place."""
        opcodes, dsts, lhs, rhs = self.opcodes, self.dsts, self.lhs, self.rhs
        for index in program:
            opcode = opcodes[index]
            if opcode == OP_MUL:
                values[dsts[index]] = values[lhs[index]] * values[rhs[index]]
            elif opcode == OP_ADD:
                values[dsts[index]] = values[lhs[index]] + values[rhs[index]]
            else:
                values[dsts[index]] = 1 - values[lhs[index]]

    def _sub_programs(self) -> List[Optional[array]]:
        """Per input, the indices of the ops transitively reading it.

        Built for every input in one pass over the tape, with an int
        bitmask per slot of the inputs it depends on, and memoised on the
        tape, so every session of the tape shares them.  An input whose
        ops number more than :data:`FULL_REPLAY_FRACTION` of the tape gets
        ``None``: the indexed loop would cost more than replaying
        everything.
        """
        if self._programs is None:
            masks = [0] * self.num_slots
            for position, (_edge, slot) in enumerate(self.inputs):
                masks[slot] = 1 << position
            programs = [array("I") for _ in self.inputs]
            for index, (opcode, dst, a, b) in enumerate(
                zip(self.opcodes, self.dsts, self.lhs, self.rhs)
            ):
                mask = masks[a] if opcode == OP_COMPL else masks[a] | masks[b]
                masks[dst] = mask
                while mask:
                    low = mask & -mask
                    programs[low.bit_length() - 1].append(index)
                    mask ^= low
            limit = FULL_REPLAY_FRACTION * len(self.opcodes)
            self._programs = [
                None if len(program) > limit else program for program in programs
            ]
        return self._programs

    def _catch_up_program(self, positions: Iterable[int]) -> Optional[Sequence[int]]:
        """The ops reading any of the inputs ``positions``, ascending.

        ``None`` means "replay the whole tape": one input's sub-program, or
        the summed length of several, is longer than
        :data:`FULL_REPLAY_FRACTION` of it, so no union is built that the
        full replay would beat.
        """
        every = self._sub_programs()
        programs = [every[position] for position in positions]
        if None in programs:
            return None
        if len(programs) == 1:
            return programs[0]
        if sum(map(len, programs)) > FULL_REPLAY_FRACTION * len(self.opcodes):
            return None
        return sorted(set().union(*programs))

    def _replay_inputs(
        self,
        registers: List[Any],
        powers: Optional[List[int]],
        updated: Mapping[int, Any],
        program: Optional[Sequence[int]],
    ) -> int:
        """Write ``updated``'s inputs and replay ``program``, in place.

        ``registers`` and ``powers`` are a register file of :meth:`_load`;
        ``updated`` maps input positions to values in its precision (exact
        values are Fractions whose denominators divide ``D``), and
        ``program`` is their :meth:`_catch_up_program` (``None``: the whole
        tape).  Returns how many operations ran.
        """
        inputs = self.inputs
        if powers is None:
            for position, value in updated.items():
                registers[inputs[position][1]] = value
            if program is None:
                self._run(registers)
            else:
                self._run_indexed(registers, program)
        else:
            den = powers[1]
            for position, value in updated.items():
                registers[inputs[position][1]] = value.numerator * (den // value.denominator)
            if program is None:
                self._run_exact(registers, powers)
            else:
                self._run_exact_indexed(registers, powers, program)
        return self.num_ops() if program is None else len(program)

    def _load(
        self, inputs: Sequence[Any], context: NumericContext, den: int = 1
    ) -> Tuple[List[Any], Optional[List[int]]]:
        """A register file holding the constants and ``inputs``, no op replayed yet.

        Returns the registers and, in exact mode, the powers of ``D`` (in
        float, ``None``).  Float registers hold the context's numbers.
        Exact registers are integers: register ``X`` of a slot with
        exponent ``e`` stands for ``X / D**e``, where ``D`` (the powers'
        second entry) is the lcm of ``den`` and the input denominators (see
        :meth:`_scaled_program`), so no operation pays a gcd.
        """
        if context.name != "exact":
            convert = context.convert
            values: List[Any] = [None] * self.num_slots
            for slot, value in self.consts:
                values[slot] = convert(value)
            for (_edge, slot), value in zip(self.inputs, inputs):
                values[slot] = convert(value)
            return values, None
        top = self._scaled_program()[3]
        values = [v if isinstance(v, Fraction) else Fraction(v) for v in inputs]
        den = lcm(den, *[value.denominator for value in values])
        powers = [1] * (top + 1)
        for k in range(1, top + 1):
            powers[k] = powers[k - 1] * den
        registers = [0] * self.num_slots
        for slot, value in self.consts:
            registers[slot] = value.numerator * den
        for (_edge, slot), value in zip(self.inputs, values):
            registers[slot] = value.numerator * (den // value.denominator)
        return registers, powers

    def _pass(
        self, inputs: Sequence[Any], context: NumericContext, den: int = 1
    ) -> Tuple[List[Any], Optional[List[int]]]:
        """One full pass over :meth:`_load`'s register file; returns it and the powers."""
        registers, powers = self._load(inputs, context, den)
        if powers is None:
            self._run(registers)
        else:
            self._run_exact(registers, powers)
        return registers, powers

    def _root(self, registers: List[Any], powers: Optional[List[int]]) -> Number:
        """The root of a replayed register file; exact: one normalised Fraction."""
        if powers is None:
            return registers[self.root]
        return Fraction(registers[self.root], powers[self._scaled_program()[2]])

    def _scaled_program(self) -> Tuple[array, array, int, int]:
        """The exact replay's static program (memoised, dropped from pickles).

        Returns ``(ops, shifts, root_exp, top)``.  ``ops`` and ``shifts``
        are small-int arrays parallel to :attr:`opcodes`: the integer
        opcode (``_X_*``) of each operation and the power of ``D`` it
        applies — the pre-scaling of the operand with the smaller exponent
        for ``add``, the operand's exponent ``e`` for ``compl``
        (``D**e - X``), 0 for ``mul``.  ``root_exp`` is the root slot's
        exponent and ``top`` the largest power of ``D`` the replay uses.
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
            self._scaled = (ops, array("I", shifts), root_exp, max(shifts + [root_exp]))
        return self._scaled

    def _run_exact(self, registers: List[int], powers: List[int]) -> None:
        """Replay the whole tape on integer registers, in place."""
        ops, shifts = self._scaled_program()[:2]
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

    def _run_exact_indexed(
        self, registers: List[int], powers: List[int], program: Sequence[int]
    ) -> None:
        """Replay the ops at the indices ``program`` on integer registers."""
        ops, shifts = self._scaled_program()[:2]
        dsts, lhs, rhs = self.dsts, self.lhs, self.rhs
        for index in program:
            code = ops[index]
            if code == _X_MUL:
                registers[dsts[index]] = registers[lhs[index]] * registers[rhs[index]]
            elif code == _X_ADD:
                registers[dsts[index]] = registers[lhs[index]] + registers[rhs[index]]
            elif code == _X_COMPL:
                registers[dsts[index]] = powers[shifts[index]] - registers[lhs[index]]
            elif code == _X_ADD_L:
                registers[dsts[index]] = (
                    registers[lhs[index]] * powers[shifts[index]] + registers[rhs[index]]
                )
            else:
                registers[dsts[index]] = (
                    registers[lhs[index]] + registers[rhs[index]] * powers[shifts[index]]
                )

    def evaluate(
        self,
        probabilities: Mapping[Edge, Number],
        precision: Any = None,
    ) -> Number:
        """One valuation: replay the tape over a full edge-probability table.

        ``probabilities`` must cover every edge in :attr:`inputs`.  One
        table needs no lanes, so this is one full pass, without a span: on
        integer registers in exact mode, bit-identical to the object-graph
        evaluator.
        """
        context = resolve_context(precision)
        return self._root(*self._pass(self._inputs_of(probabilities), context))

    def evaluate_many(
        self,
        tables: Sequence[Mapping[Edge, Number]],
        precision: Any = None,
    ) -> List[Number]:
        """A batch of valuations in one structural pass over the tape.

        Each entry of ``tables`` is a full edge-probability table (as in
        :meth:`evaluate`); the result list is index-aligned with it.  The
        first table is the base, and every table runs as its own lane of
        :meth:`_run_lanes` over it, rewriting the inputs where it holds
        another value object, so the executor is picked as for any other
        batch of lanes.  The base is loaded, not replayed: scalar lanes
        replay it once first, vectorized lanes read only its constant and
        input slots, so a float batch of several tables replays the tape
        once.  Unlike :meth:`repro.plan.CompiledPlan.evaluate_many`, equal
        tables are not coalesced: a batch of ``n`` tables runs ``n`` lanes.
        """
        if not tables:
            return []
        context = resolve_context(precision)
        convert = _as_fraction if context.name == "exact" else context.convert
        base = TapeEvaluator(self)
        base._load(tables[0], context)
        shared = self._inputs_of(tables[0])
        lanes = [
            tuple(
                (position, convert(value))
                for position, (value, first) in enumerate(
                    zip(self._inputs_of(table), shared)
                )
                if value is not first
            )
            for table in tables
        ]
        return self._run_lanes(base, lanes)[0]

    def _lane(
        self,
        overrides: Any,
        instance: ProbabilisticGraph,
        convert: Callable[[Any], Number],
        where: str = "probabilities",
    ) -> Tuple[Tuple[int, Any], ...]:
        """One override mapping as the lane it sets: ``(input position, value)`` pairs.

        The pairs cover the mapping's edges this tape reads, in position
        order, with values validated as probabilities and converted by
        ``convert``.  A ``(source, target)`` key of an input edge resolves
        through the memoised endpoints map; every other key (an
        :class:`Edge`, an edge the tape never reads) resolves through
        ``instance``, so each key and value is validated either way, and
        the last key of a duplicated edge wins.  A non-mapping raises
        :class:`~repro.exceptions.PlanError` naming it as ``where``.
        """
        _require_mapping(overrides, where)
        if not overrides:
            return ()
        by_endpoints = self._endpoint_positions()
        pairs: Dict[int, Any] = {}
        for key, value in overrides.items():
            position = by_endpoints.get(key) if type(key) is tuple else None
            if position is None:
                position = self._input_positions().get(instance._resolve_edge(key))
            value = as_probability(value)
            if position is not None:
                pairs[position] = convert(value)
        return tuple(sorted(pairs.items()))

    def _distinct_lanes(
        self,
        overrides: Sequence[Optional[Mapping]],
        instance: ProbabilisticGraph,
        convert: Callable[[Any], Number],
    ) -> Tuple[List[Tuple[Tuple[int, Any], ...]], List[int]]:
        """Coalesce a batch of override mappings into its distinct lanes.

        Returns the distinct lanes (:meth:`_lane`) and, for every batch
        entry, the index of its lane.  A mapping object is read once
        however often it repeats, and entries with the same pairs
        (``None`` and ``{}`` included) share a lane.
        """
        lanes: Dict[Tuple[Tuple[int, Any], ...], int] = {}
        seen: Dict[int, int] = {}
        assignment = []
        for entry, delta in enumerate(overrides):
            index = seen.get(id(delta))
            if index is None:
                pairs = (
                    () if delta is None
                    else self._lane(delta, instance, convert, f"batch entry {entry}")
                )
                index = seen[id(delta)] = lanes.setdefault(pairs, len(lanes))
            assignment.append(index)
        return list(lanes), assignment

    def _run_lanes(
        self,
        base: "TapeEvaluator",
        lanes: Sequence[Tuple[Tuple[int, Any], ...]],
    ) -> Tuple[List[Number], int]:
        """One answer per lane over ``base``'s register file, and the ops replayed.

        Every stateless evaluation of lanes runs here; only
        :meth:`evaluate`, one full table, runs a pass itself.  ``base`` is a
        :class:`TapeEvaluator`: a plan's live session, caught up, or the
        first table of :meth:`evaluate_many`, loaded and replayed here only
        if the lanes run scalar.  A lane is
        the ``(input position, value)`` pairs it rewrites in ``base``'s
        inputs (:meth:`_lane` builds them from override mappings), with
        values in ``base``'s precision, so a lane pays for the inputs it
        rewrites and the operations they reach, never for re-reading a
        table.  ``base``'s registers are read, never written, though an
        exact lane may rebind it (:meth:`_run_lane`).

        The executor is read off the lanes, here and nowhere else: one
        lane, or exact mode, runs the scalar lane per lane; several float
        lanes run one vectorized pass seeded from ``base``'s constant and
        input slots, on numpy when :func:`repro.numeric.numpy_module`
        returns it and on stdlib lists otherwise.  The ``tape.run`` span
        records the executor in its ``backend`` attribute (``"scalar"``,
        ``"numpy"`` or ``"stdlib"``) and the lanes in ``batch``.
        """
        batch = len(lanes)
        if batch == 0:
            return [], 0
        scalar = batch == 1 or base.context.name == "exact"
        np = None if scalar else numpy_module()
        with current_tracer().span("tape.run") as span:
            if span:
                span.attrs["backend"] = (
                    "scalar" if scalar else "stdlib" if np is None else "numpy"
                )
                span.attrs["batch"] = batch
            if scalar:
                if base._root is None:
                    base._replay()
                results, replayed = [], 0
                for pairs in lanes:
                    value, ops = self._run_lane(base, pairs)
                    results.append(value)
                    replayed += ops
                return results, replayed
            live = base._registers
            slots = [slot for _edge, slot in self.inputs]
            seeds = [slot for slot, _value in self.consts] + slots
            if np is not None:
                registers = np.empty((self.num_slots, batch), dtype=float)
                registers[seeds] = np.array([live[slot] for slot in seeds])[:, None]
                for lane, pairs in enumerate(lanes):
                    for position, value in pairs:
                        registers[slots[position], lane] = value
                return self._replay_segments(np, registers), self.num_ops()
            values: List[Any] = [None] * self.num_slots
            for slot in seeds:
                values[slot] = [live[slot]] * batch
            for lane, pairs in enumerate(lanes):
                for position, value in pairs:
                    values[slots[position]][lane] = value
            return self._replay_lanes(values), self.num_ops()

    def _run_lane(
        self, base: "TapeEvaluator", pairs: Tuple[Tuple[int, Any], ...]
    ) -> Tuple[Number, int]:
        """One lane on a copy of ``base``'s registers: its answer and the ops replayed.

        A lane that rewrites nothing answers ``base``'s root.  Otherwise the
        copy takes the lane's inputs and replays their catch-up program, or
        the whole tape when that is shorter (:meth:`_catch_up_program`).
        An exact lane whose denominators do not all divide ``base``'s ``D``
        first rebinds ``base`` over the lcm of its table and that lane, so
        ``D`` grows only as far as the lane in hand needs, and later lanes
        like it replay their programs only; one that replays the whole tape
        anyway runs one pass over its own inputs instead and leaves
        ``base`` as it is.
        """
        if not pairs:
            return base._root, 0
        updated = dict(pairs)
        program = self._catch_up_program(updated)
        rebound = 0
        powers = base._powers
        if powers is not None and any(
            powers[1] % value.denominator for value in updated.values()
        ):
            if program is None:
                inputs = self._inputs_of(base._table)
                for position, value in pairs:
                    inputs[position] = value
                return self._root(*self._pass(inputs, base.context)), self.num_ops()
            base._bind(
                base._table, base.context,
                lcm(*[value.denominator for value in updated.values()]),
            )
            powers, rebound = base._powers, self.num_ops()
        registers = base._registers.copy()
        replayed = self._replay_inputs(registers, powers, updated, program)
        return self._root(registers, powers), rebound + replayed

    # -- vectorized-lane internals -------------------------------------
    def _replay_segments(self, np, registers) -> List[float]:
        """Replay the level segments over a register matrix; returns the roots.

        One gather/compute/scatter per segment: the numpy call count scales
        with tape depth, not op count.  The gathers use ``take``, which on
        small batches costs less than fancy indexing.
        """
        take = registers.take
        for opcode, dsts, lhs, rhs in self._index_segments(np):
            if opcode == OP_MUL:
                registers[dsts] = take(lhs, 0) * take(rhs, 0)
            elif opcode == OP_ADD:
                registers[dsts] = take(lhs, 0) + take(rhs, 0)
            else:
                registers[dsts] = 1.0 - take(lhs, 0)
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


class ScaledContext:
    """The exact replay's integer arithmetic, one kernel operation at a time.

    The numeric context of a plan's first exact answer, which runs the
    kernels directly instead of lowering a tape.  Its numbers are pairs
    ``(X, e)`` standing for ``X / D**e``, the encoding of the integer
    replay with the exponent carried beside the integer instead of in a
    static program: zero is ``(0, 0)`` and one ``(1, 0)``, ``mul`` adds
    the exponents, ``add`` aligns both operands on the larger exponent and
    ``compl`` is ``D**e - X``.  No operation pays a gcd, and
    :meth:`fraction` builds the one :class:`~fractions.Fraction`, at the
    root.  Probabilities come from
    :meth:`~repro.probability.prob_graph.ProbabilisticGraph.scaled_probabilities`,
    which holds each one as ``(p * D, 1)`` over the lcm ``D`` of the
    instance's denominators.  It has the context members the plan kernels
    use; they read every number from the table, so there is no
    ``convert``.
    """

    zero = (0, 0)
    one = (1, 0)

    def __init__(self, den: int) -> None:
        self.den = den
        self._powers = [1, den]

    def _power(self, exponent: int) -> int:
        """``D**exponent``, extending the memo the operations index first."""
        powers = self._powers
        while len(powers) <= exponent:
            powers.append(powers[-1] * self.den)
        return powers[exponent]

    def mul(self, a: Tuple[int, int], b: Tuple[int, int]) -> Tuple[int, int]:
        return (a[0] * b[0], a[1] + b[1])

    def add(self, a: Tuple[int, int], b: Tuple[int, int]) -> Tuple[int, int]:
        if a[1] > b[1]:
            a, b = b, a
        x, e = a
        y, f = b
        if e == f:
            return (x + y, e)
        if not x:
            return b
        try:
            power = self._powers[f - e]
        except IndexError:
            power = self._power(f - e)
        return (x * power + y, f)

    def compl(self, a: Tuple[int, int]) -> Tuple[int, int]:
        x, e = a
        try:
            return (self._powers[e] - x, e)
        except IndexError:
            return (self._power(e) - x, e)

    def fraction(self, value: Tuple[int, int]) -> Fraction:
        """The normalised :class:`~fractions.Fraction` a pair stands for."""
        x, e = value
        return Fraction(x, self._power(e))


class TapeEvaluator:
    """A register-file session over one tape: one full pass, then catch-ups.

    :meth:`follow` is the only entry point.  Its first call replays the
    whole tape once over an instance's table and keeps the registers.
    Later calls rewrite the input slots of the edges the instance logged
    since, and replay only the operations transitively reading them: the
    per-input sub-programs memoised on the tape
    (:meth:`PlanTape._sub_programs`), merged in tape order.  Sub-programs
    longer together than :data:`FULL_REPLAY_FRACTION` of the tape replay
    the whole tape instead.  A plan keeps one session per precision on its
    live instance (:meth:`repro.plan.CompiledPlan.evaluate`), from which
    its override lanes start (:meth:`PlanTape._run_lanes`), and one on its
    what-if copy (:meth:`repro.plan.CompiledPlan.update`), which rebinds
    when it is called in the other precision.

    A float session keeps float registers.  Replayed ops recompute from
    identical operands, so its answers are bitwise-identical to a full
    replay.  An exact session keeps the integer registers of the exact
    replay over a ``D`` fixed at bind time, and builds one
    :class:`~fractions.Fraction` per answer, at the root.  A change whose
    denominator does not divide ``D`` rebinds the session from the
    instance's table, one full replay with a fresh ``D``, as when the
    change log no longer reaches back; an exact lane whose denominators do
    not divide ``D``, and which replays only part of the tape, rebinds it
    over the lcm of the table and that lane.
    The root is one normalised Fraction either way, so exact answers are
    bit-identical to a full replay.
    """

    def __init__(self, tape: PlanTape) -> None:
        self.tape = tape
        self.context: Optional[NumericContext] = None
        #: The register file and powers of ``D`` of :meth:`PlanTape._load`
        #: (the powers are ``None`` in float), the root they hold (``None``
        #: until :meth:`_replay`) and the table they were loaded from (an
        #: instance's live view, or the first table of
        #: :meth:`PlanTape.evaluate_many`).
        self._registers: Optional[List[Any]] = None
        self._powers: Optional[List[int]] = None
        self._root: Any = None
        self._table: Optional[Mapping[Edge, Number]] = None
        #: The instance and the version :meth:`follow` last caught up to.
        self._instance: Optional[ProbabilisticGraph] = None
        self._version = 0
        #: How the last call ran: ``"bind"`` or ``"catch_up"``, and how
        #: many operations it replayed.
        self.path = "bind"
        self.replayed = 0

    def follow(self, instance: ProbabilisticGraph, precision: Any = None) -> Number:
        """The root over ``instance``'s live table, caught up with its changes.

        The first call binds.  Later calls replay only what the edges
        logged by :meth:`~repro.probability.prob_graph.ProbabilisticGraph.set_probability`
        since the previous call read, so a call with no change returns the
        stored root, and so does a change to an edge the tape never reads.
        The session rebinds when the instance's change log no longer
        reaches back to its last call, when it is given another instance
        or precision, or when an exact change brings a denominator that
        does not divide its ``D``.
        """
        context = resolve_context(precision)
        changes = None
        if instance is self._instance and context is self.context:
            changes = instance.changes_since(self._version)
        self._instance, self._version = instance, instance.version
        table = instance.probabilities_view()
        if changes is not None:
            positions = self.tape._input_positions()
            powers = self._powers
            convert = context.convert if powers is None else None
            updated: Dict[int, Any] = {}
            for edge in changes:
                position = positions.get(edge)
                if position is not None:
                    value = table[edge]
                    updated[position] = value if convert is None else convert(value)
            if not updated:
                self.path, self.replayed = "catch_up", 0
                return self._root
            if powers is None or not any(
                powers[1] % value.denominator for value in updated.values()
            ):
                return self._apply(updated)
        self._bind(table, context)
        return self._root

    def _bind(
        self, table: Mapping[Edge, Number], context: NumericContext, den: int = 1
    ) -> None:
        """One full pass over ``table``; exact ``D`` is the lcm of ``den`` and its inputs."""
        self._load(table, context, den)
        self._replay()

    def _load(
        self, table: Mapping[Edge, Number], context: NumericContext, den: int = 1
    ) -> None:
        """Load ``table``'s constants and inputs (:meth:`PlanTape._load`), replaying nothing."""
        tape = self.tape
        self.context, self._table = context, table
        self._registers, self._powers = tape._load(tape._inputs_of(table), context, den)
        self._root = None

    def _replay(self) -> None:
        """Replay the whole tape over the loaded registers."""
        tape = self.tape
        self.replayed = tape._replay_inputs(self._registers, self._powers, {}, None)
        self._root = tape._root(self._registers, self._powers)
        self.path = "bind"

    def _apply(self, updated: Dict[int, Any]) -> Number:
        """Write the inputs at ``updated``'s positions and replay what reads them."""
        tape = self.tape
        self.replayed = tape._replay_inputs(
            self._registers, self._powers, updated, tape._catch_up_program(updated)
        )
        self._root = tape._root(self._registers, self._powers)
        self.path = "catch_up"
        return self._root

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TapeEvaluator({self.tape!r})"
