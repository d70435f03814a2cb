"""Positive DNF formulas over arbitrary hashable variables.

The lineages computed in Section 4 are *positive DNF formulas*
(Definition 4.3): disjunctions of clauses, each clause being a conjunction of
variables (here: edges of the probabilistic instance).  This module
implements such formulas together with three ways of computing their
probability under independent variables:

* :meth:`PositiveDNF.probability_by_enumeration` — sum over all valuations;
  exponential, used only as a test oracle;
* :meth:`PositiveDNF.probability_inclusion_exclusion` — inclusion–exclusion
  over clauses; exponential in the number of clauses;
* :meth:`PositiveDNF.probability` — memoised Shannon expansion following an
  elimination order.  On the β-acyclic lineages produced by
  Propositions 4.10 and 4.11 the reverse β-elimination order keeps the
  number of distinct sub-formulas polynomial, which makes this the practical
  evaluation route (the certified-polynomial routes are the direct dynamic
  programs in :mod:`repro.core`).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from typing import Dict, FrozenSet, Hashable, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.exceptions import LineageError
from repro.numeric import EXACT, Number, NumericContext
from repro.lineage.hypergraph import (
    Hypergraph,
    beta_elimination_order,
    hypergraph_of_clauses,
)

Variable = Hashable
Clause = FrozenSet[Variable]


class PositiveDNF:
    """A positive DNF formula ``∨_i ∧_j x_{i,j}`` over hashable variables.

    The formula with zero clauses is the constant *false*; a formula
    containing an empty clause is the constant *true* (an empty conjunction).
    Clauses are stored as a set of frozensets, so duplicate clauses collapse.
    """

    def __init__(self, clauses: Optional[Iterable[Iterable[Variable]]] = None) -> None:
        self._clauses: Set[Clause] = set()
        #: Memoised structural data (clause hypergraph, β-elimination order,
        #: default branching order) — the compile-time half of repeated
        #: probability evaluations; cleared whenever a new clause appears.
        self._structure_cache: Dict[str, object] = {}
        if clauses is not None:
            for clause in clauses:
                self.add_clause(clause)

    def _cached_structure(self, key: str, compute):
        try:
            return self._structure_cache[key]
        except KeyError:
            value = compute()
            self._structure_cache[key] = value
            return value

    # ------------------------------------------------------------------
    # construction and basic queries
    # ------------------------------------------------------------------
    def add_clause(self, clause: Iterable[Variable]) -> Clause:
        """Add a clause (a set of variables whose conjunction is one disjunct)."""
        frozen = frozenset(clause)
        if frozen not in self._clauses:
            self._structure_cache.clear()
            self._clauses.add(frozen)
        return frozen

    @property
    def clauses(self) -> FrozenSet[Clause]:
        """The set of clauses."""
        return frozenset(self._clauses)

    def variables(self) -> Set[Variable]:
        """All variables appearing in some clause."""
        if not self._clauses:
            return set()
        return set().union(*self._clauses)

    def num_clauses(self) -> int:
        """Number of distinct clauses."""
        return len(self._clauses)

    def is_false(self) -> bool:
        """Whether the formula is the constant false (no clauses)."""
        return not self._clauses

    def is_true(self) -> bool:
        """Whether the formula is the constant true (contains the empty clause)."""
        return any(not clause for clause in self._clauses)

    def evaluate(self, valuation: Mapping[Variable, bool]) -> bool:
        """Evaluate the formula under a valuation (missing variables default to false)."""
        return any(all(valuation.get(v, False) for v in clause) for clause in self._clauses)

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    def hypergraph(self) -> Hypergraph:
        """The clause hypergraph ``H(φ)`` of Definition 4.8 (memoised)."""
        return self._cached_structure(
            "hypergraph", lambda: hypergraph_of_clauses([c for c in self._clauses if c])
        )

    def is_beta_acyclic(self) -> bool:
        """Whether the formula is β-acyclic (Definition 4.8)."""
        return self.beta_elimination_order() is not None

    def beta_elimination_order(self) -> Optional[List[Variable]]:
        """A β-elimination order of the clause hypergraph, or ``None`` (memoised).

        Finding the order is the expensive *structural* step of
        :meth:`probability`; memoising it means repeated evaluations of the
        same formula under drifting probabilities only pay for arithmetic.
        """
        order = self._cached_structure(
            "beta_order", lambda: beta_elimination_order(self.hypergraph())
        )
        return None if order is None else list(order)

    def indexed_clauses(self) -> Tuple[Tuple[Variable, ...], Tuple[Tuple[int, ...], ...]]:
        """A deterministic indexed form of the formula (memoised).

        Returns ``(variables, clauses)``: the variables sorted by ``repr``
        and each non-empty clause as a tuple of variable *positions*, the
        clauses sorted lexicographically by their variables' reprs.  This is
        probability-independent structure — the Karp–Luby sampler builds its
        per-evaluation weight tables on top of it, so repeated estimates of
        the same formula only pay arithmetic, like the other memoised
        structural data here.
        """
        def compute() -> Tuple[Tuple[Variable, ...], Tuple[Tuple[int, ...], ...]]:
            variables = tuple(sorted(self.variables(), key=repr))
            index = {variable: position for position, variable in enumerate(variables)}
            ordered = sorted(
                (tuple(sorted(clause, key=repr)) for clause in self._clauses if clause),
                key=lambda clause: [repr(variable) for variable in clause],
            )
            return variables, tuple(
                tuple(index[variable] for variable in clause) for clause in ordered
            )

        return self._cached_structure("indexed_clauses", compute)

    def _default_branching_order(self) -> List[Variable]:
        """The branching order :meth:`probability` uses when none is given (memoised)."""
        def compute() -> List[Variable]:
            elimination = self.beta_elimination_order()
            if elimination is not None:
                return list(reversed(elimination))
            frequency: Dict[Variable, int] = {}
            for clause in self._clauses:
                for variable in clause:
                    frequency[variable] = frequency.get(variable, 0) + 1
            return sorted(frequency, key=lambda v: (-frequency[v], repr(v)))

        return list(self._cached_structure("default_order", compute))

    # ------------------------------------------------------------------
    # probability computation
    # ------------------------------------------------------------------
    def probability_by_enumeration(self, probabilities: Mapping[Variable, Fraction]) -> Fraction:
        """Exact probability by summing over all valuations (exponential oracle)."""
        variables = sorted(self.variables(), key=repr)
        if self.is_true():
            return Fraction(1)
        total = Fraction(0)
        for bits in product((False, True), repeat=len(variables)):
            valuation = dict(zip(variables, bits))
            if not self.evaluate(valuation):
                continue
            weight = Fraction(1)
            for variable, value in valuation.items():
                p = Fraction(probabilities[variable])
                weight *= p if value else (1 - p)
            total += weight
        return total

    def probability_inclusion_exclusion(
        self, probabilities: Mapping[Variable, Fraction]
    ) -> Fraction:
        """Exact probability by inclusion–exclusion over clauses (exponential in #clauses)."""
        if self.is_true():
            return Fraction(1)
        clause_list = sorted(self._clauses, key=lambda c: sorted(map(repr, c)))
        total = Fraction(0)
        for size in range(1, len(clause_list) + 1):
            sign = Fraction(1) if size % 2 == 1 else Fraction(-1)
            for subset in combinations(clause_list, size):
                union: Set[Variable] = set()
                for clause in subset:
                    union |= clause
                term = Fraction(1)
                for variable in union:
                    term *= Fraction(probabilities[variable])
                total += sign * term
        return total

    def probability(
        self,
        probabilities: Mapping[Variable, Fraction],
        order: Optional[Sequence[Variable]] = None,
        context: NumericContext = EXACT,
    ) -> Number:
        """Probability by memoised Shannon expansion along an elimination order.

        Parameters
        ----------
        probabilities:
            Independent truth probability of each variable.
        order:
            Variable branching order.  When omitted, the reverse of a
            β-elimination order is used if the formula is β-acyclic (this is
            the order under which the lineages of Props 4.10/4.11 produce
            polynomially many distinct sub-formulas), and a most-frequent-
            variable-first order otherwise.
        context:
            Numeric backend (exact :class:`~fractions.Fraction` by default).
        """
        if self.is_true():
            return context.one
        if self.is_false():
            return context.zero
        if order is None:
            order = self._default_branching_order()
        order = list(order)
        missing = self.variables() - set(order)
        if missing:
            raise LineageError(f"branching order is missing variables: {missing!r}")
        position = {variable: index for index, variable in enumerate(order)}
        return _shannon(frozenset(self._clauses), {}, position, probabilities, context)

    # ------------------------------------------------------------------
    # dunder helpers
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PositiveDNF):
            return NotImplemented
        return self._clauses == other._clauses

    def __len__(self) -> int:
        return len(self._clauses)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PositiveDNF(clauses={len(self._clauses)}, variables={len(self.variables())})"


def _shannon(
    clauses: FrozenSet[Clause],
    cache: Dict[FrozenSet[Clause], Number],
    position: Mapping[Variable, int],
    probabilities: Mapping[Variable, Fraction],
    context: NumericContext,
) -> Number:
    """:meth:`PositiveDNF.probability`'s memoised Shannon expansion of ``clauses``.

    A plain function, not a closure: a recursive closure references itself,
    and would keep its memo alive as cyclic garbage.
    """
    if not clauses:
        return context.zero
    if any(not clause for clause in clauses):
        return context.one
    if clauses in cache:
        return cache[clauses]
    variable = min((v for clause in clauses for v in clause), key=lambda v: position[v])
    p = context.convert(probabilities[variable])
    positive = frozenset(clause - {variable} for clause in clauses)
    negative = frozenset(clause for clause in clauses if variable not in clause)
    present = _shannon(positive, cache, position, probabilities, context)
    absent = _shannon(negative, cache, position, probabilities, context)
    result = p * present + (1 - p) * absent
    cache[clauses] = result
    return result
