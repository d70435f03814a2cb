"""Pluggable numeric backends for the probability computations.

Every probability algorithm in the library — the d-DNNF evaluator, the
Shannon expansion over positive DNFs, the direct dynamic programs of
Propositions 4.10 / 4.11 / 5.4, and the brute-force oracles — only needs a
semiring-with-complement: constants 0 and 1, addition, multiplication and
``1 - x``.  This module abstracts the number type behind those operations so
callers can choose their precision contract:

* ``EXACT`` (the default) computes with :class:`fractions.Fraction`, exactly
  as the seed implementation did — results are bit-identical rational
  numbers, and the test suite compares them with ``==``;
* ``FAST`` computes with native floats — orders of magnitude faster on
  large instances because Fraction arithmetic re-normalises gcd's on every
  operation and its numerators grow without bound, while floats are fixed
  cost.  Answers agree with exact mode to within standard double-precision
  rounding (the cross-method tests assert ``1e-9`` agreement on the paper's
  workloads).

Contexts also centralise the per-instance probability table: asking a
context for ``instance_probabilities(instance)`` returns a mapping from edge
to backend number *without copying* in exact mode and through a memoised
float table in fast mode.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Mapping, Union

from repro.exceptions import ReproError

#: The number type manipulated by the backends (Fraction or float).
Number = Union[Fraction, float]


def _complement(value: Any) -> Any:
    """The complement ``1 - value`` (``compl`` of the numeric backends)."""
    return 1 - value


@dataclass(frozen=True)
class NumericContext:
    """One numeric backend: its constants, conversion and three operations.

    Attributes
    ----------
    name:
        ``"exact"`` or ``"float"`` — the value accepted by the
        ``precision=`` keyword across the public API.
    zero / one:
        The additive and multiplicative identities in the backend type.
    convert:
        Coercion from a stored :class:`~fractions.Fraction` probability to
        the backend type.  Exact mode wraps in ``Fraction`` (a no-op for
        Fractions, matching the seed behaviour); fast mode truncates to
        ``float``.
    mul / add / compl:
        The semiring operations ``x * y``, ``x + y`` and the complement
        ``1 - x``.  The probability kernels call these instead of the
        operators, so the tape builder of :mod:`repro.tape` can stand in
        for a context and lower a kernel by running it.
    """

    name: str
    zero: Number
    one: Number
    convert: Callable[[Any], Number]
    mul: Callable[[Any, Any], Number] = operator.mul
    add: Callable[[Any, Any], Number] = operator.add
    compl: Callable[[Any], Number] = _complement

    def instance_probabilities(self, instance) -> Mapping[Any, Number]:
        """The edge-probability table of ``instance`` in this backend.

        Exact mode returns the instance's internal mapping (no copy); fast
        mode returns the instance's memoised float table.  Both are
        read-only views.
        """
        if self.name == "exact":
            return instance.probabilities_view()
        return instance.float_probabilities()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"NumericContext({self.name!r})"


#: Exact rational arithmetic (the default; bit-identical to the seed).
EXACT = NumericContext(name="exact", zero=Fraction(0), one=Fraction(1), convert=Fraction)

#: Double-precision float arithmetic (the fast path).
FAST = NumericContext(name="float", zero=0.0, one=1.0, convert=float)

_CONTEXTS = {"exact": EXACT, "float": FAST}

#: Sentinel distinguishing "never probed" from "probed and absent".
_NUMPY_UNPROBED = object()
_numpy_cache: Any = _NUMPY_UNPROBED


def numpy_module():
    """The optional vectorization accelerator: numpy, or ``None`` (memoised).

    numpy is never a dependency of this library — every computation has a
    dependency-free stdlib path — but the batched tape evaluator of
    :mod:`repro.tape` vectorizes its float backend across probability
    valuations when numpy is importable.  This seam is the single gate:
    callers ask here instead of importing numpy themselves, so stubbing
    this function (or running without numpy installed) exercises the
    stdlib fallback everywhere at once.
    """
    global _numpy_cache
    if _numpy_cache is _NUMPY_UNPROBED:
        try:
            import numpy
        except ImportError:  # pragma: no cover - depends on the environment
            _numpy_cache = None
        else:
            _numpy_cache = numpy
    return _numpy_cache


def resolve_context(precision: Union[str, NumericContext, None]) -> NumericContext:
    """Resolve a ``precision=`` argument to a :class:`NumericContext`.

    Accepts a context object, one of the strings ``"exact"`` / ``"float"``,
    or ``None`` (meaning the default, exact).
    """
    if precision is None:
        return EXACT
    if isinstance(precision, NumericContext):
        return precision
    try:
        return _CONTEXTS[precision]
    except KeyError:
        raise ReproError(
            f"unknown precision {precision!r}; expected 'exact' or 'float'"
        ) from None
