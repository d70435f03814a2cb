"""The query intermediate representation and its pretty-printer.

The textual frontend of :mod:`repro.query` parses a datalog-style atom
syntax into a :class:`QueryIR` — an ordered list of :class:`Atom` facts over
named variables — which then *lowers* to the :class:`~repro.graphs.digraph.DiGraph`
query representation the rest of the library computes on (one labeled edge
per atom, one vertex per variable).

The printer :func:`format_query` goes the other way and round-trips: for any
IR ``q``, ``parse_query(format_query(q))`` is equal to ``q``, and for any
graph ``G`` expressible in the language, the graph lowered from
``parse_query(format_query(G))`` equals ``G``.
"""

from __future__ import annotations

import re
from dataclasses import FrozenInstanceError
from operator import attrgetter
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.exceptions import QueryParseError
from repro.graphs.digraph import DiGraph

#: Variable and label tokens of the query language.  The unlabeled edge
#: label ``_`` (:data:`repro.graphs.digraph.UNLABELED`) is itself a valid
#: identifier, so unlabeled atoms are written ``_(x, y)`` (or ``x -> y``).
IDENT_PATTERN = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def is_identifier(name: object) -> bool:
    """Whether ``name`` is a string the query language can use as a token."""
    return isinstance(name, str) and IDENT_PATTERN.fullmatch(name) is not None


def _read_only(name: str, doc: str) -> property:
    """A public field backed by the private slot ``_name``, refusing writes."""

    def refuse(self, *_value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    return property(attrgetter("_" + name), refuse, refuse, doc)


class Atom:
    """One conjunct ``label(source, target)`` of a conjunctive query.

    ``span`` records the character range of the atom in the source text (for
    parse-time diagnostics) and is excluded from equality, hashing and the
    repr, so atoms parsed from differently formatted strings still compare
    equal.  Atoms are immutable: assigning a field raises
    :class:`dataclasses.FrozenInstanceError`.  They are plain slotted
    objects rather than frozen dataclasses, whose generated constructor
    pays one ``object.__setattr__`` per field on every parsed atom.
    """

    __slots__ = ("_label", "_source", "_target", "_span")

    def __init__(
        self,
        label: str,
        source: str,
        target: str,
        span: Optional[Tuple[int, int]] = None,
    ) -> None:
        self._label = label
        self._source = source
        self._target = target
        self._span = span

    label = _read_only("label", "The edge label.")
    source = _read_only("source", "The source variable.")
    target = _read_only("target", "The target variable.")
    span = _read_only("span", "The ``(start, end)`` offsets in the source text, or ``None``.")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self._label, self._source, self._target) == (
            other._label, other._source, other._target
        )

    def __hash__(self) -> int:
        return hash((self._label, self._source, self._target))

    def __repr__(self) -> str:
        return (
            f"{type(self).__qualname__}(label={self._label!r}, "
            f"source={self._source!r}, target={self._target!r})"
        )

    def __reduce__(self):
        return (type(self), (self._label, self._source, self._target, self._span))

    def format(self) -> str:
        """The atom in canonical surface syntax, e.g. ``R(x, y)``."""
        return f"{self._label}({self._source}, {self._target})"


class QueryIR:
    """A parsed conjunctive query: atoms plus variables without atoms.

    Attributes
    ----------
    atoms:
        The conjuncts, in source order; regular-path sugar and two-way atoms
        are already expanded/oriented into plain forward atoms.
    free_vertices:
        Variables mentioned as lone elements (``..., x``) that appear in no
        atom; they lower to isolated query vertices (which match anywhere).
    text:
        The original source string, when the IR came from the parser
        (excluded from equality, hashing and the repr).

    Like :class:`Atom`, an IR is an immutable slotted object.
    """

    __slots__ = ("_atoms", "_free_vertices", "_text")

    def __init__(
        self,
        atoms: Tuple[Atom, ...],
        free_vertices: Tuple[str, ...] = (),
        text: Optional[str] = None,
    ) -> None:
        self._atoms = atoms
        self._free_vertices = free_vertices
        self._text = text

    atoms = _read_only("atoms", "The conjuncts, in source order.")
    free_vertices = _read_only("free_vertices", "Variables that appear in no atom.")
    text = _read_only("text", "The source string, or ``None``.")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self._atoms, self._free_vertices) == (
            other._atoms, other._free_vertices
        )

    def __hash__(self) -> int:
        return hash((self._atoms, self._free_vertices))

    def __repr__(self) -> str:
        return (
            f"{type(self).__qualname__}(atoms={self._atoms!r}, "
            f"free_vertices={self._free_vertices!r})"
        )

    def __reduce__(self):
        return (type(self), (self._atoms, self._free_vertices, self._text))

    def variables(self) -> List[str]:
        """Every variable of the query, in sorted order."""
        seen = set(self._free_vertices)
        for atom in self._atoms:
            seen.add(atom._source)
            seen.add(atom._target)
        return sorted(seen)

    def to_graph(self) -> DiGraph:
        """Lower the IR to the :class:`DiGraph` query representation.

        Duplicate atoms collapse (a conjunct repeated twice is the same
        constraint); two atoms over the same ordered variable pair with
        *different* labels raise :class:`~repro.exceptions.QueryParseError`,
        because the paper's query graphs carry one label per edge — such a
        conjunction can never be satisfied by a single-label instance edge,
        and silently dropping one label would change the query's meaning.
        """
        labels: Dict[Tuple[str, str], str] = {}
        for atom in self._atoms:
            pair = (atom._source, atom._target)
            existing = labels.setdefault(pair, atom._label)
            if existing != atom._label:
                position = atom._span[0] if atom._span else None
                raise QueryParseError(
                    f"conflicting labels {existing!r} and {atom._label!r} on the "
                    f"atom pair ({atom._source}, {atom._target}); a query edge "
                    f"carries exactly one label",
                    self._text or "",
                    position,
                )
        return DiGraph(
            self.variables(),
            [(source, target, label) for (source, target), label in labels.items()],
        )

    def format(self) -> str:
        """The query in canonical surface syntax (see :func:`format_query`)."""
        parts = [atom.format() for atom in self._atoms]
        parts.extend(self._free_vertices)
        return ", ".join(parts)


def ir_from_graph(graph: DiGraph) -> QueryIR:
    """Re-express a query graph in the IR (inverse of :meth:`QueryIR.to_graph`).

    Every vertex name must be a valid query-language identifier; otherwise
    the graph cannot be written in the surface syntax and
    :class:`~repro.exceptions.QueryParseError` is raised.
    """
    for vertex in graph.vertices:
        if not is_identifier(vertex):
            raise QueryParseError(
                f"vertex name {vertex!r} cannot be written in the query "
                f"language (identifiers match [A-Za-z_][A-Za-z0-9_]*)"
            )
    atoms = tuple(
        Atom(edge.label, edge.source, edge.target) for edge in graph.edges()
    )
    covered = {v for atom in atoms for v in (atom.source, atom.target)}
    free = tuple(sorted(v for v in graph.vertices if v not in covered))
    return QueryIR(atoms=atoms, free_vertices=free)


def format_query(query: Union[QueryIR, DiGraph]) -> str:
    """Pretty-print a query (IR or graph) in the surface syntax.

    The output round-trips: parsing it reproduces an equal IR, and lowering
    that IR reproduces an equal graph.  Unlabeled edges print as ``_(x, y)``
    atoms.  Example::

        >>> from repro.graphs.builders import one_way_path
        >>> format_query(one_way_path(["R", "S"], prefix="x"))
        'R(x0, x1), S(x1, x2)'
    """
    if isinstance(query, DiGraph):
        return ir_from_graph(query).format()
    return query.format()
