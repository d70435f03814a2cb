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
from dataclasses import dataclass, field
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


@dataclass(frozen=True)
class Atom:
    """One conjunct ``label(source, target)`` of a conjunctive query.

    ``span`` records the character range of the atom in the source text (for
    parse-time diagnostics) and is excluded from equality, so atoms parsed
    from differently formatted strings still compare equal.
    """

    label: str
    source: str
    target: str
    span: Optional[Tuple[int, int]] = field(default=None, compare=False, repr=False)

    def format(self) -> str:
        """The atom in canonical surface syntax, e.g. ``R(x, y)``."""
        return f"{self.label}({self.source}, {self.target})"


@dataclass(frozen=True)
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
        (excluded from equality).
    """

    atoms: Tuple[Atom, ...]
    free_vertices: Tuple[str, ...] = ()
    text: Optional[str] = field(default=None, compare=False, repr=False)

    def variables(self) -> List[str]:
        """Every variable of the query, in sorted order."""
        seen = set(self.free_vertices)
        for atom in self.atoms:
            seen.add(atom.source)
            seen.add(atom.target)
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
        for atom in self.atoms:
            pair = (atom.source, atom.target)
            existing = labels.setdefault(pair, atom.label)
            if existing != atom.label:
                position = atom.span[0] if atom.span else None
                raise QueryParseError(
                    f"conflicting labels {existing!r} and {atom.label!r} on the "
                    f"atom pair ({atom.source}, {atom.target}); a query edge "
                    f"carries exactly one label",
                    self.text or "",
                    position,
                )
        return DiGraph(
            self.variables(),
            [(source, target, label) for (source, target), label in labels.items()],
        )

    def format(self) -> str:
        """The query in canonical surface syntax (see :func:`format_query`)."""
        parts = [atom.format() for atom in self.atoms]
        parts.extend(self.free_vertices)
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
