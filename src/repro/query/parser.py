"""Parser for the conjunctive-query surface language.

Grammar (whitespace-insensitive, ``#`` comments run to end of line)::

    query    :=  element ("," element)*
    element  :=  atom | chain | IDENT
    atom     :=  IDENT "(" IDENT "," IDENT ")"          R(x, y)
    chain    :=  IDENT (arrow IDENT)+                   x -[R.S]-> y -[T]-> z
    arrow    :=  "-[" path "]->"                        forward steps
              |  "<-[" path "]-"                        two-way (reversed) steps
              |  "->"                                   one unlabeled edge
              |  "<-"                                   one reversed unlabeled edge
    path     :=  step ("." step)*
    step     :=  IDENT ("{" INT "}")?                   R, R{3}

A lone ``IDENT`` element declares a variable with no atoms (an isolated
query vertex, which maps anywhere).  Regular-path sugar expands to a chain
of plain atoms through fresh intermediate variables (named ``_1``, ``_2``,
... , skipping names the query already uses); a two-way arrow
``x <-[R]- y`` is oriented at parse time into the forward atom ``R(y, x)``.

A plain atom list (``R(x, y), S(y, z)``, the form :func:`format_query`
prints) is read in one pass, one anchored match per atom; any other text,
and every malformed one, goes through the recursive-descent parser, which
alone expands sugar and raises diagnostics.

Errors raise :class:`~repro.exceptions.QueryParseError` with the exact
source offset, rendered as a caret diagnostic.
"""

from __future__ import annotations

import re
from typing import List, Optional, Sequence, Tuple, Union

from repro.exceptions import QueryParseError
from repro.graphs.digraph import DiGraph, UNLABELED
from repro.query.ir import IDENT_PATTERN, Atom, QueryIR

#: Token kinds, longest-match first (``-[`` must win over ``-``).
_TOKEN_PATTERN = re.compile(
    r"""
    (?P<ws>\s+|\#[^\n]*)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<int>\d+)
  | (?P<larrowbracket><-\[)
  | (?P<rbracketarrow>\]->)
  | (?P<lbracketarrow>-\[)
  | (?P<rarrowbracket>\]-)
  | (?P<rarrow>->)
  | (?P<larrow><-)
  | (?P<lparen>\()
  | (?P<rparen>\))
  | (?P<comma>,)
  | (?P<dot>\.)
  | (?P<lbrace>\{)
  | (?P<rbrace>\})
    """,
    re.VERBOSE,
)


class _Token:
    __slots__ = ("kind", "value", "position")

    def __init__(self, kind: str, value: str, position: int) -> None:
        self.kind = kind
        self.value = value
        self.position = position


def _tokenize(text: str) -> List[_Token]:
    tokens: List[_Token] = []
    position = 0
    while position < len(text):
        match = _TOKEN_PATTERN.match(text, position)
        if match is None:
            raise QueryParseError(
                f"unexpected character {text[position]!r}", text, position
            )
        if match.lastgroup != "ws":
            tokens.append(_Token(match.lastgroup, match.group(), position))
        position = match.end()
    tokens.append(_Token("eof", "", len(text)))
    return tokens


#: One step of a regular-path expression: (label, repetition count).
_Step = Tuple[str, int]

#: A raw chain arrow before expansion: (steps, reversed?, span start).
_Arrow = Tuple[Tuple[_Step, ...], bool, int]


class _Parser:
    """Recursive-descent parser over the token list."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.tokens = _tokenize(text)
        self.index = 0

    # -- token helpers -------------------------------------------------
    def _peek(self) -> _Token:
        return self.tokens[self.index]

    def _advance(self) -> _Token:
        token = self.tokens[self.index]
        self.index += 1
        return token

    def _expect(self, kind: str, what: str) -> _Token:
        token = self._peek()
        if token.kind != kind:
            found = repr(token.value) if token.kind != "eof" else "end of input"
            raise QueryParseError(
                f"expected {what}, found {found}", self.text, token.position
            )
        return self._advance()

    def _fail(self, message: str) -> QueryParseError:
        return QueryParseError(message, self.text, self._peek().position)

    # -- grammar productions -------------------------------------------
    def parse(self) -> QueryIR:
        if self._peek().kind == "eof":
            raise self._fail("empty query: expected at least one atom or variable")
        atoms: List[Atom] = []
        chains: List[Tuple[List[str], List[_Arrow]]] = []
        free: List[str] = []
        while True:
            self._element(atoms, chains, free)
            if self._peek().kind == "comma":
                self._advance()
                continue
            self._expect("eof", "',' or end of query")
            break
        atoms = self._expand_chains(atoms, chains, free)
        # A variable is "free" only if no atom ended up mentioning it.
        mentioned = {v for atom in atoms for v in (atom.source, atom.target)}
        free_vertices = tuple(
            sorted({name for name in free if name not in mentioned})
        )
        return QueryIR(atoms=tuple(atoms), free_vertices=free_vertices, text=self.text)

    def _element(
        self,
        atoms: List[Atom],
        chains: List[Tuple[List[str], List[_Arrow]]],
        free: List[str],
    ) -> None:
        start = self._expect("ident", "a label or a variable")
        kind = self._peek().kind
        if kind == "lparen":
            atoms.append(self._atom_body(start))
        elif kind in ("lbracketarrow", "larrowbracket", "rarrow", "larrow"):
            chains.append(self._chain_body(start))
        elif kind in ("comma", "eof"):
            free.append(start.value)
        else:
            raise self._fail(
                f"expected '(', an arrow, ',' or end of query after {start.value!r}"
            )

    def _atom_body(self, label: _Token) -> Atom:
        self._expect("lparen", "'('")
        source = self._expect("ident", "a variable name")
        self._expect("comma", f"',' between the arguments of {label.value!r}")
        target = self._expect("ident", "a variable name")
        close = self._expect("rparen", "')'")
        return Atom(
            label.value,
            source.value,
            target.value,
            span=(label.position, close.position + 1),
        )

    def _chain_body(self, start: _Token) -> Tuple[List[str], List[_Arrow]]:
        """A chain ``x -[..]-> y <-[..]- z ...``: waypoints plus arrows."""
        waypoints = [start.value]
        arrows: List[_Arrow] = []
        while True:
            token = self._peek()
            if token.kind == "rarrow":
                self._advance()
                steps: Tuple[_Step, ...] = ((UNLABELED, 1),)
                reversed_arrow = False
            elif token.kind == "larrow":
                self._advance()
                steps = ((UNLABELED, 1),)
                reversed_arrow = True
            elif token.kind == "lbracketarrow":
                self._advance()
                steps = self._path()
                self._expect("rbracketarrow", "']->' closing the forward arrow")
                reversed_arrow = False
            elif token.kind == "larrowbracket":
                self._advance()
                steps = self._path()
                self._expect("rarrowbracket", "']-' closing the two-way arrow")
                reversed_arrow = True
            else:
                break
            target = self._expect("ident", "a variable name after the arrow")
            arrows.append((steps, reversed_arrow, token.position))
            waypoints.append(target.value)
        return waypoints, arrows

    def _path(self) -> Tuple[_Step, ...]:
        steps: List[_Step] = [self._step()]
        while self._peek().kind == "dot":
            self._advance()
            steps.append(self._step())
        return tuple(steps)

    def _step(self) -> _Step:
        label = self._expect("ident", "an edge label")
        count = 1
        if self._peek().kind == "lbrace":
            self._advance()
            number = self._expect("int", "a repetition count")
            self._expect("rbrace", "'}' closing the repetition")
            count = int(number.value)
            if count < 1:
                raise QueryParseError(
                    f"repetition {label.value}{{{count}}} must be at least 1",
                    self.text,
                    number.position,
                )
        return (label.value, count)

    # -- sugar expansion -----------------------------------------------
    def _expand_chains(
        self,
        atoms: List[Atom],
        chains: List[Tuple[List[str], List[_Arrow]]],
        free: Sequence[str],
    ) -> List[Atom]:
        """Expand chain arrows into plain atoms through fresh variables.

        Fresh intermediates are named ``_1``, ``_2``, ... — numbering is
        global across the query and skips every name the query mentions
        anywhere, so expansion can never capture a user variable.
        """
        used = {name for atom in atoms for name in (atom.source, atom.target)}
        used.update(free)
        for waypoints, _arrows in chains:
            used.update(waypoints)
        counter = 0

        def fresh() -> str:
            nonlocal counter
            while True:
                counter += 1
                name = f"_{counter}"
                if name not in used:
                    used.add(name)
                    return name

        expanded = list(atoms)
        for waypoints, arrows in chains:
            for hop, (steps, reversed_arrow, position) in enumerate(arrows):
                left, right = waypoints[hop], waypoints[hop + 1]
                labels = [label for label, count in steps for _ in range(count)]
                if reversed_arrow:
                    # ``x <-[R.S]- y`` reads as the forward path from y to x.
                    left, right = right, left
                nodes = [left] + [fresh() for _ in range(len(labels) - 1)] + [right]
                for label, source, target in zip(labels, nodes, nodes[1:]):
                    expanded.append(
                        Atom(label, source, target, span=(position, position))
                    )
        return expanded


#: One atom ``label(source, target)`` of a plain atom list, whitespace
#: around every token; the groups are the three identifiers and the ``)``.
_ATOM_PATTERN = re.compile(
    r"\s*({0})\s*\(\s*({0})\s*,\s*({0})\s*(\))\s*".format(IDENT_PATTERN.pattern)
)


def _scan_atom_list(text: str) -> Optional[QueryIR]:
    """The IR of a plain comma-separated atom list, or ``None`` for other text.

    Each identifier is matched up to a ``(``, ``,`` or ``)``, so the scan
    splits tokens exactly where the tokenizer does, and the IR it builds
    (atoms, spans, no free vertices, the text) is the one
    :class:`_Parser` would return.
    """
    atoms: List[Atom] = []
    match = _ATOM_PATTERN.match
    position, end = 0, len(text)
    while True:
        found = match(text, position)
        if found is None:
            return None
        label, source, target = found.group(1, 2, 3)
        atoms.append(Atom(label, source, target, span=(found.start(1), found.end(4))))
        position = found.end()
        if position == end:
            return QueryIR(atoms=tuple(atoms), text=text)
        if text[position] != ",":
            return None
        position += 1


def parse_query(text: str) -> QueryIR:
    """Parse a query-language string into a :class:`~repro.query.ir.QueryIR`.

    >>> ir = parse_query("R(x, y), S(y, z)")
    >>> [atom.format() for atom in ir.atoms]
    ['R(x, y)', 'S(y, z)']
    >>> parse_query("x -[R.S]-> y").format()
    'R(x, _1), S(_1, y)'
    >>> parse_query("x <-[R]- y").format()
    'R(y, x)'
    """
    return _scan_atom_list(text) or _Parser(text).parse()


def parse_query_graph(text: str) -> DiGraph:
    """Parse a query-language string and lower it to a query graph."""
    return parse_query(text).to_graph()


def as_query_graph(query: Union[str, DiGraph]) -> DiGraph:
    """Coerce a query given as a string or a graph to a query graph.

    This is the adapter behind the string-accepting public entry points
    (:func:`repro.phom_probability`, :meth:`repro.PHomSolver.solve`, the
    serving layer): strings go through the parser, graphs pass through
    unchanged.
    """
    if isinstance(query, str):
        return parse_query_graph(query)
    if isinstance(query, DiGraph):
        return query
    raise QueryParseError(
        f"a query must be a DiGraph or a query-language string, "
        f"got {type(query).__name__}"
    )
