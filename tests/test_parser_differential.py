"""Differential tests of the one-pass atom-list scan against the full parser.

``parse_query`` reads a plain comma-separated atom list with one anchored
match per atom and hands every other text to the recursive-descent
``_Parser``.  These tests hold the scan to the parser: on every text the scan
accepts, the IR must equal ``_Parser(text).parse()`` in its atoms (spans
compared explicitly, since ``Atom.span`` is excluded from equality), its free
vertices, its text and its lowered graph; on every text it declines,
``parse_query`` must give the parser's result or its exact error.

Inputs are the workload generator's query texts for every class, labeled
and unlabeled, sizes 1-12, and hypothesis atom lists with random spaces,
tabs and newlines around every token.  Both are seeded from
``REPRO_FUZZ_SEED`` (default 20170514), so CI draws them under two seeds.
"""

from __future__ import annotations

import os
import random

import pytest
from hypothesis import given, seed, settings, strategies as st

from repro.exceptions import QueryParseError
from repro.graphs.classes import GraphClass
from repro.graphs.digraph import DiGraph
from repro.query import format_query, parse_query
from repro.query.ir import QueryIR
from repro.query.parser import _Parser, _scan_atom_list
from repro.workloads.generators import make_query

SEED = int(os.environ.get("REPRO_FUZZ_SEED", "20170514"))


def reference_graph(ir: QueryIR) -> DiGraph:
    """``QueryIR.to_graph`` as it was before the bulk constructor: one
    ``add_edge`` per distinct atom, in atom order."""
    graph = DiGraph(vertices=ir.variables())
    for atom in ir.atoms:
        pair = (atom.source, atom.target)
        if graph.has_edge(*pair):
            existing = graph.label_of(*pair)
            if existing == atom.label:
                continue
            position = atom.span[0] if atom.span else None
            raise QueryParseError(
                f"conflicting labels {existing!r} and {atom.label!r} on the "
                f"atom pair ({atom.source}, {atom.target}); a query edge "
                f"carries exactly one label",
                ir.text or "",
                position,
            )
        graph.add_edge(atom.source, atom.target, atom.label)
    return graph


def lowered(ir: QueryIR):
    """The lowered graph with its dict orders, or the lowering error."""
    try:
        graph = ir.to_graph()
    except QueryParseError as error:
        return ("error", error.message, error.position, str(error))
    return ("graph", graph, list(graph._edges), list(graph._succ))


def reference_lowered(ir: QueryIR):
    try:
        graph = reference_graph(ir)
    except QueryParseError as error:
        return ("error", error.message, error.position, str(error))
    return ("graph", graph, list(graph._edges), list(graph._succ))


def outcome(parse, text: str):
    """What ``parse(text)`` gives: the IR with its spans, or the error."""
    try:
        ir = parse(text)
    except QueryParseError as error:
        return ("error", error.message, error.position, str(error))
    return ("ir", ir, [atom.span for atom in ir.atoms], ir.free_vertices, ir.text)


def assert_same_ir(text: str) -> QueryIR:
    """The scan accepts ``text`` and agrees with the parser; returns its IR."""
    scanned = _scan_atom_list(text)
    assert scanned is not None, f"the scan declined a plain atom list: {text!r}"
    parsed = _Parser(text).parse()
    assert scanned.atoms == parsed.atoms
    assert [atom.span for atom in scanned.atoms] == [atom.span for atom in parsed.atoms]
    assert scanned.free_vertices == parsed.free_vertices == ()
    assert scanned.text == parsed.text == text
    assert parse_query(text) == parsed
    assert lowered(scanned) == lowered(parsed) == reference_lowered(parsed)
    return scanned


def generated_texts():
    """Generator texts for every class, labeled and unlabeled, sizes 1-12."""
    rng = random.Random(SEED)
    texts = []
    for query_class in GraphClass:
        for labeled in (True, False):
            for size in range(1, 13):
                graph = make_query(query_class, labeled, size, rng)
                # Union generators name vertices by tuples, which the
                # language cannot spell: rename them to identifiers.
                names = {v: f"v{i}" for i, v in enumerate(sorted(graph.vertices, key=repr))}
                texts.append(format_query(graph.relabel_vertices(names)))
    return texts


GENERATED_TEXTS = generated_texts()


class TestGeneratedTexts:
    def test_every_plain_text_scans_to_the_parsers_ir(self):
        scanned = 0
        for text in GENERATED_TEXTS:
            parsed = _Parser(text).parse()
            if parsed.free_vertices:
                # A lone variable is not an atom list: the parser reads it.
                assert _scan_atom_list(text) is None
                assert parse_query(text) == parsed
                continue
            assert_same_ir(text)
            scanned += 1
        assert scanned >= len(GENERATED_TEXTS) * 3 // 4

    def test_graphs_round_trip_through_the_scan(self):
        for text in GENERATED_TEXTS:
            graph = parse_query(text).to_graph()
            assert parse_query(format_query(graph)).to_graph() == graph


# ----------------------------------------------------------------------
# hypothesis atom lists
# ----------------------------------------------------------------------
_SPACE = st.text(alphabet=" \t\n", max_size=3)
_VARIABLE = st.sampled_from(["x", "y", "z", "q0", "q1", "_v", "Long_name9"])
_LABEL = st.sampled_from(["R", "S", "_", "T2", "edge_label"])


@st.composite
def spaced_atom_lists(draw):
    atoms = draw(st.lists(st.tuples(_LABEL, _VARIABLE, _VARIABLE), min_size=1, max_size=8))
    pieces = []
    for index, (label, source, target) in enumerate(atoms):
        if index:
            pieces.append(",")
        for token in (label, "(", source, ",", target, ")"):
            pieces.append(draw(_SPACE))
            pieces.append(token)
    pieces.append(draw(_SPACE))
    return "".join(pieces)


@seed(SEED)
@settings(max_examples=300, deadline=None)
@given(spaced_atom_lists())
def test_spaced_atom_lists_scan_to_the_parsers_ir(text):
    assert_same_ir(text)


@seed(SEED)
@settings(max_examples=100, deadline=None)
@given(spaced_atom_lists(), st.sampled_from([",", " # S(a, b)", ", z", " x -> y"]))
def test_a_trailing_token_sends_the_text_to_the_parser(text, tail):
    text += tail
    assert _scan_atom_list(text) is None
    assert outcome(parse_query, text) == outcome(lambda t: _Parser(t).parse(), text)


# ----------------------------------------------------------------------
# texts the scan must decline
# ----------------------------------------------------------------------
DECLINED = [
    "R(x, y)  # a comment",
    "R(x, y) # S(y, z)",
    "# leading comment\nR(x, y)",
    "x -[R.S]-> y",
    "x -> y -> z",
    "x <-[R]- y",
    "x -[R{2}]-> y",
    "R(x, y), z",
    "z",
    "R(x, y),",
    "",
    "   ",
    "R(x y)",
    "R(1, y)",
    "Ré(x, y)",
    "R(x, y) S(y, z)",
    "R(x, y, z)",
    "R(x, y)),",
]


@pytest.mark.parametrize("text", DECLINED)
def test_declined_texts_get_the_parsers_result_or_error(text):
    assert _scan_atom_list(text) is None
    assert outcome(parse_query, text) == outcome(lambda t: _Parser(t).parse(), text)


def test_conflicting_labels_raise_at_the_same_offset():
    text = "R(x, y),\n  S(y, z), T(x, y)"
    scanned = _scan_atom_list(text)
    assert scanned is not None
    assert lowered(scanned) == reference_lowered(_Parser(text).parse())
    with pytest.raises(QueryParseError) as caught:
        parse_query(text).to_graph()
    assert caught.value.position == text.index("T(")
