"""The conjunctive-query language frontend.

A dependency-free textual surface syntax for the queries the library
evaluates — datalog-style atoms with regular-path sugar — plus the
Chandra–Merlin core minimizer and the class-aware ``normalize`` pass that
runs before the solver's classification:

>>> from repro.query import parse_query, format_query, query_core
>>> ir = parse_query("R(x, y), S(y, z), S(t, z)")
>>> format_query(ir)
'R(x, y), S(y, z), S(t, z)'
>>> format_query(query_core(ir.to_graph()))   # the redundant atom folds away
'R(x, y), S(y, z)'

See ``docs/query-language.md`` for the grammar and the minimization
semantics.
"""

from repro.query.ir import Atom, QueryIR, format_query, ir_from_graph, is_identifier
from repro.query.parser import (
    as_query_graph,
    parse_query,
    parse_query_graph,
)
from repro.query.minimize import (
    NormalizedQuery,
    QueryNormalForm,
    normal_form,
    normalize,
    query_core,
    validate_query_graph,
)
from repro.query.explain import QueryExplanation, dispatch_preview, explain_query

#: Alias matching the paper's terminology (the homomorphic *core*).
core = query_core

__all__ = [
    "Atom",
    "QueryIR",
    "format_query",
    "ir_from_graph",
    "is_identifier",
    "as_query_graph",
    "parse_query",
    "parse_query_graph",
    "NormalizedQuery",
    "QueryNormalForm",
    "normal_form",
    "normalize",
    "query_core",
    "core",
    "validate_query_graph",
    "QueryExplanation",
    "dispatch_preview",
    "explain_query",
]
