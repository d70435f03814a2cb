"""The query normal form, the IR contract, and served spellings against ``solve``.

Three groups of tests:

* the IR classes (:class:`~repro.query.ir.Atom`, :class:`~repro.query.ir.QueryIR`)
  keep the contract they had as frozen dataclasses: constructors, fields,
  equality and hashing that ignore ``span`` / ``text``, the repr,
  immutability and pickling;
* the one-pass :func:`~repro.query.minimize.normal_form` gives the cores
  (as graphs), keys, classes and fold counts of the generic fold search on
  random class-grid queries, redundant spellings included;
* every ``submit_many`` answer — a representative a worker computed, a
  coalesced duplicate, a result-cache hit — equals what
  ``PHomSolver().solve(text, instance)`` returns for the same spelling, or
  fails with the same error class, inline and on a 1-worker pool, exact
  and float.  The traffic is generated by :mod:`repro.workloads.generators`
  in the three serving shapes, with redundant spellings, #P-hard queries
  and self-loop spellings mixed in.

Inputs are seeded from ``REPRO_FUZZ_SEED`` (default 20170514), so CI draws
them under two seeds.
"""

from __future__ import annotations

import dataclasses
import os
import pickle
import random
import warnings
from typing import Dict, List, Optional, Tuple

import pytest

from repro.core.solver import PHomSolver
from repro.exceptions import ReproError
from repro.graphs.classes import GraphClass, graph_class_of
from repro.graphs.digraph import DiGraph
from repro.graphs.homomorphism import homomorphic_equivalent
from repro.plan import canonical_query_key
from repro.probability.prob_graph import ProbabilisticGraph
from repro.query import format_query, parse_query, parse_query_graph
from repro.query import minimize as minimize_module
from repro.query.ir import Atom, QueryIR
from repro.query.minimize import (
    NormalizedQuery,
    fold_search_core,
    normal_form,
    query_core,
    spelling_key,
)
from repro.service import QueryService, ServiceRequest
from repro.workloads.generators import (
    add_redundant_atoms,
    attach_random_probabilities,
    intractable_workload,
    make_instance,
    make_query,
    zipf_ranks,
)

SEED = int(os.environ.get("REPRO_FUZZ_SEED", "20170514"))


# ----------------------------------------------------------------------
# the IR contract
# ----------------------------------------------------------------------
class TestIRContract:
    def test_atom_equality_and_hash_ignore_the_span(self):
        spanned = Atom("R", "x", "y", span=(3, 10))
        plain = Atom(label="R", source="x", target="y")
        assert spanned == plain and hash(spanned) == hash(plain)
        assert hash(plain) == hash(("R", "x", "y"))
        assert spanned.span == (3, 10) and plain.span is None
        assert plain != Atom("S", "x", "y") and plain != Atom("R", "y", "x")
        assert plain != ("R", "x", "y") and plain != ("R", "x", "y", None)
        assert len({spanned, plain, Atom("R", "x", "z")}) == 2

    def test_ir_equality_and_hash_ignore_the_text(self):
        first = parse_query("R(x, y),  S(y, z)")
        second = parse_query("R(x,y), S(y,z)")
        assert first.text != second.text
        assert first == second and hash(first) == hash(second)
        assert hash(first) == hash((first.atoms, first.free_vertices))
        assert first != parse_query("R(x, y), S(y, z), w")
        assert QueryIR(atoms=first.atoms) == first
        assert QueryIR(first.atoms, (), "other text") == first

    def test_reprs_read_like_the_dataclasses(self):
        atom = Atom("R", "x", "y", span=(0, 7))
        assert repr(atom) == "Atom(label='R', source='x', target='y')"
        ir = QueryIR((atom,), ("z",), text="R(x, y), z")
        assert repr(ir) == (
            "QueryIR(atoms=(Atom(label='R', source='x', target='y'),), "
            "free_vertices=('z',))"
        )

    @pytest.mark.parametrize("field", ["label", "source", "target", "span"])
    def test_atom_fields_are_immutable(self, field):
        atom = Atom("R", "x", "y", span=(0, 7))
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(atom, field, "T")
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(atom, field)
        with pytest.raises(AttributeError):
            atom.extra = 1
        assert atom.format() == "R(x, y)" and atom.span == (0, 7)

    @pytest.mark.parametrize("field", ["atoms", "free_vertices", "text"])
    def test_ir_fields_are_immutable(self, field):
        ir = parse_query("R(x, y), z")
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(ir, field, ())
        with pytest.raises(AttributeError):
            ir.extra = 1
        assert ir.format() == "R(x, y), z"

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickles_round_trip_with_spans_and_text(self, protocol):
        ir = parse_query("x -[R.S]-> y, T(y, z), w")
        copy = pickle.loads(pickle.dumps(ir, protocol))
        assert copy == ir and copy.text == ir.text
        assert [a.span for a in copy.atoms] == [a.span for a in ir.atoms]
        assert copy.to_graph() == ir.to_graph()

    def test_parsed_irs_lower_and_print_as_before(self):
        rng = random.Random(SEED)
        for query_class in (GraphClass.TWO_WAY_PATH, GraphClass.CONNECTED):
            for labeled in (True, False):
                graph = make_query(query_class, labeled, rng.randint(1, 6), rng)
                ir = parse_query(format_query(graph))
                assert ir.to_graph() == graph
                assert parse_query(ir.format()) == ir


# ----------------------------------------------------------------------
# the one-pass normal form against the fold search
# ----------------------------------------------------------------------
GRID = (
    GraphClass.ONE_WAY_PATH,
    GraphClass.TWO_WAY_PATH,
    GraphClass.DOWNWARD_TREE,
    GraphClass.POLYTREE,
    GraphClass.CONNECTED,
    GraphClass.UNION_TWO_WAY_PATH,
    GraphClass.UNION_DOWNWARD_TREE,
)


def grid_queries(count: int = 4) -> List[DiGraph]:
    """Random class-grid queries, half of them with redundant atoms."""
    rng = random.Random(SEED + 31)
    queries = []
    for query_class in GRID:
        for labeled in (True, False):
            for index in range(count):
                query = make_query(query_class, labeled, rng.randint(1, 7), rng)
                if index % 2 and query.num_edges():
                    query = add_redundant_atoms(query, rng.randint(1, 3), rng)
                queries.append(query)
    return queries


@pytest.mark.parametrize("index", range(len(grid_queries())))
def test_normal_form_matches_the_fold_search(index):
    generated = grid_queries()[index]
    text = repr(generated)
    query, oracle = generated.copy(), fold_search_core(generated.copy())
    form = normal_form(query)
    core = query_core(query)
    # the core is a subgraph of the spelling, and the oracle's graph up to
    # isomorphism: equal sizes, equal exact keys, equivalent to the query
    assert core.vertices <= query.vertices and core.edge_set() <= query.edge_set()
    assert (core.num_vertices(), core.num_edges()) == (
        oracle.num_vertices(), oracle.num_edges()
    ), text
    assert spelling_key(core) == spelling_key(oracle), text
    assert homomorphic_equivalent(core, query)
    # the verdict is the one the graphs give
    assert form.key == canonical_query_key(oracle, minimize=False), text
    assert form.query_class is graph_class_of(query), text
    assert form.core_class is graph_class_of(oracle) is graph_class_of(core), text
    assert form.folded_vertices == query.num_vertices() - oracle.num_vertices()
    assert form.folded_edges == query.num_edges() - oracle.num_edges()
    expected = NormalizedQuery(
        query, core, graph_class_of(query), graph_class_of(oracle),
        form.folded_vertices, form.folded_edges,
    )
    assert form.note == expected.describe()
    # the core is frozen, its own core, and keyed alike
    if core is not query:
        assert core.frozen
    assert query_core(core) is core
    assert normal_form(core).key == form.key
    assert normal_form(core).query_class is form.core_class


def test_a_path_core_is_built_only_on_request():
    query = parse_query_graph("R(x, y), S(y, z), S(t, z)")
    form = normal_form(query)
    assert form.folded_vertices == 1 and not isinstance(form._core, DiGraph)
    assert canonical_query_key(query) == canonical_query_key(
        parse_query_graph("R(a, b), S(b, c)")
    )
    assert not isinstance(form._core, DiGraph)
    core = query_core(query)
    assert form._core is core and query_core(query) is core


#: Spellings by the route their core takes: their own core (a 1WP, a 2WP,
#: a labeled star), a 2WP window, a fold search, a height path.
MEMO_TEXTS = (
    "R(x, y), S(y, z)",
    "R(x, y), S(z, y), R(z, w)",
    "R(r, a), S(r, b), T(r, c)",
    "R(x, y), S(y, z), S(t, z)",
    "R(a, b), R(c, d)",
    "_(r, a), _(r, b), _(r, c), _(a, d)",
)


def allow_once(monkeypatch, name: str) -> List[object]:
    """Let ``minimize.<name>`` run once; a second call fails the test."""
    real, calls = getattr(minimize_module, name), []

    def once(*args):
        calls.append(args)
        if len(calls) > 1:
            raise AssertionError(f"{name} ran again: the memo was bypassed")
        return real(*args)

    monkeypatch.setattr(minimize_module, name, once)
    return calls


@pytest.mark.parametrize("text", MEMO_TEXTS)
def test_a_spelling_and_its_core_are_served_from_the_memo(text, monkeypatch):
    query = parse_query_graph(text)
    forms = allow_once(monkeypatch, "_normal_form")
    folds = allow_once(monkeypatch, "fold_search_core")
    builds = allow_once(monkeypatch, "_compute_core")
    form = normal_form(query)
    core = query_core(query)
    assert forms == [(query,)]
    for _ in range(2):
        assert normal_form(query) is form
        assert query_core(query) is core
        assert canonical_query_key(query) == form.key
        # the core was seeded with its own form when it was built
        assert query_core(core) is core
        assert canonical_query_key(core) == form.key
        core_form = normal_form(core)
        assert core_form.key == form.key and not core_form.changed
        assert core_form.query_class is core_form.core_class is form.core_class
    assert forms == [(query,)]
    # one core computation at most: a fold search or a path core's build
    assert len(folds) + len(builds) <= 1


def test_a_mutated_spelling_gets_a_fresh_normal_form():
    query = parse_query_graph("R(x, y), S(y, z)")
    assert normal_form(query).folded_edges == 0
    query.add_edge("t", "z", "S")
    assert normal_form(query).folded_edges == 1
    assert query_core(query).num_edges() == 2


# ----------------------------------------------------------------------
# served spellings against solve
# ----------------------------------------------------------------------
#: (instance class, labeled, query class, query size, instance size): the
#: three serving shapes of the Zipf workloads.
SHAPES = (
    (GraphClass.UNION_DOWNWARD_TREE, True, GraphClass.ONE_WAY_PATH, 3, 12),
    (GraphClass.UNION_TWO_WAY_PATH, True, GraphClass.TWO_WAY_PATH, 3, 10),
    (GraphClass.POLYTREE, False, GraphClass.DOWNWARD_TREE, 4, 10),
)

#: The fields of a ``PHomResult`` a served answer must share with ``solve``.
FIELDS = (
    "probability", "method", "proposition", "query_class", "instance_class",
    "labeled", "notes",
)


def spelling_pool(
    query: DiGraph, rng: random.Random, label: Optional[str]
) -> List[str]:
    """Spellings of one query: as generated, redundant, and with self-loops."""
    pool = [format_query(query)]
    for _ in range(2):
        pool.append(format_query(add_redundant_atoms(query, rng.randint(1, 2), rng)))
    if label is not None:
        variable = sorted(query.vertices)[0]
        pool.append(f"{pool[0]}, {label}({variable}, {variable})")  # mixed: valid
        pool.append(f"{label}({variable}, {variable})")  # self-loop only: rejected
    return pool


def build_traffic(seed: int) -> Tuple[Dict[str, ProbabilisticGraph], List[list]]:
    """Instances and Zipf batches of ``(instance id, text, precision)``."""
    rng = random.Random(seed)
    instances: Dict[str, ProbabilisticGraph] = {}
    pools: Dict[str, List[str]] = {}
    for index, (instance_class, labeled, query_class, qsize, isize) in enumerate(SHAPES):
        graph = make_instance(instance_class, labeled, isize, rng)
        instance_id = f"shape{index}"
        instances[instance_id] = attach_random_probabilities(graph, rng)
        pool: List[str] = []
        for _ in range(3):
            query = make_query(query_class, labeled, qsize, rng)
            label = sorted(query.labels())[0] if query.num_edges() else None
            pool += spelling_pool(query, rng, label)
        pools[instance_id] = pool
    # the #P-hard salt: R.S on a layered DAG, small enough for brute force
    hard = intractable_workload(6, rng)
    instances["hard"] = hard.instance
    pools["hard"] = spelling_pool(hard.query, rng, "R")
    batches = []
    ids = sorted(pools)
    for _ in range(6):
        batch = []
        for _ in range(12):
            instance_id = rng.choice(ids)
            pool = pools[instance_id]
            (rank,) = zipf_ranks(1, len(pool), 1.1, rng)
            precision = "float" if rng.random() < 0.25 else "exact"
            batch.append((instance_id, pool[rank], precision))
        batches.append(batch)
    return instances, batches


def solve_outcome(solver: PHomSolver, text: str, instance, precision: str):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            result = solver.solve(text, instance, precision=precision)
        except ReproError as error:
            return ("error", type(error).__name__)
    return ("ok",) + tuple(getattr(result, field) for field in FIELDS)


def served_outcome(outcome):
    if outcome.result is None:
        return ("error", outcome.error_class)
    return ("ok",) + tuple(getattr(outcome.result, field) for field in FIELDS)


@pytest.mark.parametrize("workers", [0, 1], ids=["inline", "pool"])
@pytest.mark.parametrize("draw", range(2))
def test_every_served_spelling_is_answered_as_solve_answers_it(workers, draw):
    instances, batches = build_traffic(SEED + 97 * draw)
    oracle = PHomSolver()
    paths = {"computed": 0, "coalesced": 0, "cached": 0, "failed": 0}
    with QueryService(num_workers=workers) as service:
        for instance_id in sorted(instances):
            service.register_instance(instances[instance_id], instance_id)
        for batch in batches:
            requests = [
                ServiceRequest(query=text, instance_id=instance_id, precision=precision)
                for instance_id, text, precision in batch
            ]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                outcomes = service.submit_many(requests, on_error="return")
            for (instance_id, text, precision), outcome in zip(batch, outcomes):
                expected = solve_outcome(oracle, text, instances[instance_id], precision)
                assert served_outcome(outcome) == expected, (text, instance_id)
                if outcome.result is None:
                    paths["failed"] += 1
                elif outcome.coalesced:
                    paths["coalesced"] += 1
                elif outcome.cached:
                    paths["cached"] += 1
                else:
                    paths["computed"] += 1
    # the traffic reaches every path a served answer can take
    assert all(paths.values()), paths
