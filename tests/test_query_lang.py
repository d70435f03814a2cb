"""Tests for the conjunctive-query language frontend (:mod:`repro.query`).

Covers the parser (atoms, regular-path sugar, two-way atoms, source-located
errors), the ``format_query`` round-trip property on seeded random queries,
the Chandra–Merlin ``query_core`` minimizer (equivalence against the
brute-force oracle on small instances, idempotence), the class-aware
``normalize`` pass, and the end-to-end integrations: string queries through
:class:`~repro.core.solver.PHomSolver`, core-keyed
:func:`~repro.plan.canonical_query_key` coalescing, the JSONL serving
protocol, and the ``repro parse`` CLI command.

The random suites reuse the pinned ``REPRO_FUZZ_SEED`` convention of
``tests/test_properties_random.py``, so CI exercises them under two seeds.
"""

from __future__ import annotations

import io
import json
import os
import random
import warnings
from fractions import Fraction

import pytest

from repro.cli import main as cli_main
from repro.core.solver import PHomSolver, phom_probability
from repro.exceptions import (
    ClassConstraintError,
    IntractableFallbackWarning,
    QueryParseError,
    ReproError,
    ServiceError,
)
from repro.core.unlabeled_pt import collapse_query_to_path_length
from repro.graphs.builders import one_way_path, two_way_path
from repro.graphs.classes import GraphClass, graph_class_of
from repro.graphs.digraph import DiGraph, UNLABELED
from repro.graphs.homomorphism import homomorphic_equivalent
from repro.graphs.serialization import save_graph
from repro.plan import canonical_query_key
from repro.probability.brute_force import brute_force_phom
from repro.probability.prob_graph import ProbabilisticGraph
from repro.query import (
    Atom,
    QueryIR,
    explain_query,
    format_query,
    normalize,
    parse_query,
    parse_query_graph,
    query_core,
    validate_query_graph,
)
from repro.query import minimize as minimize_module
from repro.query.minimize import NormalizedQuery, fold_search_core
from repro.service import QueryService, ServiceRequest, run_jsonl_session
from repro.service.requests import request_from_json_dict
from repro.workloads.generators import (
    add_redundant_atoms,
    attach_random_probabilities,
    make_instance,
    make_query,
    redundant_query_workload,
)

SEED = int(os.environ.get("REPRO_FUZZ_SEED", "20170514"))


def solve_quietly(solver, query, instance, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntractableFallbackWarning)
        return solver.solve(query, instance, **kwargs)


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------
class TestParser:
    def test_plain_atoms(self):
        ir = parse_query("R(x, y), S(y, z)")
        assert ir.atoms == (Atom("R", "x", "y"), Atom("S", "y", "z"))
        graph = ir.to_graph()
        assert graph.num_vertices() == 3
        assert graph.has_edge("x", "y", "R") and graph.has_edge("y", "z", "S")

    def test_duplicate_atoms_collapse(self):
        graph = parse_query_graph("R(x, y), R(x, y), S(y, z)")
        assert graph.num_edges() == 2

    def test_path_sugar_expands_with_fresh_variables(self):
        ir = parse_query("x -[R.S]-> y")
        assert format_query(ir) == "R(x, _1), S(_1, y)"

    def test_repetition_sugar(self):
        ir = parse_query("x -[R{3}]-> y")
        assert format_query(ir) == "R(x, _1), R(_1, _2), R(_2, y)"

    def test_fresh_variables_avoid_user_names(self):
        ir = parse_query("T(_1, w), x -[R.S]-> y")
        names = {v for atom in ir.atoms for v in (atom.source, atom.target)}
        # the expansion skipped the user's _1 and used _2 instead
        assert "_2" in names
        assert sum(1 for atom in ir.atoms if "_1" in (atom.source, atom.target)) == 1

    def test_two_way_atom_is_oriented_at_parse_time(self):
        assert parse_query("x <-[R]- y").atoms == (Atom("R", "y", "x"),)
        assert parse_query("x <-[R.S]- y").to_graph() == parse_query(
            "y -[R.S]-> x"
        ).to_graph()

    def test_unlabeled_arrows(self):
        graph = parse_query_graph("a -> b <- c")
        assert graph.has_edge("a", "b", UNLABELED)
        assert graph.has_edge("c", "b", UNLABELED)

    def test_chained_arrows(self):
        graph = parse_query_graph("x -[R]-> y -[S]-> z")
        assert graph.has_edge("x", "y", "R") and graph.has_edge("y", "z", "S")

    def test_lone_variable_is_an_isolated_vertex(self):
        graph = parse_query_graph("x, R(a, b)")
        assert graph.has_vertex("x")
        assert graph.degree("x") == 0

    def test_comments_and_whitespace(self):
        graph = parse_query_graph(
            "R(x, y),  # the first hop\n  S(y, z)"
        )
        assert graph.num_edges() == 2

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "R(x y)",
            "R(x,",
            "R(x, y",
            "x -[R{0}]-> y",
            "x -[]-> y",
            "R(x, y) S(y, z)",
            "1(x, y)",
            "x -[R]->",
            "R(x, y),",
        ],
    )
    def test_malformed_queries_raise_parse_errors(self, text):
        with pytest.raises(QueryParseError):
            parse_query(text)

    def test_parse_error_carries_source_location(self):
        with pytest.raises(QueryParseError) as info:
            parse_query("R(x, y), S(y z)")
        error = info.value
        assert error.position == 13  # the offset of 'z'
        rendered = str(error)
        assert "S(y z)" in rendered and "^" in rendered

    def test_conflicting_labels_rejected_at_lowering(self):
        with pytest.raises(QueryParseError, match="conflicting labels"):
            parse_query("R(x, y), S(x, y)").to_graph()

    def test_non_identifier_vertices_cannot_be_formatted(self):
        graph = DiGraph(edges=[((1, 2), "b", "R")])
        with pytest.raises(QueryParseError, match="cannot be written"):
            format_query(graph)


# ----------------------------------------------------------------------
# format round-trip
# ----------------------------------------------------------------------
ROUND_TRIP_CLASSES = [
    (GraphClass.ONE_WAY_PATH, True),
    (GraphClass.TWO_WAY_PATH, True),
    (GraphClass.DOWNWARD_TREE, False),
    (GraphClass.POLYTREE, True),
    (GraphClass.UNION_ONE_WAY_PATH, False),
    (GraphClass.ALL, True),
]


class TestFormatRoundTrip:
    @pytest.mark.parametrize("index", range(12))
    def test_random_query_round_trips(self, index):
        rng = random.Random(SEED + index)
        cls, labeled = ROUND_TRIP_CLASSES[index % len(ROUND_TRIP_CLASSES)]
        query = make_query(cls, labeled, rng.randint(1, 5), rng)
        # union-class generators name vertices with tuples; rename them into
        # the identifier space the surface syntax can express
        renamed = query.relabel_vertices(
            {v: f"n{i}" for i, v in enumerate(sorted(query.vertices, key=repr))}
        )
        text = format_query(renamed)
        assert parse_query(text).to_graph() == renamed

    @pytest.mark.parametrize(
        "text",
        [
            "R(x, y), S(y, z)",
            "x -[R.S{2}]-> y",
            "x <-[R]- y -[S]-> z",
            "a -> b <- c",
            "lonely, R(a, b)",
        ],
    )
    def test_format_of_parse_is_a_fixed_point(self, text):
        ir = parse_query(text)
        assert parse_query(format_query(ir)) == ir
        assert parse_query(format_query(ir)).to_graph() == ir.to_graph()


# ----------------------------------------------------------------------
# core minimization
# ----------------------------------------------------------------------
class TestQueryCore:
    def test_redundant_atom_folds_away(self):
        query = parse_query_graph("R(x, y), S(y, z), S(t, z)")
        core = query_core(query)
        assert format_query(core) == "R(x, y), S(y, z)"
        assert graph_class_of(core) is GraphClass.ONE_WAY_PATH

    def test_identical_components_fold_into_one(self):
        query = parse_query_graph("R(a, b), R(c, d)")
        assert query_core(query).num_edges() == 1

    def test_core_of_a_core_is_itself(self):
        query = parse_query_graph("R(x, y), S(y, z), S(t, z)")
        core = query_core(query)
        assert query_core(core) is core
        # an already-minimal query is returned unchanged, same object
        path = one_way_path(["R", "S"], prefix="q")
        assert query_core(path) is path

    def test_core_is_homomorphically_equivalent(self):
        query = parse_query_graph("R(x, y), S(y, z), S(t, z), R(u, y)")
        assert homomorphic_equivalent(query, query_core(query))

    @pytest.mark.parametrize("index", range(10))
    def test_core_preserves_probability_against_oracle(self, index):
        rng = random.Random(SEED + 700 + index)
        base_class = [
            GraphClass.ONE_WAY_PATH,
            GraphClass.TWO_WAY_PATH,
            GraphClass.DOWNWARD_TREE,
        ][index % 3]
        base = make_query(base_class, True, rng.randint(1, 3), rng)
        query = add_redundant_atoms(base, rng.randint(1, 3), rng)
        core = query_core(query)
        assert core.num_edges() <= query.num_edges()
        assert homomorphic_equivalent(query, core)
        instance = attach_random_probabilities(
            make_instance(GraphClass.ALL, True, rng.randint(3, 5), rng), rng
        )
        assert brute_force_phom(query, instance) == brute_force_phom(core, instance)

    @pytest.mark.parametrize("index", range(6))
    def test_minimization_is_idempotent_on_random_queries(self, index):
        rng = random.Random(SEED + 800 + index)
        base = make_query(GraphClass.ALL, index % 2 == 0, rng.randint(2, 5), rng)
        core = query_core(base)
        again = query_core(core.copy())  # fresh object: recomputed, not memoised
        assert again == core

    def test_paper_example_22_query_has_a_path_core(self, example22_query):
        core = query_core(example22_query)
        assert graph_class_of(core) is GraphClass.ONE_WAY_PATH
        assert core.num_edges() == 2

    @pytest.mark.parametrize("index", range(36))
    def test_fast_core_agrees_with_the_fold_search_oracle(self, index):
        # index cycles through 3 classes x {labeled, one label} x {as drawn,
        # with redundant atoms}; each combination is drawn three times.
        rng = random.Random(SEED + 900 + index)
        query_class = [
            GraphClass.ONE_WAY_PATH,
            GraphClass.TWO_WAY_PATH,
            GraphClass.DOWNWARD_TREE,
        ][index % 3]
        query = make_query(query_class, (index // 3) % 2 == 0, rng.randint(1, 6), rng)
        if (index // 6) % 2:
            query = add_redundant_atoms(query, rng.randint(1, 3), rng)
        core = query_core(query)
        oracle = fold_search_core(query.copy())
        assert core.num_vertices() == oracle.num_vertices()
        assert core.num_edges() == oracle.num_edges()
        assert core.vertices <= query.vertices and core.edge_set() <= query.edge_set()
        assert homomorphic_equivalent(query, core)
        assert canonical_query_key(query) == canonical_query_key(oracle, minimize=False)
        assert query_core(core) is core

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("R(x, y), R(z, y)", "R(x, y)"),
            ("R(a, b), R(c, b), R(c, d), R(e, d)", "R(a, b)"),
        ],
    )
    def test_converging_atoms_fold_to_one_edge(self, text, expected):
        query = parse_query_graph(text)
        core = query_core(query)
        # the first minimal window along two_way_path_order
        assert format_query(core) == expected
        assert core.edge_set() <= query.edge_set()
        assert core.frozen and query_core(core) is core

    def test_unlabeled_downward_tree_folds_to_its_height_path(self, monkeypatch):
        monkeypatch.setattr(minimize_module, "fold_search_core", _forbidden_fold_search)
        query = DiGraph(edges=[("r", "a"), ("r", "b"), ("a", "c"), ("a", "d")])
        core = query_core(query)
        assert graph_class_of(core) is GraphClass.ONE_WAY_PATH
        assert core.num_edges() == 2 == collapse_query_to_path_length(query)
        assert core.edge_set() <= query.edge_set()
        assert homomorphic_equivalent(query, core)

    def test_mixed_label_downward_tree_takes_the_fold_search(self, monkeypatch):
        routed = []

        def spy(query):
            routed.append(query)
            return fold_search_core(query)

        monkeypatch.setattr(minimize_module, "fold_search_core", spy)
        query = parse_query_graph("R(r, a), R(a, c), S(r, b), R(r, d)")
        core = query_core(query)
        assert routed == [query]
        # d folds onto a; the S branch keeps the core from being a path
        assert (core.num_vertices(), core.num_edges()) == (4, 3)
        assert homomorphic_equivalent(query, core)


def _forbidden_fold_search(query):
    raise AssertionError(f"fold search ran on {format_query(query)}")


def _forbidden_core(query, *_form):
    raise AssertionError(f"core recomputed for {format_query(query)}")


#: Every function of ``repro.query.minimize`` that computes a core: the
#: normal form (which runs the fold search), the fold search itself, and
#: the build of a path core from its normal form.
CORE_COMPUTATIONS = ("_normal_form", "fold_search_core", "_compute_core")


def forbid_core_computations(monkeypatch):
    """Make any further core computation fail the test."""
    for name in CORE_COMPUTATIONS:
        monkeypatch.setattr(minimize_module, name, _forbidden_core)


#: Queries that already are cores: a 1WP, a 2WP, a labeled star (fold search).
CORE_TEXTS = (
    "R(x, y), S(y, z)",
    "R(x, y), S(z, y), R(z, w)",
    "R(r, a), S(r, b), T(r, c)",
)

#: Queries that fold: a 2WP, two disjoint copies of one atom (fold
#: search), an unlabeled tree (height path).
FOLDING_TEXTS = (
    "R(x, y), S(y, z), S(t, z)",
    "R(a, b), R(c, d)",
    "_(r, a), _(r, b), _(r, c), _(a, d)",
)


class TestCoreMemo:
    """``query_core`` memoises a marker for "this graph is its own core",
    never the graph itself, and ``normalize`` memoises only its verdict.
    After the first call, no core computation runs again: not the normal
    form, not the fold search, not a path core's build."""

    @pytest.mark.parametrize("text", CORE_TEXTS)
    def test_a_core_is_returned_as_itself(self, text, monkeypatch):
        query = parse_query_graph(text)
        assert query_core(query) is query
        forbid_core_computations(monkeypatch)
        assert query_core(query) is query

    @pytest.mark.parametrize("text", FOLDING_TEXTS)
    def test_the_core_of_a_core_is_never_recomputed(self, text, monkeypatch):
        query = parse_query_graph(text)
        core = query_core(query)
        assert core is not query and core.frozen
        forbid_core_computations(monkeypatch)
        assert query_core(core) is core
        assert query_core(query_core(query)) is core

    @staticmethod
    def reference_normalize(query):
        """``normalize`` as it was when it memoised the whole result."""
        core = query_core(query)
        return NormalizedQuery(
            original=query,
            graph=core,
            original_class=graph_class_of(query) if query.num_vertices() else GraphClass.ALL,
            core_class=graph_class_of(core),
            folded_vertices=query.num_vertices() - core.num_vertices(),
            folded_edges=query.num_edges() - core.num_edges(),
        )

    @pytest.mark.parametrize("index", range(24))
    def test_normalize_matches_the_whole_result_memo(self, index):
        rng = random.Random(SEED + 1000 + index)
        query_class = [
            GraphClass.ONE_WAY_PATH,
            GraphClass.TWO_WAY_PATH,
            GraphClass.DOWNWARD_TREE,
            GraphClass.ALL,
        ][index % 4]
        query = make_query(query_class, index % 2 == 0, rng.randint(1, 5), rng)
        if index % 3 == 0:
            query = add_redundant_atoms(query, rng.randint(1, 3), rng)
        expected = self.reference_normalize(query)
        for _ in range(2):  # the second call reads the memo
            info = normalize(query)
            assert info.original is query and info.graph is query_core(query)
            assert info == expected and info.describe() == expected.describe()


class TestNormalize:
    def test_normalize_reports_class_movement(self):
        info = normalize(parse_query_graph("R(x, y), S(y, z), S(t, z)"))
        assert info.changed
        assert info.original_class is GraphClass.TWO_WAY_PATH
        assert info.core_class is GraphClass.ONE_WAY_PATH
        assert info.folded_vertices == 1 and info.folded_edges == 1
        assert "1WP" in info.describe()

    def test_normalize_of_minimal_query_is_silent(self):
        info = normalize(one_way_path(["R", "S"], prefix="q"))
        assert not info.changed
        assert info.describe() == ""
        assert info.graph is info.original

    def test_self_loop_only_query_rejected_with_clear_error(self):
        query = DiGraph(edges=[("x", "x", "R"), ("y", "y", "S")])
        with pytest.raises(ClassConstraintError, match="self-loop"):
            validate_query_graph(query)
        with pytest.raises(ClassConstraintError, match="self-loop"):
            normalize(query)

    def test_mixed_self_loop_query_is_still_valid(self):
        query = DiGraph(edges=[("x", "y", "R"), ("y", "y", "S")])
        assert validate_query_graph(query) is query


# ----------------------------------------------------------------------
# solver integration
# ----------------------------------------------------------------------
class TestSolverIntegration:
    def build_instance(self, seed=5, size=10):
        rng = random.Random(seed)
        graph = make_instance(GraphClass.DOWNWARD_TREE, True, size, rng)
        return attach_random_probabilities(graph, rng)

    def test_solve_accepts_query_strings(self):
        instance = self.build_instance()
        solver = PHomSolver()
        text = "R(x, y), S(y, z)"
        from_string = solve_quietly(solver, text, instance)
        from_graph = solve_quietly(solver, parse_query_graph(text), instance)
        assert from_string.probability == from_graph.probability
        assert from_string.method == from_graph.method

    def test_phom_probability_accepts_strings(self):
        instance = self.build_instance()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IntractableFallbackWarning)
            a = phom_probability("R(x, y)", instance)
            b = phom_probability(one_way_path(["R"], prefix="q"), instance)
        assert a == b

    def test_invalid_query_type_rejected(self):
        instance = self.build_instance()
        with pytest.raises(QueryParseError):
            PHomSolver().solve(42, instance)

    def test_minimized_solve_reaches_polynomial_route(self):
        rng = random.Random(SEED)
        workload = redundant_query_workload(
            core_size=2, redundancy=3, instance_size=8, rng=rng
        )
        minimizing = PHomSolver()
        plain = PHomSolver(minimize_queries=False)
        minimized = solve_quietly(minimizing, workload.query, workload.instance)
        unminimized = solve_quietly(plain, workload.query, workload.instance)
        assert minimized.probability == unminimized.probability
        # the original class is reported even though the core was solved
        assert minimized.query_class is graph_class_of(workload.query)
        if unminimized.method == "brute-force-worlds":
            assert minimized.method != "brute-force-worlds"
            assert "query minimized" in minimized.notes

    def test_self_loop_only_query_rejected_by_solver(self):
        instance = self.build_instance()
        with pytest.raises(ClassConstraintError, match="self-loop"):
            PHomSolver().solve("R(x, x)", instance)
        with pytest.raises(ClassConstraintError, match="self-loop"):
            PHomSolver(minimize_queries=False).compile(
                parse_query_graph("R(x, x)"), instance
            )
        # regression: the mixed case still routes (and answers 0 here,
        # since a DWT instance has no reflexive edges)
        result = solve_quietly(PHomSolver(), "R(x, y), S(y, y)", instance)
        assert result.probability == 0

    def test_self_loop_only_query_still_answered_by_explicit_methods(self):
        # The rejection is scoped to the classification path: explicit
        # enumeration and sampling methods need no class recognition and
        # keep their pre-frontend behaviour.
        graph = DiGraph(edges=[("a", "a", "R")])
        instance = ProbabilisticGraph(graph, {("a", "a"): Fraction(1, 2)})
        solver = PHomSolver()
        result = solver.solve("R(x, x)", instance, method="brute-force-worlds")
        assert result.probability == Fraction(1, 2)
        sampled = PHomSolver(seed=3).solve("R(x, x)", instance, method="karp-luby")
        assert 0 <= sampled.probability <= 1

    def test_solve_many_duplicates_report_their_own_spelling(self):
        instance = self.build_instance()
        solver = PHomSolver()
        texts = ["R(x, y), S(y, z), S(t, z)", "R(a, b), S(b, c)"]
        for ordering in (texts, list(reversed(texts))):
            results = solver.solve_many(ordering, instance)
            by_text = dict(zip(ordering, results))
            redundant = by_text[texts[0]]
            minimal = by_text[texts[1]]
            # identical shared computation...
            assert redundant.probability == minimal.probability
            # ...but per-spelling metadata, independent of batch order
            assert redundant.query_class is GraphClass.TWO_WAY_PATH
            assert "query minimized" in redundant.notes
            assert minimal.query_class is GraphClass.ONE_WAY_PATH
            assert "query minimized" not in minimal.notes

    def test_canonical_key_merges_equal_cores(self):
        redundant = parse_query_graph("R(x, y), S(y, z), S(t, z)")
        minimal = parse_query_graph("R(a, b), S(b, c)")
        different = parse_query_graph("S(a, b), S(b, c)")
        assert canonical_query_key(redundant) == canonical_query_key(minimal)
        assert canonical_query_key(redundant) != canonical_query_key(different)
        # the unminimized keys keep the old, spelling-sensitive behaviour
        assert canonical_query_key(redundant, minimize=False) != canonical_query_key(
            minimal, minimize=False
        )

    def test_plan_cache_hits_across_spelling_variants(self):
        instance = self.build_instance()
        solver = PHomSolver()
        solve_quietly(solver, "R(x, y), S(y, z)", instance)
        before = solver.plan_cache.stats["compiles"]
        solve_quietly(solver, "R(p, q), S(q, w), S(t, w)", instance)
        assert solver.plan_cache.stats["compiles"] == before
        assert solver.plan_cache.stats["hits"] >= 1

    def test_solve_many_dedupes_equal_cores(self):
        instance = self.build_instance()
        solver = PHomSolver()
        results = solver.solve_many(
            ["R(x, y), S(y, z)", "R(a, b), S(b, c), S(t, c)"], instance
        )
        assert results[0].probability == results[1].probability

    def test_explicit_method_duplicates_carry_no_minimization_note(self):
        # Explicit methods never minimize: neither the shared computation
        # nor its deduped copies may claim minimization provenance.
        instance = self.build_instance()
        query = parse_query_graph("R(x, y), S(y, z), S(t, z)")
        results = PHomSolver().solve_many(
            [query, query.copy()], instance, method="generic-lineage"
        )
        for result in results:
            assert "query minimized" not in result.notes

    def test_explicit_methods_never_dedupe_across_spellings(self):
        # labeled-dwt-dp requires a 1WP query *as written*: the core spelling
        # succeeds, the redundant spelling raises — in both batch orders.
        instance = self.build_instance()
        core_text = "R(x, y), S(y, z)"
        redundant_text = "R(x, y), S(y, z), S(t, z)"
        solver = PHomSolver()
        expected = solver.solve(core_text, instance, method="labeled-dwt-dp")
        for ordering in ([core_text, redundant_text], [redundant_text, core_text]):
            fresh = PHomSolver()
            with pytest.raises(ClassConstraintError, match="one-way path"):
                fresh.solve_many(ordering, instance, method="labeled-dwt-dp")
            # the core spelling alone still works on the same solver
            alone = fresh.solve(core_text, instance, method="labeled-dwt-dp")
            assert alone.probability == expected.probability

    def test_edgeless_string_query(self):
        instance = self.build_instance()
        result = PHomSolver().solve("x", instance)
        assert result.probability == 1
        assert result.method == "trivial-edgeless-query"


# ----------------------------------------------------------------------
# serving layer
# ----------------------------------------------------------------------
class TestServiceStrings:
    def build_instance(self):
        rng = random.Random(9)
        graph = make_instance(GraphClass.DOWNWARD_TREE, True, 10, rng)
        return attach_random_probabilities(graph, rng)

    def test_service_request_accepts_strings(self):
        instance = self.build_instance()
        with QueryService(num_workers=0) as service:
            instance_id = service.register_instance(instance)
            request = ServiceRequest(query="R(x, y)", instance_id=instance_id)
            assert isinstance(request.query, DiGraph)
            outcome = service.submit("R(x, y)", instance_id)
            solver = PHomSolver()
            expected = solve_quietly(solver, "R(x, y)", instance)
            assert outcome.probability == expected.probability

    def test_service_coalesces_spelling_variants_with_equal_cores(self):
        instance = self.build_instance()
        with QueryService(num_workers=0) as service:
            instance_id = service.register_instance(instance)
            texts = [
                "R(x, y), S(y, z)",
                "R(a, b), S(b, c), S(t, c)",  # redundant spelling, same core
                "p -[R.S]-> q",  # sugar spelling, same core
            ]
            batch = [
                ServiceRequest(query=text, instance_id=instance_id)
                for text in texts
            ]
            results = service.submit_many(batch)
            stats = service.stats()
        keys = {request.coalesce_key("exact") for request in batch}
        assert len(keys) == 1
        assert stats.coalesced == len(texts) - 1
        assert len({outcome.probability for outcome in results}) == 1
        # coalesced duplicates report their own spelling's class, not the
        # class of whichever spelling happened to be computed
        assert results[0].result.query_class is GraphClass.ONE_WAY_PATH
        assert results[1].result.query_class is GraphClass.TWO_WAY_PATH
        assert "query minimized" in results[1].result.notes
        assert "query minimized" not in results[0].result.notes

    def test_explicit_method_requests_do_not_coalesce_across_spellings(self):
        instance = self.build_instance()
        with QueryService(num_workers=0) as service:
            instance_id = service.register_instance(instance)
            core = ServiceRequest(
                query="R(x, y), S(y, z)", instance_id=instance_id,
                method="labeled-dwt-dp",
            )
            redundant = ServiceRequest(
                query="R(x, y), S(y, z), S(t, z)", instance_id=instance_id,
                method="labeled-dwt-dp",
            )
            assert core.coalesce_key("exact") != redundant.coalesce_key("exact")
            for batch in ([core, redundant], [redundant, core]):
                outcomes = service.submit_many(batch, on_error="return")
                by_query = {id(r.query): o for r, o in zip(batch, outcomes)}
                assert by_query[id(core.query)].error is None
                assert "one-way path" in by_query[id(redundant.query)].error
            # auto requests for the same spellings do coalesce
            auto = [
                ServiceRequest(query="R(x, y), S(y, z)", instance_id=instance_id),
                ServiceRequest(
                    query="R(x, y), S(y, z), S(t, z)", instance_id=instance_id
                ),
            ]
            assert auto[0].coalesce_key("exact") == auto[1].coalesce_key("exact")

    def test_explicit_method_cache_hits_carry_no_minimization_note(self):
        instance = self.build_instance()
        with QueryService(num_workers=0) as service:
            instance_id = service.register_instance(instance)
            text = "R(x, y), S(y, z), S(t, z)"
            first = service.submit(text, instance_id, method="generic-lineage")
            second = service.submit(text, instance_id, method="generic-lineage")
            assert second.cached
            assert "query minimized" not in first.result.notes
            assert "query minimized" not in second.result.notes
            # coalesced duplicates within one batch, same contract
            batch = [
                ServiceRequest(
                    query=text, instance_id=instance_id, method="generic-lineage"
                )
                for _ in range(2)
            ]
            outcomes = service.submit_many(batch)
            assert outcomes[1].coalesced
            assert "query minimized" not in outcomes[1].result.notes

    def test_jsonl_string_query_and_ambiguous_payload(self):
        instance = self.build_instance()
        lines = [
            json.dumps(
                {"op": "register", "id": "i1", "instance": _instance_dict(instance)}
            ),
            json.dumps(
                {"op": "solve", "id": "ok", "instance": "i1", "query": "R(x, y)"}
            ),
            json.dumps(
                {"op": "solve", "id": "amb", "instance": "i1",
                 "query": "{\"edges\": [[\"x\", \"y\", \"R\"]]}"}
            ),
            json.dumps(
                {"op": "solve", "id": "bad", "instance": "i1", "query": "R(x y)"}
            ),
            json.dumps(
                {"op": "solve", "id": "num", "instance": "i1", "query": 7}
            ),
        ]
        out = io.StringIO()
        with QueryService(num_workers=0) as service:
            code = run_jsonl_session(lines, out, service)
        assert code == 1  # some lines failed
        payloads = [json.loads(line) for line in out.getvalue().splitlines()]
        by_id = {p.get("id"): p for p in payloads if "id" in p}
        assert "probability" in by_id["ok"]
        errors = "\n".join(p["error"] for p in payloads if "error" in p)
        assert "ambiguous query payload" in errors
        assert "expected ','" in errors
        assert "query payload must be" in errors

    def test_ambiguous_payload_is_a_typed_service_error(self):
        with pytest.raises(ServiceError, match="ambiguous"):
            request_from_json_dict(
                {"op": "solve", "instance": "i1", "query": "{\"edges\": []}"}
            )


def _instance_dict(instance):
    from repro.graphs.serialization import probabilistic_graph_to_dict

    return probabilistic_graph_to_dict(instance)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestCliParse:
    def test_parse_prints_core_and_classes(self):
        out = io.StringIO()
        code = cli_main(["parse", "R(x, y), S(y, z), S(t, z)"], out=out)
        assert code == 0
        text = out.getvalue()
        assert "R(x, y), S(y, z), S(t, z)" in text
        assert "core        = R(x, y), S(y, z)" in text
        assert "1WP" in text

    def test_parse_explain_shows_cell_change(self):
        out = io.StringIO()
        code = cli_main(
            ["parse", "R(x, y), S(y, z), S(t, z)", "--explain",
             "--instance-class", "dwt"],
            out=out,
        )
        assert code == 0
        text = out.getvalue()
        assert "#P-hard" in text and "PTIME" in text
        assert "polynomial dispatch cell" in text
        assert "labeled-dwt" in text

    def test_parse_error_exits_nonzero(self):
        out, err = io.StringIO(), io.StringIO()
        code = cli_main(["parse", "R(x y)"], out=out, err=err)
        assert code == 1
        assert "^" in err.getvalue()

    def test_solve_accepts_query_string_argument(self, tmp_path):
        rng = random.Random(11)
        graph = make_instance(GraphClass.DOWNWARD_TREE, True, 8, rng)
        instance = attach_random_probabilities(graph, rng)
        path = tmp_path / "instance.json"
        save_graph(instance, str(path))
        out = io.StringIO()
        code = cli_main(["solve", "R(x, y), S(y, z), S(t, z)", str(path)], out=out)
        assert code == 0
        assert "probability =" in out.getvalue()

    def test_solve_reports_missing_file_for_path_shaped_queries(self, tmp_path):
        out, err = io.StringIO(), io.StringIO()
        code = cli_main(
            ["solve", str(tmp_path / "typo.json"), str(tmp_path / "typo.json")],
            out=out, err=err,
        )
        assert code == 2
        assert "does not exist" in err.getvalue()
        assert "^" not in err.getvalue()  # no parse-error caret for a path

    def test_solve_rejects_inline_json_query(self, tmp_path):
        path = tmp_path / "instance.json"
        rng = random.Random(12)
        instance = attach_random_probabilities(
            make_instance(GraphClass.ONE_WAY_PATH, True, 3, rng), rng
        )
        save_graph(instance, str(path))
        out, err = io.StringIO(), io.StringIO()
        code = cli_main(["solve", '{"edges": []}', str(path)], out=out, err=err)
        assert code == 2
        assert "looks like JSON" in err.getvalue()
