"""Tests for the parallel serving layer (:mod:`repro.service`).

The inline mode (``num_workers=0``) runs the exact worker logic in-process,
so most semantics are tested there; a smaller set of tests exercises the
real multi-process pool (sharding, cross-process updates, pinned-seed
reproducibility across worker counts).
"""

from __future__ import annotations

import io
import json
import pickle
from fractions import Fraction

import pytest

from repro.cli import main as cli_main
from repro.core.solver import PHomSolver
from repro.exceptions import GraphError, QueryParseError, ServiceError
from repro.graphs.builders import one_way_path
from repro.graphs.classes import GraphClass
from repro.graphs.digraph import DiGraph, Edge
from repro.graphs.serialization import probabilistic_graph_to_dict, graph_to_dict
from repro.plan import PlanCache
from repro.probability.prob_graph import ProbabilisticGraph
from repro.service import (
    Fault,
    FaultPlan,
    QueryService,
    ServiceRequest,
    run_jsonl_session,
)
from repro.workloads.generators import (
    attach_random_probabilities,
    intractable_workload,
    make_instance,
    query_traffic_trace,
)


def build_instance(seed: int, instance_class=GraphClass.UNION_DOWNWARD_TREE, labeled=True):
    graph = make_instance(instance_class, labeled, 16, seed)
    return attach_random_probabilities(graph, seed)


def trace_queries(seed: int, count: int = 20):
    trace = query_traffic_trace(
        count, 6, skew=1.2, query_class=GraphClass.ONE_WAY_PATH, rng=seed
    )
    return trace.queries()


@pytest.fixture
def inline_service():
    with QueryService(num_workers=0) as service:
        yield service


@pytest.fixture(params=[0, 1], ids=["inline", "pool"])
def service(request):
    """An inline service and a 1-worker pool: the result cache is the same."""
    with QueryService(num_workers=request.param) as service:
        yield service


class TestInlineService:
    def test_submit_matches_solver_exactly(self, inline_service):
        instance = build_instance(20)
        solver = PHomSolver()
        for seed in (30, 35):
            for query in trace_queries(seed, 6):
                expected = solver.solve(query, instance)
                got = inline_service.submit(query, instance)
                assert got.probability == expected.probability != 0
                assert got.method == expected.method

    def test_mixed_precision_in_one_batch(self, inline_service):
        instance = build_instance(2)
        instance_id = inline_service.register_instance(instance)
        query = trace_queries(5, 1)[0]
        exact, floaty = inline_service.submit_many(
            [
                ServiceRequest(query, instance_id, precision="exact"),
                ServiceRequest(query, instance_id, precision="float"),
            ]
        )
        solver = PHomSolver()
        assert exact.probability == solver.solve(query, instance).probability
        assert floaty.probability == solver.solve(
            query, instance, precision="float"
        ).probability
        assert isinstance(floaty.probability, float)
        # Different precisions must not coalesce into one computation.
        assert not floaty.coalesced

    def test_duplicates_coalesce_before_dispatch(self, inline_service):
        instance = build_instance(3)
        instance_id = inline_service.register_instance(instance)
        query = "R(x, y), S(y, z)"
        results = inline_service.submit_many([(query, instance_id)] * 5)
        assert len(results) == 5
        assert [r.probability for r in results] == [Fraction(1, 2)] * 5
        assert [r.coalesced for r in results] == [False, True, True, True, True]
        stats = inline_service.stats()
        assert stats.requests == 5
        assert stats.dispatched == 1
        assert stats.coalesced == 4
        assert stats.dedupe_hit_rate() == pytest.approx(0.8)

    def test_isomorphic_path_queries_coalesce(self, inline_service):
        instance = build_instance(4)
        instance_id = inline_service.register_instance(instance)
        one = one_way_path(["R", "S"], prefix="a")
        other = one_way_path(["R", "S"], prefix="b")
        first, second = inline_service.submit_many(
            [(one, instance_id), (other, instance_id)]
        )
        assert second.coalesced
        assert second.probability == first.probability

    def test_bad_update_is_rejected_atomically(self, inline_service):
        instance = build_instance(7)
        instance_id = inline_service.register_instance(instance)
        edge = instance.uncertain_edges()[0]
        with pytest.raises(Exception):
            inline_service.update_probability(instance_id, edge, "7/2")
        # Neither side applied the bad value.
        assert instance.probability(edge) <= 1

    def test_unregistered_instance_id_raises(self, inline_service):
        query = trace_queries(13, 1)[0]
        with pytest.raises(ServiceError, match="not registered"):
            inline_service.submit(query, "nope")
        with pytest.raises(ServiceError, match="not registered"):
            inline_service.submit_many([ServiceRequest(query, "nope")])

    def test_failing_request_reports_its_id(self, inline_service):
        instance = build_instance(8)
        instance_id = inline_service.register_instance(instance)
        empty = DiGraph()
        empty.add_vertex("lonely")  # edge-less is fine; zero vertices is not
        bad = DiGraph()
        with pytest.raises(ServiceError, match="r-bad"):
            inline_service.submit_many(
                [
                    ServiceRequest(bad, instance_id, request_id="r-bad"),
                    ServiceRequest(empty, instance_id, request_id="r-good"),
                ]
            )

    def test_service_level_sampling_contract_is_inherited(self):
        workload = intractable_workload(8, rng=23)
        with QueryService(
            num_workers=0, default_precision="approx",
            epsilon=0.2, delta=0.1, seed=13,
        ) as service:
            instance_id = service.register_instance(workload.instance)
            # No per-request sampling args: the service's (ε, δ, seed) apply.
            first = service.submit(workload.query, instance_id)
            second = service.submit(workload.query, instance_id)
            assert first.method == "karp-luby"
            assert "seed=13" in first.notes
            assert float(first) == float(second)
            assert second.cached  # the inherited pinned seed makes it cacheable

    def test_partial_failures_can_be_returned_instead_of_raised(self, inline_service):
        instance = build_instance(91)
        instance_id = inline_service.register_instance(instance)
        good_query = "R(x, y), S(y, z)"
        results = inline_service.submit_many(
            [
                ServiceRequest(good_query, instance_id, request_id="ok"),
                ServiceRequest(DiGraph(), instance_id, request_id="bad"),
            ],
            on_error="return",
        )
        assert results[0].error is None
        expected = PHomSolver().solve(good_query, instance).probability
        assert results[0].probability == expected == Fraction(1, 4)
        assert results[1].error is not None and results[1].result is None
        with pytest.raises(ServiceError, match="bad"):
            results[1].probability

    def test_unparsable_tuple_entry_fails_only_its_position(self, inline_service):
        instance_id = inline_service.register_instance(build_instance(91))
        batch = [("R(x, y", instance_id), ("R(x, y)", instance_id)]
        results = inline_service.submit_many(batch, on_error="return")
        assert results[0].result is None
        assert results[0].error_class == "QueryParseError"
        assert results[1].error is None
        assert results[1].probability == inline_service.submit("R(x, y)", instance_id).probability
        with pytest.raises(QueryParseError):
            inline_service.submit_many(batch)

    def test_stats_expose_per_worker_plan_cache(self, inline_service):
        instance = build_instance(9)
        inline_service.submit(trace_queries(15, 1)[0], instance)
        stats = inline_service.stats()
        (worker,) = stats.workers
        assert worker["plan_cache"]["compiles"] >= 1
        assert "evictions" in worker["plan_cache"]
        assert worker["instances"] == ["instance-0"]

    def test_replacing_an_instance_id_serves_the_new_instance(self, inline_service):
        first = build_instance(5)
        second = build_instance(6)
        query = "R(x, y), S(y, z)"
        inline_service.register_instance(first, "shared")
        before = inline_service.submit(query, "shared")
        inline_service.register_instance(second, "shared")
        after = inline_service.submit(query, "shared")
        assert not after.cached
        assert after.probability == PHomSolver().solve(query, second).probability
        assert (before.probability, after.probability) == (Fraction(1, 4), Fraction(47, 64))
        # The displaced object is no longer known by identity: submitting it
        # registers it fresh under a new id instead of answering from "shared".
        again = inline_service.submit(query, first)
        assert again.probability == before.probability

    def test_inline_worker_holds_its_own_copy(self, inline_service):
        instance = build_instance(85)
        instance_id = inline_service.register_instance(instance)
        query = trace_queries(87, 1)[0]  # R(q0, q1), R(q1, q2), R(q2, q3)
        baseline = inline_service.submit(query, instance_id)
        assert baseline.probability == Fraction(1, 4)
        # A direct mutation of the caller's object must not leak into the
        # worker shard (same semantics as a process pool): answers only
        # change through update_probability.  This R edge (1/4) moves the
        # answer.
        edge = instance.uncertain_edges()[1]
        instance.set_probability(edge, "1/16")
        unchanged = inline_service.submit(query, instance_id)
        assert unchanged.probability == baseline.probability
        inline_service.update_probability(instance_id, edge, instance.probability(edge))
        updated = inline_service.submit(query, instance_id)
        assert updated.probability == PHomSolver().solve(query, instance).probability
        assert updated.probability == Fraction(1, 16)

    def test_closed_service_rejects_work(self):
        service = QueryService(num_workers=0)
        service.close()
        with pytest.raises(ServiceError, match="closed"):
            service.register_instance(build_instance(10))

    def test_register_instance_rejects_a_non_string_id(self):
        with QueryService(num_workers=0) as service:
            with pytest.raises(ServiceError, match="must be a string"):
                service.register_instance(build_instance(68), 6)
            assert service._instances == {}


class TestResultCache:
    """The coordinator's result cache, inline and pooled."""

    def test_result_cache_hits_across_batches(self, service):
        instance = build_instance(5)
        instance_id = service.register_instance(instance)
        query = "R(x, y), S(y, z)"
        cold = service.submit(query, instance_id)
        warm = service.submit(query, instance_id)
        assert not cold.cached and warm.cached
        assert warm.probability == cold.probability == Fraction(1, 4)
        assert service.stats().result_cache_hits() == 1

    def test_update_probability_invalidates_results(self, service):
        instance = build_instance(6)
        instance_id = service.register_instance(instance)
        query = "R(x, y), S(y, z)"
        before = service.submit(query, instance_id)
        assert before.probability == Fraction(47, 64)
        edge = instance.uncertain_edges()[7]  # an R edge at 5/8 that moves the answer
        service.update_probability(instance_id, edge, "1/2")
        # The caller-side registered object is updated too.
        assert str(instance.probability(edge)) == "1/2"
        after = service.submit(query, instance_id)
        assert not after.cached
        assert after.probability == PHomSolver().solve(query, instance).probability
        assert after.probability == Fraction(11, 16)

    def test_pinned_seed_approx_is_reproducible_and_cached(self, service):
        workload = intractable_workload(8, rng=21)
        instance_id = service.register_instance(workload.instance)
        kwargs = dict(precision="approx", epsilon=0.2, delta=0.1, seed=99)
        first = service.submit(workload.query, instance_id, **kwargs)
        second = service.submit(workload.query, instance_id, **kwargs)
        assert first.method == "karp-luby"
        assert float(first) == float(second)
        assert second.cached

    def test_unseeded_approx_is_never_cached(self, service):
        workload = intractable_workload(8, rng=22)
        instance_id = service.register_instance(workload.instance)
        kwargs = dict(precision="approx", epsilon=0.2, delta=0.1)
        first = service.submit(workload.query, instance_id, **kwargs)
        second = service.submit(workload.query, instance_id, **kwargs)
        assert not first.cached and not second.cached

    def test_register_replacing_an_id_makes_the_next_request_a_miss(self, service):
        first, second = build_instance(86), build_instance(87)
        query = "R(x, y), S(y, z)"  # 21/64 on the first, 3/4 on the second
        service.register_instance(first, "shared")
        service.submit(query, "shared")
        assert service.submit(query, "shared").cached
        service.register_instance(second, "shared")
        after = service.submit(query, "shared")
        assert not after.cached
        fresh = PHomSolver().solve(query, second)
        assert after.probability == fresh.probability
        assert after.method == fresh.method
        assert service.submit(query, "shared").cached

    def test_a_hit_reads_the_contract_fields(self, service):
        instance_id = service.register_instance(build_instance(86))
        query = "R(x, y), S(y, z)"
        cold = service.submit(query, instance_id, request_id="cold")
        hit = service.submit(query, instance_id, request_id="warm")
        assert not cold.cached and hit.cached
        assert hit.request_id == "warm"
        assert hit.worker == service._worker_for(instance_id)
        assert hit.attempts == 1 and hit.timing is None
        assert isinstance(hit.duration_ms, float) and hit.duration_ms >= 0.0
        assert not (hit.coalesced or hit.degraded or hit.timed_out)
        assert hit.error is None and hit.error_class is None
        assert hit.probability == cold.probability == Fraction(21, 64)
        assert hit.result is not cold.result

    def test_a_hit_is_a_copy_the_caller_may_mutate(self, service):
        instance_id = service.register_instance(build_instance(89))
        query = "R(x, y), S(y, z)"
        expected = service.submit(query, instance_id).probability
        assert expected == Fraction(3, 8)
        for _ in range(2):
            hit = service.submit(query, instance_id)
            assert hit.cached and hit.probability == expected
            hit.result.probability = 0

    def test_pooled_hit_never_reaches_the_worker(self):
        with QueryService(num_workers=1) as service:
            instance_id = service.register_instance(build_instance(5))
            query = "S(x, y), R(y, z)"
            service.submit(query, instance_id)
            before = service.stats().workers[0]["requests"]
            hit = service.submit(query, instance_id)
            stats = service.stats()
        assert hit.cached
        assert stats.workers[0]["requests"] == before == 1
        # ``dispatched`` counts the hit on its owner's row, so coalesced
        # still equals requests minus dispatched.
        assert stats.workers[0]["dispatched"] == stats.dispatched == 2
        assert stats.result_cache_hits() == 1 and stats.coalesced == 0

    def test_the_cache_survives_a_worker_restart(self):
        instance = build_instance(41)
        query, other = "R(x, y), S(y, z)", "R(x, y)"
        # The kill fires on the worker's third message (register, solve,
        # solve): the second query's op dies with the worker and is retried.
        plan = FaultPlan(faults=(Fault(kind="kill", after_messages=2),), seed=19)
        with QueryService(
            num_workers=1, fault_plan=plan, seed=19, backoff_base=0.01
        ) as service:
            instance_id = service.register_instance(instance)
            first = service.submit(query, instance_id)
            retried = service.submit(other, instance_id)
            again = service.submit(query, instance_id)
            stats = service.stats()
        assert stats.restarts == 1 and retried.attempts == 2
        assert again.cached
        assert again.probability == first.probability == Fraction(71, 128)

    @pytest.mark.parametrize("policy", ["degrade", "partial"])
    def test_deadline_outcomes_never_become_hits(self, policy):
        # The delay fires once, on the first solve (the register is the
        # worker's first message), so only the first request misses.
        plan = FaultPlan(
            faults=(Fault(kind="delay", seconds=0.25, after_messages=1),), seed=5
        )
        with QueryService(num_workers=0, fault_plan=plan) as service:
            instance_id = service.register_instance(build_instance(92))
            query = "S(x, y), R(y, z)"
            missed, computed, hit = [
                service.submit(
                    query, instance_id, deadline_ms=100.0, on_deadline=policy
                )
                for _ in range(3)
            ]
            stats = service.stats()
        assert missed.degraded if policy == "degrade" else missed.timed_out
        assert not computed.cached and not computed.degraded
        assert hit.cached and hit.probability == computed.probability
        assert computed.probability == Fraction(199, 256)
        assert stats.deadline_hits == 1 and stats.result_cache_hits() == 1


class TestMultiprocessService:
    def test_exact_answers_bit_identical_to_solve_many(self):
        instances = [build_instance(s) for s in (20, 110, 116)]
        queries = trace_queries(35, 15)
        solver = PHomSolver()
        with QueryService(num_workers=2) as service:
            ids = [service.register_instance(inst) for inst in instances]
            requests = [
                (query, ids[position % 3]) for position, query in enumerate(queries)
            ]
            results = service.submit_many(requests)
            for position, query in enumerate(queries):
                expected = solver.solve(query, instances[position % 3])
                assert results[position].probability == expected.probability != 0

    def test_affinity_is_stable_and_spreads_instances(self):
        with QueryService(num_workers=2) as service:
            owners = {
                name: service._worker_for(name)
                for name in ("instance-0", "instance-1", "instance-2", "instance-3")
            }
            assert all(0 <= worker < 2 for worker in owners.values())
            assert owners == {
                name: service._worker_for(name) for name in owners
            }

    def test_update_reaches_the_owning_worker(self):
        instance = build_instance(41)
        query = "R(x, y), S(y, z)"
        with QueryService(num_workers=2) as service:
            instance_id = service.register_instance(instance)
            before = service.submit(query, instance_id)
            edge = instance.uncertain_edges()[1]  # an R edge at 1/2 that moves the answer
            service.update_probability(instance_id, edge, "1/3")
            got = service.submit(query, instance_id)
            assert got.probability == PHomSolver().solve(query, instance).probability
        assert (before.probability, got.probability) == (Fraction(71, 128), Fraction(13, 32))

    def test_pinned_seed_estimate_identical_across_worker_counts(self):
        workload = intractable_workload(8, rng=45)
        values = []
        for workers in (0, 2):
            with QueryService(num_workers=workers) as service:
                instance = pickle.loads(pickle.dumps(workload.instance))
                instance_id = service.register_instance(instance)
                result = service.submit(
                    workload.query, instance_id,
                    precision="approx", epsilon=0.2, delta=0.1, seed=7,
                )
                values.append(float(result))
        assert values[0] == values[1]


class TestUpdateValidation:
    @pytest.mark.parametrize("workers", [0, 2])
    def test_edge_with_another_label_is_rejected(self, workers):
        # An Edge names its label: one that differs from the instance
        # edge's must fail like set_probability and plan.update do, not
        # update whichever edge joins the same endpoints.
        graph = DiGraph(edges=[("a", "b", "R"), ("b", "c", "R")])
        instance = ProbabilisticGraph(graph, {("a", "b"): "1/2", ("b", "c"): "1/3"})
        query = one_way_path(["R"])
        with QueryService(num_workers=workers) as service:
            instance_id = service.register_instance(instance, "i")
            before = service.submit(query, instance_id).probability
            with pytest.raises(GraphError):
                service.update_probability(instance_id, Edge("a", "b", "S"), "1/4")
            assert str(instance.probability(("a", "b"))) == "1/2"
            assert service.submit(query, instance_id).probability == before
            service.update_probability(instance_id, Edge("a", "b", "R"), "1/4")
            after = service.submit(query, instance_id).probability
        assert after == PHomSolver().solve(query, instance).probability != before


class TestJsonlProtocol:
    def make_lines(self, instance, query, extra=()):
        lines = [
            json.dumps(
                {
                    "op": "register",
                    "id": "inst",
                    "instance": probabilistic_graph_to_dict(instance),
                }
            ),
            json.dumps(
                {
                    "op": "solve",
                    "id": "r1",
                    "instance": "inst",
                    "query": graph_to_dict(query),
                }
            ),
            json.dumps(
                {
                    "op": "solve",
                    "id": "r2",
                    "instance": "inst",
                    "query": graph_to_dict(query),
                    "precision": "float",
                }
            ),
        ]
        lines.extend(extra)
        return lines

    def test_session_round_trip(self):
        instance = build_instance(51)
        query = trace_queries(53, 1)[0]
        edge = instance.uncertain_edges()[0]
        update = json.dumps(
            {
                "op": "update",
                "instance": "inst",
                "edge": [str(edge.source), str(edge.target)],
                "probability": "1/2",
            }
        )
        out = io.StringIO()
        with QueryService(num_workers=0) as service:
            code = run_jsonl_session(
                self.make_lines(instance, query, extra=[update]), out, service
            )
        assert code == 0
        lines = [json.loads(line) for line in out.getvalue().splitlines()]
        assert lines[0] == {"ok": True, "op": "register", "instance": "inst"}
        by_id = {line.get("id"): line for line in lines if "id" in line}
        assert by_id["r1"]["method"] == by_id["r2"]["method"]
        assert by_id["r1"]["float"] == pytest.approx(by_id["r2"]["float"], abs=1e-9)
        assert "/" in by_id["r1"]["probability"] or by_id["r1"]["probability"] in "01"
        assert lines[-1] == {"ok": True, "op": "update", "instance": "inst"}

    def test_bad_lines_keep_the_session_alive(self):
        instance = build_instance(55)
        query = trace_queries(57, 1)[0]
        lines = self.make_lines(instance, query)
        lines.insert(1, "not json at all")
        lines.append(json.dumps({"op": "solve", "instance": "ghost", "query": graph_to_dict(query), "id": "r3"}))
        out = io.StringIO()
        with QueryService(num_workers=0) as service:
            code = run_jsonl_session(lines, out, service)
        assert code == 1
        parsed = [json.loads(line) for line in out.getvalue().splitlines()]
        errors = [line for line in parsed if "error" in line]
        assert len(errors) == 2
        solved = [line for line in parsed if line.get("id") in ("r1", "r2")]
        assert len(solved) == 2

    def test_lines_that_are_not_objects_fail_in_place(self):
        instance = build_instance(56)
        query = trace_queries(58, 1)[0]
        lines = self.make_lines(instance, query)
        lines[2:2] = ["[1, 2]", '"text"', "7"]
        out = io.StringIO()
        with QueryService(num_workers=0) as service:
            code = run_jsonl_session(lines, out, service)
        assert code == 1
        parsed = [json.loads(line) for line in out.getvalue().splitlines()]
        assert parsed[0] == {"ok": True, "op": "register", "instance": "inst"}
        # The pending solve is answered before the failures, in line order.
        assert parsed[1]["id"] == "r1" and "error" not in parsed[1]
        assert [(r["line"], r["error_class"]) for r in parsed[2:5]] == [
            (3, "ServiceError"), (4, "ServiceError"), (5, "ServiceError")
        ]
        assert parsed[5]["id"] == "r2" and "error" not in parsed[5]

    def test_numeric_instance_id_names_its_string(self):
        instance = build_instance(60)
        query = graph_to_dict(trace_queries(62, 1)[0])
        lines = [
            json.dumps(
                {"op": "register", "id": 5,
                 "instance": probabilistic_graph_to_dict(instance)}
            ),
            json.dumps({"op": "solve", "id": "a", "instance": 5, "query": query}),
            json.dumps({"op": "solve", "id": "b", "instance": "5", "query": query}),
        ]
        out = io.StringIO()
        with QueryService(num_workers=0) as service:
            code = run_jsonl_session(lines, out, service)
        assert code == 0
        parsed = [json.loads(line) for line in out.getvalue().splitlines()]
        assert parsed[0] == {"ok": True, "op": "register", "instance": "5"}
        assert [r["id"] for r in parsed[1:]] == ["a", "b"]
        assert all("error" not in r for r in parsed)

    def test_null_request_id_reads_as_absent(self):
        # JSON null is no id, on the answer and on a failure record alike,
        # as it is for register; it must not become the string "None".
        instance = build_instance(63)
        query = trace_queries(65, 1)[0]
        payload = graph_to_dict(query)
        lines = self.make_lines(instance, query, extra=[
            json.dumps({"op": "solve", "id": None, "instance": "inst", "query": payload}),
            json.dumps({"op": "solve", "id": None, "instance": "ghost", "query": payload}),
            json.dumps({"op": "update", "id": None, "instance": "inst", "edge": ["x", "y"],
                        "probability": "1/2"}),
        ])
        out = io.StringIO()
        with QueryService(num_workers=0) as service:
            code = run_jsonl_session(lines, out, service)
        assert code == 1
        parsed = [json.loads(line) for line in out.getvalue().splitlines()]
        answered, ghost, update = parsed[-3:]
        assert answered["id"] is None and "error" not in answered
        assert answered["probability"] == parsed[1]["probability"]
        for failure in (ghost, update):
            assert failure["error_class"] and "id" not in failure

    def test_non_finite_deadline_is_a_failure_record(self):
        instance = build_instance(64)
        query = trace_queries(66, 1)[0]
        bad = json.dumps(
            {"op": "solve", "id": "nan", "instance": "inst",
             "query": graph_to_dict(query), "deadline_ms": float("nan")}
        )
        assert "NaN" in bad  # Python's json writes and reads the literal
        lines = self.make_lines(instance, query)
        lines.insert(2, bad)
        out = io.StringIO()
        with QueryService(num_workers=0) as service:
            code = run_jsonl_session(lines, out, service)
        assert code == 1
        parsed = [json.loads(line) for line in out.getvalue().splitlines()]
        by_id = {record["id"]: record for record in parsed if "id" in record}
        assert by_id["nan"]["error_class"] == "ServiceError"
        assert by_id["nan"]["line"] == 3
        assert "error" not in by_id["r1"] and "error" not in by_id["r2"]

    @pytest.mark.parametrize(
        "field,value",
        [("seed", 1.5), ("seed", True), ("seed", "x"), ("deadline_ms", True),
         ("epsilon", True), ("delta", False)],
    )
    def test_bad_numeric_fields_are_failure_records(self, field, value):
        # Coercion would answer another request: seed 1.5 as seed 1 (one
        # shared estimate and coalesce key), true as 1 or a 1 ms deadline.
        instance = build_instance(67)
        query = trace_queries(69, 1)[0]
        bad = json.dumps(
            {"op": "solve", "id": "bad", "instance": "inst",
             "query": graph_to_dict(query), "precision": "approx", field: value}
        )
        good = json.dumps(
            {"op": "solve", "id": "good", "instance": "inst",
             "query": graph_to_dict(query), "precision": "approx",
             "seed": "3", "epsilon": 0.2, "delta": 0.2, "deadline_ms": 60000.0}
        )
        integral = good.replace('"seed": "3"', '"seed": 3.0').replace('"good"', '"integral"')
        lines = self.make_lines(instance, query, extra=[bad, good, integral])
        out = io.StringIO()
        with QueryService(num_workers=0) as service:
            code = run_jsonl_session(lines, out, service)
        assert code == 1
        parsed = [json.loads(line) for line in out.getvalue().splitlines()]
        by_id = {record["id"]: record for record in parsed if "id" in record}
        assert by_id["bad"]["error_class"] == "ServiceError"
        assert repr(field) in by_id["bad"]["error"]
        assert "error" not in by_id["good"] and "error" not in by_id["integral"]
        assert by_id["good"]["probability"] == by_id["integral"]["probability"]

    def test_cli_serve_batch(self, tmp_path):
        instance = build_instance(59)
        query = trace_queries(61, 1)[0]
        requests = tmp_path / "requests.jsonl"
        requests.write_text("\n".join(self.make_lines(instance, query)) + "\n")
        out, err = io.StringIO(), io.StringIO()
        code = cli_main(
            ["serve", "--batch", str(requests), "--workers", "0", "--stats"],
            out=out, err=err,
        )
        assert code == 0
        assert len(out.getvalue().splitlines()) == 3
        assert "served 2 request(s)" in err.getvalue()


class TestPicklableArtifacts:
    CELLS = [
        (GraphClass.TWO_WAY_PATH, GraphClass.UNION_TWO_WAY_PATH, True, "dp"),
        (GraphClass.ONE_WAY_PATH, GraphClass.UNION_DOWNWARD_TREE, True, "dp"),
        (GraphClass.DOWNWARD_TREE, GraphClass.POLYTREE, False, "dp"),
        (GraphClass.DOWNWARD_TREE, GraphClass.POLYTREE, False, "automaton"),
    ]

    @pytest.mark.parametrize("query_class,instance_class,labeled,prefer", CELLS)
    def test_plans_survive_pickling(self, query_class, instance_class, labeled, prefer):
        from repro.workloads.generators import workload_for_cell

        workload = workload_for_cell(query_class, instance_class, labeled, 3, 10, rng=63)
        solver = PHomSolver(prefer=prefer)
        plan = solver.compile(workload.query, workload.instance)
        clone = pickle.loads(pickle.dumps(plan))
        assert clone.evaluate() == plan.evaluate()
        assert clone.method == plan.method

    def test_fallback_plan_estimate_reproducible_after_pickling(self):
        from repro.approx import ApproxParams

        workload = intractable_workload(8, rng=65)
        plan = PHomSolver().compile(workload.query, workload.instance)
        clone = pickle.loads(pickle.dumps(plan))
        params = ApproxParams(epsilon=0.2, delta=0.1, seed=5)
        assert plan.estimate(params=params).value == clone.estimate(params=params).value

    def test_solver_pickle_keeps_config_drops_cache(self):
        solver = PHomSolver(
            allow_brute_force=False, prefer="automaton", precision="float",
            plan_cache_size=7,
        )
        instance = build_instance(67)
        solver.solve(trace_queries(69, 1)[0], instance)
        clone = pickle.loads(pickle.dumps(solver))
        assert clone.allow_brute_force is False
        assert clone.prefer == "automaton"
        assert clone.plan_cache.maxsize == 7
        assert clone.plan_cache.stats["size"] == 0

    def test_instance_pickle_is_independent(self):
        instance = build_instance(71)
        clone = pickle.loads(pickle.dumps(instance))
        edge = instance.uncertain_edges()[0]
        clone.set_probability(edge, "1/2")
        assert instance.probability(edge) != clone.probability(edge) or str(
            instance.probability(edge)
        ) == "1/2"
        assert clone.graph.frozen


class TestPlanCacheEvictions:
    def test_eviction_counter(self):
        cache = PlanCache(maxsize=1)
        instance = build_instance(73)
        solver = PHomSolver()
        solver._plan_cache = cache
        solver.solve(one_way_path(["R"]), instance)
        solver.solve(one_way_path(["S"]), instance)
        stats = cache.stats
        assert stats["compiles"] == 2
        assert stats["evictions"] == 1
        assert stats["size"] == 1
        assert stats["maxsize"] == 1
