"""Regression tests for balanced sharding, owner routing and lean dispatch.

The bugfix tier behind these tests: the coordinator must spread K
registered instances over ``min(K, num_workers)`` workers (the old
``crc32 % num_workers`` hash could park every instance on one shard and
leave whole workers idle), every request must run on its instance's owner
and no worker may hold an instance it does not own, answers must not
depend on the worker count (exact results bit-identical, pinned-seed
estimates identical), and the batch statistics must not be skewed by
entries that fail normalization.
"""

from __future__ import annotations

import gc
import pickle
import weakref

import pytest

from repro.bench_service import check_service_thresholds
from repro.core.solver import PHomSolver
from repro.graphs.classes import GraphClass
from repro.service import QueryService, ServiceRequest
from repro.service.worker import WorkerState, handle_message
from repro.workloads.generators import (
    attach_random_probabilities,
    intractable_workload,
    make_instance,
    query_traffic_trace,
)


def build_instance(seed: int):
    graph = make_instance(GraphClass.UNION_DOWNWARD_TREE, True, 16, seed)
    return attach_random_probabilities(graph, seed)


def trace_queries(seed: int, count: int):
    trace = query_traffic_trace(
        count, 5, skew=1.2, query_class=GraphClass.ONE_WAY_PATH, rng=seed
    )
    return trace.queries()


def skewed_batch(ids, queries):
    """An all-cold batch that concentrates work on the first instance.

    Every query targets ``ids[0]``, so its owning shard is the hot one
    while the other owners see a single request each.
    """
    requests = [ServiceRequest(query, ids[0]) for query in queries]
    requests += [ServiceRequest(queries[0], instance_id) for instance_id in ids[1:]]
    return requests


class TestBalancedSharding:
    @pytest.mark.parametrize("num_workers", [2, 4])
    def test_four_instances_leave_no_worker_idle(self, num_workers):
        instances = [build_instance(seed) for seed in (11, 12, 13, 14)]
        with QueryService(num_workers=num_workers) as service:
            ids = [service.register_instance(instance) for instance in instances]
            owners = [service._worker_for(instance_id) for instance_id in ids]
            # Least-loaded assignment: 4 instances cover min(4, W) workers,
            # and no worker owns more than ceil(4 / W).
            assert set(owners) == set(range(num_workers))
            assert max(owners.count(worker) for worker in set(owners)) <= -(
                -len(ids) // num_workers
            )
            # The per-worker stats rows are keyed by worker index and show
            # each shard's registered instances — none may be empty.
            stats = service.stats()
            assert [row["worker"] for row in stats.workers] == list(
                range(num_workers)
            )
            assert all(row["instances"] for row in stats.workers)

    def test_assignment_is_stable_across_lookups(self):
        with QueryService(num_workers=2) as service:
            ids = [
                service.register_instance(build_instance(seed))
                for seed in (21, 22, 23)
            ]
            first = {instance_id: service._worker_for(instance_id) for instance_id in ids}
            again = {instance_id: service._worker_for(instance_id) for instance_id in ids}
            assert first == again

    def test_workers_hold_only_the_instances_they_own(self):
        # An unbalanced batch must not leave a copy of the hot instance on
        # the idle worker, before or after an update.
        queries = trace_queries(65, 10)
        instances = [build_instance(seed) for seed in (66, 67)]
        with QueryService(num_workers=2) as service:
            ids = [service.register_instance(inst) for inst in instances]
            owner = {instance_id: service._worker_for(instance_id) for instance_id in ids}
            batch = skewed_batch(ids, queries)
            results = service.submit_many(batch)
            edge = sorted(instances[0].uncertain_edges())[0]
            service.update_probability(ids[0], edge, "1/3")
            updated = service.submit_many(batch)
            stats = service.stats()
        for row in stats.workers:
            owned = sorted(i for i in ids if owner[i] == row["worker"])
            assert row["instances"] == owned
        for result, request in zip(results + updated, batch * 2):
            assert result.worker == owner[request.instance_id]
        by_id = dict(zip(ids, instances))
        solver = PHomSolver()
        assert [str(result.probability) for result in updated] == [
            str(solver.solve(request.query, by_id[request.instance_id]).probability)
            for request in batch
        ]


class TestRoutingEquivalence:
    def test_exact_answers_bit_identical_across_worker_counts(self):
        queries = trace_queries(61, 10)
        solver = PHomSolver()
        reference = None
        for num_workers in (1, 2, 4):
            instances = [build_instance(seed) for seed in (31, 32, 33)]
            with QueryService(num_workers=num_workers) as service:
                ids = [service.register_instance(inst) for inst in instances]
                results = service.submit_many(skewed_batch(ids, queries))
            answers = [str(result.probability) for result in results]
            if reference is None:
                reference = answers
                expected = [
                    str(solver.solve(queries[i], instances[0]).probability)
                    for i in range(len(queries))
                ]
                assert answers[: len(queries)] == expected
            else:
                assert answers == reference

    def test_pinned_seed_estimates_identical_across_worker_counts(self):
        workload = intractable_workload(8, rng=45)
        estimates = {}
        for num_workers in (0, 1, 2):
            with QueryService(num_workers=num_workers) as service:
                instance = pickle.loads(pickle.dumps(workload.instance))
                instance_id = service.register_instance(instance)
                # Distinct pinned seeds make distinct coalesce keys, so each
                # request runs its own sampler.
                requests = [
                    ServiceRequest(
                        workload.query,
                        instance_id,
                        precision="approx",
                        epsilon=0.3,
                        delta=0.2,
                        seed=seed,
                    )
                    for seed in range(5)
                ]
                results = service.submit_many(requests)
            estimates[num_workers] = [float(result) for result in results]
        assert estimates[0] == estimates[1] == estimates[2]

    def test_reparsed_spellings_answer_identically(self):
        instances = [build_instance(seed) for seed in (71, 72)]
        with QueryService(num_workers=2) as service:
            ids = [service.register_instance(inst) for inst in instances]
            first = service.submit_many(skewed_batch(ids, trace_queries(73, 6)))
            # Rebuild the queries from the same seed: equal coalesce keys,
            # different objects — the service's result cache answers, and
            # each result describes the spelling actually submitted.
            second = service.submit_many(skewed_batch(ids, trace_queries(73, 6)))
        assert not any(r.error for r in first) and not any(r.error for r in second)
        assert all(r.cached for r in second)
        for before, after in zip(first, second):
            assert str(after.probability) == str(before.probability)
            assert after.method == before.method
            assert after.result.query_class == before.result.query_class

    def test_submit_many_keeps_no_query_graph_alive(self):
        instances = [build_instance(seed) for seed in (74, 75)]
        with QueryService(num_workers=2) as service:
            ids = [service.register_instance(inst) for inst in instances]
            requests = skewed_batch(ids, trace_queries(76, 6))
            graphs = [weakref.ref(request.query) for request in requests]
            results = service.submit_many(requests)
            del requests
            gc.collect()
            assert [graph() for graph in graphs] == [None] * len(graphs)
        assert not any(result.error for result in results)


class TestCounterInvariantGate:
    """``bench_service``'s gate: the coordinator's counters must not depend
    on the worker count of the replay."""

    @staticmethod
    def report(hits_at_two_workers):
        counters = {"coalesced": 90, "dispatched": 210, "result_cache_hits": 163}
        return {
            "summary": {
                "exact_bit_identical": True,
                "approx_seed_reproducible": True,
                "speedup_at_max_workers": 1.0,
                "max_workers": 2,
            },
            "modes": {
                "solve_many_single_process": {"seconds": 1.0},
                "service_1_workers": counters,
                "service_2_workers": dict(
                    counters, result_cache_hits=hits_at_two_workers
                ),
            },
        }

    def test_equal_counters_pass_and_diverging_ones_fail(self):
        check_service_thresholds(self.report(163))
        with pytest.raises(AssertionError, match="result_cache_hits differs"):
            check_service_thresholds(self.report(162))


class TestBatchStatsHygiene:
    def test_rejected_entries_do_not_skew_stats(self):
        with QueryService(num_workers=0) as service:
            instance_id = service.register_instance(build_instance(91))
            query = trace_queries(91, 1)[0]
            batch = [
                ServiceRequest(query, instance_id),
                ServiceRequest(query, instance_id),  # coalesces with the first
                "not a request",
            ]
            results = service.submit_many(batch, on_error="return")
            stats = service.stats()
        assert results[2].error and results[2].error_class == "ServiceError"
        assert str(results[0].probability) == str(results[1].probability)
        # The garbage entry never reached a worker: it counts as rejected,
        # not as a request, so the dedupe rate stays 1 hit out of 2.
        assert stats.requests == 2
        assert stats.rejected == 1
        assert stats.coalesced == 1
        assert stats.dedupe_hit_rate() == pytest.approx(0.5)


class TestSnapshotShipping:
    def test_worker_register_unpickles_shipped_bytes(self):
        state = WorkerState(0, PHomSolver(), "exact")
        instance = build_instance(95)
        blob = pickle.dumps(instance, protocol=pickle.HIGHEST_PROTOCOL)
        status, edge_count = handle_message(state, "register", ("iid", blob, ()))
        assert status == "ok"
        assert edge_count == instance.graph.num_edges()
        installed = state.instances["iid"]
        # The worker holds its own unpickled copy, not the coordinator's
        # object — mutating one cannot leak into the other.
        assert installed is not instance
        edge = instance.uncertain_edges()[0]
        assert installed.probability(edge) == instance.probability(edge)
        # The journal payload is the only shape: no bare instance, no 2-tuple.
        assert handle_message(state, "register", ("other", blob))[0] == "error"
        assert handle_message(state, "register", ("other", instance, ()))[0] == "error"
        assert "other" not in state.instances

    def test_worker_register_applies_journal_update_tail(self):
        state = WorkerState(0, PHomSolver(), "exact")
        instance = build_instance(96)
        edge = instance.uncertain_edges()[0]
        endpoints = (edge.source, edge.target)
        blob = pickle.dumps(instance, protocol=pickle.HIGHEST_PROTOCOL)
        status, _ = handle_message(
            state, "register", ("iid", blob, ((endpoints, "1/3"),))
        )
        assert status == "ok"
        installed = state.instances["iid"]
        assert str(installed.probability(edge)) == "1/3"
        # The snapshot itself was shipped unmodified.
        assert instance.probability(edge) != installed.probability(edge)
