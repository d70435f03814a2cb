"""Regression tests for balanced sharding, work stealing and lean dispatch.

The bugfix tier behind these tests: the coordinator must spread K
registered instances over ``min(K, num_workers)`` workers (the old
``crc32 % num_workers`` hash could park every instance on one shard and
leave whole workers idle), stealing must never change an answer (exact
results bit-identical across worker counts, pinned-seed estimates
identical with stealing on or off), a SIGKILLed thief must recover with
zero lost requests, and the batch statistics must not be skewed by
entries that fail normalization.
"""

from __future__ import annotations

import gc
import pickle
import weakref

import pytest

from repro.core.solver import PHomSolver
from repro.graphs.classes import GraphClass
from repro.service import Fault, FaultPlan, QueryService, ServiceRequest
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
    while the other owners see a single request each — exactly the shape
    whose cold-count imbalance trips the coordinator's steal trigger.
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


class TestStealingEquivalence:
    def test_exact_answers_bit_identical_across_worker_counts(self):
        queries = trace_queries(61, 10)
        solver = PHomSolver()
        reference = None
        for num_workers in (1, 2, 4):
            instances = [build_instance(seed) for seed in (31, 32, 33)]
            with QueryService(num_workers=num_workers) as service:
                ids = [service.register_instance(inst) for inst in instances]
                results = service.submit_many(skewed_batch(ids, queries))
                stats = service.stats()
            answers = [str(result.probability) for result in results]
            if num_workers > 1:
                # The skewed batch must actually exercise the steal path,
                # otherwise this test proves nothing about it.
                assert stats.steals >= 1
                assert stats.replicas_shipped >= 1
                assert any(result.stolen for result in results)
            if reference is None:
                reference = answers
                expected = [
                    str(solver.solve(queries[i], instances[0]).probability)
                    for i in range(len(queries))
                ]
                assert answers[: len(queries)] == expected
            else:
                assert answers == reference

    def test_pinned_seed_estimates_unchanged_by_steal_routing(self):
        workload = intractable_workload(8, rng=45)
        estimates = {}
        for stealing in (True, False):
            with QueryService(num_workers=2, work_stealing=stealing) as service:
                instance = pickle.loads(pickle.dumps(workload.instance))
                instance_id = service.register_instance(instance)
                # Distinct pinned seeds make distinct coalesce keys: all
                # cold, all on one shard, so stealing (when enabled) must
                # move some of them — without changing a single estimate.
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
                stats = service.stats()
            assert stats.steals >= (1 if stealing else 0)
            if not stealing:
                assert stats.steals == 0
            estimates[stealing] = [float(result) for result in results]
        assert estimates[True] == estimates[False]

    def test_repeated_batches_hit_the_frame_cache(self):
        instances = [build_instance(seed) for seed in (71, 72)]
        with QueryService(num_workers=2) as service:
            ids = [service.register_instance(inst) for inst in instances]
            first = service.submit_many(skewed_batch(ids, trace_queries(73, 6)))
            # Rebuild the queries from the same seed: equal coalesce keys,
            # different objects — the cached frames answer, and each result
            # is requalified against the spelling actually submitted.
            second = service.submit_many(skewed_batch(ids, trace_queries(73, 6)))
            assert len(service._frame_cache) > 0
        assert [str(r.probability) for r in first] == [
            str(r.probability) for r in second
        ]
        assert not any(r.error for r in first) and not any(r.error for r in second)

    def test_frame_cache_does_not_keep_query_graphs_alive(self):
        # The frame cache compares the submitted query by identity only, so
        # it must hold it weakly: a strong reference kept every cold query
        # graph (and its memo) alive for the life of the cache.
        instances = [build_instance(seed) for seed in (74, 75)]
        with QueryService(num_workers=2) as service:
            ids = [service.register_instance(inst) for inst in instances]
            requests = skewed_batch(ids, trace_queries(76, 6))
            graphs = [weakref.ref(request.query) for request in requests]
            results = service.submit_many(requests)
            assert len(service._frame_cache) > 0
            del requests
            gc.collect()
            assert [graph() for graph in graphs] == [None] * len(graphs)
        assert not any(result.error for result in results)


class TestThiefRecovery:
    def test_killed_thief_loses_no_requests(self):
        queries = trace_queries(81, 10)
        instances = [build_instance(seed) for seed in (51, 52)]
        solver = PHomSolver()
        expected = [str(solver.solve(q, instances[0]).probability) for q in queries]
        # Worker 1 is the idle shard of the skewed batch, hence the thief;
        # the kill fires on its second message — right when the stolen
        # replica and work arrive — so supervision must restart it, replay
        # its journal, and re-ship the stolen shard before re-dispatching.
        plan = FaultPlan(
            faults=(Fault(kind="kill", worker=1, after_messages=1),), seed=7
        )
        with QueryService(
            num_workers=2, fault_plan=plan, backoff_base=0.01
        ) as service:
            ids = [service.register_instance(inst) for inst in instances]
            results = service.submit_many(skewed_batch(ids, queries))
            stats = service.stats()
        assert not any(result.error for result in results)
        answers = [str(result.probability) for result in results[: len(queries)]]
        assert answers == expected
        assert stats.steals >= 1
        assert stats.restarts >= 1


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
        status, edge_count = handle_message(state, "register", ("iid", blob))
        assert status == "ok"
        assert edge_count == instance.graph.num_edges()
        installed = state.instances["iid"]
        # The worker holds its own unpickled copy, not the coordinator's
        # object — mutating one cannot leak into the other.
        assert installed is not instance
        edge = instance.uncertain_edges()[0]
        assert installed.probability(edge) == instance.probability(edge)

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
