"""Seeded fault-injection suite for the serving layer's robustness tier.

Every scenario here drives :class:`~repro.service.QueryService` through a
pinned :class:`~repro.service.FaultPlan`, so the chaos is reproducible:
worker kills recover bit-identically through the journal, deadline misses
degrade within their budget-derived (ε, δ) contract, and exhausted retry
budgets surface as typed, provenance-carrying errors.
"""

from __future__ import annotations

import os
import pickle
import signal
import warnings

import pytest

from repro.core.solver import PHomSolver
from repro.exceptions import (
    DeadlineExceededError,
    ServiceError,
    ServiceUnavailableError,
)
from repro.graphs.classes import GraphClass
from repro.graphs.digraph import DiGraph
from repro.service import (
    Fault,
    FaultPlan,
    QueryService,
    ServiceRequest,
    epsilon_for_budget,
)
import repro.service.service as service_module
from repro.service.jsonl import RETRYABLE_ERROR_CLASSES, failure_record
from repro.service.worker import FAULT_KILL_EXIT_CODE
from repro.workloads.generators import (
    attach_random_probabilities,
    intractable_workload,
    make_instance,
    query_traffic_trace,
)


def build_instance(seed: int):
    graph = make_instance(GraphClass.UNION_DOWNWARD_TREE, True, 16, seed)
    return attach_random_probabilities(graph, seed)


def trace_queries(seed: int, count: int = 8):
    trace = query_traffic_trace(
        count, 5, skew=1.2, query_class=GraphClass.ONE_WAY_PATH, rng=seed
    )
    return trace.queries()


def exact_answers(queries, instance):
    solver = PHomSolver()
    return [str(solver.solve(query, instance).probability) for query in queries]


class Opaque:
    """A query vertex that cannot be pickled, so it cannot reach a worker."""

    def __init__(self, name):
        self.name = name

    def __hash__(self):
        return hash(self.name)

    def __eq__(self, other):
        return isinstance(other, Opaque) and other.name == self.name

    def __reduce__(self):
        raise TypeError("Opaque vertices cannot be pickled")


def unpicklable_query():
    return DiGraph(edges=[(Opaque("x"), Opaque("y"), "R")])


class TestFaultPlan:
    def test_invalid_faults_are_rejected(self):
        with pytest.raises(ServiceError):
            Fault(kind="segfault")
        with pytest.raises(ServiceError):
            Fault(kind="kill", after_messages=-1)
        with pytest.raises(ServiceError):
            Fault(kind="delay", seconds=-0.5)
        with pytest.raises(ServiceError):
            Fault(kind="delay")  # a delay needs seconds > 0

    def test_targeting_and_incarnation_arming(self):
        everyone = Fault(kind="kill")
        only_one = Fault(kind="drop", worker=1)
        repeating = Fault(kind="corrupt", worker=0, repeat=True)
        plan = FaultPlan(faults=(everyone, only_one, repeating), seed=3)
        assert plan.targets(0) == (everyone, repeating)
        assert plan.targets(1) == (everyone, only_one)
        # Only repeat=True faults re-arm on a respawned incarnation.
        assert plan.targets(0, incarnation=1) == (repeating,)
        assert plan.targets(1, incarnation=2) == ()

    def test_injector_fires_after_the_armed_message_count(self):
        plan = FaultPlan(faults=(Fault(kind="kill", after_messages=2),))
        injector = plan.for_worker(0)
        assert injector.on_message() == []
        assert injector.on_message() == []
        fired = injector.on_message()
        assert [fault.kind for fault in fired] == ["kill"]
        # A fault fires once per arming.
        assert injector.on_message() == []

    def test_solver_error_faults_are_consumed_per_request(self):
        plan = FaultPlan(faults=(Fault(kind="solver-error"),))
        injector = plan.for_worker(0)
        assert injector.on_message() == []  # routed internally, not returned
        assert injector.take_solver_error()
        assert not injector.take_solver_error()

    def test_corrupt_bytes_are_seed_deterministic(self):
        plan = FaultPlan(faults=(Fault(kind="corrupt"),), seed=11)
        first = plan.for_worker(2, 1).corrupt_bytes()
        second = plan.for_worker(2, 1).corrupt_bytes()
        other = plan.for_worker(3, 1).corrupt_bytes()
        assert first == second
        assert first != other

    def test_epsilon_ladder(self):
        assert epsilon_for_budget(10) == 0.5
        assert epsilon_for_budget(50) == 0.25
        assert epsilon_for_budget(100) == 0.25
        assert epsilon_for_budget(500) == 0.1
        assert epsilon_for_budget(5000) == 0.05
        assert epsilon_for_budget(None, floor=0.3) == 0.3
        assert epsilon_for_budget(10, floor=0.6) == 0.6


class TestDeadlinePolicies:
    """Inline-mode deadline semantics, driven by injected delays."""

    def _delayed_service(self, **kwargs):
        plan = FaultPlan(
            faults=(Fault(kind="delay", seconds=0.08, after_messages=1, repeat=True),),
            seed=5,
        )
        return QueryService(num_workers=0, fault_plan=plan, seed=5, **kwargs)

    @pytest.mark.parametrize("deadline_ms", [float("nan"), float("inf")])
    def test_non_finite_deadline_is_rejected(self, deadline_ms):
        query = trace_queries(20, 1)[0]
        with pytest.raises(ServiceError, match="finite positive"):
            ServiceRequest(query, "any", deadline_ms=deadline_ms)

    def test_error_policy_raises_typed_deadline_error(self):
        instance = build_instance(21)
        with self._delayed_service() as service:
            instance_id = service.register_instance(instance)
            query = trace_queries(21, 1)[0]
            with pytest.raises(DeadlineExceededError):
                service.submit(query, instance_id, deadline_ms=20.0)
            assert service.stats().deadline_hits == 1

    def test_error_policy_returns_typed_retryable_result(self):
        instance = build_instance(22)
        with self._delayed_service() as service:
            instance_id = service.register_instance(instance)
            query = trace_queries(22, 1)[0]
            (outcome,) = service.submit_many(
                [ServiceRequest(query, instance_id, deadline_ms=20.0)],
                on_error="return",
            )
            assert outcome.timed_out
            assert outcome.error_class == "DeadlineExceededError"
            assert outcome.retryable

    def test_partial_policy_keeps_the_healthy_answers(self):
        instance = build_instance(23)
        # The delay arms after 2 messages (register + first solve), so the
        # first deadline request answers in time and the second times out.
        plan = FaultPlan(
            faults=(Fault(kind="delay", seconds=0.08, after_messages=2),), seed=7
        )
        with QueryService(num_workers=0, fault_plan=plan) as service:
            instance_id = service.register_instance(instance)
            fast, slow = trace_queries(23, 2)
            results = service.submit_many(
                [
                    ServiceRequest(
                        fast, instance_id, deadline_ms=5000.0, on_deadline="partial"
                    ),
                    ServiceRequest(
                        slow, instance_id, deadline_ms=20.0, on_deadline="partial"
                    ),
                ]
            )  # on_error="raise": partial timeouts must not raise
            assert results[0].result is not None and not results[0].timed_out
            assert results[1].result is None and results[1].timed_out
            assert results[1].error_class == "DeadlineExceededError"

    def test_degrade_policy_meets_its_epsilon_contract(self):
        workload = intractable_workload(8, rng=31)
        with warnings.catch_warnings():
            # The ground truth is exponential by design; the fallback
            # warning is expected here, not actionable.
            warnings.simplefilter("ignore")
            exact = float(
                PHomSolver(allow_brute_force=True)
                .solve(workload.query, workload.instance, precision="exact")
                .probability
            )
        deadline_ms = 50.0
        epsilon = epsilon_for_budget(deadline_ms)
        assert epsilon == 0.25
        with self._delayed_service() as service:
            instance_id = service.register_instance(
                pickle.loads(pickle.dumps(workload.instance)), "hard"
            )
            outcome = service.submit(
                workload.query,
                instance_id,
                deadline_ms=deadline_ms,
                on_deadline="degrade",
                seed=1234,
            )
            stats = service.stats()
        assert outcome.degraded
        assert outcome.worker == -1  # answered by the coordinator's tier
        assert "degraded=True" in outcome.result.notes
        assert "original_method=auto" in outcome.result.notes
        assert f"epsilon={epsilon:g}" in outcome.result.notes
        estimate = float(outcome.result.probability)
        assert exact > 0
        assert abs(estimate - exact) / exact <= epsilon
        assert stats.deadline_hits == 1 and stats.degraded == 1

    def test_degraded_answers_follow_updates_through_folds(self, monkeypatch):
        # Degraded answers before and after five updates against a fold
        # threshold of two: the second runs on a twice-folded snapshot plus
        # one replayed update.  The two delays land on the two solves.
        monkeypatch.setattr(service_module, "JOURNAL_FOLD_AFTER", 2)
        workload = intractable_workload(8, rng=35)
        instance = pickle.loads(pickle.dumps(workload.instance))
        epsilon = epsilon_for_budget(50.0)
        delays = tuple(
            Fault(kind="delay", seconds=0.08, after_messages=n) for n in (1, 7)
        )
        estimates, oracles = [], []
        with QueryService(
            num_workers=0, fault_plan=FaultPlan(faults=delays, seed=5), seed=5
        ) as service:
            instance_id = service.register_instance(instance, "hard")
            for edges in ([], sorted(instance.uncertain_edges())[:5]):
                for edge in edges:
                    service.update_probability(instance_id, edge, "1/16")
                outcome = service.submit(
                    workload.query,
                    instance_id,
                    deadline_ms=50.0,
                    on_deadline="degrade",
                    seed=1234,
                )
                assert outcome.degraded and outcome.worker == -1
                estimates.append(float(outcome.result.probability))
                # update_probability mutated the registered object too.
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    exact = PHomSolver().solve(workload.query, instance).probability
                oracles.append(float(exact))
            assert len(service._journal[instance_id].updates) == 1
        assert abs(oracles[0] - oracles[1]) / oracles[1] > epsilon  # updates matter
        for estimate, exact in zip(estimates, oracles):
            assert abs(estimate - exact) / exact <= epsilon

    def test_degraded_answers_are_seed_reproducible(self):
        workload = intractable_workload(8, rng=33)
        estimates = []
        for _ in range(2):
            with self._delayed_service() as service:
                instance_id = service.register_instance(
                    pickle.loads(pickle.dumps(workload.instance)), "hard"
                )
                outcome = service.submit(
                    workload.query,
                    instance_id,
                    deadline_ms=40.0,
                    on_deadline="degrade",
                    seed=99,
                )
                estimates.append(float(outcome.result.probability))
        assert estimates[0] == estimates[1]

    def test_injected_solver_fault_is_a_per_request_error(self):
        plan = FaultPlan(faults=(Fault(kind="solver-error", after_messages=0),))
        instance = build_instance(24)
        with QueryService(num_workers=0, fault_plan=plan) as service:
            instance_id = service.register_instance(instance)
            query = trace_queries(24, 1)[0]
            (outcome,) = service.submit_many(
                [(query, instance_id)], on_error="return"
            )
            assert outcome.error is not None
            assert "injected solver fault" in outcome.error
            assert not outcome.retryable  # deterministic, not transient
            # The fault is consumed: the retried line then succeeds.
            again = service.submit(query, instance_id)
            assert again.result is not None


class TestPoolRecovery:
    """Multi-process chaos: kills, drops, corruption, retry exhaustion."""

    def _chaos_service(self, plan, **kwargs):
        kwargs.setdefault("num_workers", 2)
        kwargs.setdefault("seed", 19)
        kwargs.setdefault("backoff_base", 0.01)
        return QueryService(fault_plan=plan, **kwargs)

    def test_kill_and_recover_is_bit_identical(self):
        instance = build_instance(41)
        queries = trace_queries(41, 8)
        expected = exact_answers(queries, instance)
        plan = FaultPlan(faults=(Fault(kind="kill", after_messages=2),), seed=19)
        with self._chaos_service(plan) as service:
            instance_id = service.register_instance(instance)
            results = [service.submit(query, instance_id) for query in queries]
            stats = service.stats()
            log = list(service.restart_log)
        assert [str(r.result.probability) for r in results] == expected
        assert stats.restarts >= 1 and stats.retries >= 1
        assert any(r.attempts > 1 for r in results)
        assert log and log[0]["instances_replayed"] == 1
        assert "died" in log[0]["reason"]
        assert f"exit code {FAULT_KILL_EXIT_CODE}" in log[0]["reason"]

    def test_journal_replays_updates_after_a_kill(self):
        instance = build_instance(42)
        edges = sorted(instance.uncertain_edges())[:2]
        queries = trace_queries(42, 4)
        # The kill fires well after the updates are journaled, so the
        # respawned worker must reconstruct snapshot + updates exactly.
        plan = FaultPlan(faults=(Fault(kind="kill", after_messages=5),), seed=23)
        with self._chaos_service(plan) as service:
            instance_id = service.register_instance(instance)
            for edge in edges:
                service.update_probability(instance_id, edge, "1/3")
            results = [service.submit(query, instance_id) for query in queries]
            assert service.stats().restarts >= 1
        # `update_probability` mutated the caller's registered object too,
        # so it is the ground truth for the post-update probabilities.
        assert [str(r.result.probability) for r in results] == exact_answers(
            queries, instance
        )

    def test_drop_fault_times_out_then_recovers(self):
        instance = build_instance(43)
        queries = trace_queries(43, 3)
        expected = exact_answers(queries, instance)
        plan = FaultPlan(faults=(Fault(kind="drop", after_messages=1),), seed=29)
        with self._chaos_service(plan, timeout=0.4) as service:
            instance_id = service.register_instance(instance)
            results = [service.submit(query, instance_id) for query in queries]
            stats = service.stats()
            log = list(service.restart_log)
        assert [str(r.result.probability) for r in results] == expected
        assert stats.restarts >= 1
        assert any("unresponsive" in entry["reason"] for entry in log)

    def test_corrupt_reply_is_rejected_and_retried(self):
        instance = build_instance(44)
        queries = trace_queries(44, 3)
        expected = exact_answers(queries, instance)
        plan = FaultPlan(faults=(Fault(kind="corrupt", after_messages=1),), seed=31)
        with self._chaos_service(plan) as service:
            instance_id = service.register_instance(instance)
            results = [service.submit(query, instance_id) for query in queries]
            stats = service.stats()
            log = list(service.restart_log)
        assert [str(r.result.probability) for r in results] == expected
        assert stats.restarts >= 1
        assert any("malformed reply" in entry["reason"] for entry in log)

    def test_retry_exhaustion_is_a_typed_unavailable_error(self):
        instance = build_instance(45)
        # Every incarnation of every worker dies on its first message, so
        # the retry budget (1 retry) must exhaust.
        plan = FaultPlan(
            faults=(Fault(kind="kill", after_messages=0, repeat=True),), seed=37
        )
        with self._chaos_service(plan, max_retries=1) as service:
            with pytest.raises(ServiceUnavailableError) as excinfo:
                service.register_instance(instance)
            # stats() would itself be killed (repeat=True), so read the
            # coordinator-side restart log directly.
            assert len(service.restart_log) >= 2
        error = excinfo.value
        # The attempt provenance rides along in the notes.
        assert len(error.notes) == 2
        assert all("attempt" in note for note in error.notes)
        assert "exhausted its retry budget" in str(error)

    def test_close_is_idempotent_after_sigkill(self):
        instance = build_instance(46)
        service = QueryService(num_workers=2, seed=19)
        try:
            instance_id = service.register_instance(instance)
            query = trace_queries(46, 1)[0]
            assert service.submit(query, instance_id).result is not None
            victim = service._processes[0]
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=5.0)
            assert not victim.is_alive()
        finally:
            # close() must survive the dead worker, and stay idempotent.
            service.close()
            service.close()
        with pytest.raises(ServiceError):
            service.submit(trace_queries(46, 1)[0], instance)


class TestUnpicklablePayloads:
    """A payload that cannot be pickled fails at once, never as a hang.

    Nothing was sent, so waiting for a reply would end only in a worker
    timeout and restart for a plain call, or in a false deadline miss for a
    request with a budget.
    """

    def _service(self, num_workers):
        return QueryService(num_workers=num_workers, timeout=3.0, max_retries=0)

    def test_batched_op_fails_typed_and_alone(self):
        instances = [build_instance(seed) for seed in (47, 48)]
        queries = trace_queries(47, 4)
        with self._service(2) as service:
            ids = [service.register_instance(inst) for inst in instances]
            assert service._worker_for(ids[0]) != service._worker_for(ids[1])
            # The first two requests share an op on ids[0]'s owner; the
            # rest run on the other worker.
            batch = [
                ServiceRequest(unpicklable_query(), ids[0]),
                ServiceRequest(queries[0], ids[0]),
            ] + [ServiceRequest(query, ids[1]) for query in queries]
            results = service.submit_many(batch, on_error="return")
            with pytest.raises(ServiceError) as excinfo:
                service.submit_many(batch)
            stats = service.stats()
        assert type(excinfo.value) is ServiceError
        assert "cannot be pickled" in str(excinfo.value)
        assert [r.error_class for r in results[:2]] == ["ServiceError"] * 2
        assert not any(r.retryable for r in results[:2])
        assert [str(r.probability) for r in results[2:]] == exact_answers(
            queries, instances[1]
        )
        assert stats.restarts == 0 and stats.retries == 0

    def test_deadline_request_fails_typed_not_as_a_deadline_miss(self):
        instance = build_instance(49)
        with self._service(1) as service:
            instance_id = service.register_instance(instance)
            with pytest.raises(ServiceError) as excinfo:
                service.submit(unpicklable_query(), instance_id, deadline_ms=500)
            query = trace_queries(49, 1)[0]
            healthy = service.submit(query, instance_id, deadline_ms=5000)
            stats = service.stats()
        assert type(excinfo.value) is ServiceError
        assert "cannot be pickled" in str(excinfo.value)
        assert str(healthy.probability) == exact_answers([query], instance)[0]
        assert stats.restarts == 0 and stats.deadline_hits == 0

    def test_evaluate_many_fails_typed_without_a_restart(self):
        instance = build_instance(50)
        with self._service(1) as service:
            instance_id = service.register_instance(instance)
            with pytest.raises(ServiceError) as excinfo:
                service.evaluate_many(instance_id, unpicklable_query(), [None])
            query = trace_queries(50, 1)[0]
            (value,) = service.evaluate_many(instance_id, query, [None])
            stats = service.stats()
        assert type(excinfo.value) is ServiceError
        assert "cannot be pickled" in str(excinfo.value)
        assert str(value) == exact_answers([query], instance)[0]
        assert stats.restarts == 0


class TestFailureRecords:
    def test_schema_and_retryable_classification(self):
        record = failure_record("boom", "ServiceUnavailableError", 7, "r1")
        assert record == {
            "error": "boom",
            "error_class": "ServiceUnavailableError",
            "line": 7,
            "retryable": True,
            "id": "r1",
        }
        assert not failure_record("bad", "ServiceError", 2)["retryable"]
        assert "id" not in failure_record("bad", None, 2)
        for error_class in RETRYABLE_ERROR_CLASSES:
            assert failure_record("x", error_class, 1)["retryable"]
