"""Serving-layer benchmark: the parallel :class:`~repro.service.QueryService`
against single-process ``solve_many`` on Zipf-skewed query traffic.

The serving scenario: several probabilistic instances receive a stream of
query requests whose popularity follows a Zipf law (a few hot queries, a
long tail), arriving in micro-batches ("ticks") with occasional probability
updates in between.  The benchmark replays the *same* trace through

* ``solve_many`` — one persistent single-process solver, per tick grouping
  the requests by (instance, precision) and batch-solving each group (the
  PR-1/PR-2 serving story: plan cache + within-batch dedupe); and
* ``service`` — a :class:`~repro.service.QueryService` at several worker
  counts: instance-affinity sharding, cross-instance request coalescing
  before dispatch, and the coordinator's result cache that answers repeats
  across ticks without reaching a worker.

Correctness is asserted on every run: exact answers from every service
configuration must be *bit-identical* to the single-process baseline, and a
pinned-seed approx request on a ``#P``-hard pair must reproduce the same
estimate at every worker count (sampling is seeded per request, not per
worker).  The recorded speedup therefore measures architecture, not luck:
coalescing plus result caching removes duplicate arithmetic (the dominant
effect on skewed traffic at any core count), and sharding adds parallelism
on multi-core machines.

With ``--restart`` the suite additionally measures durable-state restart
(:mod:`repro.persist`): a cold replay populates a state directory, a warm
replay restarts from it and must recompile *zero* plans while answering
bit-identically, and a disk-fault matrix (torn-write, truncate-tail,
bit-flip, enospc, store-bit-flip) proves that every seeded corruption is
detected by checksum and recovered or quarantined — recorded as the
``restart_recovery`` section.

Results are written to ``BENCH_service.json``; run it with ``repro bench
service`` or ``python benchmarks/bench_service.py``.
"""

from __future__ import annotations

import math
import os
import pickle
import platform
import shutil
import statistics
import tempfile
import time
import warnings
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bench import BENCH_SEED, _rng, write_report
from repro.core.solver import PHomSolver
from repro.obs.metrics import histogram_quantile, merge_snapshots
from repro.obs.trace import NULL_TRACER, read_trace, set_tracer, validate_trace
from repro.graphs.classes import GraphClass
from repro.graphs.digraph import DiGraph
from repro.persist import PlanStore
from repro.probability.prob_graph import ProbabilisticGraph
from repro.service import (
    DiskFaultInjector,
    Fault,
    FaultPlan,
    QueryService,
    ServiceRequest,
    epsilon_for_budget,
)
from repro.workloads.generators import (
    attach_random_probabilities,
    intractable_workload,
    make_instance,
    query_traffic_trace,
    round_robin_interleave,
)
from repro import __version__

#: Worker counts replayed by the service side of the benchmark.
WORKER_COUNTS = (1, 2, 4)

#: Fraction of trace requests answered on the float backend (the rest exact).
FLOAT_REQUEST_SHARE = 0.2


@dataclass(frozen=True)
class TraceRequest:
    """One replayable request: a query against an instance at a precision."""

    instance_id: str
    query: DiGraph
    precision: str


@dataclass(frozen=True)
class ServiceTrace:
    """The full benchmark workload: instances, ticks and update points."""

    instances: Dict[str, ProbabilisticGraph]
    ticks: List[List[TraceRequest]]
    #: ``tick index -> (instance_id, edge endpoints, probability string)``
    updates: Dict[int, Tuple[str, Tuple, str]]
    distinct: int

    def num_requests(self) -> int:
        return sum(len(tick) for tick in self.ticks)


def build_service_trace(
    num_instances: int,
    pool_size: int,
    requests_per_instance: int,
    tick_size: int,
    skew: float,
    size_factor: float = 1.0,
) -> ServiceTrace:
    """A mixed-class, Zipf-skewed serving trace with mid-stream updates.

    Instances rotate over the three tractable shapes (labeled ⊔DWT with 1WP
    queries, labeled ⊔2WP with connected 2WP queries, unlabeled polytree
    with DWT queries), so the trace exercises every compiled-plan kind and
    the affinity sharding distributes real work.  The per-shape instance
    sizes put every shape's exact re-evaluation cost in the same
    serving-relevant band (milliseconds); ``size_factor`` scales them for
    smoke runs.
    """
    shapes = (
        (GraphClass.UNION_DOWNWARD_TREE, True, GraphClass.ONE_WAY_PATH, 3, 140),
        (GraphClass.UNION_TWO_WAY_PATH, True, GraphClass.TWO_WAY_PATH, 3, 80),
        (GraphClass.POLYTREE, False, GraphClass.DOWNWARD_TREE, 4, 80),
    )
    instances: Dict[str, ProbabilisticGraph] = {}
    streams: List[List[TraceRequest]] = []
    distinct = 0
    for index in range(num_instances):
        instance_class, labeled, query_class, query_size, instance_size = shapes[
            index % len(shapes)
        ]
        rng = _rng(100 + index)
        graph = make_instance(
            instance_class, labeled, max(12, int(instance_size * size_factor)), rng
        )
        instance = attach_random_probabilities(graph, rng, certain_fraction=0.2)
        instance_id = f"instance-{index}"
        instances[instance_id] = instance
        trace = query_traffic_trace(
            requests_per_instance,
            pool_size,
            skew=skew,
            query_class=query_class,
            labeled=labeled,
            query_size=query_size,
            rng=rng,
        )
        distinct += len(set(trace.requests))
        stream = []
        for position, query in enumerate(trace.queries()):
            precision = (
                "float"
                if (position % int(1 / FLOAT_REQUEST_SHARE)) == 0
                else "exact"
            )
            stream.append(TraceRequest(instance_id, query, precision))
        streams.append(stream)

    # Interleave the per-instance streams round-robin into arrival order,
    # then chop into ticks.
    arrival = round_robin_interleave(streams)
    ticks = [
        arrival[start : start + tick_size]
        for start in range(0, len(arrival), tick_size)
    ]

    # Schedule one probability update at each third of the trace, rotating
    # over the instances.
    updates: Dict[int, Tuple[str, Tuple, str]] = {}
    update_rng = _rng(999)
    for mark, instance_id in zip(
        (len(ticks) // 3, (2 * len(ticks)) // 3), sorted(instances)
    ):
        uncertain = instances[instance_id].uncertain_edges()
        if not uncertain or mark == 0:
            continue
        edge = uncertain[update_rng.randrange(len(uncertain))]
        updates[mark] = (
            instance_id,
            (edge.source, edge.target),
            f"{update_rng.randint(1, 7)}/8",
        )
    return ServiceTrace(
        instances=instances, ticks=ticks, updates=updates, distinct=distinct
    )


def _fresh_instances(trace: ServiceTrace) -> Dict[str, ProbabilisticGraph]:
    """Every replay starts from an identical copy of the instances."""
    return pickle.loads(pickle.dumps(trace.instances))


def replay_solve_many(trace: ServiceTrace) -> Tuple[float, List]:
    """The single-process baseline: one persistent solver, per-tick batches."""
    instances = _fresh_instances(trace)
    solver = PHomSolver()
    answers: List = []
    start = time.perf_counter()
    for tick_index, tick in enumerate(trace.ticks):
        update = trace.updates.get(tick_index)
        if update is not None:
            instance_id, endpoints, probability = update
            instances[instance_id].set_probability(endpoints, probability)
        groups: Dict[Tuple[str, str], List[Tuple[int, DiGraph]]] = {}
        for offset, request in enumerate(tick):
            groups.setdefault((request.instance_id, request.precision), []).append(
                (offset, request.query)
            )
        tick_answers: List = [None] * len(tick)
        for (instance_id, precision), members in groups.items():
            results = solver.solve_many(
                [query for _, query in members],
                instances[instance_id],
                precision=precision,
            )
            for (offset, _), result in zip(members, results):
                tick_answers[offset] = result.probability
        answers.extend(tick_answers)
    return time.perf_counter() - start, answers


def replay_service(
    trace: ServiceTrace,
    num_workers: int,
    fault_plan: Optional[FaultPlan] = None,
    timeout: Optional[float] = None,
    state_dir: Optional[str] = None,
    wal_fsync: str = "batch",
    trace_sample_rate: float = 0.0,
    trace_path: Optional[str] = None,
    collect_metrics: bool = False,
) -> Tuple[float, List, Dict]:
    """Replay the trace through a :class:`QueryService` at one worker count.

    The timed region covers the serving work only — worker start-up and
    instance registration are one-time deployment costs, exactly as plan
    compilation is excluded nowhere (both sides compile inside the timed
    replay, starting cold).

    With a ``fault_plan`` the replay doubles as the chaos scenario: the
    returned stats gain the supervision counters and the restart log, so
    the caller can assert zero lost requests and measure recovery cost.
    """
    instances = _fresh_instances(trace)
    answers: List = []
    tick_latencies_ms: List[float] = []
    kwargs: Dict[str, object] = {}
    if fault_plan is not None:
        kwargs["fault_plan"] = fault_plan
    if timeout is not None:
        kwargs["timeout"] = timeout
    if state_dir is not None:
        kwargs["state_dir"] = state_dir
        kwargs["wal_fsync"] = wal_fsync
    if trace_sample_rate > 0.0:
        kwargs["trace_sample_rate"] = trace_sample_rate
        kwargs["trace_path"] = trace_path
    with QueryService(num_workers=num_workers, **kwargs) as service:
        for instance_id in sorted(instances):
            service.register_instance(instances[instance_id], instance_id)
        start = time.perf_counter()
        for tick_index, tick in enumerate(trace.ticks):
            update = trace.updates.get(tick_index)
            if update is not None:
                instance_id, endpoints, probability = update
                service.update_probability(instance_id, endpoints, probability)
            tick_start = time.perf_counter()
            results = service.submit_many(
                [
                    ServiceRequest(
                        query=request.query,
                        instance_id=request.instance_id,
                        precision=request.precision,
                    )
                    for request in tick
                ]
            )
            tick_latencies_ms.append((time.perf_counter() - tick_start) * 1000.0)
            answers.extend(result.probability for result in results)
        elapsed = time.perf_counter() - start
        stats = service.stats()
        restart_log = [dict(entry) for entry in service.restart_log]
        persistence = service.persistence_stats()
        metrics = service.metrics_snapshot() if collect_metrics else None
    extra = {"metrics_snapshot": metrics} if collect_metrics else {}
    return elapsed, answers, {
        **extra,
        "dedupe_hit_rate": stats.dedupe_hit_rate(),
        "coalesced": stats.coalesced,
        "dispatched": stats.dispatched,
        "result_cache_hits": stats.result_cache_hits(),
        # Keyed by worker index (JSON object keys are strings), so an idle
        # shard is attributable to its worker instead of being an anonymous
        # zeroed entry in a list.
        "plan_cache": {
            str(worker["worker"]): worker.get("plan_cache")
            for worker in stats.workers
        },
        "instances_by_worker": {
            str(worker["worker"]): list(worker.get("instances", ()))
            for worker in stats.workers
        },
        "restarts": stats.restarts,
        "retries": stats.retries,
        "restart_log": restart_log,
        "persistence": persistence,
        # Per-tick submit_many wall times — the latency samples behind the
        # p50/p99 percentiles of the throughput_vs_workers curve (popped
        # before the stats dict is serialized into a mode section).
        "tick_latencies_ms": tick_latencies_ms,
    }


def check_approx_reproducibility(
    worker_counts: Sequence[int], num_uncertain_edges: int = 10
) -> Dict[str, object]:
    """A pinned-seed approx request must not depend on the worker count."""
    workload = intractable_workload(num_uncertain_edges, rng=_rng(7))
    estimates: List[float] = []
    for workers in worker_counts:
        with QueryService(num_workers=workers) as service:
            instance_id = service.register_instance(
                pickle.loads(pickle.dumps(workload.instance)), "hard"
            )
            first = service.submit(
                workload.query, instance_id,
                precision="approx", epsilon=0.1, delta=0.05, seed=BENCH_SEED,
            )
            again = service.submit(
                workload.query, instance_id,
                precision="approx", epsilon=0.1, delta=0.05, seed=BENCH_SEED,
            )
        assert float(first) == float(again), (
            "pinned-seed approx estimate changed between submissions"
        )
        estimates.append(float(first))
    assert len(set(estimates)) == 1, (
        f"pinned-seed approx estimates differ across worker counts: {estimates}"
    )
    return {
        "estimate": estimates[0],
        "seed": BENCH_SEED,
        "worker_counts": list(worker_counts),
        "reproducible": True,
    }


def _percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]) of a non-empty sample set."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def build_balanced_trace(smoke: bool, max_workers: int) -> ServiceTrace:
    """The scaling trace: enough instances that every worker owns real work.

    Still Zipf-skewed per instance (the serving traffic model), but with at
    least ``2 * max_workers`` instances so least-loaded assignment gives
    every worker a multi-instance shard — the trace on which added workers
    *should* add throughput, making flat scaling attributable to the
    service rather than to a workload with nothing to parallelise.
    """
    num_instances = max(2 * max_workers, 8)
    if smoke:
        return build_service_trace(
            num_instances, 10, 40, 16, 1.1, size_factor=0.75
        )
    return build_service_trace(num_instances, 16, 80, 16, 1.1)


def measure_throughput_vs_workers(
    smoke: bool, worker_counts: Sequence[int]
) -> Dict[str, object]:
    """Replay the balanced trace at every worker count; record the curve.

    Each worker count reports throughput plus p50/p99 latency percentiles
    over the per-tick ``submit_many`` wall times (the latency a batching
    client observes under sustained load) and the instance-to-worker
    assignment — asserting that no worker is left idle while instances
    outnumber workers, and that exact answers stay bit-identical to the
    1-worker run at every count.

    ``scaling_gate_enforceable`` records whether this machine can honestly
    show parallel speedup: with fewer CPU cores than the largest worker
    count, added workers time-share the same cores and the throughput
    ratio measures scheduler overhead, not scaling — the CI gate only
    enforces ``--min-worker-scaling`` where ``cpus >= max_workers``.
    """
    trace = build_balanced_trace(smoke, max(worker_counts))
    cpus = os.cpu_count() or 1
    per_count: Dict[str, Dict[str, object]] = {}
    reference_answers: Optional[List] = None
    base_throughput: Optional[float] = None
    num_requests = trace.num_requests()
    for workers in sorted(worker_counts):
        elapsed, answers, stats = replay_service(trace, workers)
        if reference_answers is None:
            reference_answers = answers
        elif answers != reference_answers:
            raise AssertionError(
                f"balanced-trace answers at {workers} worker(s) diverged from "
                "the 1-worker run"
            )
        latencies = stats.pop("tick_latencies_ms")
        assignment = stats["instances_by_worker"]
        idle = [
            index
            for index in range(max(1, workers))
            if not assignment.get(str(index))
        ]
        if idle and len(trace.instances) >= max(1, workers):
            raise AssertionError(
                f"worker(s) {idle} own no instances at {workers} worker(s) "
                f"with {len(trace.instances)} instances registered"
            )
        throughput = num_requests / elapsed
        if base_throughput is None:
            base_throughput = throughput
        per_count[str(workers)] = {
            "seconds": round(elapsed, 4),
            "requests_per_sec": round(throughput, 1),
            "scaling_vs_1_worker": round(throughput / base_throughput, 2),
            "p50_ms": round(_percentile(latencies, 50), 2),
            "p99_ms": round(_percentile(latencies, 99), 2),
            "dedupe_hit_rate": round(stats["dedupe_hit_rate"], 4),
            "instances_by_worker": assignment,
            "no_idle_workers": not idle,
        }
    max_workers = max(worker_counts)
    return {
        "trace": {
            "num_instances": len(trace.instances),
            "requests": num_requests,
            "zipf_skew": 1.1,
        },
        "cpus": cpus,
        "scaling_gate_enforceable": cpus >= max_workers,
        "workers": per_count,
        "scaling_at_max_workers": per_count[str(max_workers)][
            "scaling_vs_1_worker"
        ],
        "exact_bit_identical": True,
    }


def run_chaos_scenario(
    trace: ServiceTrace,
    num_workers: int,
    fault_free_seconds: float,
    baseline_answers: List,
) -> Dict[str, object]:
    """Replay the trace while a :class:`FaultPlan` kills one worker mid-trace.

    The contract asserted here is the tentpole of the fault-tolerance layer:
    the kill loses *zero* requests, exact answers stay bit-identical to the
    fault-free baseline (journal replay reconstructed the shard exactly),
    and the recovery cost — restart latency, retried dispatches, wall-clock
    overhead versus the fault-free run — is recorded for regression gating.
    """
    # Kill the worker that owns the first instance, a few batches in:
    # replay_service registers instances in sorted order, and least-loaded
    # assignment gives the first registration to worker 0.
    target = 0
    fault = Fault(kind="kill", worker=target, after_messages=8)
    plan = FaultPlan(faults=(fault,), seed=BENCH_SEED)
    elapsed, answers, stats = replay_service(
        trace, num_workers, fault_plan=plan, timeout=30.0
    )
    lost = len(baseline_answers) - len(answers)
    bit_identical = answers == baseline_answers
    if lost != 0:
        raise AssertionError(f"chaos replay lost {lost} request(s)")
    if not bit_identical:
        raise AssertionError(
            "chaos replay answers are not bit-identical to the fault-free run"
        )
    if stats["restarts"] < 1:
        raise AssertionError("the injected kill did not trigger a worker restart")
    restart_log = stats["restart_log"]
    recovery_ms = max(entry["duration_s"] for entry in restart_log) * 1000.0
    return {
        "workers": num_workers,
        "fault": {
            "kind": fault.kind,
            "worker": fault.worker,
            "after_messages": fault.after_messages,
        },
        "restarts": stats["restarts"],
        "retries": stats["retries"],
        "recovery_ms": round(recovery_ms, 2),
        "instances_replayed": sum(e["instances_replayed"] for e in restart_log),
        "lost_requests": lost,
        "exact_bit_identical": bit_identical,
        "chaos_seconds": round(elapsed, 4),
        "fault_free_seconds": round(fault_free_seconds, 4),
        "retry_overhead_ratio": round(elapsed / fault_free_seconds, 3),
    }


def _plan_cache_totals(stats: Dict) -> Dict[str, int]:
    """Sum the per-worker plan-cache counters of a replay's stats."""
    totals = {"compiles": 0, "loads": 0, "hits": 0}
    for cache in stats.get("plan_cache", {}).values():
        if not cache:
            continue
        for counter in totals:
            totals[counter] += cache.get(counter, 0)
    return totals


def _disk_fault_workload(offset: int):
    """A small deterministic workload for one disk-fault case.

    Returns ``(instance, queries, updates)``: a labeled ⊔DWT instance,
    three 1WP queries against it, and four single-edge updates.
    """
    rng = _rng(500 + offset)
    graph = make_instance(GraphClass.UNION_DOWNWARD_TREE, True, 24, rng)
    instance = attach_random_probabilities(graph, rng, certain_fraction=0.2)
    traffic = query_traffic_trace(
        6, 3, skew=1.0,
        query_class=GraphClass.ONE_WAY_PATH, labeled=True, query_size=3, rng=rng,
    )
    queries = list(traffic.queries())[:3]
    uncertain = instance.uncertain_edges()
    updates = [
        ((edge.source, edge.target), f"{index + 1}/8")
        for index, edge in enumerate(uncertain[:4])
    ]
    if len(updates) < 2:  # pragma: no cover - workload generator guarantee
        raise AssertionError("disk-fault workload needs at least 2 uncertain edges")
    return instance, queries, updates


def _run_wal_fault_case(kind: str, offset: int) -> Dict[str, object]:
    """Prove recovery under one injected write-ahead-log fault kind.

    Phase 1 registers an instance and applies updates with the fault armed
    to fire on the *last* update's log append (solving runs afterwards, so
    plan-store writes cannot shift the shared write counter).  The damaged
    or rejected append means exactly that last update is not durable, so
    the expected post-restart state is known in closed form.  Phase 2
    restarts from the state directory and asserts: the corruption was
    detected (checksum/framing for torn-write / truncate-tail / bit-flip;
    the counted ``OSError`` for enospc), the instance was restored, and
    exact answers are bit-identical to an uninterrupted solver on the
    recovered state.
    """
    instance, queries, updates = _disk_fault_workload(offset)
    state_dir = tempfile.mkdtemp(prefix=f"repro-disk-{kind}-")
    try:
        fault = Fault(kind=kind, after_messages=len(updates))
        plan = FaultPlan(faults=(fault,), seed=BENCH_SEED)
        with QueryService(
            num_workers=0, state_dir=state_dir, wal_fsync="always", fault_plan=plan
        ) as service:
            service.register_instance(
                pickle.loads(pickle.dumps(instance)), "disk-case"
            )
            for endpoints, probability in updates:
                service.update_probability("disk-case", endpoints, probability)
            wal_errors = service.wal_errors
            # Keep serving under the fault: answers must reflect the full
            # in-memory state even when durability was just lost.
            live = [
                service.submit(query, "disk-case").result.probability
                for query in queries
            ]
        # The last update was the damaged/rejected append, so the durable
        # state is everything before it.
        expected_instance = pickle.loads(pickle.dumps(instance))
        for endpoints, probability in updates[:-1]:
            expected_instance.set_probability(endpoints, probability)
        solver = PHomSolver()
        expected = [
            solver.solve(query, expected_instance).probability for query in queries
        ]
        with QueryService(num_workers=0, state_dir=state_dir) as restarted:
            recovery = restarted.recovery
            wal_report = recovery["wal"]
            recovered = [
                restarted.submit(query, "disk-case").result.probability
                for query in queries
            ]
        if kind == "enospc":
            detected = wal_errors == 1
        else:
            detected = wal_report.corruption_detected
        bit_identical = recovered == expected
        full_state = pickle.loads(pickle.dumps(instance))
        for endpoints, probability in updates:
            full_state.set_probability(endpoints, probability)
        live_expected = [
            solver.solve(query, full_state).probability for query in queries
        ]
        return {
            "kind": kind,
            "detected": bool(detected),
            "recovered": bool(
                recovery["instances_restored"] == 1 and bit_identical
            ),
            "bit_identical": bool(bit_identical),
            "served_through_fault": live == live_expected,
            "lost_updates": 1,
            "wal_errors": wal_errors,
            "wal": wal_report.as_dict(),
        }
    finally:
        shutil.rmtree(state_dir, ignore_errors=True)


def _run_store_fault_case() -> Dict[str, object]:
    """Prove recovery when a stored plan entry is silently corrupted.

    Phase 1 serves (and therefore stores) the workload's plans cleanly.
    One entry is then rewritten through the fault-injected write path with
    a seeded bit flip — silent media corruption of a plan at rest.  The
    detection contract is two-fold: ``PlanStore.verify`` (the ``repro
    store verify`` gate) must report the entry, and a restarted service
    must quarantine it during warm-up instead of unpickling garbage — then
    serve bit-identical answers by recompiling just that plan.
    """
    from repro.persist import plan_store_key

    instance, queries, _ = _disk_fault_workload(9)
    state_dir = tempfile.mkdtemp(prefix="repro-disk-store-")
    try:
        with QueryService(num_workers=0, state_dir=state_dir) as service:
            service.register_instance(
                pickle.loads(pickle.dumps(instance)), "disk-case"
            )
            expected = [
                service.submit(query, "disk-case").result.probability
                for query in queries
            ]
        plans_dir = os.path.join(state_dir, "plans")
        victim = next(iter(PlanStore(plans_dir).entries()))
        clean = PlanStore(plans_dir)
        victim_path = clean.entry_path(
            plan_store_key(
                victim["query_key"], victim["instance_digest"], victim["namespace"]
            )
        )
        os.remove(victim_path)
        injected = PlanStore(
            plans_dir,
            fault_injector=DiskFaultInjector(
                FaultPlan(faults=(Fault(kind="bit-flip"),), seed=BENCH_SEED)
            ),
        )
        injected.put(
            victim["query_key"],
            victim["instance_digest"],
            victim["namespace"],
            victim["plan"],
        )
        verify_report = PlanStore(plans_dir).verify()
        with QueryService(num_workers=0, state_dir=state_dir) as restarted:
            recovered = [
                restarted.submit(query, "disk-case").result.probability
                for query in queries
            ]
            store_stats = restarted.stats().workers[0]["plan_cache"]["store"]
        bit_identical = recovered == expected
        return {
            "kind": "store-bit-flip",
            "detected": bool(verify_report["corrupt"] == 1),
            "recovered": bool(store_stats["corrupt"] >= 1 and bit_identical),
            "bit_identical": bool(bit_identical),
            "quarantined_entries": store_stats["corrupt"],
            "verify": {
                "entries": verify_report["entries"],
                "corrupt": verify_report["corrupt"],
            },
        }
    finally:
        shutil.rmtree(state_dir, ignore_errors=True)


def run_restart_scenario(
    trace: ServiceTrace, baseline_answers: List
) -> Dict[str, object]:
    """Cold-vs-warm restart through one state directory, plus disk faults.

    The cold replay starts with an empty ``state_dir`` and compiles the hot
    set from scratch; the warm replay restarts from the directory the cold
    run left behind and must *recompile zero plans* — every plan loads from
    the store — while answering bit-identically to the single-process
    baseline.  The disk-fault matrix then proves the recovery contract
    under every seeded corruption kind.
    """
    state_dir = tempfile.mkdtemp(prefix="repro-restart-")
    try:
        cold_seconds, cold_answers, cold_stats = replay_service(
            trace, 0, state_dir=state_dir
        )
        if cold_answers != baseline_answers:
            raise AssertionError(
                "cold durable replay answers are not bit-identical to the baseline"
            )
        warm_seconds, warm_answers, warm_stats = replay_service(
            trace, 0, state_dir=state_dir
        )
        if warm_answers != baseline_answers:
            raise AssertionError(
                "warm restart answers are not bit-identical to the baseline"
            )
        cold_totals = _plan_cache_totals(cold_stats)
        warm_totals = _plan_cache_totals(warm_stats)
        if warm_totals["compiles"] != 0:
            raise AssertionError(
                f"warm restart recompiled {warm_totals['compiles']} plan(s); "
                "the whole hot set must load from the store"
            )
        if warm_totals["loads"] == 0:
            raise AssertionError("warm restart loaded no plans from the store")
        warm_recovery = (warm_stats.get("persistence") or {}).get("recovery") or {}
        disk_faults = [
            _run_wal_fault_case(kind, offset)
            for offset, kind in enumerate(
                ("torn-write", "truncate-tail", "bit-flip", "enospc")
            )
        ]
        disk_faults.append(_run_store_fault_case())
        return {
            "cold_seconds": round(cold_seconds, 4),
            "warm_seconds": round(warm_seconds, 4),
            "warm_speedup": round(cold_seconds / warm_seconds, 2),
            "hot_set_plans": cold_totals["compiles"],
            "cold_compiles": cold_totals["compiles"],
            "warm_compiles": warm_totals["compiles"],
            "warm_loads": warm_totals["loads"],
            "warm_bit_identical": True,
            "instances_restored": warm_recovery.get("instances_restored", 0),
            "plans_warmed": warm_recovery.get("plans_warmed", 0),
            "disk_faults": disk_faults,
            "all_faults_detected": all(case["detected"] for case in disk_faults),
            "all_faults_recovered": all(case["recovered"] for case in disk_faults),
        }
    finally:
        shutil.rmtree(state_dir, ignore_errors=True)


def check_degraded_accuracy(
    deadline_ms: float = 50.0, num_uncertain_edges: int = 10
) -> Dict[str, object]:
    """A deadline-degraded answer must satisfy its budget-derived (ε, δ) bound.

    An injected delay makes a ``#P``-hard request miss its deadline; under
    ``on_deadline="degrade"`` the service re-answers it through the
    Karp–Luby tier with ``epsilon_for_budget(deadline_ms)``.  The pinned
    seed makes the estimate reproducible, and the relative error against
    the brute-force exact probability is recorded (and asserted within ε).
    """
    workload = intractable_workload(num_uncertain_edges, rng=_rng(7))
    with warnings.catch_warnings():
        # The reference value is exponential by design; the fallback
        # warning is expected here, not actionable.
        warnings.simplefilter("ignore")
        exact = float(
            PHomSolver(allow_brute_force=True).solve(
                workload.query, workload.instance, precision="exact"
            ).probability
        )
    epsilon = epsilon_for_budget(deadline_ms)
    plan = FaultPlan(
        faults=(Fault(kind="delay", seconds=0.15, after_messages=1),),
        seed=BENCH_SEED,
    )
    with QueryService(num_workers=0, seed=BENCH_SEED, fault_plan=plan) as service:
        instance_id = service.register_instance(
            pickle.loads(pickle.dumps(workload.instance)), "hard"
        )
        outcome = service.submit(
            workload.query,
            instance_id,
            deadline_ms=deadline_ms,
            on_deadline="degrade",
            seed=BENCH_SEED,
        )
        degraded_count = service.stats().degraded
    if not outcome.degraded:
        raise AssertionError("the delayed request was not degraded")
    estimate = float(outcome)
    relative_error = abs(estimate - exact) / exact if exact else abs(estimate)
    if relative_error > epsilon:
        raise AssertionError(
            f"degraded estimate {estimate:.6f} misses exact {exact:.6f} by "
            f"{relative_error:.3f} > epsilon {epsilon}"
        )
    return {
        "deadline_ms": deadline_ms,
        "epsilon": epsilon,
        "seed": BENCH_SEED,
        "exact": exact,
        "estimate": estimate,
        "relative_error": round(relative_error, 6),
        "within_epsilon": True,
        "degraded_answers": degraded_count,
    }


def _route_mix_snapshot() -> Dict[str, object]:
    """One inline service exercising every dispatch route at least once.

    The main trace is exact-only, so the d-DNNF / Karp–Luby / tape-batch
    rows of the per-route latency histogram come from this dedicated mix:
    polytree queries through the automaton method, a pinned-seed approx
    request on a ``#P``-hard pair, and one ``evaluate_many`` tape batch.
    Returns the service's pool-wide metrics snapshot.
    """
    rng = _rng(77)
    polytree = attach_random_probabilities(
        make_instance(GraphClass.POLYTREE, False, 24, rng), rng,
        certain_fraction=0.2,
    )
    tree_queries = list(
        query_traffic_trace(
            4, 2, skew=1.0, query_class=GraphClass.DOWNWARD_TREE,
            labeled=False, query_size=4, rng=rng,
        ).queries()
    )
    hard = intractable_workload(8, rng=_rng(7))
    with QueryService(num_workers=0, seed=BENCH_SEED) as service:
        service.register_instance(polytree, "mix-polytree")
        service.register_instance(
            pickle.loads(pickle.dumps(hard.instance)), "mix-hard"
        )
        for query in tree_queries:
            service.submit(query, "mix-polytree")
            service.submit(query, "mix-polytree", method="polytree-automaton")
        service.submit(
            hard.query, "mix-hard",
            precision="approx", epsilon=0.1, delta=0.05, seed=BENCH_SEED,
        )
        service.evaluate_many(
            "mix-polytree", tree_queries[0], [None, {}], precision="float"
        )
        return service.metrics_snapshot()


def _route_latency_section(snapshot: Dict[str, object]) -> Dict[str, object]:
    """The per-route latency histogram of a metrics snapshot, summarised.

    Reads the ``repro_request_duration_ms`` family and reports, per route
    label, the raw bucket counts plus count / mean / p50 / p99 — the
    ``route_latency_ms`` section of ``BENCH_service.json``.
    """
    family = (snapshot.get("histograms") or {}).get("repro_request_duration_ms")
    if not family:
        return {"buckets_ms": [], "routes": {}}
    bounds = list(family["buckets"])
    routes: Dict[str, Dict[str, object]] = {}
    for labelvalues, data in family["samples"]:
        count = data["count"]
        if not count:
            continue
        route = labelvalues[0] if labelvalues else ""
        routes[route] = {
            "count": count,
            "mean_ms": round(data["sum"] / count, 3),
            "p50_ms": round(histogram_quantile(bounds, data["counts"], 0.5), 3),
            "p99_ms": round(histogram_quantile(bounds, data["counts"], 0.99), 3),
            "bucket_counts": list(data["counts"]),
        }
    return {"buckets_ms": bounds, "routes": routes}


#: Rounds of the tracing-overhead measurement (each runs both arms once),
#: the coverage of the interval around its median ratio, and the largest
#: half-width that interval may have for the gate to read the median.
OBS_ROUNDS = 30
OBS_CONFIDENCE = 0.95
OBS_MAX_HALF_WIDTH = 0.05


def _median_interval_rank(n: int, confidence: float) -> int:
    """The rank ``k`` of the distribution-free interval for a median.

    ``[x_(k), x_(n-k+1)]`` of ``n`` sorted samples covers the median with
    probability ``1 - 2 P(Binomial(n, 1/2) < k)``; ``k`` is the largest
    rank that keeps that at least ``confidence`` (1 when none does).
    """
    k, below = 1, 1  # below = sum of C(n, i) for i < k + 1
    while k < (n + 1) // 2:
        below += math.comb(n, k)
        if 1.0 - 2.0 * below / 2.0 ** n < confidence:
            break
        k += 1
    return k


def overhead_interval(
    untraced_cpu: Sequence[float], traced_cpu: Sequence[float]
) -> Dict[str, float]:
    """Tracing overhead from paired per-round CPU times of the two arms.

    Round ``i`` gives the ratio ``untraced_cpu[i] / traced_cpu[i]`` — traced
    throughput over untraced, 1.0 meaning tracing is free.  The estimate is
    the median ratio, with a distribution-free :data:`OBS_CONFIDENCE`
    interval for the median (order statistics of the ratios), so one
    stalled round widens nothing.  Process CPU time ignores the time other
    tenants hold the CPU, and pairing the arms within a round cancels slow
    drift.
    """
    if len(untraced_cpu) != len(traced_cpu) or len(untraced_cpu) < 2:
        raise ValueError("need at least two rounds of paired CPU times")
    ratios = sorted(u / t for u, t in zip(untraced_cpu, traced_cpu))
    n = len(ratios)
    k = _median_interval_rank(n, OBS_CONFIDENCE)
    low, high = ratios[k - 1], ratios[n - k]
    middle = n // 2
    median = ratios[middle] if n % 2 else (ratios[middle - 1] + ratios[middle]) / 2.0
    return {
        "rounds": n,
        "overhead_ratio": median,
        "ratio_low": low,
        "ratio_high": high,
        "half_width": (high - low) / 2.0,
        "confidence": OBS_CONFIDENCE,
    }


def check_obs_overhead(overhead: Dict[str, float], min_ratio: float) -> None:
    """Raise AssertionError when tracing costs more than ``min_ratio`` allows.

    ``overhead`` holds the fields of :func:`overhead_interval` (the
    report's ``observability.overhead`` section does).  The gate fails
    when the interval's half-width reaches :data:`OBS_MAX_HALF_WIDTH` (too
    noisy a measurement to judge either way), and otherwise when the
    median ratio lies below ``min_ratio`` (tracing keeps less than that
    share of untraced throughput).
    """
    half_width = overhead["half_width"]
    if half_width >= OBS_MAX_HALF_WIDTH:
        raise AssertionError(
            f"the tracing-overhead interval is too wide to judge: half-width "
            f"{half_width:.4f} over {overhead['rounds']} rounds, at most "
            f"{OBS_MAX_HALF_WIDTH} allowed"
        )
    if overhead["overhead_ratio"] < min_ratio:
        raise AssertionError(
            f"tracing at sample rate 1.0 kept only {overhead['overhead_ratio']:.4f}x "
            f"of the untraced throughput ({overhead['confidence']:.0%} interval "
            f"{overhead['ratio_low']:.4f}-{overhead['ratio_high']:.4f}), below "
            f"the required {min_ratio}x"
        )


def replay_paired(
    trace: ServiceTrace, trace_path: str, round_index: int = 0
) -> Tuple[Tuple[float, float], Tuple[List, List], Dict]:
    """One round of the tracing-overhead measurement.

    Replays the trace through two inline services side by side, one
    untraced and one at trace sample rate 1.0, tick by tick: each tick runs
    on both, the first arm alternating from tick to tick (and from round to
    round), so both arms see the same machine at the same moment.  The
    process-wide tracer of the traced service is installed only while its
    own ticks run.  Returns each arm's process CPU time over its ticks
    (request construction, updates and ``submit_many``), each arm's
    answers, and the traced service's metrics snapshot.
    """
    cpu = [0.0, 0.0]
    answers: Tuple[List, List] = ([], [])
    services = (
        QueryService(num_workers=0),
        QueryService(num_workers=0, trace_sample_rate=1.0, trace_path=trace_path),
    )
    # The traced service installed its tracer at construction: keep it
    # aside and hand it back only for the traced arm's work.
    tracers = (NULL_TRACER, set_tracer(NULL_TRACER))
    try:
        for arm, service in enumerate(services):
            set_tracer(tracers[arm])
            instances = _fresh_instances(trace)
            for instance_id in sorted(instances):
                service.register_instance(instances[instance_id], instance_id)
        for tick_index, tick in enumerate(trace.ticks):
            update = trace.updates.get(tick_index)
            first = (round_index + tick_index) % 2
            for arm in (first, 1 - first):
                set_tracer(tracers[arm])
                start = time.process_time()
                if update is not None:
                    services[arm].update_probability(*update)
                results = services[arm].submit_many(
                    [
                        ServiceRequest(
                            query=request.query,
                            instance_id=request.instance_id,
                            precision=request.precision,
                        )
                        for request in tick
                    ]
                )
                cpu[arm] += time.process_time() - start
                answers[arm].extend(result.probability for result in results)
        snapshot = services[1].metrics_snapshot()
    finally:
        set_tracer(tracers[1])
        services[1].close()  # restores the tracer it replaced
        services[0].close()
    return (cpu[0], cpu[1]), answers, snapshot


def run_obs_scenario(
    trace: ServiceTrace, trace_out: Optional[str] = None
) -> Dict[str, object]:
    """Measure full-rate tracing overhead and collect per-route latency.

    Runs :data:`OBS_ROUNDS` rounds of :func:`replay_paired`: the main
    trace through an untraced and a traced inline service, interleaved
    tick by tick with the first arm alternating, each arm timed in this
    process's CPU time.
    :func:`overhead_interval` turns the per-round ratios into the recorded
    ``overhead_ratio`` (the median) and its interval, which
    ``--min-obs-overhead-ratio`` gates (:func:`check_obs_overhead`).
    Answers must stay bit-identical and the emitted span stream must
    validate — no orphan parents, no duplicate span ids.  The trace JSONL
    is kept at ``trace_out`` when given, so CI can run ``repro trace
    --validate`` on the same artifact.
    """
    cleanup = trace_out is None
    if trace_out is None:
        handle, path = tempfile.mkstemp(prefix="repro-obs-", suffix=".jsonl")
        os.close(handle)
    else:
        path = trace_out
    try:
        plain_cpu: List[float] = []
        traced_cpu: List[float] = []
        for index in range(OBS_ROUNDS):
            # Truncate between rounds so the validated artifact holds
            # exactly one replay's spans.
            open(path, "w").close()
            (plain, traced), (plain_answers, traced_answers), snapshot = replay_paired(
                trace, path, index
            )
            if traced_answers != plain_answers:
                raise AssertionError(
                    "traced replay answers diverged from the untraced run"
                )
            plain_cpu.append(plain)
            traced_cpu.append(traced)
        records = read_trace(path)
        problems = validate_trace(records)
        if problems:
            raise AssertionError(
                f"emitted trace failed validation: {problems[:3]}"
            )
        snapshot = merge_snapshots([snapshot, _route_mix_snapshot()])
    finally:
        if cleanup:
            os.remove(path)
    roots = sum(1 for record in records if record["parent"] is None)
    interval = overhead_interval(plain_cpu, traced_cpu)
    return {
        "overhead": {
            "sample_rate": 1.0,
            "requests": trace.num_requests(),
            "untraced_cpu_seconds": round(statistics.median(plain_cpu), 4),
            "traced_cpu_seconds": round(statistics.median(traced_cpu), 4),
            **{
                name: round(value, 4) if isinstance(value, float) else value
                for name, value in interval.items()
            },
            "bit_identical": True,
        },
        "trace": {
            "spans": len(records),
            "roots": roots,
            "span_names": sorted({record["name"] for record in records}),
            "valid": True,
        },
        "route_latency_ms": _route_latency_section(snapshot),
    }


def run_service_benchmarks(
    smoke: bool = False,
    worker_counts: Optional[Sequence[int]] = None,
    faults: bool = False,
    restart: bool = False,
    trace_out: Optional[str] = None,
) -> Dict[str, object]:
    """Run the full suite and return the report dictionary."""
    if worker_counts is None:
        worker_counts = WORKER_COUNTS
    if smoke:
        num_instances, pool_size, per_instance, tick_size, skew = 2, 10, 150, 12, 1.1
        size_factor = 0.75
    else:
        num_instances, pool_size, per_instance, tick_size, skew = 4, 16, 250, 16, 1.1
        size_factor = 1.0
    trace = build_service_trace(
        num_instances, pool_size, per_instance, tick_size, skew,
        size_factor=size_factor,
    )

    baseline_seconds, baseline_answers = replay_solve_many(trace)
    num_requests = trace.num_requests()
    modes: Dict[str, Dict[str, object]] = {
        "solve_many_single_process": {
            "seconds": round(baseline_seconds, 4),
            "requests_per_sec": round(num_requests / baseline_seconds, 1),
        }
    }

    service_stats: Dict[int, Dict] = {}
    speedups: Dict[int, float] = {}
    for workers in worker_counts:
        elapsed, answers, stats = replay_service(trace, workers)
        if answers != baseline_answers:
            raise AssertionError(
                f"service answers at {workers} worker(s) are not bit-identical "
                "to the single-process baseline"
            )
        latencies = stats.pop("tick_latencies_ms")
        speedups[workers] = baseline_seconds / elapsed
        service_stats[workers] = stats
        modes[f"service_{workers}_workers"] = {
            "seconds": round(elapsed, 4),
            "requests_per_sec": round(num_requests / elapsed, 1),
            "speedup_vs_solve_many": round(speedups[workers], 2),
            "p50_ms": round(_percentile(latencies, 50), 2),
            "p99_ms": round(_percentile(latencies, 99), 2),
            **{k: (round(v, 4) if isinstance(v, float) else v) for k, v in stats.items()},
        }

    scaling = measure_throughput_vs_workers(smoke, worker_counts)
    approx = check_approx_reproducibility(worker_counts)
    observability = run_obs_scenario(trace, trace_out=trace_out)
    max_workers = max(worker_counts)
    recovery: Optional[Dict[str, object]] = None
    if faults:
        chaos_workers = max(2, max_workers)
        fault_free = (
            modes[f"service_{chaos_workers}_workers"]["seconds"]
            if chaos_workers in worker_counts
            else replay_service(trace, chaos_workers)[0]
        )
        recovery = run_chaos_scenario(
            trace, chaos_workers, float(fault_free), baseline_answers
        )
        recovery["degraded"] = check_degraded_accuracy()
    restart_recovery: Optional[Dict[str, object]] = None
    if restart:
        restart_recovery = run_restart_scenario(trace, baseline_answers)
    report: Dict[str, object] = {
        "benchmark": "service",
        "config": {
            "seed": BENCH_SEED,
            "smoke": smoke,
            "num_instances": num_instances,
            "distinct_queries": trace.distinct,
            "requests": num_requests,
            "tick_size": tick_size,
            "zipf_skew": skew,
            "updates": len(trace.updates),
            "worker_counts": list(worker_counts),
            "cpus": os.cpu_count() or 1,
            "python": platform.python_version(),
            "platform": platform.platform(),
            "version": __version__,
        },
        "modes": modes,
        "throughput_vs_workers": scaling,
        "approx_reproducibility": approx,
        "observability": observability,
        "summary": {
            "speedup_at_max_workers": round(speedups[max_workers], 2),
            "max_workers": max_workers,
            "worker_scaling_at_max": scaling["scaling_at_max_workers"],
            "scaling_gate_enforceable": scaling["scaling_gate_enforceable"],
            "p99_ms_at_max_workers": scaling["workers"][str(max_workers)]["p99_ms"],
            "dedupe_hit_rate": round(
                service_stats[max_workers]["dedupe_hit_rate"], 4
            ),
            "result_cache_hits": service_stats[max_workers]["result_cache_hits"],
            "exact_bit_identical": True,
            "approx_seed_reproducible": True,
            "contract": (
                "service answers bit-identical to single-process solve_many; "
                "pinned-seed approx estimates identical at every worker count"
            ),
        },
    }
    if recovery is not None:
        report["service_recovery"] = recovery
    if restart_recovery is not None:
        report["restart_recovery"] = restart_recovery
    return report


def check_service_thresholds(
    report: Dict[str, object],
    min_speedup: float = 0.0,
    max_recovery_ms: float = 0.0,
    min_worker_scaling: float = 0.0,
    max_p99_ms: float = 0.0,
    min_obs_overhead_ratio: float = 0.0,
) -> None:
    """Raise AssertionError when a serving or reliability metric regresses.

    The parallel-throughput gates — ``min_speedup`` (service at max
    workers over single-process ``solve_many``) and ``min_worker_scaling``
    (the balanced-trace ratio of the largest worker count over one worker)
    — are enforced only where the recording machine has at least as many
    CPU cores as workers (``scaling_gate_enforceable``): a box with fewer
    cores than workers physically cannot show parallel speedup, so there
    the numbers are recorded, the machine-independent invariants
    (bit-identical answers, pinned-seed reproducibility, no idle workers,
    the ``max_p99_ms`` ceiling) are still enforced, and the ratio gates
    are skipped rather than failed dishonestly.  So is the counter
    invariant: coalescing and the result cache sit at the coordinator,
    so ``coalesced``, ``dispatched`` and ``result_cache_hits`` must read
    the same at every worker count of the replay.
    """
    summary = report["summary"]
    if not summary["exact_bit_identical"]:
        raise AssertionError("service exact answers diverged from the baseline")
    counters = {
        name: tuple(
            numbers[name]
            for mode, numbers in report["modes"].items()
            if mode.startswith("service_")
        )
        for name in ("coalesced", "dispatched", "result_cache_hits")
    }
    for name, values in counters.items():
        if len(set(values)) > 1:
            raise AssertionError(
                f"service {name} differs across worker counts: {values}"
            )
    if not summary["approx_seed_reproducible"]:
        raise AssertionError("pinned-seed approx estimates were not reproducible")
    speedup = summary["speedup_at_max_workers"]
    if speedup < min_speedup and summary.get("scaling_gate_enforceable", True):
        raise AssertionError(
            f"service speedup {speedup}x at {summary['max_workers']} workers is "
            f"below the required {min_speedup}x"
        )
    scaling = report.get("throughput_vs_workers")
    if scaling is None:
        if min_worker_scaling > 0 or max_p99_ms > 0:
            raise AssertionError(
                "--min-worker-scaling/--max-p99-ms require the "
                "throughput_vs_workers section"
            )
    else:
        if not scaling["exact_bit_identical"]:
            raise AssertionError(
                "balanced-trace answers diverged across worker counts"
            )
        for count, entry in scaling["workers"].items():
            if not entry["no_idle_workers"]:
                raise AssertionError(
                    f"a worker owns no instances at {count} worker(s) — the "
                    "shard assignment left capacity idle"
                )
        if max_p99_ms > 0:
            worst = max(
                entry["p99_ms"] for entry in scaling["workers"].values()
            )
            if worst > max_p99_ms:
                raise AssertionError(
                    f"p99 tick latency {worst} ms exceeds the required "
                    f"{max_p99_ms} ms ceiling"
                )
        if min_worker_scaling > 0 and scaling["scaling_gate_enforceable"]:
            ratio = scaling["scaling_at_max_workers"]
            if ratio < min_worker_scaling:
                raise AssertionError(
                    f"throughput at {summary['max_workers']} workers is only "
                    f"{ratio}x the 1-worker run, below the required "
                    f"{min_worker_scaling}x"
                )
    recovery = report.get("service_recovery")
    if recovery is not None:
        if recovery["lost_requests"] != 0:
            raise AssertionError(
                f"chaos run lost {recovery['lost_requests']} request(s)"
            )
        if not recovery["exact_bit_identical"]:
            raise AssertionError("chaos-run answers diverged from the baseline")
        if not recovery["degraded"]["within_epsilon"]:
            raise AssertionError("degraded answer violated its epsilon bound")
        if max_recovery_ms > 0 and recovery["recovery_ms"] > max_recovery_ms:
            raise AssertionError(
                f"worker recovery took {recovery['recovery_ms']} ms, above the "
                f"required {max_recovery_ms} ms"
            )
    elif max_recovery_ms > 0:
        raise AssertionError(
            "--max-recovery-ms requires the chaos scenario (run with --faults)"
        )
    restart = report.get("restart_recovery")
    if restart is not None:
        if restart["warm_compiles"] != 0:
            raise AssertionError(
                f"warm restart recompiled {restart['warm_compiles']} plan(s)"
            )
        if not restart["warm_bit_identical"]:
            raise AssertionError("warm-restart answers diverged from the baseline")
        for case in restart["disk_faults"]:
            if not case["detected"]:
                raise AssertionError(
                    f"injected {case['kind']} fault went undetected"
                )
            if not case["recovered"]:
                raise AssertionError(
                    f"recovery from the injected {case['kind']} fault failed"
                )
    # Last, so a noisy overhead reading never hides the verdicts above.
    observability = report.get("observability")
    if observability is not None:
        if not observability["trace"]["valid"]:
            raise AssertionError("the emitted trace failed validation")
        if not observability["overhead"]["bit_identical"]:
            raise AssertionError("traced answers diverged from untraced")
        if min_obs_overhead_ratio > 0:
            check_obs_overhead(observability["overhead"], min_obs_overhead_ratio)
    elif min_obs_overhead_ratio > 0:
        raise AssertionError(
            "--min-obs-overhead-ratio requires the observability section"
        )


#: Serialise the report to disk — same format as the other benchmarks.
write_service_report = write_report


def format_service_report(report: Dict[str, object]) -> str:
    """A terse human-readable rendering of the report."""
    config = report["config"]
    lines = [
        f"service benchmark (seed {config['seed']}): {config['requests']} requests, "
        f"{config['distinct_queries']} distinct queries, Zipf skew {config['zipf_skew']}, "
        f"{config['num_instances']} instances, {config['updates']} mid-stream updates"
    ]
    for name, numbers in report["modes"].items():
        line = f"  {name:<28} {numbers['requests_per_sec']:>10.1f} req/sec"
        if "speedup_vs_solve_many" in numbers:
            line += f"   ({numbers['speedup_vs_solve_many']}x vs solve_many)"
        lines.append(line)
    summary = report["summary"]
    lines.append(
        f"  dedupe hit rate {summary['dedupe_hit_rate']:.0%}, "
        f"{summary['result_cache_hits']} result-cache hits at "
        f"{summary['max_workers']} workers"
    )
    scaling = report.get("throughput_vs_workers")
    if scaling is not None:
        gate = (
            "gate enforceable"
            if scaling["scaling_gate_enforceable"]
            else f"gate skipped: {scaling['cpus']} cpu(s)"
        )
        lines.append(
            f"  throughput vs workers (balanced trace, "
            f"{scaling['trace']['num_instances']} instances; {gate}):"
        )
        for count, entry in sorted(
            scaling["workers"].items(), key=lambda item: int(item[0])
        ):
            lines.append(
                f"    {count} worker(s): {entry['requests_per_sec']:>8.1f} req/sec "
                f"({entry['scaling_vs_1_worker']}x vs 1), "
                f"p50 {entry['p50_ms']} ms, p99 {entry['p99_ms']} ms"
            )
    approx = report["approx_reproducibility"]
    lines.append(
        f"  pinned-seed approx estimate {approx['estimate']:.6f} identical across "
        f"worker counts {approx['worker_counts']}"
    )
    observability = report.get("observability")
    if observability is not None:
        overhead = observability["overhead"]
        lines.append(
            f"  tracing at rate {overhead['sample_rate']}: "
            f"{overhead['overhead_ratio']}x of untraced throughput "
            f"(CPU time, {overhead['rounds']} rounds, "
            f"{overhead['confidence']:.0%} interval {overhead['ratio_low']}-"
            f"{overhead['ratio_high']}, half-width {overhead['half_width']}), "
            f"{observability['trace']['spans']} span(s) emitted and validated"
        )
        routes = observability["route_latency_ms"]["routes"]
        for route in sorted(routes):
            entry = routes[route]
            lines.append(
                f"    route {route:<12} {entry['count']:>5} request(s), "
                f"p50 {entry['p50_ms']} ms, p99 {entry['p99_ms']} ms"
            )
    lines.append(
        f"  speedup at {summary['max_workers']} workers: "
        f"{summary['speedup_at_max_workers']}x (exact answers bit-identical)"
    )
    recovery = report.get("service_recovery")
    if recovery is not None:
        fault = recovery["fault"]
        lines.append(
            f"  chaos: {fault['kind']} worker {fault['worker']} after "
            f"{fault['after_messages']} messages -> {recovery['restarts']} "
            f"restart(s) in {recovery['recovery_ms']} ms, "
            f"{recovery['retries']} retried dispatch(es), "
            f"{recovery['lost_requests']} lost, "
            f"{recovery['retry_overhead_ratio']}x wall-clock overhead"
        )
        degraded = recovery["degraded"]
        lines.append(
            f"  degraded answer at deadline {degraded['deadline_ms']} ms: "
            f"relative error {degraded['relative_error']:.4f} <= "
            f"epsilon {degraded['epsilon']}"
        )
    restart = report.get("restart_recovery")
    if restart is not None:
        lines.append(
            f"  restart: cold {restart['cold_seconds']}s -> warm "
            f"{restart['warm_seconds']}s ({restart['warm_speedup']}x), "
            f"{restart['warm_loads']} plan(s) loaded from the store, "
            f"{restart['warm_compiles']} recompiled (bit-identical answers)"
        )
        fault_kinds = ", ".join(case["kind"] for case in restart["disk_faults"])
        lines.append(
            f"  disk faults [{fault_kinds}]: "
            f"detected={restart['all_faults_detected']}, "
            f"recovered={restart['all_faults_recovered']}"
        )
    return "\n".join(lines)
