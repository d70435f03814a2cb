"""Durable-serving suite: `QueryService(state_dir=...)` crash recovery.

The contract under test: any state the service acknowledged is rebuilt
from disk after a crash — including a coordinator ``SIGKILL``, the
harshest case, which no ``atexit``/``finally`` path survives — and the
rebuilt service answers **bit-identically** to an uninterrupted run.
Disk damage along the way (injected through the seeded
:class:`~repro.service.faults.DiskFaultInjector`) must be detected and
recovered from, never silently replayed, and never crash the service.

Runs under the ``test_service*`` SIGALRM wall-clock guard from
``conftest.py``.
"""

from __future__ import annotations

import io
import os
import pickle
import signal

import pytest

from repro.cli import main as cli_main
from repro.core.solver import PHomSolver
from repro.exceptions import ServiceError
from repro.graphs.classes import GraphClass
from repro.persist import WriteAheadLog, scan_wal
from repro.service import (
    DISK_FAULT_KINDS,
    Fault,
    FaultPlan,
    QueryService,
)
import repro.service.service as service_module
from repro.service.service import RESTART_LOG_LIMIT
from repro.workloads.generators import attach_random_probabilities, make_instance

SEED = 73


def build_instance(seed: int, size: int = 16, labeled: bool = True,
                   graph_class: GraphClass = GraphClass.UNION_DOWNWARD_TREE):
    graph = make_instance(graph_class, labeled, size, seed)
    return attach_random_probabilities(graph, seed)


def build_query(seed: int, size: int = 3, labeled: bool = True,
                graph_class: GraphClass = GraphClass.ONE_WAY_PATH):
    return make_instance(graph_class, labeled, size, seed)


def some_updates(instance, count: int, start: str = "1"):
    edges = sorted(instance.graph.edges())[:count]
    return [
        ((edge.source, edge.target), f"{index + 1}/{count + 3}")
        for index, edge in enumerate(edges)
    ]


def oracle(instance, updates, queries):
    """Exact answers of an uninterrupted run over the updated state."""
    updated = pickle.loads(pickle.dumps(instance))
    for endpoints, probability in updates:
        updated.set_probability(endpoints, probability)
    solver = PHomSolver()
    return [solver.solve(query, updated).probability for query in queries]


# ----------------------------------------------------------------------
# Clean warm restarts
# ----------------------------------------------------------------------
@pytest.mark.parametrize("num_workers", [0, 2])
def test_clean_restart_is_bit_identical_and_warm(tmp_path, num_workers):
    state = str(tmp_path / "state")
    instance = build_instance(SEED)
    queries = [build_query(SEED + i) for i in range(3)]
    updates = some_updates(instance, 2)

    with QueryService(num_workers=num_workers, state_dir=state) as service:
        service.register_instance(pickle.loads(pickle.dumps(instance)), "durable")
        for endpoints, probability in updates:
            service.update_probability("durable", endpoints, probability)
        first = [service.submit(q, "durable").result.probability for q in queries]

    with QueryService(num_workers=num_workers, state_dir=state) as service:
        assert service.recovery["instances_restored"] == 1
        assert service.recovery["plans_warmed"] >= 1
        again = [service.submit(q, "durable").result.probability for q in queries]
        stats = service.stats()
        compiles = sum(
            worker["plan_cache"]["compiles"] for worker in stats.workers
        )
        loads = sum(worker["plan_cache"]["loads"] for worker in stats.workers)
        persistence = service.persistence_stats()

    assert again == first == oracle(instance, updates, queries)
    assert compiles == 0  # the hot set came from the store, not a compiler
    assert loads >= 1
    assert persistence["wal_errors"] == 0
    assert not persistence["recovery"]["wal"]["corrupt_frames"]


def test_restored_auto_ids_do_not_collide(tmp_path):
    state = str(tmp_path / "state")
    first = build_instance(SEED + 10, size=10)
    second = build_instance(SEED + 11, size=12)
    with QueryService(num_workers=0, state_dir=state) as service:
        auto_id = service.register_instance(first)
        assert auto_id == "instance-0"
    with QueryService(num_workers=0, state_dir=state) as service:
        assert service.register_instance(second) != auto_id
        assert sorted(service._instances) == ["instance-0", "instance-1"]


def test_non_string_ids_in_the_wal_are_skipped(tmp_path):
    state = str(tmp_path / "state")
    instance = build_instance(SEED + 12, size=10)
    query = build_query(SEED + 13)
    snapshot = pickle.dumps(instance)
    wal = WriteAheadLog(os.path.join(state, "wal"))
    wal.append(("register", 5, snapshot))
    wal.append(("register", "good", snapshot))
    edge = sorted(instance.graph.edges())[0]
    wal.append(("update", 5, (edge.source, edge.target), "1/2"))
    wal.close()
    with QueryService(num_workers=0, state_dir=state) as service:
        assert service.recovery["instances_restored"] == 1
        assert sorted(service._instances) == ["good"]
        answer = service.submit(query, "good").result.probability
    assert answer == oracle(instance, [], [query])[0]


def test_store_compact_folds_the_log_like_a_restart(tmp_path):
    instance = build_instance(SEED + 14, size=10)
    queries = [build_query(SEED + 15 + i) for i in range(2)]
    snapshot = pickle.dumps(instance)
    updates = some_updates(instance, 3)
    records = [("register", 5, snapshot), ("register", "good", snapshot)]
    records += [("update", "good", endpoints, p) for endpoints, p in updates]
    records.append(("update", 5, updates[0][0], "1/2"))
    records.append(("update", "good", updates[0][0], "3/5"))
    answers = {}
    for name in ("logged", "compacted"):
        state = str(tmp_path / name)
        wal = WriteAheadLog(os.path.join(state, "wal"))
        for record in records:
            wal.append(record)
        wal.close()
        if name == "compacted":
            out, err = io.StringIO(), io.StringIO()
            assert cli_main(["store", "compact", state], out=out, err=err) == 0
            assert f"compacted {len(records)} record(s) into 1 snapshot(s)" in out.getvalue()
            with WriteAheadLog(os.path.join(state, "wal")) as wal:
                assert [record[:2] for record in wal.replay()] == [("register", "good")]
        with QueryService(num_workers=0, state_dir=state) as service:
            assert sorted(service._instances) == ["good"]
            answers[name] = [
                service.submit(query, "good", precision=precision).result.probability
                for query in queries
                for precision in ("exact", "float")
            ]
    assert answers["compacted"] == answers["logged"]
    assert answers["logged"][::2] == oracle(
        instance, updates + [(updates[0][0], "3/5")], queries
    )


def test_state_dir_must_be_a_directory(tmp_path):
    bogus = tmp_path / "not-a-dir"
    bogus.write_text("file, not dir")
    with pytest.raises(ServiceError):
        QueryService(num_workers=0, state_dir=str(bogus))


# ----------------------------------------------------------------------
# SIGKILL the coordinator
# ----------------------------------------------------------------------
def test_sigkill_coordinator_recovers_bit_identically(tmp_path):
    """SIGKILL mid-session; the restart must equal an uninterrupted run.

    The child process registers three instances covering the three
    tractable plan routes (labeled 1WP on a downward tree, connected 2WP,
    unlabeled trees on a union of downward trees), applies updates with
    ``wal_fsync="always"``, reports readiness through a pipe, and is then
    killed with the one signal no cleanup handler survives.  Everything
    is pinned-seed, so the oracle is exact.
    """
    state = str(tmp_path / "state")
    cases = [
        (
            "route-1wp",
            build_instance(SEED + 20, graph_class=GraphClass.DOWNWARD_TREE),
            [build_query(SEED + 21), build_query(SEED + 22)],
        ),
        (
            "route-2wp",
            build_instance(SEED + 23, size=8, graph_class=GraphClass.TWO_WAY_PATH),
            [build_query(SEED + 24, graph_class=GraphClass.TWO_WAY_PATH)],
        ),
        (
            "route-union-dwt",
            build_instance(SEED + 25, labeled=False),
            [build_query(SEED + 26, labeled=False,
                         graph_class=GraphClass.DOWNWARD_TREE)],
        ),
    ]
    updates = {name: some_updates(instance, 2) for name, instance, _ in cases}

    ready_read, ready_write = os.pipe()
    pid = os.fork()
    if pid == 0:  # pragma: no cover - child process exits below
        try:
            os.close(ready_read)
            signal.setitimer(signal.ITIMER_REAL, 0)  # drop the pytest guard
            service = QueryService(
                num_workers=0, state_dir=state, wal_fsync="always"
            )
            for name, instance, _ in cases:
                service.register_instance(
                    pickle.loads(pickle.dumps(instance)), name
                )
                for endpoints, probability in updates[name]:
                    service.update_probability(name, endpoints, probability)
            os.write(ready_write, b"x")
            os.close(ready_write)
            while True:  # hold state in memory until the SIGKILL lands
                signal.pause()
        finally:
            os._exit(0)

    os.close(ready_write)
    assert os.read(ready_read, 1) == b"x"
    os.close(ready_read)
    os.kill(pid, signal.SIGKILL)
    _, status = os.waitpid(pid, 0)
    assert os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGKILL

    with QueryService(num_workers=0, state_dir=state) as service:
        assert service.recovery["instances_restored"] == len(cases)
        assert not service.recovery["wal"].corruption_detected
        for name, instance, queries in cases:
            answers = [
                service.submit(query, name).result.probability
                for query in queries
            ]
            assert answers == oracle(instance, updates[name], queries)


# ----------------------------------------------------------------------
# Disk faults through the service
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", DISK_FAULT_KINDS)
def test_disk_fault_detected_and_recovered(tmp_path, kind):
    """One damaged WAL append: detect it, lose only that record, keep serving."""
    state = str(tmp_path / "state")
    instance = build_instance(SEED + 30)
    queries = [build_query(SEED + 31), build_query(SEED + 32)]
    updates = some_updates(instance, 3)
    plan = FaultPlan(
        faults=(Fault(kind=kind, after_messages=len(updates)),), seed=SEED
    )

    with QueryService(
        num_workers=0, state_dir=state, wal_fsync="always", fault_plan=plan
    ) as service:
        service.register_instance(pickle.loads(pickle.dumps(instance)), "faulty")
        for endpoints, probability in updates:
            service.update_probability("faulty", endpoints, probability)
        wal_errors = service.wal_errors
        # Serving continues through the durability fault, on full state.
        live = [service.submit(q, "faulty").result.probability for q in queries]
    assert live == oracle(instance, updates, queries)

    with QueryService(num_workers=0, state_dir=state) as service:
        recovery = service.recovery
        recovered = [
            service.submit(q, "faulty").result.probability for q in queries
        ]
    if kind == "enospc":
        assert wal_errors == 1  # the rejected append was counted...
    else:
        assert recovery["wal"].corruption_detected  # ...or the damage seen
    assert recovery["instances_restored"] == 1
    # Exactly the damaged append is gone; the durable prefix is intact.
    assert recovered == oracle(instance, updates[:-1], queries)


# ----------------------------------------------------------------------
# Bounded in-memory growth
# ----------------------------------------------------------------------
def test_journal_stays_bounded_under_sustained_updates(tmp_path, monkeypatch):
    state = str(tmp_path / "state")
    instance = build_instance(SEED + 40, size=24)
    query = build_query(SEED + 41)
    limit = 4
    monkeypatch.setattr(service_module, "JOURNAL_FOLD_AFTER", limit)
    edges = sorted(instance.graph.edges())
    assert len(edges) > 3 * limit
    with QueryService(num_workers=0, state_dir=state) as service:
        service.register_instance(pickle.loads(pickle.dumps(instance)), "busy")
        applied = []
        for index, edge in enumerate(edges):
            update = ((edge.source, edge.target), f"{index + 1}/{len(edges) + 2}")
            service.update_probability("busy", *update)
            applied.append(update)
            journal = service._journal["busy"]
            assert len(journal.updates) < limit  # folded, never unbounded
        live = service.submit(query, "busy").result.probability
    assert live == oracle(instance, applied, [query])[0]

    # The fold is semantics-preserving across a restart too.
    with QueryService(num_workers=0, state_dir=state) as service:
        recovered = service.submit(query, "busy").result.probability
    assert recovered == live


def test_restart_log_is_capped(tmp_path):
    instance = build_instance(SEED + 50, size=10)
    query = build_query(SEED + 51)
    chaos = FaultPlan(faults=(Fault(kind="kill", after_messages=1),), seed=SEED)
    with QueryService(
        num_workers=1, backoff_base=0.01, fault_plan=chaos
    ) as service:
        service.register_instance(instance, "crashy")
        # A crash-looping fleet must not grow the log without bound:
        # simulate a long history, then record one real restart.
        service.restart_log.extend(
            {"worker": 0, "reason": "synthetic"} for _ in range(RESTART_LOG_LIMIT)
        )
        service.submit(query, "crashy")  # trips the kill, forces a restart
        assert service.stats().restarts >= 1
        assert len(service.restart_log) <= RESTART_LOG_LIMIT
        assert service.restart_log[-1]["reason"] != "synthetic"


# ----------------------------------------------------------------------
# Offline compaction
# ----------------------------------------------------------------------
def test_compact_state_folds_the_wal(tmp_path):
    state = str(tmp_path / "state")
    instance = build_instance(SEED + 60)
    query = build_query(SEED + 61)
    updates = some_updates(instance, 4)
    with QueryService(num_workers=0, state_dir=state) as service:
        service.register_instance(pickle.loads(pickle.dumps(instance)), "packed")
        for endpoints, probability in updates:
            service.update_probability("packed", endpoints, probability)
        before = service.persistence_stats()["wal_appends"]
        assert before == 1 + len(updates)
        service.compact_state()
    # One snapshot record per instance survives; updates are folded in.
    assert scan_wal(os.path.join(state, "wal")).records_replayed == 1
    with QueryService(num_workers=0, state_dir=state) as service:
        assert service.recovery["instances_restored"] == 1
        answer = service.submit(query, "packed").result.probability
    assert answer == oracle(instance, updates, [query])[0]
