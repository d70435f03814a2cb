"""End-to-end observability tests for the serving stack.

Covers the traced request path (per-phase timing on results, the span
forest on disk, dispatch→solve parenting across the worker pipes), the
registry-backed ``ServiceStats`` consistency guarantee under restarts,
chaos tracing (killed workers close their in-flight dispatch
spans ``retried`` and retries parent cleanly), the JSONL result schema,
the slow-query log, and the ``repro metrics`` / ``trace`` / ``top`` CLI.
"""

from __future__ import annotations

import io
import json

import pytest

from repro.cli import main as cli_main
from repro.core.solver import PHomSolver
from repro.graphs.classes import GraphClass
from repro.graphs.serialization import (
    graph_to_dict,
    probabilistic_graph_to_dict,
)
from repro.obs.trace import (
    NULL_TRACER,
    current_tracer,
    read_trace,
    render_trace,
    validate_trace,
)
from repro.service import (
    Fault,
    FaultPlan,
    QueryService,
    ServiceRequest,
    run_jsonl_session,
)
from repro.workloads.generators import (
    attach_random_probabilities,
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


def skewed_batch(ids, queries):
    """All-cold batch concentrating work on ``ids[0]``."""
    requests = [ServiceRequest(query, ids[0]) for query in queries]
    requests += [ServiceRequest(queries[0], inst) for inst in ids[1:]]
    return requests


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli_main(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


class TestTracedService:
    def test_inline_run_times_phases_and_writes_a_valid_trace(self, tmp_path):
        sink = str(tmp_path / "trace.jsonl")
        queries = trace_queries(11, 4)
        with QueryService(
            num_workers=0, trace_sample_rate=1.0, trace_path=sink
        ) as service:
            inst = service.register_instance(build_instance(11))
            results = service.submit_many(
                [ServiceRequest(query, inst) for query in queries]
            )
            # The installed tracer is restored on close.
            assert current_tracer() is not NULL_TRACER
        assert current_tracer() is NULL_TRACER
        for result in results:
            assert result.duration_ms is not None and result.duration_ms >= 0
            assert result.timing is not None
            assert "worker.solve" in result.timing
        # A cold exact-dp request breaks down into plan phases too.
        cold = results[0].timing
        assert "plan.lookup" in cold
        records = read_trace(sink)
        assert validate_trace(records) == []
        names = {record["name"] for record in records}
        assert "service.submit_many" in names
        assert "worker.solve" in names
        assert "plan.compile" in names

    def test_pool_run_parents_worker_spans_under_dispatch(self, tmp_path):
        sink = str(tmp_path / "trace.jsonl")
        queries = trace_queries(13, 6)
        with QueryService(
            num_workers=2, trace_sample_rate=1.0, trace_path=sink
        ) as service:
            ids = [service.register_instance(build_instance(s)) for s in (13, 14)]
            results = service.submit_many(skewed_batch(ids, queries))
        assert not any(result.error for result in results)
        assert all(result.timing for result in results if not result.coalesced)
        records = read_trace(sink)
        assert validate_trace(records) == []
        by_id = {record["span"]: record for record in records}
        solves = [r for r in records if r["name"] == "worker.solve"]
        dispatches = [r for r in records if r["name"] == "service.dispatch"]
        assert solves and dispatches
        for solve in solves:
            parent = by_id[solve["parent"]]
            assert parent["name"] == "service.dispatch"
            # The worker that ran the span is the worker it was sent to.
            assert solve["attrs"]["worker"] == parent["attrs"]["worker"]
        roots = [r for r in records if r["parent"] is None]
        assert {r["name"] for r in roots} == {"service.submit_many"}
        for dispatch in dispatches:
            assert by_id[dispatch["parent"]]["name"] == "service.submit_many"

    def test_phase_sums_cover_the_batch_wall_time(self, tmp_path):
        # The acceptance bar: the rendered tree's per-phase sums account
        # for the bulk of root wall time (the bench artifact shows ~95%;
        # assert a conservative floor to stay robust on noisy CPUs).
        sink = str(tmp_path / "trace.jsonl")
        queries = trace_queries(17, 12)
        with QueryService(
            num_workers=2, trace_sample_rate=1.0, trace_path=sink
        ) as service:
            ids = [service.register_instance(build_instance(s)) for s in (17, 18)]
            service.submit_many(skewed_batch(ids, queries))
        records = read_trace(sink)
        assert validate_trace(records) == []
        children_ms = {}
        for record in records:
            if record["parent"] is not None:
                children_ms[record["parent"]] = (
                    children_ms.get(record["parent"], 0.0) + record["dur_ms"]
                )
        roots = [r for r in records if r["parent"] is None]
        root_ms = sum(r["dur_ms"] for r in roots)
        covered_ms = sum(children_ms.get(r["span"], 0.0) for r in roots)
        assert root_ms > 0.0
        assert covered_ms >= 0.5 * root_ms
        rendered = render_trace(records)
        assert "coverage:" in rendered and "phase totals:" in rendered

    def test_sampling_rate_zero_point_means_partial_traces(self, tmp_path):
        sink = str(tmp_path / "trace.jsonl")
        with QueryService(
            num_workers=0, trace_sample_rate=0.5, trace_path=sink, seed=3
        ) as service:
            inst = service.register_instance(build_instance(19))
            for query in trace_queries(19, 10):
                service.submit_many([ServiceRequest(query, inst)])
        records = read_trace(sink)
        assert validate_trace(records) == []
        roots = [r for r in records if r["parent"] is None]
        # Seeded per-root sampling: some batches traced, some not.
        assert 0 < len(roots) < 10

    def test_default_off_requests_carry_duration_but_no_timing(self):
        with QueryService(num_workers=0) as service:
            inst = service.register_instance(build_instance(23))
            (result,) = service.submit_many(
                [ServiceRequest(trace_queries(23, 1)[0], inst)]
            )
        assert result.duration_ms is not None
        assert result.timing is None
        assert current_tracer() is NULL_TRACER


class TestStatsConsistency:
    def test_totals_equal_worker_rows_under_restarts(self):
        # Satellite regression: ServiceStats and the per-worker rows are
        # two renderings of one registry snapshot.  A kill forces a
        # restart + retries — the history that used to let
        # independently-kept tallies drift apart.
        queries = trace_queries(31, 10)
        plan = FaultPlan(
            faults=(Fault(kind="kill", worker=1, after_messages=1),), seed=7
        )
        with QueryService(
            num_workers=2, fault_plan=plan, backoff_base=0.01
        ) as service:
            ids = [service.register_instance(build_instance(s)) for s in (31, 32)]
            results = service.submit_many(skewed_batch(ids, queries))
            stats = service.stats()
        assert not any(result.error for result in results)
        assert stats.restarts >= 1
        rows = {row["worker"]: row for row in stats.workers}
        assert sorted(rows) == [0, 1]
        assert stats.dispatched == sum(
            row["dispatched"] for row in stats.workers
        )
        assert stats.requests == len(queries) + 1
        assert stats.coalesced == stats.requests - stats.dispatched
        # The same registry also feeds the merged Prometheus snapshot.
        snapshot = None
        with QueryService(num_workers=2) as service:
            ids = [service.register_instance(build_instance(s)) for s in (33, 34)]
            service.submit_many(skewed_batch(ids, queries))
            stats = service.stats()
            snapshot = service.metrics_snapshot()
        from repro.obs.metrics import counter_total

        assert counter_total(
            snapshot, "repro_service_dispatched_total"
        ) == stats.dispatched
        assert counter_total(
            snapshot, "repro_worker_requests_total"
        ) == sum(row["requests"] for row in stats.workers)


class TestChaosTracing:
    def test_killed_worker_spans_close_retried_and_retries_parent_cleanly(
        self, tmp_path
    ):
        sink = str(tmp_path / "trace.jsonl")
        queries = trace_queries(41, 8)
        # Worker 0 owns the hot shard of the skewed batch; killing it on
        # its second message lands the SIGKILL while its solve dispatch
        # is in flight.
        plan = FaultPlan(
            faults=(Fault(kind="kill", worker=0, after_messages=1),), seed=5
        )
        with QueryService(
            num_workers=2,
            fault_plan=plan,
            backoff_base=0.01,
            trace_sample_rate=1.0,
            trace_path=sink,
            seed=5,
        ) as service:
            ids = [service.register_instance(build_instance(s)) for s in (41, 42)]
            results = service.submit_many(skewed_batch(ids, queries))
            stats = service.stats()
        assert not any(result.error for result in results)
        assert stats.restarts >= 1
        records = read_trace(sink)
        # The invariant suite is the headline: no orphans, no duplicate
        # span ids, parents precede children — even through a SIGKILL.
        assert validate_trace(records) == []
        by_id = {record["span"]: record for record in records}
        dispatches = [r for r in records if r["name"] == "service.dispatch"]
        retried = [r for r in dispatches if r["status"] == "retried"]
        assert retried, "the kill must close at least one attempt 'retried'"
        retries = [r for r in dispatches if r["attrs"].get("attempt", 1) > 1]
        assert retries, "a fresh dispatch span must cover the retry"
        for record in retried + retries:
            assert by_id[record["parent"]]["name"] == "service.submit_many"
        # Every span the dead worker did ship still parents to a known id.
        for solve in (r for r in records if r["name"] == "worker.solve"):
            assert solve["parent"] in by_id


class TestJsonlSchema:
    def make_lines(self, instance, query):
        return [
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
        ]

    def test_result_records_carry_worker_and_duration(self):
        lines = self.make_lines(build_instance(51), trace_queries(51, 1)[0])
        out = io.StringIO()
        with QueryService(num_workers=0) as service:
            assert run_jsonl_session(lines, out, service) == 0
        record = next(
            json.loads(line)
            for line in out.getvalue().splitlines()
            if json.loads(line).get("id") == "r1"
        )
        assert record["worker"] == 0
        assert isinstance(record["duration_ms"], float)
        assert record["duration_ms"] >= 0.0
        for field in (
            "id", "probability", "float", "method", "proposition",
            "query_class", "instance_class", "worker", "cached", "coalesced",
            "duration_ms",
        ):
            assert field in record
        # Untraced sessions have no per-phase breakdown to ship.
        assert "timing" not in record

    def test_traced_session_ships_timing_in_records(self, tmp_path):
        lines = self.make_lines(build_instance(53), trace_queries(53, 1)[0])
        out = io.StringIO()
        sink = str(tmp_path / "trace.jsonl")
        with QueryService(
            num_workers=0, trace_sample_rate=1.0, trace_path=sink
        ) as service:
            assert run_jsonl_session(lines, out, service) == 0
        record = json.loads(out.getvalue().splitlines()[-1])
        assert record["id"] == "r1"
        assert "worker.solve" in record["timing"]


class TestSlowQueryLog:
    def test_threshold_zero_records_every_request_with_provenance(self):
        queries = trace_queries(61, 3)
        with QueryService(num_workers=0, slow_query_ms=0.0) as service:
            inst = service.register_instance(build_instance(61))
            results = service.submit_many(
                [ServiceRequest(query, inst) for query in queries]
            )
            entries = list(service.slow_queries)
        dispatched = sum(1 for result in results if not result.coalesced)
        assert len(entries) == dispatched
        for entry in entries:
            assert entry["worker"] == 0
            assert entry["duration_ms"] >= 0.0
            assert {"method", "instance", "cached", "attempts"} <= set(
                entry
            )

    def test_high_threshold_records_nothing(self):
        with QueryService(num_workers=0, slow_query_ms=1e9) as service:
            inst = service.register_instance(build_instance(63))
            service.submit_many([ServiceRequest(trace_queries(63, 1)[0], inst)])
            assert service.slow_queries == []


class TestObsCli:
    @pytest.fixture()
    def artifacts(self, tmp_path):
        """One traced serve --batch session: metrics snapshot + trace."""
        instance = build_instance(71)
        query = trace_queries(71, 1)[0]
        requests = tmp_path / "requests.jsonl"
        lines = TestJsonlSchema().make_lines(instance, query)
        requests.write_text("\n".join(lines) + "\n")
        snapshot = tmp_path / "metrics.json"
        trace_file = tmp_path / "trace.jsonl"
        code, _out, _err = run_cli(
            [
                "serve", "--batch", str(requests), "--workers", "0",
                "--trace", str(trace_file), "--trace-sample-rate", "1.0",
                "--metrics-out", str(snapshot),
            ]
        )
        assert code == 0
        return snapshot, trace_file

    def test_metrics_renders_prometheus_text(self, artifacts):
        snapshot, _trace = artifacts
        code, out, _err = run_cli(["metrics", str(snapshot)])
        assert code == 0
        assert "# TYPE repro_service_requests_total counter" in out
        assert 'repro_service_dispatched_total{worker="0"} 1' in out
        assert 'repro_request_duration_ms_bucket{route="exact-dp",le=' in out

    def test_trace_renders_and_validates(self, artifacts):
        _snapshot, trace_file = artifacts
        code, out, _err = run_cli(["trace", str(trace_file)])
        assert code == 0
        assert "service.submit_many" in out
        assert "worker.solve" in out
        assert "phase totals:" in out
        code, out, _err = run_cli(["trace", "--validate", str(trace_file)])
        assert code == 0
        assert "all invariants hold" in out

    def test_trace_validate_fails_on_a_broken_file(self, tmp_path, artifacts):
        _snapshot, trace_file = artifacts
        records = read_trace(str(trace_file))
        records[-1]["parent"] = "missing-9"
        broken = tmp_path / "broken.jsonl"
        broken.write_text(
            "\n".join(json.dumps(record) for record in records) + "\n"
        )
        code, _out, err = run_cli(["trace", "--validate", str(broken)])
        assert code == 1
        assert "orphan" in err

    def test_top_renders_the_dashboard(self, artifacts):
        snapshot, _trace = artifacts
        code, out, _err = run_cli(["top", str(snapshot)])
        assert code == 0
        assert "exact-dp" in out
        assert "requests" in out
        code, out, _err = run_cli(
            [
                "top", "--watch", "--interval", "0.01", "--iterations", "2",
                str(snapshot),
            ]
        )
        assert code == 0
        assert "exact-dp" in out
