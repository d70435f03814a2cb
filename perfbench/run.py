"""The repository benchmark: four serving workloads through ``QueryService``.

Run from the repository root::

    python3 perfbench/run.py --workload zipf-inline --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload cold-pool --seed 1 --seconds 10 --trace 1
    python3 perfbench/run.py --describe        # metric catalogue + environment

One closed-loop client sends one call at a time (``submit_many`` batch,
``evaluate_many`` call or ``update_probability``) and waits for it before
sending the next.  The workload's inputs come from ``--seed`` only
(:mod:`workloads`); the run measures for ``--seconds`` seconds of client
time, then checks every answer against a single-process ``PHomSolver``
oracle outside the timed region.

Times are reported at a reference machine speed.  The speed of a shared
machine swings by a third and more within seconds (other tenants, clock
changes), and that swing would drown any change in the program.  So after
every operation, off the clock, the client times a fixed integer loop that
touches no repository code (:func:`probe`), and scales the operation's time
by ``REFERENCE_PROBE_S`` over the median probe time around it.  A change
to the program moves the scaled times; a change in machine speed moves the
probe alongside the call and cancels out.  Client CPU time is scaled the
same way, worker CPU time by the loop's median scale, and each set-up by
probes taken just before it.  Per-layer metrics are not scaled.

``--trace 0`` reports the end-to-end metrics with tracing off.
``--trace 1`` is the ledger run, never a measured one: the workload runs
untraced for half of ``--seconds``, then the same operations run again at
``trace_sample_rate=1.0``; the span file gives per-layer self times and a
replay of the recorded inputs through the layers' public functions splits
what no span separates (:mod:`ledger`).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the environment
record goes to standard error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import pickle
import resource
import shutil
import statistics
import sys
import tempfile
import time
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Dict, Iterable, List, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Service set-ups per run; ``setup_s`` is their median and the last one
#: serves the timed loop.
SETUP_REPEATS = 11
FLOAT_TOLERANCE = 1e-9

#: Iterations of the speed probe's integer loop (about 0.25 ms).
PROBE_ITERATIONS = 3000
#: The probe's time at the reference speed all reported times are scaled to.
REFERENCE_PROBE_S = 0.00025
#: An operation is scaled by the median of the probes within this many
#: operations of it; a set-up by the median of this many probes before it.
PROBE_REACH = 15
SETUP_PROBES = 5


def probe() -> float:
    """Seconds a fixed integer loop takes right now: the machine's speed."""
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_ITERATIONS):
        total += i * i % 7
    return time.perf_counter() - start


def speed_scale() -> float:
    """Reference probe time over the median of ``SETUP_PROBES`` probes now."""
    return REFERENCE_PROBE_S / statistics.median(probe() for _ in range(SETUP_PROBES))


@dataclass
class Loop:
    """What one closed-loop pass did: per operation, its answers and timings."""

    ops: List[tuple] = field(default_factory=list)
    outcomes: List[object] = field(default_factory=list)
    elapsed_s: List[float] = field(default_factory=list)
    cpu_s: List[float] = field(default_factory=list)
    #: The speed probe run right after the operation.
    probe_s: List[float] = field(default_factory=list)
    wall_s: float = 0.0
    answered: int = 0
    #: The tracer's span sequence number when the loop started.
    cut: int = 0

    def updates(self) -> int:
        return sum(1 for op in self.ops if op[0] == "update")

    def scaled(self) -> dict:
        """The loop's times at the reference speed (see the module docstring)."""
        probes = self.probe_s
        scales = [
            REFERENCE_PROBE_S
            / statistics.median(probes[max(0, i - PROBE_REACH): i + PROBE_REACH + 1])
            for i in range(len(probes))
        ]
        call_ms, update_ms = [], []
        for op, elapsed, scale in zip(self.ops, self.elapsed_s, scales):
            (update_ms if op[0] == "update" else call_ms).append(elapsed * scale * 1000.0)
        return {
            "call_ms": call_ms,
            "update_ms": update_ms,
            "wall_s": sum(e * k for e, k in zip(self.elapsed_s, scales)),
            "cpu_s": sum(c * k for c, k in zip(self.cpu_s, scales)),
            "scale": statistics.median(scales) if scales else 1.0,
        }


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def percentile(samples: List[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in [0, 100]."""
    ordered = sorted(samples)
    return ordered[max(1, math.ceil(q / 100.0 * len(ordered))) - 1]


def start_service(workload, run_dir: str, trace_path: Optional[str] = None):
    """Construct the service and register fresh copies of the instances.

    Returns the service and its set-up time at the reference speed.
    """
    from repro.service import QueryService

    instances = pickle.loads(pickle.dumps(workload.instances))
    options = workload.service_options()
    if workload.persistent:
        options["state_dir"] = tempfile.mkdtemp(prefix="state-", dir=run_dir)
    if trace_path is not None:
        options.update(trace_sample_rate=1.0, trace_path=trace_path)
    scale = speed_scale()
    start = time.perf_counter()
    service = QueryService(**options)
    for instance_id in sorted(instances):
        service.register_instance(instances[instance_id], instance_id)
    return service, (time.perf_counter() - start) * scale


def setup_only(workload, run_dir: str):
    """One throwaway set-up: (seconds, worker CPU seconds it cost)."""
    before = children_cpu_s()
    service, seconds = start_service(workload, run_dir)
    service.close()
    return seconds, children_cpu_s() - before


def run_loop(service, ops: Iterable[tuple], seconds: Optional[float]) -> Loop:
    """Send operations one at a time for ``seconds`` of client time (or all).

    Only the calls themselves are timed: generating the next operation,
    reading its answers and the speed probe after it are off the clock.
    """
    from repro.exceptions import ServiceError
    from repro.obs.trace import current_tracer
    from repro.service import ServiceRequest

    tracer = current_tracer()
    loop = Loop()
    for op in ops:
        if seconds is not None and loop.wall_s >= seconds:
            break
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        if op[0] == "batch":
            with tracer.span("client.call"):
                with tracer.span("client.parse"):
                    requests = [
                        ServiceRequest(
                            query=r.query, instance_id=r.instance_id,
                            precision=r.precision, seed=r.seed,
                        )
                        for r in op[1]
                    ]
                results = service.submit_many(requests, on_error="return")
            elapsed, cpu = time.perf_counter() - t0, time.process_time() - cpu0
            outcome = [
                (None, r.error, None) if r.result is None
                else (r.result.probability, None, r.result.method)
                for r in results
            ]
            loop.answered += len(results)
        elif op[0] == "evaluate":
            _, instance_id, query, overrides, precision = op
            with tracer.span("client.evaluate_many"):
                try:
                    outcome = service.evaluate_many(
                        instance_id, query, overrides, precision=precision
                    )
                except ServiceError as exc:
                    outcome = str(exc)
            elapsed, cpu = time.perf_counter() - t0, time.process_time() - cpu0
            loop.answered += len(overrides)
        else:
            _, instance_id, endpoints, probability = op
            with tracer.span("client.update_probability"):
                service.update_probability(instance_id, endpoints, probability)
            elapsed, cpu = time.perf_counter() - t0, time.process_time() - cpu0
            outcome = None
        loop.wall_s += elapsed
        loop.ops.append(op)
        loop.outcomes.append(outcome)
        loop.elapsed_s.append(elapsed)
        loop.cpu_s.append(cpu)
        loop.probe_s.append(probe())
    return loop


class Oracle:
    """Expected answers from one single-process ``PHomSolver``.

    It replays the run's updates on its own instance copies; exact answers
    are memoised per (instance, update version, query).  Exact answers
    must be bit-identical, float answers within ``FLOAT_TOLERANCE`` and
    sampled answers within their relative epsilon of the exact value.
    """

    def __init__(self, workload) -> None:
        from repro.core.solver import PHomSolver

        self.instances = pickle.loads(pickle.dumps(workload.instances))
        self.solver = PHomSolver()
        self.version = dict.fromkeys(self.instances, 0)
        self.memo: Dict[tuple, object] = {}
        self.plans: Dict[tuple, object] = {}
        self.problems: List[str] = []

    def exact(self, instance_id: str, query: str) -> Fraction:
        key = (instance_id, self.version[instance_id], query)
        if key not in self.memo:
            self.memo[key] = self.solver.solve(
                query, self.instances[instance_id], precision="exact"
            ).probability
        return self.memo[key]

    def failures(self, loop: Loop) -> int:
        from workloads import APPROX_EPSILON

        failed = 0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for op, outcome in zip(loop.ops, loop.outcomes):
                if op[0] == "update":
                    _, instance_id, endpoints, probability = op
                    self.instances[instance_id].set_probability(endpoints, probability)
                    self.version[instance_id] += 1
                elif op[0] == "batch":
                    for request, (value, error, _method) in zip(op[1], outcome):
                        expected = self.exact(request.instance_id, request.query)
                        if error is not None:
                            ok = False
                        elif request.precision == "exact":
                            ok = isinstance(value, Fraction) and value == expected
                        elif request.precision == "float":
                            ok = abs(value - float(expected)) <= FLOAT_TOLERANCE
                        else:
                            ok = abs(value - float(expected)) <= APPROX_EPSILON * float(expected)
                        if not ok:
                            failed += 1
                            self.note(f"{request}: got {value!r} ({error}), expected {expected}")
                else:
                    failed += self._check_lanes(op, outcome)
        return failed

    def _check_lanes(self, op: tuple, outcome) -> int:
        _, instance_id, query, overrides, precision = op
        if isinstance(outcome, str):
            self.note(f"evaluate_many on {instance_id} failed: {outcome}")
            return len(overrides)
        version = self.version[instance_id]
        plan_key = (instance_id, version, query)
        if plan_key not in self.plans:
            self.plans[plan_key] = self.solver.compile(query, self.instances[instance_id])
        plan = self.plans[plan_key]
        failed = 0
        for lane, value in itertools.zip_longest(overrides, outcome):
            key = (instance_id, version, query, frozenset(lane.items()), precision)
            if key not in self.memo:
                self.memo[key] = plan.evaluate(probabilities=lane, precision=precision)
            expected = self.memo[key]
            if precision == "exact":
                ok = isinstance(value, Fraction) and value == expected
            else:
                ok = value is not None and abs(value - expected) <= FLOAT_TOLERANCE
            if not ok:
                failed += 1
                self.note(f"lane of {query!r} on {instance_id}: got {value!r}, expected {expected}")
        return failed

    def note(self, message: str) -> None:
        if len(self.problems) < 5:
            self.problems.append(message)


def attempted(loop: Loop) -> int:
    return loop.answered + loop.updates()


def self_check(workload, loop: Loop, stats, tape_spans: Optional[int] = None) -> List[str]:
    """Whether the workload still stresses what it was chosen for."""
    problems = []
    kinds = [op[0] for op in loop.ops]
    if not loop.ops:
        problems.append("no client call completed")
    if workload.name == "zipf-inline":
        if stats.workers[0].get("worker") != 0 or len(stats.workers) != 1:
            problems.append("zipf-inline dispatched to a worker process")
        reused = stats.coalesced + stats.result_cache_hits()
        if stats.requests and reused / stats.requests < 0.5:
            problems.append(f"zipf-inline reuses only {reused}/{stats.requests} answers")
    elif workload.name == "cold-pool":
        ratio = stats.result_cache_hits() / max(1, stats.dispatched)
        if ratio >= 0.4:
            problems.append(f"cold-pool result-cache hit ratio {ratio:.2f} is not cold")
        if any(row["dispatched"] == 0 for row in stats.workers):
            problems.append("a cold-pool worker received no requests")
        methods = {m for outcome in loop.outcomes if isinstance(outcome, list) for _, _, m in outcome}
        for method in ("brute-force-worlds", "karp-luby"):
            if method not in methods:
                problems.append(f"cold-pool answered nothing by {method}")
    elif workload.name == "update-mix":
        if abs(kinds.count("update") - kinds.count("batch")) > 1:
            problems.append("update-mix lost its one update per batch")
    elif workload.name == "scenario-batch":
        lanes = {len(op[3]) for op in loop.ops if op[0] == "evaluate"}
        if not {1, 64} <= lanes:
            problems.append(f"scenario-batch ran lane counts {sorted(lanes)}")
        if tape_spans is not None and tape_spans == 0:
            problems.append("scenario-batch opened no tape spans")
        tapes = sum((row.get("plan_cache") or {}).get("tape_compiles", 0) for row in stats.workers)
        if tapes == 0:
            problems.append("scenario-batch compiled no tapes")
    return problems


def warm_then_loop(service, workload, seconds: Optional[float], ops=None):
    """Send the workload's warm-up operations off the clock, then time the rest."""
    from repro.obs.trace import current_tracer

    source = iter(workload.make_ops() if ops is None else ops)
    warm = run_loop(service, itertools.islice(source, workload.warmup), None)
    cut = current_tracer().mark()
    loop = run_loop(service, source, seconds)
    loop.cut = cut
    return warm, loop


def reported(values: Dict[str, float], kind: str) -> dict:
    """The metrics object of the result line, units as ``BENCHMARK.json`` declares."""
    from catalogue import declared

    rows = {n: r for n, r in declared().items() if r["kind"] == kind}
    if set(values) != set(rows):
        raise RuntimeError(f"{kind} metrics {sorted(values)} differ from {sorted(rows)}")
    return {name: {"value": float(values[name]), "unit": rows[name]["unit"]} for name in rows}


def measure(workload, seconds: float, run_dir: str):
    """The end-to-end run: set up several times, loop, then check answers."""
    setups, setup_cpu = [], []
    for _ in range(SETUP_REPEATS - 1):
        setup_s, worker_cpu = setup_only(workload, run_dir)
        setups.append(setup_s)
        setup_cpu.append(worker_cpu)
    before = children_cpu_s()
    service, setup_s = start_service(workload, run_dir)
    setups.append(setup_s)
    try:
        warm, loop = warm_then_loop(service, workload, seconds)
        self_peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        stats = service.stats()
    finally:
        service.close()
    worker_cpu = max(0.0, children_cpu_s() - before - statistics.median(setup_cpu))
    worker_peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    oracle = Oracle(workload)
    failed = oracle.failures(warm) + oracle.failures(loop)
    problems = oracle.problems + self_check(workload, loop, stats)
    timed = loop.scaled()
    values = {
        "setup_s": statistics.median(setups),
        "requests_per_s": loop.answered / timed["wall_s"],
        "call_p50_ms": percentile(timed["call_ms"], 50),
        "call_p90_ms": percentile(timed["call_ms"], 90),
        "update_p50_ms": statistics.median(timed["update_ms"]),
        "cpu_ms_per_request": (
            1000.0 * (timed["cpu_s"] + worker_cpu * timed["scale"]) / loop.answered
        ),
        "peak_rss_mb": (self_peak_kb + workload.num_workers * worker_peak_kb) / 1024.0,
    }
    print(json.dumps({"timed_calls": len(timed["call_ms"]),
                      "timed_updates": len(timed["update_ms"])}), file=sys.stderr)
    return reported(values, "end_to_end"), attempted(warm) + attempted(loop), failed, problems


def ledger_run(workload, seconds: float, run_dir: str):
    """The traced run: untraced pass, traced replay of it, span ledger, layer replay."""
    from ledger import client_forest, mean_duration_ms, replay_layers, span_metrics
    from repro.obs.metrics import counter_total
    from repro.obs.trace import read_trace

    _, setup_cpu = setup_only(workload, run_dir)

    def arm(ops, limit, trace_path=None):
        before = children_cpu_s()
        service, _ = start_service(workload, run_dir, trace_path)
        try:
            warm, loop = warm_then_loop(service, workload, limit, ops)
            stats = service.stats()
            snapshot = service.metrics_snapshot() if trace_path else None
        finally:
            service.close()
        worker_cpu = max(0.0, children_cpu_s() - before - setup_cpu)
        timed = loop.scaled()
        return warm, loop, stats, snapshot, timed["cpu_s"] + worker_cpu * timed["scale"]

    warm, plain, _, _, plain_cpu = arm(None, seconds / 2.0)
    trace_path = os.path.join(run_dir, "spans.jsonl")
    _, traced, stats, snapshot, traced_cpu = arm(warm.ops + plain.ops, None, trace_path)

    oracle = Oracle(workload)
    failed = oracle.failures(warm) + oracle.failures(traced)
    problems = list(oracle.problems)
    if repr(plain.outcomes) != repr(traced.outcomes):
        failed += 1
        problems.append("traced answers differ from the untraced pass")
    every = read_trace(trace_path)  # warm-up included: it does most compiles
    records = [r for r in every if r["seq"] > traced.cut]
    uncertain = {i: len(g.uncertain_edges()) for i, g in workload.instances.items()}
    spans = span_metrics(client_forest(records), traced.wall_s * 1000.0, uncertain)
    problems += self_check(workload, traced, stats, spans["tape_spans"])

    recorded = []
    parses = submitted = 0
    for op in traced.ops:
        if op[0] == "batch":
            submitted += len(op[1])
            parses += len(op[1])
            recorded += [
                (r.instance_id, r.query, "float" if r.precision == "float" else "exact")
                for r in op[1]
            ]
        elif op[0] == "evaluate":
            parses += 1
            recorded.append((op[1], op[2], op[4]))
    replay = replay_layers(recorded, pickle.loads(pickle.dumps(workload.instances)))
    per_answer = parses / traced.answered

    plan_rows = [row.get("plan_cache") or {} for row in stats.workers]
    hits = sum(row.get("hits", 0) for row in plan_rows)
    misses = sum(row.get("misses", 0) for row in plan_rows)
    kl, bf = spans["karp_luby_ms"], spans["brute_force_ms"]
    on_tape = spans["tape_spans"] > 0
    on_plan = spans["plan_evaluate_spans"] > 0
    values = {
        "query.parse_us": replay["parse_us"] * per_answer,
        "query.core_us": replay["core_us"] * per_answer,
        "plan.canonical_key_us": replay["key_us"] * per_answer,
        "service.coordinator_us": spans["submit_self_ms"] * 1000.0 / max(1, submitted),
        "service.coalesced_ratio": stats.coalesced / max(1, stats.requests),
        "service.result_cache_hit_ratio": stats.result_cache_hits() / max(1, stats.dispatched),
        "service.dispatch_us": spans["dispatch_self_ms"] * 1000.0 / max(1, spans["dispatched"]),
        "service.frame_bytes": replay["frame_bytes"] if workload.num_workers else 0.0,
        "service.update_us": spans["update_us"],
        "service.retries": stats.retries,
        "service.restarts": stats.restarts,
        "service.steals": stats.steals,
        "solver.solve_us": spans["solve_self_us"],
        "solver.cached_solve_us": spans["cached_solve_us"],
        "plan.cache_hit_ratio": hits / max(1, hits + misses),
        "plan.compiles": sum(row.get("compiles", 0) for row in plan_rows),
        "plan.compile_ms": mean_duration_ms(every, "plan.compile"),
        "plan.evaluate_exact_us": replay["evaluate_exact_us"] if on_plan else 0.0,
        "plan.evaluate_float_us": replay["evaluate_float_us"] if on_plan else 0.0,
        "tape.compiles": sum(row.get("tape_compiles", 0) for row in plan_rows),
        "tape.lower_ms": mean_duration_ms(every, "tape.compile"),
        "tape.ops": replay["tape_ops"] if on_tape else 0.0,
        "tape.lane_float_us": replay["lane_float_us"] if on_tape else 0.0,
        "tape.lane_exact_us": replay["lane_exact_us"] if on_tape else 0.0,
        "tape.single_lane_us": spans["tape_single_lane_us"],
        "approx.samples": (
            counter_total(snapshot, "repro_sampler_samples_total") / len(kl) if kl else 0.0
        ),
        "approx.request_ms": statistics.fmean(kl) if kl else 0.0,
        "brute_force.worlds": spans["brute_force_worlds"],
        "brute_force.request_ms": statistics.fmean(bf) if bf else 0.0,
        "wal.append_us": spans["wal_append_us"],
        "wal.bytes_per_update": spans["wal_bytes"],
        "store.put_us": spans["store_put_us"],
        "store.get_us": spans["store_get_us"],
        "obs.spans_per_request": spans["program_spans"] / traced.answered,
        "obs.trace_overhead_ratio": traced_cpu / plain_cpu,
        "ledger.coverage_ratio": spans["coverage"],
        "error_rate": failed / (attempted(warm) + attempted(traced)),
    }
    layers = {name: round(ms, 3) for name, ms in sorted(spans["layer_ms"].items())}
    print(json.dumps({"layer_self_ms": layers, "traced_wall_ms": traced.wall_s * 1000.0}),
          file=sys.stderr)
    return (
        reported(values, "per_layer"), attempted(warm) + attempted(traced), failed, problems
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--describe", action="store_true",
                        help="print the metric catalogue and environment, then exit")
    args = parser.parse_args(argv)

    from catalogue import DEFAULT_SEED, catalogue, environment

    seed = DEFAULT_SEED if args.seed is None else args.seed
    if args.describe:
        print(json.dumps({"environment": environment(seed), "metrics": catalogue()}, indent=2))
        return 0
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    print(json.dumps({"environment": environment(seed), "workload": args.workload}),
          file=sys.stderr)
    workload = WORKLOADS[args.workload](seed)
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix="run-", dir=scratch)
    try:
        run = ledger_run if args.trace else measure
        metrics, tried, failed, problems = run(workload, args.seconds, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": tried,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
