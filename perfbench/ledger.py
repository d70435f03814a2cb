"""The per-layer ledger: span self times and timed calls into layer APIs.

Two sources, both outside the program:

* the span file of a run at ``trace_sample_rate=1.0`` — the program's own
  spans (``service.submit_many``, ``service.dispatch``, ``worker.solve``,
  ``plan.*``, ``tape.*``, ``sampler.*``, ``wal.append``, ``store.*``)
  nested under the benchmark's client spans (``client.*``, opened on the
  service's tracer around each call);
* a replay of the run's recorded inputs through the layers' public
  functions, timed from the benchmark process, for the layers whose work
  no span separates (parse, core, canonical key, frame size, evaluate
  per precision, tape lanes per precision).
"""

from __future__ import annotations

import pickle
import statistics
import time
import warnings
from collections import defaultdict
from fractions import Fraction
from typing import Callable, Dict, List, Sequence, Tuple

from repro.core.solver import PHomSolver
from repro.plan import FallbackPlan, canonical_query_key
from repro.query import query_core
from repro.service import ServiceRequest
from repro.tape import compile_plan_tape

#: Span names of the benchmark's own code: counted in no layer.
CLIENT = "client"

#: Layer of each span name or name prefix.  The client opens one span
#: around each program call; a client span that wraps exactly one call
#: stands for that call's work no program span covers.  ``client.call``
#: only groups a batch's parse and ``submit_many``: its self time is the
#: benchmark's.
LAYER_OF_PREFIX = {
    "client.call": CLIENT,
    "client.parse": "query",  # ServiceRequest(...) parses the query string
    "client.update_probability": "service",
    "client.evaluate_many": "service",
    "service": "service",
    "worker": "core.solver",
    "plan": "plan",
    "tape": "tape",
    "sampler": "approx",
    "wal": "persist",
    "store": "persist",
}


def layer_of(name: str) -> str:
    """The span's layer; ``"other"`` for a span no layer claims."""
    if name in LAYER_OF_PREFIX:
        return LAYER_OF_PREFIX[name]
    return LAYER_OF_PREFIX.get(name.split(".", 1)[0], "other")


#: The layers whose self time the ledger attributes.
PROGRAM_LAYERS = frozenset(LAYER_OF_PREFIX.values()) - {CLIENT}


def _union_length(intervals: List[Tuple[float, float]]) -> float:
    total = 0.0
    end = None
    for lo, hi in sorted(intervals):
        if end is None or lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total


def self_times(records: Sequence[dict]) -> Dict[str, float]:
    """Span id -> self time (ms): duration minus the *union* of its children.

    Children are clipped to the parent's interval first.  Pooled workers
    run children in parallel, so summing child durations would
    double-count overlapping work and can drive a parent negative.
    """
    children: Dict[str, List[dict]] = defaultdict(list)
    for record in records:
        if record["parent"] is not None:
            children[record["parent"]].append(record)
    result: Dict[str, float] = {}
    for record in records:
        start = record["ts"]
        end = start + record["dur_ms"] / 1000.0
        clipped = []
        for child in children.get(record["span"], ()):
            lo = max(start, child["ts"])
            hi = min(end, child["ts"] + child["dur_ms"] / 1000.0)
            if hi > lo:
                clipped.append((lo, hi))
        result[record["span"]] = max(
            0.0, record["dur_ms"] - _union_length(clipped) * 1000.0
        )
    return result


def client_forest(records: Sequence[dict]) -> List[dict]:
    """The spans whose root is a benchmark client span (the timed loop)."""
    by_id = {record["span"]: record for record in records}

    def root_of(record: dict) -> dict:
        seen = 0
        while record["parent"] in by_id and seen < 64:
            record = by_id[record["parent"]]
            seen += 1
        return record

    return [r for r in records if root_of(r)["name"].startswith("client.")]


def _mean(values: Sequence[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def span_metrics(
    records: Sequence[dict], wall_ms: float, uncertain: Dict[str, int]
) -> Dict[str, float]:
    """Per-layer numbers read off the span forest of one traced loop.

    ``coverage`` is the self time attributed to a program layer over the
    timed wall: benchmark glue (``client.call``) and spans no layer claims
    stay unattributed.  ``uncertain`` maps instance id -> uncertain edges,
    so every uncached brute-force solve counts its ``2^u`` worlds.
    """
    selfs = self_times(records)
    by_name: Dict[str, List[dict]] = defaultdict(list)
    for record in records:
        by_name[record["name"]].append(record)

    def durations(name: str, keep: Callable[[dict], bool] = lambda r: True) -> List[float]:
        return [r["dur_ms"] for r in by_name.get(name, ()) if keep(r)]

    def self_total(name: str) -> float:
        return sum(selfs[r["span"]] for r in by_name.get(name, ()))

    layer_ms: Dict[str, float] = defaultdict(float)
    for record in records:
        layer_ms[layer_of(record["name"])] += selfs[record["span"]]
    dispatched = sum(r["attrs"].get("requests", 0) for r in by_name.get("service.dispatch", ()))
    solves = by_name.get("worker.solve", ())

    def uncached(method: str) -> List[dict]:
        return [
            r for r in solves
            if r["attrs"].get("method") == method and not r["attrs"].get("cached")
        ]

    brute_force = uncached("brute-force-worlds")

    return {
        "submit_self_ms": self_total("service.submit_many"),
        "dispatch_self_ms": self_total("service.dispatch"),
        "dispatched": dispatched,
        "solve_self_us": 1000.0 * _mean(
            [selfs[r["span"]] for r in solves if not r["attrs"].get("cached")]
        ),
        "cached_solve_us": 1000.0 * _mean(
            [r["dur_ms"] for r in solves if r["attrs"].get("cached")]
        ),
        "tape_single_lane_us": 1000.0 * _mean(
            durations("tape.evaluate", lambda r: r["attrs"].get("batch") == 1)
        ),
        "karp_luby_ms": [r["dur_ms"] for r in uncached("karp-luby")],
        "brute_force_ms": [r["dur_ms"] for r in brute_force],
        "brute_force_worlds": sum(2 ** uncertain[r["attrs"]["instance"]] for r in brute_force),
        "wal_append_us": 1000.0 * _mean(durations("wal.append")),
        "wal_bytes": _mean([r["attrs"].get("bytes", 0) for r in by_name.get("wal.append", ())]),
        "store_put_us": 1000.0 * _mean(durations("store.put")),
        "store_get_us": 1000.0 * _mean(durations("store.get")),
        "update_us": 1000.0 * _mean(durations("client.update_probability")),
        "program_spans": sum(
            1 for r in records if not r["name"].startswith("client.")
        ),
        "tape_spans": sum(len(v) for k, v in by_name.items() if k.startswith("tape.")),
        "plan_evaluate_spans": len(by_name.get("plan.evaluate", ())),
        "layer_ms": dict(layer_ms),
        "coverage": (
            sum(layer_ms[layer] for layer in PROGRAM_LAYERS) / wall_ms if wall_ms > 0 else 0.0
        ),
    }


def mean_duration_ms(records: Sequence[dict], name: str) -> float:
    """Mean duration of the spans called ``name`` (0 when there are none)."""
    return _mean([r["dur_ms"] for r in records if r["name"] == name])


def _timed(fn: Callable[[], object], repeat: int = 1) -> float:
    """Best-of-``repeat`` wall time of one call, in microseconds."""
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best * 1e6


def replay_layers(
    requests: Sequence[Tuple[str, str, str]],
    instances: Dict[str, object],
    limit: int = 120,
) -> Dict[str, float]:
    """Time each layer's public function on recorded (instance, query, precision) inputs.

    Each parse/core/key timing runs on a freshly parsed graph, because the
    core and the canonical key are memoised on the graph object.  Plans
    are compiled by a fresh single-process solver; evaluation is timed per
    precision, and tractable plans are lowered to tapes and run as 64
    float lanes and 4 exact lanes.
    """
    distinct = list(dict.fromkeys(requests))[:limit]
    parse, core, key, frame_bytes = [], [], [], []
    for instance_id, query, precision in distinct:
        built: List[ServiceRequest] = []
        parse.append(_timed(lambda: built.append(
            ServiceRequest(query=query, instance_id=instance_id, precision=precision)
        )))
        graph = built[-1].query
        core.append(_timed(lambda: query_core(graph)))
        key.append(_timed(lambda: canonical_query_key(graph)))
        frame_bytes.append(len(pickle.dumps(built[-1], protocol=pickle.HIGHEST_PROTOCOL)))

    solver = PHomSolver()
    exact_us, float_us, ops, lane_float, lane_exact = [], [], [], [], []
    seen = set()  # cached plans are shared by equivalent queries
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for instance_id, query, _precision in distinct:
            instance = instances[instance_id]
            plan = solver.compile(query, instance)
            if id(plan) in seen:
                continue
            seen.add(id(plan))
            exact_us.append(_timed(lambda: plan.evaluate(precision="exact")))
            float_us.append(_timed(lambda: plan.evaluate(precision="float"), repeat=3))
            if isinstance(plan, FallbackPlan):
                continue
            tape = compile_plan_tape(plan)
            ops.append(len(tape.opcodes))
            float_table = {e: float(p) for e, p in instance.probabilities().items()}
            exact_table = {e: Fraction(p) for e, p in instance.probabilities().items()}
            lane_float.append(
                _timed(lambda: tape.evaluate_many([float_table] * 64, precision="float"), 3)
                / 64
            )
            lane_exact.append(
                _timed(lambda: tape.evaluate_many([exact_table] * 4, precision="exact")) / 4
            )
    return {
        "parse_us": _mean(parse),
        "core_us": _mean(core),
        "key_us": _mean(key),
        "frame_bytes": _mean(frame_bytes),
        "evaluate_exact_us": _mean(exact_us),
        "evaluate_float_us": _mean(float_us),
        "tape_ops": _mean(ops),
        "lane_float_us": _mean(lane_float),
        "lane_exact_us": _mean(lane_exact),
    }
