"""Metric catalogue and environment record of the repository benchmark.

Every metric the benchmark reports has one row: its unit and direction,
read from ``BENCHMARK.json`` (the one place they are written), its layer
(module), and — for per-layer metrics — the end-to-end metric and workload
it is expected to move.  Later changes cite rows by name.
``python3 perfbench/run.py --describe`` prints the catalogue together with
the environment record.
"""

from __future__ import annotations

import json
import os
import platform
from pathlib import Path
from typing import Dict

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

#: The seed a change is developed against, and the held-out seed its claim
#: must also hold on.
DEFAULT_SEED = 1
HELD_OUT_SEED = 20231

#: ``cold-pool`` runs this many workers; fewer CPUs cannot support scaling
#: claims.
COLD_POOL_WORKERS = 2

WORKLOAD_NAMES = ("zipf-inline", "cold-pool", "update-mix", "scenario-batch")

#: Every end-to-end metric is measured at the client of the service layer.
END_TO_END_LAYER = "service"

#: Per-layer metric -> (layer, end-to-end metrics it moves, on workloads).
PER_LAYER = {
    "query.parse_us": ("query", ("requests_per_s", "call_p50_ms"), ("zipf-inline",)),
    "query.core_us": ("query", ("requests_per_s", "call_p50_ms"), ("zipf-inline",)),
    "plan.canonical_key_us": ("plan", ("requests_per_s", "call_p50_ms"), ("zipf-inline",)),
    "service.coordinator_us": ("service", ("requests_per_s", "call_p50_ms"), ("zipf-inline",)),
    "service.coalesced_ratio": ("service", ("requests_per_s",), ("zipf-inline",)),
    "service.result_cache_hit_ratio": ("service", ("requests_per_s",), ("zipf-inline",)),
    "service.dispatch_us": ("service", ("requests_per_s", "cpu_ms_per_request"), ("cold-pool",)),
    "service.frame_bytes": ("service", ("requests_per_s", "cpu_ms_per_request"), ("cold-pool",)),
    "service.update_us": ("service", ("update_p50_ms",), ("update-mix",)),
    "service.retries": ("service", ("call_p90_ms",), ("cold-pool",)),
    "service.restarts": ("service", ("call_p90_ms",), ("cold-pool",)),
    "service.steals": ("service", ("requests_per_s",), ("cold-pool",)),
    "solver.solve_us": ("core.solver", ("call_p50_ms",), ("zipf-inline",)),
    "solver.cached_solve_us": ("core.solver", ("call_p50_ms",), ("zipf-inline",)),
    "plan.cache_hit_ratio": ("plan", ("call_p90_ms",), ("cold-pool",)),
    "plan.compiles": ("plan", ("call_p90_ms",), ("cold-pool",)),
    "plan.compile_ms": ("plan", ("call_p90_ms",), ("cold-pool",)),
    "plan.evaluate_exact_us": ("plan", ("requests_per_s",), ("update-mix", "cold-pool")),
    "plan.evaluate_float_us": ("plan", ("requests_per_s",), ("update-mix", "cold-pool")),
    "tape.compiles": ("tape", ("requests_per_s", "call_p50_ms"), ("scenario-batch",)),
    "tape.lower_ms": ("tape", ("requests_per_s", "call_p50_ms"), ("scenario-batch",)),
    "tape.ops": ("tape", ("requests_per_s", "call_p50_ms"), ("scenario-batch",)),
    "tape.lane_float_us": ("tape", ("requests_per_s", "call_p50_ms"), ("scenario-batch",)),
    "tape.lane_exact_us": ("tape", ("requests_per_s", "call_p50_ms"), ("scenario-batch",)),
    "tape.single_lane_us": ("tape", ("requests_per_s", "call_p50_ms"), ("scenario-batch",)),
    "approx.samples": ("approx", ("call_p90_ms",), ("cold-pool",)),
    "approx.request_ms": ("approx", ("call_p90_ms",), ("cold-pool",)),
    # 2^u worlds for each brute-force solve the service did not answer from
    # a cache: fewer solves (better caching, routing) lower it.
    "brute_force.worlds": ("probability", ("call_p90_ms",), ("cold-pool",)),
    "brute_force.request_ms": ("probability", ("call_p90_ms",), ("cold-pool",)),
    "wal.append_us": ("persist", ("update_p50_ms",), ("update-mix",)),
    "wal.bytes_per_update": ("persist", ("update_p50_ms",), ("update-mix",)),
    "store.put_us": ("persist", ("update_p50_ms",), ("update-mix",)),
    "store.get_us": ("persist", ("update_p50_ms",), ("update-mix",)),
    "obs.spans_per_request": ("obs", ("cpu_ms_per_request",), WORKLOAD_NAMES),
    "obs.trace_overhead_ratio": ("obs", ("cpu_ms_per_request",), WORKLOAD_NAMES),
    "ledger.coverage_ratio": ("obs", (), WORKLOAD_NAMES),
    "error_rate": ("service", (), WORKLOAD_NAMES),
}


def declared() -> Dict[str, dict]:
    """name -> ``{"unit", "better", "kind"}`` as ``BENCHMARK.json`` declares them."""
    contract = json.loads(BENCHMARK_JSON.read_text())
    return {
        row["name"]: {"unit": row["unit"], "better": row["better"], "kind": kind}
        for kind in ("end_to_end", "per_layer")
        for row in contract[kind]
    }


def catalogue() -> dict:
    """Every metric row, keyed by metric name."""
    rows = declared()
    for name, row in rows.items():
        if row["kind"] == "end_to_end":
            row["layer"] = END_TO_END_LAYER
        else:
            layer, moves, workloads = PER_LAYER[name]
            row.update(layer=layer, moves=list(moves), workloads=list(workloads))
    return rows


def environment(seed: int) -> dict:
    """What a reader needs to judge a run: CPUs, Python, numpy, seeds."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    nproc = os.cpu_count() or 1
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "scaling_claims_supported": nproc >= COLD_POOL_WORKERS,
    }
