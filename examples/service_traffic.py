#!/usr/bin/env python3
"""Serving Zipf-skewed query traffic through the parallel QueryService.

Paper concept: the engineering layer above the dichotomy — every request is
routed by the classification of Tables 1-3 (tractable cells to their
polynomial algorithms, #P-hard cells to the (ε, δ) Karp-Luby sampler), and
the serving layer adds sharding, request coalescing and result caching on
top without changing a single answer.

The example registers two probabilistic instances with a
:class:`repro.service.QueryService`, replays a Zipf-skewed traffic trace
(a few hot queries, a long tail — the shape of real query logs) in
micro-batches of mixed precision, applies a live probability update halfway
through, and finally shows a #P-hard request answered by the seeded sampler.
The printed statistics show how much of the stream never reached a solver:
duplicates coalesced before dispatch plus result-cache hits, both
answered at the coordinator.

Run with:  python examples/service_traffic.py
"""

from __future__ import annotations

from repro.graphs.classes import GraphClass
from repro.service import QueryService, ServiceRequest
from repro.workloads import (
    attach_random_probabilities,
    intractable_workload,
    make_instance,
    query_traffic_trace,
)


def build_instances():
    """Two tractable instances: a labeled ⊔DWT and a labeled ⊔2WP."""
    dwt = make_instance(GraphClass.UNION_DOWNWARD_TREE, True, 30, rng=1)
    twp = make_instance(GraphClass.UNION_TWO_WAY_PATH, True, 30, rng=2)
    return {
        "catalogue": attach_random_probabilities(dwt, rng=1),
        "event-log": attach_random_probabilities(twp, rng=2),
    }


def main() -> None:
    instances = build_instances()
    traces = {
        "catalogue": query_traffic_trace(
            60, 8, skew=1.2, query_class=GraphClass.ONE_WAY_PATH, rng=11
        ),
        "event-log": query_traffic_trace(
            60, 8, skew=1.2, query_class=GraphClass.TWO_WAY_PATH, rng=12
        ),
    }

    # num_workers=0 serves inline (same semantics, no subprocesses), which
    # keeps the example deterministic and instant; pass e.g. num_workers=4
    # to shard the instances across a real worker pool.
    with QueryService(num_workers=0, default_precision="exact") as service:
        for name, instance in instances.items():
            service.register_instance(instance, name)

        # Interleave the two streams into micro-batches of 12 requests, the
        # even positions answered on the float backend.
        requests = []
        for position, (a, b) in enumerate(
            zip(traces["catalogue"].queries(), traces["event-log"].queries())
        ):
            precision = "float" if position % 2 == 0 else "exact"
            requests.append(ServiceRequest(a, "catalogue", precision=precision))
            requests.append(ServiceRequest(b, "event-log", precision=precision))
        for start in range(0, len(requests), 12):
            batch = requests[start : start + 12]
            results = service.submit_many(batch)
            if start == 0:
                first = results[0]
                print(
                    f"first answer: Pr = {float(first):.6f} via {first.method} "
                    f"on worker {first.worker}"
                )
            if start == len(requests) // 2 // 12 * 12:
                # Halfway: a sensor reports a revised confidence. Plans
                # survive (they capture structure only); cached results for
                # the touched instance are invalidated automatically.
                edge = instances["catalogue"].uncertain_edges()[0]
                service.update_probability("catalogue", edge, "1/2")
                print(f"updated {edge} to 1/2 mid-stream")

        # A #P-hard request: the layered R.S instance of the sampling
        # benchmark. The dispatcher has no tractable route, so with
        # precision="approx" the Karp-Luby sampler answers under a pinned
        # seed — reproducibly, regardless of which worker runs it.
        hard = intractable_workload(10, rng=3)
        service.register_instance(hard.instance, "hard-cell")
        estimate = service.submit(
            hard.query, "hard-cell",
            precision="approx", epsilon=0.1, delta=0.05, seed=42,
        )
        print(f"#P-hard cell estimate: {float(estimate):.6f} ({estimate.notes})")

        stats = service.stats()
        print(
            f"served {stats.requests} requests in {stats.batches} batches: "
            f"{stats.coalesced} coalesced before dispatch "
            f"({stats.dedupe_hit_rate():.0%}), "
            f"{stats.result_cache_hits()} result-cache hits, "
            f"{stats.updates} live update"
        )
        plan_stats = stats.workers[0]["plan_cache"]
        print(
            f"worker plan cache: {plan_stats['compiles']} compiles, "
            f"{plan_stats['hits']} hits, {plan_stats['evictions']} evictions"
        )


if __name__ == "__main__":
    main()
