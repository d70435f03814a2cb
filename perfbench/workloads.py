"""The four serving workloads of the repository benchmark.

Every workload is a pure function of its seed: the instances, the query
pools and the operation stream are drawn with ``repro.workloads``
generators from ``random.Random`` streams derived from the seed, and the
service only ever sees the generated inputs.  The operation stream is
lazy and unbounded (the run is time-bounded), but deterministic: two runs
with one seed consume the same prefix of the same stream.

Operations are plain tuples:

* ``("batch", (Request, ...))`` — one ``submit_many`` call;
* ``("update", instance_id, (source, target), "k/8")`` — one
  ``update_probability`` call;
* ``("evaluate", instance_id, query, (overrides, ...), precision)`` — one
  ``evaluate_many`` call, one lane per override mapping.

Queries travel as query-language strings (``repro.query.format_query``),
so the frontend parser is on every request's path.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.graphs.classes import GraphClass
from repro.graphs.digraph import UNLABELED
from repro.graphs.generators import DEFAULT_ALPHABET, random_disjoint_union
from repro.probability.prob_graph import ProbabilisticGraph
from repro.query import format_query
from repro.workloads.generators import (
    attach_random_probabilities,
    intractable_workload,
    make_query,
    zipf_ranks,
)

#: Serving shapes: (component class, labeled, query class, query size,
#: component size, components).  Instances are disjoint unions, so a plan
#: evaluates one component at a time (Lemma 3.7).  The Zipf shapes cover
#: the labeled DWT dynamic program (Prop 4.10), the 2WP interval dynamic
#: program (Prop 4.11) and the unlabeled polytree route (Prop 5.4).  Their
#: instances have many small components: the cost of one random component
#: varies by about 25% from seed to seed, and a run averages over them all.
ZIPF_SHAPES = (
    ("DWT", True, GraphClass.ONE_WAY_PATH, 3, 10, 8),
    ("2WP", True, GraphClass.TWO_WAY_PATH, 3, 6, 8),
    ("PT", False, GraphClass.DOWNWARD_TREE, 4, 6, 8),
)
ZIPF_INSTANCES = 12
ZIPF_POOL = 16

#: Cold-traffic shapes: labeled only (unlabeled queries collapse to a few
#: path cores), with queries long enough that the canonical key space per
#: instance (2^12 one-way paths, about 4^6 / 2 two-way paths) dwarfs the
#: number of requests a run can send.
COLD_SHAPES = (
    ("DWT", True, GraphClass.ONE_WAY_PATH, 12, 47, 3),
    ("2WP", True, GraphClass.TWO_WAY_PATH, 6, 13, 3),
)

#: The sampling contract of the salted #P-hard approx requests.
APPROX_EPSILON = 0.2
APPROX_DELTA = 0.05
HARD_INSTANCES = 4
APPROX_EVERY = 4  # hard slots

BATCH_SIZE = 16
COLD_BATCH_SIZE = 8  # cold batches are slow: enough calls for a p90
FLOAT_EVERY = 5  # one request in five is answered on the float backend


@dataclass(frozen=True)
class Request:
    """One ``submit_many`` entry, as the client holds it before the call."""

    instance_id: str
    query: str
    precision: str
    seed: Optional[int] = None  # set on approx requests only


@dataclass
class Workload:
    """A named workload: instances, service shape and an operation stream."""

    name: str
    seed: int
    instances: Dict[str, ProbabilisticGraph]
    make_ops: Callable[[], Iterator[tuple]]
    #: Leading operations sent before the clock starts (cache warm-up).
    warmup: int = 0
    num_workers: int = 0
    persistent: bool = False
    #: Instances answered by brute force / sampling (the #P-hard salt).
    hard_instances: Tuple[str, ...] = ()

    def service_options(self) -> Dict[str, object]:
        options: Dict[str, object] = {
            "num_workers": self.num_workers,
            "epsilon": APPROX_EPSILON,
            "delta": APPROX_DELTA,
        }
        if self.persistent:
            options["wal_fsync"] = "batch"
        return options


def _stream_seed(seed: int, label: str) -> random.Random:
    """An independent RNG stream per (seed, purpose)."""
    return random.Random(f"{seed}:{label}")


def _shape_instances(
    seed: int, count: int, shapes: Sequence[tuple], prefix: str, run: int = 1
) -> Tuple[Dict[str, ProbabilisticGraph], List[tuple]]:
    """``count`` instances cycling over ``shapes``, ``run`` in a row per shape."""
    instances: Dict[str, ProbabilisticGraph] = {}
    shape_of: List[tuple] = []
    for index in range(count):
        shape = shapes[(index // run) % len(shapes)]
        kind, labeled, _qclass, _qsize, component_size, components = shape
        rng = _stream_seed(seed, f"{prefix}-instance-{index}")
        alphabet = DEFAULT_ALPHABET if labeled else (UNLABELED,)
        graph = random_disjoint_union([component_size] * components, kind, alphabet, rng)
        instances[f"{prefix}{index:02d}"] = attach_random_probabilities(
            graph, rng, certain_fraction=0.2
        )
        shape_of.append(shape)
    return instances, shape_of


def _query_pool(seed: int, label: str, shape: tuple, size: int) -> List[str]:
    _kind, labeled, query_class, query_size, _size, _components = shape
    rng = _stream_seed(seed, f"{label}-pool")
    return [
        format_query(make_query(query_class, labeled, query_size, rng))
        for _ in range(size)
    ]


def _zipf_stream(
    rng: random.Random, pool: Sequence[str], skew: float
) -> Iterator[str]:
    """Endless Zipf draws from ``pool``, a chunk of ranks at a time."""
    while True:
        for rank in zipf_ranks(256, len(pool), skew, rng):
            yield pool[rank]


def _update_op(
    rng: random.Random, instances: Dict[str, ProbabilisticGraph], instance_id: str
) -> tuple:
    uncertain = instances[instance_id].uncertain_edges()
    edge = uncertain[rng.randrange(len(uncertain))]
    return ("update", instance_id, (edge.source, edge.target), f"{rng.randint(1, 7)}/8")


def _mixed_batches(
    seed: int,
    instances: Dict[str, ProbabilisticGraph],
    pools: Dict[str, List[str]],
    skew: float,
    update_every: int,
    hard: Dict[str, str],
    hard_every: int = 0,
    batch_size: int = BATCH_SIZE,
) -> Iterator[tuple]:
    """Round-robin arrival over the instances' Zipf streams, in batches.

    One request in ``FLOAT_EVERY`` is a float request.  With ``hard`` (hard
    instance id -> its query) every ``hard_every``-th slot is overwritten
    with a #P-hard request: one in ``APPROX_EVERY`` is approx under a
    pinned per-slot seed (Karp-Luby, never cached), the rest exact (brute
    force on first sight, then result-cache hits).  Slow batches thus stay
    near 5% of all, well clear of the p90.  An update precedes every
    ``update_every``-th batch, rotating over the tractable instances.
    """
    streams = {
        instance_id: _zipf_stream(_stream_seed(seed, f"zipf-{instance_id}"), pool, skew)
        for instance_id, pool in pools.items()
    }
    order = itertools.cycle(sorted(pools))
    update_rng = _stream_seed(seed, "updates")
    update_targets = itertools.cycle(sorted(pools))
    hard_ids = itertools.cycle(sorted(hard))
    slot = 0
    hard_slots = 0
    for batch_index in itertools.count():
        if update_every and batch_index % update_every == 0:
            yield _update_op(update_rng, instances, next(update_targets))
        batch: List[Request] = []
        for _ in range(batch_size):
            slot += 1
            if hard and hard_every and slot % hard_every == 0:
                hard_slots += 1
                instance_id = next(hard_ids)
                if hard_slots % APPROX_EVERY:
                    batch.append(Request(instance_id, hard[instance_id], "exact"))
                else:
                    batch.append(
                        Request(instance_id, hard[instance_id], "approx", seed=slot)
                    )
                continue
            instance_id = next(order)
            precision = "float" if slot % FLOAT_EVERY == 0 else "exact"
            batch.append(Request(instance_id, next(streams[instance_id]), precision))
        yield ("batch", tuple(batch))


def _zipf_parts(seed: int) -> Tuple[Dict[str, ProbabilisticGraph], Dict[str, List[str]]]:
    """The Zipf instances and their query pools."""
    instances, shapes = _shape_instances(seed, ZIPF_INSTANCES, ZIPF_SHAPES, "zipf")
    pools = {
        instance_id: _query_pool(seed, instance_id, shape, ZIPF_POOL)
        for instance_id, shape in zip(instances, shapes)
    }
    return instances, pools


def zipf_inline(seed: int) -> Workload:
    """The recorded serving shape: hot keys, inline service."""
    instances, pools = _zipf_parts(seed)
    return Workload(
        name="zipf-inline",
        seed=seed,
        instances=instances,
        make_ops=lambda: _mixed_batches(seed, instances, pools, 1.1, 4, {}),
        warmup=48,
    )


def update_mix(seed: int) -> Workload:
    """The Zipf instances and queries with an update before every batch."""
    instances, pools = _zipf_parts(seed)
    return Workload(
        name="update-mix",
        seed=seed,
        instances=instances,
        make_ops=lambda: _mixed_batches(seed, instances, pools, 1.1, 1, {}),
        warmup=48,
        persistent=True,
    )


def cold_pool(seed: int) -> Workload:
    """Mostly first-seen keys on a 2-worker pool, salted with #P-hard requests."""
    # Runs of two per shape: registration alternates owners, so each of the
    # two workers owns both shapes.
    instances, shapes = _shape_instances(seed, 8, COLD_SHAPES, "cold", run=2)
    pools = {
        instance_id: _query_pool(seed, instance_id, shape, 1000)
        for instance_id, shape in zip(instances, shapes)
    }
    hard: Dict[str, str] = {}
    for index in range(HARD_INSTANCES):
        workload = intractable_workload(10, _stream_seed(seed, f"hard-{index}"))
        instances[f"hard{index}"] = workload.instance
        hard[f"hard{index}"] = format_query(workload.query)
    return Workload(
        name="cold-pool",
        seed=seed,
        instances=instances,
        make_ops=lambda: _mixed_batches(
            seed, instances, pools, 0.3, 2, hard, 50, COLD_BATCH_SIZE
        ),
        num_workers=2,
        hard_instances=tuple(sorted(hard)),
    )


#: The ``evaluate_many`` call cycle of ``scenario-batch``: (lanes, precision).
SCENARIO_CYCLE = (
    (64, "float"),
    (1, "float"),
    (64, "float"),
    (1, "exact"),
    (64, "float"),
    (1, "float"),
    (64, "float"),
    (1, "exact"),
)
HOT_QUERIES = 4  # per instance
OVERRIDES_PER_LANE = 3
TABLES_PER_QUERY = 8  # override tables a lane draws from
SCENARIO_UPDATE_EVERY = 8  # calls


def scenario_batch(seed: int) -> Workload:
    """What-if batches: hot queries re-evaluated under override tables."""
    instances, pools = _zipf_parts(seed)
    rng = _stream_seed(seed, "scenario-tables")
    hot = []  # (instance id, query, override tables)
    for instance_id in sorted(pools):
        uncertain = instances[instance_id].uncertain_edges()
        for query in pools[instance_id][:HOT_QUERIES]:
            tables = [
                {
                    (edge.source, edge.target): Fraction(rng.randint(1, 15), 16)
                    for edge in rng.sample(uncertain, OVERRIDES_PER_LANE)
                }
                for _ in range(TABLES_PER_QUERY)
            ]
            hot.append((instance_id, query, tables))

    def ops() -> Iterator[tuple]:
        # One sweep over every hot query first (the warm-up), then random.
        rng = _stream_seed(seed, "scenario")
        update_rng = _stream_seed(seed, "updates")
        targets = itertools.cycle(sorted(instances))
        for call in itertools.count():
            lanes, precision = SCENARIO_CYCLE[call % len(SCENARIO_CYCLE)]
            if call % SCENARIO_UPDATE_EVERY == 0:
                yield _update_op(update_rng, instances, next(targets))
            instance_id, query, tables = (
                hot[call] if call < len(hot) else rng.choice(hot)
            )
            overrides = tuple(rng.choice(tables) for _ in range(lanes))
            yield ("evaluate", instance_id, query, overrides, precision)

    sweep = len(hot)
    return Workload(
        name="scenario-batch",
        seed=seed,
        instances=instances,
        make_ops=ops,
        warmup=sweep + -(-sweep // SCENARIO_UPDATE_EVERY),  # sweep calls + their updates
    )


WORKLOADS: Dict[str, Callable[[int], Workload]] = {
    "zipf-inline": zipf_inline,
    "cold-pool": cold_pool,
    "update-mix": update_mix,
    "scenario-batch": scenario_batch,
}
