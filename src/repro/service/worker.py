"""Worker-side execution of the serving layer.

A :class:`WorkerState` owns everything one shard of the service needs to
answer requests fast:

* the registered instances of its shard (shipped once, kept warm — the
  frozen instance graph accumulates memoised metadata, and the solver's
  :class:`~repro.plan.PlanCache` accumulates compiled plans);
* one :class:`~repro.core.solver.PHomSolver` configured like the service;
* a small LRU *result cache* keyed on the request coalesce key, so repeated
  identical requests across batches skip even the arithmetic (invalidated
  per instance on ``update_probability``).

The same class backs both deployment shapes: :func:`worker_loop` drives it
from a child process (requests arrive on a queue, replies leave on a pipe
this worker alone writes — no cross-worker locks, so a crashed or
terminated worker can never wedge its siblings' replies), and the service's
inline mode (``num_workers=0``) calls it directly in-process.  Messages are
``(op_id, op, payload)`` tuples, pickled by the coordinator before they are
queued; every message gets exactly one reply ``(worker_index, op_id,
reply)`` where ``reply`` is ``("ok", value)`` or ``("error", message)``.
"""

from __future__ import annotations

import os
import pickle
import re
import time
import warnings
from collections import OrderedDict
from dataclasses import replace
from typing import Any, Dict, Hashable, List, Optional, Tuple

from repro.approx import ApproxParams
from repro.core.solver import PHomResult, PHomSolver, requalify_result
from repro.exceptions import ServiceError
from repro.obs.metrics import MetricsRegistry, counter_total
from repro.obs.trace import Tracer, current_tracer, set_tracer
from repro.probability.prob_graph import ProbabilisticGraph
from repro.service.faults import FaultInjector, FaultPlan
from repro.service.requests import ServiceRequest

#: Exit code of a worker killed by an injected ``kill`` fault (distinct from
#: normal termination and from the supervisor's ``terminate()``).
FAULT_KILL_EXIT_CODE = 17

#: The dichotomy routes of the latency histogram: which tier of the paper's
#: complexity map answered a request (plus the batched-tape fast path).
ROUTES = ("exact-dp", "ddnnf", "karp-luby", "tape-batch")

#: Sample counts ride back inside ``ApproxEstimate.describe()`` notes
#: ("karp-luby: 1234 samples, ε=0.05, ...") — parsed, not re-plumbed.
_SAMPLES_RE = re.compile(r"(\d+) samples")


def route_for_method(method: str) -> str:
    """Map a solver method name onto its dichotomy route.

    Sampling methods (the #P-hard tier) report as ``"karp-luby"``, d-DNNF
    style compilation (the polytree automaton) as ``"ddnnf"``, and every
    exact dynamic-programming / enumeration method as ``"exact-dp"``.
    """
    if method in PHomSolver.SAMPLING_METHODS:
        return "karp-luby"
    if method == "polytree-automaton":
        return "ddnnf"
    return "exact-dp"


class WorkerState:
    """The per-shard serving state (instances, solver, result cache)."""

    def __init__(
        self,
        worker_index: int,
        solver: PHomSolver,
        default_precision: str,
        result_cache_size: int = 1024,
        fault_injector: Optional[FaultInjector] = None,
    ) -> None:
        self.worker_index = worker_index
        self.solver = solver
        self.default_precision = default_precision
        self.result_cache_size = result_cache_size
        self.fault_injector = fault_injector
        self.instances: Dict[str, ProbabilisticGraph] = {}
        self._result_cache: "OrderedDict[Hashable, PHomResult]" = OrderedDict()
        # The telemetry registry is the single source for the serving
        # counters: stats() derives its numbers from a snapshot, so the
        # stats view and the metrics view cannot disagree.
        self.metrics = MetricsRegistry()
        self._counters = {
            name: self.metrics.counter(
                f"repro_worker_{name}_total",
                help,
            )
            for name, help in (
                ("requests", "Requests handled by this worker (per shard)."),
                ("solved", "Requests answered by running the solver."),
                ("result_cache_hits", "Requests answered from the result cache."),
                ("updates", "Probability updates applied to this shard."),
                ("batch_evals", "evaluate_many batches run on this shard."),
            )
        }
        self._latency = self.metrics.histogram(
            "repro_request_duration_ms",
            "Per-request wall time on this worker, by dichotomy route.",
            labelnames=("route",),
        )
        self._sampler_samples = self.metrics.counter(
            "repro_sampler_samples_total",
            "Karp-Luby samples drawn by this worker's samplers.",
        )
        if self.solver.plan_cache is not None:
            # Eviction hook: evicted structure is re-compilable, but knowing
            # how often it happens tells the operator the cache is undersized.
            self.solver.plan_cache.on_evict = self._on_plan_evict
        self._plans_evicted_by_instance: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------
    def register(
        self,
        instance_id: str,
        instance: Any,
        updates: Tuple = (),
    ) -> int:
        """Install (or replace) an instance; returns its edge count.

        The coordinator registers an instance only on its owner, so a
        worker holds exactly the instances it owns.  ``instance`` is a
        :class:`ProbabilisticGraph` or its pickled bytes (the coordinator
        ships its journal snapshot verbatim — serialized once, unpickled
        here — for registrations and restart replays alike); ``updates`` is
        the journal's folded ``(endpoints, probability)`` tail, applied on
        top of the snapshot.
        """
        if isinstance(instance, (bytes, bytearray)):
            instance = pickle.loads(instance)
        for endpoints, probability in updates:
            instance.set_probability(endpoints, probability)
        self.instances[instance_id] = instance
        self._invalidate_results(instance_id)
        return instance.graph.num_edges()

    def update(self, instance_id: str, endpoints: Tuple, probability) -> None:
        """Apply one probability update and drop the instance's cached results."""
        instance = self._instance(instance_id)
        instance.set_probability(endpoints, probability)
        self._counters["updates"].inc()
        self._invalidate_results(instance_id)

    def warm(self, instance_id: str) -> int:
        """Pre-load the instance's stored plans into the plan cache.

        Only meaningful when the solver carries a persistent plan tier
        (:class:`~repro.persist.PersistentPlanCache`); without one, warming
        is a no-op returning 0.  Returns the number of plans loaded from
        disk (loaded — not compiled: warm restarts must recompile nothing).
        """
        instance = self._instance(instance_id)
        cache = self.solver.plan_cache
        if cache is None or not hasattr(cache, "warm"):
            return 0
        return cache.warm(instance)

    def evaluate_many(
        self,
        instance_id: str,
        query: Any,
        batches: List,
        precision: Optional[str] = None,
    ) -> List:
        """Answer many probability valuations of one query in one pass.

        Compiles (or reuses) the query's plan and its flat tape through the
        shard solver, then runs the batched tape evaluator — the serving
        fast path for "same plan, many drifted probability tables".
        ``batches`` entries are override mappings keyed by edge endpoints
        (``None``/``{}`` for the live table).  ``precision`` defaults to the
        service's default precision; sampling ("approx") has no batched
        tape, so it is rejected by the solver.
        """
        instance = self._instance(instance_id)
        if precision is None:
            precision = self.default_precision
        self._counters["batch_evals"].inc()
        start = time.perf_counter()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            values = self.solver.evaluate_many(
                query, instance, batches, precision=precision
            )
        self._latency.labels("tape-batch").observe(
            (time.perf_counter() - start) * 1000.0
        )
        return values

    def solve_batch(
        self, requests: List[ServiceRequest]
    ) -> List[Tuple[str, Any]]:
        """Answer a batch of (already coalesced) requests.

        Returns one outcome per request, in order:
        ``("ok", result, cached, duration_ms, timing)`` or
        ``("error", message)`` — a failing request never poisons the rest
        of the batch.  ``duration_ms`` is always measured; ``timing`` is
        the per-phase span breakdown (``None`` unless the request ran
        under an active trace).
        """
        outcomes: List[Tuple[str, Any]] = []
        tracer = current_tracer()
        for request in requests:
            self._counters["requests"].inc()
            start = time.perf_counter()
            mark = tracer.mark()
            try:
                if self.fault_injector is not None and (
                    self.fault_injector.take_solver_error()
                ):
                    raise ServiceError(
                        "injected solver fault (FaultPlan 'solver-error')"
                    )
                with tracer.span("worker.solve") as span:
                    result, cached = self._solve_one(request)
                    if span:
                        span.attrs = {
                            "worker": self.worker_index,
                            "instance": request.instance_id,
                            "method": result.method,
                            "cached": cached,
                        }
                duration_ms = (time.perf_counter() - start) * 1000.0
                self._observe(result, cached, duration_ms)
                if span and cached:
                    # A cache hit runs no sub-phases: its whole breakdown is
                    # the solve span itself, no ring scan needed.
                    timing: Optional[Dict[str, float]] = {
                        "worker.solve": span.duration_ms
                    }
                else:
                    timing = tracer.phase_totals(mark) or None
                outcomes.append(("ok", result, cached, duration_ms, timing))
            except Exception as exc:  # noqa: BLE001 - a bad request (wrong
                # types included) must fail *that request*, never the batch
                # or the worker process.
                outcomes.append(("error", f"{type(exc).__name__}: {exc}"))
        return outcomes

    def _observe(self, result: PHomResult, cached: bool, duration_ms: float) -> None:
        """Fold one answered request into the route histogram and counters."""
        self._latency.labels(route_for_method(result.method)).observe(duration_ms)
        if not cached and result.method in PHomSolver.SAMPLING_METHODS:
            match = _SAMPLES_RE.search(result.notes or "")
            if match:
                self._sampler_samples.inc(int(match.group(1)))

    def stats(self) -> Dict[str, Any]:
        """Serving counters plus the per-worker plan-cache statistics.

        The counter values are read back from the telemetry registry's
        snapshot (which also rides along under the ``"metrics"`` key), so
        the stats view and the metrics view are two renderings of the same
        numbers and cannot drift apart.
        """
        plan_stats = (
            dict(self.solver.plan_cache.stats)
            if self.solver.plan_cache is not None
            else None
        )
        snapshot = self.metrics.snapshot()
        return {
            "worker": self.worker_index,
            "instances": sorted(self.instances),
            "plan_cache": plan_stats,
            "plan_evictions_by_instance": dict(self._plans_evicted_by_instance),
            "result_cache_size": len(self._result_cache),
            "result_cache_capacity": self.result_cache_size,
            "metrics": snapshot,
            **{
                name: int(counter_total(snapshot, f"repro_worker_{name}_total"))
                for name in self._counters
            },
        }

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _instance(self, instance_id: str) -> ProbabilisticGraph:
        try:
            return self.instances[instance_id]
        except KeyError:
            raise ServiceError(
                f"instance {instance_id!r} is not registered on worker "
                f"{self.worker_index}"
            ) from None

    def _solve_one(self, request: ServiceRequest) -> Tuple[PHomResult, bool]:
        instance = self._instance(request.instance_id)
        cacheable = (
            self.result_cache_size > 0 and request.cacheable(self.default_precision)
        )
        key = request.coalesce_key(self.default_precision) if cacheable else None
        if key is not None:
            hit = self._result_cache.get(key)
            if hit is not None:
                self._result_cache.move_to_end(key)
                self._counters["result_cache_hits"].inc()
                # Hand out a copy so callers mutating a result cannot poison
                # the cache (PHomResult is a mutable dataclass), re-described
                # for this request's spelling (the cache key is the query
                # *core*, so the hit may come from an equivalent query with
                # a different class and minimization provenance).
                return (
                    requalify_result(
                        replace(hit),
                        request.query,
                        # only auto requests ran the minimizing route (and
                        # only their cache keys merge spellings), so only
                        # they may carry minimization provenance
                        self.solver.minimize_queries and request.method == "auto",
                    ),
                    True,
                )
        result = self._dispatch(request, instance)
        self._counters["solved"].inc()
        if key is not None:
            self._result_cache[key] = replace(result)
            while len(self._result_cache) > self.result_cache_size:
                self._result_cache.popitem(last=False)
        return result, False

    def _dispatch(
        self, request: ServiceRequest, instance: ProbabilisticGraph
    ) -> PHomResult:
        solver = self.solver
        needs_params = request.may_sample(self.default_precision)
        saved = solver.approx_params
        if needs_params:
            # Per-request sampling fields override the service-level contract
            # (carried here by the solver prototype); unset fields inherit it.
            solver.approx_params = ApproxParams(
                epsilon=request.epsilon if request.epsilon is not None else saved.epsilon,
                delta=request.delta if request.delta is not None else saved.delta,
                seed=request.seed if request.seed is not None else saved.seed,
            )
        try:
            with warnings.catch_warnings():
                # Brute-force fallbacks are a per-request property; the
                # result's notes field already records them, so the warning
                # must not leak to the service process's stderr per request.
                warnings.simplefilter("ignore")
                return solver.solve(
                    request.query,
                    instance,
                    method=request.method,
                    precision=request.resolved_precision(self.default_precision),
                )
        finally:
            if needs_params:
                solver.approx_params = saved

    def _invalidate_results(self, instance_id: str) -> None:
        stale = [key for key in self._result_cache if key[0] == instance_id]
        for key in stale:
            del self._result_cache[key]

    def _on_plan_evict(self, key, plan) -> None:
        # The cache key pairs the canonical query form with id(instance);
        # resolve the id back to the registered name when possible.
        for name, instance in self.instances.items():
            if instance is plan.instance:
                self._plans_evicted_by_instance[name] = (
                    self._plans_evicted_by_instance.get(name, 0) + 1
                )
                return


def handle_message(state: WorkerState, op: str, payload: Any) -> Tuple[str, Any]:
    """Dispatch one protocol message against a worker state."""
    try:
        if op == "solve":
            # ``(requests, trace_context)``: the context is the remote
            # ``(trace_id, span_id)`` pair of a traced dispatch, else None.
            requests, trace_context = payload
            tracer = current_tracer()
            token = tracer.adopt(trace_context)
            try:
                return ("ok", state.solve_batch(requests))
            finally:
                tracer.release(token)
        if op == "register":
            instance_id, instance, *updates = payload
            return ("ok", state.register(instance_id, instance, *updates))
        if op == "update":
            instance_id, endpoints, probability = payload
            state.update(instance_id, endpoints, probability)
            return ("ok", None)
        if op == "evaluate_many":
            instance_id, query, batches, precision = payload
            return ("ok", state.evaluate_many(instance_id, query, batches, precision))
        if op == "warm":
            return ("ok", state.warm(payload))
        if op == "stats":
            return ("ok", state.stats())
        return ("error", f"unknown service op {op!r}")
    except Exception as exc:  # noqa: BLE001 - malformed payloads must come
        # back as protocol errors, not kill the worker.
        return ("error", f"{type(exc).__name__}: {exc}")


def worker_loop(
    worker_index: int,
    request_queue,
    reply_pipe,
    solver: PHomSolver,
    default_precision: str,
    result_cache_size: int,
    fault_plan: Optional[FaultPlan] = None,
    incarnation: int = 0,
    trace_enabled: bool = False,
) -> None:
    """Entry point of a worker process: serve messages until ``None`` arrives.

    The solver arrives through the pickling contract of
    :class:`~repro.core.solver.PHomSolver` (configuration only, fresh plan
    cache), so every worker starts cold and warms its own shard.

    ``reply_pipe`` is this incarnation's private write end — one writer per
    pipe, so replies need no cross-process lock and this worker's death
    (even mid-send) cannot block any other worker's replies.

    ``fault_plan`` (chaos builds only) injects deterministic misbehaviour:
    ``incarnation`` counts respawns of this worker index, so a non-``repeat``
    fault fires only on the first life while ``repeat`` faults re-arm on
    every respawn.

    ``trace_enabled`` installs an adoption-only :class:`~repro.obs.trace.Tracer`
    (``sample_rate=0.0`` — the worker records exactly the work whose request
    frame carried a trace context); finished spans piggyback on the reply
    frame as a fourth element, so tracing adds no extra pipe traffic.
    """
    injector = (
        fault_plan.for_worker(worker_index, incarnation)
        if fault_plan is not None
        else None
    )
    # Install this process's tracer unconditionally: under a ``fork`` start
    # method the child would otherwise inherit the coordinator's tracer —
    # sink handle, sampling RNG and all.
    tracer = Tracer(sample_rate=0.0) if trace_enabled else None
    set_tracer(tracer)
    state = WorkerState(
        worker_index,
        solver,
        default_precision,
        result_cache_size=result_cache_size,
        fault_injector=injector,
    )
    while True:
        message = request_queue.get()
        if message is None:
            break
        # The coordinator pickles each op itself (see QueryService._send).
        op_id, op, payload = pickle.loads(message)
        drop_reply = False
        corrupt_reply = False
        if injector is not None:
            for fault in injector.on_message():
                if fault.kind == "kill":
                    # Die *before* handling, like a segfault: the message is
                    # lost and no reply is ever sent.  os._exit skips every
                    # cleanup handler, matching a hard crash.
                    os._exit(FAULT_KILL_EXIT_CODE)
                elif fault.kind == "delay":
                    time.sleep(fault.seconds)
                elif fault.kind == "drop":
                    drop_reply = True
                elif fault.kind == "corrupt":
                    corrupt_reply = True
        try:
            reply = handle_message(state, op, payload)
        except Exception as exc:  # noqa: BLE001 - the process must survive
            # and reply, or the client blocks for its full timeout.
            reply = ("error", f"{type(exc).__name__}: {exc}")
        if drop_reply:
            continue
        if corrupt_reply and injector is not None:
            # A well-pickled frame whose *shape* is garbage: the coordinator's
            # protocol validation rejects it and treats the worker as broken.
            frame = (worker_index, op_id, injector.corrupt_bytes())
        else:
            frame = (worker_index, op_id, reply)
            if tracer is not None:
                spans = tracer.drain()
                if spans:
                    # Piggyback the finished spans on the reply frame; a
                    # worker that dies before sending loses them with the
                    # reply itself, which is exactly the retried case the
                    # coordinator closes on its side.
                    frame = (worker_index, op_id, reply, spans)
        try:
            reply_pipe.send(frame)
        except (BrokenPipeError, OSError):  # pragma: no cover - the
            # coordinator closed this incarnation's pipe (restart/shutdown);
            # nobody will read another reply, so exit quietly.
            break
    try:
        reply_pipe.close()
    except Exception:  # pragma: no cover - teardown race
        pass
