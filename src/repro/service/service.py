"""The parallel query-serving layer: :class:`QueryService`.

``QueryService`` turns the single-process solving stack — batch solving
(:meth:`~repro.core.solver.PHomSolver.solve_many`), compiled plans
(:mod:`repro.plan`) and the ``(ε, δ)`` samplers (:mod:`repro.approx`) — into
one servable system:

* **Sharding by ownership.**  Every registered instance is *owned* by
  exactly one worker process — assigned least-loaded at registration time,
  so K instances always spread over ``min(K, num_workers)`` workers — and
  every request on it goes to that owner, so the owner's frozen instance
  graph, memoised metadata and compiled-plan cache stay warm across the
  whole request stream.  Each op is pickled once, on the
  calling thread, before it is tracked: a payload that cannot cross the
  process boundary fails at once with a typed error.
* **Request coalescing.**  Duplicate requests — same instance, same
  canonical query form (:func:`repro.plan.canonical_query_key`), same
  options — are detected *before* dispatch; each distinct computation runs
  once per batch and its duplicates receive copies, extending the
  ``solve_many`` dedupe across instances and worker boundaries.
* **One result cache, before sharding.**  An LRU keyed on the instance's
  epoch and the coalesce key answers repeats across batches at the
  coordinator, so a hit never reaches a worker.  Workers only compute.
* **Mixed precision per request.**  Every request chooses ``exact`` /
  ``float`` / ``approx`` independently; sampled answers carry their
  ``(ε, δ, seed)`` contract, and a pinned seed reproduces the estimate bit
  for bit no matter which worker runs it.
* **Live updates.**  :meth:`QueryService.update_probability` applies a
  single-edge probability change on the owning worker (and on the caller's
  registered instance object, keeping both views consistent); compiled plans
  survive — they capture structure only — and the update bumps the
  instance's epoch, so its cached results are never matched again.

``num_workers=0`` runs the identical serving logic inline (no processes),
which is the zero-overhead mode for tests, small workloads and single-core
machines.
"""

from __future__ import annotations

import itertools
import multiprocessing
import multiprocessing.connection
import os
import pickle
import random
import time
import warnings
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Dict, Hashable, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.approx import ApproxParams
from repro.core.solver import PHomResult, PHomSolver, requalify_result
from repro.exceptions import (
    ClassConstraintError,
    DeadlineExceededError,
    QueryParseError,
    ReproError,
    ServiceError,
    ServiceUnavailableError,
)
from repro.graphs.digraph import DiGraph, Edge
from repro.obs.metrics import MetricsRegistry, counter_total, counter_value, merge_snapshots
from repro.obs.trace import NULL_TRACER, Span, Tracer, set_tracer
from repro.persist import PlanStore, WriteAheadLog
from repro.probability.prob_graph import ProbabilisticGraph
from repro.query.minimize import validate_query_graph
from repro.service.faults import DiskFaultInjector, FaultPlan, epsilon_for_budget
from repro.service.requests import ServiceRequest, ServiceResult
from repro.service.worker import WorkerState, handle_message, worker_loop

RequestLike = Union[ServiceRequest, Tuple[DiGraph, Any]]

#: Cap on :attr:`QueryService.restart_log` entries kept in memory; older
#: entries are dropped (the total is still counted in ``stats().restarts``).
RESTART_LOG_LIMIT = 256

#: Write-ahead-log appends between automatic compactions of the durable
#: state (folding last-write-wins updates into fresh snapshots).
WAL_COMPACT_AFTER = 4096

#: Distinct updated edges an instance journal holds before it folds them
#: into a fresh snapshot, so the in-memory journal stays bounded under
#: sustained updates (the durable log compacts on its own cadence,
#: ``WAL_COMPACT_AFTER`` appends).
JOURNAL_FOLD_AFTER = 256

#: Granularity (seconds) of the supervision loop's liveness, deadline and
#: backoff checks while it waits for replies.
POLL_INTERVAL = 0.05

#: Cap (seconds) on the exponential backoff between retry dispatches.
BACKOFF_CAP = 1.0

#: Cap on :attr:`QueryService.slow_queries` entries kept in memory; older
#: entries are dropped, newest last.
SLOW_QUERY_LOG_LIMIT = 256

#: The service-level counters (``repro_service_<name>_total`` in the
#: telemetry registry), read back into :class:`ServiceStats`.
_SERVICE_COUNTERS = (
    ("requests", "Normalisable requests submitted."),
    ("rejected", "Requests that failed normalization."),
    ("batches", "submit_many calls."),
    ("result_cache_hits", "Distinct computations answered from the result cache."),
    ("updates", "Probability updates applied."),
    ("restarts", "Worker processes respawned."),
    ("retries", "Request re-dispatches after a worker failure."),
    ("deadline_hits", "Requests that missed their deadline."),
    ("degraded", "Deadline misses answered by the approximate tier."),
)


@dataclass
class ServiceStats:
    """A snapshot of serving statistics.

    ``requests`` counts every *normalisable* request submitted (entries that
    fail normalization under ``on_error="return"`` are counted in
    ``rejected`` instead, so they cannot skew :meth:`dedupe_hit_rate`);
    ``dispatched`` counts the distinct computations left after coalescing
    (each labelled by its instance's owner, result-cache hits included), so
    ``coalesced == requests - dispatched`` duplicates never crossed the
    dispatch boundary.  ``cache_hits`` (read through
    :meth:`result_cache_hits`) counts the distinct computations the
    coordinator's result cache answered, which never reach a worker, so a
    worker row's ``requests`` counts only what that worker computed.
    ``workers`` holds one per-worker dictionary — keyed
    by its ``"worker"`` index, in index order — with the worker's serving
    counters, its instances, its plan-cache statistics (hits, misses,
    compiles, evictions — see :attr:`repro.plan.PlanCache.stats`), its
    telemetry snapshot (under ``"metrics"``) and its share of the
    coordinator's ``dispatched`` counter, so an idle shard is visible as
    that worker's zeroed counters rather than as an anonymous entry.  Every
    number is read back from the telemetry registries (see
    :meth:`QueryService.stats`), so the pool totals always equal the sum of
    the per-worker rows.

    The reliability counters record supervision activity: ``restarts``
    (worker processes respawned after a crash or hang), ``retries``
    (request re-dispatches onto a fresh incarnation), ``deadline_hits``
    (requests that missed their ``deadline_ms``) and ``degraded``
    (deadline misses answered through the approximate tier).
    """

    requests: int = 0
    rejected: int = 0
    dispatched: int = 0
    coalesced: int = 0
    cache_hits: int = 0
    batches: int = 0
    updates: int = 0
    restarts: int = 0
    retries: int = 0
    deadline_hits: int = 0
    degraded: int = 0
    #: Always 0, as every request runs on its owner; perfbench's ledger reads it.
    steals: int = 0
    workers: List[Dict[str, Any]] = field(default_factory=list)

    def dedupe_hit_rate(self) -> float:
        """Fraction of submitted requests answered by coalescing alone."""
        if self.requests == 0:
            return 0.0
        return self.coalesced / self.requests

    def result_cache_hits(self) -> int:
        """Distinct computations answered from the service's result cache."""
        return self.cache_hits


class _InstanceJournal:
    """The coordinator's record of one instance: a snapshot plus updates.

    ``snapshot`` is the instance pickled at registration (or at the last
    fold); ``updates`` holds the probability updates applied since, last
    write wins per edge.  Replaying ``snapshot + updates`` reconstructs the
    worker-side state exactly — including its isolation from direct
    mutations of the caller's instance object.  No other code reads the
    format: worker registrations and restarts take
    :meth:`register_payload`, the durable log :meth:`folded_snapshot` and
    the degrade tier :meth:`current`.
    """

    def __init__(self, snapshot: bytes) -> None:
        self.snapshot = snapshot
        self.updates: "OrderedDict[Tuple, Any]" = OrderedDict()
        # The degrade tier's rebuilt instance, dropped on every update.
        self._current: Optional[ProbabilisticGraph] = None

    def record(self, endpoints: Tuple, probability: Any) -> None:
        """Journal one update, folding at ``JOURNAL_FOLD_AFTER`` distinct edges."""
        # Replay order only matters per edge, so re-updating an edge moves
        # it to the tail instead of growing the journal.
        self.updates[endpoints] = probability
        self.updates.move_to_end(endpoints)
        self._current = None
        if len(self.updates) >= JOURNAL_FOLD_AFTER:
            self.snapshot = self.folded_snapshot()
            self.updates.clear()

    def rebuild(self) -> ProbabilisticGraph:
        """A fresh worker-view instance: the snapshot with the updates applied."""
        instance = pickle.loads(self.snapshot)
        for endpoints, probability in self.updates.items():
            instance.set_probability(endpoints, probability)
        return instance

    def folded_snapshot(self) -> bytes:
        """The journaled state as one snapshot, with no updates to replay."""
        return pickle.dumps(self.rebuild()) if self.updates else self.snapshot

    def current(self) -> ProbabilisticGraph:
        """The rebuilt instance, kept until the next update."""
        if self._current is None:
            self._current = self.rebuild()
        return self._current

    def register_payload(self, instance_id: str) -> Tuple:
        """The worker's ``register`` payload: the journal bytes, untouched."""
        return (instance_id, self.snapshot, tuple(self.updates.items()))


def replay_journals(records: Iterable[Any]) -> "OrderedDict[str, _InstanceJournal]":
    """Fold write-ahead log records into one journal per instance.

    A later registration supersedes everything before it, and updates go
    through :meth:`_InstanceJournal.record`, exactly like live ones.
    Unknown record shapes are skipped, not fatal, and so are non-string
    ids, which older logs may hold.  Both a restarting
    :class:`QueryService` and ``repro store compact`` fold a log here.
    """
    journals: "OrderedDict[str, _InstanceJournal]" = OrderedDict()
    for record in records:
        if not (isinstance(record, tuple) and len(record) >= 2):
            continue
        kind, instance_id = record[0], record[1]
        if not isinstance(instance_id, str):
            continue
        if kind == "register" and len(record) == 3:
            journals.pop(instance_id, None)
            journals[instance_id] = _InstanceJournal(record[2])
        elif kind == "update" and len(record) == 4 and instance_id in journals:
            journals[instance_id].record(record[2], record[3])
    return journals


def compaction_records(journals: Mapping[str, _InstanceJournal]) -> List[Tuple]:
    """The compacted log: one registration with a folded snapshot per instance."""
    return [
        ("register", instance_id, journal.folded_snapshot())
        for instance_id, journal in journals.items()
    ]


@dataclass
class _PendingOp:
    """One in-flight worker op tracked by the supervision loop.

    ``attempts`` counts dispatches so far (1 = first try); ``retry_at`` is
    the monotonic instant a backed-off retry becomes due (``None`` while the
    op is genuinely in flight); ``deadline`` is the monotonic instant the
    op's request budget expires; ``history`` accumulates one line per failed
    attempt for :class:`~repro.exceptions.ServiceUnavailableError` notes.
    """

    op_id: int
    worker: int
    op: str
    payload: Any
    created_at: float
    sent_at: float
    attempts: int = 1
    retry_at: Optional[float] = None
    deadline: Optional[float] = None
    history: List[str] = field(default_factory=list)
    #: The root span's ``(trace_id, span_id)`` when the op's batch is being
    #: traced — each dispatch *attempt* gets its own detached span under it.
    trace_parent: Optional[Tuple[str, str]] = None


class QueryService:
    """A parallel, deduplicating front end over the PHom solving stack.

    Parameters
    ----------
    num_workers:
        Size of the worker-process pool.  ``0`` serves inline in the calling
        process (no subprocesses, same semantics); ``None`` picks
        ``min(4, cpu_count)``.
    default_precision:
        Precision applied to requests that do not choose one
        (``"exact"`` / ``"float"`` / ``"approx"``).
    allow_brute_force / prefer / plan_cache_size / epsilon / delta / seed:
        Forwarded to each worker's :class:`~repro.core.solver.PHomSolver`.
    result_cache_size:
        Capacity of the service's result cache, an LRU of answers keyed on
        the instance's epoch and the coalesce key (``0`` disables result
        caching; coalescing within a batch still applies).
    timeout:
        Seconds without a reply before a worker is declared unresponsive.
        An unresponsive (or dead) worker is restarted, its shard state is
        replayed from the coordinator journal, and its in-flight requests
        are retried on the fresh incarnation.
    max_retries:
        Re-dispatches allowed per request after a worker failure before the
        request fails with :class:`~repro.exceptions.ServiceUnavailableError`
        (so a request is attempted at most ``1 + max_retries`` times).
    backoff_base:
        Capped exponential backoff between retry dispatches, in seconds:
        attempt ``k`` waits ``min(BACKOFF_CAP, base * 2**(k-1))`` scaled by
        a seeded jitter factor in ``[0.5, 1.0)``.
    fault_plan:
        Optional :class:`~repro.service.faults.FaultPlan` shipped to every
        worker incarnation — the chaos-testing hook; ``None`` in production.
        Disk-fault kinds in the plan are threaded through the persistence
        write path (see :class:`~repro.service.faults.DiskFaultInjector`)
        and only take effect together with ``state_dir``.
    state_dir:
        Optional directory of durable state (:mod:`repro.persist`).  When
        given, every acknowledged registration and probability update is
        appended to a write-ahead log under ``<state_dir>/wal`` before the
        call returns, compiled plans are written through to a checksummed
        store under ``<state_dir>/plans``, and *startup replays the log*:
        the instance journal is restored, every restored instance is
        re-registered with its owning worker, and the workers pre-load the
        instances' stored plans — a warm restart recompiles nothing.  The
        :attr:`recovery` attribute reports what startup found.
    wal_fsync:
        The write-ahead log's durability policy: ``"always"`` fsyncs every
        append, ``"batch"`` (default) flushes per append and fsyncs on
        compaction and close, ``"never"`` leaves flushing to the OS.
    trace_sample_rate:
        Probability that one ``submit_many`` call is traced end to end
        (``0.0``, the default, disables tracing entirely — the hooks hit a
        no-op tracer and allocate nothing).  A traced call opens a root
        span, ships its context to the workers inside the request frames,
        and folds the workers' spans (piggybacked on their reply frames)
        back into one trace.
    trace_path:
        Optional JSONL sink for finished spans (rendered by
        ``repro trace``); without it, spans stay in the tracer's in-memory
        ring buffer.
    slow_query_ms:
        Optional threshold (milliseconds of worker-side solve time) above
        which a request is recorded in :attr:`slow_queries` with its
        dispatch provenance; ``None`` disables the slow-query log.
    """

    def __init__(
        self,
        num_workers: Optional[int] = None,
        *,
        default_precision: str = "exact",
        allow_brute_force: bool = True,
        prefer: str = "dp",
        plan_cache_size: int = 128,
        result_cache_size: int = 1024,
        epsilon: float = 0.05,
        delta: float = 0.01,
        seed: Optional[int] = None,
        timeout: float = 300.0,
        max_retries: int = 2,
        backoff_base: float = 0.05,
        fault_plan: Optional[FaultPlan] = None,
        state_dir: Optional[str] = None,
        wal_fsync: str = "batch",
        trace_sample_rate: float = 0.0,
        trace_path: Optional[str] = None,
        slow_query_ms: Optional[float] = None,
    ) -> None:
        if default_precision not in ("exact", "float", "approx"):
            raise ServiceError(
                f"unknown default precision {default_precision!r}"
            )
        if num_workers is None:
            num_workers = min(4, os.cpu_count() or 1)
        if num_workers < 0:
            raise ServiceError(f"num_workers must be >= 0, got {num_workers}")
        self.num_workers = num_workers
        self.default_precision = default_precision
        #: The service-level sampling contract, inherited by requests that
        #: leave epsilon / delta / seed unset.
        self.default_epsilon = epsilon
        self.default_delta = delta
        self.default_seed = seed
        self.timeout = timeout
        if max_retries < 0:
            raise ServiceError(f"max_retries must be >= 0, got {max_retries}")
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.fault_plan = fault_plan
        self.state_dir = state_dir
        #: Appends rejected by the disk (ENOSPC and friends) — each one is a
        #: state change that stayed in memory but lost durability.
        self.wal_errors = 0
        self._wal: Optional[WriteAheadLog] = None
        self._plan_store: Optional[PlanStore] = None
        #: Startup recovery report (``None`` without ``state_dir``): the
        #: write-ahead log's :class:`~repro.persist.WalRecovery` plus how
        #: many instances were restored and how many stored plans the
        #: workers pre-loaded.
        self.recovery: Optional[Dict[str, Any]] = None
        self._disk_faults = (
            DiskFaultInjector(fault_plan)
            if fault_plan is not None and state_dir is not None
            else None
        )
        if state_dir is not None:
            if os.path.exists(state_dir) and not os.path.isdir(state_dir):
                raise ServiceError(f"state_dir {state_dir!r} is not a directory")
            os.makedirs(state_dir, exist_ok=True)
            self._plan_store = PlanStore(
                os.path.join(state_dir, "plans"), fault_injector=self._disk_faults
            )
            self._wal = WriteAheadLog(
                os.path.join(state_dir, "wal"),
                fsync=wal_fsync,
                fault_injector=self._disk_faults,
            )
        self._closed = False
        self._instances: Dict[str, ProbabilisticGraph] = {}
        self._ids_by_identity: Dict[int, str] = {}
        self._journal: Dict[str, _InstanceJournal] = {}
        self._degrade_solver: Optional[PHomSolver] = None
        self._next_instance = itertools.count()
        self._next_op = itertools.count()
        # The ownership map: instance id -> owning worker, assigned
        # least-loaded and stable for the id's lifetime.
        self._assignment: Dict[str, int] = {}
        # The coordinator's telemetry registry is the single source of the
        # service-level counters: stats() reads them back from one snapshot,
        # so the ServiceStats totals and the per-worker rows cannot disagree
        # (``dispatched`` is labeled by worker and summed for the total).
        self.metrics = MetricsRegistry()
        self._counters = {
            name: self.metrics.counter(f"repro_service_{name}_total", help)
            for name, help in _SERVICE_COUNTERS
        }
        self._dispatched = self.metrics.counter(
            "repro_service_dispatched_total",
            "Distinct computations dispatched after coalescing, by worker.",
            labelnames=("worker",),
        )
        self._batch_latency = self.metrics.histogram(
            "repro_service_batch_ms",
            "submit_many wall time at the coordinator.",
        )
        # Tracing: a sampling tracer installed process-wide (the library
        # hooks report to it) while this service lives; NULL_TRACER when
        # disabled, so every hook stays allocation-free.
        self.trace_sample_rate = trace_sample_rate
        self.slow_query_ms = slow_query_ms
        #: Newest-last ring of slow-request records (see ``slow_query_ms``).
        self.slow_queries: List[Dict[str, Any]] = []
        self._tracer: Any = NULL_TRACER
        self._previous_tracer: Any = None
        self._op_spans: Dict[int, Span] = {}
        if trace_sample_rate > 0.0:
            self._tracer = Tracer(
                sample_rate=trace_sample_rate,
                sink_path=trace_path,
                seed=seed if seed is not None else 0,
            )
            self._previous_tracer = set_tracer(self._tracer)
        #: One dict per worker restart (worker, incarnation, reason,
        #: duration_s, instances_replayed) — the raw data behind the
        #: ``service_recovery`` benchmark section.
        self.restart_log: List[Dict[str, Any]] = []
        # Reply bookkeeping: op_ids whose reply must be discarded on arrival
        # (deadline-abandoned requests / fire-and-forget journal replays),
        # mapped to the worker they were sent to so restarts can prune them.
        self._discard: Dict[int, int] = {}
        # Seeded jitter so chaos runs back off identically run to run.
        self._backoff_rng = random.Random(seed if seed is not None else 0)
        # The result cache: answers keyed on (instance epoch, coalesce key).
        # An update or a replacing registration bumps the instance's epoch,
        # so stale entries are never matched and age out of the LRU.
        self._result_cache_size = result_cache_size
        self._results: "OrderedDict[Tuple[int, Hashable], PHomResult]" = OrderedDict()
        self._epochs: Dict[str, int] = {}
        self._make_solver = partial(
            PHomSolver,
            allow_brute_force=allow_brute_force,
            prefer=prefer,
            precision=default_precision,
            plan_cache_size=plan_cache_size,
            epsilon=epsilon,
            delta=delta,
            seed=seed,
            plan_store=self._plan_store,
        )
        if num_workers == 0:
            self._inline: Optional[WorkerState] = WorkerState(
                0,
                self._make_solver(),
                default_precision,
                fault_injector=(
                    fault_plan.for_worker(0, 0) if fault_plan is not None else None
                ),
            )
            self._processes: List = []
            self._queues: List = []
            self._readers: List = []
            self._incarnations: List[int] = []
            self._recover_from_state()
            return
        self._inline = None
        methods = multiprocessing.get_all_start_methods()
        self._context = multiprocessing.get_context(
            "fork" if "fork" in methods else methods[0]
        )
        self._queues = [self._context.Queue() for _ in range(num_workers)]
        # One reply pipe per worker incarnation, never shared: a worker
        # terminated mid-send can wedge only its own channel (discarded on
        # restart), unlike a shared result queue whose write lock would die
        # held and deadlock every surviving worker.
        self._readers: List[Optional[Any]] = [None] * num_workers
        self._processes = []
        self._incarnations = [0] * num_workers
        for index in range(num_workers):
            self._processes.append(self._spawn_worker(index))
        self._recover_from_state()

    def _spawn_worker(self, index: int):
        """Start one worker process for the current incarnation of ``index``.

        Each incarnation gets a fresh reply pipe; the parent drops its copy
        of the write end so a dead worker reads as EOF, not as silence.
        """
        reader, writer = self._context.Pipe(duplex=False)
        process = self._context.Process(
            target=worker_loop,
            args=(
                index,
                self._queues[index],
                writer,
                self._make_solver(),
                self.default_precision,
                self.fault_plan,
                self._incarnations[index],
                self.trace_sample_rate > 0.0,
            ),
            daemon=True,
        )
        process.start()
        writer.close()
        self._readers[index] = reader
        return process

    # ------------------------------------------------------------------
    # durable state
    # ------------------------------------------------------------------
    def _recover_from_state(self) -> None:
        """Replay the write-ahead log and warm the workers from the store.

        Runs once, at the end of ``__init__`` (after the worker pool — or
        the inline state — exists).  Replay folds the log into per-instance
        journals (:func:`replay_journals`), re-registers each restored
        instance with its owning worker, and asks that worker to pre-load
        the instance's stored plans.  The result is recorded in
        :attr:`recovery`.
        """
        if self._wal is None:
            return
        journals = replay_journals(self._wal.replay())
        restored = 0
        warmed = 0
        highest_numbered = -1
        for instance_id, journal in journals.items():
            instance = journal.rebuild()
            self._journal[instance_id] = journal
            self._instances[instance_id] = instance
            self._ids_by_identity[id(instance)] = instance_id
            worker = self._worker_for(instance_id)
            self._call(worker, "register", journal.register_payload(instance_id))
            warmed += self._call(worker, "warm", instance_id)
            restored += 1
            # Keep auto-generated ids ("instance-N") unique across restarts.
            if instance_id.startswith("instance-"):
                suffix = instance_id[len("instance-") :]
                if suffix.isdigit():
                    highest_numbered = max(highest_numbered, int(suffix))
        if highest_numbered >= 0:
            self._next_instance = itertools.count(highest_numbered + 1)
        self.recovery = {
            "wal": self._wal.recovery,
            "instances_restored": restored,
            "plans_warmed": warmed,
        }

    def _wal_append(self, record: Tuple) -> None:
        """Append one state change to the write-ahead log (if configured).

        A failing disk (ENOSPC — injected or real) degrades instead of
        crashing: the state change stays applied in memory and on the
        workers, the lost durability is counted in :attr:`wal_errors`, and
        serving continues.
        """
        if self._wal is None:
            return
        try:
            self._wal.append(record)
        except OSError:
            self.wal_errors += 1
            return
        if self._wal.appended >= WAL_COMPACT_AFTER:
            self.compact_state()

    def compact_state(self) -> None:
        """Fold the durable log into one snapshot-only segment.

        Rewrites the write-ahead log from the live in-memory journal — one
        registration record per instance carrying a freshly folded
        snapshot, no update records — via an atomic segment swap.  A crash
        during compaction leaves either the old log or the new one.  No-op
        without ``state_dir``.
        """
        if self._wal is None:
            return
        try:
            self._wal.compact(compaction_records(self._journal))
        except OSError:  # pragma: no cover - compaction needs disk space
            self.wal_errors += 1

    def persistence_stats(self) -> Optional[Dict[str, Any]]:
        """Counters of the durable-state layer (``None`` without one).

        Reports the log's append count, segment count and rejected appends,
        the coordinator-side plan-store counters, and the startup recovery
        summary (with the WAL report flattened to plain numbers) — the data
        behind the ``restart_recovery`` benchmark section.
        """
        if self._wal is None:
            return None
        recovery = None
        if self.recovery is not None:
            recovery = dict(self.recovery)
            recovery["wal"] = self.recovery["wal"].as_dict()
        return {
            "wal_appends": self._wal.appended,
            "wal_segments": len(self._wal.segments),
            "wal_errors": self.wal_errors,
            "plan_store": self._plan_store.stats if self._plan_store else None,
            "recovery": recovery,
        }

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Shut the worker pool down (idempotent, safe with dead workers).

        Workers that already died — crashed, SIGKILLed, or hung — must not
        make ``close()`` hang or raise: the sentinel is sent best-effort,
        joins are bounded and escalate ``terminate`` → ``kill``, every
        request queue's feeder thread is detached so interpreter shutdown
        cannot block on a pipe nobody reads, and the reply pipes are closed
        unconditionally.
        """
        if self._closed:
            return
        self._closed = True
        if self._tracer is not NULL_TRACER:
            try:
                self._tracer.close()
            except Exception:  # pragma: no cover - a full disk at teardown
                pass
            set_tracer(self._previous_tracer)
        if self._wal is not None:
            try:
                self._wal.close()
            except Exception:  # pragma: no cover - a full disk at teardown
                pass
        for worker_queue in self._queues:
            try:
                worker_queue.put_nowait(None)
            except Exception:  # pragma: no cover - teardown race
                pass
        for process in self._processes:
            try:
                process.join(timeout=2.0)
                if process.is_alive():
                    process.terminate()
                    process.join(timeout=2.0)
                if process.is_alive():  # pragma: no cover - defensive teardown
                    process.kill()
                    process.join(timeout=2.0)
            except Exception:  # pragma: no cover - teardown race
                pass
        for q in self._queues:
            try:
                q.close()
                q.cancel_join_thread()
            except Exception:  # pragma: no cover - teardown race
                pass
        for reader in self._readers:
            try:
                if reader is not None:
                    reader.close()
            except Exception:  # pragma: no cover - teardown race
                pass

    def __del__(self) -> None:  # pragma: no cover - GC-order dependent
        try:
            self.close()
        except Exception:
            pass

    def _check_open(self) -> None:
        if self._closed:
            raise ServiceError("the service has been closed")

    # ------------------------------------------------------------------
    # instance management
    # ------------------------------------------------------------------
    def register_instance(
        self, instance: ProbabilisticGraph, instance_id: Optional[str] = None
    ) -> str:
        """Register an instance with its owning worker; returns its id.

        Registering the same *object* again returns the existing id;
        registering a different object under an existing id replaces it (on
        the same worker — ownership is a pure function of the id).
        """
        self._check_open()
        if not isinstance(instance, ProbabilisticGraph):
            raise ServiceError(
                f"expected a ProbabilisticGraph, got {type(instance).__name__}"
            )
        if instance_id is not None and not isinstance(instance_id, str):
            raise ServiceError(
                f"instance id must be a string, got {type(instance_id).__name__}"
            )
        known = self._ids_by_identity.get(id(instance))
        if (
            known is not None
            # Guard against id() recycling: the mapping only counts if this
            # object really is the one registered under that id.
            and self._instances.get(known) is instance
            and instance_id in (None, known)
        ):
            return known
        if instance_id is None:
            instance_id = f"instance-{next(self._next_instance)}"
        replaced = self._instances.get(instance_id)
        if replaced is not None:
            self._ids_by_identity.pop(id(replaced), None)
            self._epochs[instance_id] = self._epochs.get(instance_id, 0) + 1
        self._instances[instance_id] = instance
        self._ids_by_identity[id(instance)] = instance_id
        # The worker unpickles the snapshot bytes itself — one serialization
        # total — and in both deployment shapes holds its own instance, so
        # a direct mutation of the caller's object cannot desynchronise the
        # worker or the result cache (go through update_probability, as with
        # a real pool).
        journal = _InstanceJournal(pickle.dumps(instance))
        worker = self._worker_for(instance_id)
        self._call(worker, "register", journal.register_payload(instance_id))
        # Journal the acknowledged registration: the snapshot is the state
        # the worker holds *now*, so replaying it (plus later journaled
        # updates) reconstructs the shard exactly on a respawned worker.
        self._journal[instance_id] = journal
        self._wal_append(("register", instance_id, journal.snapshot))
        return instance_id

    def _worker_for(self, instance_id: str) -> int:
        """The instance's owning worker: least-loaded at first sight, stable after.

        The assignment is made on the id's first appearance — to the worker
        owning the fewest instances, lowest index on ties — and never moves,
        so K instances always spread over ``min(K, num_workers)`` workers
        (the bare ``crc32 % num_workers`` shard this replaces could collide
        every hot instance onto one worker, leaving the rest of the pool
        idle) while an instance's plan cache stays warm on one worker for
        its whole lifetime.
        """
        if self.num_workers == 0:
            return 0
        worker = self._assignment.get(instance_id)
        if worker is None:
            loads = [0] * self.num_workers
            for assigned in self._assignment.values():
                loads[assigned] += 1
            worker = min(range(self.num_workers), key=lambda w: (loads[w], w))
            self._assignment[instance_id] = worker
        return worker

    def _resolve_instance_id(self, instance: Union[str, ProbabilisticGraph]) -> str:
        if isinstance(instance, str):
            if instance not in self._instances:
                raise ServiceError(f"instance {instance!r} is not registered")
            return instance
        if isinstance(instance, ProbabilisticGraph):
            return self.register_instance(instance)
        raise ServiceError(
            f"cannot interpret {type(instance).__name__} as an instance or id"
        )

    # ------------------------------------------------------------------
    # solving
    # ------------------------------------------------------------------
    def submit(
        self,
        query: Union[DiGraph, str],
        instance: Union[str, ProbabilisticGraph],
        *,
        method: str = "auto",
        precision: Optional[str] = None,
        epsilon: Optional[float] = None,
        delta: Optional[float] = None,
        seed: Optional[int] = None,
        request_id: Optional[str] = None,
        deadline_ms: Optional[float] = None,
        on_deadline: str = "error",
    ) -> ServiceResult:
        """Answer one request (a convenience wrapper over :meth:`submit_many`).

        ``query`` is a graph or a query-language string such as
        ``"R(x, y), S(y, z)"`` (parsed by :mod:`repro.query`).
        """
        request = ServiceRequest(
            query=query,
            instance_id=self._resolve_instance_id(instance),
            method=method,
            precision=precision,
            epsilon=epsilon,
            delta=delta,
            seed=seed,
            request_id=request_id,
            deadline_ms=deadline_ms,
            on_deadline=on_deadline,
        )
        return self.submit_many([request])[0]

    def submit_many(
        self, requests: Sequence[RequestLike], *, on_error: str = "raise"
    ) -> List[ServiceResult]:
        """Answer a batch of requests; results come back in request order.

        Entries are :class:`ServiceRequest` objects or ``(query, instance)``
        pairs (the instance given as a registered id or the instance object
        itself, which is auto-registered).  Duplicates — equal coalesce keys
        — are computed once and fanned back out; distinct computations are
        sharded to their instances' owning workers and run in parallel.

        ``on_error="raise"`` (default) raises :class:`ServiceError` naming
        the failed request(s); ``on_error="return"`` instead returns a
        :class:`ServiceResult` with ``error`` set for the failed positions,
        keeping the successfully computed answers of the rest of the batch.
        """
        if on_error not in ("raise", "return"):
            raise ServiceError(f"unknown on_error mode {on_error!r}")
        self._check_open()
        start = time.perf_counter()
        try:
            with self._tracer.span("service.submit_many") as root:
                if root:
                    root.attrs["requests"] = len(requests)
                return self._submit_batch(requests, on_error, root)
        finally:
            self._batch_latency.observe((time.perf_counter() - start) * 1000.0)

    def _submit_batch(
        self,
        requests: Sequence[RequestLike],
        on_error: str,
        root: Any,
    ) -> List[ServiceResult]:
        """The body of :meth:`submit_many`, run under its root span."""
        normalized: List[Optional[ServiceRequest]] = []
        answered: Dict[int, Tuple[ServiceResult, str]] = {}
        for position, entry in enumerate(requests):
            try:
                normalized.append(self._normalize(entry))
            except (ServiceError, QueryParseError, ClassConstraintError) as exc:
                # A degenerate auto spelling fails as the solver fails it:
                # with the worker's "Type: detail" message, and in the raising
                # mode through the batch's ServiceError below.
                degenerate = isinstance(exc, ClassConstraintError)
                if on_error == "raise" and not degenerate:
                    raise
                # A request that cannot even be normalised (unknown instance,
                # bad entry shape, unparsable query text, a degenerate auto
                # spelling, a sampling contract outside (0, 1)) becomes an
                # error outcome in place.
                normalized.append(None)
                request_id = (
                    entry.request_id if isinstance(entry, ServiceRequest) else None
                )
                message = f"{type(exc).__name__}: {exc}" if degenerate else str(exc)
                answered[position] = (
                    ServiceResult(
                        result=None,
                        request_id=request_id,
                        error=message,
                        error_class=type(exc).__name__,
                    ),
                    message,
                )
        # Entries that failed normalization never reach a worker; counting
        # them as requests would inflate dedupe_hit_rate's denominator.
        rejected = sum(1 for request in normalized if request is None)
        self._counters["requests"].inc(len(normalized) - rejected)
        self._counters["rejected"].inc(rejected)
        self._counters["batches"].inc()
        if not normalized:
            return []

        # Coalesce duplicates before dispatch.
        representative: Dict[Hashable, int] = {}
        source_of: List[int] = []
        for position, request in enumerate(normalized):
            if request is None:
                source_of.append(position)
            else:
                key = request.coalesce_key(self.default_precision)
                source_of.append(representative.setdefault(key, position))

        # Answer each distinct computation from the result cache or shard it
        # to its instance's owner; ``dispatched`` counts both, per owner, so
        # the pool total is structurally the sum of the per-worker rows in
        # :meth:`stats`.  Requests with a deadline dispatch as single-request
        # ops so each can be abandoned (and degraded) on its own;
        # unconstrained requests batch per worker — one queue message per
        # worker per call.  ``fills`` maps each cacheable miss to the cache
        # key its worker's answer is stored under.
        by_worker: Dict[int, List[int]] = {}
        solo: List[Tuple[int, List[int]]] = []
        fills: Dict[int, Tuple[int, Hashable]] = {}
        for key, position in representative.items():
            request = normalized[position]
            worker = self._worker_for(request.instance_id)
            if self._result_cache_size > 0 and request.cacheable(
                self.default_precision
            ):
                start = time.perf_counter()
                cache_key = (self._epochs.get(request.instance_id, 0), key)
                hit = self._results.get(cache_key)
                if hit is not None:
                    self._results.move_to_end(cache_key)
                    self._counters["result_cache_hits"].inc()
                    self._dispatched.labels(worker).inc()
                    answered[position] = (
                        ServiceResult(
                            result=self._shared(hit, request),
                            request_id=request.request_id,
                            worker=worker,
                            cached=True,
                            duration_ms=(time.perf_counter() - start) * 1000.0,
                        ),
                        "",
                    )
                    continue
                fills[position] = cache_key
            if request.deadline_ms is None:
                by_worker.setdefault(worker, []).append(position)
            else:
                solo.append((worker, [position]))
        shards = list(by_worker.items()) + solo

        histories: Dict[int, Tuple[str, ...]] = {}
        if self._inline is not None:
            for worker, positions in shards:
                self._dispatched.labels(worker).inc(len(positions))
                budget = normalized[positions[0]].deadline_ms
                start = time.monotonic()
                self._inline_fire()
                reply = handle_message(
                    self._inline, "solve", ([normalized[p] for p in positions], None)
                )
                elapsed_ms = (time.monotonic() - start) * 1000.0
                if budget is not None and elapsed_ms > budget:
                    # Nothing inline can be preempted, so a missed budget is
                    # enforced after the fact, under the same policy as the
                    # pool's (error / degrade / partial).
                    (position,) = positions
                    self._apply_deadline(
                        position, normalized[position], elapsed_ms, 1, answered
                    )
                else:
                    self._consume_solve(
                        reply, worker, positions, normalized, answered, fills
                    )
        else:
            root_context = (
                (root.trace_id, root.span_id) if isinstance(root, Span) else None
            )
            ops: Dict[int, _PendingOp] = {}
            op_positions: Dict[int, List[int]] = {}
            start = time.monotonic()
            for worker, positions in shards:
                self._dispatched.labels(worker).inc(len(positions))
                # Only the single-request ops of ``solo`` carry a budget.
                budget = normalized[positions[0]].deadline_ms
                try:
                    op = self._dispatch_op(
                        worker,
                        [normalized[p] for p in positions],
                        root_context,
                        deadline=None if budget is None else start + budget / 1000.0,
                    )
                except ServiceError as exc:
                    # The op could not be pickled, so nothing was sent: its
                    # positions fail now, and the rest of the batch runs.
                    self._fail_positions(
                        positions, normalized, answered, str(exc), "ServiceError"
                    )
                    continue
                ops[op.op_id] = op
                op_positions[op.op_id] = positions
            for op_id, outcome in self._supervise(ops).items():
                positions = op_positions[op_id]
                if outcome[0] == "reply":
                    _, worker, reply, attempts = outcome
                    self._consume_solve(
                        reply, worker, positions, normalized, answered, fills, attempts
                    )
                elif outcome[0] == "timeout":
                    _, elapsed_ms, attempts = outcome
                    (position,) = positions
                    self._apply_deadline(
                        position, normalized[position], elapsed_ms, attempts, answered
                    )
                else:  # "unavailable"
                    _, history = outcome
                    for position in positions:
                        histories[position] = tuple(history)
                    self._fail_positions(
                        positions,
                        normalized,
                        answered,
                        f"request could not be answered after "
                        f"{len(history)} attempt(s)",
                        "ServiceUnavailableError",
                        attempts=len(history),
                    )

        failures = [
            (p, answered[p][0], message)
            for p, (_, message) in sorted(answered.items())
            if message
        ]
        if failures and on_error == "raise":
            self._raise_failures(failures, histories)

        # A representative's result is returned as built; a coalesced
        # duplicate shares its answer (or its failure), described for its
        # own spelling.
        results: List[ServiceResult] = []
        for position, source in enumerate(source_of):
            base = answered[source][0]
            if source == position:
                results.append(base)
                continue
            request = normalized[position]
            results.append(
                ServiceResult(
                    result=(
                        None if base.result is None else self._shared(base.result, request)
                    ),
                    request_id=request.request_id,
                    worker=base.worker,
                    cached=base.cached,
                    coalesced=True,
                    error=base.error,
                    error_class=base.error_class,
                    attempts=base.attempts,
                    degraded=base.degraded,
                    timed_out=base.timed_out,
                    duration_ms=base.duration_ms,
                    timing=base.timing,
                )
            )
        return results

    @staticmethod
    def _shared(result: PHomResult, request: ServiceRequest) -> PHomResult:
        """A copy of a shared answer, described for ``request``'s spelling.

        Coalescing and the result cache both key on the query *core*, so a
        shared answer may come from an equivalent query with another class
        and minimization provenance; ``PHomResult`` is mutable, so every
        sharer gets its own copy.  Only auto requests run the minimizing
        route (explicit methods never minimize and their keys never merge
        spellings), so only they carry minimization provenance.
        """
        return requalify_result(result, request.query, minimize=request.method == "auto")

    def _normalize(self, entry: RequestLike) -> ServiceRequest:
        """The request ``entry`` stands for, checked before it is keyed.

        An auto request's spelling is validated here, once: a degenerate
        (self-loop-only) one raises
        :class:`~repro.exceptions.ClassConstraintError`, whatever its batch
        or the result cache hold.  A request that may sample gets the
        service's (ε, δ, seed) defaults resolved into it, so coalesce keys,
        cacheability and the worker all see one concrete contract, and a
        contract :class:`~repro.approx.ApproxParams` rejects (ε or δ outside
        (0, 1)) raises :class:`~repro.exceptions.ServiceError`.  Any other
        request is returned as given: it never samples, and a deadline
        degrade falls back to the service's δ and seed itself.
        """
        if isinstance(entry, ServiceRequest):
            if entry.instance_id not in self._instances:
                raise ServiceError(
                    f"instance {entry.instance_id!r} is not registered"
                )
            request = entry
        elif isinstance(entry, tuple) and len(entry) == 2:
            query, instance = entry
            request = ServiceRequest(
                query=query, instance_id=self._resolve_instance_id(instance)
            )
        else:
            raise ServiceError(
                "submit_many entries must be ServiceRequest objects or "
                "(query, instance) pairs"
            )
        if request.method == "auto":
            validate_query_graph(request.query)
        if not request.may_sample(self.default_precision):
            return request
        try:
            params = ApproxParams(
                self.default_epsilon if request.epsilon is None else request.epsilon,
                self.default_delta if request.delta is None else request.delta,
                self.default_seed if request.seed is None else request.seed,
            )
        except (ReproError, TypeError) as exc:
            raise ServiceError(str(exc)) from exc
        if request.epsilon is None or request.delta is None or request.seed is None:
            request = ServiceRequest(
                query=request.query,
                instance_id=request.instance_id,
                method=request.method,
                precision=request.precision,
                epsilon=params.epsilon,
                delta=params.delta,
                seed=params.seed,
                request_id=request.request_id,
                deadline_ms=request.deadline_ms,
                on_deadline=request.on_deadline,
            )
        return request

    @staticmethod
    def _fail_positions(
        positions: List[int],
        normalized: List[ServiceRequest],
        answered: Dict[int, Tuple[ServiceResult, str]],
        message: str,
        error_class: str,
        attempts: int = 1,
    ) -> None:
        """Record one failure for every request position of a failed op."""
        for position in positions:
            answered[position] = (
                ServiceResult(
                    result=None,
                    request_id=normalized[position].request_id,
                    error=message,
                    error_class=error_class,
                    attempts=attempts,
                ),
                message,
            )

    def _consume_solve(
        self,
        reply: Tuple[str, Any],
        worker: int,
        positions: List[int],
        normalized: List[ServiceRequest],
        answered: Dict[int, Tuple[ServiceResult, str]],
        fills: Dict[int, Tuple[int, Hashable]],
        attempts: int = 1,
    ) -> None:
        """Record a worker's solve reply; its answers fill the result cache."""
        status, value = reply
        if status != "ok":
            raise ServiceError(f"worker {worker} failed a solve batch: {value}")
        if len(value) != len(positions):  # pragma: no cover - protocol guard
            raise ServiceError(
                f"worker {worker} answered {len(value)} of {len(positions)} requests"
            )
        for position, outcome in zip(positions, value):
            request = normalized[position]
            if outcome[0] == "ok":
                _, result, duration_ms, timing = outcome
                answered[position] = (
                    ServiceResult(
                        result=result,
                        request_id=request.request_id,
                        worker=worker,
                        attempts=attempts,
                        duration_ms=duration_ms,
                        timing=timing,
                    ),
                    "",
                )
                cache_key = fills.get(position)
                if cache_key is not None:
                    # A copy: the caller may mutate the result it is handed.
                    self._results[cache_key] = PHomResult(
                        result.probability,
                        result.method,
                        result.proposition,
                        result.query_class,
                        result.instance_class,
                        result.labeled,
                        result.notes,
                    )
                    if len(self._results) > self._result_cache_size:
                        self._results.popitem(last=False)
                if self.slow_query_ms is not None and duration_ms >= self.slow_query_ms:
                    self._record_slow_query(
                        request, result, worker, duration_ms, attempts
                    )
            else:
                message = outcome[1]
                # Worker errors are formatted "ExceptionType: detail".
                error_class = message.split(":", 1)[0] if ":" in message else None
                answered[position] = (
                    ServiceResult(
                        result=None,
                        request_id=normalized[position].request_id,
                        worker=worker,
                        error=message,
                        error_class=error_class,
                        attempts=attempts,
                    ),
                    message,
                )

    def _record_slow_query(
        self,
        request: ServiceRequest,
        result: PHomResult,
        worker: int,
        duration_ms: float,
        attempts: int,
    ) -> None:
        """Append one slow-request record (bounded, newest last).

        The record carries the dispatch provenance an operator needs to see
        *why* the request was slow — which worker ran it, whether it was
        retried, and which dichotomy route answered it.  Only computed
        requests are recorded, so ``cached`` is always false: a result-cache
        hit never enters the log.
        """
        self.slow_queries.append(
            {
                "request_id": request.request_id,
                "instance": request.instance_id,
                "method": result.method,
                "duration_ms": duration_ms,
                "worker": worker,
                "cached": False,
                "attempts": attempts,
            }
        )
        if len(self.slow_queries) > SLOW_QUERY_LOG_LIMIT:
            del self.slow_queries[: len(self.slow_queries) - SLOW_QUERY_LOG_LIMIT]

    def _raise_failures(
        self,
        failures: List[Tuple[int, ServiceResult, str]],
        histories: Dict[int, Tuple[str, ...]],
    ) -> None:
        """Raise the most specific error for a failed batch.

        Retry exhaustion outranks deadline misses outranks per-request
        errors, so callers catching the typed exceptions see the systemic
        problem first.  ``"partial"``-policy timeouts never reach here —
        they are recorded with an empty failure message by design.
        """
        for position, result, message in failures:
            if result.error_class == "ServiceUnavailableError":
                rid = result.request_id or f"#{position}"
                raise ServiceUnavailableError(
                    f"request {rid} unavailable: {message}",
                    notes=histories.get(position, ()),
                )
        for position, result, message in failures:
            if result.error_class == "DeadlineExceededError":
                rid = result.request_id or f"#{position}"
                raise DeadlineExceededError(f"request {rid}: {message}")
        details = "; ".join(
            f"{result.request_id or f'#{position}'}: {message}"
            for position, result, message in failures[:5]
        )
        raise ServiceError(f"{len(failures)} request(s) failed: {details}")

    def _apply_deadline(
        self,
        position: int,
        request: ServiceRequest,
        elapsed_ms: float,
        attempts: int,
        answered: Dict[int, Tuple[ServiceResult, str]],
    ) -> None:
        """Record the outcome of a missed deadline under the request policy."""
        self._counters["deadline_hits"].inc()
        if request.on_deadline == "degrade":
            degrade_start = time.perf_counter()
            result = self._degrade_request(request)
            self._counters["degraded"].inc()
            answered[position] = (
                ServiceResult(
                    result=result,
                    request_id=request.request_id,
                    worker=-1,  # answered by the coordinator's degrade tier
                    attempts=attempts,
                    degraded=True,
                    duration_ms=(time.perf_counter() - degrade_start) * 1000.0,
                ),
                "",
            )
            return
        message = (
            f"deadline of {request.deadline_ms:g} ms exceeded "
            f"after {elapsed_ms:.0f} ms"
        )
        outcome = ServiceResult(
            result=None,
            request_id=request.request_id,
            error=message,
            error_class="DeadlineExceededError",
            attempts=attempts,
            timed_out=True,
        )
        if request.on_deadline == "partial":
            # Typed timeout in place, never raising: the batch's completed
            # answers stay usable (the empty message opts out of raising).
            answered[position] = (outcome, "")
        else:
            answered[position] = (outcome, message)

    def _degrade_request(self, request: ServiceRequest) -> PHomResult:
        """Answer a deadline-missed request through the approximate tier.

        Runs coordinator-side on the journal-reconstructed instance (the
        stuck worker may be wedged), with an epsilon chosen from the
        request's budget by :func:`~repro.service.faults.epsilon_for_budget`
        and the request's ``(δ, seed)`` contract, so a pinned seed keeps
        even the degraded answer reproducible.
        """
        journal = self._journal.get(request.instance_id)
        if journal is None:
            raise ServiceError(f"instance {request.instance_id!r} has no journal entry")
        instance = journal.current()
        if self._degrade_solver is None:
            self._degrade_solver = self._make_solver()
        solver = self._degrade_solver
        eps = epsilon_for_budget(request.deadline_ms)
        saved = solver.approx_params
        solver.approx_params = ApproxParams(
            epsilon=eps,
            delta=request.delta if request.delta is not None else saved.delta,
            seed=request.seed if request.seed is not None else saved.seed,
        )
        method = (
            request.method
            if request.method in PHomSolver.SAMPLING_METHODS
            else "auto"
        )
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                result = solver.solve(
                    request.query, instance, method=method, precision="approx"
                )
        finally:
            solver.approx_params = saved
        provenance = (
            f"degraded=True; original_method={request.method}; "
            f"deadline_ms={request.deadline_ms:g}; epsilon={eps:g}"
        )
        result.notes = (
            f"{result.notes}; {provenance}" if result.notes else provenance
        )
        return result

    def _inline_fire(self) -> None:
        """Apply inline-honoured faults (delay) before an inline message."""
        injector = self._inline.fault_injector
        if injector is None:
            return
        for fault in injector.on_message():
            if fault.kind == "delay":
                time.sleep(fault.seconds)
            # kill / drop / corrupt are process-boundary faults with no
            # inline analogue; solver-error is consumed inside solve_batch.

    # ------------------------------------------------------------------
    # updates and stats
    # ------------------------------------------------------------------
    def update_probability(
        self,
        instance: Union[str, ProbabilisticGraph],
        edge,
        probability,
    ) -> None:
        """Set one edge's probability on the owning worker's shard.

        The caller's registered instance object is updated too, so the local
        and worker-side views stay numerically identical; compiled plans on
        the worker survive (they read the live table), and the instance's
        epoch is bumped, so its cached results are never matched again.
        """
        self._check_open()
        instance_id = self._resolve_instance_id(instance)
        local = self._instances[instance_id]
        if isinstance(edge, Edge):
            endpoints = (edge.source, edge.target)
        elif isinstance(edge, tuple) and len(edge) == 2:
            endpoints = edge
        else:
            raise ServiceError(f"cannot interpret {edge!r} as an edge")
        # Validate (and normalise) locally first, with the edge as given (an
        # Edge's label must match the instance edge's): a bad update must
        # fail without desynchronising the worker copy.
        local.set_probability(edge, probability)
        self._counters["updates"].inc()
        # Stale the instance's cached answers before the owner changes.
        self._epochs[instance_id] = self._epochs.get(instance_id, 0) + 1
        self._call(
            self._worker_for(instance_id),
            "update",
            (instance_id, endpoints, probability),
        )
        journal = self._journal.get(instance_id)
        if journal is not None:
            journal.record(endpoints, probability)
        self._wal_append(("update", instance_id, endpoints, probability))

    def evaluate_many(
        self,
        instance: Union[str, ProbabilisticGraph],
        query,
        batches,
        precision: Optional[str] = None,
    ) -> List:
        """Batch-evaluate one query under many probability valuations.

        Dispatches to the owning worker's flat-tape fast path
        (:meth:`~repro.service.worker.WorkerState.evaluate_many`): the
        query's plan is compiled (or found in the worker's plan cache)
        once, lowered to a tape, and every valuation in ``batches`` is
        answered in a single vectorized structural pass that runs each
        distinct valuation once
        (:meth:`~repro.plan.CompiledPlan.evaluate_many`).  Each batch entry
        is an override mapping keyed by edge endpoints (``None`` / ``{}``
        for the shard's live table); the returned list is index-aligned.
        ``precision`` defaults to the service's default precision —
        sampling ("approx") has no batched tape and is rejected.
        """
        self._check_open()
        instance_id = self._resolve_instance_id(instance)
        return self._call(
            self._worker_for(instance_id),
            "evaluate_many",
            (instance_id, query, list(batches), precision),
        )

    def stats(self) -> ServiceStats:
        """Service-level coalescing counters plus per-worker statistics.

        Every number is read back from one snapshot of the coordinator's
        telemetry registry; in particular ``dispatched`` is the sum of the
        per-worker ``dispatched`` series injected into the worker rows, so
        the pool total and the rows cannot disagree, not even across
        restarts.
        """
        self._check_open()
        if self._inline is not None:
            workers = [self._inline.stats()]
        else:
            ops: Dict[int, _PendingOp] = {}
            op_worker: Dict[int, int] = {}
            for worker in range(self.num_workers):
                op = self._make_op(worker, "stats", None)
                ops[op.op_id] = op
                op_worker[op.op_id] = worker
            ordered: Dict[int, Dict[str, Any]] = {}
            for op_id, outcome in self._supervise(ops).items():
                worker = op_worker[op_id]
                if outcome[0] == "unavailable":
                    raise ServiceUnavailableError(
                        f"stats on worker {worker} exhausted its retry budget",
                        notes=outcome[1],
                    )
                _, _, (status, value), _ = outcome
                if status != "ok":  # pragma: no cover - protocol guard
                    raise ServiceError(f"worker {worker} failed stats: {value}")
                ordered[worker] = value
            workers = [ordered[index] for index in sorted(ordered)]
        snapshot = self.metrics.snapshot()
        totals = {
            name: int(counter_total(snapshot, f"repro_service_{name}_total"))
            for name, _ in _SERVICE_COUNTERS
        }
        for row in workers:
            row["dispatched"] = int(
                counter_value(
                    snapshot,
                    "repro_service_dispatched_total",
                    (str(row["worker"]),),
                )
            )
        dispatched = int(
            counter_total(snapshot, "repro_service_dispatched_total")
        )
        return ServiceStats(
            requests=totals["requests"],
            rejected=totals["rejected"],
            dispatched=dispatched,
            coalesced=totals["requests"] - dispatched,
            cache_hits=totals["result_cache_hits"],
            batches=totals["batches"],
            updates=totals["updates"],
            restarts=totals["restarts"],
            retries=totals["retries"],
            deadline_hits=totals["deadline_hits"],
            degraded=totals["degraded"],
            workers=workers,
        )

    def metrics_snapshot(self) -> Dict[str, Any]:
        """One pool-wide telemetry snapshot (coordinator + every worker).

        Merges the coordinator registry with each worker's registry
        snapshot (shipped inside the worker's ``stats`` reply) via
        :func:`repro.obs.metrics.merge_snapshots`; the result is a plain
        JSON-able dictionary — the input of ``repro metrics`` and
        ``repro top``.
        """
        service_stats = self.stats()
        snapshots = [self.metrics.snapshot()]
        for row in service_stats.workers:
            worker_metrics = row.get("metrics")
            if worker_metrics:
                snapshots.append(worker_metrics)
        return merge_snapshots(snapshots)

    # ------------------------------------------------------------------
    # message plumbing and supervision
    # ------------------------------------------------------------------
    def _send(
        self, worker: int, op: str, payload: Any, op_id: Optional[int] = None
    ) -> int:
        """Pickle one op on the calling thread and queue its bytes.

        Every op leaves through here, retry resends included (they pass
        their ``op_id``).  Pickling here, rather than in the queue's feeder
        thread, serialises each request once and makes a payload that
        cannot cross the process boundary raise :class:`ServiceError` at
        once — before the op is tracked — instead of being dropped by the
        feeder and waited on like a hung worker.
        """
        if op_id is None:
            op_id = next(self._next_op)
        try:
            frame = pickle.dumps((op_id, op, payload), protocol=pickle.HIGHEST_PROTOCOL)
        except (pickle.PicklingError, TypeError, AttributeError) as exc:
            raise ServiceError(
                f"{op} payload cannot be sent to worker {worker}: "
                f"{type(exc).__name__}: {exc}"
            ) from exc
        self._queues[worker].put(frame)
        return op_id

    def _make_op(
        self,
        worker: int,
        op: str,
        payload: Any,
        deadline: Optional[float] = None,
    ) -> _PendingOp:
        """Dispatch one op and return its supervision record."""
        now = time.monotonic()
        return _PendingOp(
            op_id=self._send(worker, op, payload),
            worker=worker,
            op=op,
            payload=payload,
            created_at=now,
            sent_at=now,
            deadline=deadline,
        )

    def _dispatch_op(
        self,
        worker: int,
        entries: List[ServiceRequest],
        root_context: Optional[Tuple[str, str]],
        deadline: Optional[float] = None,
    ) -> _PendingOp:
        """Dispatch one solve op, opening its per-attempt dispatch span.

        The solve payload is ``(entries, trace_context)``: the context is
        the *dispatch span's* id pair, so the worker's spans parent under
        the attempt that actually ran them — a retry opens a fresh span
        (fresh ids) and re-targets the payload, which is what keeps chaos
        traces free of orphaned or duplicated span ids.
        """
        context = None
        span: Optional[Span] = None
        if root_context is not None:
            span = self._tracer.start_span("service.dispatch", parent=root_context)
            span.attrs["worker"] = worker
            span.attrs["requests"] = len(entries)
            span.attrs["attempt"] = 1
            context = (span.trace_id, span.span_id)
        try:
            op = self._make_op(worker, "solve", (entries, context), deadline=deadline)
        except ServiceError:
            if span is not None:
                self._tracer.end(span, "error")
            raise
        op.trace_parent = root_context
        if span is not None:
            self._op_spans[op.op_id] = span
        return op

    def _close_op_span(self, op_id: int, status: str, reason: str = "") -> None:
        """Close the current dispatch-attempt span of an op, if any."""
        span = self._op_spans.pop(op_id, None)
        if span is None:
            return
        if reason:
            span.attrs["reason"] = reason
        self._tracer.end(span, status)

    def _reopen_op_span(self, op: _PendingOp) -> None:
        """Open a fresh dispatch span for a retry and re-target its payload."""
        if op.trace_parent is None:
            return
        span = self._tracer.start_span("service.dispatch", parent=op.trace_parent)
        span.attrs["worker"] = op.worker
        span.attrs["attempt"] = op.attempts
        self._op_spans[op.op_id] = span
        if op.op == "solve":
            op.payload = (op.payload[0], (span.trace_id, span.span_id))

    def _call(self, worker: int, op: str, payload: Any) -> Any:
        """Send one op and wait for its reply (inline mode short-circuits).

        Pool-mode calls run under full supervision: a worker dying or
        hanging mid-call is restarted and the op retried like any request.
        """
        if self._inline is not None:
            self._inline_fire()
            status, value = handle_message(self._inline, op, payload)
            if status != "ok":
                raise ServiceError(f"{op} failed: {value}")
            return value
        pending_op = self._make_op(worker, op, payload)
        outcome = self._supervise({pending_op.op_id: pending_op})[pending_op.op_id]
        if outcome[0] == "unavailable":
            raise ServiceUnavailableError(
                f"{op} on worker {worker} exhausted its retry budget",
                notes=outcome[1],
            )
        _, _, (status, value), _ = outcome
        if status != "ok":
            raise ServiceError(f"{op} failed on worker {worker}: {value}")
        return value

    def _supervise(
        self, pending: Dict[int, _PendingOp]
    ) -> Dict[int, Tuple[Any, ...]]:
        """Await every pending op under supervision; never hangs, never loses one.

        The loop interleaves four duties until the pending set drains:
        resend ops whose retry backoff expired, collect (and validate)
        replies, expire per-op deadlines, and detect dead or unresponsive
        workers — restarting them, replaying their journal, and scheduling
        their in-flight ops for retry.

        Outcomes, one per op:

        * ``("reply", worker, reply, attempts)`` — a well-formed reply;
        * ``("timeout", elapsed_ms, attempts)`` — the op's deadline expired
          (the op is abandoned; a late reply is discarded on arrival);
        * ``("unavailable", history)`` — the retry budget is exhausted,
          with one history line per failed attempt.
        """
        outcomes: Dict[int, Tuple[Any, ...]] = {}
        while pending:
            now = time.monotonic()
            for op in pending.values():
                if op.retry_at is not None and now >= op.retry_at:
                    # The worker was restarted (and its journal replayed)
                    # when the failure was detected; the queue is FIFO, so
                    # this resend lands after the replay ops.
                    op.retry_at = None
                    op.sent_at = now
                    self._reopen_op_span(op)
                    self._send(op.worker, op.op, op.payload, op.op_id)
            for message in self._drain(POLL_INTERVAL):
                if not (isinstance(message, tuple) and len(message) in (3, 4)):
                    continue  # pragma: no cover - unattributable corruption
                if len(message) == 4:
                    # Worker spans piggybacked on the reply frame: fold them
                    # into the coordinator's ring before the reply settles.
                    worker, op_id, reply, spans = message
                    if isinstance(spans, list):
                        self._tracer.ingest(spans)
                else:
                    worker, op_id, reply = message
                if not isinstance(op_id, int):
                    continue  # pragma: no cover - unattributable corruption
                if self._discard.pop(op_id, None) is not None:
                    continue
                op = pending.get(op_id)
                if op is None or op.retry_at is not None:
                    # A stale duplicate from a superseded attempt (or an op
                    # already failed over); the accepted answer stands.
                    continue
                if not self._valid_reply(reply):
                    self._fail_worker(
                        op.worker,
                        f"malformed reply frame ({type(reply).__name__})",
                        pending,
                        outcomes,
                    )
                    continue
                self._close_op_span(op_id, "ok")
                outcomes[op_id] = ("reply", worker, reply, op.attempts)
                del pending[op_id]
            now = time.monotonic()
            for op in list(pending.values()):
                if op.deadline is not None and now >= op.deadline:
                    if op.retry_at is None:
                        # Still in flight: the worker may answer later;
                        # remember to discard that late reply.
                        self._discard[op.op_id] = op.worker
                    self._close_op_span(op.op_id, "timeout")
                    outcomes[op.op_id] = (
                        "timeout",
                        (now - op.created_at) * 1000.0,
                        op.attempts,
                    )
                    del pending[op.op_id]
            broken: Dict[int, str] = {}
            for op in pending.values():
                if op.retry_at is not None:
                    continue
                process = self._processes[op.worker]
                if not process.is_alive():
                    broken[op.worker] = (
                        f"worker process died (exit code {process.exitcode})"
                    )
                elif now - op.sent_at > self.timeout:
                    broken.setdefault(
                        op.worker,
                        f"worker unresponsive ({now - op.sent_at:.2f}s without "
                        f"a reply, timeout {self.timeout:g}s)",
                    )
            for worker, reason in broken.items():
                self._fail_worker(worker, reason, pending, outcomes)
        return outcomes

    def _drain(self, wait: float) -> List[Any]:
        """One poll slice over the reply pipes, then a greedy drain.

        A pipe that hits EOF or breaks mid-frame (its worker died, possibly
        terminated mid-send) is closed and parked until the restart path
        replaces it; the in-flight reply it may have swallowed is exactly
        the one supervision retries.
        """
        readers = [r for r in self._readers if r is not None]
        if not readers:
            time.sleep(wait)
            return []
        messages: List[Any] = []
        for reader in multiprocessing.connection.wait(readers, timeout=wait):
            try:
                while reader.poll():
                    messages.append(reader.recv())
            except (EOFError, OSError, pickle.UnpicklingError):
                try:
                    reader.close()
                except Exception:  # pragma: no cover - teardown race
                    pass
                for index, known in enumerate(self._readers):
                    if known is reader:
                        self._readers[index] = None
        return messages

    @staticmethod
    def _valid_reply(reply: Any) -> bool:
        return (
            isinstance(reply, tuple)
            and len(reply) == 2
            and reply[0] in ("ok", "error")
        )

    def _fail_worker(
        self,
        worker: int,
        reason: str,
        pending: Dict[int, _PendingOp],
        outcomes: Dict[int, Tuple[Any, ...]],
    ) -> None:
        """Restart a broken worker and retry (or fail) its in-flight ops."""
        self._restart_worker(worker, reason)
        now = time.monotonic()
        for op in [
            o for o in pending.values() if o.worker == worker and o.retry_at is None
        ]:
            op.history.append(
                f"attempt {op.attempts} ({op.op} op {op.op_id}, "
                f"worker {worker}): {reason}"
            )
            # The attempt's in-flight work died with the worker: the
            # coordinator closes the dispatch span itself (the worker's own
            # spans were never sent), marking it ``"retried"`` — the
            # follow-up attempt opens a fresh span at resend time.
            self._close_op_span(op.op_id, "retried", reason=reason)
            if op.attempts > self.max_retries:
                outcomes[op.op_id] = ("unavailable", list(op.history))
                del pending[op.op_id]
            else:
                op.attempts += 1
                self._counters["retries"].inc()
                delay = min(BACKOFF_CAP, self.backoff_base * 2 ** (op.attempts - 2))
                delay *= 0.5 + 0.5 * self._backoff_rng.random()
                op.retry_at = now + delay

    def _restart_worker(self, worker: int, reason: str) -> None:
        """Respawn one worker and replay its shard from the journal.

        The old incarnation is terminated first (it may merely be hung), its
        request queue is replaced — undelivered messages on it are exactly
        the in-flight ops the caller retries — and every instance the shard
        owns is re-registered from its journal snapshot plus compacted
        updates, as fire-and-forget ops that precede any retried request in
        the new queue's FIFO order.
        """
        started = time.monotonic()
        process = self._processes[worker]
        if process.is_alive():
            process.terminate()
            process.join(timeout=5.0)
            if process.is_alive():  # pragma: no cover - stuck in a syscall
                process.kill()
                process.join(timeout=5.0)
        old_queue = self._queues[worker]
        try:
            old_queue.close()
            old_queue.cancel_join_thread()
        except Exception:  # pragma: no cover - teardown race
            pass
        old_reader = self._readers[worker]
        if old_reader is not None:
            # Anything still buffered (including a partial frame from a
            # terminate-mid-send) dies with the pipe; _spawn_worker installs
            # the fresh incarnation's reader.
            try:
                old_reader.close()
            except Exception:  # pragma: no cover - teardown race
                pass
            self._readers[worker] = None
        # Replies from the dead incarnation can never arrive now; prune the
        # discard map so it does not grow across restarts.
        self._discard = {i: w for i, w in self._discard.items() if w != worker}
        self._incarnations[worker] += 1
        self._queues[worker] = self._context.Queue()
        self._processes[worker] = self._spawn_worker(worker)
        replayed = 0
        for instance_id, journal in self._journal.items():
            if self._worker_for(instance_id) != worker:
                continue
            register = journal.register_payload(instance_id)
            self._discard[self._send(worker, "register", register)] = worker
            if self._plan_store is not None:
                # Fire-and-forget warm-up: the respawned incarnation loads
                # the shard's stored plans off the request path instead of
                # recompiling them on first use.
                self._discard[self._send(worker, "warm", instance_id)] = worker
            replayed += 1
        self._counters["restarts"].inc()
        self.restart_log.append(
            {
                "worker": worker,
                "incarnation": self._incarnations[worker],
                "reason": reason,
                "duration_s": time.monotonic() - started,
                "instances_replayed": replayed,
            }
        )
        if len(self.restart_log) > RESTART_LOG_LIMIT:
            # A worker stuck in a crash loop must not grow the log without
            # bound; the totals survive in the service counters.
            del self.restart_log[: len(self.restart_log) - RESTART_LOG_LIMIT]
