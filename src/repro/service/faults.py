"""Fault injection for the serving layer: :class:`FaultPlan`.

The supervision, retry and degradation machinery of
:class:`~repro.service.QueryService` only earns trust when it can be
exercised deterministically.  This module provides that harness: a seeded,
picklable :class:`FaultPlan` describes *when* and *how* workers misbehave,
workers honour it in test and benchmark builds (the plan ships to every
worker incarnation at spawn time), and pinned seeds make every chaos run
reproducible.

Fault kinds
-----------

``kill``
    The worker process exits hard (``os._exit``) *before* handling the
    triggering message — the message is lost, exactly like a segfault or an
    OOM kill.  The coordinator detects the dead process, restarts it,
    replays the shard journal and retries the lost requests.
``delay``
    The worker sleeps ``seconds`` before handling the message — a stand-in
    for a slow computation or a stalled host.  Used to trigger deadline
    policies and (past the service ``timeout``) unresponsiveness recovery.
``drop``
    The worker handles the message but never replies — a lost response.
    The coordinator's per-attempt timeout declares the worker unresponsive,
    restarts it and retries.
``solver-error``
    One request of the next solve batch fails with an injected exception —
    a deterministic stand-in for a bug in a solver route.  Surfaces as a
    per-request error (never retried: the failure is not transient).
``corrupt``
    The reply to the triggering message is replaced by garbage bytes drawn
    from the plan's seeded RNG — a corrupted pickle / protocol frame.  The
    coordinator rejects the malformed reply, restarts the worker and
    retries.

``kill``, ``drop`` and ``corrupt`` are process-level faults and are ignored
by the inline (``num_workers=0``) service; ``delay`` and ``solver-error``
fire in both deployment shapes.

Triggering is message-based, not time-based, so plans are reproducible:
``after_messages=K`` fires on the ``K+1``-th protocol message (register /
update / solve / stats all count) handled by the targeted worker.  A fault
fires once per arming; ``repeat=True`` re-arms it for every respawned
incarnation of the worker, which is how retry exhaustion is simulated.

Disk fault kinds
----------------

The durable-state layer (:mod:`repro.persist`) is exercised by a second
family of fault kinds, threaded through the persistence *write path* by a
:class:`DiskFaultInjector` (built from the same :class:`FaultPlan`; for
disk faults ``after_messages`` counts persistence writes, and ``worker``
is ignored — the write-ahead log is coordinator-side):

``torn-write``
    Only a prefix of the written bytes reaches the file — a crash midway
    through an append.  Recovery must detect the torn frame via its
    checksum / framing and truncate the tail.
``truncate-tail``
    The file loses a seeded number of bytes off its end *after* the write
    — a filesystem rolling back data that was never fsynced.  Same
    recovery contract as ``torn-write``.
``bit-flip``
    One seeded bit of the written bytes is inverted — silent media
    corruption.  Recovery must detect the CRC mismatch and quarantine the
    damaged frame or store entry instead of replaying garbage.
``enospc``
    The write fails with ``OSError(ENOSPC)`` — disk full.  The persistence
    layer must surface the error as a counted degradation (serving
    continues without durability) rather than crash.
"""

from __future__ import annotations

import errno
import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.exceptions import ServiceError

#: Disk fault kinds, honoured by the persistence write path only.
DISK_FAULT_KINDS = ("torn-write", "truncate-tail", "bit-flip", "enospc")

#: The recognised fault kinds.
FAULT_KINDS = ("kill", "delay", "drop", "solver-error", "corrupt") + DISK_FAULT_KINDS

#: Fault kinds honoured by the inline (``num_workers=0``) service.
INLINE_FAULT_KINDS = ("delay", "solver-error")


@dataclass(frozen=True)
class Fault:
    """One injected fault: what goes wrong, on which worker, and when.

    ``worker`` is the targeted worker index (``None`` targets every
    worker); ``after_messages`` is the number of protocol messages the
    worker handles before the fault fires; ``seconds`` is the sleep length
    for ``kind="delay"``; ``repeat`` re-arms the fault on every respawned
    incarnation of the worker instead of only the first.
    """

    kind: str
    worker: Optional[int] = None
    after_messages: int = 0
    seconds: float = 0.0
    repeat: bool = False

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ServiceError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if self.after_messages < 0:
            raise ServiceError(
                f"after_messages must be >= 0, got {self.after_messages}"
            )
        if self.seconds < 0:
            raise ServiceError(f"a delay cannot be negative, got {self.seconds}")
        if self.kind == "delay" and self.seconds == 0.0:
            raise ServiceError("a 'delay' fault needs seconds > 0")


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, picklable chaos schedule honoured by service workers.

    The plan is immutable and ships to every worker (and every respawned
    incarnation) at spawn time; each worker derives its own
    :class:`FaultInjector` with :meth:`for_worker`.  ``seed`` drives any
    randomized fault payloads (the ``corrupt`` garbage bytes), so two runs
    with the same plan misbehave identically.
    """

    faults: Tuple[Fault, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        # Accept any iterable of faults but store a hashable tuple.
        object.__setattr__(self, "faults", tuple(self.faults))

    def for_worker(self, worker_index: int, incarnation: int = 0) -> "FaultInjector":
        """The injector for one worker incarnation (deterministic per plan)."""
        return FaultInjector(self, worker_index, incarnation)

    def targets(self, worker_index: int, incarnation: int = 0) -> Tuple[Fault, ...]:
        """The faults armed for one worker incarnation."""
        return tuple(
            fault
            for fault in self.faults
            if (fault.worker is None or fault.worker == worker_index)
            and (fault.repeat or incarnation == 0)
        )


class FaultInjector:
    """Worker-side fault state: counts messages, fires armed faults.

    Created from a :class:`FaultPlan` via :meth:`FaultPlan.for_worker`;
    the worker loop calls :meth:`on_message` once per protocol message and
    applies the returned process-level faults (kill / delay / drop /
    corrupt), while ``solver-error`` faults are consumed per request inside
    the solve batch via :meth:`take_solver_error`.
    """

    def __init__(self, plan: FaultPlan, worker_index: int, incarnation: int = 0):
        self.worker_index = worker_index
        self.incarnation = incarnation
        self.handled = 0
        # Disk faults target the persistence write path (DiskFaultInjector),
        # never the message loop; arming them here would silently eat them.
        self._armed: List[Fault] = [
            fault
            for fault in plan.targets(worker_index, incarnation)
            if fault.kind not in DISK_FAULT_KINDS
        ]
        self._solver_errors = 0
        # Deterministic per (plan seed, worker, incarnation): integer tuple
        # hashes do not depend on PYTHONHASHSEED, so corrupt payloads are
        # reproducible across processes.
        self._rng = random.Random(hash((plan.seed, worker_index, incarnation)))

    def on_message(self) -> List[Fault]:
        """Advance the message counter; return the faults firing now.

        ``solver-error`` faults are not returned — they are armed
        internally and consumed per request by :meth:`take_solver_error`.
        """
        self.handled += 1
        firing = [f for f in self._armed if f.after_messages < self.handled]
        for fault in firing:
            self._armed.remove(fault)
        actions: List[Fault] = []
        for fault in firing:
            if fault.kind == "solver-error":
                self._solver_errors += 1
            else:
                actions.append(fault)
        return actions

    def take_solver_error(self) -> bool:
        """Consume one pending injected solver exception, if any."""
        if self._solver_errors > 0:
            self._solver_errors -= 1
            return True
        return False

    def corrupt_bytes(self, length: int = 24) -> bytes:
        """Seeded garbage standing in for a corrupted reply frame."""
        return bytes(self._rng.randrange(256) for _ in range(length))


class DiskFaultInjector:
    """Seeded disk misbehaviour for the persistence write path.

    Built from the same :class:`FaultPlan` as the worker-side injectors but
    arming only the :data:`DISK_FAULT_KINDS`; for disk faults
    ``after_messages`` counts persistence *writes* (write-ahead-log appends
    and plan-store entry writes share one counter) and ``worker`` is
    ignored.  The injector is picklable, so a plan-store copy shipped to a
    worker process carries its own deterministic instance.

    The write path calls :meth:`mutate_write` with the exact bytes it is
    about to write; the injector returns them unchanged, returns a damaged
    variant (``torn-write`` prefix, ``bit-flip``), or raises
    ``OSError(ENOSPC)`` (``enospc``).  After a successful write the caller
    asks :meth:`take_tail_truncation` how many bytes to chop off the file's
    end (``truncate-tail``); the seeded RNG keeps every payload
    reproducible run to run.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self.writes = 0
        #: Kinds that actually fired, in firing order (for assertions).
        self.fired: List[str] = []
        self._armed: List[Fault] = [
            fault for fault in plan.faults if fault.kind in DISK_FAULT_KINDS
        ]
        self._pending_truncation = 0
        # A string seed is hashed by ``random`` itself (SHA-512), not by
        # ``hash()``, whose value for a str varies with PYTHONHASHSEED:
        # payloads are reproducible across processes.
        self._rng = random.Random(f"{plan.seed}:disk")

    def _take_firing(self) -> List[Fault]:
        firing = [f for f in self._armed if f.after_messages < self.writes]
        for fault in firing:
            self._armed.remove(fault)
            self.fired.append(fault.kind)
        return firing

    def mutate_write(self, data: bytes) -> bytes:
        """Advance the write counter; return the bytes that reach the disk.

        Raises ``OSError(ENOSPC)`` when an ``enospc`` fault fires; for
        ``torn-write`` returns a strict seeded prefix, for ``bit-flip``
        returns the data with one seeded bit inverted.  A firing
        ``truncate-tail`` fault is deferred to :meth:`take_tail_truncation`.
        """
        self.writes += 1
        for fault in self._take_firing():
            if fault.kind == "enospc":
                raise OSError(
                    errno.ENOSPC, "injected disk-full fault (FaultPlan 'enospc')"
                )
            if fault.kind == "torn-write" and len(data) > 1:
                data = data[: self._rng.randrange(1, len(data))]
            elif fault.kind == "bit-flip" and data:
                position = self._rng.randrange(len(data))
                mutated = bytearray(data)
                mutated[position] ^= 1 << self._rng.randrange(8)
                data = bytes(mutated)
            elif fault.kind == "truncate-tail":
                self._pending_truncation = self._rng.randrange(1, 16)
        return data

    def take_tail_truncation(self) -> int:
        """Bytes to chop off the end of the file after the last write (0 = none)."""
        pending = self._pending_truncation
        self._pending_truncation = 0
        return pending


def epsilon_for_budget(budget_ms: Optional[float], floor: float = 0.05) -> float:
    """Pick a Karp–Luby ``epsilon`` from a latency budget in milliseconds.

    The graceful-degradation tier answers a deadline-missed request with an
    ``(ε, δ)`` estimate instead of an error; the smaller the budget, the
    looser the guarantee it promises (fewer samples fit).  The ladder is a
    deterministic function of the budget — not of measured time — so a
    degraded answer's contract is reproducible:

    >>> epsilon_for_budget(10)
    0.5
    >>> epsilon_for_budget(100)
    0.25
    >>> epsilon_for_budget(500)
    0.1
    >>> epsilon_for_budget(5000)
    0.05
    >>> epsilon_for_budget(5000, floor=0.2)  # never tighter than the request
    0.2
    """
    if budget_ms is None:
        return floor
    for threshold, epsilon in ((50.0, 0.5), (250.0, 0.25), (1000.0, 0.1)):
        if budget_ms < threshold:
            return max(epsilon, floor)
    return floor
