"""A checksummed, content-addressed store of compiled query plans.

Compiling a plan is the expensive, structure-dependent half of query
evaluation; the arithmetic half is cheap.  :class:`PlanStore` persists
compiled plans on disk so a restarted process — or a freshly spawned
serving worker — can load its hot set instead of recompiling it.

Keys and addressing
-------------------

A stored plan is valid for exactly one combination of

* the canonical query key (:func:`repro.plan.canonical_query_key`), which
  already folds away query-isomorphism and core minimization;
* the *structure* of the instance (:func:`instance_digest`: vertices and
  labelled edges, **not** probabilities — plans are probability-independent
  by construction, which is the whole point of compiling them);
* a solver-configuration namespace (the compile-relevant solver knobs),
  because two solvers configured differently may compile different plans
  for the same inputs.

:func:`plan_store_key` hashes the three into one hex digest; the entry
lives at ``<root>/<digest[:2]>/<digest>.plan``.  Entries are immutable:
a put either creates the file (atomically, temp file + ``os.replace``) or
finds it already present.

Entry format and corruption handling
------------------------------------

Each entry is a 12-byte header (magic ``b"RPLN"``, ``uint16`` version,
two reserved bytes, ``uint32`` payload CRC32) followed by the pickled
payload dictionary.  Reads validate magic, version and checksum before
unpickling; a failing entry is *quarantined* — moved into
``<root>/quarantine/`` and counted — never unpickled, and never a crash.
A missing or damaged plan only costs a recompile.

Disk-full and other write errors likewise degrade instead of crashing:
:meth:`PlanStore.put` counts the failure and serving continues without
that entry.
"""

from __future__ import annotations

import os
import pickle
import struct
import zlib
from typing import Any, Dict, Hashable, Iterator, List, Optional, Tuple

from repro.exceptions import PersistenceError
from repro.obs.trace import current_tracer
from repro.plan import CompiledPlan, PlanCache
from repro.probability.prob_graph import ProbabilisticGraph

#: Entry header: magic + format version + reserved, then the payload CRC32.
#: Version 2: component plans hold ``(kernel, structure)`` pairs; version 1
#: entries pickled wrapper classes that no longer exist.
STORE_MAGIC = b"RPLN"
STORE_VERSION = 2
_HEADER = struct.Struct("<4sHHI")


def instance_digest(instance: ProbabilisticGraph) -> str:
    """A hex digest of an instance's *structure* (never its probabilities).

    Two instances with the same vertices and the same labelled edges share
    a digest even when their probability annotations differ, because
    compiled plans separate structure from arithmetic: the structural
    skeleton is reusable across probability tables, and serving re-seeds
    probabilities from the live instance (see
    :meth:`repro.plan.CompiledPlan.rebind`).  The digest is memoised on
    the instance's frozen graph, so it lives exactly as long as the graph.
    """
    graph = instance.graph
    return graph.cached("instance_digest", lambda: _hash_structure(graph))


def _sha256():
    """A fresh SHA-256 hasher, importing :mod:`hashlib` on first use.

    ``hashlib`` maps OpenSSL's libcrypto, about 3.6 MB of resident memory
    on Python 3.11, which a process that never persists a plan does not
    need.
    """
    import hashlib

    return hashlib.sha256()


def _hash_structure(graph) -> str:
    """The uncached :func:`instance_digest` of ``graph``."""
    hasher = _sha256()
    for vertex in sorted(str(v) for v in graph.vertices):
        hasher.update(b"v\x00" + vertex.encode("utf-8") + b"\x00")
    edges = sorted(
        (str(edge.source), str(edge.target), str(edge.label))
        for edge in graph.edges()
    )
    for source, target, label in edges:
        hasher.update(
            b"e\x00"
            + source.encode("utf-8")
            + b"\x00"
            + target.encode("utf-8")
            + b"\x00"
            + label.encode("utf-8")
            + b"\x00"
        )
    return hasher.hexdigest()


def plan_store_key(query_key: Hashable, structure_digest: str, namespace: str) -> str:
    """The content address of one plan-store entry (a hex digest).

    Combines the canonical query key, the instance structure digest (from
    :func:`instance_digest`) and the solver-configuration namespace, so a
    plan is only ever served back for the exact combination it was
    compiled for.
    """
    hasher = _sha256()
    hasher.update(repr(query_key).encode("utf-8"))
    hasher.update(b"\x00")
    hasher.update(structure_digest.encode("utf-8"))
    hasher.update(b"\x00")
    hasher.update(namespace.encode("utf-8"))
    return hasher.hexdigest()


class PlanStore:
    """A directory of checksummed compiled-plan entries (see module docs).

    The store holds no open file handles, so it pickles freely — a solver
    configured with a store ships a working copy to every serving worker.
    Counters (``puts``, ``put_errors``, ``hits``, ``misses``, ``corrupt``)
    are per-copy.  ``fault_injector`` is the chaos hook threaded through
    the write path (see
    :class:`~repro.service.faults.DiskFaultInjector`).
    """

    def __init__(self, directory: str, fault_injector=None) -> None:
        if os.path.exists(directory) and not os.path.isdir(directory):
            raise PersistenceError(f"plan store path {directory!r} is not a directory")
        self.directory = directory
        self.fault_injector = fault_injector
        os.makedirs(directory, exist_ok=True)
        self.puts = 0
        self.put_errors = 0
        self.hits = 0
        self.misses = 0
        self.corrupt = 0

    # ------------------------------------------------------------------
    # paths
    # ------------------------------------------------------------------
    def entry_path(self, digest: str) -> str:
        """Where the entry for ``digest`` lives (whether or not it exists)."""
        return os.path.join(self.directory, digest[:2], f"{digest}.plan")

    def _quarantine_dir(self) -> str:
        return os.path.join(self.directory, "quarantine")

    def _entry_files(self) -> Iterator[str]:
        for name in sorted(os.listdir(self.directory)):
            shard = os.path.join(self.directory, name)
            if len(name) != 2 or not os.path.isdir(shard):
                continue
            for entry in sorted(os.listdir(shard)):
                if entry.endswith(".plan"):
                    yield os.path.join(shard, entry)

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------
    def put(
        self,
        query_key: Hashable,
        structure_digest: str,
        namespace: str,
        plan: CompiledPlan,
    ) -> Optional[str]:
        """Persist one compiled plan; returns its digest, or ``None``.

        Idempotent (an existing entry is left untouched) and atomic (temp
        file + ``os.replace``).  A write failure — disk full, injected or
        real — is counted in ``put_errors`` and returns ``None``: losing
        durability for one plan must never take serving down.
        """
        with current_tracer().span("store.put") as span:
            digest = plan_store_key(query_key, structure_digest, namespace)
            path = self.entry_path(digest)
            if os.path.exists(path):
                return digest
            payload = pickle.dumps(
                {
                    "query_key": query_key,
                    "instance_digest": structure_digest,
                    "namespace": namespace,
                    "plan": plan,
                },
                protocol=pickle.HIGHEST_PROTOCOL,
            )
            data = (
                _HEADER.pack(STORE_MAGIC, STORE_VERSION, 0, zlib.crc32(payload))
                + payload
            )
            if span:
                span.attrs["bytes"] = len(data)
            temporary = f"{path}.tmp.{os.getpid()}"
            try:
                if self.fault_injector is not None:
                    data = self.fault_injector.mutate_write(data)
                os.makedirs(os.path.dirname(path), exist_ok=True)
                with open(temporary, "wb") as handle:
                    handle.write(data)
                    handle.flush()
                    os.fsync(handle.fileno())
                    if self.fault_injector is not None:
                        truncation = self.fault_injector.take_tail_truncation()
                        if truncation:
                            size = os.fstat(handle.fileno()).st_size
                            os.ftruncate(handle.fileno(), max(0, size - truncation))
                os.replace(temporary, path)
            except OSError:
                self.put_errors += 1
                if os.path.exists(temporary):
                    try:
                        os.remove(temporary)
                    except OSError:  # pragma: no cover - best-effort cleanup
                        pass
                return None
            self.puts += 1
            return digest

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def _read_entry(self, path: str) -> Tuple[Optional[Dict[str, Any]], Optional[str]]:
        """Validate and unpickle one entry file.

        Returns ``(payload, None)`` on success or ``(None, reason)`` when
        the entry fails validation (the reason names the failing layer).
        """
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except OSError:
            return None, "unreadable"
        if len(data) < _HEADER.size:
            return None, "truncated header"
        magic, version, _, checksum = _HEADER.unpack_from(data)
        if magic != STORE_MAGIC:
            return None, "bad magic"
        if version != STORE_VERSION:
            return None, f"unsupported version {version}"
        payload = data[_HEADER.size :]
        if zlib.crc32(payload) != checksum:
            return None, "checksum mismatch"
        try:
            entry = pickle.loads(payload)
        except Exception:  # noqa: BLE001 - treat any unpickling failure
            # as corruption; the checksum passing makes this near-impossible
            # but quarantining is still the right answer.
            return None, "undecodable payload"
        if not isinstance(entry, dict) or "plan" not in entry:
            return None, "malformed payload"
        return entry, None

    def _quarantine(self, path: str) -> str:
        """Move a corrupt entry aside (never delete evidence); count it."""
        self.corrupt += 1
        quarantine = self._quarantine_dir()
        os.makedirs(quarantine, exist_ok=True)
        target = os.path.join(quarantine, os.path.basename(path))
        suffix = 0
        while os.path.exists(target):
            suffix += 1
            target = os.path.join(quarantine, f"{os.path.basename(path)}.{suffix}")
        os.replace(path, target)
        return target

    def get(
        self, query_key: Hashable, structure_digest: str, namespace: str
    ) -> Optional[CompiledPlan]:
        """The stored plan for the key combination, or ``None`` (counted).

        A corrupt entry is quarantined and reported as a miss; the caller
        simply recompiles.
        """
        with current_tracer().span("store.get") as span:
            digest = plan_store_key(query_key, structure_digest, namespace)
            path = self.entry_path(digest)
            if not os.path.exists(path):
                self.misses += 1
                if span:
                    span.attrs["hit"] = False
                return None
            entry, failure = self._read_entry(path)
            if entry is None:
                self._quarantine(path)
                self.misses += 1
                if span:
                    span.attrs["hit"] = False
                return None
            if failure is None and entry.get("instance_digest") != structure_digest:
                # A digest collision is cryptographically implausible; treat a
                # mismatched payload as corruption all the same.
                self._quarantine(path)
                self.misses += 1
                if span:
                    span.attrs["hit"] = False
                return None
            self.hits += 1
            if span:
                span.attrs["hit"] = True
            return entry["plan"]

    def entries(self) -> Iterator[Dict[str, Any]]:
        """Iterate the valid entries' payload dictionaries (corrupt ones
        are quarantined along the way)."""
        for path in list(self._entry_files()):
            entry, _ = self._read_entry(path)
            if entry is None:
                self._quarantine(path)
                continue
            yield entry

    def verify(self) -> Dict[str, Any]:
        """Read-only integrity check over every entry.

        Returns ``{"entries", "valid", "corrupt", "failures"}`` where
        ``failures`` maps each failing path to the validation layer that
        rejected it.  Nothing is repaired or quarantined — this is the
        detector behind ``repro store verify``.
        """
        entries = 0
        valid = 0
        failures: Dict[str, str] = {}
        for path in self._entry_files():
            entries += 1
            entry, failure = self._read_entry(path)
            if entry is None:
                failures[path] = failure or "corrupt"
            else:
                valid += 1
        return {
            "entries": entries,
            "valid": valid,
            "corrupt": len(failures),
            "failures": failures,
        }

    def inspect(self) -> List[Dict[str, Any]]:
        """A metadata listing of the valid entries (for ``repro store inspect``).

        Each row carries the entry digest, the canonical query key's
        ``repr``, the instance digest, the namespace, the plan's method,
        and the entry size in bytes.
        """
        rows: List[Dict[str, Any]] = []
        for path in self._entry_files():
            entry, _ = self._read_entry(path)
            if entry is None:
                continue
            plan = entry["plan"]
            rows.append(
                {
                    "digest": os.path.basename(path)[: -len(".plan")],
                    "query_key": repr(entry.get("query_key")),
                    "instance_digest": entry.get("instance_digest"),
                    "namespace": entry.get("namespace"),
                    "method": getattr(plan, "method", "?"),
                    "tape": getattr(plan, "_tape", None) is not None,
                    "bytes": os.path.getsize(path),
                }
            )
        return rows

    def __len__(self) -> int:
        """Number of entry files currently on disk (valid or not)."""
        return sum(1 for _ in self._entry_files())

    @property
    def stats(self) -> Dict[str, int]:
        """Store counters: puts, put_errors, hits, misses, corrupt."""
        return {
            "puts": self.puts,
            "put_errors": self.put_errors,
            "hits": self.hits,
            "misses": self.misses,
            "corrupt": self.corrupt,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PlanStore({self.directory!r}, hits={self.hits}, misses={self.misses})"


class PersistentPlanCache(PlanCache):
    """The in-memory plan LRU backed by an on-disk :class:`PlanStore`.

    A drop-in :class:`~repro.plan.PlanCache` (the solver's existing cache
    seam): memory hits behave identically; a memory miss falls through to
    the store, and a store hit *rebinds* the loaded plan to the live
    instance (:meth:`repro.plan.CompiledPlan.rebind`) and inserts it
    without counting a compile — the ``loads`` counter tracks these, which
    is what lets the warm-restart benchmark assert that zero hot-set plans
    were recompiled.  Freshly compiled plans are written through to the
    store.
    """

    def __init__(
        self,
        maxsize: int = 128,
        plan_store: Optional[PlanStore] = None,
        namespace: str = "",
    ) -> None:
        super().__init__(maxsize=maxsize)
        if plan_store is None:
            raise PersistenceError("PersistentPlanCache needs a PlanStore")
        self.plan_store = plan_store
        self.namespace = namespace
        self.loads = 0

    def _insert_loaded(
        self, query_key: Hashable, instance: ProbabilisticGraph, plan: CompiledPlan
    ) -> None:
        """Insert a store-loaded plan without counting a compile."""
        self.loads += 1
        self._insert(query_key, instance, plan)

    def lookup(
        self, query_key: Hashable, instance: ProbabilisticGraph
    ) -> Optional[CompiledPlan]:
        """Memory first, then the store (a store hit is a ``load``, not a
        compile); ``None`` only when both tiers miss."""
        plan = super().lookup(query_key, instance)
        if plan is not None:
            return plan
        stored = self.plan_store.get(
            query_key, instance_digest(instance), self.namespace
        )
        if stored is None:
            return None
        stored.rebind(instance)
        self._insert_loaded(query_key, instance, stored)
        return stored

    def store(
        self, query_key: Hashable, instance: ProbabilisticGraph, plan: CompiledPlan
    ) -> None:
        """Count the compile, cache in memory, and write through to disk."""
        super().store(query_key, instance, plan)
        self.plan_store.put(
            query_key, instance_digest(instance), self.namespace, plan
        )

    def warm(self, instance: ProbabilisticGraph) -> int:
        """Pre-load every stored plan matching ``instance`` (and this
        cache's namespace) into memory; returns how many were loaded.

        Called by serving workers at registration time so that the first
        request after a warm restart finds its plan already bound — the
        read-through tier alone would also find it, but warming moves the
        disk reads out of the request path.
        """
        digest = instance_digest(instance)
        loaded = 0
        for entry in self.plan_store.entries():
            if entry.get("instance_digest") != digest:
                continue
            if entry.get("namespace") != self.namespace:
                continue
            query_key = entry.get("query_key")
            if super().lookup(query_key, instance) is not None:
                # Already warm; undo the probe's hit so warming is
                # statistics-neutral for plans that were never cold.
                self.hits -= 1
                continue
            self.misses -= 1  # the probe above was bookkeeping, not traffic
            plan = entry["plan"]
            plan.rebind(instance)
            self._insert_loaded(query_key, instance, plan)
            loaded += 1
        return loaded

    @property
    def stats(self) -> Dict[str, Any]:
        """Cache counters plus ``loads`` and the backing store's counters."""
        merged = dict(super().stats)
        merged["loads"] = self.loads
        merged["store"] = self.plan_store.stats
        return merged
