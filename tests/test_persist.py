"""Unit suite for :mod:`repro.persist`: the WAL, the plan store, and the
persistent plan-cache tier.

Every corruption here is injected through the seeded
:class:`~repro.service.faults.DiskFaultInjector` (or byte surgery where a
specific field must be hit), and every scenario asserts the durability
contract: damage is *detected* — never silently replayed — the clean
prefix survives, damaged bytes are preserved in quarantine for
post-mortems, and recovered answers stay bit-identical.
"""

from __future__ import annotations

import errno
import os
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest

import repro
from repro.core.solver import PHomSolver
from repro.exceptions import PersistenceError, PlanError
from repro.graphs.builders import one_way_path
from repro.graphs.classes import GraphClass
from repro.persist import (
    FSYNC_POLICIES,
    PersistentPlanCache,
    PlanStore,
    WriteAheadLog,
    instance_digest,
    plan_store_key,
    scan_wal,
)
from repro.persist.store import STORE_VERSION
from repro.persist.wal import WAL_MAGIC
from repro.probability.prob_graph import ProbabilisticGraph
from repro.service import DiskFaultInjector, Fault, FaultPlan
from repro.workloads.generators import attach_random_probabilities, make_instance


def sample_records(count: int):
    return [("update", "instance-0", ((f"v{i}", f"w{i}"),), f"{i + 1}/7")
            for i in range(count)]


def injector(kind: str, after: int = 0, seed: int = 11) -> DiskFaultInjector:
    return DiskFaultInjector(
        FaultPlan(faults=(Fault(kind=kind, after_messages=after),), seed=seed)
    )


def build_instance(seed: int, size: int = 12) -> ProbabilisticGraph:
    graph = make_instance(GraphClass.DOWNWARD_TREE, True, size, seed)
    return attach_random_probabilities(graph, seed)


def build_query(seed: int):
    return make_instance(GraphClass.ONE_WAY_PATH, True, 3, seed)


# ----------------------------------------------------------------------
# Write-ahead log
# ----------------------------------------------------------------------
class TestWriteAheadLog:
    def test_roundtrip_and_reopen(self, tmp_path):
        records = sample_records(5)
        path = str(tmp_path / "wal")
        with WriteAheadLog(path, fsync="always") as wal:
            for record in records:
                wal.append(record)
            assert wal.replay() == records
        reopened = WriteAheadLog(path)
        assert reopened.replay() == records
        assert not reopened.recovery.corruption_detected
        assert reopened.recovery.records_replayed == len(records)
        reopened.close()

    def test_torn_tail_truncated_and_preserved(self, tmp_path):
        records = sample_records(3)
        path = str(tmp_path / "wal")
        chaos = injector("torn-write", after=2)
        with WriteAheadLog(path, fsync="always", fault_injector=chaos) as wal:
            for record in records:
                wal.append(record)
        assert chaos.fired == ["torn-write"]

        wal = WriteAheadLog(path)
        assert wal.recovery.corruption_detected
        assert wal.recovery.torn_tail_bytes > 0
        assert wal.replay() == records[:2]
        wal.close()
        # The damaged bytes are preserved for post-mortems, not deleted.
        quarantine = tmp_path / "wal" / "quarantine"
        tails = [p for p in quarantine.iterdir() if ".tail-" in p.name]
        assert len(tails) == 1
        assert tails[0].stat().st_size == wal.recovery.torn_tail_bytes
        # The repair is durable: a clean scan afterwards.
        assert not scan_wal(path).corruption_detected

    def test_truncate_tail_fault_recovers_prefix(self, tmp_path):
        records = sample_records(4)
        path = str(tmp_path / "wal")
        chaos = injector("truncate-tail", after=3)
        with WriteAheadLog(path, fsync="always", fault_injector=chaos) as wal:
            for record in records:
                wal.append(record)
        assert chaos.fired == ["truncate-tail"]
        wal = WriteAheadLog(path)
        assert wal.recovery.torn_tail_bytes > 0
        assert wal.replay() == records[:3]
        wal.close()

    def test_bit_flip_detected_and_prefix_replayed(self, tmp_path):
        records = sample_records(4)
        path = str(tmp_path / "wal")
        chaos = injector("bit-flip", after=2)
        with WriteAheadLog(path, fsync="always", fault_injector=chaos) as wal:
            for record in records:
                wal.append(record)
        wal = WriteAheadLog(path)
        # A flipped bit may land in the frame header (seen as a torn tail)
        # or the payload (seen as a CRC mismatch) — either way it must be
        # detected and the damaged record must not replay.
        assert wal.recovery.corruption_detected
        assert wal.replay() == records[:2]
        wal.close()

    def test_bad_header_segment_quarantined(self, tmp_path):
        records = sample_records(2)
        path = str(tmp_path / "wal")
        with WriteAheadLog(path, fsync="always") as wal:
            for record in records:
                wal.append(record)
        rogue = tmp_path / "wal" / "segment-000009.wal"
        rogue.write_bytes(b"XXXX" + os.urandom(16))
        wal = WriteAheadLog(path)
        assert wal.recovery.quarantined_segments == 1
        assert wal.replay() == records
        wal.close()
        assert not rogue.exists()
        quarantined = list((tmp_path / "wal" / "quarantine").iterdir())
        assert any(p.name == "segment-000009.wal" for p in quarantined)

    def test_rotation_and_compaction(self, tmp_path):
        path = str(tmp_path / "wal")
        wal = WriteAheadLog(path, fsync="batch", segment_max_bytes=256)
        records = sample_records(30)
        for record in records:
            wal.append(record)
        assert len(wal.segments) > 1
        assert wal.replay() == records

        folded = sample_records(2)
        wal.compact(folded)
        assert len(wal.segments) == 1
        assert wal.replay() == folded
        wal.close()
        # Compaction is durable across a reopen.
        wal = WriteAheadLog(path)
        assert wal.replay() == folded
        wal.close()

    def test_enospc_append_raises_and_log_survives(self, tmp_path):
        path = str(tmp_path / "wal")
        wal = WriteAheadLog(path, fsync="always", fault_injector=injector("enospc", after=1))
        wal.append(("update", "a", (), "1/2"))
        with pytest.raises(OSError) as excinfo:
            wal.append(("update", "b", (), "1/3"))
        assert excinfo.value.errno == errno.ENOSPC
        # The log stays usable: the failed append wrote nothing.
        wal.append(("update", "c", (), "1/4"))
        assert wal.replay() == [("update", "a", (), "1/2"), ("update", "c", (), "1/4")]
        wal.close()

    def test_policy_validation_and_closed_log(self, tmp_path):
        assert set(FSYNC_POLICIES) == {"always", "batch", "never"}
        with pytest.raises(PersistenceError):
            WriteAheadLog(str(tmp_path / "w1"), fsync="sometimes")
        wal = WriteAheadLog(str(tmp_path / "w2"))
        wal.close()
        wal.close()  # idempotent
        with pytest.raises(PersistenceError):
            wal.append(("update", "a", (), "1/2"))

    def test_scan_is_read_only(self, tmp_path):
        path = str(tmp_path / "wal")
        chaos = injector("torn-write", after=1)
        with WriteAheadLog(path, fsync="always", fault_injector=chaos) as wal:
            for record in sample_records(2):
                wal.append(record)
        before = {p.name: p.stat().st_size for p in (tmp_path / "wal").iterdir()}
        report = scan_wal(path)
        assert report.corruption_detected and report.torn_tail_bytes > 0
        after = {p.name: p.stat().st_size for p in (tmp_path / "wal").iterdir()}
        assert after == before  # the detector repaired nothing


# ----------------------------------------------------------------------
# Plan store
# ----------------------------------------------------------------------
class TestPlanStore:
    def test_roundtrip_bit_identical(self, tmp_path):
        instance = build_instance(21)
        plan = PHomSolver().compile(build_query(22), instance)
        store = PlanStore(str(tmp_path / "plans"))
        digest = instance_digest(instance)
        entry = store.put("key", digest, "ns", plan)
        assert entry == plan_store_key("key", digest, "ns")
        loaded = store.get("key", digest, "ns")
        assert loaded.evaluate() == plan.evaluate()
        assert store.stats["puts"] == 1 and store.stats["hits"] == 1
        assert len(store) == 1

    def test_digest_ignores_probabilities(self):
        graph = make_instance(GraphClass.DOWNWARD_TREE, True, 10, 31)
        first = attach_random_probabilities(graph, 31)
        second = attach_random_probabilities(graph.copy(), 32)
        assert instance_digest(first) == instance_digest(second)
        # ...but not graph structure.
        other = build_instance(33, size=11)
        assert instance_digest(first) != instance_digest(other)

    def test_missing_and_namespace_isolation(self, tmp_path):
        instance = build_instance(41)
        plan = PHomSolver().compile(build_query(42), instance)
        store = PlanStore(str(tmp_path / "plans"))
        digest = instance_digest(instance)
        store.put("key", digest, "ns-a", plan)
        assert store.get("key", digest, "ns-b") is None
        assert store.get("other", digest, "ns-a") is None
        assert store.stats["misses"] == 2

    def test_corrupt_entry_quarantined_not_fatal(self, tmp_path):
        instance = build_instance(51)
        plan = PHomSolver().compile(build_query(52), instance)
        store = PlanStore(str(tmp_path / "plans"))
        digest = instance_digest(instance)
        entry = store.put("key", digest, "", plan)
        path = store.entry_path(entry)
        blob = bytearray(open(path, "rb").read())
        blob[len(blob) // 2] ^= 0x40
        with open(path, "wb") as handle:
            handle.write(bytes(blob))

        assert store.verify()["corrupt"] == 1  # read-only detection first
        assert store.get("key", digest, "") is None  # quarantines, recompile
        assert store.stats["corrupt"] == 1
        assert not os.path.exists(path)
        quarantine = tmp_path / "plans" / "quarantine"
        assert len(list(quarantine.iterdir())) == 1
        assert store.verify() == {"entries": 0, "valid": 0, "corrupt": 0,
                                  "failures": {}}

    def test_bit_flip_injected_put_detected(self, tmp_path):
        instance = build_instance(61)
        plan = PHomSolver().compile(build_query(62), instance)
        store = PlanStore(str(tmp_path / "plans"), fault_injector=injector("bit-flip"))
        digest = instance_digest(instance)
        store.put("key", digest, "", plan)
        report = PlanStore(str(tmp_path / "plans")).verify()
        assert report["entries"] == 1 and report["corrupt"] == 1
        (reason,) = report["failures"].values()
        assert reason == "checksum mismatch"

    def test_enospc_put_degrades(self, tmp_path):
        instance = build_instance(71)
        plan = PHomSolver().compile(build_query(72), instance)
        store = PlanStore(str(tmp_path / "plans"), fault_injector=injector("enospc"))
        assert store.put("key", instance_digest(instance), "", plan) is None
        assert store.stats["put_errors"] == 1
        # No partial entry, no leaked temp file.
        leftovers = [
            name for _, _, files in os.walk(tmp_path / "plans") for name in files
        ]
        assert leftovers == []

    def test_inspect_rows(self, tmp_path):
        instance = build_instance(81)
        plan = PHomSolver().compile(build_query(82), instance)
        store = PlanStore(str(tmp_path / "plans"))
        digest = instance_digest(instance)
        store.put(("q", 1), digest, "ns", plan)
        (row,) = store.inspect()
        assert row["instance_digest"] == digest
        assert row["namespace"] == "ns"
        assert row["query_key"] == repr(("q", 1))
        assert row["bytes"] > 0

    def test_store_is_picklable(self, tmp_path):
        store = PlanStore(str(tmp_path / "plans"))
        clone = pickle.loads(pickle.dumps(store))
        assert clone.directory == store.directory


# ----------------------------------------------------------------------
# Persistent plan-cache tier
# ----------------------------------------------------------------------
class TestPersistentPlanCache:
    def test_requires_store(self):
        with pytest.raises(PersistenceError):
            PersistentPlanCache(plan_store=None)

    def test_write_through_then_load_not_compile(self, tmp_path):
        instance = build_instance(91)
        query = build_query(92)
        first = PHomSolver(plan_store=str(tmp_path / "plans"))
        first.compile(query, instance)
        assert first.plan_cache.stats["compiles"] == 1
        assert first.plan_cache.stats["store"]["puts"] == 1

        second = PHomSolver(plan_store=str(tmp_path / "plans"))
        plan = second.compile(query, instance)
        stats = second.plan_cache.stats
        assert stats["compiles"] == 0 and stats["loads"] == 1
        assert plan.evaluate() == first.compile(query, instance).evaluate()

    def test_warm_preloads_without_polluting_traffic_counters(self, tmp_path):
        instance = build_instance(101)
        query = build_query(102)
        writer = PHomSolver(plan_store=str(tmp_path / "plans"))
        writer.compile(query, instance)

        reader = PHomSolver(plan_store=str(tmp_path / "plans"))
        warmed = reader.plan_cache.warm(instance)
        assert warmed == 1
        stats = reader.plan_cache.stats
        assert stats["loads"] == 1
        assert stats["hits"] == 0 and stats["misses"] == 0  # probes unbilled
        reader.compile(query, instance)
        assert reader.plan_cache.stats["hits"] == 1
        assert reader.plan_cache.stats["compiles"] == 0

    def test_digest_is_never_inherited_through_a_recycled_id(
        self, tmp_path, monkeypatch
    ):
        # CPython hands a freed instance's id() to later objects.  Shadowing
        # id() in the store module with a constant makes every instance
        # collide at once, as a freed instance and its successor would: a
        # digest memo keyed by id() then files one instance's plans under
        # another's structure, and the wrong entry outlives the process.
        import repro.persist.store as store_module

        monkeypatch.setattr(store_module, "id", lambda _obj: 0, raising=False)
        query = one_way_path(["R", "R"], prefix="q")
        short, long = (
            attach_random_probabilities(one_way_path(["R"] * n, prefix="i"), n)
            for n in (3, 5)
        )
        oracle = PHomSolver()
        root = str(tmp_path / "plans")
        solver = PHomSolver(plan_store=root, plan_cache_size=1)
        for instance in (short, long, short):
            want = oracle.solve(query, instance).probability
            assert solver.solve(query, instance).probability == want
        digests = {entry["instance_digest"] for entry in PlanStore(root).entries()}
        assert digests == {instance_digest(short), instance_digest(long)}
        restarted = PHomSolver(plan_store=root, plan_cache_size=1)
        for instance in (long, short):
            want = oracle.solve(query, instance).probability
            assert restarted.solve(query, instance).probability == want
        assert restarted.plan_cache.stats["compiles"] == 0

    def test_solver_rejects_store_without_cache(self, tmp_path):
        with pytest.raises(ValueError):
            PHomSolver(plan_store=str(tmp_path / "plans"), plan_cache_size=0)

    def test_solver_pickles_with_store(self, tmp_path):
        solver = PHomSolver(plan_store=str(tmp_path / "plans"))
        instance = build_instance(111)
        query = build_query(112)
        expected = solver.solve(query, instance).probability
        clone = pickle.loads(pickle.dumps(solver))
        assert clone.plan_store is not None
        assert clone.solve(query, instance).probability == expected


# ----------------------------------------------------------------------
# Tape persistence
# ----------------------------------------------------------------------
def tape_batches(instance: ProbabilisticGraph, seed: int):
    """A small batch of override valuations over ``instance``'s edges."""
    edges = sorted(instance.graph.edges())
    return [
        None,
        {},
        {edges[seed % len(edges)]: Fraction(3, 7)},
        {edge: Fraction((i + seed) % 9 + 1, 11) for i, edge in enumerate(edges[:4])},
    ]


def entry_files(root) -> list:
    return [
        os.path.join(dirpath, name)
        for dirpath, _, files in os.walk(root)
        for name in files
        if name.endswith(".plan") and "quarantine" not in dirpath
    ]


class TestTapePersistence:
    """Compiled tapes are durable alongside their plans: a pickle or a
    store roundtrip carries the tape, rebinding re-targets it to the live
    instance, and a corrupt tape-bearing entry costs a recompile — never a
    crash or a wrong answer."""

    def test_pickle_store_roundtrip_rebind_matches_fresh_compile(self, tmp_path):
        instance = build_instance(141)
        query = build_query(142)
        solver = PHomSolver()
        plan = solver.compile(query, instance)
        tape = solver.tape_for(query, instance)
        batches = tape_batches(instance, 141)
        expected = plan.evaluate_many(batches)

        # compile -> pickle -> PlanStore roundtrip -> rebind -> evaluate
        store = PlanStore(str(tmp_path / "plans"))
        digest = instance_digest(instance)
        store.put("key", digest, "ns", plan)
        loaded = store.get("key", digest, "ns")
        assert loaded is not plan and loaded.has_tape()
        reweighted = attach_random_probabilities(instance.graph.copy(), 143)
        loaded.rebind(reweighted)

        fresh = PHomSolver().compile(query, reweighted)
        assert loaded.evaluate() == fresh.evaluate()
        assert loaded.evaluate_many(tape_batches(reweighted, 143)) == \
            fresh.evaluate_many(tape_batches(reweighted, 143))
        # ...and the original binding's answers were not disturbed.
        assert plan.evaluate_many(batches) == expected
        # The pickled tape is structurally the same program.
        assert loaded.tape().describe() == tape.describe()

    def test_plan_pickles_after_vectorized_evaluation(self):
        # evaluate_many materialises derived per-backend caches (packed
        # segments, edge-slot maps, possibly numpy arrays); none of that
        # may leak into the pickle, which must stay loadable anywhere.
        instance = build_instance(151)
        query = build_query(152)
        solver = PHomSolver()
        batches = tape_batches(instance, 151)
        expected = solver.evaluate_many(query, instance, batches)
        plan = solver.compile(query, instance)
        clone = pickle.loads(pickle.dumps(plan))
        clone.rebind(instance)
        assert clone.evaluate_many(batches) == expected

    def test_one_store_put_carries_the_tape(self, tmp_path):
        instance = build_instance(161)
        query = build_query(162)
        writer = PHomSolver(plan_store=str(tmp_path / "plans"))
        writer.compile(query, instance)
        store = writer.plan_cache.plan_store
        (row,) = store.inspect()
        assert row["tape"] is True  # lowered at compile, before the one put
        assert store.stats["puts"] == 1
        writer.tape_for(query, instance)
        assert store.stats["puts"] == 1
        assert len(entry_files(tmp_path / "plans")) == 1

        # An entry written without a tape (as a solve's first compile
        # writes one) still answers: the reader lowers it once, on reuse.
        (entry,) = store.entries()
        stale = pickle.loads(pickle.dumps(entry["plan"]))
        stale._tape = None
        PlanStore(str(tmp_path / "old")).put(
            entry["query_key"], entry["instance_digest"], entry["namespace"], stale
        )
        reader = PHomSolver(plan_store=str(tmp_path / "old"))
        assert reader.solve(query, instance).probability == writer.solve(query, instance).probability
        assert reader.compile(query, instance).has_tape()
        assert reader.plan_cache.stats["compiles"] == 0

    def test_warm_restart_loads_tape_without_recompiling(self, tmp_path):
        instance = build_instance(171)
        query = build_query(172)
        writer = PHomSolver(plan_store=str(tmp_path / "plans"))
        expected = writer.evaluate_many(query, instance, tape_batches(instance, 171))

        reader = PHomSolver(plan_store=str(tmp_path / "plans"))
        assert reader.plan_cache.warm(instance) == 1
        plan = reader.compile(query, instance)
        assert plan.has_tape()  # the tape rode along with the stored plan
        assert reader.evaluate_many(query, instance, tape_batches(instance, 171)) == expected
        stats = reader.plan_cache.stats
        assert stats["compiles"] == 0 and stats["tape_compiles"] == 0
        assert stats["loads"] == 1

    def test_corrupt_tape_entry_quarantined_then_recompiled(self, tmp_path):
        instance = build_instance(181)
        query = build_query(182)
        writer = PHomSolver(plan_store=str(tmp_path / "plans"))
        expected = writer.evaluate_many(query, instance, tape_batches(instance, 181))
        (path,) = entry_files(tmp_path / "plans")
        blob = bytearray(open(path, "rb").read())
        blob[len(blob) - 5] ^= 0x20  # hit the pickled payload (tape bytes)
        with open(path, "wb") as handle:
            handle.write(bytes(blob))

        reader = PHomSolver(plan_store=str(tmp_path / "plans"))
        answers = reader.evaluate_many(query, instance, tape_batches(instance, 181))
        assert answers == expected  # recompiled from scratch, bit-identical
        stats = reader.plan_cache.stats
        assert stats["compiles"] == 1 and stats["tape_compiles"] == 1
        assert stats["store"]["corrupt"] == 1
        quarantine = tmp_path / "plans" / "quarantine"
        assert len(list(quarantine.iterdir())) == 1  # evidence preserved
        # The recompile was written back through — the same path now holds
        # a fresh, valid entry, tape and all.
        verifier = PlanStore(str(tmp_path / "plans"))
        assert verifier.verify() == {"entries": 1, "valid": 1, "corrupt": 0,
                                     "failures": {}}
        (row,) = verifier.inspect()
        assert row["tape"] is True

    def test_old_version_entry_is_a_miss_then_recompiled(self, tmp_path):
        # Version 1 entries pickled ComponentPlans with wrapper classes
        # that no longer exist: the header refuses them before unpickling.
        instance = build_instance(191)
        query = build_query(192)
        writer = PHomSolver(plan_store=str(tmp_path / "plans"))
        expected = writer.solve(query, instance).probability
        (path,) = entry_files(tmp_path / "plans")
        blob = bytearray(open(path, "rb").read())
        assert STORE_VERSION > 1
        blob[4:6] = (1).to_bytes(2, "little")
        with open(path, "wb") as handle:
            handle.write(bytes(blob))
        report = PlanStore(str(tmp_path / "plans")).verify()
        assert report["failures"] == {path: "unsupported version 1"}

        reader = PHomSolver(plan_store=str(tmp_path / "plans"))
        assert reader.solve(query, instance).probability == expected
        stats = reader.plan_cache.stats
        assert stats["loads"] == 0 and stats["compiles"] == 1
        assert stats["store"]["corrupt"] == 1
        assert PlanStore(str(tmp_path / "plans")).verify()["valid"] == 1


# ----------------------------------------------------------------------
# Plan rebinding
# ----------------------------------------------------------------------
class TestRebind:
    def test_rebind_same_structure_tracks_new_probabilities(self):
        graph = make_instance(GraphClass.DOWNWARD_TREE, True, 10, 121)
        original = attach_random_probabilities(graph, 121)
        reweighted = attach_random_probabilities(graph.copy(), 122)
        query = build_query(123)
        plan = PHomSolver().compile(query, original)
        baseline = PHomSolver().solve(query, reweighted).probability
        plan.rebind(reweighted)
        assert plan.evaluate() == baseline

    def test_rebind_structure_mismatch_raises(self):
        plan = PHomSolver().compile(build_query(131), build_instance(132))
        with pytest.raises(PlanError):
            plan.rebind(build_instance(133, size=13))


# ----------------------------------------------------------------------
# Disk fault injector
# ----------------------------------------------------------------------
class TestDiskFaultInjector:
    def test_only_disk_kinds_arm(self):
        plan = FaultPlan(
            faults=(Fault(kind="kill"), Fault(kind="bit-flip")), seed=3
        )
        chaos = DiskFaultInjector(plan)
        chaos.mutate_write(b"x" * 64)
        assert chaos.fired == ["bit-flip"]  # the process fault never fires

    def test_deterministic_per_seed(self):
        def mutated(seed: int) -> bytes:
            chaos = injector("torn-write", seed=seed)
            return chaos.mutate_write(bytes(range(200)))

        assert mutated(5) == mutated(5)
        assert mutated(5) != mutated(6)

    def test_deterministic_across_interpreters(self):
        # hash() of a str differs between interpreters started with
        # different PYTHONHASHSEED values; the injected bytes must not.
        script = (
            "import sys\n"
            "from repro.service import DiskFaultInjector, Fault, FaultPlan\n"
            "faults = (Fault(kind='torn-write'), Fault(kind='bit-flip', after_messages=1))\n"
            "chaos = DiskFaultInjector(FaultPlan(faults=faults, seed=5))\n"
            "data = bytes(range(200))\n"
            "sys.stdout.write(chaos.mutate_write(data).hex() + ' ' + chaos.mutate_write(data).hex())\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        outputs = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
            completed = subprocess.run(
                [sys.executable, "-c", script],
                env=env, capture_output=True, text=True, check=True, timeout=60,
            )
            outputs.append(completed.stdout)
        torn, flipped = outputs[0].split()
        assert 0 < len(torn) < 400 and len(flipped) == 400  # both faults fired
        assert outputs[0] == outputs[1]

    def test_header_magic_constant(self):
        # The on-disk format is pinned: changing the magic breaks every
        # existing state directory, so the constant is load-bearing.
        assert WAL_MAGIC == b"RWAL"
