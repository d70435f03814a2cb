"""Serving-layer benchmark script: QueryService vs single-process solve_many.

Thin wrapper over :mod:`repro.bench_service` so the benchmark can be run
either as

    python benchmarks/bench_service.py [--smoke] [--output BENCH_service.json]
                                       [--min-service-speedup X]
                                       [--min-worker-scaling X]
                                       [--max-p99-ms MS]
                                       [--faults] [--max-recovery-ms MS]
                                       [--restart]
                                       [--min-obs-overhead-ratio X]
                                       [--trace-out trace.jsonl]

or through the CLI as ``repro bench service``.  The recorded artefact,
``BENCH_service.json``, is checked into the repository root and tracks the
serving numbers across PRs: throughput versus worker count on a Zipf-skewed
traffic trace, the request-coalescing hit rate, and the speedup of the
4-worker service over a persistent single-process ``solve_many`` loop —
with exact answers asserted bit-identical and pinned-seed approx estimates
asserted identical at every worker count on every run.  The
``--min-service-speedup`` flag turns regressions into a non-zero exit code,
which CI uses as a smoke gate (like ``--min-worker-scaling`` below, it is
enforced only on machines with at least as many CPUs as workers — a
smaller box cannot honestly show parallel speedup).

The report also records a ``throughput_vs_workers`` curve: a balanced
multi-instance trace replayed at 1/2/4 workers with p50/p99 batch
latencies and the per-worker instance map.  The curve's
machine-independent invariants — exact answers bit-identical across
worker counts, no registered shard leaving a worker idle — are asserted
on every run; ``--min-worker-scaling X`` gates 4-worker throughput at
``X`` times the 1-worker replay (enforced only when the machine has at
least as many CPUs as workers, and recorded as
``scaling_gate_enforceable`` either way) and ``--max-p99-ms`` caps the
worst recorded p99 batch latency.

``--faults`` additionally runs the chaos scenario — a seeded
:class:`~repro.service.faults.FaultPlan` kills one worker mid-trace — and
records a ``service_recovery`` section (restart latency, retried-request
overhead, degraded-answer accuracy); ``--max-recovery-ms`` gates on the
recorded worst-case restart latency.

Every run also records an ``observability`` section: the trace is
replayed through an untraced and a rate-1.0 traced inline service side by
side, tick by tick with the first arm alternating, over 30 rounds, and
the report captures the median ratio of the arms' process CPU times with
its 95% interval and half-width (answers asserted bit-identical, the span
stream validated) plus per-route latency histograms (exact-dp, ddnnf,
karp-luby, tape-batch) from the telemetry registry.
``--min-obs-overhead-ratio 0.95`` turns a median below 0.95, or a
half-width of 0.05 or more, into a non-zero exit code and
``--trace-out PATH`` keeps the traced replay's span JSONL so
``repro trace --validate`` can re-check the same artifact.

``--restart`` runs the durable-state scenario (:mod:`repro.persist`) and
records a ``restart_recovery`` section: a cold replay populates a state
directory, a warm restart from it must recompile zero plans with
bit-identical answers, and a seeded disk-fault matrix (torn-write,
truncate-tail, bit-flip, enospc, store-bit-flip) must be fully detected
and recovered — any violation is a non-zero exit code.

CI's service smoke step runs the suite once with every flag above and
then ``repro trace --validate`` on the ``--trace-out`` artifact.
"""

from __future__ import annotations

import sys

from repro.cli import main

if __name__ == "__main__":
    sys.exit(main(["bench", "service", *sys.argv[1:]]))
