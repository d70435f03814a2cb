"""Compiled-plan benchmark script: plan reuse and incremental updates.

Thin wrapper over :mod:`repro.bench_plans` so the benchmark can be run either
as

    python benchmarks/bench_plans.py [--smoke] [--output BENCH_plans.json]
                                     [--min-reuse-speedup X]
                                     [--min-incremental-speedup Y]
                                     [--min-tape-speedup Z]
                                     [--min-exact-tape-speedup W]
                                     [--min-first-exact-speedup V]
                                     [--min-cold-exact-speedup C]
                                     [--min-interval-match-speedup U]
                                     [--min-live-speedup T]
                                     [--min-repeated-lane-speedup S]
                                     [--min-what-if-speedup W]

or through the CLI as ``repro bench plans``.  The recorded artefact,
``BENCH_plans.json``, is checked into the repository root and tracks the
serving-path numbers across PRs: re-evaluating compiled plans under drifting
probabilities versus cache-less ``solve_many`` (float), single-edge
``plan.update`` versus a full re-solve, the ``tape_batch`` curve —
batched flat-tape evaluation (:mod:`repro.tape`) at batch sizes 1/16/256
versus one ``plan.evaluate`` call per valuation — and, per route, exact
evaluation on the object graph versus on the integer tape, both in steady
state and for a plan's second answer, the first that lowers it (the
``first_exact`` row), a cold plan's first answer through the direct pass
versus lowering plus the first replay (the ``cold_exact`` row),
Proposition 4.11's bitset interval matching versus the X-property sweep,
a live ``plan.evaluate()`` catch-up after one ``set_probability``
versus a full tape replay (the ``live`` row), and a batch of 256 lanes
drawn from 8 tables versus 256 distinct lanes (the tape row's
``repeated`` point), and a one-lane what-if ``plan.evaluate`` on the
``live`` row's union instance versus a full tape replay of the same
table (the ``what_if`` row).  Every row is timed by :func:`repro.bench.time_sides`.
The ``--min-*-speedup`` flags turn regressions into a non-zero exit code,
which CI uses as a smoke gate.
"""

from __future__ import annotations

import sys

from repro.cli import main

if __name__ == "__main__":
    sys.exit(main(["bench", "plans", *sys.argv[1:]]))
