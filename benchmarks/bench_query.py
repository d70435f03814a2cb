"""Query-frontend benchmark script: core minimization vs as-written dispatch.

Thin wrapper over :mod:`repro.bench_query` so the benchmark can be run
either as

    python benchmarks/bench_query.py [--smoke] [--output BENCH_query.json]
                                     [--min-minimization-speedup X]
                                     [--min-core-speedup Y]
                                     [--min-parse-speedup Z]

or through the CLI as ``repro bench query``.  The recorded artefact,
``BENCH_query.json``, is checked into the repository root and tracks the
query-language frontend across PRs: the end-to-end speedup of minimized
dispatch (Chandra–Merlin core + polynomial route) over unminimized solving
(brute force and Karp–Luby) on redundant-atom queries whose cores are
tractable, the parse+minimize overhead under plan caching, and the
service-trace verification that ``canonical_query_key`` coalesces
syntactically distinct queries with equal cores, the per-shape cost of
``query_core`` against the generic fold search, and the per-shape cost of
``parse_query`` on plain atom lists against the recursive-descent parser.
The ``--min-minimization-speedup``, ``--min-core-speedup`` and
``--min-parse-speedup`` flags turn regressions into a non-zero exit code,
which CI uses as smoke gates.
"""

from __future__ import annotations

import sys

from repro.cli import main

if __name__ == "__main__":
    sys.exit(main(["bench", "query", *sys.argv[1:]]))
