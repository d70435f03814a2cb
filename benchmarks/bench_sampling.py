"""Sampling benchmark script: Karp–Luby estimation vs exact brute force.

Thin wrapper over :mod:`repro.bench_sampling` so the benchmark can be run
either as

    python benchmarks/bench_sampling.py [--smoke] [--output BENCH_sampling.json]
                                        [--min-sampling-speedup X]
                                        [--max-epsilon-ratio Y]

or through the CLI as ``repro bench sampling``.  The recorded artefact,
``BENCH_sampling.json``, is checked into the repository root and tracks the
sampling subsystem across PRs: the wall-clock speedup of the Karp–Luby
``(ε, δ)`` estimator over exhaustive possible-world enumeration on layered
intractable instances (up to ``2^20`` worlds in the full run), the achieved
relative error under a pinned seed, and the accuracy-vs-samples convergence
curves of both the importance sampler and the naive world sampler.  Both
sides of the speedup are timed in one round of
:func:`repro.bench.time_sides`.  The ``--min-sampling-speedup`` /
``--max-epsilon-ratio`` flags turn regressions into a non-zero exit code,
which CI uses as a smoke gate.
"""

from __future__ import annotations

import sys

from repro.cli import main

if __name__ == "__main__":
    sys.exit(main(["bench", "sampling", *sys.argv[1:]]))
