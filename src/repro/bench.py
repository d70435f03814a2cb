"""What the benchmark suites share: the seed, the float contract, the timer.

Every suite (:mod:`repro.bench_plans`, :mod:`repro.bench_query`,
:mod:`repro.bench_sampling`, :mod:`repro.bench_service` and
``benchmarks/store_corruption_gate.py``) draws its workloads from
:data:`BENCH_SEED` through :func:`_rng`, checks float answers against exact
ones within :data:`FLOAT_TOLERANCE` and records its ``BENCH_*.json`` report
through :func:`write_report`.  The plan, query and sampling suites time
every side of every row through :func:`time_sides`, so each gate is read
one way: the best sample of one side over the best sample of the other.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Optional, Tuple

#: Seed shared with the paper-table benchmarks (PODS 2017 conference dates).
BENCH_SEED = 20170514

#: Agreement contract between the float and exact backends.
FLOAT_TOLERANCE = 1e-9


def _rng(offset: int):
    import random

    return random.Random(BENCH_SEED + offset)


@dataclass(frozen=True)
class Timing:
    """One side's timed calls: ``samples`` in seconds, in the order they ran.

    ``result`` is what the side's last timed call returned, so a row that
    times one call by design (a cold solve, a brute force) reads its answer
    from the call it timed.
    """

    samples: Tuple[float, ...]
    result: object = None

    @property
    def best(self) -> float:
        return min(self.samples)

    @property
    def median(self) -> float:
        return statistics.median(self.samples)

    @property
    def iqr(self) -> float:
        """The interquartile range of the samples (0 for a single sample)."""
        if len(self.samples) < 2:
            return 0.0
        first, _, third = statistics.quantiles(self.samples, n=4, method="inclusive")
        return third - first


def time_sides(
    sides: Mapping[str, Callable[..., object]],
    rounds: int = 1,
    warm: bool = False,
    prepare: Optional[Mapping[str, Callable[[], object]]] = None,
) -> Dict[str, Timing]:
    """Time every side once per round, the sides interleaved; one :class:`Timing` each.

    Each round runs every side once, in the order of ``sides`` on even
    rounds and in reverse on odd ones, so the side that goes first
    alternates and a slow spell of the machine falls on every side.  With
    ``warm``, an untimed call of the same side precedes each timed call, so
    no side runs on caches another side left behind.  A side named in
    ``prepare`` is called with the value of its preparation, made afresh
    for every call (the warm one too) and off the clock: a cold plan copy,
    a fresh parse.
    """
    prepare = prepare or {}
    names = list(sides)
    samples: Dict[str, list] = {name: [] for name in names}
    results: Dict[str, object] = {}
    for index in range(rounds):
        for name in names if index % 2 == 0 else reversed(names):
            run, setup = sides[name], prepare.get(name)
            # With ``warm`` the side runs twice and only the second call
            # counts.  The store inside the timing frees the previous result
            # there, so each call pays for freeing one result, as a call
            # that drops its own result does.
            for _ in range(2 if warm else 1):
                args = (setup(),) if setup else ()
                start = time.perf_counter()
                results[name] = run(*args)
                elapsed = time.perf_counter() - start
            samples[name].append(elapsed)
    return {name: Timing(tuple(samples[name]), results.get(name)) for name in names}


def write_report(report: Dict[str, object], path: str) -> None:
    """Serialise the report to disk (stable key order, trailing newline).

    The write is atomic — a temp file in the same directory, fsynced, then
    ``os.replace`` — so an interrupted benchmark run can never leave a
    truncated ``BENCH_*.json`` behind: the old report survives intact until
    the new one is durably complete.  Every suite's ``write_*_report``
    aliases this function.
    """
    directory = os.path.dirname(os.path.abspath(path))
    temporary = os.path.join(directory, f".{os.path.basename(path)}.tmp.{os.getpid()}")
    try:
        with open(temporary, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temporary, path)
    except BaseException:
        if os.path.exists(temporary):
            os.remove(temporary)
        raise
