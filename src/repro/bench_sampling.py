"""Sampling benchmark: Karp–Luby estimation versus exact brute force.

The intractable cells of Tables 1–3 used to be answered only by enumerating
all ``2^m`` possible worlds, which stops being usable around 20 probabilistic
edges.  This suite measures what the sampling subsystem buys on exactly those
instances:

* ``speedup`` — for layered intractable instances of growing edge count
  (:func:`repro.workloads.generators.intractable_workload`), the wall-clock
  of one exact brute-force evaluation versus one ``precision="approx"``
  solve (Karp–Luby with the recorded ``(ε, δ)`` contract and a pinned seed),
  together with the achieved relative error — the estimate must land within
  ``ε`` of the exact answer;
* ``accuracy_curve`` — on a reference instance the brute force can still
  verify, the absolute error of the Karp–Luby estimator and of the naive
  possible-world sampler at a ladder of fixed sample budgets, showing the
  ``1/√N`` convergence and the importance sampler's advantage.

Both sides of a ``speedup`` row are timed in one round of
:func:`repro.bench.time_sides`: at 20 edges the brute force alone takes
minutes.  Results are written to ``BENCH_sampling.json``; run with
``repro bench sampling`` or ``python benchmarks/bench_sampling.py``.  The
``--min-sampling-speedup`` / ``--max-epsilon-ratio`` flags turn regressions
into a non-zero exit code (the CI smoke gate).
"""

from __future__ import annotations

import os
import platform
import warnings
from typing import Dict, List, Optional, Sequence

# Seed, timer and report serialisation are shared with the other benchmark
# suites so the recorded artefacts cannot desynchronise.
from repro.bench import BENCH_SEED, time_sides, write_report
from repro.approx import ApproxParams, naive_phom_estimate
from repro.core.solver import PHomSolver
from repro.exceptions import IntractableFallbackWarning
from repro.plan import FallbackPlan
from repro.workloads.generators import intractable_workload
from repro import __version__

#: The (ε, δ) contract the recorded runs are checked against.
BENCH_EPSILON = 0.1
BENCH_DELTA = 0.05

#: Edge counts of the speedup ladder; the last one is past the point where
#: brute force is barely usable (2^20 worlds).
SPEEDUP_EDGE_SIZES = (12, 16, 20)
SMOKE_EDGE_SIZES = (8, 12)

#: Fixed sample budgets of the accuracy curve.
CURVE_SAMPLE_BUDGETS = (1_000, 4_000, 16_000, 64_000)
SMOKE_CURVE_BUDGETS = (500, 2_000)

#: Edge count of the rare-event curve instance (probabilities ≤ 1/8, so the
#: query probability is small and relative error separates the estimators).
CURVE_EDGES = 16
SMOKE_CURVE_EDGES = 10


def _brute_force(workload) -> float:
    """One exact float-backend brute-force evaluation."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntractableFallbackWarning)
        return float(
            PHomSolver(precision="float").probability(
                workload.query, workload.instance, method="brute-force-worlds"
            )
        )


def run_sampling_benchmarks(
    edge_sizes: Optional[Sequence[int]] = None,
    curve_budgets: Optional[Sequence[int]] = None,
    epsilon: float = BENCH_EPSILON,
    delta: float = BENCH_DELTA,
    seed: int = BENCH_SEED,
    smoke: bool = False,
) -> Dict[str, object]:
    """Run the full suite and return the JSON-serialisable report."""
    if edge_sizes is None:
        edge_sizes = SMOKE_EDGE_SIZES if smoke else SPEEDUP_EDGE_SIZES
    if curve_budgets is None:
        curve_budgets = SMOKE_CURVE_BUDGETS if smoke else CURVE_SAMPLE_BUDGETS

    rows: List[Dict[str, object]] = []
    for edges in edge_sizes:
        # Moderate edge probabilities (≤ 6/16) keep the union event away
        # from saturation, so the recorded relative errors are meaningful.
        workload = intractable_workload(edges, rng=seed + edges, max_numerator=6)
        approx_solver = PHomSolver(
            precision="approx", epsilon=epsilon, delta=delta, seed=seed
        )
        timings = time_sides(
            {
                "brute_force": lambda: _brute_force(workload),
                "karp_luby": lambda: approx_solver.solve(workload.query, workload.instance),
            }
        )
        exact, result = timings["brute_force"].result, timings["karp_luby"].result
        brute_seconds, approx_seconds = timings["brute_force"].best, timings["karp_luby"].best
        if result.method != "karp-luby":
            raise AssertionError(
                f"expected the dispatcher to sample the intractable workload, "
                f"got method {result.method!r}"
            )
        estimate = float(result.probability)
        relative_error = abs(estimate - exact) / exact if exact else estimate
        plan = approx_solver.compile(workload.query, workload.instance)
        rows.append(
            {
                "uncertain_edges": edges,
                "possible_worlds": 2 ** edges,
                "lineage_clauses": len(plan.lineage().clauses)
                if isinstance(plan, FallbackPlan)
                else None,
                "exact": exact,
                "estimate": estimate,
                "relative_error": relative_error,
                "epsilon": epsilon,
                "delta": delta,
                "within_epsilon": relative_error <= epsilon,
                "notes": result.notes,
                "brute_force_seconds": brute_seconds,
                "approx_seconds": approx_seconds,
                "speedup": brute_seconds / approx_seconds if approx_seconds else None,
            }
        )
    # Accuracy-vs-samples curve on a *rare-event* instance (probabilities
    # ≤ 1/8): fixed budgets, no (ε, δ) schedule, Karp–Luby vs the naive
    # world sampler.  Small probabilities are where the importance sampler
    # earns its keep — naive sampling barely ever sees a satisfying world.
    curve_edges = SMOKE_CURVE_EDGES if smoke else CURVE_EDGES
    workload = intractable_workload(curve_edges, rng=seed, max_numerator=2)
    exact = _brute_force(workload)
    solver = PHomSolver(precision="approx", epsilon=epsilon, delta=delta, seed=seed)
    plan = solver.compile(workload.query, workload.instance)
    points: List[Dict[str, object]] = []
    for budget in curve_budgets:
        params = ApproxParams(epsilon=epsilon, delta=delta, seed=seed + budget)
        kl = plan.estimate(params=params, num_samples=budget)
        naive = naive_phom_estimate(
            workload.query, workload.instance, params, num_samples=budget
        )
        points.append(
            {
                "samples": budget,
                "karp_luby_estimate": kl.value,
                "karp_luby_rel_error": abs(kl.value - exact) / exact if exact else kl.value,
                "naive_estimate": naive.value,
                "naive_rel_error": abs(naive.value - exact) / exact if exact else naive.value,
            }
        )

    return {
        "suite": "sampling",
        "meta": {
            "version": __version__,
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpus": os.cpu_count() or 1,
            "seed": seed,
            "epsilon": epsilon,
            "delta": delta,
            "smoke": smoke,
            "contract": (
                "relative error <= epsilon with probability >= 1 - delta "
                "(Karp-Luby over the match lineage; pinned seed makes the "
                "recorded run reproducible)"
            ),
        },
        "speedup": rows,
        "accuracy_curve": {
            "uncertain_edges": curve_edges,
            "rare_event": True,
            "exact": exact,
            "points": points,
        },
    }


def check_sampling_thresholds(
    report: Dict[str, object],
    min_speedup: float = 0.0,
    max_epsilon_ratio: float = 0.0,
) -> None:
    """Raise ``AssertionError`` when the recorded run violates the gates.

    ``min_speedup`` applies to the largest instance of the speedup ladder
    (where brute force hurts most); ``max_epsilon_ratio`` bounds
    ``relative_error / epsilon`` on *every* instance — ``1.0`` asserts the
    ``(ε, δ)`` contract itself held on the pinned-seed run.
    """
    rows = report["speedup"]
    if max_epsilon_ratio > 0:
        for row in rows:
            ratio = row["relative_error"] / row["epsilon"]
            if ratio > max_epsilon_ratio:
                raise AssertionError(
                    f"estimate on the {row['uncertain_edges']}-edge instance is "
                    f"{ratio:.2f}x epsilon away from exact "
                    f"(|{row['estimate']:.6f} - {row['exact']:.6f}| vs "
                    f"epsilon={row['epsilon']})"
                )
    if min_speedup > 0 and rows:
        largest = rows[-1]
        if largest["speedup"] is None or largest["speedup"] < min_speedup:
            raise AssertionError(
                f"Karp-Luby speedup on the {largest['uncertain_edges']}-edge "
                f"instance is {largest['speedup']}x, below the required "
                f"{min_speedup}x"
            )


def format_sampling_report(report: Dict[str, object]) -> str:
    """A human-readable summary of the recorded run."""
    lines = [
        "sampling benchmark (Karp-Luby vs exact brute force)",
        f"  contract: eps={report['meta']['epsilon']}, delta={report['meta']['delta']}, "
        f"seed={report['meta']['seed']}",
    ]
    for row in report["speedup"]:
        speedup = "n/a" if row["speedup"] is None else f"{row['speedup']:.1f}x"
        lines.append(
            f"  {row['uncertain_edges']:>3} edges (2^{row['uncertain_edges']} worlds, "
            f"{row['lineage_clauses']} clauses): "
            f"exact={row['exact']:.6f} estimate={row['estimate']:.6f} "
            f"rel.err={row['relative_error']:.4f} | "
            f"brute {row['brute_force_seconds']:.2f}s vs approx "
            f"{row['approx_seconds']:.2f}s = {speedup}"
        )
    curve = report["accuracy_curve"]
    lines.append(
        f"  accuracy curve on the rare-event {curve['uncertain_edges']}-edge "
        f"instance (exact={curve['exact']:.6f}):"
    )
    for point in curve["points"]:
        lines.append(
            f"    {point['samples']:>7} samples: karp-luby rel.err="
            f"{point['karp_luby_rel_error']:.4f}, naive rel.err={point['naive_rel_error']:.4f}"
        )
    return "\n".join(lines)


def write_sampling_report(report: Dict[str, object], path: str) -> None:
    """Serialise the report (shared JSON writer with the other suites)."""
    write_report(report, path)
