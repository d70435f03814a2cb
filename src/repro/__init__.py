"""repro — Conjunctive Queries on Probabilistic Graphs: Combined Complexity.

A from-scratch Python implementation of the algorithms, reductions and
complexity classification of

    Antoine Amarilli, Mikaël Monet, Pierre Senellart.
    "Conjunctive Queries on Probabilistic Graphs: Combined Complexity."
    PODS 2017.

The central problem is **PHom**: given a directed, edge-labeled query graph
``G`` and a probabilistic instance graph ``(H, π)`` whose edges are kept
independently with probability ``π(e)``, compute the probability that ``G``
has a homomorphism to the surviving subgraph.

Quick start
-----------

>>> from repro import DiGraph, ProbabilisticGraph, one_way_path, phom_probability
>>> H = DiGraph()
>>> _ = H.add_edge("a", "b", "R"); _ = H.add_edge("d", "b", "R"); _ = H.add_edge("b", "c", "S")
>>> instance = ProbabilisticGraph(H, {("a", "b"): "0.1", ("d", "b"): "0.8", ("b", "c"): "0.7"})
>>> query = one_way_path(["R", "S"])
>>> float(phom_probability(query, instance))
0.574

The top-level namespace re-exports the most commonly used pieces; the
subpackages contain the full machinery:

* :mod:`repro.graphs` — graphs, graph classes (1WP/2WP/DWT/PT/...), random
  generators, homomorphisms, graded DAGs;
* :mod:`repro.probability` — probabilistic graphs and the brute-force oracle;
* :mod:`repro.lineage` — DNF lineages, β-acyclicity, d-DNNF circuits;
* :mod:`repro.automata` — tree automata and provenance circuits (Prop 5.4);
* :mod:`repro.csp` — the X-property homomorphism algorithm (Theorem 4.13);
* :mod:`repro.query` — the conjunctive-query language frontend
  (``"R(x, y), S(y, z)"``), Chandra–Merlin core minimization and the
  class-aware ``normalize`` pass;
* :mod:`repro.core` — the tractable solvers and the dispatching
  :class:`~repro.core.solver.PHomSolver`;
* :mod:`repro.tape` — compiled plans lowered to flat array programs
  (:class:`~repro.tape.PlanTape`) with vectorized batch evaluation;
* :mod:`repro.reductions` — the hardness reductions (#Bipartite-Edge-Cover,
  #PP2DNF) with brute-force counters;
* :mod:`repro.classification` — Tables 1–3 as code;
* :mod:`repro.approx` — seeded Monte Carlo estimators (naive possible-world
  sampling, the Karp–Luby ``(ε, δ)`` importance sampler) for the #P-hard
  cells;
* :mod:`repro.service` — the parallel serving layer: a sharded worker pool
  with request coalescing, result caching and per-request mixed precision;
* :mod:`repro.persist` — durable serving state: a crash-safe write-ahead
  log and a checksummed plan store for warm restarts;
* :mod:`repro.workloads` — workload generators for the benchmark harness.
"""

from repro.exceptions import (
    ReproError,
    GraphError,
    QueryParseError,
    ClassConstraintError,
    ProbabilityError,
    LineageError,
    PlanError,
    AutomatonError,
    PersistenceError,
    ServiceError,
    ServiceUnavailableError,
    DeadlineExceededError,
    IntractableFallbackWarning,
)
from repro.graphs import (
    DiGraph,
    Edge,
    UNLABELED,
    one_way_path,
    two_way_path,
    downward_tree,
    polytree_from_parents,
    disjoint_union,
    GraphClass,
    classify_graph,
    graph_class_of,
    has_homomorphism,
    find_homomorphism,
    homomorphic_equivalent,
)
from repro.approx import (
    ApproxEstimate,
    ApproxParams,
    karp_luby_probability,
    naive_phom_estimate,
)
from repro.numeric import EXACT, FAST, NumericContext, resolve_context
from repro.probability import ProbabilisticGraph, brute_force_phom
from repro.lineage import PositiveDNF, DDNNF, match_lineage
from repro.core import PHomSolver, PHomResult, phom_probability
from repro.plan import CompiledPlan, PlanCache, canonical_query_key
from repro.tape import PlanTape, TapeEvaluator, compile_plan_tape
from repro.query import (
    Atom,
    NormalizedQuery,
    QueryIR,
    explain_query,
    format_query,
    normalize as normalize_query,
    parse_query,
    parse_query_graph,
    query_core,
)
from repro.persist import (
    PersistentPlanCache,
    PlanStore,
    WalRecovery,
    WriteAheadLog,
    instance_digest,
    plan_store_key,
    scan_wal,
)
from repro.service import (
    DiskFaultInjector,
    Fault,
    FaultInjector,
    FaultPlan,
    QueryService,
    ServiceRequest,
    ServiceResult,
    ServiceStats,
    epsilon_for_budget,
)
from repro.classification import classify_cell, Complexity, table1, table2, table3

__version__ = "1.0.0"

__all__ = [
    "ReproError",
    "GraphError",
    "QueryParseError",
    "ClassConstraintError",
    "ProbabilityError",
    "LineageError",
    "PlanError",
    "AutomatonError",
    "PersistenceError",
    "ServiceError",
    "ServiceUnavailableError",
    "DeadlineExceededError",
    "IntractableFallbackWarning",
    "DiGraph",
    "Edge",
    "UNLABELED",
    "one_way_path",
    "two_way_path",
    "downward_tree",
    "polytree_from_parents",
    "disjoint_union",
    "GraphClass",
    "classify_graph",
    "graph_class_of",
    "has_homomorphism",
    "find_homomorphism",
    "homomorphic_equivalent",
    "ApproxEstimate",
    "ApproxParams",
    "karp_luby_probability",
    "naive_phom_estimate",
    "EXACT",
    "FAST",
    "NumericContext",
    "resolve_context",
    "ProbabilisticGraph",
    "brute_force_phom",
    "PositiveDNF",
    "DDNNF",
    "match_lineage",
    "PHomSolver",
    "PHomResult",
    "phom_probability",
    "CompiledPlan",
    "PlanCache",
    "canonical_query_key",
    "PlanTape",
    "TapeEvaluator",
    "compile_plan_tape",
    "Atom",
    "QueryIR",
    "parse_query",
    "parse_query_graph",
    "format_query",
    "query_core",
    "normalize_query",
    "NormalizedQuery",
    "explain_query",
    "PersistentPlanCache",
    "PlanStore",
    "WalRecovery",
    "WriteAheadLog",
    "instance_digest",
    "plan_store_key",
    "scan_wal",
    "QueryService",
    "ServiceRequest",
    "ServiceResult",
    "ServiceStats",
    "DiskFaultInjector",
    "Fault",
    "FaultInjector",
    "FaultPlan",
    "epsilon_for_budget",
    "classify_cell",
    "Complexity",
    "table1",
    "table2",
    "table3",
    "__version__",
]
