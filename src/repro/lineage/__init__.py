"""Boolean lineages: positive DNF formulas, β-acyclicity and d-DNNF circuits.

The tractability results of Section 4 compute a *lineage* of the query on the
instance — a Boolean function over the instance's edges that is true exactly
on the possible worlds satisfying the query (Definition 4.6) — and then
exploit structural restrictions of that lineage to compute its probability in
polynomial time:

* :mod:`repro.lineage.dnf` — positive DNF formulas, evaluation, and exact
  probability computation (naive enumeration and memoised Shannon
  expansion guided by an elimination order);
* :mod:`repro.lineage.hypergraph` — hypergraphs, β-leaves, β-elimination
  orders and the β-acyclicity test of Definition 4.7/4.8;
* :mod:`repro.lineage.builders` — generic construction of the match lineage
  of a query on a probabilistic instance;
* :mod:`repro.lineage.ddnnf` — deterministic decomposable negation normal
  form circuits (Definition 5.3) with linear-time probability computation,
  the compilation target of the tree-automaton approach of Section 5.
"""

from repro.lineage.dnf import PositiveDNF
from repro.lineage.hypergraph import Hypergraph, beta_elimination_order, is_beta_acyclic
from repro.lineage.builders import match_lineage
from repro.lineage.ddnnf import DDNNF, GateKind

__all__ = [
    "PositiveDNF",
    "Hypergraph",
    "beta_elimination_order",
    "is_beta_acyclic",
    "match_lineage",
    "DDNNF",
    "GateKind",
]
