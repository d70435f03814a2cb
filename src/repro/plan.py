"""Compiled query plans: probability-independent structure, reusable arithmetic.

Every tractable case of the paper shares one shape: an expensive *structural*
phase — interval matching on two-way paths (Proposition 4.11), the KMP
skeleton on downward trees (Proposition 4.10), the rooted fold order or the
tree-automaton d-DNNF on polytrees (Propositions 5.4/5.5), the graded-DAG
collapse (Proposition 3.6) — followed by cheap arithmetic over the edge
probabilities.  A :class:`CompiledPlan` captures the structural phase once:

* :meth:`CompiledPlan.evaluate` recomputes the probability with *only*
  arithmetic, against the instance's live probabilities or a caller-supplied
  override table, by replaying the plan's flat tape (:mod:`repro.tape`);
* :meth:`CompiledPlan.update` maintains a serving-side probability table and
  re-evaluates after a single-edge change, replaying only the tape
  operations that depend on the changed edge;
* :class:`PlanCache` is a small LRU keyed on the *canonical query form* and
  the (frozen) instance identity, wired into
  :meth:`~repro.core.solver.PHomSolver.solve` /
  :meth:`~repro.core.solver.PHomSolver.solve_many` so repeated and duplicate
  queries compile once.

Exact-mode plan evaluations are bit-identical to the one-shot API: the
arithmetic halves perform the same operations in the same order as the
functions they were split out of, and a tape is those arithmetic halves
run once against the tape builder.

Invalidation contract
---------------------

Plans capture *structure only*, so:

* mutating a probability (``instance.set_probability``) does **not** stale a
  plan — the next :meth:`~CompiledPlan.evaluate` reads the live table;
* instance graphs are frozen, so their structure cannot change under a plan;
* query graphs may be mutable — the cache keys on the canonical *content* of
  the query (recomputed after any mutation), so an edited query simply maps
  to a different cache entry;
* a new instance object (even structurally equal) is a different cache key
  and compiles fresh plans.
"""

from __future__ import annotations

import warnings
from collections import OrderedDict
from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.approx import ApproxEstimate, ApproxParams, karp_luby_probability
from repro.exceptions import ClassConstraintError, IntractableFallbackWarning, PlanError
from repro.graphs.classes import (
    GraphClass,
    graph_class_of,
    is_two_way_path,
    two_way_path_steps,
)
from repro.graphs.digraph import DiGraph, Edge, Vertex
from repro.lineage.builders import match_lineage
from repro.lineage.ddnnf import DDNNF
from repro.lineage.dnf import PositiveDNF
from repro.numeric import EXACT, FAST, Number, NumericContext, resolve_context
from repro.obs.trace import current_tracer
from repro.probability.brute_force import brute_force_phom
from repro.probability.prob_graph import ProbabilisticGraph, as_probability
from repro.query.minimize import query_core
from repro.core.labeled_2wp import (
    TwoWayPathSkeleton,
    compile_connected_on_2wp,
    evaluate_two_way_path_skeleton,
)
from repro.core.labeled_dwt import (
    DWTPathSkeleton,
    compile_labeled_path_on_dwt,
    evaluate_dwt_path_skeleton,
)
from repro.core.unlabeled_pt import (
    PolytreeDPSkeleton,
    compile_path_circuit_on_polytree,
    compile_path_dp_on_polytree,
    evaluate_polytree_dp_skeleton,
)

PrecisionLike = Union[str, NumericContext, None]

#: The warning text for #P-hard cells, shared with the solver dispatch so the
#: message cannot drift between the two emission points.
BRUTE_FORCE_FALLBACK_MESSAGE = (
    "falling back to exponential brute-force enumeration: the query/instance "
    "combination is #P-hard in combined complexity"
)


# ----------------------------------------------------------------------
# canonical query forms
# ----------------------------------------------------------------------
def canonical_query_key(query: DiGraph, minimize: bool = True) -> Hashable:
    """A hashable canonical form of the query, memoised on the query graph.

    The key is computed on the query's homomorphic core
    (:func:`repro.query.query_core`), so *syntactically distinct but
    equivalent* queries — e.g. a query with redundant foldable atoms and its
    minimized form — share one key, which strictly increases plan-cache and
    service-coalescing hits.  Pass ``minimize=False`` to key on the query
    exactly as written (the pre-minimization behaviour, used by solvers
    constructed with ``minimize_queries=False``).

    Two-way-path cores (which include one-way paths, the most common serving
    shape) canonicalise to the lexicographically smaller of their two
    traversal direction/label sequences, so *isomorphic* path queries share
    one key regardless of vertex names.  Other shapes canonicalise to their
    exact content (vertex set + labeled edge set), which dedupes
    equal-by-value duplicates.  The key is recomputed automatically after a
    mutation of an unfrozen query graph (the graph cache is cleared).
    """
    if not minimize:
        return query.cached(
            "canonical_query_key_raw", lambda: _compute_canonical_key(query)
        )
    return query.cached(
        "canonical_query_key", lambda: _compute_canonical_key(query_core(query))
    )


def _compute_canonical_key(query: DiGraph) -> Hashable:
    if is_two_way_path(query):
        forward = two_way_path_steps(query)
        backward = tuple((">" if d == "<" else "<", label) for d, label in reversed(forward))
        return ("2wp", min(forward, backward))
    # Key on the actual (hashable) vertex and edge values: graph semantics
    # are equality-based, and going through repr() would collapse distinct
    # vertices whose reprs collide into the same key.
    return ("graph", query.vertices, query.edge_set())


# ----------------------------------------------------------------------
# per-component evaluators (the arithmetic half, one instance component each)
# ----------------------------------------------------------------------
class ComponentEvaluator:
    """One component's arithmetic: evaluate against a probability table.

    ``context`` is a :class:`~repro.numeric.NumericContext`, or the tape
    builder when the plan is lowered (see :mod:`repro.tape`).
    """

    def evaluate(self, probabilities: Mapping[Edge, Number], context: NumericContext) -> Number:
        raise NotImplementedError


class IntervalEvaluator(ComponentEvaluator):
    """Proposition 4.11: run-length DP over a compiled interval skeleton."""

    def __init__(self, skeleton: TwoWayPathSkeleton) -> None:
        self.skeleton = skeleton

    def evaluate(self, probabilities, context):
        return evaluate_two_way_path_skeleton(self.skeleton, probabilities, context)


class DWTPathEvaluator(ComponentEvaluator):
    """Proposition 4.10: KMP DP over a compiled downward-tree skeleton."""

    def __init__(self, skeleton: DWTPathSkeleton) -> None:
        self.skeleton = skeleton

    def evaluate(self, probabilities, context):
        return evaluate_dwt_path_skeleton(self.skeleton, probabilities, context)


class PolytreeDPEvaluator(ComponentEvaluator):
    """Proposition 5.4 (direct route): distribution fold over a rooted skeleton."""

    def __init__(self, skeleton: PolytreeDPSkeleton) -> None:
        self.skeleton = skeleton

    def evaluate(self, probabilities, context):
        return evaluate_polytree_dp_skeleton(self.skeleton, probabilities, context)


class CircuitComponentEvaluator(ComponentEvaluator):
    """Proposition 5.4 (automaton route): a compiled d-DNNF lineage circuit."""

    def __init__(self, circuit: DDNNF) -> None:
        self.circuit = circuit

    def evaluate(self, probabilities, context):
        return self.circuit.evaluate_with(probabilities, context)


# ----------------------------------------------------------------------
# compiled plans
# ----------------------------------------------------------------------
class CompiledPlan:
    """The reusable result of ``PHomSolver.compile(query, instance)``.

    Carries the dispatch metadata (method name, backing proposition, class
    verdicts) captured at compile time plus the structural skeletons, and
    exposes the two probability-only entry points :meth:`evaluate` and
    :meth:`update`.
    """

    #: The flat tape (see :meth:`tape`); a caching solver lowers every
    #: tractable plan when it compiles it, and the tape is pickled with
    #: the plan so it ships to serving workers and the persistent store.
    #: The class-level default covers plans pickled before tapes existed.
    _tape = None

    def __init__(
        self,
        query: DiGraph,
        instance: ProbabilisticGraph,
        method: str,
        proposition: Optional[str],
        labeled: bool,
        notes: str = "",
        default_context: NumericContext = EXACT,
    ) -> None:
        self.query = query
        self.instance = instance
        self.method = method
        self.proposition = proposition
        self.query_class: GraphClass = graph_class_of(query)
        self.instance_class: GraphClass = graph_class_of(instance.graph)
        self.labeled = labeled
        self.notes = notes
        self._default_context = default_context

    # -- evaluation ----------------------------------------------------
    def evaluate(
        self,
        probabilities: Optional[Mapping] = None,
        precision: PrecisionLike = None,
    ) -> Number:
        """Recompute the probability; arithmetic only, no structural work.

        ``probabilities`` overrides the instance's live table (missing edges
        keep their instance value); keys may be :class:`Edge` objects or
        ``(source, target)`` pairs.  ``precision`` selects the numeric
        backend, defaulting to the compiling solver's.  Both precisions
        replay the plan's tape (exact mode on integer registers); a plan
        that arrives without one is lowered here first.
        """
        with current_tracer().span("plan.evaluate") as span:
            if span:
                span.attrs["method"] = self.method
            context = self._context(precision)
            table = self._probability_table(probabilities, context)
            return self.tape().evaluate(table, context)

    # -- tape lowering -------------------------------------------------
    def tape(self):
        """The plan's flat-tape lowering (memoised; lowered on first request).

        Returns a :class:`~repro.tape.PlanTape`: the arithmetic half
        flattened to parallel opcode/operand arrays evaluated in one
        non-recursive loop, with a batched
        :meth:`~repro.tape.PlanTape.evaluate_many` entry point.  The tape
        performs the same operations as the plan's arithmetic half, so
        exact-mode results are bit-identical to it.  Raises
        :class:`~repro.exceptions.PlanError` on brute-force fallback plans
        (no arithmetic half to lower).  Plans compiled by a caching solver
        already carry their tape: the solver lowers them at compile time
        and accounts the lowering in ``tape_compiles``.  A plan without
        one (compiled by a solver with ``plan_cache_size=0``, or loaded
        from a store written before plans were lowered at compile time)
        is lowered here, on first use.
        """
        if self._tape is None:
            # Imported lazily: repro.tape imports the plan classes, so a
            # module-scope import here would be circular.
            from repro.tape import compile_plan_tape

            with current_tracer().span("tape.compile") as span:
                self._tape = compile_plan_tape(self)
                if span:
                    span.attrs["method"] = self.method
        return self._tape

    def has_tape(self) -> bool:
        """Whether a tape has been compiled for this plan already."""
        return self._tape is not None

    def evaluate_many(
        self,
        batches: Sequence[Optional[Mapping]],
        precision: PrecisionLike = None,
    ) -> List[Number]:
        """Answer a whole batch of probability valuations in one pass.

        Each entry of ``batches`` is an override mapping exactly as in
        :meth:`evaluate` (``None`` or ``{}`` for the instance's live
        table); the result list is index-aligned.  Evaluation runs on the
        plan's flat tape (compiled on first use, see :meth:`tape`), which
        vectorizes every float operation across the batch — on numpy when
        :func:`repro.numeric.numpy_module` returns it, on stdlib lists
        otherwise — and replays each exact valuation on integer registers,
        instead of re-interpreting the plan per valuation.  Exact-mode
        results are bit-identical to looped :meth:`evaluate` calls.
        """
        context = self._context(precision)
        tape = self.tape()
        with current_tracer().span("tape.evaluate") as span:
            if span:
                span.attrs["batch"] = len(batches)
                span.attrs["method"] = self.method
            # Deltas against the live table, not full per-valuation copies:
            # the per-entry setup cost scales with the overridden edges,
            # which is what makes large batches an order of magnitude
            # cheaper than looped evaluate() calls.
            resolve = self.instance._resolve_edge
            deltas = [
                {
                    resolve(key): context.convert(as_probability(value))
                    for key, value in overrides.items()
                }
                if overrides
                else None
                for overrides in batches
            ]
            return tape.evaluate_overrides(
                context.instance_probabilities(self.instance),
                deltas,
                precision=context,
            )

    def update(
        self,
        edge,
        probability,
        precision: PrecisionLike = None,
    ) -> Number:
        """Set one edge's probability in the plan's serving table and re-evaluate.

        The serving table is a register file over the plan's tape
        (a :class:`~repro.tape.TapeEvaluator`), seeded from the instance on
        the first call; each update rewrites the edge's input slot and
        replays only the tape operations that depend on it, on every
        tractable route.  The table lives *on the plan* — the instance is
        never mutated, and because :meth:`PHomSolver.compile` serves cached
        plan objects, callers that compiled the same canonical query against
        the same instance share one serving table (use
        :meth:`ComponentPlan.reset_serving`, or a solver with
        ``plan_cache_size=0``, for an independent session).  Switching
        ``precision`` mid-serving raises :class:`PlanError` instead of
        silently discarding the accumulated updates.  Returns the new
        probability.
        """
        raise PlanError(f"{type(self).__name__} does not support update()")

    def reset_serving(self) -> None:
        """Drop any serving-side state; the next update() reseeds from the instance.

        A no-op on plan kinds without serving state (constants, fallbacks).
        """

    def rebind(self, instance: ProbabilisticGraph) -> None:
        """Attach the plan to a *structurally identical* live instance.

        Plans separate structure from arithmetic, so a plan compiled in a
        previous process (and e.g. loaded back from the persistent plan
        store of :mod:`repro.persist`) is reusable against any instance
        with the same vertices and the same labelled edges — the
        probabilities are re-read from the new instance at evaluation
        time.  Raises :class:`PlanError` when the structures differ, and
        drops any serving-side state (the unpickled instance's updates are
        not this instance's updates).
        """
        if (
            instance.graph.vertices != self.instance.graph.vertices
            or instance.graph.edge_set() != self.instance.graph.edge_set()
        ):
            raise PlanError(
                "cannot rebind a plan to a structurally different instance"
            )
        self.instance = instance
        self.reset_serving()

    # -- helpers -------------------------------------------------------
    def _context(self, precision: PrecisionLike) -> NumericContext:
        if precision is None:
            return self._default_context
        return resolve_context(precision)

    def _probability_table(
        self, probabilities: Optional[Mapping], context: NumericContext
    ) -> Mapping[Edge, Number]:
        if probabilities is None:
            return context.instance_probabilities(self.instance)
        table: Dict[Edge, Number] = dict(context.instance_probabilities(self.instance))
        resolve = self.instance._resolve_edge
        for key, value in probabilities.items():
            table[resolve(key)] = context.convert(as_probability(value))
        return table

    def _evaluate_with(
        self, table: Mapping[Edge, Number], context: NumericContext
    ) -> Number:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(method={self.method!r}, "
            f"query={self.query_class}, instance={self.instance_class})"
        )


class ConstantPlan(CompiledPlan):
    """A trivial verdict: the probability is a backend constant (0 or 1)."""

    def __init__(self, value_is_one: bool, **kwargs) -> None:
        super().__init__(**kwargs)
        self._value_is_one = value_is_one

    def _evaluate_with(self, table, context):
        return context.one if self._value_is_one else context.zero

    def evaluate(self, probabilities=None, precision=None):
        context = self._context(precision)
        if probabilities is not None:
            # The verdict ignores the table, but a bad override must fail
            # here exactly as it would on any other plan kind; validate just
            # the supplied entries instead of materialising the full table.
            for key, value in probabilities.items():
                self.instance._resolve_edge(key)
                as_probability(value)
        return context.one if self._value_is_one else context.zero

    def update(self, edge, probability, precision=None):
        # The verdict does not depend on any edge; resolve the edge and
        # validate the probability anyway, so a bad update fails here with a
        # clear error rather than silently succeeding on constant plans only.
        self.instance._resolve_edge(edge)
        as_probability(probability)
        return self.evaluate(precision=precision)


class ComponentPlan(CompiledPlan):
    """A tractable route: per-component evaluators combined through Lemma 3.7.

    ``always_combine`` mirrors the one-shot code paths: Proposition 3.6
    always runs the survival product over components, while the
    ``_per_component`` routes skip it on connected instances.
    """

    #: The serving session of :meth:`update`: a bound tape evaluator.
    _tape_serving = None

    def __init__(
        self,
        evaluators: Sequence[ComponentEvaluator],
        always_combine: bool,
        **kwargs,
    ) -> None:
        super().__init__(**kwargs)
        self._evaluators = list(evaluators)
        self._always_combine = always_combine

    def _evaluate_with(self, table, context):
        return self._combine(
            [evaluator.evaluate(table, context) for evaluator in self._evaluators],
            context,
        )

    def _combine(self, values: Sequence[Number], context: NumericContext) -> Number:
        if len(values) == 1 and not self._always_combine:
            return values[0]
        mul, compl = context.mul, context.compl
        survival = context.one
        for value in values:
            survival = mul(survival, compl(value))
        return compl(survival)

    def update(self, edge, probability, precision=None):
        from repro.tape import TapeEvaluator

        context = self._context(precision)
        edge = self.instance._resolve_edge(edge)
        value = context.convert(as_probability(probability))
        serving = self._tape_serving
        if serving is not None and serving.context is not context:
            raise PlanError(
                f"the serving table was built with precision "
                f"{serving.context.name!r} but update() was called with "
                f"{context.name!r}; call reset_serving() to switch backends"
            )
        if serving is None:
            serving = TapeEvaluator(self.tape())
            serving.bind(context.instance_probabilities(self.instance), context)
            self._tape_serving = serving
        return serving.update(edge, value)

    def reset_serving(self) -> None:
        """Drop the serving table; the next update() reseeds from the instance."""
        self._tape_serving = None

    def __getstate__(self):
        """Pickle the structure only; the serving table is process-local state.

        An unpickled plan starts a fresh serving session (its first
        ``update`` reseeds from the shipped instance copy), which is the
        contract the :mod:`repro.service` workers rely on.  The flat tape
        ``_tape`` *does* travel — it is structure, and shipping it is what
        lets store-loaded plans and serving workers evaluate without
        lowering again.
        """
        state = self.__dict__.copy()
        state.pop("_tape_serving", None)
        return state


class FallbackPlan(CompiledPlan):
    """The #P-hard cells: exponential brute force, or Karp–Luby sampling.

    Unlike the tractable plans (which capture skeletons and never look at
    the query again), brute force re-reads the query graph at evaluation
    time — so the plan snapshots a frozen copy at compile time, keeping a
    cached plan correct even if the caller later mutates the original
    (mutable) query graph.

    Since PR 3 the intractable cells are no longer a dead end: the plan's
    structural half is the positive-DNF *match lineage* (Definition 4.6),
    compiled lazily and memoised, and :meth:`estimate` runs the Karp–Luby
    ``(ε, δ)`` importance sampler of :mod:`repro.approx` over it — so a
    compiled plan covers intractable queries at serving time too, paying the
    homomorphism enumeration once and only sampling per evaluation.
    """

    def __init__(self, allow_brute_force: bool = True, **kwargs) -> None:
        kwargs["query"] = kwargs["query"].copy().freeze()
        super().__init__(**kwargs)
        #: Carried over from the compiling solver: approx-mode solvers with
        #: brute force disabled still compile this plan (they sample it),
        #: but its exact evaluate() must keep refusing to enumerate.
        self._allow_brute_force = allow_brute_force
        self._lineage: Optional[PositiveDNF] = None

    def lineage(self) -> PositiveDNF:
        """The match lineage of the pair (memoised; the sampling structure)."""
        if self._lineage is None:
            self._lineage = match_lineage(self.query, self.instance)
        return self._lineage

    def estimate(
        self,
        probabilities: Optional[Mapping] = None,
        params: Optional[ApproxParams] = None,
        num_samples: Optional[int] = None,
    ) -> ApproxEstimate:
        """A Karp–Luby ``(ε, δ)`` estimate of the probability.

        ``probabilities`` overrides the instance's live table exactly as in
        :meth:`CompiledPlan.evaluate` (sampling always runs on the float
        backend); ``params`` carries the accuracy contract and the RNG seed;
        ``num_samples`` forces a fixed-budget run without the guarantee.
        """
        params = params if params is not None else ApproxParams()
        table = self._probability_table(probabilities, FAST)
        return karp_luby_probability(
            self.lineage(), table, params, num_samples=num_samples
        )

    def evaluate(self, probabilities=None, precision=None, approx=None, _warn=True):
        if approx is not None:
            return self.estimate(probabilities, params=approx).value
        if not self._allow_brute_force:
            raise ClassConstraintError(
                "this plan was compiled by a solver with brute force disabled; "
                "use plan.estimate(...) (or evaluate(approx=ApproxParams(...))) "
                "to sample it instead of enumerating possible worlds"
            )
        if probabilities is not None:
            raise PlanError(
                "brute-force fallback plans cannot evaluate override tables "
                "exactly; pass approx=ApproxParams(...) to sample them, or "
                "update the instance probabilities instead"
            )
        context = self._context(precision)
        if _warn:
            warnings.warn(
                BRUTE_FORCE_FALLBACK_MESSAGE, IntractableFallbackWarning, stacklevel=2
            )
        return brute_force_phom(self.query, self.instance, context)

    def _evaluate_with(self, table, context):  # pragma: no cover - not reached
        raise PlanError("brute-force fallback plans have no arithmetic half")


# ----------------------------------------------------------------------
# the plan cache
# ----------------------------------------------------------------------
class PlanCache:
    """A small LRU of compiled plans.

    Keys combine the canonical query form with the instance's object
    identity.  Entries hold a strong reference to their instance (through
    the plan), so an ``id()`` can never be recycled while its entry is
    alive; eviction is least-recently-used.

    ``on_evict``, when given, is called as ``on_evict(key, plan)`` for every
    entry dropped by the LRU policy (not for :meth:`clear`); the serving
    workers of :mod:`repro.service` use it to account evicted structure in
    their per-worker statistics.  The hook runs synchronously inside
    :meth:`store` and must not mutate the cache.
    """

    def __init__(self, maxsize: int = 128, on_evict=None) -> None:
        if maxsize <= 0:
            raise ValueError("PlanCache maxsize must be positive")
        self.maxsize = maxsize
        self.on_evict = on_evict
        self._entries: "OrderedDict[Tuple[Hashable, int], CompiledPlan]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.compiles = 0
        self.evictions = 0
        self.tape_compiles = 0

    def lookup(
        self, query_key: Hashable, instance: ProbabilisticGraph
    ) -> Optional[CompiledPlan]:
        """The cached plan for ``(query_key, instance)``, or ``None`` (counted)."""
        key = (query_key, id(instance))
        plan = self._entries.get(key)
        if plan is not None and plan.instance is instance:
            self._entries.move_to_end(key)
            self.hits += 1
            return plan
        self.misses += 1
        return None

    def store(
        self, query_key: Hashable, instance: ProbabilisticGraph, plan: CompiledPlan
    ) -> None:
        """Insert a freshly compiled plan, evicting LRU entries over capacity.

        Counts one compile, and one tape compile when the plan arrives
        lowered (a solver lowers every tractable plan before storing it).
        """
        self.compiles += 1
        if plan.has_tape():
            self.tape_compiles += 1
        self._insert(query_key, instance, plan)

    def _insert(
        self, query_key: Hashable, instance: ProbabilisticGraph, plan: CompiledPlan
    ) -> None:
        """Make ``plan`` the most recent entry; evict LRU entries over capacity."""
        key = (query_key, id(instance))
        self._entries[key] = plan
        self._entries.move_to_end(key)
        while len(self._entries) > self.maxsize:
            evicted_key, evicted_plan = self._entries.popitem(last=False)
            self.evictions += 1
            if self.on_evict is not None:
                self.on_evict(evicted_key, evicted_plan)

    def clear(self) -> None:
        """Drop every entry (statistics are kept)."""
        self._entries.clear()

    @property
    def stats(self) -> Dict[str, int]:
        """Cache counters: hits, misses, compiles, tape_compiles, evictions, size, maxsize."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "compiles": self.compiles,
            "tape_compiles": self.tape_compiles,
            "evictions": self.evictions,
            "size": len(self._entries),
            "maxsize": self.maxsize,
        }

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PlanCache(size={len(self._entries)}/{self.maxsize}, hits={self.hits}, misses={self.misses})"
