"""Compiled query plans: probability-independent structure, reusable arithmetic.

Every tractable case of the paper shares one shape: an expensive *structural*
phase — interval matching on two-way paths (Proposition 4.11), the KMP
skeleton on downward trees (Proposition 4.10), the rooted fold order or the
tree-automaton d-DNNF on polytrees (Propositions 5.4/5.5), the graded-DAG
collapse (Proposition 3.6) — followed by cheap arithmetic over the edge
probabilities.  A :class:`CompiledPlan` captures the structural phase once:

* :meth:`CompiledPlan.evaluate` recomputes the probability with *only*
  arithmetic, against the instance's live probabilities or a caller-supplied
  override table: a tape-less plan's first live answer runs its kernels
  once, directly, and every other call runs the plan's flat tape
  (:mod:`repro.tape`); against the live table, a plan replays only the
  operations downstream of the edges changed since its previous call;
* :meth:`CompiledPlan.update` maintains a what-if probability table (a
  private copy of the instance) and re-evaluates after a single-edge
  change, replaying only the tape operations that depend on the changed
  edge;
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
  plan — the next :meth:`~CompiledPlan.evaluate` reads the live table.
  Every live evaluation but a tape-less plan's first follows the
  precision's :class:`~repro.tape.TapeEvaluator` session over the
  instance, bound on its first call; each ``set_probability`` advances the
  instance's ``version`` and logs the edge, and the session's next call
  replays only the sub-programs of the edges logged since (none, when
  nothing changed).  A session rebinds with one full replay when the
  bounded log no longer reaches back to it, and an exact session when a
  new denominator does not divide its ``D``.  Sessions are process-local:
  pickles and :meth:`~CompiledPlan.rebind` drop them, and override tables
  never touch them;
* the what-if table of :meth:`~CompiledPlan.update` is a copy of the
  instance, seeded once, which a session of its own follows exactly as the
  live sessions follow the instance: later ``set_probability`` changes to
  the instance do not reach it, and its updates do not reach
  :meth:`~CompiledPlan.evaluate`;
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
from collections.abc import Mapping
from typing import Any, Callable, Dict, Hashable, Iterable, List, Optional, Sequence, Tuple, Union

from repro.approx import ApproxEstimate, ApproxParams, karp_luby_probability
from repro.exceptions import ClassConstraintError, IntractableFallbackWarning, PlanError
from repro.graphs.classes import (
    GraphClass,
    graph_class_of,
    is_two_way_path,
    two_way_path_steps,
)
from repro.graphs.digraph import DiGraph, Edge
from repro.lineage.builders import match_lineage
from repro.lineage.dnf import PositiveDNF
from repro.numeric import EXACT, FAST, Number, NumericContext, resolve_context
from repro.obs.trace import current_tracer
from repro.probability.brute_force import brute_force_phom
from repro.probability.prob_graph import ProbabilisticGraph, as_probability
from repro.query.minimize import query_core
from repro.tape import ScaledContext, TapeEvaluator, compile_plan_tape

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
# compiled plans
# ----------------------------------------------------------------------
class CompiledPlan:
    """The reusable result of ``PHomSolver.compile(query, instance)``.

    Carries the dispatch metadata (method name, backing proposition, class
    verdicts) captured at compile time plus the structural skeletons, and
    exposes the two probability-only entry points :meth:`evaluate` and
    :meth:`update`.
    """

    #: The flat tape (see :meth:`tape`), ``None`` until the plan is
    #: lowered: by ``PHomSolver.compile`` (and ``tape_for`` /
    #: ``evaluate_many``), by the caching solver when a solve reuses the
    #: plan, or by the first call that needs it.  A plan answered once by
    #: a solve carries none.  The tape is pickled with the plan, so it ships
    #: to serving workers and the persistent store.  The class-level
    #: default covers plans pickled before tapes existed.
    _tape = None

    #: The live sessions of :meth:`evaluate`, one
    #: :class:`~repro.tape.TapeEvaluator` per precision name; ``None``
    #: until the plan's first live call.  Process-local: pickles and
    #: :meth:`rebind` drop them.
    _live_sessions: Optional[Dict[str, TapeEvaluator]] = None

    #: The what-if session of :meth:`update`: a private copy of the
    #: instance and the :class:`~repro.tape.TapeEvaluator` following it.
    _tape_serving: Optional[Tuple[ProbabilisticGraph, TapeEvaluator]] = None

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
        backend, defaulting to the compiling solver's.

        Against the live table, a plan without a tape answers its first
        call by running its kernels once, directly: in float over the
        instance's float table, in exact mode on the scaled integers of a
        :class:`~repro.tape.ScaledContext`, so a one-shot plan never builds
        a tape.  Every other live call follows the precision's
        :class:`~repro.tape.TapeEvaluator` session, lowering the plan first
        when it has no tape: the session binds on its first call, and later
        calls replay only the operations downstream of the edges set since
        the previous call (see the invalidation contract in
        :mod:`repro.plan`).  An override table replays the whole tape
        (exact mode on integer registers) and never touches the sessions.
        The ``plan.evaluate`` span records the ``path`` taken (``direct``,
        ``bind``, ``catch_up`` or, with overrides, ``replay``) and, on the
        tape paths, the ``ops`` replayed.
        """
        with current_tracer().span("plan.evaluate") as span:
            if span:
                span.attrs["method"] = self.method
            context = self._context(precision)
            sessions = self._live_sessions
            if probabilities is not None:
                tape = self.tape()
                table = self._probability_table(probabilities, context)
                value = tape.evaluate(table, context)
                path, ops = "replay", tape.num_ops()
            elif sessions is None and self._tape is None:
                # Score, select, then build: a first live call runs the
                # kernels, and only a plan used again is lowered.
                self._live_sessions = {}
                value = self._evaluate_direct(context)
                if span:
                    span.attrs["path"] = "direct"
                return value
            else:
                if sessions is None:
                    sessions = self._live_sessions = {}
                session = sessions.get(context.name)
                if session is None:
                    session = sessions[context.name] = TapeEvaluator(self.tape())
                value = session.follow(self.instance, context)
                path, ops = session.path, session.replayed
            if span:
                span.attrs["path"] = path
                span.attrs["ops"] = ops
            return value

    def _evaluate_direct(self, context: NumericContext) -> Number:
        """The kernels run once over the live table, without a tape."""
        if context.name == "exact":
            den, table = self.instance.scaled_probabilities()
            scaled = ScaledContext(den)
            return scaled.fraction(self._evaluate_with(table, scaled))
        return self._evaluate_with(context.instance_probabilities(self.instance), context)

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
        (no arithmetic half to lower).  A caching solver lowers a plan
        when :meth:`~repro.core.solver.PHomSolver.compile` compiles it, or
        when a solve reuses a plan a solve compiled, and accounts the
        lowering in ``tape_compiles``.  Any other plan without a tape
        (compiled by a solver with ``plan_cache_size=0``, or used outside
        the solver) is lowered here, on first request.
        """
        if self._tape is None:
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
        batches: Iterable[Optional[Mapping]],
        precision: PrecisionLike = None,
    ) -> List[Number]:
        """Answer a whole batch of probability valuations in one pass.

        Each entry of ``batches`` (any iterable, read once) is an override
        mapping exactly as in :meth:`evaluate` (``None`` or ``{}`` for the
        instance's live table); the result list is index-aligned.  An
        entry that is neither raises :class:`PlanError` naming its
        position.  Evaluation runs on the plan's flat tape (compiled on
        first use, see :meth:`tape`), which vectorizes every float
        operation across the batch — on numpy when
        :func:`repro.numeric.numpy_module` returns it, on stdlib lists
        otherwise — and replays each exact valuation on integer registers,
        instead of re-interpreting the plan per valuation.

        The batch runs once per distinct valuation: a mapping object is
        resolved once however often it repeats, and entries that set the
        edges the tape reads to the same values (``None`` and ``{}``,
        ``Edge`` and ``(source, target)`` keys, equal mappings) share one
        lane and one result object.  The ``tape.evaluate`` span records
        the entries in ``batch`` and the lanes run in ``distinct``.
        Exact-mode results are bit-identical to looped :meth:`evaluate`
        calls, and float results equal them.
        """
        batches = list(batches)
        context = self._context(precision)
        tape = self.tape()
        with current_tracer().span("tape.evaluate") as span:
            if span:
                span.attrs["batch"] = len(batches)
                span.attrs["method"] = self.method
            # Deltas against the live table, not full per-valuation copies:
            # the per-entry setup cost scales with the overridden edges.
            resolved: Dict[int, Optional[Dict[Edge, Number]]] = {}
            deltas = []
            for entry, overrides in enumerate(batches):
                key = id(overrides)
                if key not in resolved:
                    resolved[key] = (
                        None
                        if overrides is None
                        else self._resolve_overrides(overrides, context, entry)
                    )
                deltas.append(resolved[key])
            lanes, assignment = tape._distinct_lanes(deltas)
            if span:
                span.attrs["distinct"] = len(lanes)
            values = tape._run_lanes(
                context.instance_probabilities(self.instance), lanes, context
            )
            return [values[lane] for lane in assignment]

    def update(
        self,
        edge,
        probability,
        precision: PrecisionLike = None,
    ) -> Number:
        """Set one edge's probability in the plan's what-if table and re-evaluate.

        The what-if table is a private copy of the instance, taken on the
        first call, that shares its frozen graph.  Each update goes through
        the copy's :meth:`~repro.probability.prob_graph.ProbabilisticGraph.set_probability`,
        which validates the edge and the value, and the copy's
        :class:`~repro.tape.TapeEvaluator` session then replays only the
        tape operations that depend on the changed edge, on every
        tractable route (a constant plan's tape has none).  The table lives
        *on the plan* and is separate from the live sessions of
        :meth:`evaluate` — the instance is never mutated, and because
        :meth:`PHomSolver.compile` serves cached plan objects, callers that
        compiled the same canonical query against the same instance share
        one serving table (use :meth:`reset_serving`, or a solver with
        ``plan_cache_size=0``, for an independent session).  Switching
        ``precision`` mid-serving raises :class:`PlanError` instead of
        silently discarding the accumulated updates.  Returns the new
        probability.
        """
        context = self._context(precision)
        serving = self._tape_serving
        if serving is None:
            serving = self._tape_serving = (
                self.instance._restricted(self.instance.graph),
                TapeEvaluator(self.tape()),
            )
        table, session = serving
        if session.context is not None and session.context is not context:
            raise PlanError(
                f"the serving table was built with precision "
                f"{session.context.name!r} but update() was called with "
                f"{context.name!r}; call reset_serving() to switch backends"
            )
        table.set_probability(edge, probability)
        return session.follow(table, context)

    def reset_serving(self) -> None:
        """Drop the what-if table; the next update() reseeds it from the instance."""
        self._tape_serving = None

    def rebind(self, instance: ProbabilisticGraph) -> None:
        """Attach the plan to a *structurally identical* live instance.

        Plans separate structure from arithmetic, so a plan compiled in a
        previous process (and e.g. loaded back from the persistent plan
        store of :mod:`repro.persist`) is reusable against any instance
        with the same vertices and the same labelled edges — the
        probabilities are re-read from the new instance at evaluation
        time.  Raises :class:`PlanError` when the structures differ, and
        drops the live sessions of :meth:`evaluate` and any serving-side
        state (the unpickled instance's updates are not this instance's
        updates).
        """
        if (
            instance.graph.vertices != self.instance.graph.vertices
            or instance.graph.edge_set() != self.instance.graph.edge_set()
        ):
            raise PlanError(
                "cannot rebind a plan to a structurally different instance"
            )
        self.instance = instance
        self._live_sessions = None
        self.reset_serving()

    def __getstate__(self):
        """Pickle the structure only; sessions are process-local state.

        An unpickled plan starts without live sessions and without a
        serving table (its first ``update`` reseeds from the shipped
        instance copy), which is the contract the :mod:`repro.service`
        workers rely on.  The flat tape ``_tape`` *does* travel — it is
        structure, and shipping it is what lets store-loaded plans and
        serving workers evaluate without lowering again.
        """
        state = self.__dict__.copy()
        state.pop("_live_sessions", None)
        state.pop("_tape_serving", None)
        return state

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
        table.update(self._resolve_overrides(probabilities, context))
        return table

    def _resolve_overrides(
        self, overrides: Any, context: NumericContext, entry: Optional[int] = None
    ) -> Dict[Edge, Number]:
        """An override mapping keyed by instance edges, values in ``context``.

        Keys resolve through the instance (``Edge`` or ``(source, target)``)
        and values validate as probabilities.  ``entry`` is the mapping's
        position in an :meth:`evaluate_many` batch, named by the
        :class:`PlanError` raised when ``overrides`` is not a mapping.
        """
        if not isinstance(overrides, Mapping):
            where = "probabilities" if entry is None else f"batch entry {entry}"
            raise PlanError(
                f"{where} must be a mapping of edges to probabilities (or None), "
                f"got {type(overrides).__name__}"
            )
        resolve, convert = self.instance._resolve_edge, context.convert
        return {
            resolve(key): convert(as_probability(value))
            for key, value in overrides.items()
        }

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


class ComponentPlan(CompiledPlan):
    """A tractable route: per-component kernels combined through Lemma 3.7.

    Each component is a ``(kernel, structure)`` pair, evaluated as
    ``kernel(structure, table, context)``: the interval DP
    (:func:`~repro.core.labeled_2wp.evaluate_two_way_path_skeleton`), the
    KMP DP (:func:`~repro.core.labeled_dwt.evaluate_dwt_path_skeleton`),
    the polytree fold
    (:func:`~repro.core.unlabeled_pt.evaluate_polytree_dp_skeleton`) or the
    d-DNNF pass (:meth:`DDNNF.evaluate_with
    <repro.lineage.ddnnf.DDNNF.evaluate_with>`) over its compiled
    structure.  ``context`` is a :class:`~repro.numeric.NumericContext`, or
    the tape builder when the plan is lowered (see :mod:`repro.tape`).

    ``always_combine`` mirrors the one-shot code paths: Proposition 3.6
    always runs the survival product over components, while the
    ``_per_component`` routes skip it on connected instances.
    """

    def __init__(
        self,
        components: Sequence[Tuple[Callable[..., Number], Any]],
        always_combine: bool,
        **kwargs,
    ) -> None:
        super().__init__(**kwargs)
        self._components = list(components)
        self._always_combine = always_combine

    def _evaluate_with(self, table, context):
        return self._combine(
            [kernel(structure, table, context) for kernel, structure in self._components],
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

    def evaluate(self, probabilities=None, precision=None, _warn=True):
        if not self._allow_brute_force:
            raise ClassConstraintError(
                "this plan was compiled by a solver with brute force disabled; "
                "use plan.estimate(...) to sample it instead of enumerating "
                "possible worlds"
            )
        if probabilities is not None:
            raise PlanError(
                "brute-force fallback plans cannot evaluate override tables "
                "exactly; use plan.estimate(probabilities=...) to sample them, "
                "or update the instance probabilities instead"
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
        lowered: ``compile``, ``tape_for`` and ``evaluate_many`` lower a
        tractable plan before storing it, a solve stores it tape-less and
        :meth:`lower` bills its lowering on reuse.
        """
        self.compiles += 1
        if plan.has_tape():
            self.tape_compiles += 1
        self._insert(query_key, instance, plan)

    def lower(self, plan: CompiledPlan) -> None:
        """Lower a cached plan reused without a tape, counting one tape compile."""
        plan.tape()
        self.tape_compiles += 1

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
