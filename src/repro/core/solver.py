"""The dispatching PHom solver implementing the paper's classification.

:class:`PHomSolver` recognises which classes the query and the instance
belong to (Figure 2), routes the computation to the most general applicable
tractable algorithm (Propositions 3.6, 4.10, 4.11, 5.4/5.5, combined with
Lemma 3.7 for disconnected instances), and only falls back to exponential
brute force — with an explicit :class:`~repro.exceptions.IntractableFallbackWarning` —
when the combination is #P-hard according to Tables 1–3 (or when asked to).

The convenience function :func:`phom_probability` returns just the
probability; :meth:`PHomSolver.solve` additionally reports which algorithm
was used and which proposition backs it, which the benchmark harness uses to
regenerate the tables.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.approx import ApproxParams, karp_luby_probability, naive_phom_estimate
from repro.exceptions import ClassConstraintError, IntractableFallbackWarning, ReproError
from repro.graphs.classes import (
    GraphClass,
    graph_class_of,
    graph_in_class,
    is_one_way_path,
)
from repro.graphs.builders import path_query_labels, unlabeled_path
from repro.graphs.digraph import DiGraph
from repro.lineage.builders import match_lineage
from repro.lineage.ddnnf import DDNNF
from repro.numeric import EXACT, FAST, Number, NumericContext, resolve_context
from repro.obs.trace import current_tracer
from repro.probability.brute_force import brute_force_phom, brute_force_phom_over_matches
from repro.probability.prob_graph import ProbabilisticGraph
from repro.query.minimize import (
    MINIMIZATION_NOTE_PREFIX,
    normal_form,
    query_core,
    validate_query_graph,
)
from repro.query.parser import as_query_graph
from repro.core.disconnected import (
    cached_level_mapping,
    phom_on_disconnected_instance,
    phom_unlabeled_on_union_dwt,
)
from repro.core.labeled_dwt import (
    compile_labeled_path_on_dwt,
    evaluate_dwt_path_skeleton,
    phom_labeled_path_on_dwt,
)
from repro.core.labeled_2wp import (
    compile_connected_on_2wp,
    evaluate_two_way_path_skeleton,
    phom_connected_on_2wp,
)
from repro.core.unlabeled_pt import (
    collapse_query_to_path_length,
    compile_path_circuit_on_polytree,
    compile_path_dp_on_polytree,
    evaluate_polytree_dp_skeleton,
    phom_unlabeled_path_on_polytree,
    phom_unlabeled_tree_query_on_polytree,
)
from repro.plan import (
    BRUTE_FORCE_FALLBACK_MESSAGE,
    CompiledPlan,
    ComponentPlan,
    ConstantPlan,
    FallbackPlan,
    PlanCache,
    canonical_query_key,
)

PrecisionLike = Union[str, NumericContext, None]

#: Queries may be given as graphs or as query-language strings
#: (``"R(x, y), S(y, z)"``, parsed by :mod:`repro.query`).
QueryLike = Union[DiGraph, str]


def requalify_result(
    result: "PHomResult", query: DiGraph, minimize: bool = True
) -> "PHomResult":
    """A copy of a (possibly shared) result, described for the query asked.

    Core-keyed deduplication — :meth:`PHomSolver.solve_many`, the plan
    cache, and the serving layer's coalescing and result cache — lets one
    computation answer several *equivalent* queries.  The probability,
    method and proposition are shared by construction, but the reported
    ``query_class`` and the minimization provenance belong to the
    individual spelling: the copy drops any previous spelling's
    minimization note, reports the class of ``query`` as written, and (when
    ``minimize``) appends ``query``'s own fold provenance.  Both come from
    the spelling's :class:`~repro.query.minimize.QueryNormalForm`, so the
    copy is one constructor call.  ``result`` is left untouched.
    """
    notes = result.notes
    index = notes.find(MINIMIZATION_NOTE_PREFIX)
    if index != -1:
        notes = notes[:index].rstrip().rstrip(";")
    if minimize:
        form = normal_form(query)
        query_class = form.query_class
        if form.note:
            notes = f"{notes}; {form.note}" if notes else form.note
    else:
        query_class = graph_class_of(query)
    return PHomResult(
        result.probability,
        result.method,
        result.proposition,
        query_class,
        result.instance_class,
        result.labeled,
        notes,
    )


#: The error for #P-hard cells when neither brute force nor sampling may run.
_HARD_CELL_MESSAGE = (
    "no polynomial-time algorithm applies to this query/instance combination "
    "(it is #P-hard by the classification of Tables 1-3) and brute force is "
    "disabled; use precision='approx' to sample it"
)


def _is_approx(precision: PrecisionLike) -> bool:
    return isinstance(precision, str) and precision == "approx"


@dataclass
class PHomResult:
    """The result of a PHom computation, with provenance of the method used.

    ``probability`` is an exact :class:`~fractions.Fraction` under the
    default ``precision="exact"`` contract and a ``float`` under
    ``precision="float"``.
    """

    probability: Number
    method: str
    proposition: Optional[str]
    query_class: GraphClass
    instance_class: GraphClass
    labeled: bool
    notes: str = ""

    def __float__(self) -> float:  # pragma: no cover - convenience
        return float(self.probability)


class PHomSolver:
    """Dispatcher for the probabilistic homomorphism problem.

    Parameters
    ----------
    allow_brute_force:
        Whether #P-hard combinations may fall back to exponential
        possible-world enumeration (with a warning).  When false, such
        combinations raise :class:`~repro.exceptions.ClassConstraintError`.
    prefer:
        ``"dp"`` (default) to evaluate the tractable cases with the direct
        dynamic programs, ``"lineage"`` / ``"automaton"`` to use the paper's
        lineage- and automaton-based constructions.  Under the plan-backed
        automatic dispatch this selects the *compiled structure* of the
        polytree routes (``"lineage"``/``"automaton"`` → the tree-automaton
        d-DNNF circuit);
        the 2WP/DWT routes always compile their DP skeletons, whose exact
        results are identical to the lineage constructions.  Explicit
        ``method=`` names still run the lineage routes directly.
    precision:
        ``"exact"`` (default) computes with :class:`~fractions.Fraction` —
        results are bit-identical exact rationals.  ``"float"`` computes
        with native floats, which is much faster on large instances and
        agrees with exact mode to within double-precision rounding.
        ``"approx"`` keeps the tractable cells on the (exact-answer) float
        dynamic programs but routes the #P-hard combinations to the
        Karp–Luby ``(ε, δ)`` sampler of :mod:`repro.approx` instead of
        exponential brute force.
    plan_cache_size:
        Capacity of the solver's :class:`~repro.plan.PlanCache` (compiled
        query plans keyed on canonical query form + instance identity).
        ``0`` disables plan caching entirely: every ``solve`` recompiles the
        structural phase, reproducing the pre-plan per-call behaviour.
    epsilon / delta:
        The sampling accuracy contract: relative error at most ``epsilon``
        with probability at least ``1 − delta`` (Karp–Luby; the bound is
        additive for the explicit ``monte-carlo-worlds`` method).  Only
        consulted when sampling actually runs.
    seed:
        Seed for the sampling RNG.  ``None`` (default) draws fresh entropy
        per estimate; pass an integer for bit-reproducible estimates.
    minimize_queries:
        Whether the automatic dispatch minimizes queries to their
        homomorphic core (:func:`repro.query.query_core`) before
        classification (default ``True``).  Minimization never changes the
        answer (the core is an equivalent query), but it can move a query
        written with redundant atoms from a #P-hard cell into a polynomial
        dispatch route, and it makes the plan cache and the serving layer
        coalesce syntactically distinct queries with equal cores.  ``False``
        classifies every query exactly as written (the pre-minimization
        behaviour, kept for benchmarking and differential testing).
    plan_store:
        An optional persistent tier behind the plan cache: a
        :class:`~repro.persist.PlanStore` (or a directory path, opened as
        one).  Freshly compiled plans are written through to the store;
        an in-memory cache miss falls through to it and *rebinds* the
        stored plan to the live instance instead of recompiling, so a
        restarted process warm-starts its hot set from disk.  Entries are
        namespaced by the compile-relevant solver knobs
        (``allow_brute_force`` / ``prefer`` / ``minimize_queries``), so
        differently configured solvers never exchange plans.  Requires
        ``plan_cache_size > 0``.
    """

    def __init__(
        self,
        allow_brute_force: bool = True,
        prefer: str = "dp",
        precision: PrecisionLike = "exact",
        plan_cache_size: int = 128,
        epsilon: float = 0.05,
        delta: float = 0.01,
        seed: Optional[int] = None,
        minimize_queries: bool = True,
        plan_store=None,
    ) -> None:
        if prefer not in ("dp", "lineage", "automaton"):
            raise ValueError("prefer must be one of 'dp', 'lineage', 'automaton'")
        self.allow_brute_force = allow_brute_force
        self.prefer = prefer
        self.minimize_queries = minimize_queries
        self.approx_params = ApproxParams(epsilon=epsilon, delta=delta, seed=seed)
        self.approximate = _is_approx(precision)
        self.context = FAST if self.approximate else resolve_context(precision)
        self._plan_store = self._resolve_plan_store(plan_store)
        self._plan_cache = self._build_plan_cache(plan_cache_size)

    @staticmethod
    def _resolve_plan_store(plan_store):
        """Accept a ready store, a directory path, or ``None``."""
        if plan_store is None or not isinstance(plan_store, str):
            return plan_store
        # Imported lazily: repro.persist depends on repro.plan, and keeping
        # the import out of module scope keeps the solver importable first.
        from repro.persist import PlanStore

        return PlanStore(plan_store)

    def _build_plan_cache(self, size: int) -> Optional[PlanCache]:
        if self._plan_store is not None:
            if size <= 0:
                raise ValueError("a persistent plan store needs plan_cache_size > 0")
            from repro.persist import PersistentPlanCache

            return PersistentPlanCache(
                maxsize=size,
                plan_store=self._plan_store,
                namespace=self._plan_namespace(),
            )
        return PlanCache(size) if size > 0 else None

    def _plan_namespace(self) -> str:
        """The store namespace: every knob that shapes *compiled structure*."""
        return (
            f"brute={int(self.allow_brute_force)};prefer={self.prefer};"
            f"minimize={int(self.minimize_queries)}"
        )

    @property
    def plan_cache(self) -> Optional[PlanCache]:
        """The solver's compiled-plan cache (``None`` when disabled)."""
        return self._plan_cache

    @property
    def plan_store(self):
        """The persistent plan store behind the cache (``None`` when absent)."""
        return self._plan_store

    def __getstate__(self) -> dict:
        """Pickle the configuration, not the cache contents.

        Plan-cache entries are keyed on instance object *identity*, which
        does not survive a process boundary, so an unpickled solver starts
        with an empty cache of the same capacity.  This is what lets the
        :mod:`repro.service` workers be configured by shipping one solver
        prototype instead of a bag of keyword arguments.  The persistent
        plan store (holding only a path and counters, never file handles)
        *does* travel, so an unpickled worker solver warms from the same
        store directory.
        """
        state = self.__dict__.copy()
        cache = state.pop("_plan_cache")
        state["_plan_cache_size"] = cache.maxsize if cache is not None else 0
        return state

    def __setstate__(self, state: dict) -> None:
        size = state.pop("_plan_cache_size")
        self.__dict__.update(state)
        self._plan_cache = self._build_plan_cache(size)

    # ------------------------------------------------------------------
    # public entry points
    # ------------------------------------------------------------------
    def probability(
        self,
        query: QueryLike,
        instance: ProbabilisticGraph,
        method: str = "auto",
        precision: PrecisionLike = None,
    ) -> Number:
        """``Pr(query ⇝ instance)`` (see :meth:`solve` for the full result)."""
        return self.solve(query, instance, method=method, precision=precision).probability

    def solve(
        self,
        query: QueryLike,
        instance: ProbabilisticGraph,
        method: str = "auto",
        precision: PrecisionLike = None,
    ) -> PHomResult:
        """Compute ``Pr(query ⇝ instance)`` and report the algorithm used.

        ``query`` is a :class:`~repro.graphs.digraph.DiGraph` or a
        query-language string such as ``"R(x, y), S(y, z)"`` (see
        :mod:`repro.query`).  ``method`` is ``"auto"`` (recommended) or one
        of the explicit algorithm names listed in :meth:`available_methods`
        — the automatic dispatch minimizes the query to its homomorphic
        core first (unless the solver was built with
        ``minimize_queries=False``), while explicit methods run on the
        query exactly as written.  ``precision`` overrides the solver's
        numeric backend for this call (including ``"approx"``, which
        samples the #P-hard cells with the solver's ``epsilon`` / ``delta``
        / ``seed``).  The automatic dispatch answers a tractable cell from
        its compiled plan: a plan's first answer runs its kernels once,
        without a tape, and a caching solver lowers the plan to its flat
        tape when a solve reuses it after that answer (billed in
        ``tape_compiles``), so one-shot queries never pay for a tape.
        """
        query = as_query_graph(query)
        context, approx = self._resolve_precision(precision)
        self._validate_inputs(query, instance)
        if method == "auto":
            # Self-loop-only degenerate queries belong to no class of
            # Figure 2, so the classifying dispatch rejects them up front
            # with a clear error (PR 5 contract); the explicit
            # enumeration/sampling methods below need no class recognition
            # and still accept them.
            validate_query_graph(query)
            return self._solve_auto(query, instance, context, approx)
        if method in self.SAMPLING_METHODS:
            # The samplers always run on floats (a precision override is
            # meaningless for an estimate); report their provenance — sample
            # count, (ε, δ), seed — just like the auto-dispatch approx path.
            estimate = self._sample(method, query, instance)
            return self._result(
                query, instance, estimate.value, method,
                proposition=None, notes=estimate.describe(),
            )
        dispatch = self._explicit_methods(context)
        if method not in dispatch:
            known = sorted(dispatch) + list(self.SAMPLING_METHODS)
            raise ValueError(
                f"unknown method {method!r}; expected 'auto' or one of {sorted(known)}"
            )
        probability = dispatch[method](query, instance)
        return self._result(query, instance, probability, method, proposition=None)

    def solve_many(
        self,
        queries: Iterable[QueryLike],
        instance: ProbabilisticGraph,
        method: str = "auto",
        precision: PrecisionLike = None,
    ) -> List[PHomResult]:
        """Answer a batch of queries against one shared instance.

        Returns one :class:`PHomResult` per query, identical to calling
        :meth:`solve` in a loop — but the instance-side work (class
        recognition, connectivity, the component split and its probability
        tables) is memoised on the instance by the first query that needs
        it and shared across the whole batch, which is the intended entry
        point for serving many queries against the same probabilistic
        instance.

        Equivalent queries (equal canonical form, see
        :func:`repro.plan.canonical_query_key` — under the default
        ``minimize_queries=True`` this compares homomorphic *cores*, so
        syntactically distinct but equivalent queries dedupe too) are
        deduplicated: each distinct form is compiled and evaluated once, and
        duplicates receive copies of its result.
        """
        queries = [as_query_graph(query) for query in queries]
        solved: Dict[object, PHomResult] = {}
        results: List[PHomResult] = []
        # Explicit (non-auto) methods dispatch on the query exactly as
        # written, so equivalent-but-distinct spellings must not share a
        # result there — only the minimizing auto route may dedupe on cores.
        dedupe_on_cores = self.minimize_queries and method == "auto"
        for query in queries:
            if method == "auto":
                # A degenerate spelling fails as solve fails it, even when an
                # equivalent valid spelling is already solved.
                validate_query_graph(query)
            key = canonical_query_key(query, minimize=dedupe_on_cores)
            cached = solved.get(key)
            if cached is None:
                cached = self.solve(query, instance, method=method, precision=precision)
                solved[key] = cached
                results.append(cached)
            else:
                # A copy of the shared computation, re-described for *this*
                # spelling (its own query class and, on the minimizing auto
                # route only, its own minimization provenance).
                results.append(requalify_result(cached, query, dedupe_on_cores))
        return results

    #: Explicit method names answered by the samplers (float estimates with
    #: (ε, δ) provenance in ``result.notes``) rather than by an exact
    #: algorithm.  Public: the CLI keys its "sampled estimate" note on it.
    SAMPLING_METHODS = ("karp-luby", "monte-carlo-worlds")

    @classmethod
    def available_methods(cls) -> list:
        """The explicit method names accepted by :meth:`solve`."""
        return sorted(list(cls()._explicit_methods()) + list(cls.SAMPLING_METHODS))

    # ------------------------------------------------------------------
    # validation and bookkeeping
    # ------------------------------------------------------------------
    def _resolve_precision(
        self, precision: PrecisionLike
    ) -> Tuple[NumericContext, Optional[ApproxParams]]:
        """The numeric context and, in approx mode, the sampling contract."""
        if precision is None:
            return self.context, (self.approx_params if self.approximate else None)
        if _is_approx(precision):
            return FAST, self.approx_params
        return resolve_context(precision), None

    @staticmethod
    def _validate_inputs(query: DiGraph, instance: ProbabilisticGraph) -> None:
        if query.num_vertices() == 0:
            raise ReproError("the query graph must have at least one vertex")
        if instance.graph.num_vertices() == 0:
            raise ReproError("the instance graph must have at least one vertex")

    @staticmethod
    def _is_effectively_unlabeled(query: DiGraph, instance: ProbabilisticGraph) -> bool:
        return len(query.labels() | instance.graph.labels()) <= 1

    def _result(
        self,
        query: DiGraph,
        instance: ProbabilisticGraph,
        probability: Number,
        method: str,
        proposition: Optional[str],
        notes: str = "",
    ) -> PHomResult:
        return PHomResult(
            probability=probability,
            method=method,
            proposition=proposition,
            query_class=graph_class_of(query),
            instance_class=graph_class_of(instance.graph),
            labeled=not self._is_effectively_unlabeled(query, instance),
            notes=notes,
        )

    # ------------------------------------------------------------------
    # explicit methods
    # ------------------------------------------------------------------
    def _explicit_methods(
        self, context: NumericContext = EXACT
    ) -> Dict[str, Callable[[DiGraph, ProbabilisticGraph], Number]]:
        return {
            "brute-force-worlds": lambda q, i: brute_force_phom(q, i, context),
            "brute-force-matches": lambda q, i: brute_force_phom_over_matches(q, i, context),
            "generic-lineage": lambda q, i: self._generic_lineage(q, i, context),
            "labeled-dwt-dp": lambda q, i: self._per_component(
                q, i, lambda qq, ii: phom_labeled_path_on_dwt(qq, ii, method="dp", context=context),
                context,
            ),
            "labeled-dwt-lineage": lambda q, i: self._per_component(
                q, i,
                lambda qq, ii: phom_labeled_path_on_dwt(qq, ii, method="lineage", context=context),
                context,
            ),
            "connected-2wp-dp": lambda q, i: self._per_component(
                q, i, lambda qq, ii: phom_connected_on_2wp(qq, ii, method="dp", context=context),
                context,
            ),
            "connected-2wp-lineage": lambda q, i: self._per_component(
                q, i,
                lambda qq, ii: phom_connected_on_2wp(qq, ii, method="lineage", context=context),
                context,
            ),
            "graded-collapse": lambda q, i: phom_unlabeled_on_union_dwt(
                q, i, method=self._polytree_method(), context=context
            ),
            "polytree-automaton": lambda q, i: self._union_polytree(q, i, "automaton", context),
            "polytree-dp": lambda q, i: self._union_polytree(q, i, "dp", context),
        }

    def _sample(self, method: str, query: DiGraph, instance: ProbabilisticGraph):
        """Run one of the explicit samplers under the solver's (ε, δ, seed)."""
        if method == "karp-luby":
            # Go through the plan cache: repeated estimates against the same
            # pair reuse the memoised match lineage instead of re-running the
            # homomorphism enumeration per call.
            plan = self._plan_for(query, instance, allow_fallback=True)
            if isinstance(plan, FallbackPlan):
                return plan.estimate(params=self.approx_params)
            # Tractable (or trivial) combination sampled on explicit request:
            # build the lineage directly, outside the plan machinery.
            return karp_luby_probability(
                match_lineage(query, instance),
                FAST.instance_probabilities(instance),
                self.approx_params,
            )
        return naive_phom_estimate(query, instance, self.approx_params)

    @staticmethod
    def _generic_lineage(
        query: DiGraph, instance: ProbabilisticGraph, context: NumericContext = EXACT
    ) -> Number:
        lineage = match_lineage(query, instance)
        return lineage.probability(
            context.instance_probabilities(instance), context=context
        )

    @staticmethod
    def _per_component(
        query: DiGraph,
        instance: ProbabilisticGraph,
        solver: Callable[[DiGraph, ProbabilisticGraph], Number],
        context: NumericContext = EXACT,
    ) -> Number:
        """Apply a connected-instance solver through Lemma 3.7 when needed."""
        if instance.graph.is_weakly_connected():
            return solver(query, instance)
        return phom_on_disconnected_instance(query, instance, solver, context)

    def _polytree_method(self) -> str:
        return "dp" if self.prefer == "dp" else "automaton"

    def _union_polytree(
        self,
        query: DiGraph,
        instance: ProbabilisticGraph,
        method: str,
        context: NumericContext = EXACT,
    ) -> Number:
        # Collapse the (possibly disconnected) ⊔DWT query to the equivalent
        # connected one-way path (Proposition 5.5), then apply Lemma 3.7.
        length = collapse_query_to_path_length(query)
        collapsed = unlabeled_path(length)
        return self._per_component(
            collapsed,
            instance,
            lambda _q, component: phom_unlabeled_path_on_polytree(
                length, component, method=method, context=context
            ),
            context,
        )

    # ------------------------------------------------------------------
    # automatic dispatch (the classification of Tables 1-3), plan-backed
    # ------------------------------------------------------------------
    def _solve_auto(
        self,
        query: DiGraph,
        instance: ProbabilisticGraph,
        context: NumericContext = EXACT,
        approx: Optional[ApproxParams] = None,
    ) -> PHomResult:
        plan = self._plan_for(
            query, instance, allow_fallback=True if approx is not None else None
        )
        if isinstance(plan, FallbackPlan):
            if approx is not None:
                # Approx mode: the #P-hard cell is answered by the Karp–Luby
                # sampler over the plan's match lineage, not by enumeration.
                estimate = plan.estimate(params=approx)
                return self._annotate_minimization(
                    plan, estimate.value, query, "karp-luby", estimate.describe()
                )
            if not self.allow_brute_force:
                # Reached on approx-mode solvers answering an exact per-call
                # precision override; cached-plan cross-talk is already
                # handled inside _plan_for.
                raise ClassConstraintError(_HARD_CELL_MESSAGE)
            # Warn from here so the message is attributed to the caller of
            # solve(), exactly as the pre-plan dispatcher did.
            warnings.warn(
                BRUTE_FORCE_FALLBACK_MESSAGE, IntractableFallbackWarning, stacklevel=3
            )
            probability = plan.evaluate(precision=context, _warn=False)
        else:
            probability = plan.evaluate(precision=context)
        return self._annotate_minimization(plan, probability, query)

    def _annotate_minimization(
        self,
        plan: CompiledPlan,
        probability: Number,
        query: DiGraph,
        method: Optional[str] = None,
        notes: Optional[str] = None,
    ) -> PHomResult:
        """The result of an auto solve, reported against the *original* query.

        The plan describes the homomorphic core the dispatcher actually ran
        on; a minimizing solver reports the ``query_class`` of the query as
        written and appends its fold provenance to ``notes``, both read off
        the query's :class:`~repro.query.minimize.QueryNormalForm`.
        ``method`` and ``notes`` default to the plan's.
        """
        query_class = plan.query_class
        notes = plan.notes if notes is None else notes
        if self.minimize_queries:
            form = normal_form(query)
            query_class = form.query_class
            if form.note:
                notes = f"{notes}; {form.note}" if notes else form.note
        return PHomResult(
            probability,
            plan.method if method is None else method,
            plan.proposition,
            query_class,
            plan.instance_class,
            plan.labeled,
            notes,
        )

    # ------------------------------------------------------------------
    # plan compilation (the structural phase, done once per (query, instance))
    # ------------------------------------------------------------------
    def compile(self, query: QueryLike, instance: ProbabilisticGraph) -> CompiledPlan:
        """Compile a reusable :class:`~repro.plan.CompiledPlan` for the pair.

        The plan captures everything probability-independent — the dispatch
        verdict and the structural skeleton of the chosen algorithm — and is
        served from the solver's :class:`~repro.plan.PlanCache` when an
        equivalent query was compiled against the same instance before.
        Under the default ``minimize_queries=True`` the plan is compiled for
        the query's homomorphic core (an equivalent query with the same
        probability on every instance), so ``plan.query`` may be smaller
        than the query passed in.  ``plan.evaluate(...)`` then runs only
        arithmetic; ``plan.update(edge, p)`` re-evaluates after a
        single-edge change.

        Because equivalent compiles return the *same cached object*, the
        serving table maintained by ``update`` is shared by everyone holding
        that plan; callers needing an independent serving session should
        ``reset_serving()`` the plan or use a solver with
        ``plan_cache_size=0``.
        """
        query = as_query_graph(query)
        self._validate_inputs(query, instance)
        validate_query_graph(query)
        return self._plan_for(query, instance, compile=True)

    def tape_for(self, query: QueryLike, instance: ProbabilisticGraph):
        """The pair's compiled plan lowered to a flat :class:`~repro.tape.PlanTape`.

        Compiles (or retrieves from the cache) the plan exactly as
        :meth:`compile` does and returns its tape.  A caching solver lowers
        every tractable plan :meth:`compile` compiles, and every cached
        plan reused without a tape — accounted as a *tape* compile in the
        cache statistics, never as a plan compile — so only a solver with
        ``plan_cache_size=0`` lowers here.  A plan compiled here is written
        to a persistent tier together with its tape.  Raises
        :class:`~repro.exceptions.PlanError` for brute-force fallback
        plans, which have no arithmetic half to lower.
        """
        return self.compile(query, instance).tape()

    def evaluate_many(
        self,
        query: QueryLike,
        instance: ProbabilisticGraph,
        batches: Iterable[Optional[dict]],
        precision: PrecisionLike = None,
    ) -> List[Number]:
        """Answer one query under a whole batch of probability valuations.

        Each entry of ``batches`` (any iterable, read once) is an override
        mapping exactly as in :meth:`~repro.plan.CompiledPlan.evaluate`
        (``None`` / ``{}`` for the instance's live table); the result list
        is index-aligned.  The batch runs in one structural pass over the
        plan's flat tape (see :meth:`tape_for`), once per distinct
        valuation, vectorizing every arithmetic operation across the
        valuations, which is the serving layer's bulk re-evaluation fast
        path (see :meth:`~repro.plan.CompiledPlan.evaluate_many`).
        ``precision`` selects the numeric backend as in :meth:`solve`
        (``"approx"`` is rejected: batched evaluation is an exact/float
        contract); the tape picks its executor from the precision, the
        number of distinct valuations and whether numpy is importable.
        """
        if _is_approx(precision):
            raise ReproError(
                "evaluate_many computes exact/float probabilities; "
                "precision='approx' does not apply to batched tape evaluation"
            )
        plan = self.compile(query, instance)
        context, _approx = self._resolve_precision(precision)
        return plan.evaluate_many(batches, precision=context)

    def _plan_for(
        self,
        query: DiGraph,
        instance: ProbabilisticGraph,
        allow_fallback: Optional[bool] = None,
        compile: bool = False,
    ) -> CompiledPlan:
        """The cached (or freshly compiled) plan of the pair.

        Score, select, then build: a tractable plan gets its tape when
        ``compile`` asks for it (callers that reuse the plan or need its
        tape now), before a fresh plan is stored or on a cache hit.
        Otherwise a fresh plan is stored tape-less, and a cache hit lowers
        it only once it has answered a live call in this process
        (``plan._live_sessions is not None``): a plan first cached by a
        sampler, or loaded from a persistent store, answers its first
        solve by the direct pass.  A lowering on a hit happens once,
        billed by the cache in ``tape_compiles``.
        """
        if allow_fallback is None:
            # Approx-mode solvers never brute-force, but they do need the
            # fallback plan (it carries the lineage the sampler runs on).
            allow_fallback = self.allow_brute_force or self.approximate
        if self.minimize_queries:
            # The class-aware rewriting pass: classification and compilation
            # run on the homomorphic core, an equivalent (often smaller, and
            # sometimes polynomially dispatchable) query.  query_core (not
            # normalize) so the explicit sampling path, which validates
            # nothing, keeps accepting degenerate queries it can answer.
            query = query_core(query)
        if self._plan_cache is None:
            with current_tracer().span("plan.compile") as span:
                plan = self._compile_plan(query, instance, allow_fallback)
                if span:
                    span.attrs["method"] = plan.method
                    span.attrs["cached"] = False
            return plan
        key = canonical_query_key(query, minimize=self.minimize_queries)
        with current_tracer().span("plan.lookup") as span:
            plan = self._plan_cache.lookup(key, instance)
            if span:
                span.attrs["hit"] = plan is not None
        if plan is None:
            with current_tracer().span("plan.compile") as span:
                plan = self._compile_plan(query, instance, allow_fallback)
                if span:
                    span.attrs["method"] = plan.method
            if compile and not isinstance(plan, FallbackPlan):
                # Lowered before it is stored, so a persistent tier writes
                # one entry that carries the tape.
                plan.tape()
            self._plan_cache.store(key, instance, plan)
        elif isinstance(plan, FallbackPlan):
            if not allow_fallback:
                # A FallbackPlan cached by an approx call must not change
                # what a non-sampling caller observes: same error as on a
                # cold cache.
                raise ClassConstraintError(_HARD_CELL_MESSAGE)
        elif not plan.has_tape() and (compile or plan._live_sessions is not None):
            self._plan_cache.lower(plan)
        return plan

    def _compile_plan(
        self, query: DiGraph, instance: ProbabilisticGraph, allow_fallback: bool = True
    ) -> CompiledPlan:
        graph = instance.graph
        unlabeled = self._is_effectively_unlabeled(query, instance)
        metadata = dict(
            query=query,
            instance=instance,
            labeled=not unlabeled,
            default_context=self.context,
        )

        # Trivial cases first: edge-less queries always hold, and a query
        # using a label absent from the instance never does.
        if query.num_edges() == 0:
            return ConstantPlan(
                True, method="trivial-edgeless-query", proposition=None,
                notes="a query without edges maps anywhere", **metadata,
            )
        if not query.labels() <= graph.labels():
            return ConstantPlan(
                False, method="trivial-label-mismatch", proposition=None,
                notes="some query label does not appear in the instance", **metadata,
            )

        query_connected = query.is_weakly_connected()
        instance_union_2wp = graph_in_class(graph, GraphClass.UNION_TWO_WAY_PATH)
        instance_union_dwt = graph_in_class(graph, GraphClass.UNION_DOWNWARD_TREE)
        instance_union_pt = graph_in_class(graph, GraphClass.UNION_POLYTREE)

        if query_connected:
            if instance_union_2wp:
                components = [
                    (
                        evaluate_two_way_path_skeleton,
                        compile_connected_on_2wp(query, component.graph),
                    )
                    for component in self._instance_components(instance)
                ]
                return ComponentPlan(
                    components, always_combine=False,
                    method="connected-2wp",
                    proposition="Proposition 4.11 (+ Lemma 3.7)", **metadata,
                )
            if instance_union_dwt and is_one_way_path(query):
                labels = path_query_labels(query)
                components = [
                    (
                        evaluate_dwt_path_skeleton,
                        compile_labeled_path_on_dwt(labels, component.graph),
                    )
                    for component in self._instance_components(instance)
                ]
                return ComponentPlan(
                    components, always_combine=False,
                    method="labeled-dwt",
                    proposition="Proposition 4.10 (+ Lemma 3.7)", **metadata,
                )

        if unlabeled and instance_union_dwt:
            mapping = cached_level_mapping(query)
            if mapping is None:
                return ConstantPlan(
                    False, method="graded-collapse",
                    proposition="Proposition 3.6", **metadata,
                )
            if mapping.difference == 0:
                return ConstantPlan(
                    True, method="graded-collapse",
                    proposition="Proposition 3.6", **metadata,
                )
            # Proposition 3.6 always combines over components (even when the
            # instance is connected), mirroring phom_unlabeled_on_union_dwt.
            components = self._polytree_components(
                mapping.difference, instance.connected_components(), self._polytree_method()
            )
            return ComponentPlan(
                components, always_combine=True,
                method="graded-collapse", proposition="Proposition 3.6", **metadata,
            )

        if (
            unlabeled
            and instance_union_pt
            and graph_in_class(query, GraphClass.UNION_DOWNWARD_TREE)
        ):
            method = "automaton" if self.prefer in ("automaton", "lineage") else "dp"
            length = collapse_query_to_path_length(query)
            components = self._polytree_components(
                length, self._instance_components(instance), method
            )
            return ComponentPlan(
                components, always_combine=False,
                method="polytree-" + method,
                proposition="Propositions 5.4 / 5.5 (+ Lemma 3.7)", **metadata,
            )

        if not allow_fallback:
            raise ClassConstraintError(_HARD_CELL_MESSAGE)
        return FallbackPlan(
            allow_brute_force=self.allow_brute_force,
            method="brute-force-worlds", proposition=None,
            notes="#P-hard combination; exponential enumeration used", **metadata,
        )

    @staticmethod
    def _instance_components(instance: ProbabilisticGraph) -> List[ProbabilisticGraph]:
        """The Lemma 3.7 component split: the instance itself when connected."""
        if instance.graph.is_weakly_connected():
            return [instance]
        return instance.connected_components()

    @staticmethod
    def _polytree_components(
        path_length: int, components: Sequence[ProbabilisticGraph], method: str
    ) -> List:
        """The ``(kernel, structure)`` pairs of Proposition 5.4's two routes."""
        if method == "automaton":
            return [
                (DDNNF.evaluate_with, compile_path_circuit_on_polytree(path_length, component))
                for component in components
            ]
        return [
            (
                evaluate_polytree_dp_skeleton,
                compile_path_dp_on_polytree(path_length, component.graph),
            )
            for component in components
        ]


def phom_probability(
    query: QueryLike,
    instance: ProbabilisticGraph,
    method: str = "auto",
    allow_brute_force: bool = True,
    prefer: str = "dp",
    precision: PrecisionLike = "exact",
    epsilon: float = 0.05,
    delta: float = 0.01,
    seed: Optional[int] = None,
    minimize_queries: bool = True,
) -> Number:
    """``Pr(query ⇝ instance)``: the one-call public API of the library.

    Parameters
    ----------
    query:
        The conjunctive query, as a directed edge-labeled graph or as a
        query-language string such as ``"R(x, y), S(y, z)"`` (see
        :mod:`repro.query`).
    instance:
        The tuple-independent probabilistic instance.
    method:
        ``"auto"`` (default) chooses the best applicable algorithm from the
        paper's classification; explicit method names are accepted as well
        (see :meth:`PHomSolver.available_methods`).
    allow_brute_force:
        Whether #P-hard combinations may be answered by exponential
        enumeration (with a warning) instead of raising.
    prefer:
        Evaluation flavour for tractable cases: ``"dp"`` (direct dynamic
        programs), ``"lineage"`` or ``"automaton"`` (the paper's
        constructions).
    precision:
        ``"exact"`` (default) for bit-exact :class:`~fractions.Fraction`
        results; ``"float"`` for the fast double-precision backend;
        ``"approx"`` to answer #P-hard combinations with the Karp–Luby
        ``(ε, δ)`` sampler instead of exponential brute force.
    epsilon / delta / seed:
        The sampling contract and RNG seed, consulted only when sampling
        runs (``precision="approx"`` or one of the explicit sampling
        methods ``"karp-luby"`` / ``"monte-carlo-worlds"``).
    minimize_queries:
        Whether the automatic dispatch minimizes the query to its
        homomorphic core before classification (default ``True``; see
        :class:`PHomSolver`).
    """
    solver = PHomSolver(
        allow_brute_force=allow_brute_force,
        prefer=prefer,
        precision=precision,
        epsilon=epsilon,
        delta=delta,
        seed=seed,
        minimize_queries=minimize_queries,
    )
    return solver.probability(query, instance, method=method)
