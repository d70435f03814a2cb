"""Differential fuzz tests for compiled query plans.

Random drift sequences exercise the three ways probabilities reach a plan —
``plan.update`` serving streams, ``instance.set_probability`` drift under a
live plan cache (including across cache-eviction boundaries), and override
tables — and assert the results stay *bit-identical* (exact Fractions) to a
freshly compiled plan's kernels run on Fractions (never a tape) after every
step.  Seeds are pinned (``REPRO_FUZZ_SEED`` overrides), so failures
reproduce deterministically.

Also home to the mutation-time validation contract: plans must reject
out-of-range (or non-finite) probabilities at the call that introduces
them, on every plan kind.
"""

from __future__ import annotations

import os
import random
import warnings
from fractions import Fraction

import pytest

from repro.core.solver import PHomSolver
from repro.exceptions import IntractableFallbackWarning, PlanError, ProbabilityError
from repro.graphs.builders import one_way_path
from repro.graphs.classes import GraphClass
from repro.numeric import EXACT
from repro.plan import ComponentPlan, ConstantPlan, FallbackPlan
from repro.probability.brute_force import brute_force_phom
from repro.probability.prob_graph import ProbabilisticGraph
from repro.workloads.generators import intractable_workload, workload_for_cell

SEED = int(os.environ.get("REPRO_FUZZ_SEED", "20170514"))

#: One entry per compiled-plan route: (query class, instance class, labeled,
#: solver kwargs).  The last two exercise the polytree DP and the d-DNNF
#: circuit (whose update() path is truly incremental).
PLAN_ROUTES = [
    (GraphClass.ONE_WAY_PATH, GraphClass.DOWNWARD_TREE, True, {}),
    (GraphClass.TWO_WAY_PATH, GraphClass.TWO_WAY_PATH, True, {}),
    (GraphClass.DOWNWARD_TREE, GraphClass.UNION_DOWNWARD_TREE, False, {}),
    (GraphClass.UNION_ONE_WAY_PATH, GraphClass.UNION_POLYTREE, False, {}),
    (GraphClass.DOWNWARD_TREE, GraphClass.POLYTREE, False, {"prefer": "automaton"}),
]


def fresh_exact(query, instance):
    """The ground truth, computed without any tape.

    A cache-less solver compiles a fresh plan (it lowers nothing) and its
    arithmetic half runs on Fractions; #P-hard cells use brute force.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntractableFallbackWarning)
        plan = PHomSolver(plan_cache_size=0).compile(query, instance)
    if isinstance(plan, FallbackPlan):
        return brute_force_phom(query, instance)
    return plan._evaluate_with(EXACT.instance_probabilities(instance), EXACT)


def random_probability(rng: random.Random) -> Fraction:
    """A random rational in [0, 1], hitting the 0 and 1 boundaries too."""
    roll = rng.random()
    if roll < 0.1:
        return Fraction(0)
    if roll < 0.2:
        return Fraction(1)
    return Fraction(rng.randint(1, 15), 16)


class TestServingUpdateStream:
    @pytest.mark.parametrize("route", range(len(PLAN_ROUTES)))
    def test_update_stream_matches_fresh_solve(self, route):
        query_class, instance_class, labeled, solver_kwargs = PLAN_ROUTES[route]
        rng = random.Random(SEED + route)
        workload = workload_for_cell(
            query_class, instance_class, labeled,
            query_size=rng.randint(2, 3), instance_size=rng.randint(5, 8), rng=rng,
        )
        solver = PHomSolver(**solver_kwargs)
        plan = solver.compile(workload.query, workload.instance)
        assert isinstance(plan, (ComponentPlan, ConstantPlan))
        # The mirror receives the same updates through set_probability, so a
        # fresh solve on it is the ground truth for the serving table.
        mirror = ProbabilisticGraph(
            workload.instance.graph, workload.instance.probabilities()
        )
        edges = workload.instance.edges()
        for step in range(25):
            edge = edges[rng.randrange(len(edges))]
            value = random_probability(rng)
            # Alternate Edge-object and (source, target) tuple keys.
            key = edge if step % 2 == 0 else (edge.source, edge.target)
            served = plan.update(key, value)
            mirror.set_probability(edge, value)
            assert served == fresh_exact(workload.query, mirror), (
                f"route {route} diverged at step {step} after setting "
                f"{edge!r} to {value}"
            )

    def test_reset_serving_reseeds_from_the_instance(self):
        rng = random.Random(SEED)
        workload = workload_for_cell(
            GraphClass.ONE_WAY_PATH, GraphClass.DOWNWARD_TREE, True,
            query_size=2, instance_size=6, rng=rng,
        )
        solver = PHomSolver()
        plan = solver.compile(workload.query, workload.instance)
        edge = workload.instance.edges()[0]
        plan.update(edge, Fraction(1, 3))
        plan.reset_serving()
        # After the reset the serving table must match the (unmutated)
        # instance again, not the drifted table.
        assert plan.update(edge, workload.instance.probability(edge)) == fresh_exact(
            workload.query, workload.instance
        )


class TestDriftAcrossCacheEviction:
    def test_solves_stay_exact_across_evictions(self):
        rng = random.Random(SEED + 1000)
        instance_workload = workload_for_cell(
            GraphClass.ONE_WAY_PATH, GraphClass.DOWNWARD_TREE, True,
            query_size=2, instance_size=8, rng=rng,
        )
        instance = instance_workload.instance
        queries = [
            one_way_path(labels, prefix=f"q{i}")
            for i, labels in enumerate([["R"], ["S"], ["R", "S"], ["S", "R"], ["R", "R"]])
        ]
        solver = PHomSolver(plan_cache_size=2)
        edges = instance.edges()
        for step in range(40):
            if step % 3 == 0:
                edge = edges[rng.randrange(len(edges))]
                instance.set_probability(edge, random_probability(rng))
            query = queries[rng.randrange(len(queries))]
            got = solver.solve(query, instance).probability
            assert got == fresh_exact(query, instance), f"diverged at step {step}"
        stats = solver.plan_cache.stats
        assert stats["size"] <= 2
        # Five distinct canonical forms through a 2-entry cache: evictions
        # and recompiles must actually have happened for this test to bite.
        assert stats["compiles"] > len(queries)

    def test_fallback_plans_follow_drift_too(self):
        rng = random.Random(SEED + 2000)
        workload = intractable_workload(7, rng)
        solver = PHomSolver()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IntractableFallbackWarning)
            for step in range(5):
                edge = workload.instance.edges()[rng.randrange(workload.instance.graph.num_edges())]
                workload.instance.set_probability(edge, random_probability(rng))
                got = solver.solve(workload.query, workload.instance).probability
                assert got == fresh_exact(workload.query, workload.instance)


class TestMutationTimeValidation:
    @pytest.fixture
    def component_plan(self):
        rng = random.Random(SEED)
        workload = workload_for_cell(
            GraphClass.ONE_WAY_PATH, GraphClass.DOWNWARD_TREE, True,
            query_size=2, instance_size=6, rng=rng,
        )
        plan = PHomSolver().compile(workload.query, workload.instance)
        assert isinstance(plan, ComponentPlan)
        return workload, plan

    @pytest.mark.parametrize("bad", [Fraction(3, 2), -0.25, 2, float("nan"), float("inf"), "2/0"])
    def test_component_plan_update_rejects_bad_probabilities(self, component_plan, bad):
        workload, plan = component_plan
        edge = workload.instance.edges()[0]
        before = plan.evaluate()
        with pytest.raises(ProbabilityError):
            plan.update(edge, bad)
        # The failed update must not have touched the serving state.
        assert plan.evaluate() == before

    @pytest.mark.parametrize("bad", [Fraction(3, 2), -0.25, float("nan")])
    def test_evaluate_override_tables_reject_bad_probabilities(self, component_plan, bad):
        workload, plan = component_plan
        edge = workload.instance.edges()[0]
        with pytest.raises(ProbabilityError):
            plan.evaluate(probabilities={edge: bad})

    def test_constant_plan_update_validates_probability(self):
        rng = random.Random(SEED)
        workload = workload_for_cell(
            GraphClass.ONE_WAY_PATH, GraphClass.DOWNWARD_TREE, True,
            query_size=2, instance_size=6, rng=rng,
        )
        # A query over a label the instance lacks compiles to a constant.
        query = one_way_path(["Z"], prefix="q")
        plan = PHomSolver().compile(query, workload.instance)
        assert isinstance(plan, ConstantPlan)
        edge = workload.instance.edges()[0]
        assert plan.update(edge, Fraction(1, 2)) == 0
        with pytest.raises(ProbabilityError):
            plan.update(edge, Fraction(5, 2))
        with pytest.raises(ProbabilityError):
            plan.update(edge, float("nan"))
        # evaluate() overrides are validated on constant plans too, even
        # though the verdict never reads the table.
        with pytest.raises(ProbabilityError):
            plan.evaluate(probabilities={edge: 5})
        assert plan.evaluate(probabilities={edge: Fraction(1, 2)}) == 0

    def test_instance_mutation_validates(self):
        rng = random.Random(SEED)
        workload = intractable_workload(6, rng)
        edge = workload.instance.edges()[0]
        with pytest.raises(ProbabilityError):
            workload.instance.set_probability(edge, float("inf"))
        with pytest.raises(ProbabilityError):
            workload.instance.set_probability(edge, "not-a-number")

    def test_fallback_plan_has_no_update(self):
        rng = random.Random(SEED)
        workload = intractable_workload(6, rng)
        plan = PHomSolver().compile(workload.query, workload.instance)
        assert isinstance(plan, FallbackPlan)
        with pytest.raises(PlanError):
            plan.update(workload.instance.edges()[0], Fraction(1, 2))
