"""Tests for the sampling subsystem: naive Monte Carlo and Karp–Luby.

Every randomized assertion here runs under a pinned seed, so the suite is
deterministic: a failure is a real regression, not sampling noise.  The
seeds were not cherry-picked — the estimators' (ε, δ) contracts make a
violation astronomically unlikely, and several seeds are exercised.
"""

from __future__ import annotations

import inspect
import random
from fractions import Fraction

import pytest

from repro.approx import (
    ApproxEstimate,
    ApproxParams,
    hoeffding_sample_count,
    karp_luby_probability,
    naive_phom_estimate,
    sample_world_edges,
)
from repro.core.solver import PHomSolver, phom_probability
from repro.exceptions import ClassConstraintError, LineageError, PlanError, ReproError
from repro.graphs.builders import one_way_path
from repro.lineage.dnf import PositiveDNF
from repro.plan import FallbackPlan
from repro.probability.prob_graph import ProbabilisticGraph
from repro.workloads.generators import intractable_instance, intractable_workload


class TestApproxParams:
    def test_validation(self):
        with pytest.raises(ReproError):
            ApproxParams(epsilon=0.0)
        with pytest.raises(ReproError):
            ApproxParams(epsilon=1.5)
        with pytest.raises(ReproError):
            ApproxParams(delta=0.0)
        with pytest.raises(ReproError):
            ApproxParams(delta=1.0)

    def test_seeded_rngs_are_reproducible(self):
        a, b = ApproxParams(seed=7).rng(), ApproxParams(seed=7).rng()
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_hoeffding_count_grows_with_tighter_contract(self):
        assert hoeffding_sample_count(0.1, 0.05) < hoeffding_sample_count(0.05, 0.05)
        assert hoeffding_sample_count(0.1, 0.05) < hoeffding_sample_count(0.1, 0.01)


class TestWorldSampler:
    def test_certain_and_impossible_edges_consume_no_randomness(self):
        from repro.graphs.digraph import DiGraph

        graph = DiGraph()
        graph.add_edge("a", "b", "R")
        graph.add_edge("b", "c", "S")
        instance = ProbabilisticGraph(graph, {("a", "b"): 1, ("b", "c"): 0})
        kept = sample_world_edges(instance, random.Random(0))
        assert [(e.source, e.target) for e in kept] == [("a", "b")]

    def test_world_frequencies_match_distribution(self):
        from repro.graphs.digraph import DiGraph

        graph = DiGraph()
        graph.add_edge("a", "b", "R")
        instance = ProbabilisticGraph(graph, {("a", "b"): Fraction(1, 4)})
        rng = random.Random(42)
        hits = sum(1 for _ in range(4000) if sample_world_edges(instance, rng))
        assert abs(hits / 4000 - 0.25) < 0.03


class TestNaiveEstimator:
    def test_additive_accuracy_on_figure1(self, figure1_instance, example22_query):
        params = ApproxParams(epsilon=0.05, delta=0.05, seed=11)
        estimate = naive_phom_estimate(example22_query, figure1_instance, params)
        assert isinstance(estimate, ApproxEstimate)
        assert estimate.samples == hoeffding_sample_count(0.05, 0.05)
        assert abs(estimate.value - 0.574) <= 0.05

    def test_fixed_budget_override(self, figure1_instance, example22_query):
        estimate = naive_phom_estimate(
            example22_query, figure1_instance, ApproxParams(seed=3), num_samples=50
        )
        assert estimate.samples == 50
        assert 0.0 <= estimate.value <= 1.0

    def test_seeded_runs_are_identical(self, figure1_instance, example22_query):
        params = ApproxParams(epsilon=0.2, delta=0.2, seed=5)
        first = naive_phom_estimate(example22_query, figure1_instance, params)
        second = naive_phom_estimate(example22_query, figure1_instance, params)
        assert first == second


class TestKarpLuby:
    def probabilities(self, dnf, rng):
        return {v: Fraction(rng.randint(1, 9), 10) for v in dnf.variables()}

    def test_degenerate_formulas_are_exact(self):
        params = ApproxParams(seed=1)
        assert karp_luby_probability(PositiveDNF(), {}, params).value == 0.0
        true_dnf = PositiveDNF([[]])
        assert karp_luby_probability(true_dnf, {}, params).value == 1.0
        single = PositiveDNF([["x", "y"]])
        estimate = karp_luby_probability(single, {"x": 0.5, "y": 0.5}, params)
        assert estimate.exact and estimate.value == 0.25 and estimate.samples == 0

    def test_zero_weight_clauses_are_dropped(self):
        dnf = PositiveDNF([["x"], ["y"]])
        estimate = karp_luby_probability(dnf, {"x": 0.0, "y": 0.3}, ApproxParams(seed=2))
        # Only the y clause survives -> degenerate single-clause case.
        assert estimate.exact and estimate.value == pytest.approx(0.3)

    def test_missing_variable_raises(self):
        dnf = PositiveDNF([["x", "y"]])
        with pytest.raises(LineageError):
            karp_luby_probability(dnf, {"x": 0.5}, ApproxParams(seed=2))

    @pytest.mark.parametrize("trial", range(4))
    def test_relative_accuracy_vs_enumeration(self, trial):
        rng = random.Random(100 + trial)
        variables = [f"x{i}" for i in range(rng.randint(4, 7))]
        dnf = PositiveDNF(
            [
                rng.sample(variables, rng.randint(1, 3))
                for _ in range(rng.randint(2, 6))
            ]
        )
        probabilities = self.probabilities(dnf, rng)
        exact = float(dnf.probability_by_enumeration(probabilities))
        params = ApproxParams(epsilon=0.1, delta=0.1, seed=trial)
        estimate = karp_luby_probability(
            dnf, {v: float(p) for v, p in probabilities.items()}, params
        )
        if exact == 0.0:
            assert estimate.value == 0.0
        else:
            assert abs(estimate.value - exact) <= 0.1 * exact

    def test_rare_event_relative_accuracy(self):
        # All probabilities tiny: naive sampling would need ~1/p samples to
        # even see a hit; the importance sampler still nails relative error.
        dnf = PositiveDNF([["a", "b"], ["b", "c"], ["c", "d"]])
        probabilities = {v: Fraction(1, 100) for v in "abcd"}
        exact = float(dnf.probability_by_enumeration(probabilities))
        assert exact < 3.1e-4
        estimate = karp_luby_probability(
            dnf, {v: 0.01 for v in "abcd"}, ApproxParams(epsilon=0.1, delta=0.05, seed=9)
        )
        assert abs(estimate.value - exact) <= 0.1 * exact

    def test_seeded_runs_are_identical_and_seeds_differ(self):
        dnf = PositiveDNF([["a", "b"], ["b", "c"]])
        table = {"a": 0.4, "b": 0.5, "c": 0.6}
        params = dict(epsilon=0.2, delta=0.2)
        one = karp_luby_probability(dnf, table, ApproxParams(seed=1, **params))
        two = karp_luby_probability(dnf, table, ApproxParams(seed=1, **params))
        other = karp_luby_probability(dnf, table, ApproxParams(seed=2, **params))
        assert one.value == two.value
        assert one.value != other.value

    def test_fixed_budget_override(self):
        dnf = PositiveDNF([["a", "b"], ["b", "c"]])
        table = {"a": 0.4, "b": 0.5, "c": 0.6}
        estimate = karp_luby_probability(
            dnf, table, ApproxParams(seed=4), num_samples=1000
        )
        assert estimate.samples == 1000
        with pytest.raises(LineageError):
            karp_luby_probability(dnf, table, ApproxParams(seed=4), num_samples=0)


class TestIntractableWorkloadGenerator:
    def test_generates_requested_edge_count_and_falls_back(self):
        workload = intractable_workload(10, rng=3)
        assert len(workload.instance.uncertain_edges()) == 10
        solver = PHomSolver()
        plan = solver.compile(workload.query, workload.instance)
        assert isinstance(plan, FallbackPlan)

    def test_rejects_tiny_sizes(self):
        with pytest.raises(ReproError):
            intractable_instance(4)

    def test_max_numerator_caps_probabilities(self):
        instance = intractable_instance(8, rng=1, denominator=16, max_numerator=2)
        assert all(p <= Fraction(2, 16) for p in instance.probabilities().values())


class TestSolverApproxMode:
    @pytest.fixture(scope="class")
    def workload(self):
        return intractable_workload(10, rng=17)

    @pytest.fixture(scope="class")
    def exact(self, workload):
        with pytest.warns(Warning):
            return float(phom_probability(workload.query, workload.instance, precision="float"))

    def test_auto_dispatch_samples_instead_of_brute_force(self, workload, exact, recwarn):
        solver = PHomSolver(precision="approx", epsilon=0.1, delta=0.05, seed=99)
        result = solver.solve(workload.query, workload.instance)
        assert result.method == "karp-luby"
        assert "samples" in result.notes and "seed=99" in result.notes
        assert abs(result.probability - exact) <= 0.1 * exact
        # No IntractableFallbackWarning in approx mode: sampling was requested.
        assert not [w for w in recwarn if "brute-force" in str(w.message)]

    def test_per_call_precision_override(self, workload, exact):
        solver = PHomSolver(epsilon=0.1, delta=0.05, seed=123)
        result = solver.solve(workload.query, workload.instance, precision="approx")
        assert result.method == "karp-luby"
        assert abs(result.probability - exact) <= 0.1 * exact

    def test_tractable_cells_stay_exact_in_approx_mode(self):
        from repro.graphs.builders import downward_tree

        query = one_way_path(["R", "S"], prefix="q")
        tree = downward_tree(
            {"b": "a", "c": "b", "d": "b"}, labels={"b": "R", "c": "S", "d": "S"}
        )
        instance = ProbabilisticGraph.with_uniform_probability(tree, Fraction(1, 2))
        solver = PHomSolver(precision="approx", seed=1)
        result = solver.solve(query, instance)
        assert result.method != "karp-luby"
        exact = float(phom_probability(query, instance))
        assert result.probability == pytest.approx(exact, abs=1e-12)

    def test_approx_respects_disabled_brute_force(self, workload):
        solver = PHomSolver(
            allow_brute_force=False, precision="approx", epsilon=0.2, delta=0.2, seed=5
        )
        result = solver.solve(workload.query, workload.instance)
        assert result.method == "karp-luby"
        # The same solver cannot answer exactly...
        exact_solver = PHomSolver(allow_brute_force=False)
        with pytest.raises(ClassConstraintError):
            exact_solver.solve(workload.query, workload.instance)

    def test_exact_call_after_cached_approx_plan_still_raises(self, workload):
        solver = PHomSolver(allow_brute_force=False, epsilon=0.2, delta=0.2, seed=5)
        with pytest.raises(ClassConstraintError):
            solver.compile(workload.query, workload.instance)
        result = solver.solve(workload.query, workload.instance, precision="approx")
        assert result.method == "karp-luby"
        # The cached FallbackPlan must not leak into non-sampling calls:
        # identical calls behave the same on a warm cache as on a cold one.
        with pytest.raises(ClassConstraintError):
            solver.solve(workload.query, workload.instance)
        with pytest.raises(ClassConstraintError):
            solver.compile(workload.query, workload.instance)

    def test_solve_many_in_approx_mode(self, workload, exact):
        solver = PHomSolver(precision="approx", epsilon=0.1, delta=0.05, seed=31)
        results = solver.solve_many([workload.query, workload.query], workload.instance)
        assert [r.method for r in results] == ["karp-luby", "karp-luby"]
        assert results[0].probability == results[1].probability

    def test_explicit_sampling_methods(self, workload, exact):
        solver = PHomSolver(epsilon=0.1, delta=0.05, seed=8)
        kl = solver.solve(workload.query, workload.instance, method="karp-luby")
        mc = solver.solve(workload.query, workload.instance, method="monte-carlo-worlds")
        assert abs(kl.probability - exact) <= 0.1 * exact
        assert abs(mc.probability - exact) <= 0.1  # additive contract
        assert kl.notes and "seed=8" in kl.notes
        assert "karp-luby" in PHomSolver.available_methods()
        assert "monte-carlo-worlds" in PHomSolver.available_methods()

    def test_explicit_karp_luby_reuses_the_cached_lineage(self, workload):
        solver = PHomSolver(epsilon=0.2, delta=0.2, seed=8)
        solver.solve(workload.query, workload.instance, method="karp-luby")
        solver.solve(workload.query, workload.instance, method="karp-luby")
        stats = solver.plan_cache.stats
        # One compile (the match lineage is enumerated once), then hits.
        assert stats["compiles"] == 1
        assert stats["hits"] >= 1

    def test_phom_probability_passthrough(self, workload, exact):
        value = phom_probability(
            workload.query,
            workload.instance,
            precision="approx",
            epsilon=0.1,
            delta=0.05,
            seed=77,
        )
        assert abs(value - exact) <= 0.1 * exact


class TestFallbackPlanSampling:
    @pytest.fixture(scope="class")
    def compiled(self):
        workload = intractable_workload(8, rng=23)
        solver = PHomSolver(precision="approx", seed=41)
        plan = solver.compile(workload.query, workload.instance)
        assert isinstance(plan, FallbackPlan)
        return workload, plan

    def test_lineage_is_memoised(self, compiled):
        _workload, plan = compiled
        assert plan.lineage() is plan.lineage()
        # The sampler's structural ordering is memoised on the formula too,
        # so repeated estimates only pay weights + sampling.
        assert plan.lineage().indexed_clauses() is plan.lineage().indexed_clauses()

    def test_indexed_clauses_invalidated_on_mutation(self):
        dnf = PositiveDNF([["a", "b"]])
        variables, clauses = dnf.indexed_clauses()
        assert variables == ("a", "b") and clauses == ((0, 1),)
        dnf.add_clause(["c"])
        assert dnf.indexed_clauses() == (("a", "b", "c"), ((0, 1), (2,)))

    def test_estimate_matches_brute_force(self, compiled):
        workload, plan = compiled
        with pytest.warns(Warning):
            exact = float(
                phom_probability(workload.query, workload.instance, precision="float")
            )
        estimate = plan.estimate(params=ApproxParams(epsilon=0.1, delta=0.05, seed=6))
        assert abs(estimate.value - exact) <= 0.1 * exact

    def test_estimate_accepts_override_tables(self, compiled):
        workload, plan = compiled
        edge = workload.instance.uncertain_edges()[0]
        estimate = plan.estimate(
            probabilities={edge: 0},
            params=ApproxParams(epsilon=0.1, delta=0.05, seed=6),
        )
        # Mirror the override on a fresh instance and compare exactly.
        mirror = ProbabilisticGraph(
            workload.instance.graph, workload.instance.probabilities()
        )
        mirror.set_probability(edge, 0)
        with pytest.warns(Warning):
            exact = float(phom_probability(workload.query, mirror, precision="float"))
        assert abs(estimate.value - exact) <= max(0.1 * exact, 1e-9)

    def test_estimate_is_the_one_sampling_entry(self, compiled):
        # evaluate() never samples: it takes no approx parameter, and its
        # override error points to estimate(), whose seed pins the value.
        _workload, plan = compiled
        assert "approx" not in inspect.signature(plan.evaluate).parameters
        with pytest.raises(PlanError, match=r"plan\.estimate\(") as caught:
            plan.evaluate(probabilities={})
        assert "approx" not in str(caught.value)
        params = ApproxParams(epsilon=0.1, delta=0.05, seed=13)
        assert plan.estimate(params=params).value == plan.estimate(params=params).value

    def test_no_brute_force_plan_refuses_exact_evaluate_but_samples(self):
        # A solver with brute force disabled still compiles fallback plans in
        # approx mode — but their exact evaluate() must keep refusing to
        # enumerate, on the direct compile()+evaluate() path too.
        workload = intractable_workload(8, rng=23)
        solver = PHomSolver(allow_brute_force=False, precision="approx", seed=41)
        plan = solver.compile(workload.query, workload.instance)
        assert isinstance(plan, FallbackPlan)
        with pytest.raises(ClassConstraintError, match=r"plan\.estimate\(") as caught:
            plan.evaluate()
        assert "approx" not in str(caught.value)
        params = ApproxParams(epsilon=0.2, delta=0.2, seed=41)
        assert 0.0 <= plan.estimate(params=params).value <= 1.0
