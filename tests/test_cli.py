"""Unit tests for the command-line interface."""

from __future__ import annotations

import io

import pytest

from repro.cli import main
from repro.core.solver import PHomSolver
from repro.graphs.builders import one_way_path, star_tree
from repro.graphs.digraph import DiGraph
from repro.graphs.serialization import save_graph
from repro.persist import PlanStore
from repro.probability.prob_graph import ProbabilisticGraph


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


class TestTablesCommand:
    def test_tables_prints_all_three(self):
        code, out, _err = run_cli(["tables"])
        assert code == 0
        assert "Table 1" in out and "Table 2" in out and "Table 3" in out
        assert out.count("PTIME") + out.count("#P-hard") == 75


class TestClassifyCommand:
    def test_classify_known_cells(self):
        code, out, _err = run_cli(
            ["classify", "--query-class", "1WP", "--instance-class", "DWT", "--setting", "labeled"]
        )
        assert code == 0
        assert "PTIME" in out and "4.10" in out

        code, out, _err = run_cli(
            ["classify", "--query-class", "2wp", "--instance-class", "pt", "--setting", "unlabeled"]
        )
        assert code == 0
        assert "#P-hard" in out and "5.6" in out

    def test_unknown_class_is_rejected(self):
        with pytest.raises(SystemExit):
            run_cli(["classify", "--query-class", "hypercube", "--instance-class", "DWT"])


class TestSolveCommand:
    @pytest.fixture
    def files(self, tmp_path):
        query = one_way_path(["R", "S"], prefix="q")
        instance = ProbabilisticGraph(
            star_tree(1, label="R"), {("s0", "s1"): "1/2"}
        )
        # Extend the star into a small DWT with an S edge below.
        graph = instance.graph.copy()
        graph.add_edge("s1", "s2", "S")
        instance = ProbabilisticGraph(graph, {("s0", "s1"): "1/2", ("s1", "s2"): "1/4"})
        query_path = tmp_path / "query.json"
        instance_path = tmp_path / "instance.json"
        save_graph(query, str(query_path))
        save_graph(instance, str(instance_path))
        return str(query_path), str(instance_path)

    def test_solve_reports_probability_and_method(self, files):
        query_path, instance_path = files
        code, out, _err = run_cli(["solve", query_path, instance_path])
        assert code == 0
        assert "probability = 1/8" in out
        assert "labeled-dwt" in out or "connected-2wp" in out

    def test_solve_with_explicit_method(self, files):
        query_path, instance_path = files
        code, out, _err = run_cli(["solve", query_path, instance_path, "--method", "brute-force-worlds"])
        assert code == 0
        assert "probability = 1/8" in out

    def test_solve_prefers_flavour(self, files):
        query_path, instance_path = files
        code, out, _err = run_cli(["solve", query_path, instance_path, "--prefer", "lineage"])
        assert code == 0
        assert "probability = 1/8" in out

    def test_solve_unknown_method_fails_cleanly(self, files):
        query_path, instance_path = files
        code, _out, err = run_cli(["solve", query_path, instance_path, "--method", "sorcery"])
        assert code == 1
        assert "error" in err

    def test_solve_missing_file_fails_cleanly(self, tmp_path, files):
        query_path, _instance_path = files
        code, _out, err = run_cli(["solve", query_path, str(tmp_path / "missing.json")])
        assert code == 2
        assert "could not load" in err

    def test_solve_float_precision(self, files):
        query_path, instance_path = files
        code, out, _err = run_cli(["solve", query_path, instance_path, "--precision", "float"])
        assert code == 0
        assert "probability = 0.125" in out


class TestBenchCommand:
    def test_bench_smoke_without_writing(self):
        code, out, _err = run_cli(["bench", "query", "--smoke", "--output", "-"])
        assert code == 0
        assert "query frontend benchmark" in out
        assert "parse 2WP (3 atoms)" in out
        assert "report written" not in out

    def test_bench_writes_report(self, tmp_path):
        target = tmp_path / "bench.json"
        code, out, _err = run_cli(["bench", "query", "--smoke", "--output", str(target)])
        assert code == 0
        assert f"report written to {target}" in out
        import json

        report = json.loads(target.read_text())
        assert report["suite"] == "query"
        assert [row["shape"] for row in report["parse_fast_path"]] == ["2WP", "DWT", "1WP"]
        assert all(row["exact_equal"] for row in report["minimization"])

    def test_bench_requires_a_suite(self):
        with pytest.raises(SystemExit) as exit_info:
            run_cli(["bench", "--smoke", "--output", "-"])
        assert exit_info.value.code == 2

    def test_failed_gate_prints_the_report_and_writes_no_file(self, tmp_path):
        target = tmp_path / "query.json"
        for output in ("-", str(target)):
            code, out, err = run_cli(
                ["bench", "query", "--smoke", "--min-core-speedup", "1e9", "--output", output]
            )
            assert code == 1
            assert "query frontend benchmark" in out and "core 2WP" in out
            assert "below the required" in err
            assert "report written" not in out
        assert not target.exists()

    def test_parse_gate_fails_below_its_speedup(self):
        code, out, err = run_cli(
            ["bench", "query", "--smoke", "--min-parse-speedup", "1e9", "--output", "-"]
        )
        assert code == 1
        assert "parse 2WP (3 atoms)" in out and "parse 1WP (12 atoms)" in out
        assert "faster than the recursive-descent parser, below the required" in err


class TestStoreCommand:
    def test_inspect_says_which_plans_carry_a_tape(self, tmp_path):
        # A solve stores its plan without a tape, so after a warm restart
        # that plan answers by the direct pass; compile stores it lowered.
        graph = DiGraph(edges=[("a", "b", "R"), ("b", "c", "S"), ("c", "d", "R")])
        instance = ProbabilisticGraph(
            graph, {("a", "b"): "1/2", ("b", "c"): "1/3", ("c", "d"): "2/5"}
        )
        plans = tmp_path / "state" / "plans"
        solver = PHomSolver(plan_store=str(plans))
        solver.solve(one_way_path(["R", "S"]), instance)
        solver.compile(one_way_path(["S", "R"]), instance)
        tapes = {row["digest"][:12]: row["tape"] for row in PlanStore(str(plans)).inspect()}
        assert sorted(tapes.values()) == [False, True]

        code, out, _err = run_cli(["store", "inspect", str(tmp_path / "state")])
        assert code == 0
        assert "plans: 2 entr(ies)" in out
        printed = {}
        for line in out.splitlines():
            if "method=" in line:
                digest, *fields = line.split()
                printed[digest] = dict(field.split("=", 1) for field in fields if "=" in field)
        assert {digest: row["tape"] for digest, row in printed.items()} == {
            digest: "yes" if tape else "no" for digest, tape in tapes.items()
        }


class TestApproxSolve:
    @pytest.fixture
    def hard_files(self, tmp_path):
        from repro.workloads.generators import intractable_workload

        workload = intractable_workload(8, rng=19)
        query_path = tmp_path / "query.json"
        instance_path = tmp_path / "instance.json"
        save_graph(workload.query, str(query_path))
        save_graph(workload.instance, str(instance_path))
        return workload, str(query_path), str(instance_path)

    def test_approx_solve_samples_the_hard_cell(self, hard_files):
        import warnings

        from repro.core.solver import phom_probability

        workload, query_path, instance_path = hard_files
        code, out, _err = run_cli(
            ["solve", query_path, instance_path, "--precision", "approx",
             "--epsilon", "0.1", "--delta", "0.05", "--seed", "20170514"]
        )
        assert code == 0
        assert "karp-luby" in out
        assert "sampled estimate" in out and "seed=20170514" in out
        # Brute force was NOT used.
        assert "brute force was used" not in out
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            exact = float(phom_probability(workload.query, workload.instance, precision="float"))
        reported = float(out.splitlines()[0].split("(")[1].rstrip(")"))
        assert abs(reported - exact) <= 0.1 * exact

    def test_approx_solve_is_seed_reproducible(self, hard_files):
        _workload, query_path, instance_path = hard_files
        args = ["solve", query_path, instance_path, "--precision", "approx",
                "--epsilon", "0.2", "--delta", "0.2", "--seed", "7"]
        code_a, out_a, _ = run_cli(args)
        code_b, out_b, _ = run_cli(args)
        assert code_a == code_b == 0
        assert out_a == out_b

    def test_bad_epsilon_fails_cleanly(self, hard_files):
        _workload, query_path, instance_path = hard_files
        code, _out, err = run_cli(
            ["solve", query_path, instance_path, "--precision", "approx", "--epsilon", "1.5"]
        )
        assert code == 1
        assert "epsilon" in err


class TestBenchSamplingCommand:
    def test_bench_sampling_smoke_without_writing(self):
        code, out, _err = run_cli(
            ["bench", "sampling", "--smoke", "--output", "-",
             "--min-sampling-speedup", "1.5", "--max-epsilon-ratio", "1"]
        )
        assert code == 0
        assert "sampling benchmark" in out
        assert "accuracy curve" in out
        assert "report written" not in out

    def test_bench_sampling_writes_report(self, tmp_path):
        target = tmp_path / "sampling.json"
        code, _out, _err = run_cli(["bench", "sampling", "--smoke", "--output", str(target)])
        assert code == 0
        import json

        report = json.loads(target.read_text())
        assert report["suite"] == "sampling"
        assert all(row["within_epsilon"] for row in report["speedup"])
        assert report["accuracy_curve"]["points"]

    def test_bench_sampling_threshold_failure(self):
        code, _out, err = run_cli(
            ["bench", "sampling", "--smoke", "--output", "-",
             "--min-sampling-speedup", "1e9"]
        )
        assert code == 1
        assert "speedup" in err
