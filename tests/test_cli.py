"""Command-line front end: outputs, exit codes, determinism."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from socenv import analysis
from socenv.cli import EXIT_OK, EXIT_SOLVER, EXIT_USAGE, build_parser, main
from socenv.nlp import MAX_ITERS

DEFAULT_CONFIG = str(Path(__file__).resolve().parents[1] / "configs" / "avp_default.yaml")


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestNodes:
    def test_three_node_grid(self, capsys):
        code, out, _ = run(capsys, ["nodes", "--nodes", "3"])
        assert code == EXIT_OK
        lines = out.strip().split("\n")
        assert lines[0] == "tau,weight"
        assert len(lines) == 5   # header + 3 nodes + weight sum
        taus = [float(l.split(",")[0]) for l in lines[1:4]]
        ws = [float(l.split(",")[1]) for l in lines[1:4]]
        np.testing.assert_allclose(taus, [-1.0, 0.0, 1.0], atol=1e-14)
        np.testing.assert_allclose(ws, [1 / 3, 4 / 3, 1 / 3], atol=1e-14)
        assert lines[4].startswith("sum,")
        assert float(lines[4].split(",")[1]) == pytest.approx(2.0, abs=1e-12)

    def test_too_few_nodes_is_usage_error(self, capsys):
        code, _, err = run(capsys, ["nodes", "--nodes", "1"])
        assert code == EXIT_USAGE
        assert "nodes" in err

    def test_writes_to_file(self, capsys, tmp_path):
        path = tmp_path / "grid.csv"
        code, out, _ = run(capsys, ["nodes", "--nodes", "4", "--out", str(path)])
        assert code == EXIT_OK
        assert out == ""
        assert path.read_text().startswith("tau,weight")


class TestEnvelopeDemo:
    def test_gaps_are_nonnegative(self, capsys):
        code, out, _ = run(capsys, ["envelope-demo", "--degree", "4",
                                    "--count", "20", "--seed", "1"])
        assert code == EXIT_OK
        lines = out.strip().split("\n")
        assert lines[0] == "spline,true_min,true_max,bound_min,bound_max,gap_min,gap_max"
        assert len(lines) == 21
        for line in lines[1:]:
            vals = [float(v) for v in line.split(",")]
            assert vals[5] >= -1e-9 and vals[6] >= -1e-9

    def test_degree_one_gap_is_zero(self, capsys):
        code, out, _ = run(capsys, ["envelope-demo", "--degree", "1",
                                    "--count", "10"])
        assert code == EXIT_OK
        for line in out.strip().split("\n")[1:]:
            vals = [float(v) for v in line.split(",")]
            assert abs(vals[5]) < 1e-12 and abs(vals[6]) < 1e-12

    def test_seeded_runs_identical(self, capsys):
        _, a, _ = run(capsys, ["envelope-demo", "--degree", "3", "--seed", "7"])
        _, b, _ = run(capsys, ["envelope-demo", "--degree", "3", "--seed", "7"])
        assert a == b
        _, c, _ = run(capsys, ["envelope-demo", "--degree", "3", "--seed", "8"])
        assert a != c

    def test_missing_degree_is_usage_error(self, capsys):
        code, _, _ = run(capsys, ["envelope-demo", "--degree", "0"])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("count", ["0", "-5"])
    def test_count_below_one_is_usage_error(self, capsys, count):
        code, out, err = run(capsys, ["envelope-demo", "--degree", "3", "--count", count])
        assert code == EXIT_USAGE
        assert out == "" and "--count" in err and "at least 1" in err


class TestSolve:
    def test_academic_socse(self, capsys):
        code, out, _ = run(capsys, ["solve", "--problem", "academic"])   # SOCSE-8 by default
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["report"]["status"] == "converged"
        assert payload["method"] == "SOCSE-8"
        assert payload["max_violation"] <= 1e-6
        assert np.shape(payload["alpha_x"]) == (9, 1)   # (M+1, n_x)
        assert np.shape(payload["alpha_u"]) == (9, 1)
        # Dense samples respect the box up to the scan tolerance.
        U = np.array(payload["u"])
        assert np.all(U >= -0.3 - 1e-6) and np.all(U <= -0.1 + 1e-6)

    def test_multiple_shooting_payload(self, capsys):
        code, out, _ = run(capsys, ["solve", "--problem", "academic",
                                    "--method", "MS-10"])
        assert code == EXIT_OK
        payload = json.loads(out)
        assert "alpha_x" not in payload
        assert len(payload["t"]) == 11

    def test_unknown_problem_is_usage_error(self, capsys):
        code, _, _ = run(capsys, ["solve", "--problem", "pendulum"])
        assert code == EXIT_USAGE

    def test_bad_method_label_is_usage_error(self, capsys):
        code, _, err = run(capsys, ["solve", "--problem", "academic",
                                    "--method", "WARP-9"])
        assert code == EXIT_USAGE
        assert "error" in err

    def test_solver_failure_exit_code(self, capsys):
        code, out, _ = run(capsys, ["solve", "--problem", "academic",
                                    "--method", "MS-10", "--max-iters", "1"])
        assert code == EXIT_SOLVER
        assert json.loads(out)["report"]["status"] != "converged"

    def test_avp_runtime_loads_neither_sympy_nor_scipy_optimize(self):
        """The CLI and every AVP model function run on the generated model, and
        only the reference solve needs scipy.optimize."""
        script = "\n".join([
            "import sys",
            "import numpy as np",
            "import socenv.cli",
            "from socenv.vehicle import avp_problem",
            "ocp = avp_problem()",
            "u = np.zeros(ocp.n_u)",
            "ocp.dynamics(ocp.x0, u)",
            "for jac in ocp.dynamics_jacobians:",
            "    jac(ocp.x0, u)",
            "ocp.dynamics_hessian(ocp.x0, u, np.ones(ocp.n_x))",
            "print(sorted(m for m in ('sympy', 'scipy.optimize') if m in sys.modules))",
        ])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=60, check=True)
        assert done.stdout.strip() == "[]"

    @pytest.mark.parametrize("argv", [
        ["solve", "--problem", "academic", "--method", "SOCSE-3"],
        ["bench", "--problem", "academic", "--method", "SOCSE-3", "--skip-reference"],
    ], ids=["solve", "bench"])
    def test_first_timed_solve_excludes_the_linalg_import(self, argv):
        """In a fresh process scipy.linalg is loaded before the first solve
        starts its clock, so ``wall_time`` does not count the import."""
        script = "\n".join([
            "import contextlib, io, sys",
            "from socenv import analysis",
            "from socenv.cli import main",
            "loaded = []",
            "solve_sqp = analysis.solve_sqp",
            "def recording(*args, **kwargs):",
            "    loaded.append('scipy.linalg' in sys.modules)",
            "    return solve_sqp(*args, **kwargs)",
            "analysis.solve_sqp = recording",
            "with contextlib.redirect_stdout(io.StringIO()):",
            f"    code = main({argv!r})",
            "print(code, loaded)",
        ])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=60, check=True)
        assert done.stdout.strip() == f"{EXIT_OK} [True]"

    def test_avp_default_config(self, capsys):
        code, out, _ = run(capsys, ["solve", "--problem", "avp", "--config", DEFAULT_CONFIG,
                                    "--method", "SOC-3"])
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["report"]["status"] == "converged"
        assert payload["config"]["config"] == DEFAULT_CONFIG


class TestBench:
    def test_academic_subset_csv(self, capsys):
        code, out, _ = run(capsys, ["bench", "--problem", "academic",
                                    "--method", "SOCSE-5,MS-4"])
        assert code == EXIT_OK
        lines = out.strip().split("\n")
        assert lines[0] == "method,solve_time_s,cost_dev_pct,ode_err,max_violation,ctrl_dev"
        assert lines[1].startswith("SOCSE-5,") and lines[2].startswith("MS-4,")

    def test_json_format_echoes_config(self, capsys):
        code, out, _ = run(capsys, ["bench", "--problem", "academic",
                                    "--method", "SOCSE-5", "--format", "json"])
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["config"]["problem"] == "academic"
        assert payload["config"]["skip_reference"] is False
        assert payload["rows"][0]["method"] == "SOCSE-5"

    def test_skip_reference(self, capsys, monkeypatch):
        def no_reference(*args, **kwargs):
            raise AssertionError("reference solved despite --skip-reference")
        monkeypatch.setattr(analysis, "quasi_optimal_reference", no_reference)
        code, out, _ = run(capsys, ["bench", "--problem", "academic", "--method", "MS-4",
                                    "--skip-reference", "--format", "json"])
        assert code == EXIT_OK

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")
        row = json.loads(out, parse_constant=reject)["rows"][0]
        assert row["status"] == "converged"
        assert row["cost_dev_pct"] is None and row["ctrl_dev"] is None
        assert math.isfinite(row["ode_err"])

    def test_bad_method_list_is_usage_error(self, capsys):
        code, _, _ = run(capsys, ["bench", "--problem", "academic",
                                  "--method", "SOCSE-5,NOPE-2"])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("methods", [",", "", " , "])
    def test_method_list_naming_no_method_is_usage_error(self, capsys, methods):
        code, out, err = run(capsys, ["bench", "--problem", "academic", "--method", methods])
        assert code == EXIT_USAGE
        assert out == "" and "names no method" in err


class TestParser:
    def test_missing_subcommand_is_usage_error(self, capsys):
        assert main([]) == EXIT_USAGE

    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["nodes", "--nodes", "3", "--frobnicate"]) == EXIT_USAGE

    def test_help_exits_cleanly(self, capsys):
        assert main(["--help"]) == EXIT_OK

    def test_max_iters_default_is_the_solver_default(self):
        parser = build_parser()
        for sub in ("solve", "bench"):
            ns = parser.parse_args([sub, "--problem", "academic"])
            assert ns.max_iters == MAX_ITERS

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_max_iters_below_one_is_usage_error(self, capsys, value):
        for sub in ("solve", "bench"):
            code, out, err = run(capsys, [sub, "--problem", "academic", "--method", "SOCSE-5",
                                          "--max-iters", value])
            assert code == EXIT_USAGE
            assert out == "" and "--max-iters" in err and "at least 1" in err

    @pytest.mark.parametrize("argv", [
        ["solve", "--problem", "academic", "--format", "csv"],
        ["nodes", "--nodes", "3", "--max-iters", "5"],
        ["nodes", "--nodes", "3", "--seed", "1"],
        ["envelope-demo", "--degree", "3", "--config", DEFAULT_CONFIG],
        ["solve", "--problem", "academic", "--degree", "5"],
    ])
    def test_options_of_other_subcommands_are_unknown(self, capsys, argv):
        assert main(argv) == EXIT_USAGE

    @pytest.mark.parametrize("argv", [
        ["envelope-demo", "--degree", "3"],
        ["solve", "--problem", "academic"],
        ["bench", "--problem", "academic", "--method", "SOCSE-5"],
    ])
    def test_too_few_samples_is_usage_error(self, capsys, argv):
        code, _, err = run(capsys, argv + ["--samples", "10"])
        assert code == EXIT_USAGE
        assert "samples" in err


class TestConfig:
    def test_config_with_academic_is_usage_error(self, capsys):
        code, _, err = run(capsys, ["solve", "--problem", "academic",
                                    "--config", DEFAULT_CONFIG])
        assert code == EXIT_USAGE
        assert "--config" in err

    @pytest.mark.parametrize("text, fragment", [
        pytest.param(text, fragment, id=text) for text, fragment in [
            ("vehicle: {}\nsolver: {max_iters: 400}\n", "unknown"),
            ("problem: {tf: 2.0, x0: [1.0, 0.0]}\n", "unknown"),
            ("vehicle: {warp_drive: 1}\n", "unknown"),
            ("vehicle: 5\n", "'vehicle' must be a mapping"),
            ("problem: 5\n", "'problem' must be a mapping"),
            ("vehicle: {mass: null}\n", "'mass' must be a number"),
            ("vehicle: {mass: [1200]}\n", "'mass' must be a number"),
            ("problem: {tf: null}\n", "'tf' must be a number"),
            ("vehicle: {q_diag: [1, 1, 1, 1, 1, 1, 1, 1, 1, 1], Q: [[1.0]]}\n",
             "both q_diag and Q"),
            ("vehicle: {r_diag: [1, 1], R: [[1, 0], [0, 1]]}\n", "both r_diag and R"),
            ("vehicle: {mass: .nan}\n", "mass must be finite"),
            ("vehicle: {mass: .inf}\n", "mass must be finite"),
            ("vehicle: {drag_coeff: .nan}\n", "drag_coeff must be finite"),
            ("vehicle: {s_target: -.inf}\n", "s_target must be finite"),
            ("vehicle: {q_diag: [1, 1, 1, 1, .nan, 1, 1, 1, 1, 1]}\n", "Q must have finite"),
            ("vehicle: {r_diag: [1, .inf]}\n", "R must have finite"),
            ("problem: {tf: .inf}\n", "tf must be finite"),
            ("problem: {t0: -.inf}\n", "t0 must be finite"),
        ]])
    def test_bad_config_is_usage_error(self, capsys, tmp_path, text, fragment):
        path = tmp_path / "bad.yaml"
        path.write_text(text)
        for sub in ("solve", "bench"):
            code, out, err = run(capsys, [sub, "--problem", "avp", "--method", "SOC-3",
                                          "--config", str(path)])
            assert code == EXIT_USAGE
            assert out == "" and fragment in err
