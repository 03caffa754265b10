"""Reference oracles, rollout/violation metrics and benchmark table plumbing."""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from socenv.analysis import (BenchmarkRow, ReferenceTrajectory, _rollout,
                             dense_violation_scan, ode_rollout_error,
                             parse_method, quasi_optimal_reference,
                             rows_to_csv, rows_to_json, run_benchmark,
                             solve_method, trajectory_cost)
from socenv.envelope import envelope_matrix
from socenv.integrators import rk4_step_timed
from socenv.ocp import OcpProblem, academic_problem
from socenv.polynomial import TimeMap, basis_matrix, lgl_grid, spline_samples
from socenv.transcription import SplineSolution
from socenv.vehicle import avp_problem


def lq_unconstrained():
    """Academic dynamics/cost with the boxes widened far past activity."""
    base = academic_problem()
    return OcpProblem(
        n_x=1, n_u=1, dynamics=base.dynamics, stage_cost=base.stage_cost,
        x_lower=np.array([-50.0]), x_upper=np.array([50.0]),
        u_lower=np.array([-50.0]), u_upper=np.array([50.0]),
        x0=np.array([1.0]), t0=0.0, tf=1.0,
        dynamics_jacobians=base.dynamics_jacobians,
        dynamics_hessian=base.dynamics_hessian,
        stage_cost_grad=base.stage_cost_grad,
        stage_cost_hess=base.stage_cost_hess,
    )


def integrator_problem(x0):
    """xdot = u with a zero stage cost, on wide boxes."""
    return OcpProblem(
        n_x=1, n_u=1, dynamics=lambda x, u: np.array([u[0]]),
        dynamics_jacobians=(lambda x, u: np.zeros((1, 1)), lambda x, u: np.ones((1, 1))),
        dynamics_hessian=lambda x, u, mult: np.zeros((2, 2)),
        stage_cost=lambda x, u: 0.0,
        stage_cost_grad=lambda x, u: (np.zeros(1), np.zeros(1)),
        stage_cost_hess=lambda x, u: (np.zeros((1, 1)), np.zeros((1, 1)), np.zeros((1, 1))),
        x_lower=np.array([-100.0]), x_upper=np.array([100.0]),
        u_lower=np.array([-100.0]), u_upper=np.array([100.0]),
        x0=np.array([x0]), t0=0.0, tf=1.0,
    )


def riccati_oracle():
    """Scalar finite-horizon LQR value function for the widened problem.

    For xdot = -x + u and cost (1/2) int (x^2 + u^2) dt on [0, 1] the value is
    (1/2) P(0) x0^2 with dP/ds = 1 - 2P - P^2, P(s=0) = 0, s = tf - t;
    integrated here by an independent adaptive ODE solver.
    """
    sol = solve_ivp(lambda s, p: 1.0 - 2.0 * p - p * p, (0.0, 1.0), [0.0],
                    rtol=1e-12, atol=1e-14, dense_output=True)
    return sol.sol


def fit_spline(fun, M, time_map):
    """Legendre coefficients interpolating ``fun(t)`` at the LGL nodes."""
    basis = basis_matrix(M)
    taus = lgl_grid(M + 1).nodes
    V = np.vander(taus, M + 1, increasing=True) @ basis.L.T
    vals = np.array([fun(time_map.t0 + time_map.scale() * (tau + 1.0)) for tau in taus])
    return np.linalg.solve(V, vals)[:, None]


def per_step_rollout_error(sol, ocp, dt):
    """The rollout metric with the splines sampled one point per call, on the same grid."""
    n = int(round((ocp.tf - ocp.t0) / dt))
    ts = np.minimum(ocp.t0 + 0.5 * dt * np.arange(2 * n + 1), ocp.tf)
    x = ocp.x0.copy()
    err = 0.0
    for k in range(n):
        u0, um, u1 = (sol.u_at(ts[j])[0] for j in (2 * k, 2 * k + 1, 2 * k + 2))
        x = rk4_step_timed(ocp.dynamics, x, u0, um, u1, dt)
        err = max(err, float(np.max(np.abs(x - sol.x_at(ts[2 * k + 2])[0]))))
    return err


def make_solution(alpha_x, alpha_u, M, time_map):
    basis = basis_matrix(M)
    return SplineSolution(
        alpha_x=alpha_x, alpha_u=alpha_u, time_map=time_map, basis=basis,
        env=envelope_matrix(M, basis), objective=0.0)


class TestTrajectoryCost:
    def test_polynomial_integral_exact(self):
        ocp = lq_unconstrained()
        # x(t) = t, u(t) = 0: (1/2) int t^2 = 1/6.
        cost = trajectory_cost(ocp,
                               lambda ts: np.asarray(ts)[:, None],
                               lambda ts: np.zeros((np.asarray(ts).size, 1)))
        assert cost == pytest.approx(1.0 / 6.0, abs=1e-12)

    def test_terminal_cost_added_unscaled(self):
        base = lq_unconstrained()
        ocp = OcpProblem(
            n_x=1, n_u=1, dynamics=base.dynamics,
            dynamics_jacobians=base.dynamics_jacobians,
            dynamics_hessian=base.dynamics_hessian,
            stage_cost=lambda x, u: 0.0,
            stage_cost_grad=lambda x, u: (np.zeros(1), np.zeros(1)),
            stage_cost_hess=lambda x, u: (np.zeros((1, 1)), np.zeros((1, 1)), np.zeros((1, 1))),
            x_lower=base.x_lower, x_upper=base.x_upper,
            u_lower=base.u_lower, u_upper=base.u_upper,
            x0=base.x0, t0=0.0, tf=1.0,
            terminal_cost=lambda x: float(x[0] ** 2),
            terminal_cost_grad=lambda x: np.array([2.0 * x[0]]),
            terminal_cost_hess=lambda x: np.array([[2.0]]),
        )
        cost = trajectory_cost(ocp, lambda ts: 3.0 * np.ones((np.asarray(ts).size, 1)),
                               lambda ts: np.zeros((np.asarray(ts).size, 1)))
        assert cost == pytest.approx(9.0, abs=1e-12)


class TestRolloutError:
    def test_exact_for_polynomial_control_integrator(self):
        """xdot = u with u a quadratic spline: RK4 reproduces the cubic state."""
        ocp = integrator_problem(0.3)
        tm = TimeMap(0.0, 1.0)
        u_fun = lambda t: 1.5 * t ** 2 - 0.4
        x_fun = lambda t: 0.3 + 0.5 * t ** 3 - 0.4 * t
        sol = make_solution(fit_spline(x_fun, 3, tm), fit_spline(u_fun, 3, tm), 3, tm)
        assert ode_rollout_error(sol, ocp, dt=1e-3) <= 1e-9

    def test_detects_inconsistent_pair(self):
        ocp = integrator_problem(0.0)
        tm = TimeMap(0.0, 1.0)
        sol = make_solution(fit_spline(lambda t: t, 3, tm),      # claims x = t
                            fit_spline(lambda t: 0.0 * t, 3, tm),  # but u = 0
                            3, tm)
        assert ode_rollout_error(sol, ocp, dt=1e-3) == pytest.approx(1.0, abs=1e-9)

    def test_rejects_coarse_step(self):
        ocp = lq_unconstrained()
        tm = TimeMap(0.0, 1.0)
        sol = make_solution(np.ones((4, 1)), np.zeros((4, 1)), 3, tm)
        with pytest.raises(ValueError):
            ode_rollout_error(sol, ocp, dt=0.01)

    @pytest.mark.parametrize("problem, method", [(academic_problem, "SOCSE-5"),
                                                 (avp_problem, "SOCSE-3")])
    def test_equals_a_per_step_rollout(self, problem, method):
        """Sampling the splines in two calls gives bitwise the per-point result."""
        ocp = problem()
        _, sol, _, _ = solve_method(ocp, method)
        assert ode_rollout_error(sol, ocp, dt=1e-3) == per_step_rollout_error(sol, ocp, 1e-3)

    def test_last_stage_time_clamps_at_tf(self):
        """With dt not dividing the horizon, the step grid overshoots tf and clamps."""
        ocp = integrator_problem(0.0)
        tm = TimeMap(0.0, 1.0)
        sol = make_solution(fit_spline(lambda t: t, 3, tm), fit_spline(lambda t: 1.0 + 0.0 * t, 3, tm),
                            3, tm)
        seen = {}

        def recording(name):
            at = getattr(sol, name)

            def sample(t):
                seen[name] = np.asarray(t)
                return at(t)
            return sample

        sol.x_at, sol.u_at = recording("x_at"), recording("u_at")
        dt = 6.7e-4   # 1 / dt = 1492.5..., so n = 1493 steps end at 1.00031
        # x = t and u = 1 agree up to tf; the last step overshoots the clamped state time.
        assert ode_rollout_error(sol, ocp, dt=dt) == pytest.approx(1493 * dt - 1.0, abs=1e-12)
        t_states, t_controls = seen["x_at"], seen["u_at"]
        assert t_states.size == 1493 and t_controls.size == 2 * 1493 + 1
        assert t_controls[0] == 0.0
        for ts in (t_states, t_controls):
            assert np.all(np.diff(ts) >= 0.0)
            assert ts[-1] == tm.tf and ts[-2] < tm.tf


class TestViolationScan:
    def test_reports_known_overshoot(self):
        ocp = academic_problem()   # u box is [-0.3, -0.1]
        tm = TimeMap(0.0, 1.0)
        alpha_u = np.zeros((3, 1))
        alpha_u[0, 0] = -0.05      # constant control above the upper bound
        alpha_x = np.zeros((3, 1))
        alpha_x[0, 0] = 0.5
        scan = dense_violation_scan(make_solution(alpha_x, alpha_u, 2, tm), ocp)
        assert scan["u"][0] == pytest.approx(0.05, abs=1e-12)
        assert scan["x"][0] == pytest.approx(0.0, abs=1e-12)
        assert scan["max"] == pytest.approx(0.05, abs=1e-12)

    def test_rejects_sparse_grid(self):
        ocp = academic_problem()
        tm = TimeMap(0.0, 1.0)
        sol = make_solution(0.5 * np.eye(3, 1), -0.2 * np.eye(3, 1), 2, tm)
        with pytest.raises(ValueError):
            dense_violation_scan(sol, ocp, samples=10)


class TestQuasiOptimalReference:
    def test_matches_riccati_oracle(self):
        ocp = lq_unconstrained()
        ref = quasi_optimal_reference(ocp)
        P = riccati_oracle()
        j_star = 0.5 * float(P(1.0)[0])
        assert ref.cost == pytest.approx(j_star, rel=2e-5)
        # Controls follow the LQR law u(t) = -P(tf - t) x(t).
        ts = ref.times[:-1] + 0.5 * np.diff(ref.times)
        u_star = -np.array([float(P(1.0 - t)[0]) for t in ts]) * ref.x_at(ts)[:, 0]
        assert np.max(np.abs(ref.controls[:, 0] - u_star)) < 2e-3

    def test_interpolants_hit_nodes(self):
        times = np.linspace(0.0, 1.0, 5)
        states = np.arange(5, dtype=float)[:, None]
        controls = np.arange(4, dtype=float)[:, None]
        ref = ReferenceTrajectory(times, states, controls, 0.0, 0.0, 0)
        np.testing.assert_allclose(ref.x_at(times)[:, 0], states[:, 0], atol=1e-14)
        np.testing.assert_allclose(ref.u_at(np.array([0.1, 0.3, 0.9]))[:, 0],
                                   [0.0, 1.0, 3.0], atol=0.0)


def cheap_reference(ocp, u_const=-0.2, K=1000):
    """Feasible (not optimal) fine-grid trajectory usable as a comparison base."""
    U = np.full((K, ocp.n_u), u_const)
    X = _rollout(ocp, U, K, 1)
    times = np.linspace(ocp.t0, ocp.tf, K + 1)
    ref = ReferenceTrajectory(times, X, U, 0.0, 0.0, 0)
    ref.cost = trajectory_cost(ocp, ref.x_at, ref.u_at)
    return ref


class TestBenchmarkRunner:
    def test_collocation_and_shooting_rows(self):
        ocp = academic_problem()
        ref = cheap_reference(ocp)
        rows = run_benchmark(ocp, ["SOCSE-5", "MS-4"], samples=10000, reference=ref)
        assert [r.method for r in rows] == ["SOCSE-5", "MS-4"]
        for r in rows:
            assert r.status == "converged"
            assert math.isfinite(r.solve_time_s)
            assert math.isfinite(r.cost_dev_pct)
            assert math.isfinite(r.ode_err)
            assert r.max_violation <= 1e-6
        # The reference here is deliberately suboptimal, so both solves beat it.
        assert all(r.cost_dev_pct < 0 for r in rows)

    def test_failure_rows_are_recorded(self):
        ocp = academic_problem()
        ref = cheap_reference(ocp)
        rows = run_benchmark(ocp, ["SOCSE-1", "SOCSE-5"], samples=10000, reference=ref)
        assert rows[0].status.startswith("error:")
        assert math.isnan(rows[0].cost_dev_pct)
        assert rows[1].status == "converged"

    def test_nonconverged_row_keeps_nan_metrics(self):
        ocp = academic_problem()
        ref = cheap_reference(ocp)
        rows = run_benchmark(ocp, ["MS-4"], samples=10000, reference=ref,
                             max_iters=1)
        assert rows[0].status in ("max_iters", "line_search_failure")
        assert math.isnan(rows[0].cost_dev_pct)

    def test_solve_method_returns_spline_for_collocation(self):
        rep, sol, nlp, z = solve_method(academic_problem(), "SOCSE-5")
        assert rep.status == "converged"
        assert isinstance(sol, SplineSolution)
        assert z.shape == (nlp.n_vars,)


class TestParseMethod:
    def test_valid_labels(self):
        assert parse_method("SOCSE-8") == ("SOCSE", 8)
        assert parse_method("ms-50") == ("MS", 50)
        assert parse_method("PS-5") == ("PS", 5)

    @pytest.mark.parametrize("label", ["SOCSE", "FOO-3", "SOCSE-0", "SOCSE-x", ""])
    def test_invalid_labels(self, label):
        with pytest.raises(ValueError):
            parse_method(label)


class TestTableSerialization:
    def rows(self):
        return [
            BenchmarkRow("SOCSE-8", solve_time_s=0.0123, cost_dev_pct=0.017,
                         ode_err=1e-5, max_violation=0.0, ctrl_dev=0.014,
                         status="converged"),
            BenchmarkRow("MS-50", solve_time_s=1.5, cost_dev_pct=1.4,
                         ode_err=1e-8, max_violation=0.0, ctrl_dev=0.08,
                         status="converged"),
        ]

    def test_csv_header_and_order(self):
        text = rows_to_csv(self.rows())
        lines = text.strip().split("\n")
        assert lines[0] == "method,solve_time_s,cost_dev_pct,ode_err,max_violation,ctrl_dev"
        assert lines[1].startswith("SOCSE-8,")
        assert lines[2].startswith("MS-50,")

    def test_csv_without_time_is_reproducible(self):
        a = rows_to_csv(self.rows(), include_time=False)
        b = rows_to_csv(self.rows(), include_time=False)
        assert a == b
        assert "solve_time_s" not in a

    def test_csv_floats_round_trip(self):
        text = rows_to_csv(self.rows())
        cell = text.strip().split("\n")[1].split(",")[2]
        assert float(cell) == 0.017

    def test_json_mirror(self):
        import json
        payload = json.loads(rows_to_json(self.rows(), {"seed": 0}))
        assert payload["config"] == {"seed": 0}
        assert payload["rows"][0]["method"] == "SOCSE-8"
        assert len(payload["rows"]) == 2
