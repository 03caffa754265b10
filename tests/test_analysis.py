"""Reference oracles, rollout/violation metrics and benchmark table plumbing."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from socenv import analysis
from socenv.analysis import (KKT_EQ_RESIDUAL_TOL, KKT_STATIONARITY_TOL,
                             BenchmarkRow, ReferenceTrajectory, _box_violation, _rollout,
                             canonical_point, dense_violation_scan, ode_rollout_error,
                             parse_method, quasi_optimal_reference,
                             rows_to_csv, rows_to_json, run_benchmark,
                             solve_method, trajectory_cost)
from socenv.integrators import rk4_step_timed
from socenv.nlp import kkt_certificate, solve_sqp
from socenv.ocp import OcpProblem, academic_problem
from socenv.polynomial import TimeMap, basis_matrix, lgl_grid, spline_samples
from socenv.transcription import (CollocationConfig, SplineSolution, transcribe,
                                  transcribe_multiple_shooting)
from socenv.vehicle import avp_problem
from test_transcription import avp_point


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
    taus, _ = lgl_grid(M + 1)
    V = np.vander(taus, M + 1, increasing=True) @ basis_matrix(M).T
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
        sol = SplineSolution(fit_spline(x_fun, 3, tm), fit_spline(u_fun, 3, tm), tm)
        assert ode_rollout_error(sol, ocp, dt=1e-3) <= 1e-9

    def test_detects_inconsistent_pair(self):
        ocp = integrator_problem(0.0)
        tm = TimeMap(0.0, 1.0)
        sol = SplineSolution(fit_spline(lambda t: t, 3, tm),      # claims x = t
                             fit_spline(lambda t: 0.0 * t, 3, tm),  # but u = 0
                             tm)
        assert ode_rollout_error(sol, ocp, dt=1e-3) == pytest.approx(1.0, abs=1e-9)

    def test_rejects_coarse_step(self):
        ocp = lq_unconstrained()
        tm = TimeMap(0.0, 1.0)
        sol = SplineSolution(np.ones((4, 1)), np.zeros((4, 1)), tm)
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
        sol = SplineSolution(fit_spline(lambda t: t, 3, tm),
                             fit_spline(lambda t: 1.0 + 0.0 * t, 3, tm), tm)
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
        scan = dense_violation_scan(SplineSolution(alpha_x, alpha_u, tm), ocp)
        assert scan["u"][0] == pytest.approx(0.05, abs=1e-12)
        assert scan["x"][0] == pytest.approx(0.0, abs=1e-12)
        assert scan["max"] == pytest.approx(0.05, abs=1e-12)

    def test_equals_the_elementwise_formula_bitwise(self):
        """Reducing each channel before subtracting its bound changes no bit,
        checked on a node-only solution that leaves its box between nodes."""
        ocp = academic_problem()
        _, sol, _, _ = solve_method(ocp, "PS-5")
        scan = dense_violation_scan(sol, ocp)
        _, X, U = sol.sample_dense(10000)
        for key, V, lo, hi in (("x", X, ocp.x_lower, ocp.x_upper),
                               ("u", U, ocp.u_lower, ocp.u_upper)):
            old = np.maximum(np.maximum(np.max(V - hi, axis=0), np.max(lo - V, axis=0)), 0.0)
            assert scan[key].tobytes() == old.tobytes()
        assert scan["max"] > 1e-6

    def test_box_violation_per_channel(self):
        """Each channel's worst excess on either side, 0 inside the box, and
        nothing from an infinite bound."""
        values = np.array([[0.5, -3.0, 1e300],
                           [1.5, 2.0, -1e300]])
        lower = np.array([0.0, -1.0, -np.inf])
        upper = np.array([1.0, 4.0, np.inf])
        assert _box_violation(values, lower, upper).tolist() == [0.5, 2.0, 0.0]
        assert _box_violation(values[:1, :2], np.array([0.0, -5.0]),
                              np.array([1.0, 4.0])).tolist() == [0.0, 0.0]

    def test_rejects_sparse_grid(self):
        ocp = academic_problem()
        tm = TimeMap(0.0, 1.0)
        sol = SplineSolution(0.5 * np.eye(3, 1), -0.2 * np.eye(3, 1), tm)
        with pytest.raises(ValueError):
            dense_violation_scan(sol, ocp, samples=10)


def avp_start(seed):
    """The AVP initial state of perfbench's seed: the paper's scenario at seed 0."""
    x0 = np.zeros(10)
    if seed == 0:
        x0[0], x0[4] = 1.0, 2.99
    else:
        rng = np.random.default_rng(seed)
        x0[0] = rng.uniform(0.8, 1.2)
        x0[4] = rng.uniform(2.90, 2.99)
    return avp_problem(x0=x0)


def channel_columns(nlp, ch):
    return slice(ch * nlp.layout.rows, (ch + 1) * nlp.layout.rows)


def feasible_interval(nlp, z, ch):
    """The t for which every linear row holds at z + t P on channel ch, row by row, no tolerance."""
    d = np.zeros(nlp.n_vars)
    d[channel_columns(nlp, ch)] = nlp.free_control_direction
    t_lo, t_hi = -np.inf, np.inf
    for a, lo, hi in zip(nlp.A_ineq, nlp.ineq_lower, nlp.ineq_upper):
        s, r = float(a @ d), float(a @ z)
        if abs(s) > 1e-12:
            ends = sorted(((lo - r) / s, (hi - r) / s))
            t_lo, t_hi = max(t_lo, ends[0]), min(t_hi, ends[1])
    return t_lo, t_hi


def collocation_solve(ocp, label):
    family, M = label.split("-")
    nlp = transcribe(ocp, CollocationConfig(M=int(M), mode=family.lower()))
    z, rep = solve_sqp(nlp, np.zeros(nlp.n_vars))
    assert rep.status == "converged"
    return nlp, z, rep


class TestCanonicalPoint:
    """The control direction P that no node sees, and the one point chosen along it."""

    @pytest.mark.parametrize("mode", ["soc", "socse"])
    @pytest.mark.parametrize("M", range(3, 9))
    def test_free_direction_is_invisible(self, mode, M):
        """Along P the objective, the equality rows and the node values stay put;
        the control between the nodes does not."""
        nlp = transcribe(avp_problem(), CollocationConfig(M=M, mode=mode))
        z = avp_point(nlp, M)
        nodes, _ = lgl_grid(M)
        L = basis_matrix(M)
        lay = nlp.layout
        for ch in range(lay.n_x, lay.n_x + lay.n_u):
            zt = z.copy()
            zt[channel_columns(nlp, ch)] += 0.7 * nlp.free_control_direction
            assert nlp.objective(zt) == pytest.approx(nlp.objective(z), rel=1e-12)
            np.testing.assert_allclose(nlp.eq_fun(zt), nlp.eq_fun(z), rtol=0.0, atol=1e-12)
            au, aut = lay.decode(z)[1], lay.decode(zt)[1]
            np.testing.assert_allclose(spline_samples(aut, L, nodes),
                                       spline_samples(au, L, nodes), rtol=0.0, atol=1e-12)
            if mode == "soc":   # the linear rows are the node values
                np.testing.assert_allclose(nlp.A_ineq @ zt, nlp.A_ineq @ z, rtol=0.0, atol=1e-12)
            mid = 0.5 * (nodes[:-1] + nodes[1:])
            assert np.max(np.abs(spline_samples(aut - au, L, mid))) > 1e-3

    def test_no_free_direction_with_more_nodes_or_shooting(self):
        ocp = academic_problem()
        for nlp in (transcribe(ocp, CollocationConfig(M=5, mode="pseudospectral")),
                    transcribe_multiple_shooting(ocp, 10)):
            assert nlp.free_control_direction is None
            z = np.zeros(nlp.n_vars)
            assert canonical_point(nlp, z) is z

    @pytest.mark.parametrize("seed, label", [(0, "SOC-3"), (0, "SOC-5"), (0, "SOCSE-3"),
                                             (4, "SOCSE-3"), (0, "SOCSE-5")])
    def test_independent_of_the_solver_path(self, seed, label):
        """Start from the solver's point moved anywhere inside each channel's
        feasible interval: the canonical point is the same."""
        nlp, z, _ = collocation_solve(avp_start(seed), label)
        want = canonical_point(nlp, z)
        lay = nlp.layout
        intervals = [feasible_interval(nlp, z, ch) for ch in range(lay.n_x, lay.n_x + lay.n_u)]
        for frac in (0.1, 0.5, 0.9):
            moved = z.copy()
            for ch, (t_lo, t_hi) in zip(range(lay.n_x, lay.n_x + lay.n_u), intervals):
                lo, hi = max(t_lo, -1.0), min(t_hi, 1.0)
                moved[channel_columns(nlp, ch)] += ((1 - frac) * lo + frac * hi
                                                    ) * nlp.free_control_direction
            assert np.max(np.abs(canonical_point(nlp, moved) - want)) <= 1e-12

    @pytest.mark.parametrize("seed, label", [(0, "SOCSE-3"), (4, "SOCSE-3"), (0, "SOCSE-5"),
                                             (0, "SOCSE-8")])
    def test_canonical_solution_passes_its_checks(self, seed, label):
        """solve_method's point is canonical: envelope-feasible over the whole
        horizon, certified, and a fixed point of the move."""
        ocp = avp_start(seed)
        rep, sol, nlp, z = solve_method(ocp, label)
        assert rep.status == "converged"
        assert np.max(np.abs(canonical_point(nlp, z) - z)) <= 1e-12
        assert dense_violation_scan(sol, ocp)["max"] <= 1e-6
        cert = kkt_certificate(nlp, z, rep.lam_eq, rep.mu_lin, rep.mu_nl)
        assert cert["stationarity"] <= KKT_STATIONARITY_TOL
        assert cert["eq_residual"] <= KKT_EQ_RESIDUAL_TOL

    @pytest.mark.parametrize("problem, label", [("avp", "SOC-3"), ("avp", "SOC-5"),
                                                ("academic", "SOC-5")])
    def test_node_only_control_is_the_node_interpolant(self, problem, label):
        """No row sees P under node-only collocation, so the control's degree-M
        coefficient is zeroed."""
        ocp = avp_start(0) if problem == "avp" else academic_problem()
        _, sol, _, _ = solve_method(ocp, label)
        assert np.max(np.abs(sol.alpha_u[-1])) <= 1e-14 * np.max(np.abs(sol.alpha_u))

    @pytest.mark.parametrize("problem, label", [("academic", "SOCSE-5"),
                                                ("academic", "SOCSE-8"), ("avp", "SOCSE-8")])
    def test_pinned_channels_do_not_move(self, problem, label):
        """Active envelope rows on both sides pin every channel: the move changes no bit."""
        ocp = avp_start(0) if problem == "avp" else academic_problem()
        nlp, z, _ = collocation_solve(ocp, label)
        assert canonical_point(nlp, z).tobytes() == z.tobytes()


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

    def test_adjoint_gradient_matches_central_differences(self, monkeypatch):
        """In every augmented-Lagrangian round, the objective's adjoint gradient
        matches central differences at the round's start and at a perturbed
        point; x >= 0.3 makes the state box bind from the first round."""
        ocp = dataclasses.replace(academic_problem(), x_lower=np.array([0.3]))
        monkeypatch.setattr(analysis, "REF_INTERVALS", 40)
        rng = np.random.default_rng(0)
        minimize = analysis.minimize
        h = 1e-6
        starts = []

        def checked(fun, x0, **kwargs):
            starts.append(x0)
            for u in (x0, x0 + 0.05 * rng.standard_normal(x0.size)):
                _, grad = fun(u)
                for _ in range(3):
                    d = rng.standard_normal(u.size)
                    slope = (fun(u + h * d)[0] - fun(u - h * d)[0]) / (2.0 * h)
                    assert slope == pytest.approx(grad @ d, rel=1e-6)
            return minimize(fun, x0, **kwargs)

        monkeypatch.setattr(analysis, "minimize", checked)
        quasi_optimal_reference(ocp)
        assert len(starts) >= 3

    def test_infinite_state_bounds_add_nothing(self):
        """Infinite state bounds give bitwise the reference of far, inactive
        finite ones. The control bounds stay finite in both, because L-BFGS-B
        treats an infinite variable bound differently."""
        finite = lq_unconstrained()
        infinite = dataclasses.replace(finite, x_lower=np.array([-np.inf]),
                                       x_upper=np.array([np.inf]))
        a, b = quasi_optimal_reference(finite), quasi_optimal_reference(infinite)
        assert a.states.tobytes() == b.states.tobytes()
        assert a.controls.tobytes() == b.controls.tobytes()
        assert (a.cost, a.iterations) == (b.cost, b.iterations)

    def test_interpolants_hit_nodes(self):
        times = np.linspace(0.0, 1.0, 5)
        states = np.arange(5, dtype=float)[:, None]
        controls = np.arange(4, dtype=float)[:, None]
        ref = ReferenceTrajectory(times, states, controls, 0)
        np.testing.assert_allclose(ref.x_at(times)[:, 0], states[:, 0], atol=1e-14)
        np.testing.assert_allclose(ref.u_at(np.array([0.1, 0.3, 0.9]))[:, 0],
                                   [0.0, 1.0, 3.0], atol=0.0)


def cheap_reference(ocp, u_const=-0.2, K=1000):
    """Feasible (not optimal) fine-grid trajectory usable as a comparison base."""
    U = np.full((K, ocp.n_u), u_const)
    X = _rollout(ocp, U, K, 1)
    times = np.linspace(ocp.t0, ocp.tf, K + 1)
    ref = ReferenceTrajectory(times, X, U, 0)
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

    @pytest.mark.parametrize("stationarity, eq_residual, status", [
        (2 * KKT_STATIONARITY_TOL, 0.0, "kkt_reject"),
        (0.0, 2 * KKT_EQ_RESIDUAL_TOL, "kkt_reject"),
        (KKT_STATIONARITY_TOL, KKT_EQ_RESIDUAL_TOL, "converged"),
    ])
    def test_certificate_gate(self, monkeypatch, stationarity, eq_residual, status):
        """A converged solve whose certificate fails reads kkt_reject with NaN metrics."""
        def certificate(*args):
            return {"stationarity": stationarity, "eq_residual": eq_residual}
        monkeypatch.setattr(analysis, "kkt_certificate", certificate)
        ocp = academic_problem()
        row, = run_benchmark(ocp, ["SOCSE-5"], samples=1000, reference=cheap_reference(ocp))
        assert row.status == status
        assert math.isfinite(row.solve_time_s)
        metrics = (row.cost_dev_pct, row.ode_err, row.max_violation, row.ctrl_dev)
        assert all(map(math.isnan, metrics)) == (status == "kkt_reject")
        assert all(map(math.isfinite, metrics)) == (status == "converged")

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
