"""NLP assembly: layouts, dimension counts, analytic derivatives, decoding."""

import numpy as np
import pytest

from socenv.errors import DofViolationError, LayoutError
from socenv.nlp import fd_gradient, fd_jacobian
from socenv.ocp import OcpProblem, academic_problem
from socenv.analysis import solve_method
from socenv.polynomial import TimeMap
from socenv.transcription import (MODES, CollocationConfig, decode, transcribe,
                                  transcribe_multiple_shooting)
from socenv.vehicle import VehicleParams, avp_problem


def constant_problem(c=0.7):
    """x-dot = 0, x(0) = c, only control effort penalized."""
    return OcpProblem(
        n_x=1, n_u=1,
        dynamics=lambda x, u: np.zeros(1),
        dynamics_jacobians=(lambda x, u: np.zeros((1, 1)), lambda x, u: np.zeros((1, 1))),
        dynamics_hessian=lambda x, u, mult: np.zeros((2, 2)),
        stage_cost=lambda x, u: float(u @ u),
        stage_cost_grad=lambda x, u: (np.zeros(1), 2.0 * u),
        stage_cost_hess=lambda x, u: (np.zeros((1, 1)), np.zeros((1, 1)), 2.0 * np.eye(1)),
        x_lower=np.array([-2.0]), x_upper=np.array([2.0]),
        u_lower=np.array([-1.0]), u_upper=np.array([1.0]),
        x0=np.array([c]), t0=0.0, tf=1.0,
    )


def pendulum_problem():
    """Two states, one control; the stage cost couples x and u, so lxu != 0."""
    def stage_cost(x, u):
        return float(0.5 * x[0] ** 2 + x[1] ** 2 + 0.1 * x[0] ** 2 * x[1]
                     + 0.3 * x[0] * u[0] + 0.7 * x[1] * u[0] + u[0] ** 2)

    def stage_cost_grad(x, u):
        return (np.array([x[0] + 0.2 * x[0] * x[1] + 0.3 * u[0],
                          2.0 * x[1] + 0.1 * x[0] ** 2 + 0.7 * u[0]]),
                np.array([0.3 * x[0] + 0.7 * x[1] + 2.0 * u[0]]))

    def stage_cost_hess(x, u):
        lxx = np.array([[1.0 + 0.2 * x[1], 0.2 * x[0]], [0.2 * x[0], 2.0]])
        return lxx, np.array([[0.3], [0.7]]), np.array([[2.0]])

    def dynamics_hessian(x, u, mult):
        hess = np.zeros((3, 3))
        hess[0, 0] = mult[1] * np.sin(x[0])
        return hess

    return OcpProblem(
        n_x=2, n_u=1,
        dynamics=lambda x, u: np.array([x[1], -np.sin(x[0]) + u[0]]),
        stage_cost=stage_cost,
        x_lower=np.array([-3.0, -3.0]), x_upper=np.array([3.0, 3.0]),
        u_lower=np.array([-1.0]), u_upper=np.array([1.0]),
        x0=np.array([0.5, 0.0]), t0=0.0, tf=2.0,
        dynamics_jacobians=(lambda x, u: np.array([[0.0, 1.0], [-np.cos(x[0]), 0.0]]),
                            lambda x, u: np.array([[0.0], [1.0]])),
        dynamics_hessian=dynamics_hessian,
        stage_cost_grad=stage_cost_grad,
        stage_cost_hess=stage_cost_hess,
    )


def avp_point(nlp, seed):
    """Coefficients of a trajectory near the parking spot: constant part plus small wiggles."""
    rng = np.random.default_rng(seed)
    lay = nlp.layout
    ax = 0.05 * rng.standard_normal((lay.rows, lay.n_x))
    ax[0] += [1.5, 0.1, 0.05, 7.0, 0.5, 0.1, 0.5, 0.2, 0.05, 0.1]
    au = 0.1 * rng.standard_normal((lay.rows, lay.n_u))
    return lay.encode(ax, au)


class TestConfig:
    def test_default_node_counts(self):
        assert CollocationConfig(M=8).N == 8
        assert CollocationConfig(M=5, mode="soc").N == 5
        assert CollocationConfig(M=5, mode="pseudospectral").N == 6

    def test_rejects_bad_mode_and_degree(self):
        with pytest.raises(ValueError):
            CollocationConfig(M=3, mode="galerkin")
        with pytest.raises(ValueError):
            CollocationConfig(M=0)


class TestDimensions:
    def test_academic_socse_counts(self):
        nlp = transcribe(academic_problem(), CollocationConfig(M=8))
        assert nlp.n_vars == 18          # (1 + 1) * (8 + 1)
        assert nlp.A_ineq.shape == (18, 18)
        z = np.zeros(18)
        assert nlp.eq_fun(z).shape == (9,)   # initial condition + 8 collocation rows
        assert nlp.eq_jac(z).shape == (9, 18)

    def test_soc_node_only_rows(self):
        nlp = transcribe(academic_problem(), CollocationConfig(M=5, mode="soc"))
        assert nlp.A_ineq.shape[0] == 5 * (1 + 1)   # N * (n_x + n_u), N = M

    def test_dof_violation(self):
        with pytest.raises(DofViolationError) as exc:
            transcribe(avp_problem(), CollocationConfig(M=3, mode="pseudospectral"))
        assert exc.value.free_coeffs == 48   # (10 + 2) * (3 + 1)
        assert exc.value.eq_rows == 50       # 10 * (4 + 1), N = M + 1


class TestDerivatives:
    @pytest.mark.parametrize("mode,M", [("socse", 5), ("soc", 5), ("pseudospectral", 5)])
    def test_gradient_matches_fd(self, mode, M):
        nlp = transcribe(academic_problem(), CollocationConfig(M=M, mode=mode))
        rng = np.random.default_rng(0)
        z = rng.standard_normal(nlp.n_vars)
        np.testing.assert_allclose(nlp.gradient(z),
                                   fd_gradient(nlp.objective, z, 1e-6), atol=1e-6)

    def test_eq_jacobian_matches_fd(self):
        nlp = transcribe(academic_problem(), CollocationConfig(M=8))
        rng = np.random.default_rng(1)
        z = rng.standard_normal(nlp.n_vars)
        np.testing.assert_allclose(nlp.eq_jac(z),
                                   fd_jacobian(nlp.eq_fun, z, 1e-6), atol=1e-6)

    def test_hessian_matches_fd_of_gradient(self):
        nlp = transcribe(academic_problem(), CollocationConfig(M=5))
        assert nlp.hessian is not None
        rng = np.random.default_rng(2)
        z = rng.standard_normal(nlp.n_vars)
        lam = rng.standard_normal(nlp.eq_fun(z).size)
        np.testing.assert_allclose(nlp.hessian(z, lam),
                                   fd_jacobian(nlp.gradient, z, 1e-6), atol=1e-5)

    @pytest.mark.parametrize("mode", MODES)
    def test_academic_hessian_does_not_depend_on_multipliers(self, mode):
        """The academic dynamics are linear, so the Lagrangian Hessian is the
        objective's bit for bit, whatever the multipliers."""
        nlp = transcribe(academic_problem(), CollocationConfig(M=5, mode=mode))
        rng = np.random.default_rng(3)
        z = rng.standard_normal(nlp.n_vars)
        n_eq = nlp.eq_fun(z).size
        H0 = nlp.hessian(z, np.zeros(n_eq))
        for _ in range(3):
            np.testing.assert_array_equal(nlp.hessian(z, 1e3 * rng.standard_normal(n_eq)), H0)


class TestMultiChannelDerivatives:
    """Problems with several channels, where a transposed channel or coefficient index shows.

    Central differences with step 1e-6 are off by O(h^2) truncation plus
    O(eps |f| / h) round-off, below 2e-9 on these problems, so atol is 1e-7.
    The Hessian is the Lagrangian's, checked against differences of
    gradient + eq_jac' lam at random multipliers.
    """

    STEP, ATOL = 1e-6, 1e-7

    def check(self, nlp, z):
        np.testing.assert_allclose(nlp.eq_jac(z), fd_jacobian(nlp.eq_fun, z, self.STEP),
                                   rtol=0.0, atol=self.ATOL)
        np.testing.assert_allclose(nlp.gradient(z), fd_gradient(nlp.objective, z, self.STEP),
                                   rtol=0.0, atol=self.ATOL)
        lam = np.random.default_rng(4).standard_normal(nlp.eq_fun(z).size)
        np.testing.assert_allclose(
            nlp.hessian(z, lam),
            fd_jacobian(lambda v: nlp.gradient(v) + nlp.eq_jac(v).T @ lam, z, self.STEP),
            rtol=0.0, atol=self.ATOL)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("params", [
        VehicleParams(),
        # A kappa(s) track drives the d(kappa)/ds chain rule through the rows.
        VehicleParams(curvature=lambda s: 0.05 * s, curvature_deriv=lambda s: 0.05),
    ], ids=["straight", "curved"])
    def test_avp(self, params, mode):
        nlp = transcribe(avp_problem(params), CollocationConfig(M=5, mode=mode))
        self.check(nlp, avp_point(nlp, 3))

    @pytest.mark.parametrize("mode", MODES)
    def test_state_control_cross_term(self, mode):
        nlp = transcribe(pendulum_problem(), CollocationConfig(M=6, mode=mode))
        rng = np.random.default_rng(8)
        self.check(nlp, 0.5 * rng.standard_normal(nlp.n_vars))

    def test_terminal_cost_gradient(self):
        """Gradient and Hessian of a non-quadratic terminal cost, in both transcriptions."""
        ocp = academic_problem()
        ocp.terminal_cost = lambda x: float(2.0 * x[0] ** 2 + x[0] + 0.1 * x[0] ** 4)
        ocp.terminal_cost_grad = lambda x: np.array([4.0 * x[0] + 1.0 + 0.4 * x[0] ** 3])
        ocp.terminal_cost_hess = lambda x: np.array([[4.0 + 1.2 * x[0] ** 2]])
        rng = np.random.default_rng(9)
        for nlp in (transcribe(ocp, CollocationConfig(M=5)), transcribe_multiple_shooting(ocp, 5)):
            self.check(nlp, rng.standard_normal(nlp.n_vars))


class TestObjectiveQuadrature:
    def test_matches_dense_integral_for_polynomial_cost(self):
        """N = M LGL nodes integrate the quadratic cost of a degree-(M-2) spline exactly.

        The rule is exact up to degree 2M - 3, so the coefficients above
        degree M - 2 are zeroed.
        """
        nlp = transcribe(academic_problem(), CollocationConfig(M=5))
        rng = np.random.default_rng(4)
        ax, au = nlp.layout.decode(rng.standard_normal(nlp.n_vars))
        ax[4:] = 0.0
        au[4:] = 0.0
        z = nlp.layout.encode(ax, au)
        sol = decode(z, nlp, TimeMap(0.0, 1.0))
        ts = np.linspace(0.0, 1.0, 20001)
        X, U = sol.x_at(ts), sol.u_at(ts)
        vals = 0.5 * (X[:, 0] ** 2 + U[:, 0] ** 2)
        dense = np.trapezoid(vals, ts)
        assert nlp.objective(z) == pytest.approx(dense, rel=1e-7)


class TestInitialAndContinuityRows:
    def test_initial_condition_row(self):
        nlp = transcribe(academic_problem(), CollocationConfig(M=5))
        # alpha_x = e0 makes the state identically 1.0 = x0.
        ax = np.zeros((6, 1))
        ax[0, 0] = 1.0
        z = nlp.layout.encode(ax, np.zeros((6, 1)))
        assert nlp.eq_fun(z)[0] == pytest.approx(0.0, abs=1e-14)

    def test_constant_dynamics_collocation_residual_zero(self):
        ocp = constant_problem(0.7)
        nlp = transcribe(ocp, CollocationConfig(M=4))
        ax = np.zeros((5, 1))
        ax[0, 0] = 0.7
        z = nlp.layout.encode(ax, np.zeros((5, 1)))
        np.testing.assert_allclose(nlp.eq_fun(z), 0.0, atol=1e-14)


class TestDecode:
    def test_round_trip(self):
        nlp = transcribe(academic_problem(), CollocationConfig(M=6))
        rng = np.random.default_rng(5)
        z = rng.standard_normal(nlp.n_vars)
        ax, au = nlp.layout.decode(z)
        assert ax.shape == (7, 1) and au.shape == (7, 1)
        np.testing.assert_allclose(nlp.layout.encode(ax, au), z, atol=0.0)

    def test_layout_mismatch(self):
        nlp = transcribe(academic_problem(), CollocationConfig(M=6))
        with pytest.raises(LayoutError):
            nlp.layout.decode(np.zeros(nlp.n_vars + 1))
        with pytest.raises(LayoutError):
            nlp.layout.encode(np.zeros((7, 1)), np.zeros((6, 1)))
        with pytest.raises(LayoutError):
            decode(np.zeros(3),
                   transcribe_multiple_shooting(academic_problem(), 1),
                   TimeMap(0.0, 1.0))

    def test_solution_evaluation_and_bounds(self):
        cfg = CollocationConfig(M=4)
        nlp = transcribe(constant_problem(0.7), cfg)
        ax = np.zeros((5, 1))
        ax[0, 0] = 0.7
        z = nlp.layout.encode(ax, np.zeros((5, 1)))
        sol = decode(z, nlp, TimeMap(0.0, 1.0))
        np.testing.assert_allclose(sol.x_at(np.linspace(0, 1, 7)), 0.7, atol=1e-14)
        lo, hi = sol.x_bounds
        assert lo[0] == pytest.approx(0.7) and hi[0] == pytest.approx(0.7)
        assert sol.objective == pytest.approx(0.0)

    def test_scalar_evaluation_matches_vectorised(self):
        ocp = academic_problem()
        _, sol, _, _ = solve_method(ocp, "SOCSE-5")
        ts = np.array([ocp.t0, 0.37, ocp.tf])
        X, U = sol.x_at(ts), sol.u_at(ts)
        for i, t in enumerate(ts):
            x, u = sol.x_at(float(t)), sol.u_at(float(t))
            assert x.shape == (1, 1) and u.shape == (1, 1)
            np.testing.assert_array_equal(x, X[i:i + 1])
            np.testing.assert_array_equal(u, U[i:i + 1])
        # Times just past tf clamp to the end of the spline.
        np.testing.assert_array_equal(sol.x_at(ocp.tf + 1e-13), sol.x_at(ocp.tf))

    @pytest.mark.parametrize("problem, method", [(academic_problem, "SOCSE-8"),
                                                 (avp_problem, "SOCSE-3")])
    def test_rows_do_not_depend_on_the_point_count(self, problem, method):
        """Each sampled row is bitwise the value of sampling its time alone."""
        ocp = problem()
        _, sol, _, _ = solve_method(ocp, method)
        ts = np.random.default_rng(3).uniform(ocp.t0, ocp.tf, 257)
        X, U = sol.x_at(ts), sol.u_at(ts)
        for i, t in enumerate(ts):
            np.testing.assert_array_equal(X[i], sol.x_at(t)[0])
            np.testing.assert_array_equal(U[i], sol.u_at(t)[0])


class TestMultipleShooting:
    def test_layout_and_counts(self):
        nlp = transcribe_multiple_shooting(academic_problem(), 10)
        assert nlp.n_vars == 11 * 1 + 10 * 1
        assert nlp.eq_fun(np.zeros(nlp.n_vars)).size == 11
        assert nlp.A_ineq.shape == (21, 21)

    def test_constant_dynamics_identity_step(self):
        ocp = constant_problem(0.3)
        nlp = transcribe_multiple_shooting(ocp, 1)
        z = np.array([0.3, 0.3, 0.0])   # x0, x1, u0
        np.testing.assert_allclose(nlp.eq_fun(z), 0.0, atol=1e-14)

    def test_exponential_decay(self):
        """x-dot = -x integrated over the unit horizon matches exp(-1)."""
        ocp = OcpProblem(
            n_x=1, n_u=1,
            dynamics=lambda x, u: -x,
            dynamics_jacobians=(lambda x, u: -np.eye(1), lambda x, u: np.zeros((1, 1))),
            dynamics_hessian=lambda x, u, mult: np.zeros((2, 2)),
            stage_cost=lambda x, u: 0.0,
            stage_cost_grad=lambda x, u: (np.zeros(1), np.zeros(1)),
            stage_cost_hess=lambda x, u: (np.zeros((1, 1)),) * 3,
            x_lower=np.array([-np.inf]), x_upper=np.array([np.inf]),
            u_lower=np.array([0.0]), u_upper=np.array([0.0]),
            x0=np.array([1.0]), t0=0.0, tf=1.0,
        )
        K = 20
        nlp = transcribe_multiple_shooting(ocp, K)
        lay = nlp.layout
        # Build the exact defect-free trajectory by rolling the residual to zero.
        z = np.zeros(nlp.n_vars)
        z[0] = 1.0
        for k in range(K):
            r = nlp.eq_fun(z)
            z[k + 1] += -r[k + 1]   # X[k+1] = step(X[k], 0)
        np.testing.assert_allclose(nlp.eq_fun(z), 0.0, atol=1e-13)
        assert lay.states(z)[K, 0] == pytest.approx(np.exp(-1.0), abs=1e-6)

    def test_jacobian_matches_fd(self):
        nlp = transcribe_multiple_shooting(academic_problem(), 5)
        rng = np.random.default_rng(7)
        z = rng.standard_normal(nlp.n_vars)
        np.testing.assert_allclose(nlp.eq_jac(z),
                                   fd_jacobian(nlp.eq_fun, z, 1e-6), atol=1e-6)
        np.testing.assert_allclose(nlp.gradient(z),
                                   fd_gradient(nlp.objective, z, 1e-6), atol=1e-6)
        # The RK4 map's second derivatives are not formed: the multipliers are ignored.
        np.testing.assert_allclose(nlp.hessian(z, rng.standard_normal(nlp.eq_fun(z).size)),
                                   fd_jacobian(nlp.gradient, z, 1e-6), atol=1e-6)

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            transcribe_multiple_shooting(academic_problem(), 0)
