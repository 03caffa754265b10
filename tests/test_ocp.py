"""Bolza problem container and the bundled scalar benchmark."""

import numpy as np
import pytest

from socenv.ocp import OcpProblem, academic_problem


class TestAcademicProblem:
    def test_dynamics_values(self):
        ocp = academic_problem()
        assert ocp.dynamics(np.array([1.0]), np.array([-0.3]))[0] == pytest.approx(-1.3)
        assert ocp.dynamics(np.array([0.5]), np.array([-0.1]))[0] == pytest.approx(-0.6)

    def test_stage_cost_values(self):
        ocp = academic_problem()
        assert ocp.stage_cost(np.array([1.0]), np.array([-0.1])) == pytest.approx(0.505)
        assert ocp.stage_cost(np.zeros(1), np.zeros(1)) == pytest.approx(0.0)

    def test_bounds_and_initial_state(self):
        ocp = academic_problem()
        np.testing.assert_allclose(ocp.u_lower, [-0.3])
        np.testing.assert_allclose(ocp.u_upper, [-0.1])
        np.testing.assert_allclose(ocp.x_lower, [0.2])
        np.testing.assert_allclose(ocp.x_upper, [1.0])
        np.testing.assert_allclose(ocp.x0, [1.0])
        assert ocp.t0 == 0.0 and ocp.tf == 1.0
        assert ocp.terminal_cost is None and ocp.terminal_constraint is None

    def test_analytic_jacobians(self):
        ocp = academic_problem()
        fx, fu = ocp.dynamics_jacobians
        x, u = np.array([0.7]), np.array([-0.2])
        np.testing.assert_allclose(fx(x, u), [[-1.0]])
        np.testing.assert_allclose(fu(x, u), [[1.0]])
        np.testing.assert_array_equal(ocp.dynamics_hessian(x, u, np.array([3.0])),
                                      np.zeros((2, 2)))

    def test_gradient_and_hessian_consistency(self):
        ocp = academic_problem()
        x, u = np.array([0.6]), np.array([-0.25])
        gx, gu = ocp.stage_cost_grad(x, u)
        h = 1e-7
        fd_x = (ocp.stage_cost(x + h, u) - ocp.stage_cost(x - h, u)) / (2 * h)
        fd_u = (ocp.stage_cost(x, u + h) - ocp.stage_cost(x, u - h)) / (2 * h)
        assert gx[0] == pytest.approx(fd_x, abs=1e-6)
        assert gu[0] == pytest.approx(fd_u, abs=1e-6)
        lxx, lxu, luu = ocp.stage_cost_hess(x, u)
        np.testing.assert_allclose(lxx, [[1.0]])
        np.testing.assert_allclose(luu, [[1.0]])
        np.testing.assert_allclose(lxu, [[0.0]])


class TestValidation:
    @staticmethod
    def base_kwargs():
        return dict(
            n_x=1, n_u=1,
            dynamics=lambda x, u: -x + u,
            dynamics_jacobians=(lambda x, u: -np.eye(1), lambda x, u: np.eye(1)),
            dynamics_hessian=lambda x, u, mult: np.zeros((2, 2)),
            stage_cost=lambda x, u: float(x @ x + u @ u),
            stage_cost_grad=lambda x, u: (2.0 * x, 2.0 * u),
            stage_cost_hess=lambda x, u: (2.0 * np.eye(1), np.zeros((1, 1)), 2.0 * np.eye(1)),
            x_lower=np.array([-1.0]), x_upper=np.array([1.0]),
            u_lower=np.array([-1.0]), u_upper=np.array([1.0]),
            x0=np.array([0.0]), t0=0.0, tf=1.0,
        )

    def test_rejects_reversed_horizon(self):
        kw = self.base_kwargs()
        kw["tf"] = -1.0
        with pytest.raises(ValueError, match="tf"):
            OcpProblem(**kw)

    @pytest.mark.parametrize("name, value", [("tf", np.inf), ("t0", -np.inf), ("tf", np.nan)])
    def test_rejects_non_finite_horizon(self, name, value):
        kw = self.base_kwargs()
        kw[name] = value
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            OcpProblem(**kw)

    def test_rejects_crossed_bounds(self):
        kw = self.base_kwargs()
        kw["x_lower"], kw["x_upper"] = kw["x_upper"], kw["x_lower"] - 2.0
        with pytest.raises(ValueError, match="bounds"):
            OcpProblem(**kw)

    def test_rejects_infeasible_initial_state(self):
        kw = self.base_kwargs()
        kw["x0"] = np.array([5.0])
        with pytest.raises(ValueError, match="initial state"):
            OcpProblem(**kw)

    def test_rejects_bad_shapes(self):
        kw = self.base_kwargs()
        kw["x0"] = np.zeros(2)
        with pytest.raises(ValueError):
            OcpProblem(**kw)

    def test_rejects_terminal_cost_without_gradient(self):
        """A terminal cost needs both its gradient and its Hessian."""
        kw = self.base_kwargs()
        kw["terminal_cost"] = lambda x: float(x @ x)
        with pytest.raises(ValueError, match="terminal_cost_grad"):
            OcpProblem(**kw)
        kw["terminal_cost_grad"] = lambda x: 2.0 * x
        with pytest.raises(ValueError, match="terminal_cost_hess"):
            OcpProblem(**kw)
        del kw["terminal_cost_grad"]
        kw["terminal_cost_hess"] = lambda x: 2.0 * np.eye(1)
        with pytest.raises(ValueError, match="terminal_cost_grad"):
            OcpProblem(**kw)
        kw["terminal_cost_grad"] = lambda x: 2.0 * x
        OcpProblem(**kw)

    @pytest.mark.parametrize("name", ["dynamics_jacobians", "dynamics_hessian",
                                      "stage_cost_grad", "stage_cost_hess"])
    def test_model_derivatives_are_required(self, name):
        kw = self.base_kwargs()
        del kw[name]
        with pytest.raises(TypeError, match=name):
            OcpProblem(**kw)
