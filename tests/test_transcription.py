"""NLP assembly: layouts, dimension counts, analytic derivatives, decoding."""

import numpy as np
import pytest

from socenv.errors import DofViolationError, LayoutError
from socenv.nlp import fd_gradient, fd_jacobian
from socenv.ocp import OcpProblem, academic_problem
from socenv.analysis import solve_method
from socenv.polynomial import TimeMap
from socenv.transcription import (CollocationConfig, decode, transcribe,
                                  transcribe_multiple_shooting)


def constant_problem(c=0.7):
    """x-dot = 0, x(0) = c, only control effort penalized."""
    return OcpProblem(
        n_x=1, n_u=1,
        dynamics=lambda x, u: np.zeros(1),
        stage_cost=lambda x, u: float(u @ u),
        x_lower=np.array([-2.0]), x_upper=np.array([2.0]),
        u_lower=np.array([-1.0]), u_upper=np.array([1.0]),
        x0=np.array([c]), t0=0.0, tf=1.0,
    )


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
        nlp = transcribe(academic_problem(), CollocationConfig(M=8, N=8))
        assert nlp.n_vars == 18          # (1 + 1) * (8 + 1)
        assert nlp.n_eq == 9             # initial condition + 8 collocation rows
        assert nlp.A_ineq.shape == (18, 18)
        z = np.zeros(18)
        assert nlp.eq_fun(z).shape == (9,)
        assert nlp.eq_jac(z).shape == (9, 18)

    def test_soc_node_only_rows(self):
        nlp = transcribe(academic_problem(), CollocationConfig(M=5, N=8, mode="soc"))
        assert nlp.A_ineq.shape[0] == 8 * (1 + 1)   # N * (n_x + n_u)

    def test_dof_violation(self):
        with pytest.raises(DofViolationError) as exc:
            transcribe(academic_problem(), CollocationConfig(M=3, N=8))
        assert exc.value.free_coeffs == 8    # (1 + 1) * (3 + 1)
        assert exc.value.eq_rows == 9        # 1 * (8 + 1)


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
        np.testing.assert_allclose(nlp.hessian(z),
                                   fd_jacobian(nlp.gradient, z, 1e-6), atol=1e-5)


class TestObjectiveQuadrature:
    def test_matches_dense_integral_for_polynomial_cost(self):
        """Quadratic cost of a degree-M spline is exactly integrated for N = M."""
        nlp = transcribe(academic_problem(), CollocationConfig(M=5, N=8))
        rng = np.random.default_rng(4)
        z = rng.standard_normal(nlp.n_vars)
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
            np.testing.assert_array_equal(x, sol.x_at(ts[i:i + 1]))
            np.testing.assert_array_equal(u, sol.u_at(ts[i:i + 1]))
            # A one-row BLAS product may round differently from an n-row one.
            np.testing.assert_allclose(x, X[i:i + 1], rtol=0.0, atol=4 * np.finfo(float).eps)
            np.testing.assert_allclose(u, U[i:i + 1], rtol=0.0, atol=4 * np.finfo(float).eps)
        # Times just past tf clamp to the end of the spline, which the
        # rollout's min(t, tf) relies on.
        np.testing.assert_array_equal(sol.x_at(ocp.tf + 1e-13), sol.x_at(ocp.tf))


class TestMultipleShooting:
    def test_layout_and_counts(self):
        nlp = transcribe_multiple_shooting(academic_problem(), 10)
        assert nlp.n_vars == 11 * 1 + 10 * 1
        assert nlp.n_eq == 11
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
            stage_cost=lambda x, u: 0.0,
            x_lower=np.array([-np.inf]), x_upper=np.array([np.inf]),
            u_lower=np.array([0.0]), u_upper=np.array([0.0]),
            x0=np.array([1.0]), t0=0.0, tf=1.0,
        )
        K = 20
        nlp = transcribe_multiple_shooting(ocp, K, substeps=4)
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
        nlp = transcribe_multiple_shooting(academic_problem(), 5, substeps=2)
        rng = np.random.default_rng(7)
        z = rng.standard_normal(nlp.n_vars)
        np.testing.assert_allclose(nlp.eq_jac(z),
                                   fd_jacobian(nlp.eq_fun, z, 1e-6), atol=1e-6)
        np.testing.assert_allclose(nlp.gradient(z),
                                   fd_gradient(nlp.objective, z, 1e-6), atol=1e-6)
        np.testing.assert_allclose(nlp.hessian(z),
                                   fd_jacobian(nlp.gradient, z, 1e-6), atol=1e-6)

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            transcribe_multiple_shooting(academic_problem(), 0)
        with pytest.raises(ValueError):
            transcribe_multiple_shooting(academic_problem(), 3, substeps=0)
