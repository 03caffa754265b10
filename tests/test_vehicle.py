"""Curvilinear single-track model: equilibria, fusion, Jacobians, config."""

import numpy as np
import pytest

from socenv.analysis import dense_violation_scan, solve_method
from socenv.errors import DomainError, SingularCurvilinearError
from socenv.nlp import kkt_certificate
from socenv.vehicle import (N_INPUTS, N_STATES, VehicleParams, avp_problem,
                            avp_problem_from_config, avp_reference, avp_stage_cost,
                            avp_stage_cost_grad, avp_stage_cost_hess, load_config,
                            vehicle_dynamics, vehicle_dynamics_hessian, vehicle_jacobians,
                            vehicle_params_from_dict)

P = VehicleParams()
CURVED = VehicleParams(curvature=lambda s: 0.05 * s, curvature_deriv=lambda s: 0.05)


def unit_hessian(x, u, p):
    """vehicle_dynamics_hessian at unit multipliers, called like the other model functions."""
    return vehicle_dynamics_hessian(x, u, np.ones(N_STATES), p)


class TestDynamics:
    def test_rest_equilibrium(self):
        xdot = vehicle_dynamics(np.zeros(N_STATES), np.zeros(N_INPUTS), P)
        np.testing.assert_allclose(xdot, np.zeros(N_STATES), atol=1e-12)

    def test_pure_longitudinal_straight_road(self):
        x = np.zeros(N_STATES)
        x[0] = 5.0
        xdot = vehicle_dynamics(x, np.zeros(N_INPUTS), P)
        assert xdot[3] == pytest.approx(5.0)      # s-dot
        assert xdot[4] == pytest.approx(0.0, abs=1e-12)   # w-dot
        assert xdot[5] == pytest.approx(0.0, abs=1e-12)   # theta-dot

    def test_heading_error_quarter_turn(self):
        x = np.zeros(N_STATES)
        x[0] = 1.0
        x[5] = np.pi / 2
        xdot = vehicle_dynamics(x, np.zeros(N_INPUTS), P)
        assert xdot[3] == pytest.approx(0.0, abs=1e-12)   # s-dot
        assert xdot[4] == pytest.approx(1.0)              # w-dot

    def test_input_rate_rows(self):
        x = np.zeros(N_STATES)
        u = np.array([0.4, -0.2])   # [t_r rate, steer rate]
        xdot = vehicle_dynamics(x, u, P)
        assert xdot[8] == pytest.approx(-0.2)   # delta-dot
        assert xdot[9] == pytest.approx(0.4)    # t_r-dot

    def test_fusion_is_exact_convex_combination(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-0.5, 0.5, N_STATES)
        x[0] = 2.0
        u = rng.uniform(-0.5, 0.5, N_INPUTS)
        f1 = vehicle_dynamics(x, u, VehicleParams(fusion_lambda=1.0))
        f0 = vehicle_dynamics(x, u, VehicleParams(fusion_lambda=0.0))
        for lam in (0.25, 0.5, 0.8):
            fl = vehicle_dynamics(x, u, VehicleParams(fusion_lambda=lam))
            np.testing.assert_allclose(fl, lam * f1 + (1 - lam) * f0, atol=1e-10)

    def test_curvature_singularity_raises(self):
        p = VehicleParams(kappa_const=0.5)
        x = np.zeros(N_STATES)
        x[4] = 2.0   # 1 - kappa*w = 0
        with pytest.raises(SingularCurvilinearError):
            vehicle_dynamics(x, np.zeros(N_INPUTS), p)
        # A domain error, so the SQP line search rejects such a trial point.
        with pytest.raises(DomainError):
            vehicle_dynamics(x, np.zeros(N_INPUTS), p)

    def test_overflow_raises_domain_error(self):
        """f, its Jacobians and its Hessian raise DomainError where the model overflows."""
        for model in (vehicle_dynamics, vehicle_jacobians, unit_hessian):
            x = np.zeros(N_STATES)
            x[0] = 1e200                 # v_x ** 2 overflows inside the math module
            with pytest.raises(DomainError):
                model(x, np.zeros(N_INPUTS), P)
            x = np.zeros(N_STATES)
            x[1] = x[2] = 1e200          # r * v_y overflows to inf without an exception
            with pytest.raises(DomainError):
                model(x, np.zeros(N_INPUTS), P)

    def test_non_finite_or_huge_inputs_give_finite_values_or_domain_error(self):
        """An infinite or NaN entry raises DomainError; a huge one may also be fine.

        Checked for f, for its Jacobians (df/dx, df/du) and for the Hessian of
        mult' f, which also rejects a non-finite multiplier.
        """
        for value in (np.inf, np.nan):
            x = np.zeros(N_STATES)
            x[0] = 1.0
            with pytest.raises(DomainError):
                vehicle_dynamics_hessian(x, np.zeros(N_INPUTS), np.full(N_STATES, value), P)
        for model in (vehicle_dynamics, vehicle_jacobians, unit_hessian):
            for i in range(N_STATES + N_INPUTS):
                for value in (np.inf, -np.inf, np.nan, 1e300, -1e300):
                    xu = np.zeros(N_STATES + N_INPUTS)
                    xu[0] = 1.0
                    xu[i] = value
                    x, u = xu[:N_STATES], xu[N_STATES:]
                    if np.isfinite(value):
                        try:
                            values = model(x, u, P)
                        except DomainError:
                            continue
                        assert all(np.all(np.isfinite(v)) for v in values)
                    else:
                        with pytest.raises(DomainError):
                            model(x, u, P)

    def test_curved_road_changes_s_rate(self):
        p = VehicleParams(kappa_const=0.1)
        x = np.zeros(N_STATES)
        x[0], x[4] = 2.0, 1.0
        xdot = vehicle_dynamics(x, np.zeros(N_INPUTS), p)
        assert xdot[3] == pytest.approx(2.0 / (1 - 0.1 * 1.0))


class TestJacobians:
    def test_match_central_differences_at_random_points(self):
        rng = np.random.default_rng(42)
        h = 1e-6
        for _ in range(100):
            x = rng.uniform(-0.8, 0.8, N_STATES)
            x[0] = rng.uniform(0.3, 4.0)
            u = rng.uniform(-0.6, 0.6, N_INPUTS)
            jx, ju = vehicle_jacobians(x, u, P)
            for j in range(N_STATES):
                e = np.zeros(N_STATES)
                e[j] = h
                fd = (vehicle_dynamics(x + e, u, P)
                      - vehicle_dynamics(x - e, u, P)) / (2 * h)
                denom = np.maximum(np.abs(fd), 1.0)
                assert np.max(np.abs(jx[:, j] - fd) / denom) < 1e-5
            for j in range(N_INPUTS):
                e = np.zeros(N_INPUTS)
                e[j] = h
                fd = (vehicle_dynamics(x, u + e, P)
                      - vehicle_dynamics(x, u - e, P)) / (2 * h)
                denom = np.maximum(np.abs(fd), 1.0)
                assert np.max(np.abs(ju[:, j] - fd) / denom) < 1e-5

    @pytest.mark.parametrize("p", [P, CURVED], ids=["straight", "curved"])
    def test_dynamics_hessian_matches_fd_of_jacobians(self, p):
        """The Hessian of mult' f against central differences of mult' [df/dx df/du].

        On kappa(s) = 0.05 s the curvature is linear in s, so the Hessian's
        kappa'' = 0 is exact there too.
        """
        rng = np.random.default_rng(5)
        h = 1e-6
        for _ in range(20):
            x = rng.uniform(-0.8, 0.8, N_STATES)
            x[0], x[3] = rng.uniform(0.3, 4.0), rng.uniform(0.0, 5.0)
            u = rng.uniform(-0.6, 0.6, N_INPUTS)
            mult = rng.standard_normal(N_STATES)

            def lagrangian_gradient(xu):
                jx, ju = vehicle_jacobians(xu[:N_STATES], xu[N_STATES:], p)
                return mult @ np.hstack([jx, ju])
            xu = np.concatenate([x, u])
            fd = np.column_stack([(lagrangian_gradient(xu + e) - lagrangian_gradient(xu - e))
                                  / (2 * h) for e in h * np.eye(N_STATES + N_INPUTS)])
            hess = vehicle_dynamics_hessian(x, u, mult, p)
            np.testing.assert_array_equal(hess, hess.T)
            np.testing.assert_allclose(hess, fd, rtol=0.0,
                                       atol=1e-6 * max(1.0, np.max(np.abs(fd))))

    def test_curvature_chain_rule(self):
        """s-dependent curvature feeds the s-column via the chain rule."""
        p = CURVED
        rng = np.random.default_rng(1)
        x = rng.uniform(-0.3, 0.3, N_STATES)
        x[0], x[3] = 2.0, 1.5
        u = rng.uniform(-0.3, 0.3, N_INPUTS)
        jx, _ = vehicle_jacobians(x, u, p)
        h = 1e-6
        e = np.zeros(N_STATES)
        e[3] = h
        fd = (vehicle_dynamics(x + e, u, p) - vehicle_dynamics(x - e, u, p)) / (2 * h)
        np.testing.assert_allclose(jx[:, 3], fd, atol=1e-5)

    def test_problem_callbacks_on_curved_track(self):
        """The OCP's separate df/dx and df/du callbacks match and keep the guard."""
        p = CURVED
        fx_fun, fu_fun = avp_problem(p).dynamics_jacobians
        rng = np.random.default_rng(2)
        x = rng.uniform(-0.3, 0.3, N_STATES)
        x[0], x[3] = 2.0, 1.5
        u = rng.uniform(-0.3, 0.3, N_INPUTS)
        jx, ju = vehicle_jacobians(x, u, p)
        np.testing.assert_array_equal(fx_fun(x, u), jx)
        np.testing.assert_array_equal(fu_fun(x, u), ju)
        x[4] = 1.0 / (0.05 * x[3])   # 1 - kappa*w = 0
        for fun in (fx_fun, fu_fun):
            with pytest.raises(SingularCurvilinearError):
                fun(x, u)


class TestStageCost:
    def test_zero_at_reference(self):
        x_ref = avp_reference(P)
        assert avp_stage_cost(x_ref, np.zeros(2), x_ref, P) == pytest.approx(0.0)

    def test_parking_term_vanishes_at_target(self):
        x_ref = avp_reference(P)
        x = x_ref.copy()
        x[3] = P.s_target
        x[6] = 3.0   # large parking offset, gated away at s = s_p
        base = float((x - x_ref) @ P.Q @ (x - x_ref))
        assert avp_stage_cost(x, np.zeros(2), x_ref, P) == pytest.approx(base)

    def test_identity_weights_example(self):
        p = VehicleParams(Q=np.eye(N_STATES), R=np.eye(N_INPUTS))
        x_ref = np.zeros(N_STATES)
        x = np.zeros(N_STATES)
        x[0] = 1.0
        u = np.array([1.0, 0.0])
        assert avp_stage_cost(x, u, x_ref, p) == pytest.approx(2.0)

    def test_grad_and_hess_match_fd(self):
        rng = np.random.default_rng(9)
        x_ref = avp_reference(P)
        x = rng.uniform(-0.5, 0.5, N_STATES)
        x[3] = rng.uniform(0, 10)
        u = rng.uniform(-0.5, 0.5, N_INPUTS)
        gx, gu = avp_stage_cost_grad(x, u, x_ref, P)
        h = 1e-6
        for j in range(N_STATES):
            e = np.zeros(N_STATES)
            e[j] = h
            fd = (avp_stage_cost(x + e, u, x_ref, P)
                  - avp_stage_cost(x - e, u, x_ref, P)) / (2 * h)
            assert gx[j] == pytest.approx(fd, abs=1e-5)
        lxx, lxu, luu = avp_stage_cost_hess(x, u, x_ref, P)
        for j in range(N_STATES):
            e = np.zeros(N_STATES)
            e[j] = h
            fd = (avp_stage_cost_grad(x + e, u, x_ref, P)[0]
                  - avp_stage_cost_grad(x - e, u, x_ref, P)[0]) / (2 * h)
            np.testing.assert_allclose(lxx[:, j], fd, atol=1e-4)
        np.testing.assert_allclose(luu, 2.0 * P.R, atol=1e-12)
        np.testing.assert_allclose(lxu, 0.0, atol=0.0)


class TestParamsValidation:
    def test_rejects_nonpositive_mass(self):
        with pytest.raises(ValueError):
            VehicleParams(mass=0.0)

    def test_rejects_bad_lambda(self):
        with pytest.raises(ValueError):
            VehicleParams(fusion_lambda=1.5)

    def test_rejects_indefinite_q(self):
        q = np.eye(N_STATES)
        q[0, 0] = -1.0
        with pytest.raises(ValueError):
            VehicleParams(Q=q)

    def test_rejects_singular_r(self):
        with pytest.raises(ValueError):
            VehicleParams(R=np.zeros((2, 2)))

    @pytest.mark.parametrize("given", ["curvature", "curvature_deriv"])
    def test_curvature_needs_its_derivative(self, given):
        """A curvature without its s-derivative would drop the chain-rule term of df/ds."""
        with pytest.raises(ValueError, match="curvature_deriv"):
            VehicleParams(**{given: lambda s: 0.05 * s})


class TestConfig:
    def test_default_config_round_trip(self, tmp_path):
        import pathlib
        cfg_path = pathlib.Path(__file__).resolve().parents[1] / "configs" / "avp_default.yaml"
        sections = load_config(cfg_path)
        p = vehicle_params_from_dict(sections["vehicle"])
        assert p.mass == pytest.approx(1200.0)
        assert p.Q.shape == (N_STATES, N_STATES)
        assert float(sections["problem"]["tf"]) == pytest.approx(2.0)

    def test_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown"):
            vehicle_params_from_dict({"mass": 1000.0, "warp_drive": 1})

    def test_rejects_unknown_sections(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("vehicle: {}\nextra: {}\n")
        with pytest.raises(ValueError, match="sections"):
            load_config(path)

    def test_problem_section_sets_horizon(self, tmp_path):
        path = tmp_path / "horizon.yaml"
        path.write_text("problem: {t0: 0.5, tf: 3.0}\n")
        ocp = avp_problem_from_config(path)
        assert (ocp.t0, ocp.tf) == (0.5, 3.0)


class TestAvpProblem:
    def test_initial_state_near_limit(self):
        ocp = avp_problem()
        assert ocp.x0[4] == pytest.approx(2.99)
        assert ocp.x_upper[4] == pytest.approx(3.0)
        assert ocp.n_x == N_STATES and ocp.n_u == N_INPUTS

    def test_deviation_constraint_is_box(self):
        ocp = avp_problem(VehicleParams(w_min=-2.5, w_max=2.995))
        assert ocp.x_lower[4] == pytest.approx(-2.5)
        assert ocp.x_upper[4] == pytest.approx(2.995)

    def test_curved_track_socse_solve(self):
        """A SOCSE-3 solve on a kappa(s) = 0.02 s centreline converges and certifies."""
        ocp = avp_problem(VehicleParams(curvature=lambda s: 0.02 * s,
                                        curvature_deriv=lambda s: 0.02))
        rep, sol, nlp, z = solve_method(ocp, "SOCSE-3")
        assert rep.status == "converged"
        cert = kkt_certificate(nlp, z, rep.lam_eq, rep.mu_lin, rep.mu_nl)
        assert cert["stationarity"] <= 1e-4
        assert dense_violation_scan(sol, ocp)["max"] <= 1e-6
