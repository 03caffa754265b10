"""SQP solver and active-set QP: hand-checkable cases, enumeration oracle,
certificates and determinism."""

import dataclasses
import itertools

import numpy as np
import pytest
from scipy.optimize import linprog

from socenv.errors import DomainError
from socenv.analysis import KKT_EQ_RESIDUAL_TOL, KKT_STATIONARITY_TOL
from socenv.nlp import fd_jacobian, kkt_certificate, qp_active_set, solve_sqp
from socenv.ocp import academic_problem
from socenv.transcription import CollocationConfig, NlpProblem, transcribe
from socenv.vehicle import avp_problem


def fd_gradient(fun, z, step: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar function."""
    z = np.asarray(z, dtype=float)
    g = np.empty(z.size)
    for j in range(z.size):
        e = np.zeros(z.size)
        e[j] = step
        g[j] = (fun(z + e) - fun(z - e)) / (2.0 * step)
    return g


def brute_force_qp(H, g, A_eq, b_eq, A, lo, hi):
    """Enumerate every active-side assignment (3^m) and keep the best KKT point.

    Independent of the solver: each candidate comes from a dense KKT solve and
    is kept only if the linear system is actually satisfied, the point is
    feasible and the inequality multipliers have the right signs.
    """
    n = g.size
    m = A.shape[0]
    n_eq = A_eq.shape[0]
    best = None
    for sides in itertools.product((0, -1, 1), repeat=m):
        act = [(j, s) for j, s in enumerate(sides) if s != 0]
        rows = [A_eq[i] for i in range(n_eq)]
        rhs = [b_eq[i] for i in range(n_eq)]
        for j, s in act:
            if s < 0 and not np.isfinite(lo[j]):
                break
            if s > 0 and not np.isfinite(hi[j]):
                break
            rows.append(A[j])
            rhs.append(lo[j] if s < 0 else hi[j])
        else:
            k = len(rows)
            K = np.zeros((n + k, n + k))
            K[:n, :n] = H
            if k:
                C = np.vstack(rows)
                K[:n, n:] = C.T
                K[n:, :n] = C
            r = np.concatenate([-g, np.asarray(rhs)])
            try:
                sol = np.linalg.solve(K, r)
            except np.linalg.LinAlgError:
                continue
            if np.max(np.abs(K @ sol - r), initial=0.0) > 1e-8:
                continue   # singular system silently "solved"
            d = sol[:n]
            mult = sol[n + n_eq:]
            ok = True
            # Sign check: stationarity reads H d + g + sum(mult_i * row_i) = 0,
            # i.e. H d + g = sum((-mult_i) * row_i); an active lower bound can
            # only push up (lam >= 0 impossible there), an upper only down.
            for (j, s), mu in zip(act, mult):
                lam = -mu   # multiplier in H d + g = sum lam_i row_i form
                if s < 0 and lam < -1e-9:
                    ok = False
                if s > 0 and lam > 1e-9:
                    ok = False
            if not ok:
                continue
            vals = A @ d if m else np.zeros(0)
            if np.any(vals < lo - 1e-9) or np.any(vals > hi + 1e-9):
                continue
            if n_eq and np.max(np.abs(A_eq @ d - b_eq)) > 1e-9:
                continue
            obj = 0.5 * d @ H @ d + g @ d
            if best is None or obj < best[0] - 1e-12:
                best = (obj, d)
    return best


def random_qp(rng, n, m, n_eq=0):
    Q = rng.standard_normal((n, n))
    H = Q @ Q.T + n * np.eye(n)
    g = rng.standard_normal(n)
    A = rng.standard_normal((m, n))
    mid = rng.standard_normal(m)
    half = rng.uniform(0.1, 1.5, m)
    lo, hi = mid - half, mid + half
    A_eq = rng.standard_normal((n_eq, n))
    b_eq = 0.1 * rng.standard_normal(n_eq)
    return H, g, A_eq, b_eq, A, lo, hi


class TestQpHandExamples:
    def test_unconstrained(self):
        res = qp_active_set(np.eye(2), np.array([-1.0, 0.0]))
        np.testing.assert_allclose(res.d, [1.0, 0.0], atol=1e-12)
        assert res.status == "optimal"

    def test_single_upper_bound(self):
        res = qp_active_set(np.eye(1), np.array([-2.0]),
                            A_ineq=np.array([[1.0]]),
                            lo=np.array([-np.inf]), hi=np.array([1.0]))
        assert res.d[0] == pytest.approx(1.0)
        assert res.mu[0] == pytest.approx(1.0)   # upper-side multiplier
        assert res.active_set == [(0, 1)]

    def test_equality_only(self):
        res = qp_active_set(np.eye(2), np.zeros(2),
                            A_eq=np.array([[1.0, 1.0]]), b_eq=np.array([2.0]))
        np.testing.assert_allclose(res.d, [1.0, 1.0], atol=1e-12)
        assert res.lam_eq[0] == pytest.approx(-1.0)

    def test_lower_bound_multiplier_sign(self):
        res = qp_active_set(np.eye(1), np.array([2.0]),
                            A_ineq=np.array([[1.0]]),
                            lo=np.array([0.0]), hi=np.array([np.inf]))
        assert res.d[0] == pytest.approx(0.0)
        assert res.mu[0] == pytest.approx(-2.0)   # lower side reported negative

    def test_infeasible_box(self):
        res = qp_active_set(np.eye(1), np.zeros(1),
                            A_ineq=np.array([[1.0], [1.0]]),
                            lo=np.array([1.0, -np.inf]),
                            hi=np.array([np.inf, -1.0]))
        assert res.status == "infeasible"

    def test_kkt_stationarity_residual(self):
        rng = np.random.default_rng(12)
        H, g, A_eq, b_eq, A, lo, hi = random_qp(rng, 5, 7, n_eq=1)
        res = qp_active_set(H, g, A_eq, b_eq, A, lo, hi)
        assert res.status == "optimal"
        r = H @ res.d + g + A_eq.T @ res.lam_eq + A.T @ res.mu
        assert np.max(np.abs(r)) < 1e-8


class TestQpAgainstEnumeration:
    def test_fifty_random_problems(self):
        rng = np.random.default_rng(2024)
        solved = 0
        while solved < 50:
            n = int(rng.integers(2, 7))
            m = int(rng.integers(1, 7))
            n_eq = int(rng.integers(0, min(n, 2) + 1))
            H, g, A_eq, b_eq, A, lo, hi = random_qp(rng, n, m, n_eq)
            oracle = brute_force_qp(H, g, A_eq, b_eq, A, lo, hi)
            res = qp_active_set(H, g, A_eq, b_eq, A, lo, hi)
            if oracle is None:
                assert res.status == "infeasible"
                continue
            assert res.status == "optimal"
            obj = 0.5 * res.d @ H @ res.d + g @ res.d
            assert obj == pytest.approx(oracle[0], abs=1e-8)
            np.testing.assert_allclose(res.d, oracle[1], atol=1e-6)
            solved += 1

    def test_determinism(self):
        rng = np.random.default_rng(7)
        H, g, A_eq, b_eq, A, lo, hi = random_qp(rng, 5, 6, 1)
        a = qp_active_set(H, g, A_eq, b_eq, A, lo, hi)
        b = qp_active_set(H, g, A_eq, b_eq, A, lo, hi)
        assert np.array_equal(a.d, b.d)
        assert a.active_set == b.active_set
        assert a.iterations == b.iterations


def feasible_qp(rng, n, m, n_eq):
    """Like random_qp, but the equalities and bounds hold at a random point."""
    H, g, A_eq, _, A, _, _ = random_qp(rng, n, m, n_eq)
    d_feas = rng.standard_normal(n)
    half = rng.uniform(0.1, 1.5, m)
    mid = A @ d_feas + rng.uniform(-1.0, 1.0, m) * half
    return H, g, A_eq, A_eq @ d_feas, A, mid - half, mid + half


def assert_qp_kkt(res, H, g, A_eq, b_eq, A, lo, hi, tol=1e-8):
    """Independent KKT test of a convex QP result (sufficient for optimality)."""
    assert res.status == "optimal"
    d, mu = res.d, res.mu
    assert np.max(np.abs(H @ d + g + A_eq.T @ res.lam_eq + A.T @ mu)) <= tol
    assert np.max(np.abs(A_eq @ d - b_eq), initial=0.0) <= 1e-9
    vals = A @ d
    assert np.all(vals >= lo - 1e-9) and np.all(vals <= hi + 1e-9)
    sides = dict(res.active_set)
    for j in range(A.shape[0]):
        if j not in sides:
            assert mu[j] == 0.0
            continue
        assert sides[j] * mu[j] >= 0.0
        bound = lo[j] if sides[j] < 0 else hi[j]
        assert abs(mu[j]) * abs(vals[j] - bound) <= tol


class TestQpHessian:
    """The QP needs H positive definite on the null space of A_eq, not on the full space."""

    @pytest.mark.parametrize("A_eq, b_eq", [(None, None), (np.array([[1.0, 0.0]]), np.zeros(1))],
                             ids=["no_equalities", "one_equality"])
    def test_indefinite_on_null_space_raises(self, A_eq, b_eq):
        with pytest.raises(ValueError, match="not positive definite"):
            qp_active_set(np.diag([1.0, -1.0]), np.zeros(2), A_eq, b_eq)

    def test_indefinite_off_null_space_solves(self):
        H = np.diag([-1.0, 1.0])
        g = np.array([0.5, -2.0])
        A_eq, b_eq = np.array([[1.0, 0.0]]), np.array([0.5])
        A, lo, hi = np.array([[1.0, 1.0]]), np.array([-np.inf]), np.array([1.0])
        res = qp_active_set(H, g, A_eq, b_eq, A, lo, hi)
        assert_qp_kkt(res, H, g, A_eq, b_eq, A, lo, hi)
        np.testing.assert_allclose(res.d, [0.5, 0.5], atol=1e-12)


class TestQpEqualityElimination:
    H = np.eye(3)
    g = np.array([-1.0, 0.5, 2.0])
    A_eq = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
    b_eq = np.array([1.0, -1.0])
    # Half the sum of the two rows above: dependent, and the smallest after
    # projecting them out, so the pivoted QR drops it.
    row3 = np.array([[0.5, 1.0, 0.5]])

    def test_consistent_redundant_row_is_dropped(self):
        base = qp_active_set(self.H, self.g, self.A_eq, self.b_eq)
        res = qp_active_set(self.H, self.g, np.vstack([self.A_eq, self.row3]),
                            np.append(self.b_eq, 0.5 * self.b_eq.sum()))
        assert res.status == base.status == "optimal"
        np.testing.assert_allclose(res.d, base.d, atol=1e-12)
        np.testing.assert_allclose(res.lam_eq[:2], base.lam_eq, atol=1e-12)
        assert res.lam_eq[2] == 0.0

    def test_inconsistent_row_is_infeasible(self):
        res = qp_active_set(self.H, self.g, np.vstack([self.A_eq, self.row3]),
                            np.append(self.b_eq, 0.5 * self.b_eq.sum() + 1e-3))
        assert res.status == "infeasible"

    def test_square_equality_system(self):
        A_eq = np.vstack([self.A_eq, [[1.0, 0.0, 2.0]]])
        b_eq = np.array([1.0, -1.0, 3.0])
        d_eq = np.linalg.solve(A_eq, b_eq)
        A = np.array([[1.0, 0.0, 0.0]])
        res = qp_active_set(self.H, self.g, A_eq, b_eq, A,
                            np.array([d_eq[0] - 1.0]), np.array([np.inf]))
        assert_qp_kkt(res, self.H, self.g, A_eq, b_eq, A,
                      np.array([d_eq[0] - 1.0]), np.array([np.inf]))
        np.testing.assert_allclose(res.d, d_eq, atol=1e-12)
        res = qp_active_set(self.H, self.g, A_eq, b_eq, A,
                            np.array([d_eq[0] + 1.0]), np.array([np.inf]))
        assert res.status == "infeasible"

    @pytest.mark.parametrize("seed", range(20))
    def test_equality_heavy_kkt(self, seed):
        """n = 30, 20 equalities, 15 two-sided rows: out of the 3^m oracle's reach."""
        data = feasible_qp(np.random.default_rng(seed), 30, 15, 20)
        res = qp_active_set(*data)
        assert_qp_kkt(res, *data)
        again = qp_active_set(*data)
        assert np.array_equal(res.d, again.d)
        assert np.array_equal(res.lam_eq, again.lam_eq)
        assert np.array_equal(res.mu, again.mu)
        assert res.active_set == again.active_set
        assert res.iterations == again.iterations

    def test_equality_heavy_infeasibility_matches_lp(self):
        for seed in range(20):
            H, g, A_eq, b_eq, A, lo, hi = random_qp(np.random.default_rng(seed), 30, 15, 20)
            res = qp_active_set(H, g, A_eq, b_eq, A, lo, hi)
            lp = linprog(np.zeros(30), A_ub=np.vstack([A, -A]), b_ub=np.concatenate([hi, -lo]),
                         A_eq=A_eq, b_eq=b_eq, bounds=(None, None), method="highs")
            assert lp.status in (0, 2)
            assert (res.status == "infeasible") == (lp.status == 2)
            if lp.status == 0:
                assert_qp_kkt(res, H, g, A_eq, b_eq, A, lo, hi)


class TestFiniteDifferences:
    def test_jacobian_of_linear_map(self):
        A = np.array([[1.0, 2.0], [3.0, -1.0], [0.0, 4.0]])
        J = fd_jacobian(lambda z: A @ z, np.array([0.3, -0.7]))
        np.testing.assert_allclose(J, A, atol=1e-9)

    def test_gradient_of_quadratic(self):
        g = fd_gradient(lambda z: float(z @ z), np.array([1.0, -2.0]))
        np.testing.assert_allclose(g, [2.0, -4.0], atol=1e-8)

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            fd_jacobian(lambda z: z, np.zeros(1), step=0.0)


def small_nlp(n=2):
    """min 1/2 |z|^2 s.t. z_1 = 1, no inequalities."""
    return NlpProblem(
        n_vars=n,
        objective=lambda z: 0.5 * float(z @ z),
        gradient=lambda z: z.copy(),
        hessian=lambda z, lam: np.eye(n),
        eq_fun=lambda z: np.array([z[0] - 1.0]),
        eq_jac=lambda z: np.eye(n)[:1],
        A_ineq=np.zeros((0, n)),
        ineq_lower=np.zeros(0),
        ineq_upper=np.zeros(0),
    )


class TestSolveSqp:
    def test_equality_projection(self):
        z, rep = solve_sqp(small_nlp(), np.zeros(2))
        assert rep.status == "converged"
        np.testing.assert_allclose(z, [1.0, 0.0], atol=1e-8)
        assert rep.iterations <= 3
        # The multipliers are declared fields: z + J^T lam = 0 gives lam = -1.
        assert {"lam_eq", "mu_lin", "mu_nl"} <= {f.name for f in dataclasses.fields(rep)}
        np.testing.assert_allclose(rep.lam_eq, [-1.0], atol=1e-8)
        assert rep.mu_lin.shape == (0,) and rep.mu_nl.shape == (0,)

    def test_clipped_quadratic(self):
        nlp = NlpProblem(
            n_vars=1,
            objective=lambda z: float((z[0] - 2.0) ** 2),
            gradient=lambda z: np.array([2.0 * (z[0] - 2.0)]),
            hessian=lambda z, lam: np.array([[2.0]]),
            eq_fun=lambda z: np.zeros(0),
            eq_jac=lambda z: np.zeros((0, 1)),
            A_ineq=np.eye(1),
            ineq_lower=np.array([0.0]),
            ineq_upper=np.array([1.0]),
        )
        z, rep = solve_sqp(nlp, np.zeros(1))
        assert rep.status == "converged"
        assert z[0] == pytest.approx(1.0, abs=1e-8)

    def test_nonlinear_equality_rosenbrock_circle(self):
        """min (1-z1)^2 + (z2-z1^2)^2 on the unit circle."""
        def obj(z):
            return float((1 - z[0]) ** 2 + (z[1] - z[0] ** 2) ** 2)

        def grad(z):
            r = z[1] - z[0] ** 2
            return np.array([-2.0 * (1 - z[0]) - 4.0 * z[0] * r, 2.0 * r])

        def hess(z, lam):
            """Objective Hessian plus lam times the circle's Hessian 2I."""
            H = np.array([[2.0 - 4.0 * z[1] + 12.0 * z[0] ** 2, -4.0 * z[0]],
                          [-4.0 * z[0], 2.0]])
            return H + 2.0 * lam[0] * np.eye(2)
        nlp = NlpProblem(
            n_vars=2, objective=obj, gradient=grad, hessian=hess,
            eq_fun=lambda z: np.array([z @ z - 1.0]),
            eq_jac=lambda z: 2.0 * z[None, :],
            A_ineq=np.zeros((0, 2)),
            ineq_lower=np.zeros(0), ineq_upper=np.zeros(0),
        )
        z, rep = solve_sqp(nlp, np.array([0.5, 0.5]), max_iters=100)
        assert rep.status == "converged"
        assert z @ z == pytest.approx(1.0, abs=1e-8)
        cert = kkt_certificate(nlp, z, rep.lam_eq, rep.mu_lin)
        assert cert["stationarity"] < 1e-5
        assert cert["eq_residual"] < 1e-8

    def test_nonlinear_inequality(self):
        """min |z - (2,0)|^2 s.t. |z|^2 <= 1 -> z* = (1, 0)."""
        nlp = NlpProblem(
            n_vars=2,
            objective=lambda z: float((z[0] - 2.0) ** 2 + z[1] ** 2),
            gradient=lambda z: np.array([2.0 * (z[0] - 2.0), 2.0 * z[1]]),
            hessian=lambda z, lam: 2.0 * np.eye(2),
            eq_fun=lambda z: np.zeros(0),
            eq_jac=lambda z: np.zeros((0, 2)),
            A_ineq=np.zeros((0, 2)),
            ineq_lower=np.zeros(0), ineq_upper=np.zeros(0),
            ineq_fun=lambda z: np.array([z @ z - 1.0]),
        )
        z, rep = solve_sqp(nlp, np.zeros(2), max_iters=100)
        assert rep.status == "converged"
        np.testing.assert_allclose(z, [1.0, 0.0], atol=1e-6)

    def test_academic_cold_start_converges(self):
        nlp = transcribe(academic_problem(), CollocationConfig(M=8))
        z, rep = solve_sqp(nlp, np.zeros(nlp.n_vars))
        assert rep.status == "converged"
        assert rep.max_eq_residual <= 1e-8
        assert rep.max_ineq_violation <= 1e-9
        cert = kkt_certificate(nlp, z, rep.lam_eq, rep.mu_lin)
        assert cert["stationarity"] < 1e-5
        assert cert["eq_residual"] < 1e-8
        assert cert["complementarity"] < 1e-5

    def test_deterministic_across_runs(self):
        nlp = transcribe(academic_problem(), CollocationConfig(M=5))
        z1, r1 = solve_sqp(nlp, np.zeros(nlp.n_vars))
        z2, r2 = solve_sqp(nlp, np.zeros(nlp.n_vars))
        assert np.array_equal(z1, z2)
        assert r1.iterations == r2.iterations
        assert r1.objective == r2.objective

    def test_rejects_bad_initial_shape(self):
        with pytest.raises(ValueError):
            solve_sqp(small_nlp(), np.zeros(3))

    @pytest.mark.parametrize("max_iters", [0, -3])
    def test_rejects_max_iters_below_one(self, max_iters):
        with pytest.raises(ValueError, match="max_iters"):
            solve_sqp(small_nlp(), np.zeros(2), max_iters=max_iters)

    def test_inconsistent_linearisation_ends_as_qp_failure(self):
        """min 1/2 z^2 s.t. z - 2 = 0, 0 <= z <= 1 has no feasible point.

        The first QP is infeasible and its first relaxation (target z = 1)
        is not, so the step reaches z = 1; there the QP and all five
        relaxations are infeasible and the solve ends as ``qp_failure``.
        """
        nlp = NlpProblem(
            n_vars=1,
            objective=lambda z: 0.5 * float(z @ z),
            gradient=lambda z: z.copy(),
            hessian=lambda z, lam: np.eye(1),
            eq_fun=lambda z: z - 2.0,
            eq_jac=lambda z: np.eye(1),
            A_ineq=np.eye(1),
            ineq_lower=np.zeros(1), ineq_upper=np.ones(1),
        )
        z, rep = solve_sqp(nlp, np.zeros(1))
        assert rep.status == "qp_failure"
        assert rep.iterations == 2
        assert rep.relaxed_qp_steps == 6
        assert z[0] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("seed", [4, 5, 27, 98])
    def test_seeded_avp_socse3_converges(self, seed):
        """AVP SOCSE-3 from a perfbench-seeded start converges with a passing certificate.

        Under an l1 exact-penalty merit these seeds needed 61-89 SQP
        iterations, most of them at step 1/32 or 1/64; the filter accepts
        those steps and each seed takes 23.
        """
        rng = np.random.default_rng(seed)
        x0 = np.zeros(10)
        x0[0] = rng.uniform(0.8, 1.2)
        x0[4] = rng.uniform(2.90, 2.99)
        nlp = transcribe(avp_problem(x0=x0), CollocationConfig(M=3))
        z, rep = solve_sqp(nlp, np.zeros(nlp.n_vars))
        assert rep.status == "converged"
        assert rep.iterations <= 30
        cert = kkt_certificate(nlp, z, rep.lam_eq, rep.mu_lin, rep.mu_nl)
        assert cert["stationarity"] <= KKT_STATIONARITY_TOL
        assert cert["eq_residual"] <= KKT_EQ_RESIDUAL_TOL

    def test_failed_line_search_at_kkt_point_converges(self):
        """The start is within KKT_TOL of the optimum and every other point is
        outside the domain: the first line search fails, and the solve ends
        there as converged because the start is a KKT point."""
        nlp = small_nlp()
        z0 = np.array([1.0, 1e-9])

        def obj(z):
            if np.any(z != z0):
                raise DomainError(f"z={z} outside the model's domain")
            return 0.5 * float(z @ z)
        nlp.objective = obj
        z, rep = solve_sqp(nlp, z0)
        assert rep.status == "converged"
        assert rep.iterations == 1
        assert np.array_equal(z, z0)
        np.testing.assert_allclose(rep.lam_eq, [-1.0], atol=1e-8)

    def test_line_search_failure_away_from_kkt_point(self):
        """Every trial point is outside the domain, so the first line search
        fails at the infeasible start and the solve ends there."""
        nlp = small_nlp()
        z0 = np.zeros(2)

        def obj(z):
            if np.any(z != z0):
                raise DomainError(f"z={z} outside the model's domain")
            return 0.5 * float(z @ z)
        nlp.objective = obj
        z, rep = solve_sqp(nlp, z0)
        assert rep.status == "line_search_failure"
        assert rep.iterations == 1
        assert np.array_equal(z, z0)

    def test_domain_error_at_trial_point_backtracks(self):
        """min (z-2)^2 with the objective undefined past z = 3: the first trial, z = 4, is rejected.

        The model Hessian is 1, half the true curvature, so the full step
        overshoots to z = 4; with the true 2 it would land on z = 2.
        """
        trials = []

        def obj(z):
            trials.append(float(z[0]))
            if z[0] > 3.0:
                raise DomainError(f"z={z[0]} outside the model's domain")
            return float((z[0] - 2.0) ** 2)
        nlp = NlpProblem(
            n_vars=1, objective=obj,
            gradient=lambda z: np.array([2.0 * (z[0] - 2.0)]),
            hessian=lambda z, lam: np.eye(1),
            eq_fun=lambda z: np.zeros(0),
            eq_jac=lambda z: np.zeros((0, 1)),
            A_ineq=np.zeros((0, 1)),
            ineq_lower=np.zeros(0), ineq_upper=np.zeros(0),
        )
        z, rep = solve_sqp(nlp, np.zeros(1))
        assert trials[:3] == [0.0, 4.0, 2.0]
        assert rep.status == "converged"
        assert z[0] == pytest.approx(2.0, abs=1e-12)

    def test_domain_error_at_start_propagates(self):
        def outside(z):
            raise DomainError("z0 outside the model's domain")
        nlp = small_nlp()
        nlp.objective = outside
        with pytest.raises(DomainError):
            solve_sqp(nlp, np.zeros(2))
