"""End-to-end acceptance checks, one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the summary lines.
Expensive solves are shared through module-scoped fixtures.
"""

import numpy as np
import pytest

from test_nlp import brute_force_qp, random_qp

from socenv.analysis import (dense_violation_scan, ode_rollout_error,
                             quasi_optimal_reference, solve_method,
                             trajectory_cost)
from socenv.envelope import envelope_matrix, spline_bounds
from socenv.nlp import kkt_certificate, qp_active_set
from socenv.ocp import academic_problem
from socenv.polynomial import basis_matrix, lgl_grid, spline_samples
from socenv.vehicle import (N_INPUTS, N_STATES, VehicleParams, avp_problem,
                            vehicle_dynamics, vehicle_jacobians)


def report(name, passed, detail):
    print(f"[{name}] {'PASS' if passed else 'FAIL'}: {detail}")
    return passed


@pytest.fixture(scope="module")
def academic_reference():
    return quasi_optimal_reference(academic_problem(), K_fine=1000)


@pytest.fixture(scope="module")
def academic_solves():
    ocp = academic_problem()
    out = {}
    for label in ("SOCSE-8", "SOCSE-5", "SOC-5", "MS-50"):
        rep, sol, nlp, z = solve_method(ocp, label, max_iters=400)
        out[label] = (rep, sol, nlp, z)
    return ocp, out


@pytest.fixture(scope="module")
def avp_solves():
    ocp = avp_problem()
    out = {}
    for label in ("SOCSE-5", "SOC-3"):
        rep, sol, nlp, z = solve_method(ocp, label, max_iters=400)
        out[label] = (rep, sol, nlp, z)
    return ocp, out


def test_criterion_1_quadrature_exactness():
    worst = 0.0
    worst_sum = 0.0
    for N in range(2, 11):
        g = lgl_grid(N)
        worst_sum = max(worst_sum, abs(float(np.sum(g.weights)) - 2.0))
        for deg in range(2 * N - 2):            # all degrees <= 2N - 3
            exact = 0.0 if deg % 2 else 2.0 / (deg + 1)
            got = float(g.weights @ g.nodes ** deg)
            worst = max(worst, abs(got - exact))
    ok = worst <= 1e-11 and worst_sum <= 1e-12
    assert report("criterion-1 quadrature",
                  ok, f"max monomial error {worst:.2e} (tol 1e-11), "
                      f"max weight-sum error {worst_sum:.2e} (tol 1e-12)")


def test_criterion_2_envelope_containment():
    rng = np.random.default_rng(2)
    taus = np.linspace(-1.0, 1.0, 10000)
    worst = -np.inf
    worst_end = 0.0
    deg1_gap = 0.0
    for M in range(1, 11):
        basis = basis_matrix(M)
        env = envelope_matrix(M, basis)
        alpha = rng.standard_normal((M + 1, 1000))
        vals = spline_samples(alpha, basis, taus)
        lo, hi = spline_bounds(alpha, env)
        worst = max(worst, float(np.max(lo - vals)), float(np.max(vals - hi)))
        ends = spline_samples(alpha, basis, np.array([-1.0, 1.0]))
        P = env.C @ alpha
        worst_end = max(worst_end,
                        float(np.max(np.abs(P[0] - ends[0]))),
                        float(np.max(np.abs(P[-1] - ends[1]))))
        if M == 1:
            deg1_gap = max(float(np.max(lo - vals.min(axis=0))),
                           float(np.max(vals.max(axis=0) - hi)),
                           float(np.max(vals.min(axis=0) - lo)),
                           float(np.max(hi - vals.max(axis=0))))
    ok = worst <= 1e-9 and worst_end <= 1e-10 and deg1_gap <= 1e-10
    assert report("criterion-2 envelope",
                  ok, f"max overshoot {worst:.2e} (tol 1e-9), endpoint error "
                      f"{worst_end:.2e} (tol 1e-10), degree-1 gap {deg1_gap:.2e}")


def test_criterion_3_academic_high_order(academic_solves, academic_reference):
    ocp, solves = academic_solves
    rep, sol, _, _ = solves["SOCSE-8"]
    ref = academic_reference
    cost = trajectory_cost(ocp, sol.x_at, sol.u_at)
    dev_pct = 100.0 * abs(cost - ref.cost) / ref.cost
    ts = np.linspace(ocp.t0, ocp.tf, 10000)
    ctrl_dev = float(np.max(np.abs(sol.u_at(ts) - ref.u_at(ts))))
    viol = dense_violation_scan(sol, ocp)["max"]
    ok = (rep.status == "converged" and dev_pct <= 0.1 and ctrl_dev <= 0.05
          and viol <= 1e-6 and rep.wall_time < 30.0)
    assert report("criterion-3 high-order solve",
                  ok, f"status={rep.status}, cost dev {dev_pct:.4f}% (tol 0.1%), "
                      f"ctrl dev {ctrl_dev:.4f} (tol 0.05), violation {viol:.2e} "
                      f"(tol 1e-6), time {rep.wall_time:.2f}s (tol 30s)")


def test_criterion_4_node_only_violates_between_nodes(academic_solves):
    ocp, solves = academic_solves
    _, sol_soc, _, _ = solves["SOC-5"]
    _, sol_se, _, _ = solves["SOCSE-5"]
    v_soc = dense_violation_scan(sol_soc, ocp)
    v_se = dense_violation_scan(sol_se, ocp)
    u_viol = float(np.max(v_soc["u"]))
    ok = u_viol > 1e-3 and v_se["max"] <= 1e-6
    assert report("criterion-4 node-only gap",
                  ok, f"node-only control violation {u_viol:.2e} (> 1e-3 required), "
                      f"envelope violation {v_se['max']:.2e} (tol 1e-6)")


def test_criterion_5_vehicle_cold_start(avp_solves):
    ocp, solves = avp_solves
    rep, sol, _, _ = solves["SOCSE-5"]
    rep3, sol3, _, _ = solves["SOC-3"]
    viol = dense_violation_scan(sol, ocp)["max"]
    err = ode_rollout_error(sol, ocp)
    err3 = ode_rollout_error(sol3, ocp) if rep3.status == "converged" else float("inf")
    ratio = err3 / err
    ok = (rep.status == "converged" and viol <= 1e-6 and err <= 1e-2
          and ratio >= 5.0 and rep.wall_time < 120.0)
    assert report("criterion-5 vehicle solve",
                  ok, f"status={rep.status}, violation {viol:.2e} (tol 1e-6), "
                      f"rollout err {err:.2e} (tol 1e-2), ratio vs node-only "
                      f"O(3) {ratio:.1f}x (>= 5 required), time {rep.wall_time:.1f}s "
                      f"(tol 120s)")


def test_criterion_6_faster_than_shooting(academic_solves):
    _, solves = academic_solves
    t_se = solves["SOCSE-8"][0].wall_time
    t_ms = solves["MS-50"][0].wall_time
    ok = solves["MS-50"][0].status == "converged" and t_se < t_ms
    assert report("criterion-6 speed",
                  ok, f"envelope O(8) {t_se:.3f}s vs 50-step shooting {t_ms:.3f}s")


def test_criterion_7_qp_oracle_and_certificates(academic_solves, avp_solves):
    rng = np.random.default_rng(77)
    solved = 0
    max_gap = 0.0
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
        max_gap = max(max_gap, abs(obj - oracle[0]))
        solved += 1
    worst_cert = 0.0
    n_checked = 0
    for ocp, solves in (academic_solves, avp_solves):
        for label, (rep, _, nlp, z) in solves.items():
            if rep.status != "converged":
                continue
            cert = kkt_certificate(nlp, z, rep.lam_eq, rep.mu_lin, rep.mu_nl)
            worst_cert = max(worst_cert, cert["stationarity"], cert["eq_residual"])
            n_checked += 1
    ok = max_gap <= 1e-8 and worst_cert <= 1e-4 and n_checked >= 5
    assert report("criterion-7 QP oracle",
                  ok, f"50 random QPs, max objective gap {max_gap:.2e} (tol 1e-8); "
                      f"KKT certificate on {n_checked} converged solves, worst "
                      f"residual {worst_cert:.2e} (tol 1e-4)")


def test_criterion_8_vehicle_jacobians():
    rng = np.random.default_rng(8)
    params = VehicleParams()
    h = 1e-6
    worst = 0.0
    for _ in range(100):
        x = rng.uniform(-0.8, 0.8, N_STATES)
        x[0] = rng.uniform(0.3, 4.0)
        u = rng.uniform(-0.6, 0.6, N_INPUTS)
        jx, ju = vehicle_jacobians(x, u, params)
        for j in range(N_STATES):
            e = np.zeros(N_STATES)
            e[j] = h
            fd = (vehicle_dynamics(x + e, u, params)
                  - vehicle_dynamics(x - e, u, params)) / (2 * h)
            worst = max(worst, float(np.max(np.abs(jx[:, j] - fd)
                                            / np.maximum(np.abs(fd), 1.0))))
        for j in range(N_INPUTS):
            e = np.zeros(N_INPUTS)
            e[j] = h
            fd = (vehicle_dynamics(x, u + e, params)
                  - vehicle_dynamics(x, u - e, params)) / (2 * h)
            worst = max(worst, float(np.max(np.abs(ju[:, j] - fd)
                                            / np.maximum(np.abs(fd), 1.0))))
    ok = worst < 1e-5
    assert report("criterion-8 jacobians",
                  ok, f"100 random points, worst relative error {worst:.2e} (tol 1e-5)")
