"""Oracles and metrics: fine-grid reference solves, rollout error, violation
scans, and benchmark table assembly.

Cost deviations are never computed from solver-reported objectives: every
trajectory (method or reference) is re-integrated with the same high-resolution
Simpson rule, so quadrature differences between transcriptions cancel out.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, asdict
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import NonConvergenceError
from .integrators import rk4_step, rk4_step_timed, rk4_step_jacobians
from .nlp import MAX_ITERS, feasibility_tolerance, solve_sqp, kkt_certificate
from .ocp import OcpProblem
from .polynomial import TimeMap
from .transcription import (MS_SUBSTEPS, CollocationConfig, NlpProblem, SplineSolution,
                            decode, transcribe, transcribe_multiple_shooting)

COST_POINTS = 4097      # odd, so the composite-Simpson weights close
REF_INTERVALS = 1000    # reference control intervals, one RK4 step each
REF_FTOL = 1e-12        # L-BFGS-B ftol of the reference solve
REF_MAX_OUTER = 8       # augmented-Lagrangian rounds for the state box
REF_STATE_TOL = 1e-8    # state-box violation the reference accepts
# The KKT certificate a converged solve must pass, or its row reads kkt_reject.
KKT_STATIONARITY_TOL = 1e-4
KKT_EQ_RESIDUAL_TOL = 1e-6


@dataclass
class ReferenceTrajectory:
    """Fine-grid quasi-optimal rollout: node times/states, interval controls."""

    times: np.ndarray          # (K+1,)
    states: np.ndarray         # (K+1, n_x)
    controls: np.ndarray       # (K, n_u)
    iterations: int
    cost: float = float("nan")   # shared-integrator trajectory cost; NaN for shooting

    def u_at(self, t):
        """Piecewise-constant control lookup (vectorized)."""
        t = np.asarray(t, dtype=float)
        k = np.clip(np.searchsorted(self.times, t, side="right") - 1,
                    0, self.controls.shape[0] - 1)
        return self.controls[k]

    def x_at(self, t):
        """Linear interpolation of the node states (vectorized)."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        out = np.empty((t.size, self.states.shape[1]))
        for c in range(self.states.shape[1]):
            out[:, c] = np.interp(t, self.times, self.states[:, c])
        return out


def trajectory_cost(ocp: OcpProblem, x_at: Callable, u_at: Callable) -> float:
    """Composite-Simpson integral of the stage cost over ``COST_POINTS`` uniform times.

    ``x_at``/``u_at`` must accept a vector of physical times.
    """
    n = COST_POINTS
    ts = np.linspace(ocp.t0, ocp.tf, n)
    X = np.atleast_2d(x_at(ts))
    U = np.atleast_2d(u_at(ts))
    vals = np.array([ocp.stage_cost(X[i], U[i]) for i in range(n)])
    h = (ocp.tf - ocp.t0) / (n - 1)
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    total = float(h / 3.0 * (w @ vals))
    if ocp.terminal_cost is not None:
        total += float(ocp.terminal_cost(X[-1]))
    return total


def _rollout(ocp: OcpProblem, U: np.ndarray, K: int, substeps: int):
    """RK4 rollout of piecewise-constant controls; returns node states."""
    dt = (ocp.tf - ocp.t0) / K
    h = dt / substeps
    X = np.empty((K + 1, ocp.n_x))
    X[0] = ocp.x0
    for k in range(K):
        x = X[k]
        for _ in range(substeps):
            x = rk4_step(ocp.dynamics, x, U[k], h)
        X[k + 1] = x
    return X


def minimize(fun, x0, **kwargs):
    """scipy.optimize.minimize, imported on first use: scipy.optimize adds ~0.5 s
    to `import socenv`, and only the reference solve needs it. It stays a
    module attribute that the reference looks up at call time, so perfbench's
    tracer can wrap it."""
    from scipy.optimize import minimize as scipy_minimize
    return scipy_minimize(fun, x0, **kwargs)


def quasi_optimal_reference(ocp: OcpProblem) -> ReferenceTrajectory:
    """Fine-grid quasi-optimal trajectory for cost/control comparisons.

    Piecewise-constant controls on ``REF_INTERVALS`` intervals, each one RK4
    step, are optimized by L-BFGS-B with discrete-adjoint gradients through
    the rollout; control boxes enter as variable bounds, state boxes through
    an augmented-Lagrangian outer loop of at most ``REF_MAX_OUTER`` rounds.
    An infinite state bound contributes nothing to the augmented Lagrangian,
    its multiplier or the round-end check.
    On the academic problem the first round already meets the state box, so
    the multipliers are never updated; on AVP the bound w <= 3.0 is active
    from the start and the loop runs several rounds.
    """
    K, n_x, n_u = REF_INTERVALS, ocp.n_x, ocp.n_u
    dt = (ocp.tf - ocp.t0) / K

    fx_fun, fu_fun = ocp.dynamics_jacobians

    x_lo, x_hi = ocp.x_lower, ocp.x_upper
    mu_lo = np.zeros((K + 1, n_x))
    mu_hi = np.zeros((K + 1, n_x))
    rho = 10.0

    def forward(U):
        """Rollout caching the per-step Jacobians for the adjoint pass."""
        X = np.empty((K + 1, n_x))
        X[0] = ocp.x0
        jxs = np.empty((K, n_x, n_x))
        jus = np.empty((K, n_x, n_u))
        for k in range(K):
            X[k + 1], jxs[k], jus[k] = rk4_step_jacobians(ocp.dynamics, fx_fun, fu_fun,
                                                          X[k], U[k], dt)
        return X, jxs, jus

    def fun_and_grad(uflat):
        U = uflat.reshape(K, n_u)
        X, jxs, jus = forward(U)
        # Augmented-Lagrangian value V[k] and gradient G[k] of each node's state
        # box; an infinite bound is -inf before the clamp and adds nothing.
        below = np.maximum(x_lo - X + mu_lo / rho, 0.0)
        above = np.maximum(X - x_hi + mu_hi / rho, 0.0)
        V = (0.5 * rho * (np.sum(below ** 2, axis=1) - np.sum((mu_lo / rho) ** 2, axis=1))
             + 0.5 * rho * (np.sum(above ** 2, axis=1) - np.sum((mu_hi / rho) ** 2, axis=1)))
        G = rho * above - rho * below
        val = 0.0
        gU = np.zeros((K, n_u))
        lam = np.zeros(n_x)
        if ocp.terminal_cost is not None:
            val += float(ocp.terminal_cost(X[K]))
            lam = np.asarray(ocp.terminal_cost_grad(X[K]), dtype=float)
        val += V[K]
        lam = lam + G[K]
        for k in range(K - 1, -1, -1):
            val += dt * ocp.stage_cost(X[k], U[k])
            lx, lu = ocp.stage_cost_grad(X[k], U[k])
            val += V[k]
            gU[k] = dt * lu + jus[k].T @ lam
            lam = dt * lx + G[k] + jxs[k].T @ lam
        return val, gU.ravel()

    bounds = [(ocp.u_lower[c], ocp.u_upper[c]) for c in range(n_u)] * K
    u0 = np.tile(0.5 * (np.clip(ocp.u_lower, -1e3, 1e3)
                        + np.clip(ocp.u_upper, -1e3, 1e3)), K)

    uflat = u0
    total_iters = 0
    for _ in range(REF_MAX_OUTER):
        res = minimize(fun_and_grad, uflat, jac=True, method="L-BFGS-B",
                       bounds=bounds,
                       options={"maxiter": 2000, "ftol": REF_FTOL, "gtol": 1e-10})
        uflat = res.x
        total_iters += int(res.nit)
        U = uflat.reshape(K, n_u)
        X = _rollout(ocp, U, K, 1)
        if np.max(_box_violation(X, x_lo, x_hi)) <= REF_STATE_TOL:
            break
        mu_lo = np.maximum(mu_lo + rho * (x_lo - X), 0.0)
        mu_hi = np.maximum(mu_hi + rho * (X - x_hi), 0.0)
        rho *= 10.0
    else:
        raise NonConvergenceError("reference solve: state box not satisfied "
                                  f"after {REF_MAX_OUTER} outer iterations")

    times = ocp.t0 + dt * np.arange(K + 1)
    ref = ReferenceTrajectory(times=times, states=X, controls=U, iterations=total_iters)
    ref.cost = trajectory_cost(ocp, ref.x_at, ref.u_at)
    return ref


def ode_rollout_error(solution: SplineSolution, ocp: OcpProblem,
                      dt: float = 1e-4) -> float:
    """Max deviation between the state spline and an RK4 rollout of its control.

    The ``n = round((tf - t0) / dt)`` steps start at ``t0 + k dt``.  The
    control spline is sampled once at every RK4 stage time, the grid
    ``t0 + j dt / 2`` for ``j = 0..2n``, and the state spline once at every
    step end; times past ``tf`` (when ``dt`` does not divide the horizon) clamp
    to ``tf``.  The error is the max over steps and channels of
    ``|rollout - spline|``.
    """
    if dt > 1e-3:
        raise ValueError("dt must be at most 1e-3")
    t0, tf = solution.time_map.t0, solution.time_map.tf
    n = int(round((tf - t0) / dt))
    ts = np.minimum(t0 + 0.5 * dt * np.arange(2 * n + 1), tf)
    U = solution.u_at(ts)
    X = solution.x_at(ts[2::2])
    R = np.empty((n, ocp.n_x))
    x = np.asarray(ocp.x0, dtype=float).copy()
    for k in range(n):
        x = rk4_step_timed(ocp.dynamics, x, U[2 * k], U[2 * k + 1], U[2 * k + 2], dt)
        R[k] = x
    np.subtract(R, X, out=R)
    return float(np.max(np.abs(R, out=R), initial=0.0))


def _box_violation(values: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Largest violation of each channel (column) of ``values`` outside
    [lower, upper]: 0 inside the box, and an infinite bound contributes nothing.

    Reducing before subtracting gives the same numbers, because rounding is
    monotone, without two temporaries the size of ``values``.
    """
    return np.maximum(np.maximum(values.max(axis=0) - upper, lower - values.min(axis=0)), 0.0)


def dense_violation_scan(solution: SplineSolution, ocp: OcpProblem,
                         samples: int = 10000) -> dict:
    """Per-channel max box violation over a uniform dense time grid; an
    infinite bound contributes nothing."""
    if samples < 1000:
        raise ValueError("samples must be at least 1e3")
    _, X, U = solution.sample_dense(samples)
    vx = _box_violation(X, ocp.x_lower, ocp.x_upper)
    vu = _box_violation(U, ocp.u_lower, ocp.u_upper)
    return {"x": vx, "u": vu,
            "max": float(max(np.max(vx, initial=0.0), np.max(vu, initial=0.0)))}


@dataclass
class BenchmarkRow:
    """One benchmark table row; NaN marks quantities a failed solve can't provide."""

    method: str
    solve_time_s: float = float("nan")
    cost_dev_pct: float = float("nan")
    ode_err: float = float("nan")
    max_violation: float = float("nan")
    ctrl_dev: float = float("nan")
    status: str = "not_run"


CSV_COLUMNS = ("method", "solve_time_s", "cost_dev_pct", "ode_err",
               "max_violation", "ctrl_dev")


def parse_method(label: str):
    """Split a method label like 'SOCSE-8' / 'MS-50' into (family, order)."""
    try:
        family, order = label.rsplit("-", 1)
        order = int(order)
    except (ValueError, AttributeError):
        raise ValueError(f"malformed method label {label!r}; expected FAMILY-ORDER")
    family = family.upper()
    if family not in ("SOCSE", "SOC", "PS", "MS"):
        raise ValueError(f"unknown method family {family!r}")
    if order < 1:
        raise ValueError("method order must be positive")
    return family, order


def canonical_point(nlp: NlpProblem, z: np.ndarray) -> np.ndarray:
    """Move each control channel of a collocation solution on N = M nodes to one canonical point.

    Adding t * P (``nlp.free_control_direction``) to a control channel
    changes no node value, so the objective, the collocation rows and the
    node rows cannot choose t, and an optimum is a segment of such points
    that differ in their rollout error, control violation and control
    deviation.  The canonical t zeroes the channel's degree-M coefficient
    (the node interpolant), clipped to the interval where every linear row
    holds.  A row within the QP's feasibility tolerance of its bound counts
    as active, so a channel pinned by active rows on both sides does not
    move.  Returns z itself when there is no such direction (PS and MS).
    """
    P = nlp.free_control_direction
    if P is None:
        return z
    layout = nlp.layout
    A, lo, hi = nlp.A_ineq, nlp.ineq_lower, nlp.ineq_upper
    tol = feasibility_tolerance(lo, hi)
    z = z.copy()
    for ch in range(layout.n_x, layout.n_x + layout.n_u):
        cols = slice(ch * layout.rows, (ch + 1) * layout.rows)
        s = A[:, cols] @ P
        sees = np.abs(s) > 1e-12 * np.max(np.abs(P))
        s, r = s[sees], A[sees] @ z
        room_up = hi[sees] - r
        room_down = r - lo[sees]
        room_up[room_up <= tol] = 0.0
        room_down[room_down <= tol] = 0.0
        # Row j holds for t between -room_down/s and room_up/s.
        ends = np.stack([-room_down / s, room_up / s])
        t_lo = float(np.max(ends.min(axis=0), initial=-np.inf))
        t_hi = float(np.min(ends.max(axis=0), initial=np.inf))
        t = min(max(-z[cols][-1] / P[-1], t_lo), t_hi)
        if t != 0.0:
            z[cols] += t * P
    return z


def solve_method(ocp: OcpProblem, label: str, max_iters: int = MAX_ITERS):
    """Solve one method in at most ``max_iters`` SQP iterations; returns (report, solution-like, nlp, z).

    Collocation methods return a SplineSolution; multiple shooting returns the
    ReferenceTrajectory-shaped discrete solution.
    """
    family, order = parse_method(label)
    if family == "MS":
        nlp = transcribe_multiple_shooting(ocp, order)
        z, rep = solve_sqp(nlp, np.zeros(nlp.n_vars), max_iters)
        lay = nlp.layout
        K = order
        dt = (ocp.tf - ocp.t0) / K
        sol = ReferenceTrajectory(
            times=ocp.t0 + dt * np.arange(K + 1),
            states=lay.states(z).copy(),
            controls=lay.controls(z).copy(),
            iterations=rep.iterations)
        return rep, sol, nlp, z
    mode = {"SOCSE": "socse", "SOC": "soc", "PS": "pseudospectral"}[family]
    nlp = transcribe(ocp, CollocationConfig(M=order, mode=mode))
    z, rep = solve_sqp(nlp, np.zeros(nlp.n_vars), max_iters)
    z = canonical_point(nlp, z)
    sol = decode(z, nlp, TimeMap(ocp.t0, ocp.tf))
    return rep, sol, nlp, z


def run_benchmark(ocp: OcpProblem, methods: Sequence[str], samples: int,
                  reference: Optional[ReferenceTrajectory] = None,
                  max_iters: int = MAX_ITERS,
                  skip_reference: bool = False) -> list:
    """Run each method against the shared reference; failures fill a row too.

    A converged solve must pass the KKT certificate, or its row reads
    ``kkt_reject`` with NaN metrics.  With ``skip_reference`` no reference is
    solved and ``cost_dev_pct`` and ``ctrl_dev`` stay NaN.
    """
    rows = []
    if reference is None and methods and not skip_reference:
        reference = quasi_optimal_reference(ocp)
    for label in methods:
        row = BenchmarkRow(method=label)
        try:
            rep, sol, nlp, z = solve_method(ocp, label, max_iters)
            row.solve_time_s = rep.wall_time
            row.status = rep.status
            if rep.status != "converged":
                rows.append(row)
                continue
            cert = kkt_certificate(nlp, z, rep.lam_eq, rep.mu_lin, rep.mu_nl)
            if (cert["stationarity"] > KKT_STATIONARITY_TOL
                    or cert["eq_residual"] > KKT_EQ_RESIDUAL_TOL):
                row.status = "kkt_reject"
                rows.append(row)
                continue
            if reference is not None:
                cost = trajectory_cost(ocp, sol.x_at, sol.u_at)
                row.cost_dev_pct = 100.0 * (cost - reference.cost) / reference.cost
                ts = np.linspace(ocp.t0, ocp.tf, samples)
                row.ctrl_dev = float(np.max(np.abs(np.atleast_2d(sol.u_at(ts))
                                                   - reference.u_at(ts))))
            if isinstance(sol, SplineSolution):
                row.ode_err = ode_rollout_error(sol, ocp)
                row.max_violation = dense_violation_scan(sol, ocp, samples)["max"]
            else:
                # Shooting solutions: defects are equality constraints, so the
                # rollout error is the converged defect level; boxes are
                # enforced exactly at the nodes.
                X = _rollout(ocp, sol.controls, sol.controls.shape[0], MS_SUBSTEPS)
                row.ode_err = float(np.max(np.abs(X - sol.states)))
                vx = _box_violation(sol.states, ocp.x_lower, ocp.x_upper)
                vu = _box_violation(sol.controls, ocp.u_lower, ocp.u_upper)
                row.max_violation = float(max(np.max(vx), np.max(vu)))
        except Exception as exc:   # noqa: BLE001 -- per-row failure is recorded
            row.status = f"error: {type(exc).__name__}: {exc}"
        rows.append(row)
    return rows


def rows_to_csv(rows: Sequence[BenchmarkRow], include_time: bool = True) -> str:
    """Fixed-column CSV; drop the wall-time column for byte-reproducible output."""
    cols = [c for c in CSV_COLUMNS if include_time or c != "solve_time_s"]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(cols)
    for row in rows:
        writer.writerow([repr(getattr(row, c)) if isinstance(getattr(row, c), float)
                         else getattr(row, c) for c in cols])
    return buf.getvalue()


def rows_to_json(rows: Sequence[BenchmarkRow], config: Optional[dict] = None) -> str:
    """Strict-JSON mirror of the benchmark table with a config echo for provenance.

    Non-finite metrics (NaN for quantities a row does not provide) become ``null``.
    """
    def finite_or_none(value):
        return None if isinstance(value, float) and not math.isfinite(value) else value

    payload = {"config": config or {},
               "rows": [{k: finite_or_none(v) for k, v in asdict(r).items()} for r in rows]}
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
