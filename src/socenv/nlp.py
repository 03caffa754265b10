"""Dense SQP solver with an active-set QP subsolver.

Targets small NLPs (tens to a few hundred variables) with smooth nonlinear
equality constraints, two-sided linear inequalities ``lo <= A z <= hi`` and
optional nonlinear inequalities ``t(z) <= 0``.  Derivatives are required:
the objective gradient, the equality Jacobian and the Lagrangian Hessian
come from the problem.

One Hessian policy: the QP uses the problem's Lagrangian Hessian with its
eigenvalues floored at ``GN_FLOOR``, evaluated at z0 with zero multipliers
and then at every accepted point with the latest QP equality multipliers.
The floor acts on the full space, because the exact Lagrangian Hessian of a
collocation NLP is indefinite away from the optimum: without the floor the
AVP SOC-5, SOCSE-5 and SOCSE-8 solves end at the iteration cap.  The floored
Hessian is positive definite, so every QP the solver builds is strictly
convex.

Steps are globalized by a backtracking filter line search (Fletcher and
Leyffer, Math. Prog. 91, 2002; Waechter and Biegler, SIAM J. Optim. 16,
2005), which needs no penalty parameter.  The infeasibility theta is
|c|_1 plus the linear-row violation plus the positive part of t.  A trial
point is accepted when no filter entry dominates it and either f falls on
Armijo's rule (an f-type step: the iterate is nearly feasible and the step a
descent direction for f) or theta or f falls by a margin of theta, and then
the current (theta, f), less that margin, joins the filter.  A second-order
correction is tried when the full step does not lower theta, and a line search
that accepts no trial resets the filter once and starts again.  A trial point
outside the model's domain is a rejected trial.  f, c, t and the linear-row
violation are evaluated once per point.

One stopping rule: the point is a KKT point when its feasibility is at most
``EQ_TOL`` and the Lagrangian gradient at the latest QP multipliers is at
most ``KKT_TOL``.  It is tested after every accepted step, and when the QP
step is zero or the line search accepts no trial; those two end the solve,
as ``converged`` at a KKT point and ``line_search_failure`` elsewhere.  The QP
subsolver uses null-space elimination of equalities, then dual active-set on
inequalities.  Everything is deterministic: fixed pivoting rules, no
randomness.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .transcription import NlpProblem

MAX_ITERS = 400         # SQP iteration cap, the solver's one setting
EQ_TOL = 1e-8           # feasibility tolerance for convergence
KKT_TOL = 1e-6          # stationarity tolerance for convergence
LS_BACKTRACK = 0.5
LS_ARMIJO = 1e-4
MAX_BACKTRACKS = 30
# Filter constants of Waechter and Biegler (2005); theta is scaled by max(1, theta(z0)).
FILTER_THETA_MAX = 1e4   # no trial at or above this infeasibility is accepted
FILTER_THETA_MIN = 1e-4  # f-type steps only at or below this infeasibility
FILTER_MARGIN = 1e-5     # gamma_theta = gamma_phi: the decrease an h-type step needs
SWITCH_EXP_F = 2.3       # s_phi, exponent of the predicted f decrease
SWITCH_EXP_THETA = 1.1   # s_theta, exponent of the infeasibility
GN_FLOOR = 1e-2         # eigenvalue floor applied to a supplied Lagrangian Hessian

_ACTIVE_TOL = 1e-10
_RANK_TOL = 1e-10     # |R_kk| / |R_00| below which an equality row is dependent


@dataclass
class SolveReport:
    """Outcome of ``solve_sqp`` with the final multiplier estimates for certificate checks."""

    status: str
    iterations: int
    objective: float
    max_eq_residual: float
    max_ineq_violation: float
    wall_time: float
    relaxed_qp_steps: int
    lam_eq: np.ndarray       # equality rows
    mu_lin: np.ndarray       # linear inequality rows
    mu_nl: np.ndarray        # nonlinear inequality rows (empty without them)


@dataclass
class QpResult:
    d: np.ndarray
    lam_eq: np.ndarray
    mu: np.ndarray          # signed multiplier per inequality row (0 if inactive)
    active_set: list        # list of (row, side) with side -1 (lower) / +1 (upper)
    status: str             # "optimal" | "cycle" | "infeasible"
    iterations: int


def fd_jacobian(fun, z, step: float = 1e-6) -> np.ndarray:
    """Central-difference Jacobian, column by column."""
    if step <= 0:
        raise ValueError("step must be positive")
    z = np.asarray(z, dtype=float)
    f0 = np.atleast_1d(fun(z))
    J = np.empty((f0.size, z.size))
    for j in range(z.size):
        e = np.zeros(z.size)
        e[j] = step
        J[:, j] = (np.atleast_1d(fun(z + e)) - np.atleast_1d(fun(z - e))) / (2.0 * step)
    return J


def feasibility_tolerance(*bounds) -> float:
    """The QP's feasibility tolerance: 1e-9 times the largest finite bound, at least 1e-9."""
    return 1e-9 * max([1.0] + [float(np.max(np.abs(b[np.isfinite(b)]), initial=0.0))
                               for b in bounds])


def qp_active_set(H, g, A_eq=None, b_eq=None, A_ineq=None, lo=None, hi=None) -> QpResult:
    """Solve min 1/2 d'Hd + g'd  s.t.  A_eq d = b_eq,  lo <= A_ineq d <= hi.

    Null-space elimination of equalities, then dual active-set on
    inequalities.  A column-pivoted QR  A_eq' P = [Y Z] R  gives the
    particular step d0 = Y R^-T b_eq and a basis Z of the null space of A_eq.
    The reduced QP in p, with d = d0 + Z p, has Hessian Z'HZ, gradient
    Z'(H d0 + g) and inequality rows A_ineq Z with bounds shifted by
    A_ineq d0; it is solved by dual active-set iterations (Goldfarb-Idnani).
    The equality multipliers are recovered from stationarity,
    lam = -R^-1 Y'(H d + g + A_ineq' mu).

    An equality row that depends on the others is dropped with multiplier 0
    when it is consistent with them; otherwise the status is "infeasible".
    H must be positive definite on the null space of A_eq; ``ValueError`` is
    raised when it is not.  Deterministic: fixed pivoting and tie-breaking by
    lowest constraint index.
    """
    H = np.asarray(H, dtype=float)
    g = np.asarray(g, dtype=float)
    n = g.size
    if A_eq is None or len(A_eq) == 0:
        A_eq = np.zeros((0, n))
        b_eq = np.zeros(0)
    else:
        A_eq = np.atleast_2d(np.asarray(A_eq, dtype=float))
        b_eq = np.atleast_1d(np.asarray(b_eq, dtype=float))
    if A_ineq is None or len(A_ineq) == 0:
        A_ineq = np.zeros((0, n))
        lo = np.zeros(0)
        hi = np.zeros(0)
    else:
        A_ineq = np.atleast_2d(np.asarray(A_ineq, dtype=float))
        lo = np.atleast_1d(np.asarray(lo, dtype=float))
        hi = np.atleast_1d(np.asarray(hi, dtype=float))
    m = A_ineq.shape[0]
    n_eq = A_eq.shape[0]
    max_iter = 50 + 10 * (n + 2 * m)

    feas_tol = feasibility_tolerance(b_eq, lo, hi)

    lam = np.zeros(n_eq)
    if n_eq:
        # Imported on first use: scipy.linalg adds ~0.3 s to `import socenv`.
        from scipy.linalg import qr, solve_triangular
        Q, R, piv = qr(A_eq.T, pivoting=True)
        diag = np.abs(np.diag(R))
        rank = int(np.count_nonzero(diag > _RANK_TOL * diag[0]))
        Y, Z, R11 = Q[:, :rank], Q[:, rank:], R[:rank, :rank]
        d0 = Y @ solve_triangular(R11, b_eq[piv[:rank]], trans="T")
        dependent = piv[rank:]
        if np.any(np.abs(A_eq[dependent] @ d0 - b_eq[dependent]) > feas_tol):
            return QpResult(d0, lam, np.zeros(m), [], "infeasible", 0)
        r0 = A_ineq @ d0
        p, mu, active, status, iters = _dual_active_set(
            Z.T @ H @ Z, Z.T @ (H @ d0 + g), A_ineq @ Z, lo - r0, hi - r0,
            feas_tol, max_iter)
        d = d0 + Z @ p
        lam[piv[:rank]] = -solve_triangular(R11, Y.T @ (H @ d + g + A_ineq.T @ mu))
    else:
        d, mu, active, status, iters = _dual_active_set(
            H, g, A_ineq, lo, hi, feas_tol, max_iter)
    return QpResult(d, lam, mu, active, status, iters)


def _dual_active_set(H, g, A, lo, hi, feas_tol, max_iter):
    """Dual active-set iterations for min 1/2 x'Hx + g'x  s.t.  lo <= A x <= hi.

    Start from the unconstrained minimum, repeatedly add the most violated
    side with full or partial dual steps, dropping blocking sides as needed.
    Returns (x, signed multiplier per row, active sides, status, iterations).
    """
    from scipy.linalg import cho_factor, cho_solve
    m = A.shape[0]
    try:
        chol = cho_factor(H)
    except np.linalg.LinAlgError:
        raise ValueError("QP Hessian is not positive definite on the null space of A_eq") from None

    def hsolve(v):
        return cho_solve(chol, v)

    # Sides are tagged (row, side) with side -1 (lower, A x >= lo) or +1
    # (upper, -A x >= -hi); each is kept as normal @ x >= rhs.
    x = -hsolve(g)
    active: list = []       # active sides
    u: list = []            # multipliers aligned with active (>= 0)
    ginv_cols: list = []    # cached H^{-1} @ normal per active side
    normals: list = []
    it_count = 0

    def directions(nrm, gn):
        """Step in x and in the active multipliers; gn is H^-1 @ nrm."""
        if not active:
            return gn, np.zeros(0)
        Ng = np.column_stack(ginv_cols)
        Nmat = np.column_stack(normals)
        Mred = Nmat.T @ Ng
        try:
            r = np.linalg.solve(Mred, Ng.T @ nrm)
        except np.linalg.LinAlgError:
            r, *_ = np.linalg.lstsq(Mred, Ng.T @ nrm, rcond=None)
        return gn - Ng @ r, r

    def drop(k):
        active.pop(k)
        u.pop(k)
        ginv_cols.pop(k)
        normals.pop(k)

    def add_constraint(cid, nrm, rhs):
        nonlocal x, it_count
        u_new = 0.0
        gn = hsolve(nrm)
        curv_full = float(nrm @ gn)
        while True:
            it_count += 1
            if it_count > max_iter:
                return "cycle"
            z, r = directions(nrm, gn)
            resid = rhs - float(nrm @ x)
            curv = float(nrm @ z)            # = |proj of nrm|^2 in the H metric
            if not np.isfinite(curv) or not np.isfinite(resid):
                return "cycle"
            blockers = [(u[k] / r[k], k) for k in range(len(active)) if r[k] > _ACTIVE_TOL]
            if curv <= 1e-12 * max(curv_full, 1e-300):
                # Normal linearly dependent on the active set.
                if not blockers:
                    if abs(resid) <= feas_tol:
                        return "redundant"
                    return "infeasible"
                t, k_drop = min(blockers)
                for k in range(len(active)):
                    u[k] -= t * r[k]
                u_new += t
                drop(k_drop)
                continue
            t1 = resid / curv
            t2, k_drop = min(blockers) if blockers else (np.inf, -1)
            t = min(t1, t2)
            x = x + t * z
            for k in range(len(active)):
                u[k] -= t * r[k]
            u_new += t
            if t < t1 - 1e-300 and t == t2:
                drop(k_drop)
                continue
            active.append(cid)
            u.append(u_new)
            normals.append(nrm)
            ginv_cols.append(gn)
            return "added"

    status = "optimal"
    while m:
        r_all = A @ x
        v_lo = lo - r_all
        v_hi = r_all - hi
        v_lo[~np.isfinite(lo)] = -np.inf
        v_hi[~np.isfinite(hi)] = -np.inf
        for row, side in active:
            if side < 0:
                v_lo[row] = -np.inf
            else:
                v_hi[row] = -np.inf
        i_lo = int(np.argmax(v_lo))
        i_hi = int(np.argmax(v_hi))
        if max(v_lo[i_lo], v_hi[i_hi]) <= feas_tol:
            break
        if v_lo[i_lo] >= v_hi[i_hi]:
            res = add_constraint((i_lo, -1), A[i_lo].copy(), lo[i_lo])
        else:
            res = add_constraint((i_hi, +1), -A[i_hi], -hi[i_hi])
        if res in ("infeasible", "cycle"):
            status = res
            break
        if it_count > max_iter:
            status = "cycle"
            break

    mu = np.zeros(m)
    for (row, side), mult in zip(active, u):
        mu[row] = side * mult
    return x, mu, active, status, it_count


def _linear_violation(A, lo, hi, z):
    if A.shape[0] == 0:
        return np.zeros(0)
    r = A @ z
    return np.maximum(np.maximum(r - hi, lo - r), 0.0)


def _infeasibility(c_eq, t_vals, lin_viol) -> float:
    """The filter's theta: |c|_1, the linear-row violation and the positive part of t."""
    total = float(np.sum(np.abs(c_eq))) + float(np.sum(lin_viol))
    if t_vals is not None:
        total += float(np.sum(np.maximum(t_vals, 0.0)))
    return total


def _ineq_jac(nlp: NlpProblem):
    """Jacobian of the nonlinear inequalities; central differences when none is given."""
    return nlp.ineq_jac or (lambda v: fd_jacobian(nlp.ineq_fun, v))


def kkt_certificate(nlp: NlpProblem, z, lam_eq, mu_lin, mu_nl=None) -> dict:
    """Independently recompute stationarity, feasibility and complementarity.

    Deliberately separate from the solver loop; uses the problem callbacks
    directly so a converged report can be audited.
    """
    z = np.asarray(z, dtype=float)
    g = nlp.gradient(z)
    c = np.atleast_1d(nlp.eq_fun(z))
    J = nlp.eq_jac(z)
    r = g + J.T @ np.asarray(lam_eq, dtype=float)
    lin_viol = _linear_violation(nlp.A_ineq, nlp.ineq_lower, nlp.ineq_upper, z)
    compl = 0.0
    if nlp.A_ineq.shape[0]:
        mu_lin = np.asarray(mu_lin, dtype=float)
        r = r + nlp.A_ineq.T @ mu_lin
        # A positive multiplier belongs to the upper side, a negative one to the lower.
        side = np.where(mu_lin > 0, nlp.ineq_upper, nlp.ineq_lower)
        held = (mu_lin != 0) & np.isfinite(side)
        gaps = mu_lin[held] * (side[held] - (nlp.A_ineq @ z)[held])
        compl = float(np.max(np.abs(gaps), initial=0.0))
    t_viol = 0.0
    if nlp.ineq_fun is not None:
        t = np.atleast_1d(nlp.ineq_fun(z))
        t_viol = float(np.max(np.maximum(t, 0.0), initial=0.0))
        if mu_nl is not None and np.asarray(mu_nl).size:
            Jt = _ineq_jac(nlp)(z)
            r = r + Jt.T @ np.asarray(mu_nl, dtype=float)
            compl = max(compl, float(np.max(np.abs(np.asarray(mu_nl) * t), initial=0.0)))
    return {
        "stationarity": float(np.max(np.abs(r), initial=0.0)),
        "eq_residual": float(np.max(np.abs(c), initial=0.0)),
        "ineq_violation": max(float(np.max(lin_viol, initial=0.0)), t_viol),
        "complementarity": compl,
    }


def solve_sqp(nlp: NlpProblem, z0, max_iters: int = MAX_ITERS):
    """Solve the NLP from z0 in at most ``max_iters`` iterations; returns (z, SolveReport)."""
    t_start = time.perf_counter()
    z = np.asarray(z0, dtype=float).copy()
    if z.shape != (nlp.n_vars,):
        raise ValueError(f"z0 has shape {z.shape}, expected ({nlp.n_vars},)")
    if max_iters < 1:
        raise ValueError(f"max_iters must be at least 1, got {max_iters}")

    has_nl = nlp.ineq_fun is not None
    nl_jac = _ineq_jac(nlp) if has_nl else None

    def evaluate(zz):
        """(f, c, t, linear-row violation) at zz; t is None without nonlinear inequalities."""
        ff = nlp.objective(zz)
        cc = np.atleast_1d(nlp.eq_fun(zz))
        tt = np.atleast_1d(nlp.ineq_fun(zz)) if has_nl else None
        return ff, cc, tt, _linear_violation(nlp.A_ineq, nlp.ineq_lower, nlp.ineq_upper, zz)

    def model_hessian(zz, ll):
        """The problem's Hessian at (zz, ll) with its eigenvalues floored at GN_FLOOR."""
        Hm = np.asarray(nlp.hessian(zz, ll), dtype=float)
        Hm = 0.5 * (Hm + Hm.T)
        wv, Vv = np.linalg.eigh(Hm)
        return (Vv * np.maximum(wv, GN_FLOOR)) @ Vv.T

    f, c, t_vals, lin_viol = evaluate(z)
    g = nlp.gradient(z)
    J = nlp.eq_jac(z)
    Jt = nl_jac(z) if has_nl else None

    lam = np.zeros(c.size)
    B = model_hessian(z, lam)
    nu_lin = np.zeros(nlp.A_ineq.shape[0])
    nu_nl = np.zeros(t_vals.size) if has_nl else np.zeros(0)
    relaxed = 0
    status = "max_iters"
    iters_done = 0
    theta = _infeasibility(c, t_vals, lin_viol)
    theta_scale = max(1.0, theta)
    theta_min = FILTER_THETA_MIN * theta_scale
    filter_start = [(FILTER_THETA_MAX * theta_scale, -np.inf)]
    filt = list(filter_start)   # (theta, f) pairs; a trial that one dominates is rejected

    def violations():
        """(max |c|, max inequality violation) at the current point."""
        ineq = float(np.max(lin_viol, initial=0.0))
        if t_vals is not None:
            ineq = max(ineq, float(np.max(np.maximum(t_vals, 0.0), initial=0.0)))
        return float(np.max(np.abs(c), initial=0.0)), ineq

    def kkt_point():
        """The stopping test: feasible and stationary at the latest QP multipliers."""
        if max(violations()) > EQ_TOL:
            return False
        r = g + J.T @ lam
        if nu_lin.size:
            r = r + nlp.A_ineq.T @ nu_lin
        if nu_nl.size:
            r = r + Jt.T @ nu_nl
        return float(np.max(np.abs(r), initial=0.0)) <= KKT_TOL

    def line_search(d):
        """Backtrack along d under the filter, trying one second-order correction.

        Returns (accepted point, its ``evaluate`` values, its theta), or None
        when no trial within MAX_BACKTRACKS is accepted, twice: once with the
        current filter and once more after resetting it.
        """
        gd = float(g @ d)

        def accept(vals, alpha):
            """Whether the trial with values ``vals`` at step ``alpha`` is accepted, and its theta."""
            if vals is None:   # outside the model's domain
                return False, np.inf
            f_try, theta_try = vals[0], _infeasibility(*vals[1:])
            if any(theta_try >= th and f_try >= fv for th, fv in filt):
                return False, theta_try
            if (gd < 0.0 and theta <= theta_min
                    and alpha * (-gd) ** SWITCH_EXP_F > theta ** SWITCH_EXP_THETA):
                # f-type step: Armijo on f alone, and the filter does not grow.
                return f_try <= f + LS_ARMIJO * alpha * gd, theta_try
            if (theta_try <= (1.0 - FILTER_MARGIN) * theta
                    or f_try <= f - FILTER_MARGIN * theta):
                filt.append(((1.0 - FILTER_MARGIN) * theta, f - FILTER_MARGIN * theta))
                return True, theta_try
            return False, theta_try

        def try_point(z_try, alpha):
            """(accepted, values, theta) at a trial point; a point outside the model's domain has no values."""
            try:
                vals = evaluate(z_try)
            except DomainError:
                vals = None
            return (*accept(vals, alpha), vals)

        for _ in range(2):
            alpha = 1.0
            for _ in range(MAX_BACKTRACKS):
                z_try = z + alpha * d
                ok, theta_try, vals = try_point(z_try, alpha)
                if ok:
                    return z_try, vals, theta_try
                if alpha == 1.0 and c.size and vals is not None and theta_try >= theta:
                    # Second-order correction: the full step satisfies the
                    # linearized equalities but curvature reinflates |c|; a
                    # minimum-norm correction restoring J dc = -c(z+d) often
                    # recovers the full step (Maratos remedy).
                    try:
                        dc = J.T @ np.linalg.solve(J @ J.T, -vals[1])
                    except np.linalg.LinAlgError:
                        pass
                    else:
                        z_soc = z_try + dc
                        ok, theta_soc, vals_soc = try_point(z_soc, alpha)
                        if ok:
                            return z_soc, vals_soc, theta_soc
                alpha *= LS_BACKTRACK
            filt[:] = filter_start
        return None

    for it in range(1, max_iters + 1):
        if it > 1 and kkt_point():
            status = "converged"
            break
        iters_done = it

        # Assemble the QP in the step d: linear rows are shifted to the
        # current point, nonlinear inequalities are linearized.
        Az = nlp.A_ineq @ z
        A_all, lo_all, hi_all = nlp.A_ineq, nlp.ineq_lower - Az, nlp.ineq_upper - Az
        if has_nl:
            A_all = np.vstack([A_all, Jt])
            lo_all = np.concatenate([lo_all, np.full(t_vals.size, -np.inf)])
            hi_all = np.concatenate([hi_all, -t_vals])

        qp = qp_active_set(B, g, J, -c, A_all, lo_all, hi_all)
        if qp.status != "optimal":
            # Proportional relaxation of the equality targets; a crude but
            # deterministic stand-in for a full elastic-mode restoration.
            beta = 0.5
            for _ in range(5):
                qp = qp_active_set(B, g, J, -beta * c, A_all, lo_all, hi_all)
                relaxed += 1
                if qp.status == "optimal":
                    break
                beta *= 0.5
            if qp.status != "optimal":
                status = "qp_failure"
                break
        d = qp.d
        lam = qp.lam_eq
        nu_all = qp.mu
        nu_lin = nu_all[: nlp.A_ineq.shape[0]]
        nu_nl = nu_all[nlp.A_ineq.shape[0]:] if has_nl else np.zeros(0)

        # A zero step or a failed line search ends the solve, converged only at a KKT point.
        step = line_search(d) if float(np.max(np.abs(d), initial=0.0)) >= 1e-13 else None
        if step is None:
            status = "converged" if kkt_point() else "line_search_failure"
            break
        z, (f, c, t_vals, lin_viol), theta = step
        g = nlp.gradient(z)
        J = nlp.eq_jac(z)
        Jt = nl_jac(z) if has_nl else None
        B = model_hessian(z, lam)

    max_eq_residual, max_ineq_violation = violations()
    report = SolveReport(
        status=status,
        iterations=iters_done,
        objective=float(f),
        max_eq_residual=max_eq_residual,
        max_ineq_violation=max_ineq_violation,
        wall_time=time.perf_counter() - t_start,
        relaxed_qp_steps=relaxed,
        lam_eq=lam,
        mu_lin=nu_lin,
        mu_nl=nu_nl,
    )
    return z, report
